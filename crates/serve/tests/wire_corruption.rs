//! Adversarial decoding: every corruption of a wire frame must come back as
//! a typed [`WireError`], never a panic and never a silently-wrong message.
//!
//! The suite mirrors `bsom-engine`'s `checkpoint_corruption` tests: a
//! pristine-frame anchor first (so the corruption tests cannot pass
//! vacuously against a decoder that rejects everything), then exhaustive
//! single-bit flips and truncations, then proptest-driven trailing garbage
//! and byte soup.

use std::io::Cursor;

use bsom_engine::frame;
use bsom_serve::wire::{
    self, checksum, decode_message, decode_message_exact, decode_message_with_max_format,
    encode_message, read_message, FrameError, WireError, WireMessage, MAX_WIRE_PAYLOAD,
    WIRE_CHECKSUM_LEN, WIRE_FORMAT, WIRE_FORMAT_TENANT, WIRE_HEADER_LEN,
};
use bsom_signature::BinaryVector;
use proptest::prelude::*;

/// A small classify request with a partial tail word: exercises the count,
/// vector-length, packing, and tail-mask validation paths all at once.
fn pristine_frame() -> Vec<u8> {
    let mut a = BinaryVector::zeros(100);
    let mut b = BinaryVector::zeros(100);
    for i in (0..100).step_by(3) {
        a.set(i, true);
    }
    for i in (0..100).step_by(7) {
        b.set(i, true);
    }
    wire::encode_classify_request(&[a, b])
}

/// The format-2 siblings: a tenant-addressed classify and a train request.
/// Together they cover every format-2-only decode path (tenant prefix,
/// train payload).
fn pristine_tenant_frames() -> Vec<Vec<u8>> {
    let mut a = BinaryVector::zeros(100);
    for i in (0..100).step_by(5) {
        a.set(i, true);
    }
    let classify = wire::encode_classify_request_for(Some("tenant-α"), &[a.clone()]);
    let train = encode_message(&WireMessage::TrainRequest {
        tenant: Some("tenant-α".to_string()),
        examples: vec![(a, 3)],
    });
    vec![classify, train]
}

#[test]
fn the_pristine_frame_decodes() {
    let frame = pristine_frame();
    let message = decode_message_exact(&frame).expect("pristine frame must decode");
    let WireMessage::ClassifyRequest { tenant, signatures } = &message else {
        panic!("expected a classify request, got {message:?}");
    };
    assert_eq!(tenant, &None);
    assert_eq!(signatures.len(), 2);
    assert_eq!(signatures[0].len(), 100);
    assert!(signatures[0].bit(99));
    // The stream reader agrees with the exact decoder.
    let mut cursor = Cursor::new(frame.clone());
    let streamed = read_message(&mut cursor)
        .expect("stream decode must succeed")
        .expect("a full frame is not EOF");
    assert_eq!(streamed, message);
}

#[test]
fn the_pristine_tenant_frames_decode() {
    let frames = pristine_tenant_frames();
    let classify = decode_message_exact(&frames[0]).expect("tenant classify must decode");
    let WireMessage::ClassifyRequest { tenant, signatures } = &classify else {
        panic!("expected a classify request, got {classify:?}");
    };
    assert_eq!(tenant.as_deref(), Some("tenant-α"));
    assert_eq!(signatures.len(), 1);
    let train = decode_message_exact(&frames[1]).expect("train request must decode");
    let WireMessage::TrainRequest { tenant, examples } = &train else {
        panic!("expected a train request, got {train:?}");
    };
    assert_eq!(tenant.as_deref(), Some("tenant-α"));
    assert_eq!(examples.len(), 1);
    assert_eq!(examples[0].1, 3);
}

#[test]
fn every_single_bit_flip_is_rejected() {
    let frame = pristine_frame();
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut corrupted = frame.clone();
            corrupted[byte] ^= 1 << bit;
            let err = decode_message_exact(&corrupted)
                .expect_err(&format!("flip of byte {byte} bit {bit} must not decode"));
            // Spot-check the typed-ness of a few structurally distinct zones.
            if byte < 8 {
                assert!(
                    matches!(err, WireError::Frame(FrameError::BadMagic { .. })),
                    "byte {byte}: {err}"
                );
            } else if byte >= frame.len() - WIRE_CHECKSUM_LEN {
                assert!(
                    matches!(err, WireError::Frame(FrameError::ChecksumMismatch { .. })),
                    "byte {byte}: {err}"
                );
            }
            // The stream reader must also reject it without panicking.
            let mut cursor = Cursor::new(corrupted);
            assert!(read_message(&mut cursor).is_err(), "byte {byte} bit {bit}");
        }
    }
}

#[test]
fn every_single_bit_flip_of_a_format_2_frame_is_rejected() {
    for frame in pristine_tenant_frames() {
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupted = frame.clone();
                corrupted[byte] ^= 1 << bit;
                let err = decode_message_exact(&corrupted)
                    .expect_err(&format!("flip of byte {byte} bit {bit} must not decode"));
                if byte < 8 {
                    assert!(
                        matches!(err, WireError::Frame(FrameError::BadMagic { .. })),
                        "byte {byte}: {err}"
                    );
                } else if (8..12).contains(&byte) {
                    // No single flip of the format field 2 can reach the
                    // other valid format 1 (they differ in two bits), so
                    // every flip is an unsupported format — caught before
                    // the checksum is even computed.
                    assert!(
                        matches!(err, WireError::Frame(FrameError::UnsupportedFormat { .. })),
                        "byte {byte}: {err}"
                    );
                } else if byte >= frame.len() - WIRE_CHECKSUM_LEN {
                    assert!(
                        matches!(err, WireError::Frame(FrameError::ChecksumMismatch { .. })),
                        "byte {byte}: {err}"
                    );
                }
                let mut cursor = Cursor::new(corrupted);
                assert!(read_message(&mut cursor).is_err(), "byte {byte} bit {bit}");
            }
        }
    }
}

#[test]
fn truncation_at_every_offset_of_a_format_2_frame_is_rejected() {
    for frame in pristine_tenant_frames() {
        for len in 1..frame.len() {
            let err = decode_message_exact(&frame[..len])
                .expect_err(&format!("truncation to {len} bytes must not decode"));
            assert!(
                matches!(
                    err,
                    WireError::Frame(FrameError::TooShort { .. })
                        | WireError::Frame(FrameError::Truncated { .. })
                ),
                "len {len}: {err}"
            );
        }
    }
}

/// The cross-decode compatibility matrix the module docs promise:
///
/// |                      | format-1 frame           | format-2 frame        |
/// |----------------------|--------------------------|-----------------------|
/// | pre-tenant decoder   | decodes                  | `UnsupportedFormat`   |
/// | this decoder         | decodes, default tenant  | decodes, tenant id    |
#[test]
fn format_cross_decode_matrix() {
    let v1 = pristine_frame();
    let v2 = &pristine_tenant_frames()[0];

    // Old decoder × old frame: decodes, no tenant.
    let (message, _) =
        decode_message_with_max_format(&v1, WIRE_FORMAT).expect("v1 frame on a v1 decoder");
    assert!(matches!(
        message,
        WireMessage::ClassifyRequest { tenant: None, .. }
    ));

    // Old decoder × new frame: typed rejection, never a misread.
    let err = decode_message_with_max_format(v2, WIRE_FORMAT)
        .expect_err("a pre-tenant decoder must reject format 2");
    assert!(
        matches!(
            err,
            WireError::Frame(FrameError::UnsupportedFormat { found: 2 })
        ),
        "{err}"
    );

    // New decoder × old frame: decodes, routed to the default tenant.
    let (message, _) =
        decode_message_with_max_format(&v1, WIRE_FORMAT_TENANT).expect("v1 frame on a v2 decoder");
    assert!(matches!(
        message,
        WireMessage::ClassifyRequest { tenant: None, .. }
    ));

    // New decoder × new frame: decodes with the tenant id intact.
    let (message, _) =
        decode_message_with_max_format(v2, WIRE_FORMAT_TENANT).expect("v2 frame on a v2 decoder");
    let WireMessage::ClassifyRequest { tenant, .. } = message else {
        panic!("expected a classify request");
    };
    assert_eq!(tenant.as_deref(), Some("tenant-α"));
}

#[test]
fn truncation_at_every_offset_is_rejected() {
    let frame = pristine_frame();
    for len in 1..frame.len() {
        let truncated = &frame[..len];
        let err = decode_message_exact(truncated)
            .expect_err(&format!("truncation to {len} bytes must not decode"));
        assert!(
            matches!(
                err,
                WireError::Frame(FrameError::TooShort { .. })
                    | WireError::Frame(FrameError::Truncated { .. })
            ),
            "len {len}: {err}"
        );
        // Mid-frame EOF on a stream is Truncated, not a clean end.
        let mut cursor = Cursor::new(truncated.to_vec());
        let err = read_message(&mut cursor).expect_err("mid-frame EOF must error");
        assert!(
            matches!(err, WireError::Frame(FrameError::Truncated { .. })),
            "len {len}: {err}"
        );
    }
    // Zero bytes IS a clean end of stream — the one non-error truncation.
    let mut empty = Cursor::new(Vec::new());
    assert!(matches!(read_message(&mut empty), Ok(None)));
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let mut frame = pristine_frame();
    // Overwrite the payload-length field (bytes 13..21) with a declared
    // size just past the cap; reseal the checksum so only the bound fires.
    let huge = MAX_WIRE_PAYLOAD + 1;
    frame[13..21].copy_from_slice(&huge.to_le_bytes());
    let body_len = frame.len() - WIRE_CHECKSUM_LEN;
    let sum = checksum(&frame[..body_len]);
    frame[body_len..].copy_from_slice(&sum.to_le_bytes());
    let err = decode_message_exact(&frame).expect_err("oversized must not decode");
    assert!(
        matches!(err, WireError::Frame(FrameError::Oversized { .. })),
        "{err}"
    );
    // The stream path must refuse before trying to read (or buffer) 16 MiB+.
    let mut cursor = Cursor::new(frame[..WIRE_HEADER_LEN].to_vec());
    let err = read_message(&mut cursor).expect_err("oversized stream must error");
    assert!(
        matches!(err, WireError::Frame(FrameError::Oversized { .. })),
        "{err}"
    );
}

#[test]
fn a_request_declaring_too_many_signatures_is_rejected() {
    // A header-valid, checksum-valid frame whose *payload* lies: count is
    // over the per-request cap. Must be Malformed, not a huge allocation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&(wire::MAX_REQUEST_SIGNATURES + 1).to_le_bytes());
    payload.extend_from_slice(&64u32.to_le_bytes());
    let mut frame = Vec::new();
    frame.extend_from_slice(&wire::WIRE_MAGIC);
    frame.extend_from_slice(&wire::WIRE_FORMAT.to_le_bytes());
    frame.push(0x01);
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&payload);
    let sum = checksum(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    let err = decode_message_exact(&frame).expect_err("absurd count must not decode");
    assert!(matches!(err, WireError::Malformed { .. }), "{err}");
}

#[test]
fn non_canonical_booleans_are_rejected() {
    // A checksum-valid frame whose flag byte is 2 would decode to a message
    // that re-encodes to different bytes. `draining` follows fourteen u64
    // health counters; `checkpoint_written` follows one u64.
    for (kind, mut payload, flag_at) in
        [(0x82, vec![0; 14 * 8 + 2], 14 * 8), (0x83, vec![0; 17], 8)]
    {
        decode_message_exact(&frame::WIRE.seal(WIRE_FORMAT, Some(kind), &payload)).unwrap();
        payload[flag_at] = 2;
        let err = decode_message_exact(&frame::WIRE.seal(WIRE_FORMAT, Some(kind), &payload))
            .expect_err("flag byte 2 must not decode");
        assert!(matches!(err, WireError::Malformed { .. }), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trailing_garbage_is_rejected_by_exact_decode(
        extra in prop::collection::vec(any::<u8>(), 1..64)
    ) {
        let mut frame = pristine_frame();
        let frame_len = frame.len();
        frame.extend_from_slice(&extra);
        let err = decode_message_exact(&frame).expect_err("trailing bytes must fail exact decode");
        prop_assert!(matches!(err, WireError::Frame(FrameError::TrailingBytes { .. })), "{err}");
        // The incremental decoder, by contrast, consumes exactly one frame
        // and reports where the next one starts — that is how the
        // connection reader separates pipelined requests.
        let (message, consumed) = decode_message(&frame).expect("stream decode takes one frame");
        prop_assert_eq!(consumed, frame_len);
        prop_assert!(matches!(message, WireMessage::ClassifyRequest { .. }));
    }

    #[test]
    fn byte_soup_is_rejected(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assert!(decode_message_exact(&bytes).is_err());
    }

    #[test]
    fn byte_soup_after_a_valid_frame_does_not_corrupt_it(
        bytes in prop::collection::vec(any::<u8>(), 1..128)
    ) {
        // A well-formed frame followed by soup: the first decode succeeds
        // bit-for-bit, the remainder is rejected.
        let frame = pristine_frame();
        let mut stream = frame.clone();
        stream.extend_from_slice(&bytes);
        let (message, consumed) = decode_message(&stream).expect("first frame decodes");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(encode_message(&message), frame);
        prop_assert!(decode_message(&stream[consumed..]).is_err());
    }

    #[test]
    fn every_message_kind_survives_reencode_after_soup_rejection(
        seed in any::<u64>()
    ) {
        // Round-trip stability is the anchor the corruption assertions hang
        // off: encode → decode → encode is byte-identical for a seeded
        // request of arbitrary (bounded) shape.
        let len = 1 + (seed % 300) as usize;
        let count = 1 + (seed % 5) as usize;
        let mut signatures = Vec::new();
        for c in 0..count {
            let mut v = BinaryVector::zeros(len);
            let mut state = seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for i in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                v.set(i, state & 1 == 1);
            }
            signatures.push(v);
        }
        let frame = wire::encode_classify_request(&signatures);
        let decoded = decode_message_exact(&frame).expect("round-trip");
        prop_assert_eq!(encode_message(&decoded), frame);
    }
}
