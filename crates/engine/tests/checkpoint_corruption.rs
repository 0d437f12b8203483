//! Property suite: **corrupted checkpoints are rejected with a typed error,
//! never a panic and never a silently-wrong map.**
//!
//! A checkpoint frame is length-prefixed and FNV-1a-checksummed (DESIGN.md
//! §"Fault model and recovery"), so any single bit flip and any truncation
//! must surface as a [`CheckpointError`] from
//! [`SomService::resume_from_checkpoint`]. proptest treats a panic inside
//! the closure as a failure, so these properties also prove the decode path
//! is panic-free on adversarial input.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bsom_engine::{frame, CheckpointError, EngineConfig, SomService};
use bsom_signature::BinaryVector;
use bsom_som::{BSom, BSomConfig, ObjectLabel, TrainSchedule};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One pristine checkpoint frame, built once: spawning a service per proptest
/// case would fork worker threads hundreds of times for no extra coverage.
fn pristine_frame() -> &'static [u8] {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let som = BSom::new(BSomConfig::new(6, 72), &mut rng);
        let (_service, mut trainer) = SomService::train_while_serve(
            som,
            TrainSchedule::new(4),
            &[],
            EngineConfig::with_workers(1),
        );
        for step in 0..30 {
            let signature = BinaryVector::random(72, &mut rng);
            trainer
                .feed(&signature, ObjectLabel::new(step % 3))
                .unwrap();
        }
        trainer.publish();
        let path = scratch_path();
        trainer.write_checkpoint(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            bytes.len() > 28,
            "frame must be header + payload + checksum"
        );
        bytes
    })
}

/// A fresh scratch file per call, so parallel proptest cases never collide.
fn scratch_path() -> PathBuf {
    static SERIAL: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bsom-checkpoint-corruption-{}-{}.ckpt",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Writes `bytes` to a scratch file and attempts a resume; hands back the
/// result and cleans the file up. Panics inside `resume_from_checkpoint`
/// propagate and fail the proptest case — that is the point.
fn resume_bytes(bytes: &[u8]) -> Result<(), CheckpointError> {
    let path = scratch_path();
    std::fs::write(&path, bytes).unwrap();
    let outcome = SomService::resume_from_checkpoint(&path).map(drop);
    std::fs::remove_file(&path).ok();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in the frame — header, payload or
    /// checksum — is rejected with a typed error.
    #[test]
    fn a_single_bit_flip_anywhere_is_rejected(position in any::<usize>(), bit in 0u8..8) {
        let mut bytes = pristine_frame().to_vec();
        let offset = position % bytes.len();
        bytes[offset] ^= 1 << bit;
        let outcome = resume_bytes(&bytes);
        prop_assert!(
            outcome.is_err(),
            "flipping bit {bit} of byte {offset} must not load"
        );
    }

    /// Any truncation — from an empty file up to one byte short — is
    /// rejected with a typed error.
    #[test]
    fn any_truncation_is_rejected(position in any::<usize>()) {
        let frame = pristine_frame();
        let keep = position % frame.len(); // 0..len, never the full frame
        let outcome = resume_bytes(&frame[..keep]);
        prop_assert!(outcome.is_err(), "a frame cut to {keep} bytes must not load");
    }

    /// Appending garbage after a valid frame is rejected (`TrailingBytes`):
    /// a concatenated or doubly-written file never half-loads.
    #[test]
    fn trailing_garbage_is_rejected(extra in prop::collection::vec(any::<u8>(), 1..64)) {
        let mut bytes = pristine_frame().to_vec();
        bytes.extend_from_slice(&extra);
        let outcome = resume_bytes(&bytes);
        prop_assert!(outcome.is_err(), "trailing bytes must not load");
    }

    /// Arbitrary byte soup — no structure at all — is rejected without a
    /// panic.
    #[test]
    fn random_bytes_are_rejected(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let outcome = resume_bytes(&bytes);
        prop_assert!(outcome.is_err(), "random bytes must not load as a checkpoint");
    }
}

/// Sanity anchor for the properties above: the pristine frame itself *does*
/// load. (If this fails, the corruption properties would pass vacuously.)
#[test]
fn the_pristine_frame_loads() {
    resume_bytes(pristine_frame()).expect("the uncorrupted frame must load");
}

/// Re-frames a payload the way the writer does, so the checksum is valid
/// for whatever the payload says.
fn reframe(payload: &[u8]) -> Vec<u8> {
    frame::CHECKPOINT.seal(1, None, payload)
}

/// Rewrites the word list of the first `"plane":{"words":[...]` in `json`.
fn tamper_plane(json: &str, plane: &str, edit: impl Fn(&mut Vec<String>)) -> String {
    let key = format!("\"{plane}\":{{\"words\":[");
    let start = json.find(&key).expect("payload holds the plane") + key.len();
    let end = start + json[start..].find(']').expect("word list is closed");
    let mut words: Vec<String> = json[start..end].split(',').map(str::to_owned).collect();
    edit(&mut words);
    format!("{}{}{}", &json[..start], words.join(","), &json[end..])
}

/// Checksums only catch accidental corruption: a frame whose checksum is
/// valid but whose payload carries tri-state planes no constructor would
/// build must still be a typed error, never a panic or a loaded map.
#[test]
fn checksum_valid_frames_with_tampered_planes_are_typed_errors() {
    let frame = pristine_frame();
    let payload = std::str::from_utf8(&frame[20..frame.len() - 8]).unwrap();
    let tampered = [
        // A third word for a 72-bit plane (two words needed).
        tamper_plane(payload, "value", |words| words.push("0".into())),
        // A clear first care word under the random concrete value bits:
        // value bits outside the care plane.
        tamper_plane(payload, "care", |words| words[0] = "0".into()),
        // Bit 72 of the care plane, beyond the length.
        tamper_plane(payload, "care", |words| words[1] = "256".into()),
    ];
    for bad in &tampered {
        assert_ne!(bad, payload, "fixture must tamper the payload");
        let outcome = resume_bytes(&reframe(bad.as_bytes()));
        assert!(
            matches!(outcome, Err(CheckpointError::Invalid { .. })),
            "tampered planes must be CheckpointError::Invalid, got {outcome:?}"
        );
    }
}

/// Rewrites the stored engine config field `key` from `from` to `to`.
fn tamper_config(payload: &str, key: &str, from: &str, to: &str) -> String {
    let old = format!("\"{key}\":{from}");
    assert!(payload.contains(&old), "payload holds {old}");
    payload.replacen(&old, &format!("\"{key}\":{to}"), 1)
}

/// The job queue is allocated whole when the pool starts: a checksum-valid
/// checkpoint asking for a huge queue must be `Invalid`, not an abort on
/// the allocation.
#[test]
fn checksum_valid_frames_with_a_huge_queue_capacity_are_invalid() {
    let frame = pristine_frame();
    let payload = std::str::from_utf8(&frame[20..frame.len() - 8]).unwrap();
    let bad = tamper_config(payload, "queue_capacity", "null", "1000000000000000");
    let outcome = resume_bytes(&reframe(bad.as_bytes()));
    assert!(
        matches!(outcome, Err(CheckpointError::Invalid { .. })),
        "a huge queue capacity must be CheckpointError::Invalid, got {outcome:?}"
    );
}

/// One thread is spawned per worker: a checksum-valid checkpoint asking for
/// a huge worker count must be `Invalid`, not a spawn failure.
#[test]
fn checksum_valid_frames_with_a_huge_worker_count_are_invalid() {
    let frame = pristine_frame();
    let payload = std::str::from_utf8(&frame[20..frame.len() - 8]).unwrap();
    let bad = tamper_config(payload, "workers", "1", "1000000000000000");
    let outcome = resume_bytes(&reframe(bad.as_bytes()));
    assert!(
        matches!(outcome, Err(CheckpointError::Invalid { .. })),
        "a huge worker count must be CheckpointError::Invalid, got {outcome:?}"
    );
}
