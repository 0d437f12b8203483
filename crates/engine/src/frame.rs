//! The one binary frame codec. Checkpoints, registry spill files and
//! `bsom-serve` wire messages are frames of the constant specs
//! [`CHECKPOINT`] and [`WIRE`]: magic (8 bytes), format (`u32` LE), a kind
//! byte (wire only), payload length `L` (`u64` LE), the payload (`L` bytes)
//! and the FNV-1a-64 [`checksum`] of everything before it (`u64` LE).
//! DESIGN.md works an example of each; the tests below pin both. Every
//! malformed input is a typed [`FrameError`], never a panic, and nothing is
//! allocated for a declared length before it is checked.

use std::error::Error;
use std::fmt;
use std::io::{self, Read};
use std::ops::RangeInclusive;

/// Trailing checksum bytes.
pub const CHECKSUM_LEN: usize = 8;

/// One frame layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSpec {
    /// The leading magic bytes.
    pub magic: [u8; 8],
    /// The format versions accepted.
    pub formats: RangeInclusive<u32>,
    /// Whether a one-byte message kind follows the format.
    pub has_kind: bool,
    /// Largest payload length accepted.
    pub max_payload: u64,
}

/// Checkpoint and spill files: format 1, no kind byte, and no payload bound
/// beyond the file itself, so a map of any size loads.
pub const CHECKPOINT: FrameSpec = FrameSpec {
    magic: *b"BSOMCKPT",
    formats: 1..=1,
    has_kind: false,
    max_payload: u64::MAX,
};

/// Wire messages: format 1, or 2 for tenant addressing, a kind byte, and a
/// 16 MiB bound so a hostile length prefix cannot drive an out-of-memory.
pub const WIRE: FrameSpec = FrameSpec {
    magic: *b"BSOMWIRE",
    formats: 1..=2,
    has_kind: true,
    max_payload: 16 * 1024 * 1024,
};

/// Why bytes are not a frame of the expected spec, in the order checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// Shorter than an empty frame (header + checksum).
    TooShort {
        /// Bytes available.
        len: usize,
    },
    /// The first eight bytes are not the spec's magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// The format version is outside the spec's range.
    UnsupportedFormat {
        /// The version found.
        found: u32,
    },
    /// The declared payload length exceeds the spec's bound.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The input ends inside the frame: a torn write or a peer hang-up.
    Truncated {
        /// Frame bytes the header requires.
        needed: u64,
        /// Frame bytes present.
        available: u64,
    },
    /// The stored checksum does not match: a flipped bit or overwrite.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum computed over the frame.
        computed: u64,
    },
    /// Bytes follow a complete frame where exactly one was expected.
    TrailingBytes {
        /// How many.
        extra: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FrameError::TooShort { len } => write!(f, "frame too short: {len} bytes"),
            FrameError::BadMagic { found } => write!(f, "frame magic mismatch: {found:02x?}"),
            FrameError::UnsupportedFormat { found } => write!(f, "frame format {found} unknown"),
            FrameError::Oversized { declared, max } => write!(f, "frame {declared} > {max} B"),
            FrameError::Truncated { needed, available } => {
                write!(f, "frame truncated: {available} of {needed} bytes")
            }
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(f, "frame checksum {stored:#018x} != {computed:#018x}")
            }
            FrameError::TrailingBytes { extra } => write!(f, "{extra} bytes after the frame"),
        }
    }
}

impl Error for FrameError {}

/// A checked frame, borrowed from its buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The format version.
    pub format: u32,
    /// The kind byte, `Some` exactly when the spec has one.
    pub kind: Option<u8>,
    /// The payload.
    pub payload: &'a [u8],
    /// Bytes the frame occupies, checksum included.
    pub len: usize,
}

/// FNV-1a-64 over `bytes`: dependency-free corruption detection, not a MAC.
pub fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes convert to [u8; 8]"))
}

impl FrameSpec {
    /// Bytes before the payload: magic, format, kind byte if any, length.
    pub const fn header_len(&self) -> usize {
        8 + 4 + self.has_kind as usize + 8
    }

    /// Seals `payload` into a complete frame; `kind` is `Some` exactly when
    /// the spec has a kind byte.
    pub fn seal(&self, format: u32, kind: Option<u8>, payload: &[u8]) -> Vec<u8> {
        debug_assert!(self.formats.contains(&format) && kind.is_some() == self.has_kind);
        let mut frame = Vec::with_capacity(self.header_len() + payload.len() + CHECKSUM_LEN);
        frame.extend_from_slice(&self.magic);
        frame.extend_from_slice(&format.to_le_bytes());
        frame.extend(kind);
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&checksum(&frame).to_le_bytes());
        frame
    }

    /// Checks a complete header; returns format, kind and payload length.
    fn header(&self, bytes: &[u8]) -> Result<(u32, Option<u8>, u64), FrameError> {
        let found: [u8; 8] = bytes[..8].try_into().expect("8 bytes convert to [u8; 8]");
        if found != self.magic {
            return Err(FrameError::BadMagic { found });
        }
        let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes convert"));
        if !self.formats.contains(&format) {
            return Err(FrameError::UnsupportedFormat { found: format });
        }
        let declared = le_u64(&bytes[self.header_len() - 8..]);
        if declared > self.max_payload {
            let max = self.max_payload;
            return Err(FrameError::Oversized { declared, max });
        }
        Ok((format, self.has_kind.then(|| bytes[12]), declared))
    }

    /// Checks the frame at the front of `bytes`, leaving what follows it to
    /// the caller ([`Frame::len`] is where the next frame starts).
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        let header_len = self.header_len();
        if bytes.len() < header_len + CHECKSUM_LEN {
            return Err(FrameError::TooShort { len: bytes.len() });
        }
        let (format, kind, declared) = self.header(bytes)?;
        if declared > (bytes.len() - header_len - CHECKSUM_LEN) as u64 {
            return Err(FrameError::Truncated {
                needed: declared.saturating_add((header_len + CHECKSUM_LEN) as u64),
                available: bytes.len() as u64,
            });
        }
        let end = header_len + declared as usize;
        let stored = le_u64(&bytes[end..]);
        let computed = checksum(&bytes[..end]);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        Ok(Frame {
            format,
            kind,
            payload: &bytes[header_len..end],
            len: end + CHECKSUM_LEN,
        })
    }

    /// [`open`](Self::open) for bytes that must hold exactly one frame.
    pub fn open_exact<'a>(&self, bytes: &'a [u8]) -> Result<Frame<'a>, FrameError> {
        let frame = self.open(bytes)?;
        match (bytes.len() - frame.len) as u64 {
            0 => Ok(frame),
            extra => Err(FrameError::TrailingBytes { extra }),
        }
    }

    /// Reads one frame from a stream into `buf` and [`open`](Self::open)s
    /// it: `Ok(None)` at a clean end of stream, [`FrameError::Truncated`]
    /// inside a frame. `buf` grows only with bytes that arrive, so a forged
    /// length cannot allocate what the peer never sends.
    pub fn read<'b, R: Read, E>(
        &self,
        reader: &mut R,
        buf: &'b mut Vec<u8>,
    ) -> Result<Option<Frame<'b>>, E>
    where
        E: From<io::Error> + From<FrameError>,
    {
        /// Most bytes reserved for a frame before they arrive.
        const RESERVE: u64 = 1 << 20;
        let mut needed = self.header_len() as u64;
        buf.clear();
        reader.by_ref().take(needed).read_to_end(buf)?;
        if buf.is_empty() {
            return Ok(None);
        }
        if buf.len() as u64 == needed {
            let rest = self.header(buf)?.2.saturating_add(CHECKSUM_LEN as u64);
            buf.reserve_exact(rest.min(RESERVE) as usize);
            reader.by_ref().take(rest).read_to_end(buf)?;
            needed = needed.saturating_add(rest);
        }
        let available = buf.len() as u64;
        if available < needed {
            return Err(FrameError::Truncated { needed, available }.into());
        }
        Ok(Some(self.open(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckpointError;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_design_worked_examples_are_the_exact_bytes() {
        // DESIGN.md §"Fault model and recovery": the checkpoint `{}` frame.
        let checkpoint = b"BSOMCKPT\x01\0\0\0\x02\0\0\0\0\0\0\0{}\xa7\x3d\x16\x77\x0a\x93\x75\xbb";
        assert_eq!(CHECKPOINT.seal(1, None, b"{}"), checkpoint);
        assert_eq!(checksum(&checkpoint[..22]), 0xbb75_930a_7716_3da7);
        // DESIGN.md §"The serving front-end": the wire HealthRequest frame.
        let wire = b"BSOMWIRE\x01\0\0\0\x02\0\0\0\0\0\0\0\0\x18\xa7\x9e\x6f\x40\xf7\x20\xb4";
        assert_eq!(WIRE.seal(1, Some(0x02), b""), wire);
        assert_eq!(checksum(&wire[..21]), 0xb420_f740_6f9e_a718);
        let frame = WIRE.open_exact(wire).unwrap();
        assert_eq!((frame.format, frame.kind, frame.len), (1, Some(0x02), 29));
    }

    #[test]
    fn frame_roundtrip_and_every_field_of_the_header_is_checked() {
        let payload = b"{\"hello\":1}";
        let frame = CHECKPOINT.seal(1, None, payload);
        assert_eq!(CHECKPOINT.open_exact(&frame).unwrap().payload, payload);
        let header_len = CHECKPOINT.header_len();
        let xor = |at: usize, mask: u8| {
            let mut bytes = frame.clone();
            bytes[at] ^= mask;
            bytes
        };
        let mut long = frame.clone();
        long.push(0);
        let mut big = WIRE.seal(1, Some(0x02), b"");
        big[13..21].copy_from_slice(&(WIRE.max_payload + 1).to_le_bytes());
        let errors = [
            CHECKPOINT.open(&frame[..header_len]),
            CHECKPOINT.open(&xor(0, 0xFF)),
            CHECKPOINT.open(&xor(8, 0xEF)),
            // Cut inside the payload.
            CHECKPOINT.open(&frame[..frame.len() - CHECKSUM_LEN - 1]),
            CHECKPOINT.open(&xor(header_len + 2, 0x10)),
            CHECKPOINT.open_exact(&long),
            // Only the wire spec bounds the payload.
            WIRE.open(&big),
        ]
        .map(Result::unwrap_err);
        assert_eq!(errors[0], FrameError::TooShort { len: header_len });
        assert!(matches!(errors[1], FrameError::BadMagic { .. }));
        assert_eq!(errors[2], FrameError::UnsupportedFormat { found: 0xEE });
        assert!(matches!(errors[3], FrameError::Truncated { .. }));
        assert!(matches!(errors[4], FrameError::ChecksumMismatch { .. }));
        assert_eq!(errors[5], FrameError::TrailingBytes { extra: 1 });
        assert!(matches!(errors[6], FrameError::Oversized { .. }));
        assert!(errors.iter().all(|error| !error.to_string().is_empty()));
        assert_eq!(CHECKPOINT.open(&long).unwrap().len, frame.len());
    }

    #[test]
    fn every_bit_flip_and_every_truncation_is_rejected_in_both_specs() {
        let frames = [
            (CHECKPOINT, CHECKPOINT.seal(1, None, b"{\"map\":[1,2,3]}")),
            (WIRE, WIRE.seal(1, Some(0x01), &[7; 24])),
            (WIRE, WIRE.seal(2, Some(0x04), &[9; 17])),
        ];
        for (spec, frame) in frames {
            let length_at = spec.header_len() - 8;
            for byte in 0..frame.len() {
                for bit in 0..8 {
                    let mut corrupted = frame.clone();
                    corrupted[byte] ^= 1 << bit;
                    let err = spec.open_exact(&corrupted).unwrap_err();
                    let expected = match byte {
                        0..=7 => matches!(err, FrameError::BadMagic { .. }),
                        // No single flip turns one accepted format into
                        // another (1 and 2 differ in two bits).
                        8..=11 => matches!(err, FrameError::UnsupportedFormat { .. }),
                        _ if (length_at..length_at + 8).contains(&byte) => matches!(
                            err,
                            FrameError::Oversized { .. }
                                | FrameError::Truncated { .. }
                                | FrameError::ChecksumMismatch { .. }
                        ),
                        _ => matches!(err, FrameError::ChecksumMismatch { .. }),
                    };
                    assert!(expected, "byte {byte} bit {bit}: {err}");
                    let mut buf = Vec::new();
                    let streamed = spec.read::<_, CheckpointError>(&mut &corrupted[..], &mut buf);
                    assert!(streamed.is_err(), "stream byte {byte} bit {bit}");
                }
            }
            for len in 0..frame.len() {
                let err = spec.open(&frame[..len]).unwrap_err();
                let cut = matches!(
                    err,
                    FrameError::TooShort { .. } | FrameError::Truncated { .. }
                );
                assert!(cut, "len {len}: {err}");
                // A stream that ends mid-frame is truncated; only an empty
                // one is a clean end.
                match spec.read::<_, CheckpointError>(&mut &frame[..len], &mut vec![]) {
                    Ok(None) => assert_eq!(len, 0),
                    Err(CheckpointError::Frame(FrameError::Truncated { .. })) => {}
                    other => panic!("len {len}: {other:?}"),
                }
            }
        }
    }
}
