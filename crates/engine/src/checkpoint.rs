//! Crash-safe checkpoints: the full training state as a JSON document in a
//! [`frame::CHECKPOINT`] frame, committed by temp-file + atomic rename.
//!
//! The frame (magic `BSOMCKPT`, format 1, payload length, FNV-1a-64
//! checksum; layout in [`frame`]) rejects a torn prefix, a truncated tail
//! and a flipped bit anywhere in the file with a typed [`CheckpointError`] —
//! never a panic, never a silently-wrong map. The payload reuses the
//! validating serde of [`bsom_som::BSom`] (neuron shapes, probabilities,
//! non-zero RNG state), plus the engine-level checks in
//! `CheckpointDoc::validate` (private).
//!
//! Writes go to `<path>.tmp` in the same directory, are flushed with
//! `sync_all`, and only then renamed over `path` — on every POSIX
//! filesystem the rename is atomic, so `path` always holds either the old
//! complete checkpoint or the new complete checkpoint, regardless of where
//! a crash lands (the `checkpoint.write` failpoint sits exactly between
//! write and rename to prove it).
//!
//! Checkpoints are written by [`Trainer::write_checkpoint`] and restored by
//! [`SomService::resume_from_checkpoint`]; `examples/crash_recovery.rs`
//! walks the full train → checkpoint → crash → resume loop.
//!
//! [`Trainer::write_checkpoint`]: crate::Trainer::write_checkpoint
//! [`SomService::resume_from_checkpoint`]: crate::SomService::resume_from_checkpoint

use std::error::Error;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

use bsom_som::{BSom, BSomConfig, SelfOrganizingMap, TrainSchedule};
use serde::{Deserialize, Serialize};

use crate::frame::{self, FrameError};
use crate::throughput::{measure, MeasuredThroughput};
use crate::{EngineConfig, MAX_QUEUE_CAPACITY, MAX_WORKERS};

/// Errors loading or storing a checkpoint. Every way a file can be wrong —
/// torn, truncated, bit-flipped, or semantically invalid — maps to a typed
/// variant; loading never panics on bad bytes (the `checkpoint_corruption`
/// proptest suite flips and truncates at random offsets to prove it).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read, written, synced, or renamed.
    Io {
        /// The failing operation's error, rendered.
        message: String,
    },
    /// The bytes are not an intact [`frame::CHECKPOINT`] frame.
    Frame(FrameError),
    /// The frame is intact but the payload fails JSON/serde/semantic
    /// validation (including every invariant of [`bsom_som::BSom`]'s own
    /// validating deserializer).
    Invalid {
        /// What failed.
        message: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { message } => write!(f, "checkpoint io error: {message}"),
            CheckpointError::Frame(error) => write!(f, "checkpoint {error}"),
            CheckpointError::Invalid { message } => {
                write!(f, "checkpoint payload invalid: {message}")
            }
        }
    }
}

impl Error for CheckpointError {}

impl From<FrameError> for CheckpointError {
    fn from(error: FrameError) -> Self {
        CheckpointError::Frame(error)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(error: std::io::Error) -> Self {
        let message = error.to_string();
        CheckpointError::Io { message }
    }
}

impl CheckpointError {
    fn invalid(error: impl fmt::Display) -> Self {
        let message = error.to_string();
        CheckpointError::Invalid { message }
    }
}

/// What [`Trainer::write_checkpoint`] reports about a committed checkpoint.
///
/// [`Trainer::write_checkpoint`]: crate::Trainer::write_checkpoint
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Total bytes of the framed checkpoint file.
    pub bytes: u64,
    /// The service snapshot version recorded in the checkpoint.
    pub version: u64,
}

/// One neuron's decayed win statistics, serialization form: win weights are
/// stored as raw `f64` bits so the decayed majorities — and therefore the
/// labels a resumed service publishes — round-trip *exactly*, immune to any
/// float-to-decimal-and-back drift in the JSON layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct NeuronStatsDoc {
    /// Feed-step clock of the neuron's most recent recorded win.
    pub(crate) last_step: u64,
    /// `(label id, win weight as f64 bits)` pairs, ascending by label.
    pub(crate) wins: Vec<(u64, u64)>,
}

/// The checkpoint payload: everything needed to continue training
/// bit-identically and rebuild the same service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CheckpointDoc {
    /// Latest published snapshot version at write time.
    pub(crate) service_version: u64,
    /// The map — weights, `#`-counts (rebuilt by its validating serde) and
    /// the xorshift64* RNG position.
    pub(crate) som: BSom,
    /// The trainer's schedule.
    pub(crate) schedule: TrainSchedule,
    /// Epochs of the schedule completed.
    pub(crate) epochs_run: usize,
    /// Feed steps completed.
    pub(crate) steps_run: u64,
    /// Feed steps since the last publish (continues the publish cadence).
    pub(crate) steps_since_publish: u64,
    /// The service construction config.
    pub(crate) config: EngineConfig,
    /// Per-neuron decayed win statistics.
    pub(crate) stats: Vec<NeuronStatsDoc>,
}

impl CheckpointDoc {
    /// Engine-level semantic validation on top of the serde layer: the
    /// stats table must match the map, win weights must be positive finite
    /// numbers, and the stored config must satisfy the same invariants the
    /// [`EngineConfig`](crate::EngineConfig) builders assert.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let invalid = |message: String| Err(CheckpointError::Invalid { message });
        if self.stats.len() != self.som.neuron_count() {
            return invalid(format!(
                "{} stats entries for {} neurons",
                self.stats.len(),
                self.som.neuron_count()
            ));
        }
        for (index, stat) in self.stats.iter().enumerate() {
            for &(label, weight_bits) in &stat.wins {
                let weight = f64::from_bits(weight_bits);
                if !weight.is_finite() || weight <= 0.0 {
                    return invalid(format!(
                        "neuron {index} label {label}: win weight {weight} must be finite and positive"
                    ));
                }
            }
        }
        if let Some(decay) = self.config.label_decay {
            if !(decay > 0.0 && decay < 1.0) {
                return invalid(format!("label decay {decay} outside (0, 1)"));
            }
        }
        if self.config.publish_every_steps == Some(0) {
            return invalid("publish cadence of zero steps".to_string());
        }
        if self.config.workers > MAX_WORKERS {
            return invalid(format!(
                "{} workers exceed MAX_WORKERS ({MAX_WORKERS})",
                self.config.workers
            ));
        }
        match self.config.queue_capacity {
            Some(0) => return invalid("queue capacity of zero".to_string()),
            Some(capacity) if capacity > MAX_QUEUE_CAPACITY => {
                return invalid(format!(
                    "queue capacity {capacity} exceeds MAX_QUEUE_CAPACITY ({MAX_QUEUE_CAPACITY})"
                ))
            }
            _ => {}
        }
        Ok(())
    }
}

/// Serialises `doc`, frames it, and commits it to `path` atomically:
/// write `<path>.tmp` → `sync_all` → rename over `path`.
pub(crate) fn write_doc(
    path: &Path,
    doc: &CheckpointDoc,
) -> Result<CheckpointInfo, CheckpointError> {
    let payload = serde_json::to_string(doc).map_err(CheckpointError::invalid)?;
    let frame = frame::CHECKPOINT.seal(1, None, payload.as_bytes());
    let file_name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Io {
            message: format!("checkpoint path {} has no file name", path.display()),
        })?
        .to_owned();
    let mut tmp_name = file_name;
    tmp_name.push(".tmp");
    let tmp_path = path.with_file_name(tmp_name);
    let mut file = std::fs::File::create(&tmp_path)?;
    file.write_all(&frame)?;
    file.sync_all()?;
    drop(file);
    // A crash here (the failpoint's spot) leaves a complete `.tmp` beside an
    // untouched `path`: the previous checkpoint still loads.
    crate::faultpoint::hit("checkpoint.write");
    std::fs::rename(&tmp_path, path)?;
    Ok(CheckpointInfo {
        bytes: frame.len() as u64,
        version: doc.service_version,
    })
}

/// Reads, unframes, parses and validates the checkpoint at `path`.
pub(crate) fn read_doc(path: &Path) -> Result<CheckpointDoc, CheckpointError> {
    crate::faultpoint::hit("checkpoint.read");
    let bytes = std::fs::read(path)?;
    let payload = frame::CHECKPOINT.open_exact(&bytes)?.payload;
    let text = std::str::from_utf8(payload).map_err(CheckpointError::invalid)?;
    let doc: CheckpointDoc = serde_json::from_str(text).map_err(CheckpointError::invalid)?;
    doc.validate()?;
    Ok(doc)
}

/// Checkpoint write/restore latency at a given map shape — the durability
/// cost model `bench_report` tracks in `BENCH_large_map.json` next to the
/// publish and search figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointThroughputComparison {
    /// Neurons in the measured map.
    pub neurons: usize,
    /// Bits per weight vector.
    pub vector_len: usize,
    /// Size of one framed checkpoint of that map, in bytes.
    pub checkpoint_bytes: u64,
    /// Full checkpoint commits (serialise + frame + write + sync + rename)
    /// per second.
    pub write: MeasuredThroughput,
    /// Full restores ([`SomService::resume_from_checkpoint`], including
    /// service construction) per second.
    ///
    /// [`SomService::resume_from_checkpoint`]: crate::SomService::resume_from_checkpoint
    pub restore: MeasuredThroughput,
}

impl std::fmt::Display for CheckpointThroughputComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "checkpoint costs ({} neurons x {} bits, {} KiB framed)",
            self.neurons,
            self.vector_len,
            self.checkpoint_bytes / 1024
        )?;
        writeln!(
            f,
            "  write (serialise+sync+rename)    {:>12.1} checkpoints/s",
            self.write.patterns_per_second
        )?;
        write!(
            f,
            "  restore (validate+rebuild)       {:>12.1} resumes/s",
            self.restore.patterns_per_second
        )
    }
}

/// Measures checkpoint write and restore latency on a freshly trained map of
/// the given shape. `train_steps` signatures are fed first so the
/// checkpoint carries realistic (non-empty) label statistics;
/// `min_duration` is spent on **each** of the two measurements. The
/// checkpoint file lives in the OS temp directory and is removed before
/// returning.
///
/// # Panics
///
/// Panics if the temp directory is not writable (benchmark infrastructure,
/// not a recoverable serving condition).
pub fn compare_checkpoint_throughput(
    config: BSomConfig,
    train_steps: usize,
    min_duration: Duration,
    seed: u64,
) -> CheckpointThroughputComparison {
    use bsom_signature::BinaryVector;
    use bsom_som::ObjectLabel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let neurons = config.neurons;
    let vector_len = config.vector_len;
    let som = BSom::new(config, &mut rng);
    let (_service, mut trainer) = crate::SomService::train_while_serve(
        som,
        TrainSchedule::new(train_steps.max(1)),
        &[],
        EngineConfig::with_workers(1),
    );
    for step in 0..train_steps {
        let signature = BinaryVector::random(vector_len, &mut rng);
        trainer
            .feed(&signature, ObjectLabel::new(step % 8))
            .expect("generated signatures match the map's vector length");
    }
    trainer.publish();

    let path = std::env::temp_dir().join(format!(
        "bsom-checkpoint-bench-{}-{seed:x}.ckpt",
        std::process::id()
    ));
    let info = trainer
        .write_checkpoint(&path)
        .expect("the OS temp directory is writable");
    let write = measure(1, min_duration, || {
        trainer
            .write_checkpoint(&path)
            .expect("the OS temp directory is writable");
    });
    let restore = measure(1, min_duration, || {
        let restored = crate::SomService::resume_from_checkpoint(&path)
            .expect("a just-written checkpoint restores");
        std::hint::black_box(&restored);
    });
    let _ = std::fs::remove_file(&path);

    CheckpointThroughputComparison {
        neurons,
        vector_len,
        checkpoint_bytes: info.bytes,
        write,
        restore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            CheckpointError::from(std::io::Error::other("x")),
            CheckpointError::from(FrameError::TooShort { len: 1 }),
            CheckpointError::invalid("y"),
        ];
        for error in errors {
            assert!(!error.to_string().is_empty());
        }
    }
}
