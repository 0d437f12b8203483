//! Typed errors for the fault-tolerant service layer.
//!
//! DESIGN.md §"Fault model and recovery" draws the line this module encodes:
//! conditions a caller can meaningfully react to (shed load, retry, restore a
//! checkpoint) are typed [`EngineError`] variants, while true invariants of
//! the engine's own construction stay `expect`s with a rationale message.

use std::error::Error;
use std::fmt;

use bsom_som::SomError;

use crate::checkpoint::CheckpointError;

/// Errors the service layer reports instead of panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// The bounded job queue was full when a shed-load classify tried to
    /// submit a shard ([`Recognizer::try_classify_batch`]): the service is
    /// saturated and this batch was rejected rather than queued without
    /// bound. Already-submitted shards of the batch still complete (workers
    /// cannot be recalled) but their replies are discarded.
    ///
    /// [`Recognizer::try_classify_batch`]: crate::Recognizer::try_classify_batch
    Overloaded {
        /// Capacity of the bounded job queue.
        queue_capacity: usize,
        /// Jobs queued (submitted, not yet picked up) at rejection time.
        queue_depth: usize,
    },
    /// The worker pool's job queue has shut down — only possible while the
    /// owning service is mid-drop, so a live handle should never observe it.
    PoolShutDown,
    /// A training step panicked inside [`Trainer::try_feed`]. The panic was
    /// contained, but the map may hold a torn (half-applied) update, so the
    /// trainer poisons itself: recovery is a fresh trainer via
    /// [`SomService::resume_from_checkpoint`]. The service keeps serving its
    /// last published snapshot throughout.
    ///
    /// [`Trainer::try_feed`]: crate::Trainer::try_feed
    /// [`SomService::resume_from_checkpoint`]: crate::SomService::resume_from_checkpoint
    TrainerPanicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A previous [`Trainer::try_feed`] panicked and this trainer refuses
    /// further training on the possibly-torn map (see
    /// [`EngineError::TrainerPanicked`]).
    ///
    /// [`Trainer::try_feed`]: crate::Trainer::try_feed
    TrainerPoisoned,
    /// An error from the underlying map (wrong-length signature, …).
    Som(SomError),
    /// A checkpoint could not be written, read, or validated.
    Checkpoint(CheckpointError),
    /// The registry holds no tenant under this id
    /// ([`MapRegistry`](crate::registry::MapRegistry)).
    UnknownTenant {
        /// The id that resolved to nothing.
        tenant: String,
    },
    /// [`MapRegistry::create_tenant`](crate::registry::MapRegistry::create_tenant)
    /// was asked for an id that already names a tenant.
    DuplicateTenant {
        /// The id that is already taken.
        tenant: String,
    },
    /// An operation needed to spill a tenant to disk, but the registry was
    /// built without a spill directory
    /// ([`RegistryConfig::spill_dir`](crate::registry::RegistryConfig::spill_dir)).
    SpillUnconfigured,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Overloaded {
                queue_capacity,
                queue_depth,
            } => write!(
                f,
                "service overloaded: job queue at {queue_depth}/{queue_capacity}, batch shed"
            ),
            EngineError::PoolShutDown => write!(f, "worker pool has shut down"),
            EngineError::TrainerPanicked { message } => {
                write!(
                    f,
                    "training step panicked (trainer now poisoned): {message}"
                )
            }
            EngineError::TrainerPoisoned => write!(
                f,
                "trainer poisoned by an earlier panicked step; resume from a checkpoint"
            ),
            EngineError::Som(error) => write!(f, "{error}"),
            EngineError::Checkpoint(error) => write!(f, "{error}"),
            EngineError::UnknownTenant { tenant } => {
                write!(f, "no tenant {tenant:?} in the registry")
            }
            EngineError::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant:?} already exists in the registry")
            }
            EngineError::SpillUnconfigured => write!(
                f,
                "eviction requires a spill directory; build the registry with RegistryConfig::spill_dir"
            ),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Som(error) => Some(error),
            EngineError::Checkpoint(error) => Some(error),
            _ => None,
        }
    }
}

impl From<SomError> for EngineError {
    fn from(error: SomError) -> Self {
        EngineError::Som(error)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(error: CheckpointError) -> Self {
        EngineError::Checkpoint(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameError;

    #[test]
    fn display_messages_are_nonempty_and_sources_chain() {
        let errors: Vec<EngineError> = vec![
            EngineError::Overloaded {
                queue_capacity: 8,
                queue_depth: 8,
            },
            EngineError::PoolShutDown,
            EngineError::TrainerPanicked {
                message: "boom".into(),
            },
            EngineError::TrainerPoisoned,
            EngineError::Som(SomError::EmptyTrainingSet),
            EngineError::Checkpoint(CheckpointError::Frame(FrameError::TooShort { len: 3 })),
        ];
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(EngineError::from(SomError::EmptyTrainingSet)
            .source()
            .is_some());
        assert!(EngineError::PoolShutDown.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EngineError>();
    }
}
