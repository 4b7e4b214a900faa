//! Error type of the synchronization pipeline.

use std::error::Error;
use std::fmt;

use clocksync_model::{ModelError, ProcessorId};

/// Failure modes of [`crate::Synchronizer::synchronize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The view set is for a different number of processors than the
    /// network specification.
    WrongProcessorCount {
        /// Processors in the network specification.
        expected: usize,
        /// Processors in the view set.
        actual: usize,
    },
    /// The observations contradict the declared delay assumptions: some
    /// cycle of local-shift estimates has negative total weight, which is
    /// impossible when the views come from an execution that actually
    /// satisfies the assumptions.
    InconsistentObservations {
        /// A processor on, or reachable from, the offending cycle (the
        /// closure kernel for large sparse or multi-component domains may
        /// name one downstream of it).
        witness: ProcessorId,
    },
    /// The views themselves violate the execution model.
    Model(ModelError),
    /// Clock readings of an ingested observation are so far apart that
    /// the estimated delay is not representable in `i64` nanoseconds.
    /// Only reachable from untrusted input (CLI/JSONL batches); views
    /// recorded by real executions keep readings within range.
    Overflow {
        /// Sender of the offending observation.
        src: ProcessorId,
        /// Receiver of the offending observation.
        dst: ProcessorId,
    },
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::WrongProcessorCount { expected, actual } => write!(
                f,
                "network has {expected} processors but the view set has {actual}"
            ),
            SyncError::InconsistentObservations { witness } => write!(
                f,
                "observed delays contradict the declared assumptions (witness {witness})"
            ),
            SyncError::Model(e) => write!(f, "invalid views: {e}"),
            SyncError::Overflow { src, dst } => write!(
                f,
                "clock readings of an observation on link {src}->{dst} overflow \
                 the representable delay range"
            ),
        }
    }
}

impl Error for SyncError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SyncError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SyncError {
    fn from(e: ModelError) -> SyncError {
        SyncError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SyncError::WrongProcessorCount {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains('3'));
        assert!(Error::source(&e).is_none());

        let m = ModelError::WrongProcessorCount {
            expected: 1,
            actual: 0,
        };
        let wrapped: SyncError = m.into();
        assert!(Error::source(&wrapped).is_some());
        assert!(wrapped.to_string().contains("invalid views"));
    }
}
