//! Error type of the ingestion service.

use std::error::Error;
use std::fmt;

use clocksync::SyncError;
use clocksync_model::ModelError;

use crate::DomainId;

/// Failure modes of [`crate::SyncService`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The batch or query names a domain nobody registered.
    UnknownDomain {
        /// The unknown name.
        domain: DomainId,
    },
    /// A registration reused an existing domain name.
    DuplicateDomain {
        /// The taken name.
        domain: DomainId,
    },
    /// The synchronization pipeline rejected the batch (overflowing clock
    /// readings, unknown processors, contradictory evidence).
    Sync(SyncError),
    /// The view layer rejected the batch or retraction (clock readings
    /// before the start event, an endpoint outside the domain's network).
    Model(ModelError),
    /// The shard's worker is gone (the service was shut down, or the
    /// worker died), so the batch or call cannot run and no answer will
    /// ever arrive.
    Stopped {
        /// The shard whose worker is gone.
        shard: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownDomain { domain } => {
                write!(f, "domain `{domain}` is not registered")
            }
            ServiceError::DuplicateDomain { domain } => {
                write!(f, "domain `{domain}` is already registered")
            }
            ServiceError::Sync(e) => write!(f, "batch rejected: {e}"),
            ServiceError::Model(e) => write!(f, "batch rejected: {e}"),
            ServiceError::Stopped { shard } => {
                write!(f, "shard {shard}'s worker is stopped")
            }
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Sync(e) => Some(e),
            ServiceError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SyncError> for ServiceError {
    fn from(e: SyncError) -> ServiceError {
        ServiceError::Sync(e)
    }
}

impl From<ModelError> for ServiceError {
    fn from(e: ModelError) -> ServiceError {
        ServiceError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServiceError::UnknownDomain {
            domain: DomainId::from("tenant-a"),
        };
        assert!(e.to_string().contains("tenant-a"));
        assert!(e.source().is_none());
        let wrapped: ServiceError = ModelError::DuplicateMessage {
            id: clocksync_model::MessageId(7),
        }
        .into();
        assert!(wrapped.source().is_some());
        assert!(wrapped.to_string().contains("rejected"));
    }
}
