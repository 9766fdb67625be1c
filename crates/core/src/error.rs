//! Cache error types.

use std::fmt;

/// Errors surfaced by cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A record larger than a whole node's capacity can never be cached.
    RecordTooLarge {
        /// The record's size.
        size: u64,
        /// The per-node capacity.
        capacity: u64,
    },
    /// A key at or above the hash-line range `r` would break the
    /// contiguous-arc ⇔ contiguous-key-range correspondence that
    /// Sweep-and-Migrate depends on.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The hash-line range.
        r: u64,
    },
    /// A bucket could not be split further (single distinct key) and the
    /// node still overflows.
    CannotSplit {
        /// The bucket that resisted splitting.
        bucket: u64,
    },
    /// GBA-Insert looped more than the sanity bound without converging —
    /// indicates a mis-configured capacity far below the record size.
    SplitLoopExceeded,
    /// The coordinator's cross-structure bookkeeping was found inconsistent
    /// mid-operation (e.g. the ring resolved a key to an inactive node).
    /// Always a bug in this crate, never a caller error — surfaced as a
    /// typed value so a long-running cache degrades instead of aborting.
    Internal {
        /// The invariant the coordinator expected to hold.
        what: &'static str,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RecordTooLarge { size, capacity } => {
                write!(f, "record of {size} B exceeds node capacity {capacity} B")
            }
            Self::KeyOutOfRange { key, r } => {
                write!(f, "key {key} outside hash line [0, {r})")
            }
            Self::CannotSplit { bucket } => {
                write!(f, "bucket {bucket} cannot be split further")
            }
            Self::SplitLoopExceeded => write!(f, "GBA-insert split loop exceeded sanity bound"),
            Self::Internal { what } => {
                write!(f, "internal cache invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Live-cluster callers surface planner faults as I/O errors.
impl From<CacheError> for std::io::Error {
    fn from(e: CacheError) -> Self {
        std::io::Error::other(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_helpfully() {
        let e = CacheError::RecordTooLarge {
            size: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("10 B"));
        assert!(CacheError::KeyOutOfRange { key: 9, r: 4 }
            .to_string()
            .contains("[0, 4)"));
        assert!(CacheError::CannotSplit { bucket: 3 }
            .to_string()
            .contains("3"));
        assert!(!CacheError::SplitLoopExceeded.to_string().is_empty());
        assert!(CacheError::Internal { what: "probe" }
            .to_string()
            .contains("probe"));
    }
}
