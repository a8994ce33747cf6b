//! Checkpoint storage: the `UCPT` container format and its I/O substrate.
//!
//! The paper persists checkpoints as PyTorch object files (`.pt`) and loads
//! them through DeepNVMe at near-peak NVMe bandwidth. This crate provides
//! the equivalents: a self-describing binary container with a JSON header
//! and CRC-32C-checksummed tensor sections ([`container`]), an optional
//! rate-limited reader that simulates a storage device for the
//! efficiency benches ([`io`]), and the on-disk directory layouts for both
//! native distributed checkpoints and universal (atom) checkpoints
//! ([`layout`]). Every durable file lands through the crash-consistent
//! staged-rename protocol in [`commit`], instrumented with the fault
//! injection layer in [`io::fault`].

pub mod commit;
pub mod container;
pub mod crc;
pub mod io;
pub mod journal;
pub mod layout;
pub mod retention;

pub use container::{
    Container, ContainerIndex, Payload, RangeScratch, Section, SectionInfo, SectionRef, Verified,
    RANGE_CRC_BLOCK,
};
pub use io::{Device, ReadAt};
pub use journal::{Journal, JournalEvent, JournalRecord};
pub use retention::{prune, InFlightGuard, PruneReport, RetentionPolicy};

/// Storage errors.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// File did not start with the UCPT magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// A checksum did not match (corruption).
    ChecksumMismatch {
        /// Which part failed ("header" or a section name).
        what: String,
    },
    /// Structural problem while decoding.
    Malformed(String),
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e)
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::BadMagic => write!(f, "not a UCPT container (bad magic)"),
            StorageError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            StorageError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch in {what} (corrupt checkpoint)")
            }
            StorageError::Malformed(msg) => write!(f, "malformed container: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
