//! The VINO file system: a block FS with a buffer cache, per-file
//! prefetch queues, and a graftable read-ahead (`compute-ra`) policy.
//!
//! §4.1.2: "Whenever a user issues a read request, the corresponding
//! method on the open-file handles the read, and then calls its
//! compute-ra method to determine which (if any) additional file blocks
//! should be prefetched. This function is passed a descriptor describing
//! the offset and size of the current read request, and is allowed to
//! provide a list of additional file extents that should be prefetched.
//! These prefetch requests are passed to the underlying file system
//! where they are added to a per-file prefetch queue. The file system
//! removes prefetch requests from this queue and issues them to the I/O
//! system as memory becomes available for read-ahead."
//!
//! The default policy prefetches only on detected sequential access
//! (§4.1.2); applications replace it by grafting a new `compute-ra`
//! function onto their open-file object.
//!
//! Modules: [`layout`] (on-disk structures), [`cache`] (the buffer
//! cache, with asynchronous-completion modelling so prefetch overlaps
//! computation), [`fs`] (the file system proper and the open-file
//! objects with the `compute-ra` hook).

pub mod cache;
pub mod fs;
pub mod layout;

pub use cache::{BufferCache, CacheStats};
pub use fs::{
    Extent, Fd, FileSystem, FsError, FsStats, IngestOutcome, JournalRecord, RaRequest,
    ReadAheadDelegate, RecoveryReport, VerifiedRecord,
};
pub use layout::{Inode, JournalDescriptor, SuperBlock, BLOCK_SIZE};
