//! The file system proper: volumes, files, open-file objects and the
//! graftable `compute-ra` read-ahead policy.
//!
//! "In VINO, application level file descriptors are handles for kernel
//! level open-file objects. Traditional file-related system calls are
//! translated to method invocations on the appropriate open-file"
//! (§4.1.2). The open-file object is where the read-ahead graft hangs.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use vino_dev::disk::{BlockAddr, Disk, DiskImage};
use vino_sim::fault::FaultSite;
use vino_sim::metrics::Component;
use vino_sim::obs::Obs;
use vino_sim::profile::SpanKind;
use vino_sim::trace::{CauseCtx, SpanId, TraceEvent};
use vino_sim::{Cycles, VirtualClock};

use crate::cache::BufferCache;
use crate::layout::{
    block_checksums, checksum64, decode_commit, descriptor_seal, encode_commit, Bitmap, DiskExtent,
    Inode, JournalDescriptor, SuperBlock, BLOCK_SIZE, INODES_PER_BLOCK, INODE_SIZE, MAX_EXTENTS,
    MAX_NAME,
};

/// A handle to an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u64);

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No file by that name.
    NotFound(String),
    /// A file by that name already exists.
    Exists(String),
    /// The name exceeds the inode's capacity.
    NameTooLong,
    /// The name is empty.
    EmptyName,
    /// Free space exists but not in few enough contiguous runs.
    TooFragmented,
    /// Not enough free blocks.
    NoSpace,
    /// All inode slots are in use.
    VolumeFull,
    /// Unknown descriptor.
    BadFd(Fd),
    /// A read or write extends past end-of-file.
    PastEof,
    /// The volume's superblock is missing or corrupt.
    BadVolume,
    /// Power died mid-operation (an injected kernel crash). The mounted
    /// instance is dead; the surviving disk image must be remounted and
    /// recovered.
    PowerFailure,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "no such file: {n}"),
            FsError::Exists(n) => write!(f, "file exists: {n}"),
            FsError::NameTooLong => write!(f, "file name too long"),
            FsError::EmptyName => write!(f, "empty file name"),
            FsError::TooFragmented => write!(f, "free space too fragmented"),
            FsError::NoSpace => write!(f, "no space on volume"),
            FsError::VolumeFull => write!(f, "inode table full"),
            FsError::BadFd(fd) => write!(f, "bad file descriptor {fd:?}"),
            FsError::PastEof => write!(f, "access past end of file"),
            FsError::BadVolume => write!(f, "not a VINO volume"),
            FsError::PowerFailure => write!(f, "power failure: kernel crashed mid-operation"),
        }
    }
}

impl std::error::Error for FsError {}

/// The descriptor passed to `compute-ra`: "a descriptor describing the
/// offset and size of the current read request" (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaRequest {
    /// Byte offset of the read just performed.
    pub offset: u64,
    /// Byte length of the read.
    pub len: u64,
    /// Whether this read sequentially followed the previous one.
    pub sequential: bool,
    /// File size, so policies can avoid requesting past EOF.
    pub file_size: u64,
}

/// A file extent (byte-addressed) that a read-ahead policy asks to have
/// prefetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset within the file.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
}

/// The `compute-ra` hook (§4.1.2). The grafting layer implements this by
/// running the grafted GraftVM function; the default sequential policy
/// and tests implement it natively.
pub trait ReadAheadDelegate {
    /// Returns the extents to queue for prefetch after a read.
    fn compute_ra(&mut self, req: &RaRequest) -> Vec<Extent>;
}

impl<F: FnMut(&RaRequest) -> Vec<Extent>> ReadAheadDelegate for F {
    fn compute_ra(&mut self, req: &RaRequest) -> Vec<Extent> {
        self(req)
    }
}

/// File-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Read operations served.
    pub reads: u64,
    /// Write operations served.
    pub writes: u64,
    /// `compute-ra` invocations that went to a grafted policy.
    pub ra_graft_calls: u64,
    /// Prefetch extents accepted into queues.
    pub ra_accepted: u64,
    /// Prefetch extents rejected by validation (past EOF, zero-length).
    pub ra_rejected: u64,
    /// Prefetch I/Os issued from queues.
    pub prefetches_issued: u64,
}

struct OpenFile {
    inode_idx: usize,
    /// End offset of the previous read, for sequential detection.
    last_end: Option<u64>,
    /// The per-file prefetch queue (§4.1.2), in logical block numbers.
    prefetch_q: VecDeque<u32>,
    ra: Option<Box<dyn ReadAheadDelegate>>,
}

/// What mount-time recovery found and did. Deterministic for a given
/// disk image, so same-seed crash/recover runs compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal blocks examined.
    pub scanned_blocks: u64,
    /// Committed transactions rolled forward.
    pub replayed_txns: u64,
    /// Home-location blocks rewritten by replay.
    pub replayed_blocks: u64,
    /// Torn (uncommitted) journal tails discarded.
    pub discarded_txns: u64,
    /// The next journal sequence number after recovery.
    pub next_seq: u64,
}

/// One committed journal transaction, retained in memory for
/// replication shipping: the home addresses with their payload
/// checksums (exactly the descriptor's entry table), plus the payload
/// blocks themselves. [`FileSystem::committed_records`] tails these in
/// sequence order as [`VerifiedRecord`]s; a replica applies them via
/// [`FileSystem::ingest_replicated`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The transaction's journal sequence number.
    pub seq: u64,
    /// `(home block, payload checksum)` pairs, in journal order.
    pub entries: Vec<(u64, u64)>,
    /// Payload blocks, parallel to `entries`.
    pub payloads: Vec<[u8; BLOCK_SIZE]>,
}

/// A [`JournalRecord`] whose payload blocks are known to match its
/// entry table: one payload per entry, and each block's
/// [`checksum64`] equal to its entry's sum. The record sits in a
/// private field, so holding one is the proof. Outside this crate only
/// [`VerifiedRecord::verify`], which hashes, builds one; inside it, the
/// local journal does, from sums its commit has just computed or its
/// recovery scan has just checked. [`FileSystem::ingest_replicated`]
/// takes this type and does not hash again.
///
/// ```compile_fail,E0603
/// use vino_fs::{JournalRecord, VerifiedRecord};
/// let rec = JournalRecord { seq: 1, entries: vec![(9, 0)], payloads: vec![[1; 4096]] };
/// let forged = VerifiedRecord(rec); // the field is private: no proof without `verify`
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedRecord(JournalRecord);

impl VerifiedRecord {
    /// Checks `rec`'s shape (one payload per entry, at least one), then
    /// each payload block against its entry's sum
    /// ([`block_checksums`]). [`FsError::BadVolume`] if any of it does
    /// not hold.
    pub fn verify(rec: JournalRecord) -> Result<VerifiedRecord, FsError> {
        if rec.entries.len() != rec.payloads.len() || rec.entries.is_empty() {
            return Err(FsError::BadVolume);
        }
        let sums = block_checksums(&rec.payloads);
        if rec.entries.iter().zip(sums).any(|((_home, want), got)| got != *want) {
            return Err(FsError::BadVolume);
        }
        Ok(VerifiedRecord(rec))
    }
}

impl Deref for VerifiedRecord {
    type Target = JournalRecord;

    fn deref(&self) -> &JournalRecord {
        &self.0
    }
}

/// Outcome of [`FileSystem::ingest_replicated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The record was journalled and checkpointed at its sequence.
    Applied {
        /// Home blocks rewritten.
        blocks: u64,
    },
    /// The record's sequence was already applied; nothing was done.
    Duplicate,
    /// The record skips ahead of the next expected sequence; the
    /// shipper must retransmit the gap first.
    Gap {
        /// The sequence this replica expects next.
        expected: u64,
    },
}

/// Bound on a per-file prefetch queue: "if a graft of the compute-ra
/// function asks for 100MB to be prefetched, it will not steal all of
/// the system's memory pages. Instead, the 100MB will be prefetched in
/// order, as pages become available" (§4.1.2). The queue holds the
/// not-yet-issued tail.
pub const MAX_PREFETCH_QUEUE: usize = 4096;

/// The mounted file system.
pub struct FileSystem {
    disk: Disk,
    cache: BufferCache,
    sb: SuperBlock,
    inodes: Vec<Inode>,
    bitmap: Bitmap,
    open: HashMap<Fd, OpenFile>,
    next_fd: u64,
    stats: FsStats,
    /// Shared with the disk: one handle observes the whole volume.
    obs: Obs,
    /// Power died: every subsequent operation fails with
    /// [`FsError::PowerFailure`].
    halted: bool,
    /// Next journal transaction sequence number.
    next_seq: u64,
    /// Committed journal records retained for replication shipping,
    /// sequence-ordered. Pruned by cumulative acks
    /// ([`prune_committed`](Self::prune_committed)).
    committed: Vec<VerifiedRecord>,
    /// Highest committed sequence ever retained (survives pruning).
    last_committed: u64,
    /// Per-sequence seal spans: the causal span minted at each
    /// `fs.journal_commit` plus the commit's virtual-clock stamp, kept
    /// while the record is retained for shipping so the replication
    /// layer can chain ship spans (and age the lag gauge) off the seal.
    seal_spans: BTreeMap<u64, (SpanId, Cycles)>,
    /// What mount-time recovery found on this volume.
    recovery: Option<RecoveryReport>,
    /// Recovery events (`fs.recovery_*`) emitted while the trace or the
    /// metrics plane was still missing, kept for
    /// [`replay_recovery`](Self::replay_recovery).
    recovery_notes: Vec<TraceEvent>,
}

impl FileSystem {
    /// Formats `disk` and mounts the fresh volume. `cache_blocks` sizes
    /// the buffer cache; `max_files` sizes the inode table.
    pub fn format(
        clock: Rc<VirtualClock>,
        mut disk: Disk,
        cache_blocks: usize,
        max_files: u32,
    ) -> FileSystem {
        let sb = SuperBlock::for_volume(disk.block_count() as u32, max_files);
        disk.write(BlockAddr(0), &sb.encode());
        let zero = [0u8; BLOCK_SIZE];
        for b in 1..sb.data_start {
            disk.write(BlockAddr(b as u64), &zero);
        }
        let data_blocks = sb.total_blocks - sb.data_start;
        FileSystem {
            cache: BufferCache::new(clock, cache_blocks),
            obs: disk.obs().clone(),
            disk,
            inodes: vec![Inode::default(); sb.max_inodes() as usize],
            bitmap: Bitmap::new(data_blocks),
            sb,
            open: HashMap::new(),
            next_fd: 3,
            stats: FsStats::default(),
            halted: false,
            next_seq: 1,
            committed: Vec::new(),
            last_committed: 0,
            seal_spans: BTreeMap::new(),
            recovery: None,
            recovery_notes: Vec::new(),
        }
    }

    /// Mounts an existing volume: runs journal recovery
    /// ([`FileSystem::recover`]) over the raw disk, then rebuilds
    /// in-memory metadata from the recovered blocks. A volume whose
    /// superblock does not decode, or whose in-use inodes have a
    /// malformed name, claim blocks outside the data region,
    /// overlapping another extent, or not marked allocated in the
    /// bitmap, or have a size beyond their extents, or share a name, is
    /// refused as [`FsError::BadVolume`].
    pub fn mount(
        clock: Rc<VirtualClock>,
        mut disk: Disk,
        cache_blocks: usize,
    ) -> Result<FileSystem, FsError> {
        let sb = SuperBlock::decode(&disk.read(BlockAddr(0))).ok_or(FsError::BadVolume)?;
        let data_blocks = sb.total_blocks - sb.data_start;
        let mut fs = FileSystem {
            cache: BufferCache::new(clock, cache_blocks),
            obs: disk.obs().clone(),
            disk,
            inodes: Vec::new(),
            bitmap: Bitmap::new(data_blocks),
            sb,
            open: HashMap::new(),
            next_fd: 3,
            stats: FsStats::default(),
            halted: false,
            next_seq: 1,
            committed: Vec::new(),
            last_committed: 0,
            seal_spans: BTreeMap::new(),
            recovery: None,
            recovery_notes: Vec::new(),
        };
        fs.recover()?;
        fs.check_extents()?;
        Ok(fs)
    }

    /// Scans the journal and restores crash consistency: a committed
    /// transaction (valid descriptor, payload checksums, commit block)
    /// is rolled forward to its home locations; a torn tail is
    /// discarded. In-memory metadata is rebuilt from the recovered
    /// blocks afterwards, so this is safe — and idempotent — to call on
    /// a mounted volume. [`FileSystem::mount`] calls it automatically.
    /// An in-use inode with a malformed name is [`FsError::BadVolume`].
    pub fn recover(&mut self) -> Result<RecoveryReport, FsError> {
        let mut report = self.scan_and_replay();
        report.next_seq = self.next_seq;
        self.recovery = Some(report);
        self.reload_metadata()?;
        Ok(report)
    }

    /// The journal-recovery pass: validate, then roll forward or
    /// discard. See `docs/RECOVERY.md` for the decision table.
    fn scan_and_replay(&mut self) -> RecoveryReport {
        let js = self.sb.journal_start as u64;
        let mut report = RecoveryReport::default();
        let desc_block = self.disk.read(BlockAddr(js));
        report.scanned_blocks += 1;
        let Some(desc) = JournalDescriptor::decode(&desc_block) else {
            if JournalDescriptor::has_magic(&desc_block) {
                // Torn descriptor: the record began but its seal never
                // made it — discard. The raw sequence field survives
                // any tear (it sits inside the minimum torn prefix).
                let seq = JournalDescriptor::raw_seq(&desc_block);
                self.next_seq = self.next_seq.max(seq.wrapping_add(1));
                self.discard_tail(seq, &mut report);
            }
            return report;
        };
        let seq = desc.seq;
        self.next_seq = self.next_seq.max(seq + 1);
        let n = desc.entries.len();
        let mut payloads = Vec::with_capacity(n);
        let mut valid = n <= self.sb.journal_capacity();
        if valid {
            for (i, (_home, sum)) in desc.entries.iter().enumerate() {
                let b = self.disk.read(BlockAddr(js + 1 + i as u64));
                report.scanned_blocks += 1;
                if checksum64(&b) != *sum {
                    valid = false;
                    break;
                }
                payloads.push(b);
            }
        }
        if valid {
            let commit = self.disk.read(BlockAddr(js + 1 + n as u64));
            report.scanned_blocks += 1;
            valid = decode_commit(&commit, seq, descriptor_seal(&desc.encode()));
        }
        if !valid {
            self.discard_tail(seq, &mut report);
            return report;
        }
        // Committed: roll the whole transaction forward. Replay is
        // idempotent redo — rewriting an already-checkpointed block
        // with the same bytes is harmless, so recovery itself can crash
        // and re-run.
        for ((home, _sum), data) in desc.entries.iter().zip(&payloads) {
            self.disk.write(BlockAddr(*home), data);
            self.cache.invalidate(BlockAddr(*home));
        }
        report.replayed_txns += 1;
        report.replayed_blocks += n as u64;
        // Each payload was checked against its entry as it was read.
        let rec = JournalRecord { seq, entries: desc.entries.clone(), payloads };
        self.retain_committed(VerifiedRecord(rec));
        self.note_recovery(TraceEvent::FsRecoveryReplay { seq, blocks: n as u64 });
        report
    }

    /// Invalidates a torn journal record so later mounts see an empty
    /// journal rather than re-discarding the same tail.
    fn discard_tail(&mut self, seq: u64, report: &mut RecoveryReport) {
        self.disk.write(BlockAddr(self.sb.journal_start as u64), &[0u8; BLOCK_SIZE]);
        report.discarded_txns += 1;
        self.note_recovery(TraceEvent::FsRecoveryDiscard { seq });
    }

    /// Emits a recovery event, keeping it for
    /// [`replay_recovery`](Self::replay_recovery) while the trace or the
    /// metrics plane is missing (mount runs before planes attach).
    fn note_recovery(&mut self, ev: TraceEvent) {
        self.obs.emit(ev);
        if self.obs.trace().is_none() || self.obs.metrics().is_none() {
            self.recovery_notes.push(ev);
        }
    }

    /// Replays the kept recovery events into `to`, a handle holding only
    /// the plane being attached, so each plane sees each recovery action
    /// exactly once however late it attaches.
    pub fn replay_recovery(&self, to: &Obs) {
        for ev in &self.recovery_notes {
            to.emit(*ev);
        }
    }

    /// Refuses a volume whose in-use inodes claim blocks outside the
    /// data region, blocks another extent already claims, or blocks
    /// the allocation bitmap does not mark — any of which would send a
    /// later read or write out of bounds or into another file — or an
    /// in-use inode whose size outruns the blocks its extents hold, an
    /// in-use inode with an empty name (`create` refuses one), or two
    /// in-use inodes of one name (`lookup` would only ever find the
    /// first). Checks the metadata
    /// [`reload_metadata`](Self::reload_metadata) already read, in time
    /// linear in the in-use extent blocks (plus a sort of the extents).
    fn check_extents(&self) -> Result<(), FsError> {
        let (lo, hi) = (self.sb.data_start as u64, self.sb.total_blocks as u64);
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        let mut names = HashSet::new();
        for ino in self.inodes.iter().filter(|i| i.used) {
            if ino.name.is_empty() || !names.insert(ino.name.as_str()) {
                return Err(FsError::BadVolume);
            }
            let mut blocks = 0;
            for e in &ino.extents {
                let (start, end) = (e.start as u64, e.start as u64 + e.len as u64);
                if start < lo || end > hi {
                    return Err(FsError::BadVolume);
                }
                if !(start..end).all(|b| self.bitmap.is_set((b - lo) as u32)) {
                    return Err(FsError::BadVolume);
                }
                claimed.push((start, end));
                blocks += e.len as u64;
            }
            if ino.size > blocks * BLOCK_SIZE as u64 {
                return Err(FsError::BadVolume);
            }
        }
        claimed.sort_unstable();
        if claimed.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err(FsError::BadVolume);
        }
        Ok(())
    }

    /// Rebuilds in-memory inode table and allocation bitmap from disk.
    /// An in-use inode whose name does not decode is
    /// [`FsError::BadVolume`], and leaves both as they were.
    fn reload_metadata(&mut self) -> Result<(), FsError> {
        let sb = self.sb;
        let mut inodes = Vec::with_capacity(sb.max_inodes() as usize);
        for b in 0..sb.inode_blocks {
            let block = self.disk.read(BlockAddr(1 + b as u64));
            for i in 0..INODES_PER_BLOCK {
                let rec: [u8; INODE_SIZE] =
                    block[i * INODE_SIZE..(i + 1) * INODE_SIZE].try_into().expect("exact");
                inodes.push(Inode::decode(&rec).ok_or(FsError::BadVolume)?);
            }
        }
        let data_blocks = sb.total_blocks - sb.data_start;
        let mut bytes = Vec::new();
        for b in 0..sb.bitmap_blocks {
            bytes.extend_from_slice(&self.disk.read(BlockAddr((1 + sb.inode_blocks + b) as u64)));
        }
        bytes.truncate((data_blocks as usize).div_ceil(8));
        self.inodes = inodes;
        self.bitmap = Bitmap::from_bytes(bytes, data_blocks);
        Ok(())
    }

    /// Counters.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Disk counters.
    pub fn disk_stats(&self) -> vino_dev::disk::DiskStats {
        self.disk.stats()
    }

    /// Payload blocks one journal transaction can carry. Writes wider
    /// than this split into multiple transactions — each atomic on its
    /// own, so a crash between chunks leaves a clean prefix durable
    /// (the journal-full backpressure contract; see `journal_txn`).
    pub fn journal_capacity(&self) -> usize {
        self.sb.journal_capacity()
    }

    /// The volume's observation handle, shared with its disk. Its fault
    /// plane also drives the `KernelCrash*` power cuts inside the commit
    /// pipeline (`docs/RECOVERY.md`). Reads, writes, prefetches and
    /// journal/checkpoint/recovery steps emit `fs.*` events; the
    /// `compute-ra` dispatch is billed to the invocation it produces; the
    /// watch plane sees each append's journal occupancy.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Whether power has died on this instance.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// What mount-time (or the last explicit) recovery found, if any
    /// recovery has run on this instance.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The persistent disk state as of now — what a power cut at this
    /// instant would leave behind. Works on a halted instance; this is
    /// the simulation harness reading the platters, not an I/O.
    pub fn disk_image(&self) -> DiskImage {
        self.disk.snapshot()
    }

    /// Quiesces the volume so a checkpoint capture and its restore see
    /// identical file-system state: invalidates the journal descriptor
    /// on disk (so mounting the captured image finds a clean journal —
    /// the same write the recovery scan's tail discard issues),
    /// empties the buffer cache, forgets per-descriptor read-ahead
    /// state, parks the disk mechanism and rewinds the journal sequence
    /// to its fresh-mount value. Called on *both* sides of a
    /// checkpoint: at capture (so the continuing run matches what a
    /// restore rebuilds) and after the restoring mount (harmless
    /// re-zeroing) — that symmetry is what makes the two runs
    /// byte-identical from the checkpoint on.
    ///
    /// # Panics
    ///
    /// Panics if called with power off or a journal transaction
    /// mid-flight (checkpoints are taken at operation boundaries).
    pub fn quiesce_for_checkpoint(&mut self) {
        assert!(!self.halted, "cannot checkpoint a halted file system");
        self.disk.write(BlockAddr(self.sb.journal_start as u64), &[0u8; BLOCK_SIZE]);
        for f in self.open.values_mut() {
            f.prefetch_q.clear();
            f.last_end = None;
        }
        self.cache.invalidate_all();
        self.disk.reset_mechanism();
        self.next_seq = 1;
        self.committed.clear();
        self.last_committed = 0;
    }

    fn check_power(&self) -> Result<(), FsError> {
        if self.halted {
            Err(FsError::PowerFailure)
        } else {
            Ok(())
        }
    }

    /// A named power-cut point in the commit pipeline: if the armed
    /// crash site fires, the kernel is dead — mark the instance halted
    /// and fail the operation. Nothing after this point executes.
    fn crash_point(&mut self, site: FaultSite) -> Result<(), FsError> {
        if self.obs.fire(site) {
            self.halted = true;
            return Err(FsError::PowerFailure);
        }
        Ok(())
    }

    /// Writes one journal block, honouring the mid-journal crash site:
    /// if it fires, the block persists only as a torn prefix and power
    /// dies with it.
    fn journal_write(&mut self, addr: BlockAddr, data: &[u8; BLOCK_SIZE]) -> Result<(), FsError> {
        if let Some(p) = self.obs.fault().filter(|p| p.fire(FaultSite::KernelCrashMidJournal)) {
            self.disk.write_torn(addr, data, p.torn_prefix());
            self.halted = true;
            return Err(FsError::PowerFailure);
        }
        self.disk.write(addr, data);
        Ok(())
    }

    /// The write-ahead commit pipeline: journal the new contents of
    /// every `(home block, data)` target (descriptor, payloads, commit
    /// marker), then checkpoint them in place. Targets beyond the
    /// journal's capacity are split into multiple transactions — each
    /// atomic on its own, so a crash between chunks leaves a clean
    /// prefix of the update durable.
    ///
    /// `through_cache` routes checkpoint writes through the buffer
    /// cache (data blocks, which later reads will want warm); metadata
    /// blocks bypass it.
    fn journal_txn(
        &mut self,
        targets: &[(u64, [u8; BLOCK_SIZE])],
        through_cache: bool,
    ) -> Result<(), FsError> {
        self.check_power()?;
        self.crash_point(FaultSite::KernelCrashBeforeJournal)?;
        let cap = self.sb.journal_capacity().max(1);
        for chunk in targets.chunks(cap) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let payloads = || chunk.iter().map(|(_home, data)| data);
            let sums = block_checksums(payloads());
            let entries = chunk.iter().map(|(home, _data)| *home).zip(sums).collect();
            self.commit_record(seq, entries, payloads(), through_cache, true)?;
        }
        Ok(())
    }

    /// Journals and checkpoints one transaction at `seq`: descriptor,
    /// payload blocks, commit marker, then the in-place checkpoint.
    /// Shared by local transactions ([`journal_txn`](Self::journal_txn))
    /// and replicated ones
    /// ([`ingest_replicated`](Self::ingest_replicated)), so both honour
    /// the same crash points. `entries` holds each payload's `(home
    /// block, checksum)`; the caller has computed or verified the sums,
    /// and the retained [`VerifiedRecord`] rests on them. With `retain`
    /// off (a replicated record: nothing ships on from the node that
    /// applies it) the record and its seal span are not kept, and only
    /// the committed high-water mark advances.
    fn commit_record<'a>(
        &mut self,
        seq: u64,
        entries: Vec<(u64, u64)>,
        payloads: impl Iterator<Item = &'a [u8; BLOCK_SIZE]> + Clone,
        through_cache: bool,
        retain: bool,
    ) -> Result<(), FsError> {
        let cap = self.sb.journal_capacity().max(1);
        let js = self.sb.journal_start as u64;
        let desc = JournalDescriptor { seq, entries };
        let desc_block = desc.encode();
        self.journal_write(BlockAddr(js), &desc_block)?;
        for (i, data) in payloads.clone().enumerate() {
            self.journal_write(BlockAddr(js + 1 + i as u64), data)?;
        }
        let n = desc.entries.len() as u64;
        self.obs.emit(TraceEvent::FsJournalAppend { seq, blocks: n });
        // Occupancy while this transaction sits in the journal region:
        // descriptor + payload blocks + commit marker.
        self.obs.watched(|wp| wp.observe_journal(n + 2, cap as u64 + 2));
        // The commit point: once this block is durable the
        // transaction survives any crash. Its meaningful bytes fit
        // within the smallest torn prefix, so the write is
        // effectively atomic.
        self.disk.write(BlockAddr(js + 1 + n), &encode_commit(seq, descriptor_seal(&desc_block)));
        // The seal is an event origin: mint the record's causal span
        // (child of whatever invocation context is in force) and keep
        // it with the commit stamp so replication chains off it.
        let seal_ctx = self.obs.trace().map_or(CauseCtx::NONE, |tp| tp.mint_span(tp.ctx().span));
        self.obs.emit_with_ctx(TraceEvent::FsJournalCommit { seq }, seal_ctx);
        // Commit is durable: retain the record for replication shipping
        // before any later crash point can interrupt the checkpoint.
        if retain {
            if self.obs.trace().is_some() {
                self.seal_spans.insert(seq, (seal_ctx.span, self.obs.clock().now()));
            }
            self.retain_committed(VerifiedRecord(JournalRecord {
                seq,
                entries: desc.entries.clone(),
                payloads: payloads.clone().copied().collect(),
            }));
        } else {
            self.last_committed = self.last_committed.max(seq);
        }
        self.crash_point(FaultSite::KernelCrashAfterCommit)?;
        for ((home, _sum), data) in desc.entries.iter().zip(payloads) {
            self.crash_point(FaultSite::KernelCrashMidCheckpoint)?;
            let addr = BlockAddr(*home);
            if through_cache {
                self.cache.write(&mut self.disk, addr, data);
            } else {
                self.disk.write(addr, data);
            }
        }
        // The checkpoint belongs to the same causal story as its seal.
        self.obs.emit_with_ctx(TraceEvent::FsCheckpoint { seq, blocks: n }, seal_ctx);
        Ok(())
    }

    /// Retains one committed record for the replication tail,
    /// idempotently by sequence (recovery may re-commit a sequence the
    /// tail already holds).
    fn retain_committed(&mut self, rec: VerifiedRecord) {
        if self.last_committed >= rec.seq {
            return;
        }
        self.last_committed = rec.seq;
        self.committed.push(rec);
    }

    /// Tails the retained committed journal records with `seq >=
    /// seq_from`, in sequence order. Torn (uncommitted) tails are never
    /// retained, so everything yielded here is durable. Readable even
    /// on a halted instance — this is the replication harness reading
    /// the commit history, not an I/O.
    pub fn committed_records(&self, seq_from: u64) -> impl Iterator<Item = &VerifiedRecord> + '_ {
        let start = self.committed.partition_point(|r| r.seq < seq_from);
        self.committed[start..].iter()
    }

    /// Drops retained records with `seq <= upto` — the shipper calls
    /// this as cumulative acks advance, bounding retention to the
    /// unacked window.
    pub fn prune_committed(&mut self, upto: u64) {
        let keep = self.committed.partition_point(|r| r.seq <= upto);
        self.committed.drain(..keep);
        self.seal_spans = self.seal_spans.split_off(&(upto + 1));
    }

    /// The seal span and commit stamp of a retained record's
    /// `fs.journal_commit`, if a trace plane was attached when it
    /// sealed. Pruned with the record
    /// ([`prune_committed`](Self::prune_committed)).
    pub fn seal_info_of(&self, seq: u64) -> Option<(SpanId, Cycles)> {
        self.seal_spans.get(&seq).copied()
    }

    /// Highest committed journal sequence (0 before the first commit).
    /// Survives pruning.
    pub fn last_committed_seq(&self) -> u64 {
        self.last_committed
    }

    /// Applies one replicated journal record shipped from a primary:
    /// exact-next sequences are journalled and checkpointed through the
    /// same commit pipeline (and crash points) as a local transaction,
    /// already-applied sequences are skipped, and a sequence gap is
    /// refused so the shipper retransmits. The payloads are not hashed
    /// here: a [`VerifiedRecord`] was checked where it was built. A
    /// record larger than this volume's journal is
    /// [`FsError::BadVolume`]. The applied record joins no retained
    /// tail ([`committed_records`](Self::committed_records) and
    /// [`seal_info_of`](Self::seal_info_of) stay empty for it); only
    /// [`last_committed_seq`](Self::last_committed_seq) advances.
    /// In-memory metadata is rebuilt after a successful apply, so the
    /// replica stays mountable-equivalent to its own disk.
    pub fn ingest_replicated(&mut self, rec: &VerifiedRecord) -> Result<IngestOutcome, FsError> {
        self.check_power()?;
        if rec.seq < self.next_seq {
            return Ok(IngestOutcome::Duplicate);
        }
        if rec.seq > self.next_seq {
            return Ok(IngestOutcome::Gap { expected: self.next_seq });
        }
        if rec.entries.is_empty() || rec.entries.len() > self.sb.journal_capacity() {
            return Err(FsError::BadVolume);
        }
        self.crash_point(FaultSite::KernelCrashBeforeJournal)?;
        self.next_seq = rec.seq + 1;
        self.commit_record(rec.seq, rec.entries.clone(), rec.payloads.iter(), false, false)?;
        for (home, _sum) in &rec.entries {
            self.cache.invalidate(BlockAddr(*home));
        }
        self.reload_metadata()?;
        Ok(IngestOutcome::Applied { blocks: rec.entries.len() as u64 })
    }

    /// Re-opens the replication cursor after mount-time recovery
    /// discarded a torn, half-ingested record. Recovery advances
    /// `next_seq` past a tear — correct on a primary, whose local
    /// transaction simply failed and will re-run under a fresh
    /// sequence — but a replica that tore while applying sequence `n`
    /// must accept `n` again when the shipper retransmits it, not skip
    /// it as a duplicate. `applied` is the highest sequence the replica
    /// actually holds; the discarded descriptor was zeroed by
    /// the recovery scan's tail discard, so reusing the torn
    /// sequence is safe.
    pub fn rewind_replication_cursor(&mut self, applied: u64) {
        assert!(
            applied < self.next_seq,
            "cursor can only rewind: applied {applied} vs next_seq {}",
            self.next_seq
        );
        self.next_seq = applied + 1;
    }

    /// The journalled image of inode slot `idx`'s table block.
    fn inode_block_target(&mut self, idx: usize) -> (u64, [u8; BLOCK_SIZE]) {
        let block_no = 1 + (idx / INODES_PER_BLOCK) as u64;
        let mut block = self.disk.read(BlockAddr(block_no));
        let off = (idx % INODES_PER_BLOCK) * INODE_SIZE;
        block[off..off + INODE_SIZE].copy_from_slice(&self.inodes[idx].encode());
        (block_no, block)
    }

    /// The journalled images of every allocation-bitmap block.
    fn bitmap_targets(&self) -> Vec<(u64, [u8; BLOCK_SIZE])> {
        let start = 1 + self.sb.inode_blocks as u64;
        self.bitmap
            .bytes()
            .chunks(BLOCK_SIZE)
            .enumerate()
            .map(|(i, chunk)| {
                let mut block = [0u8; BLOCK_SIZE];
                block[..chunk.len()].copy_from_slice(chunk);
                (start + i as u64, block)
            })
            .collect()
    }

    /// Creates a file of `size` bytes, pre-allocated (extent-based
    /// first-fit, at most [`MAX_EXTENTS`] runs).
    pub fn create(&mut self, name: &str, size: u64) -> Result<(), FsError> {
        self.check_power()?;
        if name.is_empty() {
            return Err(FsError::EmptyName);
        }
        if name.len() > MAX_NAME {
            return Err(FsError::NameTooLong);
        }
        if self.lookup(name).is_some() {
            return Err(FsError::Exists(name.to_string()));
        }
        let idx = self.inodes.iter().position(|i| !i.used).ok_or(FsError::VolumeFull)?;
        let mut needed = (size.div_ceil(BLOCK_SIZE as u64)) as u32;
        if self.bitmap.free_count() < needed {
            return Err(FsError::NoSpace);
        }
        // First-fit: grab the largest prefix run repeatedly.
        let mut extents = Vec::new();
        while needed > 0 {
            if extents.len() == MAX_EXTENTS {
                // Roll back partial allocation.
                for e in &extents {
                    let de: &DiskExtent = e;
                    for b in de.start..de.start + de.len {
                        self.bitmap.clear(b - self.sb.data_start);
                    }
                }
                return Err(FsError::TooFragmented);
            }
            // Find the longest run up to `needed`.
            let mut take = needed;
            let start = loop {
                match self.bitmap.find_run(take) {
                    Some(s) => break s,
                    None => {
                        take /= 2;
                        if take == 0 {
                            for e in &extents {
                                let de: &DiskExtent = e;
                                for b in de.start..de.start + de.len {
                                    self.bitmap.clear(b - self.sb.data_start);
                                }
                            }
                            return Err(FsError::NoSpace);
                        }
                    }
                }
            };
            for b in start..start + take {
                self.bitmap.set(b);
            }
            extents.push(DiskExtent { start: start + self.sb.data_start, len: take });
            needed -= take;
        }
        // Zero the allocated blocks: reused blocks must not leak a
        // previous file's data (the §2.1 "reading another user's data"
        // hazard, at the file-system level). Zeroing runs before — and
        // outside — the metadata transaction: until the transaction
        // commits, the durable bitmap still shows these blocks free, so
        // a crash here leaves a consistent volume without the file.
        let zero = [0u8; BLOCK_SIZE];
        for e in &extents {
            for b in e.start..e.start + e.len {
                self.disk.write(BlockAddr(b as u64), &zero);
                self.cache.invalidate(BlockAddr(b as u64));
            }
        }
        self.inodes[idx] = Inode { used: true, name: name.to_string(), size, extents };
        let mut targets = vec![self.inode_block_target(idx)];
        targets.extend(self.bitmap_targets());
        self.journal_txn(&targets, false)
    }

    /// Deletes a file, freeing its blocks. Open descriptors go stale.
    pub fn remove(&mut self, name: &str) -> Result<(), FsError> {
        self.check_power()?;
        let idx = self.lookup(name).ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let extents = self.inodes[idx].extents.clone();
        for e in extents {
            for b in e.start..e.start + e.len {
                self.bitmap.clear(b - self.sb.data_start);
                self.cache.invalidate(BlockAddr(b as u64));
            }
        }
        self.inodes[idx] = Inode::default();
        let mut targets = vec![self.inode_block_target(idx)];
        targets.extend(self.bitmap_targets());
        self.journal_txn(&targets, false)
    }

    /// Opens a file, returning a descriptor backed by a kernel open-file
    /// object with the default sequential read-ahead policy.
    pub fn open(&mut self, name: &str) -> Result<Fd, FsError> {
        self.check_power()?;
        let idx = self.lookup(name).ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.open.insert(
            fd,
            OpenFile { inode_idx: idx, last_end: None, prefetch_q: VecDeque::new(), ra: None },
        );
        Ok(fd)
    }

    /// Closes a descriptor.
    pub fn close(&mut self, fd: Fd) {
        self.open.remove(&fd);
    }

    /// Size of the file behind `fd`.
    pub fn size_of(&self, fd: Fd) -> Result<u64, FsError> {
        Ok(self.inodes[self.open.get(&fd).ok_or(FsError::BadFd(fd))?.inode_idx].size)
    }

    /// Installs a read-ahead graft on the open-file object, replacing
    /// the default sequential policy (Figure 1's `replace` call).
    pub fn set_ra_delegate(
        &mut self,
        fd: Fd,
        d: Box<dyn ReadAheadDelegate>,
    ) -> Result<(), FsError> {
        self.open.get_mut(&fd).ok_or(FsError::BadFd(fd))?.ra = Some(d);
        Ok(())
    }

    /// Removes the read-ahead graft, restoring the default policy (what
    /// a transaction abort does to the graft point).
    pub fn clear_ra_delegate(&mut self, fd: Fd) {
        if let Some(f) = self.open.get_mut(&fd) {
            f.ra = None;
        }
    }

    /// True if `fd` has a grafted read-ahead policy.
    pub fn has_ra_delegate(&self, fd: Fd) -> bool {
        self.open.get(&fd).is_some_and(|f| f.ra.is_some())
    }

    /// Checks that bytes `offset..offset + len` of inode `idx` lie
    /// within its size ([`FsError::PastEof`] otherwise) and that its
    /// extents back every block they touch. An inode whose size
    /// outruns its extents comes from a corrupt volume:
    /// [`FsError::BadVolume`].
    fn check_range(&self, idx: usize, offset: u64, len: u64) -> Result<(), FsError> {
        let ino = &self.inodes[idx];
        let end = offset.checked_add(len).filter(|&end| end <= ino.size).ok_or(FsError::PastEof)?;
        if len == 0 {
            return Ok(());
        }
        // Extents are contiguous in logical block order, so the last
        // block mapping implies every earlier one does.
        let last = u32::try_from((end - 1) / BLOCK_SIZE as u64).map_err(|_| FsError::BadVolume)?;
        ino.block_of(last).map(|_| ()).ok_or(FsError::BadVolume)
    }

    /// Reads `len` bytes at `offset`. Runs the read, then the
    /// `compute-ra` policy, queues validated prefetch extents, and
    /// drains the queue into free cache buffers (§4.1.2's full path).
    pub fn read(&mut self, fd: Fd, offset: u64, len: u64) -> Result<Vec<u8>, FsError> {
        self.check_power()?;
        let (inode_idx, sequential) = {
            let f = self.open.get(&fd).ok_or(FsError::BadFd(fd))?;
            (f.inode_idx, f.last_end == Some(offset))
        };
        let size = self.inodes[inode_idx].size;
        self.check_range(inode_idx, offset, len)?;
        self.stats.reads += 1;
        self.obs.emit(TraceEvent::FsRead { fd: fd.0, len });
        // Read the covered blocks through the cache.
        let mut out = Vec::with_capacity(len as usize);
        if len > 0 {
            let first = (offset / BLOCK_SIZE as u64) as u32;
            let last = ((offset + len - 1) / BLOCK_SIZE as u64) as u32;
            for lbn in first..=last {
                let abs = self.inodes[inode_idx].block_of(lbn).expect("checked by check_range");
                let block = self.cache.read(&mut self.disk, BlockAddr(abs as u64));
                let lo = if lbn == first { (offset % BLOCK_SIZE as u64) as usize } else { 0 };
                let hi = if lbn == last {
                    ((offset + len - 1) % BLOCK_SIZE as u64) as usize + 1
                } else {
                    BLOCK_SIZE
                };
                out.extend_from_slice(&block[lo..hi]);
            }
        }
        // compute-ra: default or grafted (§4.1.2).
        let req = RaRequest { offset, len, sequential, file_size: size };
        let extents = {
            let f = self.open.get_mut(&fd).expect("checked");
            f.last_end = Some(offset + len);
            match f.ra.as_mut() {
                Some(graft) => {
                    self.stats.ra_graft_calls += 1;
                    // Dispatch indirection to the grafted method; the
                    // metrics plane attributes it to the invocation the
                    // dispatch produces.
                    let cost = Cycles(vino_sim::costs::INDIRECTION_CYCLES);
                    self.obs.bill(Component::Indirection, cost);
                    self.obs.mark(SpanKind::FsDispatch, cost);
                    graft.compute_ra(&req)
                }
                None => default_compute_ra(&req),
            }
        };
        self.enqueue_prefetch(fd, &extents)?;
        self.pump_prefetch(fd)?;
        Ok(out)
    }

    /// Writes `data` at `offset` (must stay within the preallocated
    /// size). Journalled write-ahead: the new block contents go through
    /// the redo journal and are checkpointed in place, so a crash at
    /// any instant leaves the update either wholly durable or wholly
    /// absent (per journal transaction — a write wider than the journal
    /// region commits in atomic chunks).
    pub fn write(&mut self, fd: Fd, offset: u64, data: &[u8]) -> Result<(), FsError> {
        self.check_power()?;
        let inode_idx = self.open.get(&fd).ok_or(FsError::BadFd(fd))?.inode_idx;
        self.check_range(inode_idx, offset, data.len() as u64)?;
        self.stats.writes += 1;
        self.obs.emit(TraceEvent::FsWrite { fd: fd.0, len: data.len() as u64 });
        let mut targets = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs_off = offset + pos as u64;
            let lbn = (abs_off / BLOCK_SIZE as u64) as u32;
            let in_block = (abs_off % BLOCK_SIZE as u64) as usize;
            let chunk = (BLOCK_SIZE - in_block).min(data.len() - pos);
            let abs = self.inodes[inode_idx].block_of(lbn).expect("checked by check_range");
            let addr = BlockAddr(abs as u64);
            let mut block = if in_block == 0 && chunk == BLOCK_SIZE {
                [0u8; BLOCK_SIZE]
            } else {
                self.cache.read(&mut self.disk, addr)
            };
            block[in_block..in_block + chunk].copy_from_slice(&data[pos..pos + chunk]);
            targets.push((abs as u64, block));
            pos += chunk;
        }
        self.journal_txn(&targets, true)
    }

    /// Validates and queues prefetch extents on `fd`'s queue.
    fn enqueue_prefetch(&mut self, fd: Fd, extents: &[Extent]) -> Result<(), FsError> {
        let inode_idx = self.open.get(&fd).ok_or(FsError::BadFd(fd))?.inode_idx;
        let size = self.inodes[inode_idx].size;
        let mut blocks = Vec::new();
        for e in extents {
            // Validation: results from (possibly grafted) policies are
            // checked before use — zero-length and past-EOF extents are
            // rejected, matching the victim-verification discipline.
            if e.len == 0 || e.offset >= size || e.offset + e.len > size {
                self.stats.ra_rejected += 1;
                continue;
            }
            self.stats.ra_accepted += 1;
            let first = (e.offset / BLOCK_SIZE as u64) as u32;
            let last = ((e.offset + e.len - 1) / BLOCK_SIZE as u64) as u32;
            for lbn in first..=last {
                blocks.push(lbn);
            }
        }
        let f = self.open.get_mut(&fd).expect("checked");
        for b in blocks {
            if f.prefetch_q.len() >= MAX_PREFETCH_QUEUE {
                break; // Bounded queue (§4.1.2).
            }
            if !f.prefetch_q.contains(&b) {
                f.prefetch_q.push_back(b);
            }
        }
        Ok(())
    }

    /// Issues queued prefetches "as memory becomes available" — i.e.
    /// while the cache's read-ahead quota has room.
    fn pump_prefetch(&mut self, fd: Fd) -> Result<(), FsError> {
        use crate::cache::PrefetchOutcome;
        let inode_idx = self.open.get(&fd).ok_or(FsError::BadFd(fd))?.inode_idx;
        while let Some(lbn) = self.open.get_mut(&fd).expect("checked").prefetch_q.pop_front() {
            let Some(abs) = self.inodes[inode_idx].block_of(lbn) else { continue };
            match self.cache.prefetch(&mut self.disk, BlockAddr(abs as u64)) {
                PrefetchOutcome::Issued => {
                    self.stats.prefetches_issued += 1;
                    self.obs.emit(TraceEvent::FsPrefetch { fd: fd.0 });
                }
                PrefetchOutcome::AlreadyCached => {}
                PrefetchOutcome::NoRoom => {
                    // Keep the request queued for the next opportunity.
                    self.open.get_mut(&fd).expect("checked").prefetch_q.push_front(lbn);
                    break;
                }
            }
        }
        Ok(())
    }

    /// Pending prefetch-queue length for `fd`.
    pub fn prefetch_queue_len(&self, fd: Fd) -> usize {
        self.open.get(&fd).map_or(0, |f| f.prefetch_q.len())
    }

    /// Unmounts: consumes the file system, returning the underlying
    /// disk (all metadata is written through, so a subsequent
    /// [`FileSystem::mount`] sees identical state).
    pub fn into_disk(self) -> Disk {
        self.disk
    }

    /// Lists file names on the volume.
    pub fn list(&self) -> Vec<&str> {
        self.inodes.iter().filter(|i| i.used).map(|i| i.name.as_str()).collect()
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        self.inodes.iter().position(|i| i.used && i.name == name)
    }
}

impl fmt::Debug for FileSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSystem")
            .field("files", &self.inodes.iter().filter(|i| i.used).count())
            .field("open", &self.open.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// The default read-ahead policy: "The default read-ahead policy used by
/// VINO only prefetches when the user accesses a file sequentially"
/// (§4.1.2) — one block beyond the current read.
pub fn default_compute_ra(req: &RaRequest) -> Vec<Extent> {
    if !req.sequential {
        return Vec::new();
    }
    let next = req.offset + req.len;
    if next >= req.file_size {
        return Vec::new();
    }
    let len = (BLOCK_SIZE as u64).min(req.file_size - next);
    vec![Extent { offset: next, len }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_sim::fault::FaultPlane;

    fn fresh(cache_blocks: usize) -> FileSystem {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        FileSystem::format(clock, disk, cache_blocks, 64)
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = fresh(16);
        fs.create("hello.txt", 8192).unwrap();
        let fd = fs.open("hello.txt").unwrap();
        let msg = b"the quick brown fox";
        fs.write(fd, 100, msg).unwrap();
        let back = fs.read(fd, 100, msg.len() as u64).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn read_spanning_blocks() {
        let mut fs = fresh(16);
        fs.create("span", 3 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("span").unwrap();
        let data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fs.write(fd, BLOCK_SIZE as u64 / 2, &data).unwrap();
        let back = fs.read(fd, BLOCK_SIZE as u64 / 2, data.len() as u64).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn errors_surface() {
        let mut fs = fresh(4);
        assert!(matches!(fs.open("ghost"), Err(FsError::NotFound(_))));
        fs.create("a", 4096).unwrap();
        assert!(matches!(fs.create("a", 4096), Err(FsError::Exists(_))));
        let fd = fs.open("a").unwrap();
        assert!(matches!(fs.read(fd, 4000, 200), Err(FsError::PastEof)));
        assert!(matches!(fs.write(fd, 4096, b"x"), Err(FsError::PastEof)));
        fs.close(fd);
        assert!(matches!(fs.read(fd, 0, 1), Err(FsError::BadFd(_))));
        let long = "n".repeat(100);
        assert!(matches!(fs.create(&long, 1), Err(FsError::NameTooLong)));
    }

    #[test]
    fn overflowing_and_empty_ranges_do_not_panic() {
        let mut fs = fresh(4);
        fs.create("a", 4096).unwrap();
        fs.create("empty", 0).unwrap();
        let fd = fs.open("a").unwrap();
        assert_eq!(fs.read(fd, u64::MAX, 2), Err(FsError::PastEof));
        assert_eq!(fs.write(fd, u64::MAX, b"xy"), Err(FsError::PastEof));
        let empty = fs.open("empty").unwrap();
        assert_eq!(fs.read(empty, 0, 0), Ok(Vec::new()));
    }

    /// Formats a volume holding one-block files "a" and "b", lets
    /// `forge` rewrite b's on-disk inode (given a's extents), retires
    /// the journal so recovery does not redo the creates over the
    /// forgery, and mounts the result.
    fn mount_forged(forge: impl FnOnce(&mut Inode, &[DiskExtent])) -> Result<FileSystem, FsError> {
        mount_forged_record(|rec, a| {
            let mut ino = Inode::decode(rec).unwrap();
            forge(&mut ino, a);
            *rec = ino.encode();
        })
    }

    /// Formats a volume holding "a" and "b", lets `forge` rewrite b's
    /// raw inode record (given a's extents), and mounts the image.
    fn mount_forged_record(
        forge: impl FnOnce(&mut [u8; INODE_SIZE], &[DiskExtent]),
    ) -> Result<FileSystem, FsError> {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
        fs.create("a", BLOCK_SIZE as u64).unwrap();
        fs.create("b", BLOCK_SIZE as u64).unwrap();
        let a = fs.lookup("a").unwrap();
        let idx = fs.lookup("b").unwrap();
        let addr = BlockAddr(1 + (idx / INODES_PER_BLOCK) as u64);
        let off = (idx % INODES_PER_BLOCK) * INODE_SIZE;
        let mut block = fs.disk.read(addr);
        let rec: &mut [u8; INODE_SIZE] = (&mut block[off..off + INODE_SIZE]).try_into().unwrap();
        forge(rec, &fs.inodes[a].extents);
        fs.disk.write(addr, &block);
        fs.disk.write(BlockAddr(fs.sb.journal_start as u64), &[0u8; BLOCK_SIZE]);
        let FileSystem { disk, .. } = fs;
        FileSystem::mount(clock, disk, 8)
    }

    #[test]
    fn size_beyond_the_extents_is_a_bad_volume() {
        // Four blocks of size over a one-block extent.
        let forged = mount_forged(|ino, _| ino.size = 4 * BLOCK_SIZE as u64);
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        // One byte past the extent is already too many; a size that
        // fills it exactly mounts.
        let forged = mount_forged(|ino, _| ino.size = BLOCK_SIZE as u64 + 1);
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        assert!(mount_forged(|ino, _| ino.size = BLOCK_SIZE as u64).is_ok());
        // Past mount, a read or write still refuses a size its extents
        // do not back rather than indexing past them.
        let mut fs = mount_forged(|_, _| {}).unwrap();
        let idx = fs.lookup("b").unwrap();
        fs.inodes[idx].size = 4 * BLOCK_SIZE as u64;
        let fd = fs.open("b").unwrap();
        assert_eq!(fs.read(fd, 0, 2 * BLOCK_SIZE as u64), Err(FsError::BadVolume));
        assert_eq!(fs.write(fd, BLOCK_SIZE as u64, b"x"), Err(FsError::BadVolume));
        assert_eq!(fs.read(fd, 0, 4).map(|b| b.len()), Ok(4));
    }

    #[test]
    fn duplicate_names_are_a_bad_volume() {
        // Before the check this mounted, and "b"-renamed-"a" could never
        // be opened or removed: `lookup` stops at the first "a".
        let named = |name: &str| {
            mount_forged(|ino, _| {
                *ino = Inode { used: true, name: name.into(), size: 0, extents: vec![] };
            })
        };
        assert_eq!(named("a").err(), Some(FsError::BadVolume));
        assert!(named("c").is_ok(), "the same forgery under a fresh name mounts");
    }

    #[test]
    fn empty_name_is_a_bad_volume() {
        // Before the check this mounted, and the nameless file could
        // only be opened as "".
        let forged = mount_forged(|ino, _| ino.name.clear());
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        let freed = mount_forged(|ino, _| *ino = Inode::default());
        assert!(freed.is_ok(), "a free record's empty name is never checked");
    }

    #[test]
    fn create_refuses_an_empty_name() {
        let mut fs = fresh(8);
        let free = fs.bitmap.free_count();
        assert_eq!(fs.create("", BLOCK_SIZE as u64), Err(FsError::EmptyName));
        assert_eq!(fs.bitmap.free_count(), free, "nothing was allocated");
        assert_eq!(fs.open(""), Err(FsError::NotFound(String::new())));
    }

    #[test]
    fn name_length_beyond_max_name_is_a_bad_volume() {
        // Before the check the length was clamped to MAX_NAME and "b"
        // mounted under a name that is not the one its record states.
        let forged = mount_forged_record(|rec, _| rec[1] = MAX_NAME as u8 + 1);
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        assert!(mount_forged_record(|rec, _| rec[1] = MAX_NAME as u8).is_ok());
    }

    #[test]
    fn non_utf8_name_is_a_bad_volume() {
        // Before the check the byte decoded lossily to U+FFFD, so the
        // in-memory name no longer matched the bytes on disk.
        let forged = mount_forged_record(|rec, _| rec[2] = 0xFF);
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        let freed = mount_forged_record(|rec, _| {
            rec[0] = 0;
            rec[2] = 0xFF;
        });
        assert!(freed.is_ok(), "a free record's name is never read");
    }

    #[test]
    fn extent_past_the_volume_end_is_refused_at_mount() {
        // Before the check this mounted cleanly and the first read of
        // "b" indexed the disk out of range.
        let total = vino_dev::disk::DiskGeometry::default().blocks as u32;
        let forged =
            mount_forged(|ino, _| ino.extents = vec![DiskExtent { start: total - 1, len: 4 }]);
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        let forged = mount_forged(|ino, _| ino.extents = vec![DiskExtent { start: 1, len: 1 }]);
        assert_eq!(forged.err(), Some(FsError::BadVolume), "an extent over the inode table");
    }

    #[test]
    fn extent_overlapping_another_file_is_refused_at_mount() {
        let forged = mount_forged(|ino, a| ino.extents = a.to_vec());
        assert_eq!(forged.err(), Some(FsError::BadVolume));
    }

    #[test]
    fn extent_not_marked_in_the_bitmap_is_refused_at_mount() {
        let total = vino_dev::disk::DiskGeometry::default().blocks as u32;
        let forged =
            mount_forged(|ino, _| ino.extents = vec![DiskExtent { start: total - 1, len: 1 }]);
        assert_eq!(forged.err(), Some(FsError::BadVolume));
        // The unforged volume mounts.
        assert!(mount_forged(|_, _| {}).is_ok());
    }

    #[test]
    fn no_space_reported() {
        let clock = VirtualClock::new();
        let disk = Disk::with_geometry(
            Rc::clone(&clock),
            vino_dev::disk::DiskGeometry { blocks: 64, ..Default::default() },
        );
        let mut fs = FileSystem::format(clock, disk, 4, 16);
        assert!(matches!(fs.create("big", 10 * 1024 * 1024), Err(FsError::NoSpace)));
    }

    #[test]
    fn remove_frees_space() {
        let mut fs = fresh(4);
        let free0 = fs.bitmap.free_count();
        fs.create("tmp", 10 * BLOCK_SIZE as u64).unwrap();
        assert_eq!(fs.bitmap.free_count(), free0 - 10);
        fs.remove("tmp").unwrap();
        assert_eq!(fs.bitmap.free_count(), free0);
        assert!(fs.list().is_empty());
    }

    #[test]
    fn mount_round_trip() {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
        fs.create("persist", 2 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("persist").unwrap();
        fs.write(fd, 0, b"durable bytes").unwrap();
        // Re-mount on the same disk (move it out).
        let FileSystem { disk, .. } = fs;
        let mut fs2 = FileSystem::mount(Rc::clone(&clock), disk, 8).unwrap();
        assert_eq!(fs2.list(), vec!["persist"]);
        let fd2 = fs2.open("persist").unwrap();
        assert_eq!(fs2.read(fd2, 0, 13).unwrap(), b"durable bytes");
    }

    #[test]
    fn mount_rejects_unformatted() {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        assert!(matches!(FileSystem::mount(clock, disk, 8), Err(FsError::BadVolume)));
    }

    #[test]
    fn mount_refuses_a_volume_journalled_with_fnv1a_sums() {
        let clock = VirtualClock::new();
        let mut fs = FileSystem::format(Rc::clone(&clock), Disk::new(Rc::clone(&clock)), 8, 64);
        fs.create("f", BLOCK_SIZE as u64).unwrap();
        let mut sb = fs.disk.read(BlockAddr(0));
        sb[..4].copy_from_slice(&0x5649_4E4F_u32.to_le_bytes()); // "VINO"
        fs.disk.write(BlockAddr(0), &sb);
        let FileSystem { disk, .. } = fs;
        assert!(matches!(FileSystem::mount(clock, disk, 8), Err(FsError::BadVolume)));
    }

    #[test]
    fn default_ra_prefetches_on_sequential_only() {
        let mut fs = fresh(16);
        fs.create("seq", 16 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("seq").unwrap();
        // Random read: no prefetch.
        fs.read(fd, 8 * BLOCK_SIZE as u64, 4096).unwrap();
        assert_eq!(fs.stats().prefetches_issued, 0);
        // Sequential follow-up: prefetch fires.
        fs.read(fd, 9 * BLOCK_SIZE as u64, 4096).unwrap();
        assert_eq!(fs.stats().prefetches_issued, 1);
        // And the next sequential read hits the prefetched block.
        let hits0 = fs.cache_stats().hits + fs.cache_stats().late_hits;
        fs.read(fd, 10 * BLOCK_SIZE as u64, 4096).unwrap();
        assert!(fs.cache_stats().hits + fs.cache_stats().late_hits > hits0);
    }

    #[test]
    fn grafted_ra_replaces_default() {
        // The §4.1.2 application: random access with advance knowledge.
        let mut fs = fresh(16);
        fs.create("db", 32 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("db").unwrap();
        // Policy: always prefetch block 20 next.
        fs.set_ra_delegate(
            fd,
            Box::new(|_req: &RaRequest| {
                vec![Extent { offset: 20 * BLOCK_SIZE as u64, len: BLOCK_SIZE as u64 }]
            }),
        )
        .unwrap();
        fs.read(fd, 0, 4096).unwrap();
        assert_eq!(fs.stats().ra_graft_calls, 1);
        assert_eq!(fs.stats().prefetches_issued, 1);
        // Wait out the I/O, then the random read is a hit.
        fs.obs().clock().charge(Cycles::from_ms(50));
        let misses0 = fs.cache_stats().misses;
        fs.read(fd, 20 * BLOCK_SIZE as u64, 4096).unwrap();
        assert_eq!(fs.cache_stats().misses, misses0, "prefetched block must hit");
    }

    #[test]
    fn hostile_ra_extents_rejected() {
        let mut fs = fresh(8);
        fs.create("f", 4 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("f").unwrap();
        fs.set_ra_delegate(
            fd,
            Box::new(|_req: &RaRequest| {
                vec![
                    Extent { offset: 1 << 40, len: 4096 }, // Past EOF.
                    Extent { offset: 0, len: 0 },          // Zero length.
                    Extent { offset: 4096, len: 1 << 40 }, // Overflowing.
                ]
            }),
        )
        .unwrap();
        fs.read(fd, 0, 64).unwrap();
        assert_eq!(fs.stats().ra_rejected, 3);
        assert_eq!(fs.stats().ra_accepted, 0);
        assert_eq!(fs.stats().prefetches_issued, 0);
    }

    #[test]
    fn hundred_mb_request_is_bounded() {
        // The §4.1.2 promise: a graft asking for a huge prefetch cannot
        // steal all memory; the queue bounds it and the cache gates it.
        let mut fs = fresh(8); // Only 8 buffers.
        fs.create("big", 8192 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("big").unwrap();
        fs.set_ra_delegate(
            fd,
            Box::new(|req: &RaRequest| {
                // "Prefetch everything."
                vec![Extent { offset: 0, len: req.file_size }]
            }),
        )
        .unwrap();
        fs.read(fd, 0, 64).unwrap();
        // Prefetch held at most the read-ahead quota of buffers; the
        // queue holds a bounded tail; nothing exploded.
        assert!(fs.cache_stats().prefetches <= 8);
        assert!(fs.prefetch_queue_len(fd) <= MAX_PREFETCH_QUEUE);
    }

    #[test]
    fn clear_ra_restores_default() {
        let mut fs = fresh(8);
        fs.create("f", 8 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("f").unwrap();
        fs.set_ra_delegate(fd, Box::new(|_req: &RaRequest| Vec::new())).unwrap();
        assert!(fs.has_ra_delegate(fd));
        fs.clear_ra_delegate(fd);
        assert!(!fs.has_ra_delegate(fd));
        // Default sequential policy active again.
        fs.read(fd, 0, 4096).unwrap();
        fs.read(fd, 4096, 4096).unwrap();
        assert!(fs.stats().prefetches_issued >= 1);
        assert_eq!(fs.stats().ra_graft_calls, 0, "graft never ran");
    }

    #[test]
    fn fragmented_allocation_uses_multiple_extents() {
        let mut fs = fresh(4);
        // Fragment free space: a,b,c then remove b.
        fs.create("a", 10 * BLOCK_SIZE as u64).unwrap();
        fs.create("b", 10 * BLOCK_SIZE as u64).unwrap();
        fs.create("c", 10 * BLOCK_SIZE as u64).unwrap();
        fs.remove("b").unwrap();
        // A 15-block file cannot fit one run before c... actually the
        // tail after c is contiguous, so force use of the hole by
        // filling the tail first.
        let tail = fs.bitmap.free_count() - 10;
        fs.create("filler", tail as u64 * BLOCK_SIZE as u64).unwrap();
        // Only b's 10-block hole remains.
        fs.create("hole", 10 * BLOCK_SIZE as u64).unwrap();
        let idx = fs.lookup("hole").unwrap();
        assert_eq!(fs.inodes[idx].block_count(), 10);
        let fd = fs.open("hole").unwrap();
        fs.write(fd, 0, b"fits in the hole").unwrap();
        assert_eq!(fs.read(fd, 0, 16).unwrap(), b"fits in the hole");
    }

    /// Formats a volume with one file holding known bytes, then crashes
    /// the kernel at `site` during an overwrite and remounts a fresh
    /// instance over the surviving image. Returns the recovered fs and
    /// its recovery report.
    fn crash_during_write(site: FaultSite) -> (FileSystem, RecoveryReport) {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
        fs.create("wal", 4 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("wal").unwrap();
        fs.write(fd, 0, b"old contents").unwrap();

        let plane = FaultPlane::seeded(7);
        plane.arm(site, 1);
        fs.obs().attach_fault(Rc::clone(&plane)).unwrap();
        assert_eq!(fs.write(fd, 0, b"NEW CONTENTS"), Err(FsError::PowerFailure));
        assert!(fs.halted());
        assert_eq!(plane.injected(site), 1);

        let image = fs.disk_image();
        let clock2 = VirtualClock::new();
        let disk2 = Disk::from_image(Rc::clone(&clock2), image).unwrap();
        let fs2 = FileSystem::mount(clock2, disk2, 8).unwrap();
        let report = fs2.recovery_report().unwrap();
        (fs2, report)
    }

    #[test]
    fn crash_before_journal_preserves_old_contents() {
        let (mut fs, report) = crash_during_write(FaultSite::KernelCrashBeforeJournal);
        // Nothing of the new write reached the journal; the only record
        // found is the previous committed (and already checkpointed)
        // transaction, which redo re-applies harmlessly.
        assert_eq!(report.replayed_txns, 1);
        assert_eq!(report.discarded_txns, 0);
        let fd = fs.open("wal").unwrap();
        assert_eq!(fs.read(fd, 0, 12).unwrap(), b"old contents");
    }

    #[test]
    fn crash_mid_journal_discards_torn_tail() {
        let (mut fs, report) = crash_during_write(FaultSite::KernelCrashMidJournal);
        // The descriptor (or a payload block) was torn before the commit
        // marker went down: the transaction never happened.
        assert_eq!(report.replayed_txns, 0);
        let fd = fs.open("wal").unwrap();
        assert_eq!(fs.read(fd, 0, 12).unwrap(), b"old contents");
    }

    #[test]
    fn crash_after_commit_rolls_forward() {
        let (mut fs, report) = crash_during_write(FaultSite::KernelCrashAfterCommit);
        assert_eq!(report.replayed_txns, 1);
        assert!(report.replayed_blocks >= 1);
        let fd = fs.open("wal").unwrap();
        assert_eq!(fs.read(fd, 0, 12).unwrap(), b"NEW CONTENTS");
    }

    #[test]
    fn crash_mid_checkpoint_rolls_forward() {
        let (mut fs, report) = crash_during_write(FaultSite::KernelCrashMidCheckpoint);
        assert_eq!(report.replayed_txns, 1);
        let fd = fs.open("wal").unwrap();
        assert_eq!(fs.read(fd, 0, 12).unwrap(), b"NEW CONTENTS");
    }

    #[test]
    fn halted_instance_rejects_all_operations() {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
        fs.create("f", BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("f").unwrap();
        let plane = FaultPlane::seeded(1);
        plane.arm(FaultSite::KernelCrashBeforeJournal, 1);
        fs.obs().attach_fault(plane).unwrap();
        assert_eq!(fs.write(fd, 0, b"x"), Err(FsError::PowerFailure));
        // Every subsequent operation on the dead instance fails the same
        // way — no half-alive kernel.
        assert_eq!(fs.write(fd, 0, b"y"), Err(FsError::PowerFailure));
        assert_eq!(fs.read(fd, 0, 1), Err(FsError::PowerFailure));
        assert_eq!(fs.create("g", 1), Err(FsError::PowerFailure));
        assert_eq!(fs.remove("f"), Err(FsError::PowerFailure));
        assert!(matches!(fs.open("f"), Err(FsError::PowerFailure)));
    }

    #[test]
    fn large_write_chunks_into_multiple_transactions() {
        let mut fs = fresh(16);
        let cap = fs.sb.journal_capacity();
        let blocks = cap + 3; // Must not fit one transaction.
        fs.create("big", (blocks * BLOCK_SIZE) as u64).unwrap();
        let fd = fs.open("big").unwrap();
        let data: Vec<u8> = (0..blocks * BLOCK_SIZE).map(|i| (i % 239) as u8).collect();
        fs.write(fd, 0, &data).unwrap();
        assert_eq!(fs.read(fd, 0, data.len() as u64).unwrap(), data);
        // Two transactions were journalled (seq 1 consumed by create).
        assert!(fs.next_seq >= 4, "expected >= 3 txns, next_seq={}", fs.next_seq);
    }

    #[test]
    fn committed_records_tail_and_boundary_seqs() {
        let mut fs = fresh(8);
        fs.create("t", 4 * BLOCK_SIZE as u64).unwrap(); // seq 1
        let fd = fs.open("t").unwrap();
        fs.write(fd, 0, b"one").unwrap(); // seq 2
        fs.write(fd, 10, b"two").unwrap(); // seq 3
        let seqs: Vec<u64> = fs.committed_records(1).map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(fs.committed_records(3).count(), 1, "seq_from is inclusive");
        assert_eq!(fs.committed_records(4).count(), 0, "past the tail is empty");
        assert_eq!(fs.last_committed_seq(), 3);
        // Records carry self-checking payloads (the shipping seal's
        // ground truth).
        for r in fs.committed_records(1) {
            assert_eq!(r.entries.len(), r.payloads.len());
            for ((_home, sum), data) in r.entries.iter().zip(&r.payloads) {
                assert_eq!(checksum64(data), *sum);
            }
        }
        fs.prune_committed(2);
        let seqs: Vec<u64> = fs.committed_records(1).map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3], "acked prefix pruned");
        assert_eq!(fs.last_committed_seq(), 3, "high-water mark survives pruning");
    }

    #[test]
    fn torn_tail_is_never_retained() {
        let clock = VirtualClock::new();
        let disk = Disk::new(Rc::clone(&clock));
        let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
        fs.create("t", 4 * BLOCK_SIZE as u64).unwrap(); // seq 1 commits.
        let fd = fs.open("t").unwrap();
        let plane = FaultPlane::seeded(9);
        plane.arm(FaultSite::KernelCrashMidJournal, 1);
        fs.obs().attach_fault(plane).unwrap();
        assert_eq!(fs.write(fd, 0, b"torn"), Err(FsError::PowerFailure));
        // Seq 2 began but never committed: the tail ends at 1, readable
        // even off the dead instance.
        assert_eq!(fs.last_committed_seq(), 1);
        assert_eq!(fs.committed_records(2).count(), 0, "torn seq is not retained");
        // The remounted volume discards the tear; its retained tail is
        // empty (the torn descriptor overwrote the only journal slot).
        let image = fs.disk_image();
        let clock2 = VirtualClock::new();
        let fs2 =
            FileSystem::mount(Rc::clone(&clock2), Disk::from_image(clock2, image).unwrap(), 8)
                .unwrap();
        assert_eq!(fs2.recovery_report().unwrap().discarded_txns, 1);
        assert_eq!(fs2.last_committed_seq(), 0);
        assert_eq!(fs2.committed_records(1).count(), 0);
    }

    #[test]
    fn replayed_record_lands_on_the_retained_tail() {
        let (fs, report) = crash_during_write(FaultSite::KernelCrashAfterCommit);
        assert_eq!(report.replayed_txns, 1);
        let seq = fs.last_committed_seq();
        assert!(seq > 0, "replay retained the committed record");
        assert_eq!(fs.committed_records(seq).count(), 1, "boundary seq included");
        assert_eq!(fs.committed_records(seq + 1).count(), 0, "past the tail is empty");
    }

    #[test]
    fn ingest_replicated_applies_in_order_and_is_idempotent() {
        let mut p = fresh(8);
        p.create("f", 4 * BLOCK_SIZE as u64).unwrap();
        let fd = p.open("f").unwrap();
        p.write(fd, 0, b"replicate me").unwrap();
        let recs: Vec<VerifiedRecord> = p.committed_records(1).cloned().collect();
        assert_eq!(recs.len(), 2);

        // A replica formatted identically converges record by record.
        let mut r = fresh(8);
        assert_eq!(r.ingest_replicated(&recs[1]), Ok(IngestOutcome::Gap { expected: 1 }));
        for rec in &recs {
            assert_eq!(
                r.ingest_replicated(rec),
                Ok(IngestOutcome::Applied { blocks: rec.entries.len() as u64 })
            );
        }
        assert_eq!(r.ingest_replicated(&recs[0]), Ok(IngestOutcome::Duplicate));
        assert_eq!(r.last_committed_seq(), 2);
        assert_eq!(r.committed_records(1).count(), 0, "an applied record is not retained");
        let fd2 = r.open("f").unwrap();
        assert_eq!(r.read(fd2, 0, 12).unwrap(), b"replicate me");
        // Byte-identical over every block either side materialised.
        // (Not a structural image compare: `create` zeroes data blocks
        // directly on the primary, and a journalled replica never
        // materialises blocks that only ever held zeros.)
        let (pi, ri) = (p.disk_image(), r.disk_image());
        for addr in pi.written().chain(ri.written()) {
            assert_eq!(pi.block(addr), ri.block(addr), "block {addr:?} diverged");
        }
    }

    #[test]
    fn verify_refuses_a_record_whose_payloads_do_not_match_its_entries() {
        let mut p = fresh(8);
        p.create("f", 4 * BLOCK_SIZE as u64).unwrap();
        let fd = p.open("f").unwrap();
        p.write(fd, 0, &[0x5A; 2 * BLOCK_SIZE]).unwrap();
        let rec = p.committed_records(2).next().unwrap().clone();
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(VerifiedRecord::verify(JournalRecord::clone(&rec)), Ok(rec.clone()));
        // A flipped byte in either block, or in either entry's sum, is
        // refused: such a record never reaches `ingest_replicated`.
        for block in 0..2 {
            let mut bad = JournalRecord::clone(&rec);
            bad.payloads[block][BLOCK_SIZE - 1] ^= 0xFF;
            assert_eq!(VerifiedRecord::verify(bad), Err(FsError::BadVolume), "payload {block}");
            let mut bad = JournalRecord::clone(&rec);
            bad.entries[block].1 ^= 1;
            assert_eq!(VerifiedRecord::verify(bad), Err(FsError::BadVolume), "entry {block}");
        }
        // So is a payload without an entry, and an empty record.
        let mut bad = JournalRecord::clone(&rec);
        bad.entries.pop();
        assert_eq!(VerifiedRecord::verify(bad), Err(FsError::BadVolume));
        let empty = JournalRecord { seq: rec.seq, entries: vec![], payloads: vec![] };
        assert_eq!(VerifiedRecord::verify(empty), Err(FsError::BadVolume));
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut fs, first) = crash_during_write(FaultSite::KernelCrashAfterCommit);
        let before = fs.disk_image();
        let again = fs.recover().unwrap();
        // Replaying the same committed transaction a second time is a
        // no-op on the image: pure redo records are idempotent.
        assert_eq!(again.replayed_txns, first.replayed_txns);
        assert_eq!(fs.disk_image(), before);
    }

    /// Tears each payload block of a committed 3-block record at each
    /// sector boundary, with its descriptor and commit block intact:
    /// the payload sums must refuse every tear, so recovery discards the
    /// record, the committed prefix survives byte for byte, and a second
    /// mount changes nothing.
    #[test]
    fn a_torn_payload_block_is_never_replayed() {
        let mount = |image: DiskImage| {
            let clock = VirtualClock::new();
            FileSystem::mount(Rc::clone(&clock), Disk::from_image(clock, image).unwrap(), 8)
                .unwrap()
        };
        let clock = VirtualClock::new();
        let mut fs = FileSystem::format(Rc::clone(&clock), Disk::new(Rc::clone(&clock)), 8, 64);
        fs.create("f", 4 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("f").unwrap();
        // The committed prefix also fills the journal slots the record
        // will tear over with stale payloads.
        let prefix: Vec<u8> = (0..4 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fs.write(fd, 0, &prefix).unwrap();
        let before = fs.disk_image();
        let plane = FaultPlane::seeded(7);
        plane.arm(FaultSite::KernelCrashAfterCommit, 1);
        fs.obs().attach_fault(plane).unwrap();
        let mut rng = vino_sim::rng::SplitMix64::new(0x70A2);
        let record: Vec<u8> = (0..3 * BLOCK_SIZE).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(fs.write(fd, 0, &record), Err(FsError::PowerFailure));
        let committed = fs.disk_image();
        let js = fs.sb.journal_start as u64;
        let journal = js..js + fs.sb.journal_blocks as u64;

        // Whole, the record replays: the tears below are what refuse it.
        let mut whole = mount(committed.clone());
        assert_eq!(whole.recovery_report().unwrap().replayed_blocks, 3);
        let fd = whole.open("f").unwrap();
        assert_eq!(whole.read(fd, 0, record.len() as u64).unwrap(), record);

        for block in 0..3 {
            let addr = BlockAddr(js + 1 + block);
            for at in (0..BLOCK_SIZE).step_by(512) {
                let case = format!("payload {block} torn at {at}");
                let mut disk = Disk::from_image(VirtualClock::new(), committed.clone()).unwrap();
                let new = disk.read(addr);
                disk.write(addr, &before.block(addr));
                disk.write_torn(addr, &new, at);
                let torn = disk.snapshot();
                assert_ne!(torn.block(addr), new, "{case}: the tear must change the block");

                let mut fs1 = mount(torn);
                let report = fs1.recovery_report().unwrap();
                assert_eq!((report.replayed_txns, report.discarded_txns), (0, 1), "{case}");
                let after = fs1.disk_image();
                for a in before.written().chain(after.written()) {
                    if !journal.contains(&a.0) {
                        assert!(after.block(a) == before.block(a), "{case}: block {a:?} moved");
                    }
                }
                let fd1 = fs1.open("f").unwrap();
                assert_eq!(fs1.read(fd1, 0, prefix.len() as u64).unwrap(), prefix, "{case}");

                let fs2 = mount(after.clone());
                let again = fs2.recovery_report().unwrap();
                assert_eq!((again.replayed_txns, again.discarded_txns), (0, 0), "{case}");
                assert!(fs2.disk_image() == after, "{case}: a second mount changed the disk");
            }
        }
    }

    #[test]
    fn same_seed_crash_recovery_is_byte_identical() {
        let run = |seed: u64| {
            let clock = VirtualClock::new();
            let disk = Disk::new(Rc::clone(&clock));
            let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
            fs.create("r", 8 * BLOCK_SIZE as u64).unwrap();
            let fd = fs.open("r").unwrap();
            let plane = FaultPlane::seeded(seed);
            plane.arm(FaultSite::KernelCrashMidJournal, 2);
            fs.obs().attach_fault(plane).unwrap();
            let _ = fs.write(fd, 0, &[7u8; 3 * BLOCK_SIZE]);
            let _ = fs.write(fd, 100, b"second attempt");
            let image = fs.disk_image();
            let clock2 = VirtualClock::new();
            let mut fs2 =
                FileSystem::mount(Rc::clone(&clock2), Disk::from_image(clock2, image).unwrap(), 8)
                    .unwrap();
            let fd2 = fs2.open("r").unwrap();
            (fs2.disk_image(), fs2.recovery_report().unwrap(), fs2.read(fd2, 0, 64))
        };
        assert_eq!(run(42), run(42), "same seed must replay byte-identically");
        // And a different seed tears at a different prefix, so the raw
        // images differ even though the recovered file state agrees.
        let (img_a, _, data_a) = run(42);
        let (img_b, _, data_b) = run(43);
        assert_eq!(data_a, data_b);
        assert_ne!(img_a, img_b, "different tear prefixes must differ on disk");
    }
}
