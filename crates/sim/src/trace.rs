//! The deterministic trace plane and abort flight recorder.
//!
//! The paper's claim is not only that the kernel *survives* misbehaved
//! grafts but that every survival is *explainable*: an abort unwinds a
//! known undo stack, releases an enumerable set of locks, and falls back
//! to the default path. This module turns that story into an artifact.
//! Every instrumented subsystem emits [`TraceEvent`]s into one shared
//! [`TracePlane`] — a pre-allocated ring buffer, so the hot path never
//! touches the heap — and because the whole simulation is
//! single-threaded and seeded, the event sequence is bit-identical run
//! after run. Traces serialize to a canonical line format
//! ([`TracePlane::serialize`]) that golden tests diff directly.
//!
//! On every wrapper abort the grafting layer calls
//! [`TracePlane::record_post_mortem`], which snapshots the last N ring
//! records together with the abort's vital signs (graft, abort kind,
//! locks held, undo depth, cycle cost) into a [`PostMortem`] — the
//! flight recorder of `docs/TRACING.md`.
//!
//! Like [`crate::fault::FaultPlane`], the plane is passive and shared
//! behind `Rc` with interior mutability; subsystems reach it through
//! their [`crate::obs::Obs`] handle and the kernel attaches it with one
//! `attach_trace_plane` call.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};
use crate::plane::CellCounters;

/// Default ring capacity, in records.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Default flight-recorder window: records snapshotted per post-mortem.
pub const DEFAULT_POST_MORTEM_WINDOW: usize = 32;

/// An interned graft name. Tags are assigned in first-intern order, so
/// they are deterministic for a deterministic install sequence; the
/// plane's name table maps them back for rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraftTag(pub u16);

impl GraftTag {
    /// Stand-in tag for events emitted where no trace plane is bound:
    /// the event still drives its counter, and no plane ever renders
    /// the tag.
    pub const UNTRACED: GraftTag = GraftTag(u16::MAX);
}

/// Identity of the kernel a [`TracePlane`] records for. A single-kernel
/// simulation is node 0; the replication harness runs the primary as
/// node 0 and the replica as node 1, and the node id joins the
/// canonical line format (`n0`, `n1`, …) so merged streams stay
/// attributable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u8);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A causal span id: the minting node's id in the high 16 bits and a
/// per-plane monotonic counter (starting at 1) in the low 48. Zero is
/// reserved for "no span" ([`SpanId::NONE`]), so span ids are unique
/// across every plane sharing one virtual clock and a span's origin
/// node is always recoverable from the id itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel.
    pub const NONE: SpanId = SpanId(0);
    const NODE_SHIFT: u32 = 48;

    /// Builds a span id from its parts. `counter` must be non-zero and
    /// fit the low 48 bits.
    pub fn new(node: NodeId, counter: u64) -> SpanId {
        assert!(counter != 0, "span counters start at 1 (0 is the NONE sentinel)");
        assert!(counter < (1 << Self::NODE_SHIFT), "span counter overflow");
        SpanId(((node.0 as u64) << Self::NODE_SHIFT) | counter)
    }

    /// True for the "no span" sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The node that minted this span.
    pub fn node(self) -> NodeId {
        NodeId((self.0 >> Self::NODE_SHIFT) as u8)
    }

    /// The minting plane's monotonic counter value.
    pub fn counter(self) -> u64 {
        self.0 & ((1 << Self::NODE_SHIFT) - 1)
    }
}

impl fmt::Display for SpanId {
    /// Renders as `node.counter` (e.g. `0.5`), or `-` for none.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "-")
        } else {
            write!(f, "{}.{}", self.node().0, self.counter())
        }
    }
}

/// The causal context stamped on every trace record and carried in-band
/// across kernel boundaries (packet frames, replication record/ack
/// frames): which span caused this event (`span`) and which span caused
/// *that* (`parent`). Both ids carry their origin node in the high
/// bits, so a cross-kernel edge — a replica span whose parent was
/// minted on the primary — is visible in the context alone. 16 bytes
/// on the wire ([`CauseCtx::to_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CauseCtx {
    /// The span this event belongs to.
    pub span: SpanId,
    /// The span that caused `span` to be minted.
    pub parent: SpanId,
}

impl CauseCtx {
    /// The empty context: no span, no parent.
    pub const NONE: CauseCtx = CauseCtx { span: SpanId::NONE, parent: SpanId::NONE };
    /// Encoded size in bytes.
    pub const WIRE_BYTES: usize = 16;

    /// True when no span is attached.
    pub fn is_none(self) -> bool {
        self.span.is_none()
    }

    /// The node that minted this context's span.
    pub fn node(self) -> NodeId {
        self.span.node()
    }

    /// Little-endian wire encoding: span id then parent id.
    pub fn to_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut b = [0u8; Self::WIRE_BYTES];
        b[..8].copy_from_slice(&self.span.0.to_le_bytes());
        b[8..].copy_from_slice(&self.parent.0.to_le_bytes());
        b
    }

    /// Decodes [`Self::to_bytes`] output.
    pub fn from_bytes(b: &[u8; Self::WIRE_BYTES]) -> CauseCtx {
        CauseCtx {
            span: SpanId(u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))),
            parent: SpanId(u64::from_le_bytes(b[8..].try_into().expect("8 bytes"))),
        }
    }
}

/// How a traced VM run window ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmExitKind {
    /// The graft executed `halt`.
    Halt,
    /// Fuel exhausted; the run may resume.
    Preempt,
    /// The graft trapped.
    Trap,
}

/// Why a packet was refused admission to an RX ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedKind {
    /// The ring was at capacity (or an injected overflow said so).
    Overflow,
    /// Deterministic load shedding above the high watermark.
    Watermark,
}

impl ShedKind {
    fn label(self) -> &'static str {
        match self {
            ShedKind::Overflow => "overflow",
            ShedKind::Watermark => "watermark",
        }
    }
}

/// A packet-filter verdict, as traced (the steer target travels in the
/// separate `NetSteer` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// Deliver to the port's consumer.
    Accept,
    /// Discard.
    Drop,
    /// Re-enqueue on another port's ring.
    Steer,
}

impl VerdictKind {
    fn label(self) -> &'static str {
        match self {
            VerdictKind::Accept => "accept",
            VerdictKind::Drop => "drop",
            VerdictKind::Steer => "steer",
        }
    }
}

/// Which MiSFIT sandbox check executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfiKind {
    /// Address clamp before a load/store.
    Clamp,
    /// Indirect-call target check.
    CheckCall,
}

/// Coarse abort cause carried by graft-abort events and post-mortems
/// (the sim-level mirror of the engine's `AbortedWhy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// The graft trapped (memory fault, forbidden call, host error…).
    Trap,
    /// The graft exceeded its CPU-slice budget.
    CpuHog,
    /// A fired lock time-out stole the wrapper transaction.
    LockTimeout,
    /// The caller requested an abort-instead-of-commit run.
    Requested,
}

impl AbortKind {
    fn label(self) -> &'static str {
        match self {
            AbortKind::Trap => "trap",
            AbortKind::CpuHog => "cpu-hog",
            AbortKind::LockTimeout => "lock-timeout",
            AbortKind::Requested => "requested",
        }
    }
}

/// One traced occurrence. All payloads are `Copy` and fixed-size so the
/// ring buffer never allocates; graft names travel as interned
/// [`GraftTag`]s and resource kinds as their small-integer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    // -- vm ------------------------------------------------------------
    /// One fuel window of interpreted execution ended.
    VmWindow {
        /// Instructions retired in this window.
        instrs: u64,
        /// How the window ended.
        exit: VmExitKind,
    },
    /// A MiSFIT sandbox check executed.
    SfiCheck {
        /// Which check.
        kind: SfiKind,
        /// The checked instruction's pc.
        pc: u64,
    },
    // -- txn -----------------------------------------------------------
    /// A transaction began (`txn` is the new id, `depth` after push).
    TxnBegin {
        /// The owning thread.
        thread: u64,
        /// The new transaction id.
        txn: u64,
        /// Nesting depth after the begin.
        depth: u64,
    },
    /// A transaction committed.
    TxnCommit {
        /// The owning thread.
        thread: u64,
        /// The committed transaction id.
        txn: u64,
        /// True for a nested merge into the parent.
        nested: bool,
        /// Locks released (zero for nested commits).
        locks: u64,
    },
    /// A transaction aborted (undo already ran; see `UndoRun`).
    TxnAbort {
        /// The owning thread.
        thread: u64,
        /// The aborted transaction id.
        txn: u64,
        /// Locks released by the abort.
        locks: u64,
    },
    /// A transactional lock acquire was granted.
    LockAcquire {
        /// The lock.
        lock: u64,
        /// The acquiring thread.
        thread: u64,
    },
    /// A lock acquire contended; a time-out was scheduled.
    LockBlocked {
        /// The lock.
        lock: u64,
        /// The blocked waiter.
        waiter: u64,
        /// The current holder.
        holder: u64,
    },
    /// A lock time-out fired and aborted the holder's transaction.
    LockTimeout {
        /// The contended lock.
        lock: u64,
        /// The aborted holder.
        holder: u64,
    },
    /// A wrapper discovered its transaction was stolen by a fired
    /// time-out (consumed the forced-abort report).
    LockSteal {
        /// The thread whose transaction was stolen.
        thread: u64,
        /// The stolen transaction id.
        txn: u64,
    },
    /// An undo record was pushed (`depth` = records pending after push).
    UndoPush {
        /// The owning thread.
        thread: u64,
        /// Undo-stack depth after the push.
        depth: u64,
    },
    /// An abort unwound the undo stack.
    UndoRun {
        /// The owning thread.
        thread: u64,
        /// Undo operations executed (LIFO).
        ops: u64,
    },
    // -- rm ------------------------------------------------------------
    /// A resource charge was granted.
    ResGrant {
        /// The charged principal (after billing indirection).
        principal: u64,
        /// Resource kind index (see `vino_rm::ResourceKind`).
        kind: u8,
        /// Amount granted.
        amount: u64,
    },
    /// A resource release.
    ResRelease {
        /// The releasing principal (after billing indirection).
        principal: u64,
        /// Resource kind index.
        kind: u8,
        /// Amount released.
        amount: u64,
    },
    /// A resource charge was denied (genuine limit hit or injected).
    ResLimitHit {
        /// The denied principal.
        principal: u64,
        /// Resource kind index.
        kind: u8,
        /// Requested amount.
        requested: u64,
    },
    // -- fs ------------------------------------------------------------
    /// A file-system read was served.
    FsRead {
        /// The descriptor.
        fd: u64,
        /// Bytes read.
        len: u64,
    },
    /// A file-system write was served.
    FsWrite {
        /// The descriptor.
        fd: u64,
        /// Bytes written.
        len: u64,
    },
    /// A prefetch I/O was issued from a per-file queue.
    FsPrefetch {
        /// The descriptor whose queue issued.
        fd: u64,
    },
    /// A journal transaction's redo records were appended to the
    /// journal region (descriptor + payload blocks, no commit yet).
    FsJournalAppend {
        /// Journal sequence number.
        seq: u64,
        /// Home-location blocks captured in the record.
        blocks: u64,
    },
    /// A journal transaction's commit marker reached the disk — the
    /// update is now durable whatever happens next.
    FsJournalCommit {
        /// Journal sequence number.
        seq: u64,
    },
    /// A committed journal transaction was checkpointed to its
    /// home locations.
    FsCheckpoint {
        /// Journal sequence number.
        seq: u64,
        /// Home-location blocks written in place.
        blocks: u64,
    },
    /// Mount-time recovery rolled a committed journal transaction
    /// forward.
    FsRecoveryReplay {
        /// Journal sequence number replayed.
        seq: u64,
        /// Home-location blocks rewritten.
        blocks: u64,
    },
    /// Mount-time recovery discarded a torn (uncommitted) journal
    /// tail.
    FsRecoveryDiscard {
        /// Journal sequence number of the torn record.
        seq: u64,
    },
    // -- graft lifecycle -----------------------------------------------
    /// A graft was installed (loader pipeline passed).
    GraftInstall {
        /// The installed graft.
        graft: GraftTag,
    },
    /// A graft invocation began (wrapper transaction opened).
    GraftInvoke {
        /// The invoked graft.
        graft: GraftTag,
    },
    /// A graft invocation committed.
    GraftCommit {
        /// The committed graft.
        graft: GraftTag,
    },
    /// A graft invocation aborted; the graft is forcibly unloaded.
    GraftAbort {
        /// The aborted graft.
        graft: GraftTag,
        /// Why.
        kind: AbortKind,
    },
    /// The reliability manager quarantined the graft name.
    GraftQuarantine {
        /// The quarantined graft.
        graft: GraftTag,
        /// Absolute virtual-clock deadline (cycles).
        until: u64,
    },
    /// An invocation found the graft dead; the caller serves the
    /// default path instead (§3.6 fallback).
    FallbackServed {
        /// The dead graft.
        graft: GraftTag,
    },
    // -- net -----------------------------------------------------------
    /// A packet was admitted to a port's RX ring.
    NetRx {
        /// The destination port.
        port: u16,
        /// Payload length in bytes.
        len: u64,
    },
    /// A packet was refused admission (overflow or watermark shedding).
    NetShed {
        /// The destination port.
        port: u16,
        /// Why it was shed.
        kind: ShedKind,
    },
    /// The packet filter returned a verdict for one packet.
    NetVerdict {
        /// The filtered port.
        port: u16,
        /// The verdict.
        verdict: VerdictKind,
    },
    /// A steered packet hopped from one port's ring to another's.
    NetSteer {
        /// The port it left.
        from: u16,
        /// The port it joined.
        to: u16,
    },
    /// A packet exhausted its steer-hop budget and was dropped.
    NetLoopCut {
        /// The port where the cycle was cut.
        port: u16,
    },
    /// One batched filter dispatch ran (one transaction envelope).
    NetBatch {
        /// The filtered port.
        port: u16,
        /// Packets covered by the batch.
        n: u64,
    },
    // -- watch ---------------------------------------------------------
    /// A watch-plane SLO rule's windowed value crossed its threshold.
    /// The rule name travels as an interned tag (rule names are
    /// interned when the watch plane attaches its trace mirror).
    WatchAlertFiring {
        /// The firing rule's interned name.
        rule: GraftTag,
        /// The blamed principal (0 for kernel-global signals).
        principal: u64,
    },
    /// A firing watch-plane alert's value receded below threshold.
    WatchAlertResolved {
        /// The resolving rule's interned name.
        rule: GraftTag,
        /// The principal blamed at the firing edge.
        principal: u64,
    },
    /// The admission controller let a principal's install proceed.
    AdmissionAllow {
        /// The installing principal.
        principal: u64,
    },
    /// The admission controller refused a principal's install.
    AdmissionDeny {
        /// The refused principal.
        principal: u64,
        /// Absolute virtual-clock deadline of the backoff (cycles).
        until: u64,
    },
    // -- repl ------------------------------------------------------------
    /// The primary shipped one committed journal record to the replica
    /// (as `frags` sealed frames over the packet plane).
    ReplShip {
        /// Journal sequence number of the shipped record.
        seq: u64,
        /// Frames the marshalled record was fragmented into.
        frags: u64,
    },
    /// The primary consumed a cumulative ack from the replica.
    ReplAck {
        /// Highest contiguous sequence the replica has applied.
        acked: u64,
    },
    /// The replica applied one shipped record through its own journal.
    ReplApply {
        /// Journal sequence number applied.
        seq: u64,
        /// Home-location blocks the record carried.
        blocks: u64,
    },
    /// A shipped frame was lost, reordered out of reach, or failed its
    /// seal check; the window will retransmit it.
    ReplFrameDrop {
        /// Journal sequence number of the affected record.
        seq: u64,
    },
    /// The replica finished replay after primary death and was promoted
    /// to primary via `boot_from_image`.
    ReplPromote {
        /// Highest sequence applied at promotion.
        seq: u64,
    },
}

/// The subsystem a [`TraceEvent`] belongs to, for [`TraceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// GraftVM interpreter events.
    Vm,
    /// Transaction/lock/undo events.
    Txn,
    /// Resource-accountant events.
    Rm,
    /// File-system events.
    Fs,
    /// Graft-lifecycle events.
    Graft,
    /// Packet-plane events.
    Net,
    /// Watch-plane alert edges and admission decisions.
    Watch,
    /// Replication-plane ship/ack/apply/promote events.
    Repl,
}

impl TraceEvent {
    /// The subsystem this event belongs to.
    pub fn category(&self) -> TraceCategory {
        use TraceEvent::*;
        match self {
            VmWindow { .. } | SfiCheck { .. } => TraceCategory::Vm,
            TxnBegin { .. }
            | TxnCommit { .. }
            | TxnAbort { .. }
            | LockAcquire { .. }
            | LockBlocked { .. }
            | LockTimeout { .. }
            | LockSteal { .. }
            | UndoPush { .. }
            | UndoRun { .. } => TraceCategory::Txn,
            ResGrant { .. } | ResRelease { .. } | ResLimitHit { .. } => TraceCategory::Rm,
            FsRead { .. }
            | FsWrite { .. }
            | FsPrefetch { .. }
            | FsJournalAppend { .. }
            | FsJournalCommit { .. }
            | FsCheckpoint { .. }
            | FsRecoveryReplay { .. }
            | FsRecoveryDiscard { .. } => TraceCategory::Fs,
            GraftInstall { .. }
            | GraftInvoke { .. }
            | GraftCommit { .. }
            | GraftAbort { .. }
            | GraftQuarantine { .. }
            | FallbackServed { .. } => TraceCategory::Graft,
            NetRx { .. }
            | NetShed { .. }
            | NetVerdict { .. }
            | NetSteer { .. }
            | NetLoopCut { .. }
            | NetBatch { .. } => TraceCategory::Net,
            WatchAlertFiring { .. }
            | WatchAlertResolved { .. }
            | AdmissionAllow { .. }
            | AdmissionDeny { .. } => TraceCategory::Watch,
            ReplShip { .. }
            | ReplAck { .. }
            | ReplApply { .. }
            | ReplFrameDrop { .. }
            | ReplPromote { .. } => TraceCategory::Repl,
        }
    }
}

/// One ring-buffer record: a sequence number, a virtual-clock stamp,
/// the causal context in force when the event was emitted, and the
/// event itself. `Copy`, so ring writes are plain stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic sequence number (never wraps; survives ring eviction).
    pub seq: u64,
    /// Virtual-clock time the event was emitted.
    pub at: Cycles,
    /// Causal context: the span this event belongs to (and its parent).
    pub ctx: CauseCtx,
    /// The event.
    pub event: TraceEvent,
}

/// Per-subsystem event counters for the plane's lifetime (evicted ring
/// records stay counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// GraftVM events.
    pub vm: u64,
    /// Transaction/lock/undo events.
    pub txn: u64,
    /// Resource-accountant events.
    pub rm: u64,
    /// File-system events.
    pub fs: u64,
    /// Graft-lifecycle events.
    pub graft: u64,
    /// Packet-plane events.
    pub net: u64,
    /// Watch-plane alert and admission events.
    pub watch: u64,
    /// Replication-plane events.
    pub repl: u64,
    /// All events emitted.
    pub total: u64,
    /// Events overwritten after the ring filled.
    pub dropped: u64,
}

/// [`TraceStats`] slots in the plane's counter array: one per
/// [`TraceCategory`] (indexed by discriminant), then the two totals.
const STAT_TOTAL: usize = 8;
const STAT_DROPPED: usize = 9;
const STAT_SLOTS: usize = 10;
const _: () = assert!(TraceCategory::Repl as usize + 1 == STAT_TOTAL);

impl TraceStats {
    fn from_slots(v: [u64; STAT_SLOTS]) -> TraceStats {
        TraceStats {
            vm: v[TraceCategory::Vm as usize],
            txn: v[TraceCategory::Txn as usize],
            rm: v[TraceCategory::Rm as usize],
            fs: v[TraceCategory::Fs as usize],
            graft: v[TraceCategory::Graft as usize],
            net: v[TraceCategory::Net as usize],
            watch: v[TraceCategory::Watch as usize],
            repl: v[TraceCategory::Repl as usize],
            total: v[STAT_TOTAL],
            dropped: v[STAT_DROPPED],
        }
    }

    fn to_slots(self) -> [u64; STAT_SLOTS] {
        let mut v = [0; STAT_SLOTS];
        v[TraceCategory::Vm as usize] = self.vm;
        v[TraceCategory::Txn as usize] = self.txn;
        v[TraceCategory::Rm as usize] = self.rm;
        v[TraceCategory::Fs as usize] = self.fs;
        v[TraceCategory::Graft as usize] = self.graft;
        v[TraceCategory::Net as usize] = self.net;
        v[TraceCategory::Watch as usize] = self.watch;
        v[TraceCategory::Repl as usize] = self.repl;
        v[STAT_TOTAL] = self.total;
        v[STAT_DROPPED] = self.dropped;
        v
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vm={} txn={} rm={} fs={} graft={} net={} watch={} repl={} total={} dropped={}",
            self.vm,
            self.txn,
            self.rm,
            self.fs,
            self.graft,
            self.net,
            self.watch,
            self.repl,
            self.total,
            self.dropped
        )
    }
}

/// The flight-recorder snapshot taken at an abort. Owns its data (the
/// graft name is resolved, the tail is copied out of the ring), so it
/// stays meaningful however the plane evolves afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostMortem {
    /// The aborted graft's name.
    pub graft: String,
    /// Why it aborted.
    pub kind: AbortKind,
    /// Locks the wrapper transaction held (and released) at abort.
    pub held_locks: usize,
    /// Undo operations the abort executed.
    pub undo_depth: usize,
    /// Cycle cost charged for the abort (§4.5 equation).
    pub cost: Cycles,
    /// Virtual-clock time of the abort.
    pub at: Cycles,
    /// The last N trace records before (and including) the abort,
    /// oldest first.
    pub tail: Vec<TraceRecord>,
    /// The tail rendered in canonical line format (resolved names).
    pub lines: Vec<String>,
}

impl fmt::Display for PostMortem {
    /// The text format documented in `docs/TRACING.md`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== post-mortem: graft `{}` ==", self.graft)?;
        writeln!(f, "abort-kind:  {}", self.kind.label())?;
        writeln!(f, "at:          {}cyc", self.at.get())?;
        writeln!(f, "held-locks:  {}", self.held_locks)?;
        writeln!(f, "undo-depth:  {}", self.undo_depth)?;
        writeln!(f, "abort-cost:  {}cyc", self.cost.get())?;
        writeln!(f, "last {} events:", self.lines.len())?;
        for line in &self.lines {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

struct Ring {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Next overwrite slot once `buf.len() == cap`.
    head: usize,
}

impl Ring {
    fn push(&mut self, rec: TraceRecord) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(rec); // Within reserved capacity: no alloc.
            false
        } else {
            self.buf[self.head] = rec;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            true
        }
    }

    /// Records oldest → newest.
    fn ordered(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// The newest `n` records (all of them if the ring holds fewer),
    /// oldest first: the last `n` of [`ordered`](Self::ordered),
    /// copying only those `n`.
    fn tail(&self, n: usize) -> Vec<TraceRecord> {
        // Oldest → newest is `older` then `newer`; an unwrapped ring has
        // `head == 0`, so `newer` is empty and `older` is everything.
        let (newer, older) = self.buf.split_at(self.head);
        let n = n.min(self.buf.len());
        let from_older = n.saturating_sub(newer.len());
        let mut out = Vec::with_capacity(n);
        out.extend_from_slice(&older[older.len() - from_older..]);
        out.extend_from_slice(&newer[newer.len() - (n - from_older)..]);
        out
    }
}

/// An opaque snapshot of a [`TracePlane`]'s full mutable state: the
/// ring's records (oldest first), the sequence counter, lifetime stats,
/// the interned name table and the flight-recorder state. Captured by
/// [`TracePlane::export_state`], replanted by
/// [`TracePlane::restore_state`] so a resumed replay appends to the
/// same stream and serializes byte-identically.
#[derive(Clone)]
pub struct TraceState {
    records: Vec<TraceRecord>,
    cap: usize,
    seq: u64,
    stats: TraceStats,
    names: Vec<String>,
    post: Option<PostMortem>,
    pm_window: usize,
    node: NodeId,
    cur_ctx: CauseCtx,
    next_span: u64,
}

/// The shared trace plane. See the module docs.
pub struct TracePlane {
    clock: Rc<VirtualClock>,
    node: Cell<NodeId>,
    ring: RefCell<Ring>,
    seq: Cell<u64>,
    /// [`TraceStats`] as counter slots (see `STAT_TOTAL`).
    stats: CellCounters<STAT_SLOTS>,
    names: RefCell<Vec<String>>,
    tags: RefCell<HashMap<String, GraftTag>>,
    /// The latest abort snapshot, stored with `lines` empty (see
    /// [`TracePlane::post_mortem`]).
    post: RefCell<Option<PostMortem>>,
    pm_window: Cell<usize>,
    /// The causal context in force: stamped on every plain `emit`.
    cur_ctx: Cell<CauseCtx>,
    /// Next span counter (span counters start at 1; 0 is NONE).
    next_span: Cell<u64>,
}

impl TracePlane {
    /// A plane with the default ring capacity, stamping events from
    /// `clock`.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<TracePlane> {
        TracePlane::with_capacity(clock, DEFAULT_CAPACITY)
    }

    /// A plane whose ring holds the last `capacity` records, recording
    /// for node 0. The ring is fully reserved here;
    /// [`emit`](Self::emit) never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(clock: Rc<VirtualClock>, capacity: usize) -> Rc<TracePlane> {
        TracePlane::with_node(clock, capacity, NodeId(0))
    }

    /// A plane recording for `node` — the multi-kernel constructor.
    /// Every plane merged by [`TracePlane::merge_streams`] must carry a
    /// distinct node id.
    pub fn with_node(clock: Rc<VirtualClock>, capacity: usize, node: NodeId) -> Rc<TracePlane> {
        assert!(capacity > 0, "trace ring capacity must be non-zero");
        Rc::new(TracePlane {
            clock,
            node: Cell::new(node),
            ring: RefCell::new(Ring { buf: Vec::with_capacity(capacity), cap: capacity, head: 0 }),
            seq: Cell::new(0),
            stats: CellCounters::new(),
            names: RefCell::new(Vec::new()),
            tags: RefCell::new(HashMap::new()),
            post: RefCell::new(None),
            pm_window: Cell::new(DEFAULT_POST_MORTEM_WINDOW),
            cur_ctx: Cell::new(CauseCtx::NONE),
            next_span: Cell::new(1),
        })
    }

    /// The clock events are stamped from.
    pub fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    /// The kernel identity this plane records for.
    pub fn node(&self) -> NodeId {
        self.node.get()
    }

    /// The causal context in force (stamped on plain emits).
    pub fn ctx(&self) -> CauseCtx {
        self.cur_ctx.get()
    }

    /// Installs `ctx` as the context in force and returns the previous
    /// one, so callers can bracket a causal scope and restore it.
    pub fn set_ctx(&self, ctx: CauseCtx) -> CauseCtx {
        self.cur_ctx.replace(ctx)
    }

    /// Mints a fresh span as a child of `parent` (pass
    /// [`SpanId::NONE`] for a root span). Pure counter arithmetic — no
    /// clock charge, no allocation — so minting on the hot path stays
    /// free. The returned context is *not* installed; pair with
    /// [`set_ctx`](Self::set_ctx) to scope it.
    pub fn mint_span(&self, parent: SpanId) -> CauseCtx {
        let c = self.next_span.get();
        self.next_span.set(c + 1);
        CauseCtx { span: SpanId::new(self.node.get(), c), parent }
    }

    /// Interns `name`, returning its stable tag. The first intern of a
    /// name allocates (install paths); later look-ups do not.
    pub fn tag(&self, name: &str) -> GraftTag {
        if let Some(t) = self.tags.borrow().get(name) {
            return *t;
        }
        let mut names = self.names.borrow_mut();
        let tag = GraftTag(u16::try_from(names.len()).expect("more than 65535 graft names"));
        names.push(name.to_string());
        self.tags.borrow_mut().insert(name.to_string(), tag);
        tag
    }

    /// The name behind `tag` (or a placeholder for a foreign tag).
    pub fn name_of(&self, tag: GraftTag) -> String {
        self.names.borrow().get(tag.0 as usize).cloned().unwrap_or_else(|| format!("?tag{}", tag.0))
    }

    /// The instrumentation point: stamps and records one event under
    /// the causal context in force ([`ctx`](Self::ctx)). The hot path —
    /// a counter bump, a stat bump and a ring store; no heap allocation
    /// (proven by `tests/zero_alloc.rs`).
    pub fn emit(&self, event: TraceEvent) {
        self.emit_with_ctx(event, self.cur_ctx.get());
    }

    /// Like [`emit`](Self::emit) but stamps an explicit causal context
    /// instead of the one in force — the boundary instrumentation point
    /// (span mints, cross-kernel ingress). Same zero-alloc hot path.
    pub fn emit_with_ctx(&self, event: TraceEvent, ctx: CauseCtx) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let rec = TraceRecord { seq, at: self.clock.now(), ctx, event };
        self.stats.add(STAT_TOTAL, 1);
        self.stats.add(event.category() as usize, 1);
        if self.ring.borrow_mut().push(rec) {
            self.stats.add(STAT_DROPPED, 1);
        }
    }

    /// Appends `batch` in order under the causal context in force, each
    /// event with the stamp it carries: one ring borrow for the whole
    /// batch and one stats update per run of same-category events.
    /// Leaves the plane exactly as emitting each event with the clock at
    /// its stamp would — sequence numbers, per-category counts and
    /// evictions included. The GraftVM hands its `vm.sfi` records over
    /// this way, stamped from the run's static costs. Zero-allocation.
    pub fn emit_stamped(&self, batch: &[(Cycles, TraceEvent)]) {
        let Some((_, head)) = batch.first() else { return };
        let ctx = self.cur_ctx.get();
        let first = self.seq.get();
        // Count each stretch of one category at once: batches are
        // usually all one category.
        let (mut cat, mut same, mut dropped) = (head.category() as usize, 0, 0);
        let mut ring = self.ring.borrow_mut();
        for (seq, &(at, event)) in (first..).zip(batch) {
            let c = event.category() as usize;
            if c != cat {
                self.stats.add(cat, same);
                (cat, same) = (c, 0);
            }
            same += 1;
            dropped += u64::from(ring.push(TraceRecord { seq, at, ctx, event }));
        }
        drop(ring);
        self.stats.add(cat, same);
        self.stats.add(STAT_TOTAL, batch.len() as u64);
        self.stats.add(STAT_DROPPED, dropped);
        self.seq.set(first + batch.len() as u64);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_slots(self.stats.load())
    }

    /// Events emitted so far (equals the next record's `seq`).
    pub fn len(&self) -> u64 {
        self.seq.get()
    }

    /// True when nothing was ever emitted.
    pub fn is_empty(&self) -> bool {
        self.seq.get() == 0
    }

    /// The ring's current records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.ring.borrow().ordered()
    }

    /// Sets the flight-recorder window (records per post-mortem).
    pub fn set_post_mortem_window(&self, n: usize) {
        self.pm_window.set(n.max(1));
    }

    /// Snapshots the plane's full mutable state for a checkpoint.
    pub fn export_state(&self) -> TraceState {
        TraceState {
            records: self.ring.borrow().ordered(),
            cap: self.ring.borrow().cap,
            seq: self.seq.get(),
            stats: self.stats(),
            names: self.names.borrow().clone(),
            post: self.post.borrow().clone(),
            pm_window: self.pm_window.get(),
            node: self.node.get(),
            cur_ctx: self.cur_ctx.get(),
            next_span: self.next_span.get(),
        }
    }

    /// Replants a [`TraceState`] capture: the ring, counters, interned
    /// names and flight recorder resume exactly where the capture left
    /// them, so later emits continue the same stream.
    pub fn restore_state(&self, st: &TraceState) {
        let mut buf = Vec::with_capacity(st.cap);
        buf.extend_from_slice(&st.records);
        *self.ring.borrow_mut() = Ring { buf, cap: st.cap, head: 0 };
        self.seq.set(st.seq);
        self.stats.store(&st.stats.to_slots());
        *self.names.borrow_mut() = st.names.clone();
        let mut tags = self.tags.borrow_mut();
        tags.clear();
        for (i, name) in st.names.iter().enumerate() {
            tags.insert(name.clone(), GraftTag(i as u16));
        }
        drop(tags);
        *self.post.borrow_mut() = st.post.clone();
        self.pm_window.set(st.pm_window);
        self.node.set(st.node);
        self.cur_ctx.set(st.cur_ctx);
        self.next_span.set(st.next_span);
    }

    /// Takes the flight-recorder snapshot for an abort: a copy of the
    /// last window's records plus the abort's vital signs. The grafting
    /// layer calls it from its single abort exit, so it runs on every
    /// survived abort and costs O(window), not O(ring): only the window
    /// is copied, and its lines are rendered when
    /// [`post_mortem`](Self::post_mortem) is read. The latest
    /// post-mortem replaces any earlier one.
    pub fn record_post_mortem(
        &self,
        graft: &str,
        kind: AbortKind,
        held_locks: usize,
        undo_depth: usize,
        cost: Cycles,
    ) {
        let tail = self.ring.borrow().tail(self.pm_window.get());
        *self.post.borrow_mut() = Some(PostMortem {
            graft: graft.to_string(),
            kind,
            held_locks,
            undo_depth,
            cost,
            at: self.clock.now(),
            tail,
            lines: Vec::new(),
        });
    }

    /// The most recent post-mortem, if any abort happened, with its
    /// lines rendered now. They match a render at abort time: a record
    /// renders from itself, the append-only name table and the node,
    /// and only [`restore_state`](Self::restore_state) rewrites the
    /// last two, replacing the stored post-mortem as it does.
    pub fn post_mortem(&self) -> Option<PostMortem> {
        let mut pm = self.post.borrow().clone()?;
        pm.lines = pm.tail.iter().map(|r| self.render(r)).collect();
        Some(pm)
    }

    /// Clears the stored post-mortem (tests isolating scenarios).
    pub fn clear_post_mortem(&self) {
        *self.post.borrow_mut() = None;
    }

    /// Renders one record in the canonical line format:
    /// `SEQ @CYCLES nNODE category.kind key=value…`, with
    /// ` span=N.C parent=N.C` appended when a causal context is
    /// attached (see `docs/TRACING.md`).
    pub fn render(&self, r: &TraceRecord) -> String {
        use TraceEvent::*;
        let body = match r.event {
            VmWindow { instrs, exit } => {
                let e = match exit {
                    VmExitKind::Halt => "halt",
                    VmExitKind::Preempt => "preempt",
                    VmExitKind::Trap => "trap",
                };
                format!("vm.window instrs={instrs} exit={e}")
            }
            SfiCheck { kind, pc } => {
                let k = match kind {
                    SfiKind::Clamp => "clamp",
                    SfiKind::CheckCall => "checkcall",
                };
                format!("vm.sfi kind={k} pc={pc}")
            }
            TxnBegin { thread, txn, depth } => {
                format!("txn.begin thread={thread} txn={txn} depth={depth}")
            }
            TxnCommit { thread, txn, nested, locks } => {
                format!("txn.commit thread={thread} txn={txn} nested={nested} locks={locks}")
            }
            TxnAbort { thread, txn, locks } => {
                format!("txn.abort thread={thread} txn={txn} locks={locks}")
            }
            LockAcquire { lock, thread } => format!("txn.lock lock={lock} thread={thread}"),
            LockBlocked { lock, waiter, holder } => {
                format!("txn.blocked lock={lock} waiter={waiter} holder={holder}")
            }
            LockTimeout { lock, holder } => {
                format!("txn.timeout lock={lock} holder={holder}")
            }
            LockSteal { thread, txn } => format!("txn.steal thread={thread} txn={txn}"),
            UndoPush { thread, depth } => format!("txn.undo-push thread={thread} depth={depth}"),
            UndoRun { thread, ops } => format!("txn.undo-run thread={thread} ops={ops}"),
            ResGrant { principal, kind, amount } => {
                format!("rm.grant principal={principal} kind={kind} amount={amount}")
            }
            ResRelease { principal, kind, amount } => {
                format!("rm.release principal={principal} kind={kind} amount={amount}")
            }
            ResLimitHit { principal, kind, requested } => {
                format!("rm.limit-hit principal={principal} kind={kind} requested={requested}")
            }
            FsRead { fd, len } => format!("fs.read fd={fd} len={len}"),
            FsWrite { fd, len } => format!("fs.write fd={fd} len={len}"),
            FsPrefetch { fd } => format!("fs.prefetch fd={fd}"),
            FsJournalAppend { seq, blocks } => {
                format!("fs.journal_append seq={seq} blocks={blocks}")
            }
            FsJournalCommit { seq } => format!("fs.journal_commit seq={seq}"),
            FsCheckpoint { seq, blocks } => format!("fs.checkpoint seq={seq} blocks={blocks}"),
            FsRecoveryReplay { seq, blocks } => {
                format!("fs.recovery_replay seq={seq} blocks={blocks}")
            }
            FsRecoveryDiscard { seq } => format!("fs.recovery_discard seq={seq}"),
            GraftInstall { graft } => format!("graft.install g={}", self.name_of(graft)),
            GraftInvoke { graft } => format!("graft.invoke g={}", self.name_of(graft)),
            GraftCommit { graft } => format!("graft.commit g={}", self.name_of(graft)),
            GraftAbort { graft, kind } => {
                format!("graft.abort g={} kind={}", self.name_of(graft), kind.label())
            }
            GraftQuarantine { graft, until } => {
                format!("graft.quarantine g={} until={until}", self.name_of(graft))
            }
            FallbackServed { graft } => format!("graft.fallback g={}", self.name_of(graft)),
            NetRx { port, len } => format!("net.rx port={port} len={len}"),
            NetShed { port, kind } => format!("net.shed port={port} kind={}", kind.label()),
            NetVerdict { port, verdict } => {
                format!("net.verdict port={port} v={}", verdict.label())
            }
            NetSteer { from, to } => format!("net.steer from={from} to={to}"),
            NetLoopCut { port } => format!("net.loop-cut port={port}"),
            NetBatch { port, n } => format!("net.batch port={port} n={n}"),
            WatchAlertFiring { rule, principal } => {
                format!("watch.firing rule={} principal={principal}", self.name_of(rule))
            }
            WatchAlertResolved { rule, principal } => {
                format!("watch.resolved rule={} principal={principal}", self.name_of(rule))
            }
            AdmissionAllow { principal } => format!("watch.admit principal={principal}"),
            AdmissionDeny { principal, until } => {
                format!("watch.deny principal={principal} until={until}")
            }
            ReplShip { seq, frags } => format!("repl.ship seq={seq} frags={frags}"),
            ReplAck { acked } => format!("repl.ack acked={acked}"),
            ReplApply { seq, blocks } => format!("repl.apply seq={seq} blocks={blocks}"),
            ReplFrameDrop { seq } => format!("repl.frame-drop seq={seq}"),
            ReplPromote { seq } => format!("repl.promote seq={seq}"),
        };
        let mut line = format!("{:06} @{:012} {} {}", r.seq, r.at.get(), self.node.get(), body);
        if !r.ctx.span.is_none() {
            line.push_str(&format!(" span={}", r.ctx.span));
        }
        if !r.ctx.parent.is_none() {
            line.push_str(&format!(" parent={}", r.ctx.parent));
        }
        line
    }

    /// Serializes the ring's current records (oldest first) to the
    /// canonical line format, one record per line, trailing newline.
    /// Identical seeds and call sequences yield byte-identical output.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&self.render(&r));
            out.push('\n');
        }
        out
    }

    /// Merges per-kernel trace rings into one causally-consistent
    /// stream. The total order is `(virtual-clock tick, node id,
    /// per-plane seq)` — deterministic, independent of the argument
    /// order, and (because every cross-kernel hop charges wire cycles
    /// before the receiving kernel emits) causally consistent: a span's
    /// opener sorts before every record that names it as a parent.
    /// That invariant is asserted over the retained window. A parent
    /// never seen is tolerated only when the node that minted it (the
    /// [`SpanId`] carries it) evicted records, since its opener may be
    /// among them; [`MergedTrace::cut`] counts those children.
    ///
    /// # Panics
    ///
    /// Panics if two planes share a node id, or if a record's parent
    /// is never seen and its minting node evicted nothing.
    pub fn merge_streams(planes: &[&TracePlane]) -> MergedTrace {
        for (i, a) in planes.iter().enumerate() {
            for b in &planes[i + 1..] {
                assert_ne!(
                    a.node(),
                    b.node(),
                    "merge_streams requires distinct node ids per plane"
                );
            }
        }
        let mut merged: Vec<MergedRecord> = Vec::new();
        for p in planes {
            let node = p.node();
            for rec in p.records() {
                merged.push(MergedRecord { node, rec, line: p.render(&rec) });
            }
        }
        merged.sort_by_key(|m| (m.rec.at, m.node, m.rec.seq));
        let evicted =
            |node: NodeId| planes.iter().any(|p| p.node() == node && p.stats().dropped > 0);
        // Every span seen so far: a record citing a `parent` must sort
        // after some record of that span (its opener, when retained).
        let mut seen: HashSet<u64> = HashSet::new();
        let mut cut = 0;
        for (i, m) in merged.iter().enumerate() {
            let ctx = m.rec.ctx;
            if !ctx.parent.is_none() && !seen.contains(&ctx.parent.0) {
                assert!(
                    evicted(ctx.parent.node()),
                    "causal parent {} of merged record {i} ({}) never opened",
                    ctx.parent,
                    m.line
                );
                cut += 1;
            }
            if !ctx.span.is_none() {
                seen.insert(ctx.span.0);
            }
        }
        MergedTrace { records: merged, cut }
    }
}

/// One record of a [`MergedTrace`]: the owning node, the raw record,
/// and its canonical line (rendered by the owning plane, so interned
/// graft names resolve against the right table).
#[derive(Debug, Clone)]
pub struct MergedRecord {
    /// The kernel that emitted this record.
    pub node: NodeId,
    /// The record itself.
    pub rec: TraceRecord,
    /// The canonical line, as the owning plane renders it.
    pub line: String,
}

/// A causally-consistent merge of per-kernel trace streams, produced by
/// [`TracePlane::merge_streams`]. Ordered by `(tick, node, seq)`.
#[derive(Debug, Clone)]
pub struct MergedTrace {
    records: Vec<MergedRecord>,
    cut: usize,
}

impl MergedTrace {
    /// The merged records in total order.
    pub fn records(&self) -> &[MergedRecord] {
        &self.records
    }

    /// Records whose causal parent is not in the merge because its
    /// minting node's ring evicted it. Zero when no ring wrapped.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// Serializes the merged stream, one canonical line per record with
    /// a trailing newline — the golden-pinnable cross-kernel artifact.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for m in &self.records {
            out.push_str(&m.line);
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for TracePlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracePlane")
            .field("len", &self.seq.get())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(cap: usize) -> Rc<TracePlane> {
        TracePlane::with_capacity(VirtualClock::new(), cap)
    }

    #[test]
    fn emits_are_sequenced_and_stamped() {
        let p = plane(8);
        p.clock().charge(Cycles(100));
        p.emit(TraceEvent::FsRead { fd: 3, len: 512 });
        p.clock().charge(Cycles(50));
        p.emit(TraceEvent::FsWrite { fd: 3, len: 64 });
        let recs = p.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[0].at, Cycles(100));
        assert_eq!(recs[1].seq, 1);
        assert_eq!(recs[1].at, Cycles(150));
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        // The flight-recorder satellite: wraparound at capacity.
        let p = plane(4);
        for i in 0..10 {
            p.emit(TraceEvent::FsPrefetch { fd: i });
        }
        let recs = p.records();
        assert_eq!(recs.len(), 4, "ring holds exactly its capacity");
        let fds: Vec<u64> = recs
            .iter()
            .map(|r| match r.event {
                TraceEvent::FsPrefetch { fd } => fd,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(fds, [6, 7, 8, 9], "oldest evicted first, order preserved");
        assert_eq!(recs[0].seq, 6, "sequence numbers survive eviction");
        let s = p.stats();
        assert_eq!(s.total, 10);
        assert_eq!(s.dropped, 6);
    }

    #[test]
    fn stamped_batch_matches_one_emit_per_stamp_across_a_wrap() {
        // Two records already in a five-slot ring, then a seven-record
        // batch: the ring wraps mid-batch.
        let batch: Vec<(Cycles, TraceEvent)> = (0..7u64)
            .map(|i| {
                let kind = if i % 3 == 0 { SfiKind::CheckCall } else { SfiKind::Clamp };
                (Cycles(40 + 3 * i), TraceEvent::SfiCheck { kind, pc: i })
            })
            .collect();
        let (one, batched) = (plane(5), plane(5));
        for p in [&one, &batched] {
            p.emit(TraceEvent::FsRead { fd: 1, len: 8 });
            p.emit(TraceEvent::FsWrite { fd: 1, len: 8 });
            p.set_ctx(p.mint_span(SpanId::NONE));
        }
        for &(at, ev) in &batch {
            one.clock().advance_to(at);
            one.emit(ev);
        }
        batched.emit_stamped(&batch);
        assert_eq!(batched.records(), one.records());
        assert_eq!(batched.stats(), one.stats());
        assert_eq!((batched.stats().dropped, batched.len()), (4, 9));
        assert_eq!(batched.serialize(), one.serialize());
    }

    #[test]
    fn stats_count_per_category() {
        let p = plane(16);
        p.emit(TraceEvent::VmWindow { instrs: 5, exit: VmExitKind::Halt });
        p.emit(TraceEvent::LockAcquire { lock: 0, thread: 1 });
        p.emit(TraceEvent::UndoPush { thread: 1, depth: 1 });
        p.emit(TraceEvent::ResGrant { principal: 2, kind: 2, amount: 64 });
        p.emit(TraceEvent::FsRead { fd: 3, len: 10 });
        let g = p.tag("g");
        p.emit(TraceEvent::GraftCommit { graft: g });
        let s = p.stats();
        assert_eq!((s.vm, s.txn, s.rm, s.fs, s.graft), (1, 2, 1, 1, 1));
        assert_eq!(s.total, 6);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn net_events_render_and_count() {
        let p = plane(16);
        p.emit(TraceEvent::NetRx { port: 80, len: 512 });
        p.emit(TraceEvent::NetShed { port: 80, kind: ShedKind::Overflow });
        p.emit(TraceEvent::NetShed { port: 80, kind: ShedKind::Watermark });
        p.emit(TraceEvent::NetVerdict { port: 80, verdict: VerdictKind::Steer });
        p.emit(TraceEvent::NetSteer { from: 80, to: 81 });
        p.emit(TraceEvent::NetLoopCut { port: 81 });
        p.emit(TraceEvent::NetBatch { port: 80, n: 32 });
        let s = p.stats();
        assert_eq!(s.net, 7);
        assert_eq!(s.total, 7);
        let lines = p.serialize();
        assert!(lines.contains("net.rx port=80 len=512"));
        assert!(lines.contains("net.shed port=80 kind=overflow"));
        assert!(lines.contains("net.shed port=80 kind=watermark"));
        assert!(lines.contains("net.verdict port=80 v=steer"));
        assert!(lines.contains("net.steer from=80 to=81"));
        assert!(lines.contains("net.loop-cut port=81"));
        assert!(lines.contains("net.batch port=80 n=32"));
    }

    #[test]
    fn tags_are_stable_and_resolved() {
        let p = plane(8);
        let a = p.tag("alpha");
        let b = p.tag("beta");
        assert_ne!(a, b);
        assert_eq!(p.tag("alpha"), a, "re-intern returns the same tag");
        assert_eq!(p.name_of(a), "alpha");
        assert_eq!(p.name_of(GraftTag(99)), "?tag99");
    }

    #[test]
    fn serialization_is_canonical_and_deterministic() {
        let build = || {
            let p = plane(8);
            let g = p.tag("div0");
            p.clock().charge(Cycles(4242));
            p.emit(TraceEvent::GraftInvoke { graft: g });
            p.emit(TraceEvent::GraftAbort { graft: g, kind: AbortKind::Trap });
            p.serialize()
        };
        let a = build();
        assert_eq!(a, build(), "same call sequence, byte-identical trace");
        assert_eq!(
            a,
            "000000 @000000004242 n0 graft.invoke g=div0\n\
             000001 @000000004242 n0 graft.abort g=div0 kind=trap\n"
        );
    }

    #[test]
    fn span_ids_encode_node_and_counter() {
        let id = SpanId::new(NodeId(3), 41);
        assert_eq!(id.node(), NodeId(3));
        assert_eq!(id.counter(), 41);
        assert_eq!(id.to_string(), "3.41");
        assert_eq!(SpanId::NONE.to_string(), "-");
        assert!(SpanId::NONE.is_none());
    }

    #[test]
    fn cause_ctx_roundtrips_on_the_wire() {
        let ctx = CauseCtx { span: SpanId::new(NodeId(1), 7), parent: SpanId::new(NodeId(0), 3) };
        assert_eq!(CauseCtx::from_bytes(&ctx.to_bytes()), ctx);
        assert_eq!(CauseCtx::from_bytes(&CauseCtx::NONE.to_bytes()), CauseCtx::NONE);
        assert_eq!(ctx.node(), NodeId(1));
    }

    #[test]
    fn minted_spans_are_monotonic_and_scoped_emits_carry_them() {
        let p = plane(16);
        let a = p.mint_span(SpanId::NONE);
        let b = p.mint_span(a.span);
        assert_eq!(a.span.counter(), 1);
        assert_eq!(b.span.counter(), 2);
        assert_eq!(b.parent, a.span);
        let prev = p.set_ctx(a);
        assert!(prev.is_none());
        p.emit(TraceEvent::FsRead { fd: 1, len: 8 });
        p.set_ctx(prev);
        p.emit(TraceEvent::FsRead { fd: 1, len: 8 });
        let recs = p.records();
        assert_eq!(recs[0].ctx, a, "plain emits stamp the context in force");
        assert_eq!(recs[1].ctx, CauseCtx::NONE, "restored context clears the stamp");
        let lines = p.serialize();
        assert!(lines.contains("n0 fs.read fd=1 len=8 span=0.1\n"), "lines: {lines}");
    }

    #[test]
    fn state_roundtrip_preserves_causal_counters() {
        let p = plane(8);
        let ctx = p.mint_span(SpanId::NONE);
        p.set_ctx(ctx);
        p.emit(TraceEvent::FsRead { fd: 1, len: 1 });
        for _ in 0..9 {
            p.emit(TraceEvent::NetRx { port: 1, len: 1 });
        }
        let st = p.export_state();
        let q = plane(8);
        q.restore_state(&st);
        assert_eq!(q.stats(), p.stats(), "every stat slot round-trips");
        assert_eq!((q.stats().fs, q.stats().net, q.stats().dropped), (1, 9, 2));
        assert_eq!(q.ctx(), ctx);
        assert_eq!(q.node(), p.node());
        assert_eq!(q.mint_span(SpanId::NONE).span, SpanId::new(NodeId(0), 2));
        assert_eq!(q.serialize(), p.serialize());
    }

    #[test]
    fn merge_is_total_ordered_and_argument_order_independent() {
        let build = || {
            let clock = VirtualClock::new();
            let p0 = TracePlane::with_node(Rc::clone(&clock), 16, NodeId(0));
            let p1 = TracePlane::with_node(Rc::clone(&clock), 16, NodeId(1));
            let root = p0.mint_span(SpanId::NONE);
            p0.emit_with_ctx(TraceEvent::FsJournalCommit { seq: 1 }, root);
            clock.charge(Cycles(60));
            let child = p1.mint_span(root.span);
            p1.emit_with_ctx(TraceEvent::ReplApply { seq: 1, blocks: 2 }, child);
            clock.charge(Cycles(60));
            p0.emit_with_ctx(TraceEvent::ReplAck { acked: 1 }, p0.mint_span(child.span));
            (p0, p1)
        };
        let (p0, p1) = build();
        let ab = TracePlane::merge_streams(&[&p0, &p1]).serialize();
        let ba = TracePlane::merge_streams(&[&p1, &p0]).serialize();
        assert_eq!(ab, ba, "merge is stable under argument order");
        assert_eq!(
            ab,
            "000000 @000000000000 n0 fs.journal_commit seq=1 span=0.1\n\
             000000 @000000000060 n1 repl.apply seq=1 blocks=2 span=1.1 parent=0.1\n\
             000001 @000000000120 n0 repl.ack acked=1 span=0.2 parent=1.1\n"
        );
    }

    #[test]
    #[should_panic(expected = "distinct node ids")]
    fn merge_rejects_duplicate_node_ids() {
        let clock = VirtualClock::new();
        let p0 = TracePlane::with_node(Rc::clone(&clock), 8, NodeId(0));
        let p1 = TracePlane::with_node(clock, 8, NodeId(0));
        let _ = TracePlane::merge_streams(&[&p0, &p1]);
    }

    #[test]
    #[should_panic(expected = "never opened")]
    fn merge_catches_orphan_parents_on_unwrapped_rings() {
        let clock = VirtualClock::new();
        let p0 = TracePlane::with_node(Rc::clone(&clock), 8, NodeId(0));
        let p1 = TracePlane::with_node(clock, 8, NodeId(1));
        // A child citing a parent span no merged record ever carried.
        let orphan =
            CauseCtx { span: SpanId::new(NodeId(1), 1), parent: SpanId::new(NodeId(0), 9) };
        p1.emit_with_ctx(TraceEvent::ReplApply { seq: 1, blocks: 1 }, orphan);
        let _ = TracePlane::merge_streams(&[&p0, &p1]);
    }

    /// Node 0 opens a span, node 1 emits its child, then node 0 emits
    /// `filler` more records into an 8-record ring.
    fn parent_then_child(filler: u64) -> (Rc<TracePlane>, Rc<TracePlane>) {
        let clock = VirtualClock::new();
        let p0 = TracePlane::with_node(Rc::clone(&clock), 8, NodeId(0));
        let p1 = TracePlane::with_node(Rc::clone(&clock), 8, NodeId(1));
        let root = p0.mint_span(SpanId::NONE);
        p0.emit_with_ctx(TraceEvent::FsJournalCommit { seq: 1 }, root);
        clock.charge(Cycles(60));
        p1.emit_with_ctx(TraceEvent::ReplApply { seq: 1, blocks: 1 }, p1.mint_span(root.span));
        for seq in 0..filler {
            p0.emit(TraceEvent::FsJournalCommit { seq });
        }
        (p0, p1)
    }

    #[test]
    fn merge_cuts_only_parents_their_minting_node_evicted() {
        let (p0, p1) = parent_then_child(0);
        assert_eq!(TracePlane::merge_streams(&[&p0, &p1]).cut(), 0);
        // Node 0 evicts the opener: the child stays, counted as cut.
        let (p0, p1) = parent_then_child(8);
        let merged = TracePlane::merge_streams(&[&p0, &p1]);
        assert_eq!(merged.cut(), 1);
        assert_eq!(merged.records().len(), 9);
    }

    #[test]
    #[should_panic(expected = "never opened")]
    fn merge_catches_orphan_parents_when_only_another_ring_wrapped() {
        let (p0, p1) = parent_then_child(0);
        // Node 1 wraps, but the orphan's parent was minted by node 0,
        // which evicted nothing.
        for seq in 0..8 {
            p1.emit(TraceEvent::ReplApply { seq, blocks: 1 });
        }
        let orphan =
            CauseCtx { span: SpanId::new(NodeId(1), 2), parent: SpanId::new(NodeId(0), 9) };
        p1.emit_with_ctx(TraceEvent::ReplApply { seq: 9, blocks: 1 }, orphan);
        let _ = TracePlane::merge_streams(&[&p0, &p1]);
    }

    #[test]
    fn post_mortem_snapshots_tail_and_vitals() {
        let p = plane(64);
        p.set_post_mortem_window(3);
        let g = p.tag("hog");
        for i in 0..5 {
            p.emit(TraceEvent::UndoPush { thread: 7, depth: i + 1 });
        }
        p.emit(TraceEvent::GraftAbort { graft: g, kind: AbortKind::CpuHog });
        p.record_post_mortem("hog", AbortKind::CpuHog, 2, 5, Cycles(999));
        let pm = p.post_mortem().expect("post-mortem stored");
        assert_eq!(pm.graft, "hog");
        assert_eq!(pm.kind, AbortKind::CpuHog);
        assert_eq!(pm.held_locks, 2);
        assert_eq!(pm.undo_depth, 5);
        assert_eq!(pm.cost, Cycles(999));
        assert_eq!(pm.tail.len(), 3, "window bounds the snapshot");
        assert_eq!(pm.lines.len(), 3);
        assert!(pm.lines[2].contains("graft.abort g=hog kind=cpu-hog"));
        let text = pm.to_string();
        assert!(text.contains("== post-mortem: graft `hog` =="));
        assert!(text.contains("abort-kind:  cpu-hog"));
        assert!(text.contains("held-locks:  2"));
        assert!(text.contains("undo-depth:  5"));
    }

    #[test]
    fn no_post_mortem_before_any_abort() {
        let p = plane(8);
        p.emit(TraceEvent::FsRead { fd: 1, len: 1 });
        assert!(p.post_mortem().is_none());
        p.record_post_mortem("x", AbortKind::Trap, 0, 0, Cycles::ZERO);
        assert!(p.post_mortem().is_some());
        p.clear_post_mortem();
        assert!(p.post_mortem().is_none());
    }

    #[test]
    fn ring_tail_is_the_end_of_ordered() {
        const CAP: usize = 8;
        // Pushes 0..=2·CAP records: every unwrapped length, then every
        // `head` position of the wrapped ring.
        for pushed in 0..=2 * CAP {
            let mut ring = Ring { buf: Vec::with_capacity(CAP), cap: CAP, head: 0 };
            for seq in 0..pushed as u64 {
                let event = TraceEvent::FsRead { fd: 1, len: 1 };
                ring.push(TraceRecord { seq, at: Cycles(seq), ctx: CauseCtx::NONE, event });
            }
            let all = ring.ordered();
            let len = all.len();
            for n in [0, 1, len.saturating_sub(1), len, len + 1, CAP + 3] {
                let want = &all[len - n.min(len)..];
                assert_eq!(ring.tail(n), want, "pushed={pushed} head={} n={n}", ring.head);
            }
        }
    }

    #[test]
    fn post_mortem_lines_render_on_read_as_at_abort() {
        let p = plane(16);
        p.set_post_mortem_window(4);
        let g = p.tag("victim");
        for i in 0..10 {
            p.emit(TraceEvent::UndoPush { thread: 1, depth: i });
        }
        p.emit(TraceEvent::GraftAbort { graft: g, kind: AbortKind::Trap });
        p.record_post_mortem("victim", AbortKind::Trap, 1, 10, Cycles(77));
        let recs = p.records();
        let eager: Vec<String> = recs[recs.len() - 4..].iter().map(|r| p.render(r)).collect();
        // Wrap the ring past the window and intern more names before
        // the read.
        for i in 0..40u32 {
            let late = p.tag(&format!("late{}", i % 3));
            p.emit(TraceEvent::GraftInvoke { graft: late });
        }
        let pm = p.post_mortem().expect("post-mortem stored");
        assert_eq!(pm.lines, eager);
        assert_eq!(pm.lines, pm.tail.iter().map(|r| p.render(r)).collect::<Vec<_>>());
        // A checkpoint restored onto a plane of another node renders the
        // same lines: the capture carries its own node and names.
        let q = TracePlane::with_node(VirtualClock::new(), 16, NodeId(1));
        q.restore_state(&p.export_state());
        assert_eq!(q.post_mortem(), Some(pm));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = plane(0);
    }
}
