//! The deterministic metrics plane: live aggregation over the same
//! instrumentation points the trace plane records.
//!
//! Where [`crate::trace`] answers *what happened* (an ordered event
//! stream), this module answers *how much, how fast, and where the
//! cycles went*: fixed-slot counters, log2-bucketed cycle histograms
//! over the virtual clock, and the headline feature — a **per-graft,
//! per-invocation overhead-attribution ledger** that decomposes every
//! invocation's cycle charge into the paper's named components
//! (indirection, transaction begin/commit, lock, SFI, graft function,
//! result check, undo, abort; §4, Tables 3–7) so the Table 3 breakdown
//! can be read off a *running* kernel instead of a benchmark harness.
//!
//! Design discipline matches the trace plane:
//!
//! - **Zero allocations on the hot path.** Counters are fixed slots,
//!   one `Cell` each, bumped in place; histograms
//!   are fixed bucket arrays; the invocation stack is a fixed-depth
//!   array. Only graft-name interning
//!   ([`MetricsPlane::tag`], install time) and rendering allocate —
//!   proven by `cargo test --test zero_alloc`.
//! - **Deterministic.** Everything is driven by the virtual clock and
//!   integer arithmetic, so two same-seed runs produce byte-identical
//!   snapshots (`tests/metrics_golden.rs`, `tests/survival.rs`).
//! - **Attach-once.** `Kernel::attach_metrics_plane` fills the metrics
//!   slot of the kernel's shared [`crate::obs::Obs`] handle, which every
//!   subsystem holds; a second attach is refused.
//! - **Derived counters.** Counters with a trace event are bumped only
//!   by [`MetricsPlane::observe`], from the event itself.
//!
//! Recording a metric never charges the clock: attaching a metrics
//! plane is observation, not perturbation — timings and goldens are
//! identical with and without it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};
use crate::plane::{Brackets, CellCounters};
use crate::trace::{ShedKind, TraceEvent, VerdictKind};

/// Interned graft-name handle, the metrics twin of
/// [`crate::trace::GraftTag`]. Interning happens at install time (the
/// only allocating operation); every hot-path call passes the `Copy`
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricTag(pub u16);

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

named_enum! {
    /// Fixed-slot event counters, one per instrumented site.
    ///
    /// A counter with a trace event is derived from it in one place,
    /// [`MetricsPlane::observe`] (called by [`crate::obs::Planes::emit`]), so
    /// counters and trace agree by construction. Two groups have no
    /// derived twin:
    ///
    /// - **Bulk-billed by the VM** once per run:
    ///   [`Counter::VmWindows`], [`Counter::SfiClamps`] and
    ///   [`Counter::SfiCallchecks`] (their `vm.window` / `vm.sfi` events
    ///   map to no counter, keeping a bump off every SFI check).
    /// - **Measurement-only**, with no event at all:
    ///   [`Counter::VmInstrs`], [`Counter::MutexAcquires`], the `Nic*` and
    ///   `Disk*` device counters and [`Counter::ReplRetransmits`].
    pub enum Counter, fn name {
        /// Interpreter windows run (billed per window beside `vm.window`).
        VmWindows => "vino_vm_windows_total",
        /// Instructions retired (measurement-only; no trace twin).
        VmInstrs => "vino_vm_instructions_total",
        /// MiSFIT `Clamp` sandbox ops (billed per run beside `vm.sfi kind=clamp`).
        SfiClamps => "vino_vm_sfi_clamps_total",
        /// MiSFIT `CheckCall` probes (billed per run beside
        /// `vm.sfi kind=checkcall`).
        SfiCallchecks => "vino_vm_sfi_callchecks_total",
        /// Transactions begun (from `txn.begin`).
        TxnBegins => "vino_txn_begins_total",
        /// Top-level commits (from `txn.commit nested=false`).
        TxnCommits => "vino_txn_commits_total",
        /// Nested commits (from `txn.commit nested=true`).
        TxnNestedCommits => "vino_txn_nested_commits_total",
        /// Aborts (from `txn.abort`).
        TxnAborts => "vino_txn_aborts_total",
        /// Transaction locks granted (from `txn.lock`).
        TxnLockAcquires => "vino_txn_lock_acquires_total",
        /// Plain mutex acquires outside a transaction (measurement-only).
        MutexAcquires => "vino_txn_mutex_acquires_total",
        /// Contended acquires that blocked (from `txn.blocked`).
        LockWaits => "vino_txn_lock_waits_total",
        /// Fired time-outs that aborted a holder (from `txn.timeout`).
        LockTimeouts => "vino_txn_lock_timeouts_total",
        /// Stolen transactions observed by their wrapper (from `txn.steal`).
        LockSteals => "vino_txn_lock_steals_total",
        /// Undo records logged (from `txn.undo-push`).
        UndoPushes => "vino_txn_undo_pushes_total",
        /// Undo stacks executed on abort (from `txn.undo-run`).
        UndoRuns => "vino_txn_undo_runs_total",
        /// Resource charges granted (from `rm.grant`).
        RmGrants => "vino_rm_grants_total",
        /// Resource charges denied (from `rm.limit-hit`).
        RmDenials => "vino_rm_denials_total",
        /// Resource releases (from `rm.release`).
        RmReleases => "vino_rm_releases_total",
        /// File reads (from `fs.read`).
        FsReads => "vino_fs_reads_total",
        /// File writes (from `fs.write`).
        FsWrites => "vino_fs_writes_total",
        /// Prefetches issued (from `fs.prefetch`).
        FsPrefetches => "vino_fs_prefetches_total",
        /// Journal transactions appended (from `fs.journal_append`).
        FsJournalAppends => "vino_fs_journal_appends_total",
        /// Journal commit markers made durable (from `fs.journal_commit`).
        FsJournalCommits => "vino_fs_journal_commits_total",
        /// Committed transactions checkpointed home (from `fs.checkpoint`).
        FsCheckpoints => "vino_fs_checkpoints_total",
        /// Committed transactions rolled forward at mount (from
        /// `fs.recovery_replay`).
        FsRecoveryReplays => "vino_fs_recovery_replays_total",
        /// Torn journal tails discarded at mount (from
        /// `fs.recovery_discard`).
        FsRecoveryDiscards => "vino_fs_recovery_discards_total",
        /// Graft installs (from `graft.install`).
        GraftInstalls => "vino_graft_installs_total",
        /// Graft invocations begun (from `graft.invoke`).
        GraftInvocations => "vino_graft_invocations_total",
        /// Invocations that committed (from `graft.commit`).
        GraftCommits => "vino_graft_commits_total",
        /// Invocations that aborted (from `graft.abort`).
        GraftAborts => "vino_graft_aborts_total",
        /// Dead-graft invocations refused to the default path (from
        /// `graft.fallback`).
        GraftFallbacks => "vino_graft_fallbacks_total",
        /// Quarantine trips (from `graft.quarantine`).
        GraftQuarantines => "vino_graft_quarantines_total",
        /// Installs waved through by the admission controller (from
        /// `watch.admit`; only counted while a watch plane is attached).
        AdmissionAllows => "vino_admission_allows_total",
        /// Installs refused by the admission controller (from
        /// `watch.deny`; only counted while a watch plane is attached).
        AdmissionDenies => "vino_admission_denies_total",
        /// Packets admitted to an RX ring (from `net.rx`).
        NetRxPackets => "vino_net_rx_packets_total",
        /// Admissions refused at capacity (from `net.shed kind=overflow`).
        NetRxOverflows => "vino_net_rx_overflows_total",
        /// Admissions shed above the high watermark (from
        /// `net.shed kind=watermark`).
        NetRxSheds => "vino_net_rx_sheds_total",
        /// Accept verdicts (from `net.verdict v=accept`).
        NetAccepts => "vino_net_filter_accepts_total",
        /// Drop verdicts (from `net.verdict v=drop`).
        NetDrops => "vino_net_filter_drops_total",
        /// Steer verdicts (from `net.verdict v=steer`).
        NetSteers => "vino_net_filter_steers_total",
        /// Steer hops performed (from `net.steer`).
        NetSteerHops => "vino_net_steer_hops_total",
        /// Packets dropped by the steer-hop budget (from `net.loop-cut`).
        NetLoopCuts => "vino_net_loop_cuts_total",
        /// Batched filter dispatches (from `net.batch`).
        NetBatchDispatches => "vino_net_batches_total",
        /// NIC events delivered to a poller (measurement-only; no trace twin).
        NicDelivered => "vino_nic_events_delivered_total",
        /// NIC events dropped at the device queue (measurement-only).
        NicDropped => "vino_nic_events_dropped_total",
        /// Disk blocks read (measurement-only; mirrors `DiskStats::reads`).
        DiskReads => "vino_disk_reads_total",
        /// Disk blocks written (measurement-only; mirrors
        /// `DiskStats::writes`).
        DiskWrites => "vino_disk_writes_total",
        /// Disk head seeks (measurement-only; mirrors `DiskStats::seeks`).
        DiskSeeks => "vino_disk_seeks_total",
        /// Injected disk stalls (measurement-only; mirrors
        /// `DiskStats::stalls`).
        DiskStalls => "vino_disk_stalls_total",
        /// Injected transient media errors (measurement-only; mirrors
        /// `DiskStats::io_errors`).
        DiskIoErrors => "vino_disk_io_errors_total",
        /// Injected torn writes that persisted only a block prefix
        /// (measurement-only; mirrors `DiskStats::torn_writes`).
        DiskTornWrites => "vino_disk_torn_writes_total",
        /// Committed journal records the primary shipped to the replica
        /// (`vino-repl`).
        ReplShips => "vino_repl_ships_total",
        /// Cumulative acks the primary consumed (`vino-repl`).
        ReplAcks => "vino_repl_acks_total",
        /// Shipped records the replica applied through its own journal
        /// (`vino-repl`).
        ReplApplies => "vino_repl_applies_total",
        /// Frames lost, reordered out of reach, or failing their seal
        /// check (`vino-repl`).
        ReplFrameDrops => "vino_repl_frame_drops_total",
        /// Records the shipping window retransmitted (`vino-repl`).
        ReplRetransmits => "vino_repl_retransmits_total",
        /// Replica promotions to primary after primary death (`vino-repl`).
        ReplPromotions => "vino_repl_promotions_total",
    }
}

// ---------------------------------------------------------------------------
// Overhead-attribution components.
// ---------------------------------------------------------------------------

named_enum! {
    /// The paper's named overhead components (Table 3's rows), the axes of
    /// the per-graft attribution ledger.
    ///
    /// Each subsystem attributes its own `vino_sim::costs` charges exactly
    /// once: the VM attributes per-instruction charges ([`Component::Sfi`]
    /// for sandbox ops, [`Component::GraftFn`] for everything else), the
    /// transaction manager attributes the envelope (begin/commit, locks,
    /// undo, abort), and the dispatch site attributes
    /// [`Component::Indirection`]. Host-call costs inside a VM window (e.g.
    /// a transaction lock acquired through `$lock`) are attributed by the
    /// manager that charged them, never double-counted by the VM.
    pub enum Component, fn label {
        /// Graft-point dispatch (the 1 µs "indirection cost" row).
        Indirection => "indirection",
        /// `TXN_BEGIN`.
        TxnBegin => "txn-begin",
        /// `TXN_COMMIT` / `TXN_NESTED_COMMIT`.
        TxnCommit => "txn-commit",
        /// Transaction lock acquires and mutex pairs.
        Lock => "lock",
        /// MiSFIT sandbox ops (`Clamp` / `CheckCall`).
        Sfi => "sfi",
        /// The graft's own instructions (including host-call linkage).
        GraftFn => "graft-fn",
        /// Result validation (`RESULT_CHECK`); zero for hooks whose result
        /// needs no semantic check (e.g. read-ahead, where a bad extent is
        /// simply clipped).
        ResultCheck => "result-check",
        /// Undo logging and undo execution.
        Undo => "undo",
        /// Abort overhead and per-lock abort release.
        Abort => "abort",
    }
}

/// One graft's aggregated attribution ledger, snapshotted by
/// [`MetricsPlane::attribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Total attributed cycles per component, across all invocations.
    pub cycles: [u64; Component::COUNT],
    /// Invocations aggregated into the ledger.
    pub invocations: u64,
}

impl Attribution {
    /// Cycles attributed to `c`.
    pub fn of(&self, c: Component) -> Cycles {
        Cycles(self.cycles[c as usize])
    }

    /// Sum over all components.
    pub fn total(&self) -> Cycles {
        Cycles(self.cycles.iter().sum())
    }

    /// Mean per-invocation attribution of `c`, in microseconds.
    pub fn per_invocation_us(&self, c: Component) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.of(c).as_us() / self.invocations as f64
    }

    /// Mean per-invocation total, in microseconds — the runtime
    /// equivalent of a Table 3 path figure.
    pub fn total_per_invocation_us(&self) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.total().as_us() / self.invocations as f64
    }
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// A log2-bucketed cycle histogram: bucket `i` holds samples `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 holds exactly `v == 0`), giving
/// deterministic quantiles with a fixed 64-slot footprint and no
/// allocation per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl CycleHistogram {
    /// An empty histogram.
    pub const fn new() -> CycleHistogram {
        CycleHistogram { buckets: [0; 64], count: 0 }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(63)
        }
    }

    /// Upper bound (inclusive) of bucket `i` — the value quantiles
    /// report.
    fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: Cycles) {
        self.buckets[CycleHistogram::bucket_of(v.get())] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `num/den` quantile as the upper bound of the bucket the
    /// quantile falls in (e.g. `quantile(99, 100)` = p99). `None` when
    /// empty.
    pub fn quantile(&self, num: u64, den: u64) -> Option<Cycles> {
        if self.count == 0 {
            return None;
        }
        // Rank of the quantile sample, 1-based, ceiling.
        let rank = (self.count * num).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Cycles(CycleHistogram::upper_bound(i)));
            }
        }
        Some(Cycles(u64::MAX))
    }
}

impl Default for CycleHistogram {
    fn default() -> CycleHistogram {
        CycleHistogram::new()
    }
}

// ---------------------------------------------------------------------------
// Per-graft slots and invocation frames.
// ---------------------------------------------------------------------------

/// Per-graft aggregates, one fixed-size slot per interned tag.
#[derive(Debug, Clone, Copy)]
struct GraftSlot {
    invocations: u64,
    commits: u64,
    aborts: u64,
    fallbacks: u64,
    /// Deadline of the most recent quarantine trip, if any.
    quarantined_until: Option<Cycles>,
    /// Attributed cycles per component.
    comps: [u64; Component::COUNT],
    /// End-to-end invocation latency (begin bracket to end bracket).
    latency: CycleHistogram,
}

impl GraftSlot {
    fn new() -> GraftSlot {
        GraftSlot {
            invocations: 0,
            commits: 0,
            aborts: 0,
            fallbacks: 0,
            quarantined_until: None,
            comps: [0; Component::COUNT],
            latency: CycleHistogram::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// The plane.
// ---------------------------------------------------------------------------

/// An opaque snapshot of a [`MetricsPlane`]'s full mutable state:
/// counters, gauges, the per-graft ledgers and the interned name table.
/// Captured by [`MetricsPlane::export_state`], replanted by
/// [`MetricsPlane::restore_state`] so a resumed replay accumulates into
/// the same ledgers and snapshots byte-identically.
#[derive(Clone)]
pub struct MetricsState {
    counters: [u64; Counter::COUNT],
    rm_peaks: [u64; 8],
    undo_depth_peak: u64,
    brackets: (u64, [u64; Component::COUNT]),
    grafts: Vec<GraftSlot>,
    names: Vec<String>,
    all_latency: CycleHistogram,
    nic_port_drops: Vec<(u16, u64)>,
}

/// The shared metrics plane handle (see module docs).
///
/// Create once, wrap in `Rc`, attach with `Kernel::attach_metrics_plane`
/// (or [`crate::obs::Planes::attach_metrics`] on a standalone subsystem's
/// handle).
#[derive(Debug)]
pub struct MetricsPlane {
    clock: Rc<VirtualClock>,
    counters: CellCounters<{ Counter::COUNT }>,
    /// Per-resource-kind high-water marks, indexed by
    /// `ResourceKind::index()`.
    rm_peaks: Cell<[u64; 8]>,
    /// Deepest undo stack observed.
    undo_depth_peak: Cell<u64>,
    brackets: Brackets<MetricTag>,
    grafts: RefCell<Vec<GraftSlot>>,
    names: RefCell<Vec<String>>,
    tags: RefCell<HashMap<String, MetricTag>>,
    all_latency: RefCell<CycleHistogram>,
    /// Per-port NIC drop counts, sorted by port. Grows only on the
    /// first drop seen for a port.
    nic_port_drops: RefCell<Vec<(u16, u64)>>,
}

impl MetricsPlane {
    /// Creates a plane stamped by `clock`, pre-reserving room for a few
    /// grafts.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<MetricsPlane> {
        MetricsPlane::with_graft_capacity(clock, 32)
    }

    /// Creates a plane with room for `grafts` interned names before the
    /// slot table reallocates (interning happens at install time, so
    /// this only matters for allocation-count proofs).
    pub fn with_graft_capacity(clock: Rc<VirtualClock>, grafts: usize) -> Rc<MetricsPlane> {
        Rc::new(MetricsPlane {
            clock,
            counters: CellCounters::new(),
            rm_peaks: Cell::new([0; 8]),
            undo_depth_peak: Cell::new(0),
            brackets: Brackets::new(MetricTag(u16::MAX)),
            grafts: RefCell::new(Vec::with_capacity(grafts)),
            names: RefCell::new(Vec::with_capacity(grafts)),
            tags: RefCell::new(HashMap::with_capacity(grafts)),
            all_latency: RefCell::new(CycleHistogram::new()),
            nic_port_drops: RefCell::new(Vec::new()),
        })
    }

    // -- checkpointing ------------------------------------------------------

    /// Snapshots the plane's full mutable state for a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if an invocation bracket is open — checkpoints are taken
    /// at quiesced instants only.
    pub fn export_state(&self) -> MetricsState {
        MetricsState {
            counters: self.counters.load(),
            rm_peaks: self.rm_peaks.get(),
            undo_depth_peak: self.undo_depth_peak.get(),
            brackets: self.brackets.export(),
            grafts: self.grafts.borrow().clone(),
            names: self.names.borrow().clone(),
            all_latency: *self.all_latency.borrow(),
            nic_port_drops: self.nic_port_drops.borrow().clone(),
        }
    }

    /// Replants a [`MetricsState`] capture: counters, gauges and ledgers
    /// resume exactly where the capture left them.
    pub fn restore_state(&self, st: &MetricsState) {
        self.counters.store(&st.counters);
        self.rm_peaks.set(st.rm_peaks);
        self.undo_depth_peak.set(st.undo_depth_peak);
        self.brackets.restore(st.brackets);
        *self.grafts.borrow_mut() = st.grafts.clone();
        *self.names.borrow_mut() = st.names.clone();
        let mut tags = self.tags.borrow_mut();
        tags.clear();
        for (i, name) in st.names.iter().enumerate() {
            tags.insert(name.clone(), MetricTag(i as u16));
        }
        drop(tags);
        *self.all_latency.borrow_mut() = st.all_latency;
        *self.nic_port_drops.borrow_mut() = st.nic_port_drops.clone();
    }

    // -- interning ----------------------------------------------------------

    /// Interns `name`, allocating a per-graft slot on first sight. The
    /// only allocating operation besides rendering; called at install
    /// time.
    pub fn tag(&self, name: &str) -> MetricTag {
        if let Some(t) = self.tags.borrow().get(name) {
            return *t;
        }
        let mut names = self.names.borrow_mut();
        let t = MetricTag(names.len() as u16);
        names.push(name.to_string());
        self.grafts.borrow_mut().push(GraftSlot::new());
        self.tags.borrow_mut().insert(name.to_string(), t);
        t
    }

    /// The interned name for `tag` (`?tagN` for unknown tags).
    pub fn name_of(&self, tag: MetricTag) -> String {
        self.names.borrow().get(tag.0 as usize).cloned().unwrap_or_else(|| format!("?tag{}", tag.0))
    }

    // -- counters -----------------------------------------------------------

    /// Adds `n` to counter `c`. Zero-allocation.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters.add(c as usize, n);
    }

    /// Increments counter `c`. Zero-allocation.
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters.get(c as usize)
    }

    /// Derives the counter twin of one trace event: the single place a
    /// counter with an event is bumped ([`crate::obs::Planes::emit`] calls
    /// it for every event, traced or not). The match is exhaustive on
    /// purpose — a new event must say which counter it moves, or that
    /// it moves none. Zero-allocation.
    #[inline]
    pub fn observe(&self, ev: &TraceEvent) {
        use TraceEvent as E;
        let c = match *ev {
            // The VM bills `VmWindows`, `SfiClamps` and `SfiCallchecks`
            // once per run; deriving them here would put
            // a counter bump back on every `vm.sfi` emit (thousands per
            // graft invocation).
            E::VmWindow { .. } | E::SfiCheck { .. } => return,
            E::TxnBegin { .. } => Counter::TxnBegins,
            E::TxnCommit { nested: false, .. } => Counter::TxnCommits,
            E::TxnCommit { nested: true, .. } => Counter::TxnNestedCommits,
            E::TxnAbort { .. } => Counter::TxnAborts,
            E::LockAcquire { .. } => Counter::TxnLockAcquires,
            E::LockBlocked { .. } => Counter::LockWaits,
            E::LockTimeout { .. } => Counter::LockTimeouts,
            E::LockSteal { .. } => Counter::LockSteals,
            E::UndoPush { depth, .. } => {
                self.observe_undo_depth(depth);
                Counter::UndoPushes
            }
            E::UndoRun { .. } => Counter::UndoRuns,
            E::ResGrant { .. } => Counter::RmGrants,
            E::ResRelease { .. } => Counter::RmReleases,
            E::ResLimitHit { .. } => Counter::RmDenials,
            E::FsRead { .. } => Counter::FsReads,
            E::FsWrite { .. } => Counter::FsWrites,
            E::FsPrefetch { .. } => Counter::FsPrefetches,
            E::FsJournalAppend { .. } => Counter::FsJournalAppends,
            E::FsJournalCommit { .. } => Counter::FsJournalCommits,
            E::FsCheckpoint { .. } => Counter::FsCheckpoints,
            E::FsRecoveryReplay { .. } => Counter::FsRecoveryReplays,
            E::FsRecoveryDiscard { .. } => Counter::FsRecoveryDiscards,
            E::GraftInstall { .. } => Counter::GraftInstalls,
            E::GraftInvoke { .. } => Counter::GraftInvocations,
            E::GraftCommit { .. } => Counter::GraftCommits,
            E::GraftAbort { .. } => Counter::GraftAborts,
            E::GraftQuarantine { .. } => Counter::GraftQuarantines,
            E::FallbackServed { .. } => Counter::GraftFallbacks,
            E::NetRx { .. } => Counter::NetRxPackets,
            E::NetShed { kind: ShedKind::Overflow, .. } => Counter::NetRxOverflows,
            E::NetShed { kind: ShedKind::Watermark, .. } => Counter::NetRxSheds,
            E::NetVerdict { verdict: VerdictKind::Accept, .. } => Counter::NetAccepts,
            E::NetVerdict { verdict: VerdictKind::Drop, .. } => Counter::NetDrops,
            E::NetVerdict { verdict: VerdictKind::Steer, .. } => Counter::NetSteers,
            E::NetSteer { .. } => Counter::NetSteerHops,
            E::NetLoopCut { .. } => Counter::NetLoopCuts,
            E::NetBatch { .. } => Counter::NetBatchDispatches,
            // Alert edges have no counter: the watch plane keeps its
            // own edge log and firing set.
            E::WatchAlertFiring { .. } | E::WatchAlertResolved { .. } => return,
            E::AdmissionAllow { .. } => Counter::AdmissionAllows,
            E::AdmissionDeny { .. } => Counter::AdmissionDenies,
            E::ReplShip { .. } => Counter::ReplShips,
            E::ReplAck { .. } => Counter::ReplAcks,
            E::ReplApply { .. } => Counter::ReplApplies,
            E::ReplFrameDrop { .. } => Counter::ReplFrameDrops,
            E::ReplPromote { .. } => Counter::ReplPromotions,
        };
        self.inc(c);
    }

    /// Raises the high-water mark for resource kind `kind`
    /// (`ResourceKind::index()`), a gauge. Zero-allocation.
    pub fn observe_rm_peak(&self, kind: u8, used: u64) {
        let mut v = self.rm_peaks.get();
        if let Some(slot) = v.get_mut(kind as usize) {
            if used > *slot {
                *slot = used;
                self.rm_peaks.set(v);
            }
        }
    }

    /// The high-water mark for resource kind `kind`.
    pub fn rm_peak(&self, kind: u8) -> u64 {
        self.rm_peaks.get().get(kind as usize).copied().unwrap_or(0)
    }

    /// Raises the deepest-undo-stack gauge. Zero-allocation.
    pub fn observe_undo_depth(&self, depth: u64) {
        if depth > self.undo_depth_peak.get() {
            self.undo_depth_peak.set(depth);
        }
    }

    /// The deepest undo stack observed.
    pub fn undo_depth_peak(&self) -> u64 {
        self.undo_depth_peak.get()
    }

    /// Counts one shed NIC event on `port`, alongside the aggregate
    /// [`Counter::NicDropped`]. Allocates only on the first drop seen
    /// for a port; the table stays sorted so exposition is
    /// deterministic.
    pub fn observe_nic_port_drop(&self, port: u16) {
        let mut drops = self.nic_port_drops.borrow_mut();
        match drops.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => drops[i].1 += 1,
            Err(i) => drops.insert(i, (port, 1)),
        }
    }

    /// Drops counted on NIC `port`.
    pub fn nic_port_drops(&self, port: u16) -> u64 {
        let drops = self.nic_port_drops.borrow();
        drops.binary_search_by_key(&port, |&(p, _)| p).map_or(0, |i| drops[i].1)
    }

    // -- attribution --------------------------------------------------------

    /// Attributes `cost` to component `c` of the innermost open
    /// invocation. Zero-allocation.
    ///
    /// Outside any bracket, [`Component::Indirection`] is held pending
    /// and claimed by the next [`begin_invocation`](Self::begin_invocation)
    /// (the dispatch charge belongs to the invocation it dispatches);
    /// every other component is kernel-side work and lands in the
    /// kernel ledger ([`Self::kernel_attribution`]).
    pub fn charge(&self, c: Component, cost: Cycles) {
        self.brackets.charge(c, cost);
    }

    /// Opens an invocation bracket for `tag`: starts the latency stamp,
    /// claims any pending dispatch charge, and counts the invocation in
    /// the graft's ledger (the global counter is derived from
    /// `graft.invoke`). Zero-allocation.
    pub fn begin_invocation(&self, tag: MetricTag) {
        self.brackets.open(tag, self.clock.now());
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.invocations += 1;
        }
    }

    /// Closes the innermost invocation bracket: records latency, merges
    /// the frame's attribution into the graft ledger, and counts the
    /// outcome there (the global counters are derived from
    /// `graft.commit` / `graft.abort`). Zero-allocation.
    pub fn end_invocation(&self, committed: bool) {
        let frame = self.brackets.close();
        let latency = self.clock.now().saturating_sub(frame.start);
        self.all_latency.borrow_mut().record(latency);
        if let Some(slot) = self.grafts.borrow_mut().get_mut(frame.tag.0 as usize) {
            for (total, add) in slot.comps.iter_mut().zip(frame.comps.iter()) {
                *total += add;
            }
            slot.latency.record(latency);
            if committed {
                slot.commits += 1;
            } else {
                slot.aborts += 1;
            }
        }
    }

    /// Records a dead-graft invocation refused to the fallback path in
    /// `tag`'s ledger (the global counter is derived from
    /// `graft.fallback`). Flushes any unclaimed dispatch charge to the
    /// kernel ledger (the dispatch led nowhere).
    pub fn mark_fallback(&self, tag: MetricTag) {
        self.brackets.drop_pending();
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.fallbacks += 1;
        }
    }

    /// Stamps graft `name`'s health state as quarantined until `until`
    /// (the trip itself is counted from `graft.quarantine`). Interns
    /// the name (quarantine is off the hot path).
    pub fn quarantine(&self, name: &str, until: Cycles) {
        let tag = self.tag(name);
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.quarantined_until = Some(until);
        }
    }

    // -- snapshots ----------------------------------------------------------

    /// Interned tags in intern order (install order).
    pub fn tags_in_order(&self) -> Vec<MetricTag> {
        (0..self.names.borrow().len() as u16).map(MetricTag).collect()
    }

    /// The attribution ledger for `tag`, if interned.
    pub fn attribution(&self, tag: MetricTag) -> Option<Attribution> {
        self.grafts
            .borrow()
            .get(tag.0 as usize)
            .map(|s| Attribution { cycles: s.comps, invocations: s.invocations })
    }

    /// Cycles attributed to kernel-side work outside any invocation.
    pub fn kernel_attribution(&self) -> [u64; Component::COUNT] {
        self.brackets.kernel()
    }

    /// Per-graft invocation-latency quantile (`num/den`), if any
    /// invocation completed.
    pub fn latency_quantile(&self, tag: MetricTag, num: u64, den: u64) -> Option<Cycles> {
        self.grafts.borrow().get(tag.0 as usize).and_then(|s| s.latency.quantile(num, den))
    }

    /// All-grafts invocation-latency quantile.
    pub fn global_latency_quantile(&self, num: u64, den: u64) -> Option<Cycles> {
        self.all_latency.borrow().quantile(num, den)
    }

    /// Abort rate of `tag` over completed invocations, in [0, 1].
    pub fn abort_rate(&self, tag: MetricTag) -> f64 {
        let grafts = self.grafts.borrow();
        let Some(s) = grafts.get(tag.0 as usize) else { return 0.0 };
        let done = s.commits + s.aborts;
        if done == 0 {
            0.0
        } else {
            s.aborts as f64 / done as f64
        }
    }

    // -- rendering (all off the hot path) -----------------------------------

    /// Prometheus-style text exposition: `# TYPE` headers, counter
    /// series, per-graft labelled series, attribution ledgers and
    /// latency quantiles. Deterministic: fixed series order (enum
    /// order, then tag order), integer values except quantile gauges.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!("# TYPE {} counter\n{} {}\n", c.name(), c.name(), self.get(c)));
        }
        out.push_str("# TYPE vino_nic_port_drops_total counter\n");
        for (port, n) in self.nic_port_drops.borrow().iter() {
            out.push_str(&format!("vino_nic_port_drops_total{{port=\"{port}\"}} {n}\n"));
        }
        let peaks = self.rm_peaks.get();
        out.push_str("# TYPE vino_rm_peak_units gauge\n");
        for (kind, peak) in peaks.iter().enumerate() {
            if *peak > 0 {
                out.push_str(&format!("vino_rm_peak_units{{kind=\"{kind}\"}} {peak}\n"));
            }
        }
        out.push_str(&format!(
            "# TYPE vino_txn_undo_depth_peak gauge\nvino_txn_undo_depth_peak {}\n",
            self.undo_depth_peak(),
        ));
        let names = self.names.borrow();
        let grafts = self.grafts.borrow();
        out.push_str("# TYPE vino_graft_overhead_cycles_total counter\n");
        for (i, slot) in grafts.iter().enumerate() {
            for c in Component::ALL {
                let v = slot.comps[c as usize];
                if v > 0 {
                    out.push_str(&format!(
                        "vino_graft_overhead_cycles_total{{graft=\"{}\",component=\"{}\"}} {v}\n",
                        names[i],
                        c.label(),
                    ));
                }
            }
        }
        out.push_str("# TYPE vino_graft_invoke_latency_cycles gauge\n");
        for (i, slot) in grafts.iter().enumerate() {
            for (q, num) in [("0.5", 50u64), ("0.99", 99u64)] {
                if let Some(v) = slot.latency.quantile(num, 100) {
                    out.push_str(&format!(
                        "vino_graft_invoke_latency_cycles{{graft=\"{}\",quantile=\"{q}\"}} {}\n",
                        names[i],
                        v.get(),
                    ));
                }
            }
        }
        out
    }

    /// The runtime Table-3-shaped breakdown for `tag`: mean
    /// per-invocation microseconds per component, plus the total.
    pub fn render_attribution(&self, tag: MetricTag) -> String {
        let Some(attr) = self.attribution(tag) else {
            return format!("-- overhead attribution: unknown {tag:?} --\n");
        };
        let mut out = format!(
            "-- overhead attribution: graft `{}` ({} invocations) --\n",
            self.name_of(tag),
            attr.invocations,
        );
        for c in Component::ALL {
            out.push_str(&format!(
                "  {:<14} {:>8.2} us/invocation\n",
                c.label(),
                attr.per_invocation_us(c),
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>8.2} us/invocation\n",
            "total",
            attr.total_per_invocation_us(),
        ));
        out
    }

    /// The health/SLO view: one line per graft — invocations, abort
    /// rate, p50/p99 invocation latency, quarantine state at the
    /// current virtual-clock instant.
    pub fn health(&self) -> String {
        let mut out = String::from(
            "graft              invokes  commits   aborts  abort%   p50(us)    p99(us)  state\n",
        );
        let names = self.names.borrow();
        let grafts = self.grafts.borrow();
        let now = self.clock.now();
        for (i, slot) in grafts.iter().enumerate() {
            let q = |num| {
                slot.latency
                    .quantile(num, 100)
                    .map_or_else(|| "-".to_string(), |c| format!("{:.1}", c.as_us()))
            };
            let done = slot.commits + slot.aborts;
            let rate = if done == 0 { 0.0 } else { 100.0 * slot.aborts as f64 / done as f64 };
            let state = match slot.quarantined_until {
                Some(until) if until > now => format!("quarantined@{}", until.get()),
                _ => "ok".to_string(),
            };
            out.push_str(&format!(
                "{:<18} {:>7} {:>8} {:>8} {:>6.1} {:>9} {:>10}  {}\n",
                names[i],
                slot.invocations,
                slot.commits,
                slot.aborts,
                rate,
                q(50),
                q(99),
                state,
            ));
        }
        let g = |c| self.get(c);
        out.push_str(&format!(
            "disk: reads={} writes={} seeks={} stalls={} io_errors={} torn={}\n",
            g(Counter::DiskReads),
            g(Counter::DiskWrites),
            g(Counter::DiskSeeks),
            g(Counter::DiskStalls),
            g(Counter::DiskIoErrors),
            g(Counter::DiskTornWrites),
        ));
        out.push_str(&format!(
            "journal: appends={} commits={} checkpoints={} | recovery: replays={} discards={}\n",
            g(Counter::FsJournalAppends),
            g(Counter::FsJournalCommits),
            g(Counter::FsCheckpoints),
            g(Counter::FsRecoveryReplays),
            g(Counter::FsRecoveryDiscards),
        ));
        out
    }

    /// The canonical full snapshot frozen by the golden battery: the
    /// exposition, every graft's attribution breakdown (intern order),
    /// and the health view. Byte-identical across same-seed runs.
    pub fn snapshot(&self) -> String {
        let mut out = self.expose();
        for tag in self.tags_in_order() {
            out.push_str(&self.render_attribution(tag));
        }
        out.push_str(&self.health());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> (Rc<MetricsPlane>, Rc<VirtualClock>) {
        let clock = VirtualClock::new();
        (MetricsPlane::new(Rc::clone(&clock)), clock)
    }

    #[test]
    fn counters_accumulate_in_fixed_slots() {
        let (mp, _) = plane();
        mp.inc(Counter::TxnBegins);
        mp.add(Counter::VmInstrs, 41);
        mp.inc(Counter::VmInstrs);
        assert_eq!(mp.get(Counter::TxnBegins), 1);
        assert_eq!(mp.get(Counter::VmInstrs), 42);
        assert_eq!(mp.get(Counter::TxnCommits), 0);
    }

    #[test]
    fn tags_intern_and_stay_stable() {
        let (mp, _) = plane();
        let a = mp.tag("ra");
        let b = mp.tag("evict");
        assert_eq!(mp.tag("ra"), a);
        assert_ne!(a, b);
        assert_eq!(mp.name_of(a), "ra");
        assert_eq!(mp.name_of(MetricTag(99)), "?tag99");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = CycleHistogram::new();
        assert_eq!(h.quantile(50, 100), None);
        for v in [0u64, 1, 2, 3, 100, 1000, 100_000] {
            h.record(Cycles(v));
        }
        assert_eq!(h.count(), 7);
        // p50 is the 4th of 7 samples: 3 lives in bucket [2,4) → ub 3.
        assert_eq!(h.quantile(50, 100), Some(Cycles(3)));
        // p99 is the last sample's bucket: 100_000 in [2^16, 2^17).
        assert_eq!(h.quantile(99, 100), Some(Cycles((1 << 17) - 1)));
    }

    #[test]
    fn attribution_brackets_and_merges() {
        let (mp, clock) = plane();
        let t = mp.tag("g");
        // A dispatch charge outside the bracket pends, then is claimed.
        mp.charge(Component::Indirection, Cycles(120));
        mp.begin_invocation(t);
        mp.charge(Component::TxnBegin, Cycles::from_us(36));
        mp.charge(Component::GraftFn, Cycles(240));
        clock.charge_us(70);
        mp.end_invocation(true);
        let a = mp.attribution(t).unwrap();
        assert_eq!(a.invocations, 1);
        assert_eq!(a.of(Component::Indirection), Cycles(120));
        assert_eq!(a.of(Component::TxnBegin), Cycles::from_us(36));
        assert_eq!(a.of(Component::GraftFn), Cycles(240));
        assert_eq!(a.of(Component::Abort), Cycles(0));
        assert_eq!(mp.abort_rate(t), 0.0);
        // Brackets keep the per-graft ledger; the global counters are
        // derived from the lifecycle events (`observe`).
        assert_eq!(mp.get(Counter::GraftInvocations) + mp.get(Counter::GraftCommits), 0);
        // 70 us = 8400 cycles, bucket [2^13, 2^14) → upper bound 2^14 - 1.
        assert_eq!(mp.latency_quantile(t, 50, 100), Some(Cycles((1 << 14) - 1)));
    }

    #[test]
    fn nested_brackets_attribute_to_the_innermost() {
        let (mp, _) = plane();
        let outer = mp.tag("outer");
        let inner = mp.tag("inner");
        mp.begin_invocation(outer);
        mp.charge(Component::TxnBegin, Cycles(100));
        mp.begin_invocation(inner);
        mp.charge(Component::TxnBegin, Cycles(7));
        mp.end_invocation(false);
        mp.end_invocation(true);
        assert_eq!(mp.attribution(outer).unwrap().of(Component::TxnBegin), Cycles(100));
        assert_eq!(mp.attribution(inner).unwrap().of(Component::TxnBegin), Cycles(7));
        assert_eq!(mp.attribution(inner).unwrap().invocations, 1);
        assert_eq!(mp.abort_rate(inner), 1.0);
        assert_eq!(mp.abort_rate(outer), 0.0);
    }

    #[test]
    fn kernel_side_charges_do_not_pollute_grafts() {
        let (mp, _) = plane();
        let t = mp.tag("g");
        mp.charge(Component::Lock, Cycles(55));
        mp.begin_invocation(t);
        mp.end_invocation(true);
        assert_eq!(mp.attribution(t).unwrap().of(Component::Lock), Cycles(0));
        assert_eq!(mp.kernel_attribution()[Component::Lock as usize], 55);
    }

    #[test]
    fn fallback_flushes_pending_dispatch_to_kernel() {
        let (mp, _) = plane();
        let t = mp.tag("dead");
        mp.charge(Component::Indirection, Cycles(120));
        mp.mark_fallback(t);
        assert_eq!(mp.kernel_attribution()[Component::Indirection as usize], 120);
        // The next invocation starts clean.
        mp.begin_invocation(t);
        mp.end_invocation(true);
        assert_eq!(mp.attribution(t).unwrap().of(Component::Indirection), Cycles(0));
    }

    #[test]
    fn quarantine_state_tracks_the_clock() {
        let (mp, clock) = plane();
        mp.quarantine("flaky", Cycles::from_ms(250));
        assert!(mp.health().contains("quarantined@"));
        clock.advance_to(Cycles::from_ms(251));
        assert!(!mp.health().contains("quarantined@"));
    }

    #[test]
    fn exposition_is_deterministic_and_shaped() {
        let (mp, _) = plane();
        let t = mp.tag("ra");
        mp.inc(Counter::FsReads);
        mp.begin_invocation(t);
        mp.charge(Component::TxnBegin, Cycles::from_us(36));
        mp.end_invocation(true);
        mp.observe_rm_peak(0, 8192);
        let a = mp.expose();
        let b = mp.expose();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE vino_fs_reads_total counter\nvino_fs_reads_total 1\n"));
        assert!(a.contains("vino_rm_peak_units{kind=\"0\"} 8192\n"));
        assert!(a.contains(
            "vino_graft_overhead_cycles_total{graft=\"ra\",component=\"txn-begin\"} 4320\n"
        ));
    }

    #[test]
    fn abort_rate_over_completed_invocations() {
        let (mp, _) = plane();
        let t = mp.tag("g");
        for committed in [true, true, false, true] {
            mp.begin_invocation(t);
            mp.end_invocation(committed);
        }
        assert!((mp.abort_rate(t) - 0.25).abs() < 1e-12);
    }
}
