//! The observation funnel: one [`Obs`] handle per subsystem onto the
//! fault, trace, metrics, profile and watch planes.
//!
//! VINO's wrapper does one piece of accounting per graft invocation
//! (Table 3 reports it as a single cost breakdown). This module gives
//! every subsystem that one piece of accounting instead of five
//! parallel copies of it:
//!
//! - **Wired once.** An `Obs` is a shared handle: clones see the same
//!   five slots, so a kernel hands one handle to every subsystem at
//!   boot and attaching a plane to it reaches them all from that
//!   instant on. A slot fills once; a second attach reports
//!   [`AttachError::AlreadyAttached`].
//! - **Billed once.** [`Planes::bill`] charges the virtual clock and both
//!   attribution ledgers (metrics and profile) in one call, so the two
//!   ledgers reconcile by construction.
//! - **Counted from events.** [`Planes::emit`] writes the trace record and
//!   derives the counter twin through [`MetricsPlane::observe`], one
//!   exhaustive `match` over [`TraceEvent`] — a new event without a
//!   mapping does not compile. Counters with no event (instructions
//!   retired, disk and NIC device counts, mutex pairs, retransmits)
//!   stay direct [`Planes::inc`] bumps.
//!
//! The fault plane ([`Planes::fire`]), profile marks ([`Planes::mark`]) and
//! watch observers ([`Planes::watched`]) pass straight through. A graft VM
//! binds an [`Obs::snapshot`] at install.

use std::cell::OnceCell;
use std::ops::Deref;
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};
use crate::fault::{FaultPlane, FaultSite};
use crate::metrics::{Component, Counter, MetricsPlane};
use crate::plane::AttachError;
use crate::profile::{ProfilePlane, SpanKind};
use crate::trace::{CauseCtx, GraftTag, TraceEvent, TracePlane};
use crate::watch::WatchPlane;

/// One subsystem's handle onto the observability planes (see module
/// docs). Cloning shares the handle; every method is [`Planes`]'.
#[derive(Clone, Debug, Default)]
pub struct Obs(Rc<Planes>);

/// The clock and the five plane slots behind an [`Obs`]. A graft VM,
/// which must not see later attaches, holds an unshared copy
/// ([`Obs::snapshot`]) inline, off one pointer on its per-instruction
/// path. The default has no planes and a private clock, for subsystems
/// built outside a kernel.
#[derive(Clone, Debug, Default)]
pub struct Planes {
    clock: Rc<VirtualClock>,
    fault: OnceCell<Rc<FaultPlane>>,
    trace: OnceCell<Rc<TracePlane>>,
    metrics: OnceCell<Rc<MetricsPlane>>,
    profile: OnceCell<Rc<ProfilePlane>>,
    watch: OnceCell<Rc<WatchPlane>>,
}

fn attach<P>(slot: &OnceCell<Rc<P>>, plane: Rc<P>) -> Result<(), AttachError> {
    slot.set(plane).map_err(|_| AttachError::AlreadyAttached)
}

impl Obs {
    /// A handle with no planes attached that bills `clock`.
    pub fn new(clock: Rc<VirtualClock>) -> Obs {
        Obs(Rc::new(Planes::new(clock)))
    }

    /// The planes attached right now, unshared: later attaches to `self`
    /// do not reach the copy.
    pub fn snapshot(&self) -> Planes {
        (*self.0).clone()
    }
}

impl Deref for Obs {
    type Target = Planes;

    fn deref(&self) -> &Planes {
        &self.0
    }
}

impl Planes {
    /// No planes attached; bills `clock`.
    pub fn new(clock: Rc<VirtualClock>) -> Planes {
        Planes { clock, ..Planes::default() }
    }

    /// The clock [`bill`](Self::bill) charges.
    pub fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    /// The attached fault plane.
    pub fn fault(&self) -> Option<&Rc<FaultPlane>> {
        self.fault.get()
    }

    /// The attached trace plane.
    pub fn trace(&self) -> Option<&Rc<TracePlane>> {
        self.trace.get()
    }

    /// The attached metrics plane.
    pub fn metrics(&self) -> Option<&Rc<MetricsPlane>> {
        self.metrics.get()
    }

    /// The attached profile plane.
    pub fn profile(&self) -> Option<&Rc<ProfilePlane>> {
        self.profile.get()
    }

    /// The attached watch plane.
    pub fn watch(&self) -> Option<&Rc<WatchPlane>> {
        self.watch.get()
    }

    /// Attaches the fault plane; errors if one is already attached.
    pub fn attach_fault(&self, plane: Rc<FaultPlane>) -> Result<(), AttachError> {
        attach(&self.fault, plane)
    }

    /// Attaches the trace plane; errors if one is already attached.
    pub fn attach_trace(&self, plane: Rc<TracePlane>) -> Result<(), AttachError> {
        attach(&self.trace, plane)
    }

    /// Attaches the metrics plane; errors if one is already attached.
    pub fn attach_metrics(&self, plane: Rc<MetricsPlane>) -> Result<(), AttachError> {
        attach(&self.metrics, plane)
    }

    /// Attaches the profile plane; errors if one is already attached.
    pub fn attach_profile(&self, plane: Rc<ProfilePlane>) -> Result<(), AttachError> {
        attach(&self.profile, plane)
    }

    /// Attaches the watch plane; errors if one is already attached.
    pub fn attach_watch(&self, plane: Rc<WatchPlane>) -> Result<(), AttachError> {
        attach(&self.watch, plane)
    }

    /// Charges `cost` to the clock and attributes it to `comp` in the
    /// metrics and profile ledgers. Zero-allocation.
    #[inline]
    pub fn bill(&self, comp: Component, cost: Cycles) {
        self.clock.charge(cost);
        if let Some(mp) = self.metrics() {
            mp.charge(comp, cost);
        }
        if let Some(pp) = self.profile() {
            pp.charge(comp, cost);
        }
    }

    /// Records `ev` under the causal context in force and derives its
    /// counter twin ([`MetricsPlane::observe`]). Either plane may be
    /// absent. Zero-allocation.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(tp) = self.trace() {
            tp.emit(ev);
        }
        if let Some(mp) = self.metrics() {
            mp.observe(&ev);
        }
    }

    /// [`emit`](Self::emit) under an explicit causal context (span
    /// origins and cross-kernel ingress). Zero-allocation.
    #[inline]
    pub fn emit_with_ctx(&self, ev: TraceEvent, ctx: CauseCtx) {
        if let Some(tp) = self.trace() {
            tp.emit_with_ctx(ev, ctx);
        }
        if let Some(mp) = self.metrics() {
            mp.observe(&ev);
        }
    }

    /// Bumps a counter that has no trace event (measurement-only).
    #[inline]
    pub fn inc(&self, c: Counter) {
        if let Some(mp) = self.metrics() {
            mp.inc(c);
        }
    }

    /// The trace plane's tag for graft `name` — interned on first sight,
    /// so call it at install time. Without a trace plane the tag is
    /// never rendered and [`GraftTag::UNTRACED`] stands in.
    pub fn tag(&self, name: &str) -> GraftTag {
        self.trace().map_or(GraftTag::UNTRACED, |tp| tp.tag(name))
    }

    /// Records a finished profile span of `kind` that lasted `dur`.
    #[inline]
    pub fn mark(&self, kind: SpanKind, dur: Cycles) {
        if let Some(pp) = self.profile() {
            pp.mark(kind, dur);
        }
    }

    /// Records a profile span of `kind` from `t0` to now.
    #[inline]
    pub fn mark_since(&self, kind: SpanKind, t0: Cycles) {
        if let Some(pp) = self.profile() {
            pp.mark_since(kind, t0);
        }
    }

    /// Feeds the watch plane through `f`, when one is attached.
    #[inline]
    pub fn watched(&self, f: impl FnOnce(&WatchPlane)) {
        if let Some(wp) = self.watch() {
            f(wp);
        }
    }

    /// Visits fault site `site`: true when an injected fault fires
    /// there. False without a fault plane.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> bool {
        self.fault().is_some_and(|fp| fp.fire(site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AbortKind, SfiKind, ShedKind, VerdictKind, VmExitKind};

    #[test]
    fn clones_share_slots_and_snapshots_do_not() {
        let obs = Obs::default();
        let early = obs.snapshot();
        let shared = obs.clone();
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        assert!(shared.trace().is_some_and(|t| Rc::ptr_eq(t, &tp)));
        assert!(early.trace().is_none(), "a snapshot keeps the planes it was taken with");
        assert!(obs.snapshot().trace().is_some());
        assert_eq!(shared.attach_trace(tp), Err(AttachError::AlreadyAttached));
    }

    #[test]
    fn bill_charges_the_clock_and_both_ledgers() {
        let obs = Obs::default();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        let pp = ProfilePlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        obs.bill(Component::Lock, Cycles(40));
        assert_eq!(obs.clock().now(), Cycles(40));
        assert_eq!(mp.kernel_attribution()[Component::Lock as usize], 40);
        assert_eq!(pp.kernel_attribution()[Component::Lock as usize], 40);
    }

    /// One event of every [`TraceEvent`] variant, each paired with the
    /// counter its emit must move (`None`: no counter by design).
    fn mapping() -> Vec<(TraceEvent, Option<Counter>)> {
        use Counter as C;
        use TraceEvent as E;
        let g = GraftTag(0);
        vec![
            (E::VmWindow { instrs: 5, exit: VmExitKind::Halt }, None),
            (E::SfiCheck { kind: SfiKind::Clamp, pc: 3 }, None),
            (E::TxnBegin { thread: 1, txn: 1, depth: 1 }, Some(C::TxnBegins)),
            (E::TxnCommit { thread: 1, txn: 1, nested: false, locks: 0 }, Some(C::TxnCommits)),
            (E::TxnCommit { thread: 1, txn: 2, nested: true, locks: 0 }, Some(C::TxnNestedCommits)),
            (E::TxnAbort { thread: 1, txn: 1, locks: 0 }, Some(C::TxnAborts)),
            (E::LockAcquire { lock: 1, thread: 1 }, Some(C::TxnLockAcquires)),
            (E::LockBlocked { lock: 1, waiter: 2, holder: 1 }, Some(C::LockWaits)),
            (E::LockTimeout { lock: 1, holder: 1 }, Some(C::LockTimeouts)),
            (E::LockSteal { thread: 1, txn: 1 }, Some(C::LockSteals)),
            (E::UndoPush { thread: 1, depth: 3 }, Some(C::UndoPushes)),
            (E::UndoRun { thread: 1, ops: 3 }, Some(C::UndoRuns)),
            (E::ResGrant { principal: 1, kind: 0, amount: 8 }, Some(C::RmGrants)),
            (E::ResRelease { principal: 1, kind: 0, amount: 8 }, Some(C::RmReleases)),
            (E::ResLimitHit { principal: 1, kind: 0, requested: 8 }, Some(C::RmDenials)),
            (E::FsRead { fd: 3, len: 8 }, Some(C::FsReads)),
            (E::FsWrite { fd: 3, len: 8 }, Some(C::FsWrites)),
            (E::FsPrefetch { fd: 3 }, Some(C::FsPrefetches)),
            (E::FsJournalAppend { seq: 1, blocks: 2 }, Some(C::FsJournalAppends)),
            (E::FsJournalCommit { seq: 1 }, Some(C::FsJournalCommits)),
            (E::FsCheckpoint { seq: 1, blocks: 2 }, Some(C::FsCheckpoints)),
            (E::FsRecoveryReplay { seq: 1, blocks: 2 }, Some(C::FsRecoveryReplays)),
            (E::FsRecoveryDiscard { seq: 2 }, Some(C::FsRecoveryDiscards)),
            (E::GraftInstall { graft: g }, Some(C::GraftInstalls)),
            (E::GraftInvoke { graft: g }, Some(C::GraftInvocations)),
            (E::GraftCommit { graft: g }, Some(C::GraftCommits)),
            (E::GraftAbort { graft: g, kind: AbortKind::Trap }, Some(C::GraftAborts)),
            (E::GraftQuarantine { graft: g, until: 9 }, Some(C::GraftQuarantines)),
            (E::FallbackServed { graft: g }, Some(C::GraftFallbacks)),
            (E::NetRx { port: 80, len: 64 }, Some(C::NetRxPackets)),
            (E::NetShed { port: 80, kind: ShedKind::Overflow }, Some(C::NetRxOverflows)),
            (E::NetShed { port: 80, kind: ShedKind::Watermark }, Some(C::NetRxSheds)),
            (E::NetVerdict { port: 80, verdict: VerdictKind::Accept }, Some(C::NetAccepts)),
            (E::NetVerdict { port: 80, verdict: VerdictKind::Drop }, Some(C::NetDrops)),
            (E::NetVerdict { port: 80, verdict: VerdictKind::Steer }, Some(C::NetSteers)),
            (E::NetSteer { from: 80, to: 81 }, Some(C::NetSteerHops)),
            (E::NetLoopCut { port: 80 }, Some(C::NetLoopCuts)),
            (E::NetBatch { port: 80, n: 4 }, Some(C::NetBatchDispatches)),
            (E::WatchAlertFiring { rule: g, principal: 1 }, None),
            (E::WatchAlertResolved { rule: g, principal: 1 }, None),
            (E::AdmissionAllow { principal: 1 }, Some(C::AdmissionAllows)),
            (E::AdmissionDeny { principal: 1, until: 9 }, Some(C::AdmissionDenies)),
            (E::ReplShip { seq: 1, frags: 2 }, Some(C::ReplShips)),
            (E::ReplAck { acked: 1 }, Some(C::ReplAcks)),
            (E::ReplApply { seq: 1, blocks: 2 }, Some(C::ReplApplies)),
            (E::ReplFrameDrop { seq: 1 }, Some(C::ReplFrameDrops)),
            (E::ReplPromote { seq: 1 }, Some(C::ReplPromotions)),
        ]
    }

    #[test]
    fn each_event_moves_exactly_its_mapped_counter_without_a_trace_plane() {
        let mut unmapped = 0;
        for (ev, want) in mapping() {
            let obs = Obs::default();
            let mp = MetricsPlane::new(Rc::clone(obs.clock()));
            obs.attach_metrics(Rc::clone(&mp)).unwrap();
            obs.emit(ev);
            for c in Counter::ALL {
                let expect = u64::from(want == Some(c));
                assert_eq!(mp.get(c), expect, "{ev:?} moved {} to {}", c.name(), mp.get(c));
            }
            unmapped += usize::from(want.is_none());
        }
        assert_eq!(unmapped, 4, "vm.window, vm.sfi and the two alert edges map to no counter");
    }

    #[test]
    fn mapping_table_covers_every_category_and_counter_with_an_event() {
        let table = mapping();
        let mapped: Vec<Counter> = table.iter().filter_map(|(_, c)| *c).collect();
        // Every counter the table maps is distinct: no two events share one.
        for (i, c) in mapped.iter().enumerate() {
            assert!(!mapped[..i].contains(c), "{} mapped twice", c.name());
        }
        // The counters with no event are exactly the bulk-billed and
        // measurement-only ones.
        let eventless: Vec<&str> =
            Counter::ALL.iter().filter(|c| !mapped.contains(c)).map(|c| c.name()).collect();
        assert_eq!(
            eventless,
            [
                "vino_vm_windows_total",
                "vino_vm_instructions_total",
                "vino_vm_sfi_clamps_total",
                "vino_vm_sfi_callchecks_total",
                "vino_txn_mutex_acquires_total",
                "vino_nic_events_delivered_total",
                "vino_nic_events_dropped_total",
                "vino_disk_reads_total",
                "vino_disk_writes_total",
                "vino_disk_seeks_total",
                "vino_disk_stalls_total",
                "vino_disk_io_errors_total",
                "vino_disk_torn_writes_total",
                "vino_repl_retransmits_total",
            ]
        );
    }

    #[test]
    fn undo_push_raises_the_depth_gauge() {
        let obs = Obs::default();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.emit(TraceEvent::UndoPush { thread: 1, depth: 4 });
        obs.emit(TraceEvent::UndoPush { thread: 1, depth: 2 });
        assert_eq!(mp.undo_depth_peak(), 4);
    }

    #[test]
    fn emit_records_and_counts_together() {
        let obs = Obs::default();
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.emit(TraceEvent::FsRead { fd: 3, len: 8 });
        obs.emit_with_ctx(TraceEvent::FsJournalCommit { seq: 1 }, tp.mint_span(tp.ctx().span));
        assert_eq!(tp.stats().fs, 2);
        assert_eq!(mp.get(Counter::FsReads) + mp.get(Counter::FsJournalCommits), 2);
    }

    #[test]
    fn untraced_tags_stand_in_and_fire_is_false_without_a_fault_plane() {
        let obs = Obs::default();
        assert_eq!(obs.tag("g"), GraftTag::UNTRACED);
        assert!(!obs.fire(FaultSite::VmTrap));
        let fp = FaultPlane::seeded(0);
        fp.arm(FaultSite::VmTrap, 1);
        obs.attach_fault(fp).unwrap();
        assert!(obs.fire(FaultSite::VmTrap));
    }
}
