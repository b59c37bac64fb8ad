//! Golden-timeline battery: the ASCII Gantt renderer, frozen.
//!
//! Two scenarios pin the renderer's exact output — the debug storm's
//! full timeline and a range/lane-filtered slice of it — against
//! checked-in golden files in `tests/goldens/`. Any change to lane
//! assignment, glyph choice, span fills, column scaling, or the legend
//! shows up as a diff here. If the change is intentional, regenerate
//! with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test timeline_golden
//! ```
//!
//! and commit the updated `.timeline` files. A third, structural test
//! proves every [`TraceEvent`] variant renders: the variant list below
//! is kept exhaustive by a wildcard-free `match`, so adding an event
//! without teaching the timeline about it fails to compile here.

use std::rc::Rc;

use vino::core::kernel::KernelConfig;
use vino::repl::{ReplConfig, ReplHarness};
use vino::sim::clock::VirtualClock;
use vino::sim::fault::FaultSite;
use vino::sim::trace::{
    AbortKind, SfiKind, ShedKind, TraceEvent, TracePlane, VerdictKind, VmExitKind,
};
use vino::sim::{render_merged_timeline, render_timeline, Cycles, TimelineOpts};
use vino_bench::debug::{storm_timeline, FaultChoice, StormSpec, StormStep};
use vino_bench::golden;

/// Mirrors the debug battery's known-bad scenario so the golden shows a
/// timeline with real aborts, quarantines, and fallbacks in it.
const SEED: u64 = 3_405_691_582;

#[test]
fn storm_timeline_matches_golden() {
    let spec = StormSpec::generate(SEED, 8);
    let opts = TimelineOpts { width: 72, ..TimelineOpts::default() };
    golden::check(
        "storm_timeline.timeline",
        &storm_timeline(&spec, &KernelConfig::default(), &opts),
    );
}

/// The filters compose: a virtual-cycle window plus a lane allowlist
/// still renders with the full-run time scale.
#[test]
fn filtered_storm_timeline_matches_golden() {
    let spec = StormSpec::generate(SEED, 8);
    let opts = TimelineOpts {
        width: 72,
        range: Some((114_000_000, 160_000_000)),
        lanes: Some(vec!["txn".to_string(), "fs".to_string(), "rm".to_string()]),
    };
    golden::check(
        "storm_timeline_filtered.timeline",
        &storm_timeline(&spec, &KernelConfig::default(), &opts),
    );
}

/// The watch lane, under fire: three back-to-back one-shot VM traps
/// abort three invocations inside the `abort-storm` window, so the
/// timeline shows the alert firing (`f`), the admission gate's vetoes
/// (`V`) and admits (`a`), and the resolved edge (`z`) once the calm
/// tail decays the window.
#[test]
fn watch_alert_timeline_matches_golden() {
    let trap = StormStep {
        pre_ms: 1,
        fault: FaultChoice::VmTrap { offset: 0 },
        graft: 0,
        arg: 7,
        funded: true,
        read_block: 0,
    };
    let calm = StormStep { fault: FaultChoice::None, pre_ms: 50, ..trap };
    let spec = StormSpec { seed: SEED, steps: vec![trap, trap, trap, calm, calm, calm] };
    let opts = TimelineOpts { width: 72, ..TimelineOpts::default() };
    let out = storm_timeline(&spec, &KernelConfig::default(), &opts);
    let lane = |name: &str| -> String { out.lines().filter(|l| l.starts_with(name)).collect() };
    for glyph in ["f", "z"] {
        assert!(lane("watch").contains(glyph), "watch lane is missing `{glyph}`:\n{out}");
    }
    for glyph in ["a", "V"] {
        assert!(lane("admission").contains(glyph), "admission lane is missing `{glyph}`:\n{out}");
    }
    golden::check("watch_alert_timeline.timeline", &out);
}

/// The repl lanes, under fire, on the *merged cross-kernel* timeline:
/// the primary's ships and retransmissions (`>`), frames lost to the
/// wire (`L`) and cumulative acks (`K`) on its `n0:` lanes, the
/// replica's applies (`+`) and — after the armed primary crash — the
/// failover promotion (`P`) on its `n1:` lanes, with the shared `wire`
/// lane marking every cross-kernel span link.
#[test]
fn repl_timeline_matches_golden() {
    // Window of 1 so each round puts exactly one record on the wire:
    // wire faults within a round all land at the round-start cycle —
    // the same timeline column, where the latest glyph wins — so a
    // dropped frame is only visible when nothing else ships that round.
    let cfg = ReplConfig {
        window: 1,
        crash_site: FaultSite::KernelCrashAfterCommit,
        ..Default::default()
    };
    let mut h = ReplHarness::new(SEED, cfg);
    let plane = Rc::clone(h.fault_plane());
    // Round 2 loses both its single in-flight frame and its ack: its
    // only repl mark is the `L`.
    plane.arm(FaultSite::ReplShipDrop, 2);
    plane.arm(FaultSite::ReplAckLoss, 2);
    plane.arm(FaultSite::ReplPrimaryCrash, 6);
    // Six rounds: the primary dies at the top of the last one, so the
    // records committed just before death (including the doomed
    // crash-victim transaction — the crash point is after its commit
    // block) are drained by failover, not the live wire: the drain's
    // applies render in their own columns after the last live ship.
    h.run(6);
    h.failover();
    let opts = TimelineOpts { width: 72, ..TimelineOpts::default() };
    let out =
        render_merged_timeline(&[h.primary_trace().as_ref(), h.replica_trace().as_ref()], &opts);
    let lane = |name: &str| -> String { out.lines().filter(|l| l.starts_with(name)).collect() };
    for glyph in [">", "K", "L"] {
        assert!(lane("n0:repl").contains(glyph), "primary repl lane is missing `{glyph}`:\n{out}");
    }
    for glyph in ["+", "P"] {
        assert!(lane("n1:repl").contains(glyph), "replica repl lane is missing `{glyph}`:\n{out}");
    }
    for glyph in ["\\", "/"] {
        assert!(lane("wire").contains(glyph), "wire lane is missing `{glyph}`:\n{out}");
    }
    golden::check("repl_timeline.timeline", &out);
}

/// One exemplar of every [`TraceEvent`] variant, in declaration order.
///
/// The paired `variant_index` match is wildcard-free, so this list (and
/// the timeline's `lane_of`/`glyph_of`) must grow in lockstep with the
/// enum — a new variant breaks the build here until it renders.
fn one_of_each(tp: &TracePlane) -> Vec<TraceEvent> {
    let g = tp.tag("zoo");
    let rule = tp.tag("abort-storm");
    vec![
        TraceEvent::VmWindow { instrs: 100, exit: VmExitKind::Halt },
        TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc: 4 },
        TraceEvent::TxnBegin { thread: 1, txn: 1, depth: 1 },
        TraceEvent::TxnCommit { thread: 1, txn: 1, nested: false, locks: 1 },
        TraceEvent::TxnAbort { thread: 1, txn: 2, locks: 0 },
        TraceEvent::LockAcquire { lock: 7, thread: 1 },
        TraceEvent::LockBlocked { lock: 7, waiter: 2, holder: 1 },
        TraceEvent::LockTimeout { lock: 7, holder: 1 },
        TraceEvent::LockSteal { thread: 1, txn: 3 },
        TraceEvent::UndoPush { thread: 1, depth: 1 },
        TraceEvent::UndoRun { thread: 1, ops: 1 },
        TraceEvent::ResGrant { principal: 1, kind: 0, amount: 64 },
        TraceEvent::ResRelease { principal: 1, kind: 0, amount: 64 },
        TraceEvent::ResLimitHit { principal: 1, kind: 0, requested: 1 << 40 },
        TraceEvent::FsRead { fd: 3, len: 4096 },
        TraceEvent::FsWrite { fd: 3, len: 4096 },
        TraceEvent::FsPrefetch { fd: 3 },
        TraceEvent::FsJournalAppend { seq: 1, blocks: 2 },
        TraceEvent::FsJournalCommit { seq: 1 },
        TraceEvent::FsCheckpoint { seq: 1, blocks: 2 },
        TraceEvent::FsRecoveryReplay { seq: 1, blocks: 2 },
        TraceEvent::FsRecoveryDiscard { seq: 2 },
        TraceEvent::GraftInstall { graft: g },
        TraceEvent::GraftInvoke { graft: g },
        TraceEvent::GraftCommit { graft: g },
        TraceEvent::GraftAbort { graft: g, kind: AbortKind::Trap },
        TraceEvent::GraftQuarantine { graft: g, until: 1 << 30 },
        TraceEvent::FallbackServed { graft: g },
        TraceEvent::NetRx { port: 80, len: 64 },
        TraceEvent::NetShed { port: 80, kind: ShedKind::Overflow },
        TraceEvent::NetVerdict { port: 80, verdict: VerdictKind::Accept },
        TraceEvent::NetSteer { from: 80, to: 81 },
        TraceEvent::NetLoopCut { port: 81 },
        TraceEvent::NetBatch { port: 80, n: 8 },
        TraceEvent::WatchAlertFiring { rule, principal: 7 },
        TraceEvent::WatchAlertResolved { rule, principal: 7 },
        TraceEvent::AdmissionAllow { principal: 7 },
        TraceEvent::AdmissionDeny { principal: 7, until: 1 << 30 },
        TraceEvent::ReplShip { seq: 1, frags: 2 },
        TraceEvent::ReplAck { acked: 1 },
        TraceEvent::ReplApply { seq: 1, blocks: 2 },
        TraceEvent::ReplFrameDrop { seq: 2 },
        TraceEvent::ReplPromote { seq: 3 },
    ]
}

/// Wildcard-free: the compiler rejects this test the moment a
/// [`TraceEvent`] variant exists that `one_of_each` could omit.
fn variant_index(ev: &TraceEvent) -> usize {
    use TraceEvent::*;
    match ev {
        VmWindow { .. } => 0,
        SfiCheck { .. } => 1,
        TxnBegin { .. } => 2,
        TxnCommit { .. } => 3,
        TxnAbort { .. } => 4,
        LockAcquire { .. } => 5,
        LockBlocked { .. } => 6,
        LockTimeout { .. } => 7,
        LockSteal { .. } => 8,
        UndoPush { .. } => 9,
        UndoRun { .. } => 10,
        ResGrant { .. } => 11,
        ResRelease { .. } => 12,
        ResLimitHit { .. } => 13,
        FsRead { .. } => 14,
        FsWrite { .. } => 15,
        FsPrefetch { .. } => 16,
        FsJournalAppend { .. } => 17,
        FsJournalCommit { .. } => 18,
        FsCheckpoint { .. } => 19,
        FsRecoveryReplay { .. } => 20,
        FsRecoveryDiscard { .. } => 21,
        GraftInstall { .. } => 22,
        GraftInvoke { .. } => 23,
        GraftCommit { .. } => 24,
        GraftAbort { .. } => 25,
        GraftQuarantine { .. } => 26,
        FallbackServed { .. } => 27,
        NetRx { .. } => 28,
        NetShed { .. } => 29,
        NetVerdict { .. } => 30,
        NetSteer { .. } => 31,
        NetLoopCut { .. } => 32,
        NetBatch { .. } => 33,
        WatchAlertFiring { .. } => 34,
        WatchAlertResolved { .. } => 35,
        AdmissionAllow { .. } => 36,
        AdmissionDeny { .. } => 37,
        ReplShip { .. } => 38,
        ReplAck { .. } => 39,
        ReplApply { .. } => 40,
        ReplFrameDrop { .. } => 41,
        ReplPromote { .. } => 42,
    }
}

#[test]
fn every_trace_event_variant_renders_in_the_timeline() {
    let clock = VirtualClock::new();
    let tp = TracePlane::with_capacity(std::rc::Rc::clone(&clock), 256);
    let events = one_of_each(&tp);

    // The list is complete (every index hit exactly once) and every
    // variant's glyph is globally unique, so finding a glyph in the
    // rendered chart is finding that variant.
    let mut seen_idx = vec![false; events.len()];
    let mut glyphs = Vec::new();
    for ev in &events {
        let idx = variant_index(ev);
        assert!(!seen_idx[idx], "variant {idx} listed twice");
        seen_idx[idx] = true;
        let glyph = vino::sim::debug::glyph_of(ev);
        assert!(!glyphs.contains(&glyph), "glyph `{glyph}` is not unique");
        glyphs.push(glyph);
    }
    assert!(seen_idx.iter().all(|&s| s), "one_of_each skipped a variant index");

    // Spread the events across the clock so no marker overwrites
    // another within a column, then demand every glyph in the chart.
    for ev in &events {
        tp.emit(*ev);
        clock.charge(Cycles(250_000));
    }
    let out =
        render_timeline(&tp, &TimelineOpts { width: events.len() * 2, ..TimelineOpts::default() });
    let chart: String = out.lines().filter(|l| l.contains(" |")).collect();
    for (ev, glyph) in events.iter().zip(&glyphs) {
        assert!(
            chart.contains(*glyph),
            "variant {:?} (glyph `{glyph}`) did not render in:\n{out}",
            variant_index(ev)
        );
    }
}
