//! The causal cross-kernel tracing battery (`docs/TRACING.md`).
//!
//! Exercises the tentpole contract end to end on the two-kernel
//! replication harness:
//!
//! - every kernel's trace stream keeps strictly monotonic per-node
//!   sequence numbers, before and after the merge,
//! - [`TracePlane::merge_streams`] is a *total* order — merging the
//!   planes in either argument order yields a byte-identical stream,
//! - the merged stream (with a replica crash and reboot in the
//!   schedule) replays byte-identically under the same seed and is
//!   pinned as a golden, as is its rendered cross-kernel timeline,
//! - and the lag-path walker's per-hop virtual-cycle breakdown sums
//!   *exactly* to the watch plane's cycles-valued replication-lag
//!   gauge for the same window, reconciled against the metrics ledger.
//!
//! Regenerate goldens with `UPDATE_GOLDENS=1 cargo test --test
//! causal_battery`.

use std::rc::Rc;

use vino::repl::{lag_path, ReplConfig, ReplHarness};
use vino::sim::fault::FaultSite;
use vino::sim::metrics::Counter;
use vino::sim::trace::TracePlane;
use vino::sim::{render_merged_timeline, TimelineOpts};
use vino_bench::golden;

const SEED: u64 = 0xCA05_A117;

/// The standard battery scenario: ten workload steps over a lossy wire
/// with a replica crash (and its reboot through recovery) landed
/// mid-journal — so the merged stream contains torn applies, recovery
/// replay, retransmissions, and cross-kernel links under fire.
fn crashy_harness() -> ReplHarness {
    let cfg = ReplConfig { crash_site: FaultSite::KernelCrashMidJournal, ..Default::default() };
    let mut h = ReplHarness::new(SEED, cfg);
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplShipDrop, 1, 5);
    plane.arm(FaultSite::ReplReplicaCrash, 3);
    h.run(10);
    assert_eq!(h.replica_reboots(), 1, "the armed replica crash must land");
    h
}

/// Per-kernel trace sequences are strictly monotonic on each plane and
/// stay so for each node inside the merged stream.
#[test]
fn per_kernel_sequences_are_strictly_monotonic() {
    let h = crashy_harness();
    for (name, tp) in [("primary", h.primary_trace()), ("replica", h.replica_trace())] {
        let recs = tp.records();
        assert!(!recs.is_empty(), "{name} must have traced");
        for w in recs.windows(2) {
            assert!(w[0].seq < w[1].seq, "{name} seq not strictly monotonic");
        }
    }
    let merged = h.merged_trace();
    assert_eq!(merged.cut(), 0, "unwrapped rings cut no causal parent");
    let mut last = std::collections::BTreeMap::new();
    for m in merged.records() {
        if let Some(&prev) = last.get(&m.node) {
            assert!(m.rec.seq > prev, "merged stream broke {}'s seq order", m.node);
        }
        last.insert(m.node, m.rec.seq);
    }
    assert_eq!(last.len(), 2, "both kernels appear in the merge");
}

/// The merge is a total order: either argument order produces a
/// byte-identical stream.
#[test]
fn merge_is_stable_under_argument_order() {
    let h = crashy_harness();
    let (p, r) = (h.primary_trace().as_ref(), h.replica_trace().as_ref());
    let (ab, ba) = (TracePlane::merge_streams(&[p, r]), TracePlane::merge_streams(&[r, p]));
    assert_eq!((ab.cut(), ba.cut()), (0, 0), "unwrapped rings cut no causal parent");
    assert_eq!(ab.serialize(), ba.serialize(), "merge_streams must not depend on argument order");
}

/// On rings too small for the run, the merge still checks causal order
/// over the retained window: it tolerates only children whose parent
/// the minting node evicted, and counts them. Each node's stream is
/// replayed, stamps and contexts intact, into a 64-record ring.
#[test]
fn small_rings_cut_only_evicted_parents() {
    let h = crashy_harness();
    let small: Vec<Rc<TracePlane>> = [h.primary_trace(), h.replica_trace()]
        .into_iter()
        .map(|tp| {
            let ring = TracePlane::with_node(Rc::clone(h.clock()), 64, tp.node());
            for r in tp.records() {
                ring.set_ctx(r.ctx);
                ring.emit_stamped(&[(r.at, r.event)]);
            }
            ring
        })
        .collect();
    assert!(small[0].stats().dropped > 0, "the primary's ring must wrap");
    let merged = TracePlane::merge_streams(&[&small[0], &small[1]]);
    assert!(merged.cut() > 0, "the replica's applies cite evicted primary spans");
    assert!(merged.cut() < merged.records().len());
}

/// The merged cross-kernel stream — crash and reboot included — is a
/// pure function of the seed, pinned as a golden, and its rendered
/// multi-node timeline is pinned alongside it.
#[test]
fn merged_stream_replays_byte_identically_and_matches_golden() {
    let a = crashy_harness();
    let b = crashy_harness();
    let (ma, mb) = (a.merged_trace(), b.merged_trace());
    assert_eq!((ma.cut(), mb.cut()), (0, 0), "unwrapped rings cut no causal parent");
    let (sa, sb) = (ma.serialize(), mb.serialize());
    assert_eq!(sa, sb, "same-seed merged streams diverged");
    golden::check("causal_merged.trace", &sa);
    let opts = TimelineOpts { width: 72, ..TimelineOpts::default() };
    let ta =
        render_merged_timeline(&[a.primary_trace().as_ref(), a.replica_trace().as_ref()], &opts);
    let tb =
        render_merged_timeline(&[b.primary_trace().as_ref(), b.replica_trace().as_ref()], &opts);
    assert_eq!(ta, tb, "same-seed merged timelines diverged");
    golden::check("causal_merged.timeline", &ta);
}

/// The acceptance contract for lag attribution: the per-hop breakdown
/// partitions the oldest unacked record's age exactly, and its total
/// equals — byte for byte — both the harness's cycles-valued lag age
/// and the watch plane's replication-lag-age gauge observed in the
/// same ship round, with the attempt counts reconciled against the
/// metrics ledger.
#[test]
fn lag_path_breakdown_sums_exactly_to_the_lag_gauge() {
    let mut h = ReplHarness::new(SEED ^ 0xFF, ReplConfig { window: 2, ..Default::default() });
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplAckLoss, 1, 1);
    h.run(6);
    assert!(h.lag() > 0, "a stalled ack path must leave unacked records");

    let report = lag_path(&h).expect("lag > 0 must produce a path");
    assert_eq!(report.seq, h.acked() + 1, "the path targets the oldest unacked record");
    let hop_sum: u64 = report.hops.iter().map(|hop| hop.cycles.0).sum();
    assert_eq!(hop_sum, report.total.0, "hops must partition the record's age");
    assert_eq!(report.total, h.repl_lag_age(), "trace-walk total != ledger-derived age");
    assert_eq!(
        report.total,
        h.watch_plane().repl_lag_age(),
        "trace-walk total != watch plane's replication-lag-age gauge"
    );

    // Ledger reconciliation: the walker's per-seq attempt counts are
    // bounded by the global counters, and the shipping snapshot agrees
    // with the harness cursors.
    let ships = h.metrics_plane().get(Counter::ReplShips);
    let drops = h.metrics_plane().get(Counter::ReplFrameDrops);
    assert!(report.ships <= ships, "per-seq ships exceed the ledger");
    assert!(report.drops <= drops, "per-seq drops exceed the ledger");
    let state = h.shipping_state();
    assert_eq!(state.lag, h.lag());
    assert_eq!(state.last_acked, h.acked());
    assert_eq!(state.applied, h.applied());
    assert_eq!(state.in_flight, h.lag().min(state.window));
    assert_eq!(state.retransmits, h.metrics_plane().get(Counter::ReplRetransmits));

    // And the whole attribution replays byte-identically.
    let replay = {
        let mut h2 = ReplHarness::new(SEED ^ 0xFF, ReplConfig { window: 2, ..Default::default() });
        let plane = Rc::clone(h2.fault_plane());
        plane.set_rate(FaultSite::ReplAckLoss, 1, 1);
        h2.run(6);
        lag_path(&h2).expect("same seed, same lag").render()
    };
    assert_eq!(report.render(), replay, "same-seed lag paths diverged");
}
