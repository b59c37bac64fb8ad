//! The replication convergence battery (`docs/REPLICATION.md`):
//! crash-point × loss-pattern cross-products over the
//! [`ReplHarness`], each proving crash-anywhere convergence.
//!
//! Every scenario drives the standard two-kernel workload with one
//! victim crash armed — the primary or the replica, landed on each of
//! the four PR 6 `KernelCrash*` points — under one of four wire
//! conditions (clean, frame drops, window reorders, ack loss). The
//! acceptance contract, asserted per scenario:
//!
//! - the replica's disk stays a byte-identical prefix of the primary's
//!   committed state (reconstructed on the harness's shadow volume),
//! - after failover the promoted replica's committed state is
//!   byte-identical to the dead (or surviving) primary's,
//! - and the whole two-kernel run — trace stream, metrics exposition,
//!   final images — replays byte-identically under the same seed.
//!
//! A stalled replica also has to be *noticed*: the last test pins the
//! `replication-lag` SLO's alert stream as a golden
//! (`tests/goldens/repl_stall.alerts`). Regenerate with
//! `UPDATE_GOLDENS=1 cargo test --test repl_battery`.

use std::rc::Rc;

use vino::repl::{committed_state_fingerprint, ReplConfig, ReplHarness};
use vino::sim::fault::{FaultSite, CRASH_SITES};
use vino_bench::golden;

/// Which node the scenario kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Victim {
    Primary,
    Replica,
}

/// Wire conditions the cross-product runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loss {
    Clean,
    Drops,
    Reorders,
    LostAcks,
}

const LOSSES: [Loss; 4] = [Loss::Clean, Loss::Drops, Loss::Reorders, Loss::LostAcks];

/// One scenario end to end. Returns a digest of the whole two-kernel
/// run for the same-seed replay check: the trace stream, the metrics
/// exposition, and the promoted image's committed-state fingerprint.
fn scenario(seed: u64, crash_site: FaultSite, loss: Loss, victim: Victim) -> (String, String, u64) {
    let cfg = ReplConfig { crash_site, ..Default::default() };
    let mut h = ReplHarness::new(seed, cfg);
    let plane = Rc::clone(h.fault_plane());
    match loss {
        Loss::Clean => {}
        Loss::Drops => plane.set_rate(FaultSite::ReplShipDrop, 1, 3),
        Loss::Reorders => plane.set_rate(FaultSite::ReplShipReorder, 1, 2),
        Loss::LostAcks => plane.set_rate(FaultSite::ReplAckLoss, 1, 2),
    }
    match victim {
        Victim::Primary => plane.arm(FaultSite::ReplPrimaryCrash, 4),
        Victim::Replica => plane.arm(FaultSite::ReplReplicaCrash, 2),
    }
    let report = h.run(10);
    match victim {
        Victim::Primary => {
            assert!(report.primary_died, "the armed primary crash must land ({crash_site:?})");
        }
        Victim::Replica => {
            assert_eq!(report.replica_crashes, 1, "the armed replica crash must land");
            assert_eq!(h.replica_reboots(), 1, "the dead replica reboots through recovery");
        }
    }
    // Mid-run: whatever the replica holds is a byte-identical prefix
    // of the primary's committed history.
    h.assert_replica_matches_committed_prefix();
    // Failover finishes replay, asserts byte-identical committed
    // state, and promotes the replica over `boot_from_image`.
    let promoted = h.failover();
    let fp_primary = committed_state_fingerprint(&h.primary().fs.borrow().disk_image());
    let fp_promoted = committed_state_fingerprint(&promoted.fs.borrow().disk_image());
    assert_eq!(
        fp_primary, fp_promoted,
        "promoted replica diverged ({crash_site:?}, {loss:?}, {victim:?})"
    );
    // The promoted kernel actually serves the replicated workload.
    let mut fs = promoted.fs.borrow_mut();
    let fd = fs.open("repl.dat").expect("the workload file survived failover");
    fs.read(fd, 0, 64).expect("and is readable");
    drop(fs);
    let digest = (h.merged_trace().serialize(), h.metrics_plane().expose(), fp_promoted);
    digest
}

/// The full cross-product: 4 crash points × 4 wire conditions × 2
/// victims, every combination converging to byte-identical committed
/// state, plus the byte-identical same-seed replay of each run.
#[test]
fn crash_point_by_loss_pattern_cross_product_converges() {
    for (i, &crash_site) in CRASH_SITES.iter().enumerate() {
        for (j, &loss) in LOSSES.iter().enumerate() {
            for (v, &victim) in [Victim::Primary, Victim::Replica].iter().enumerate() {
                let seed = 0x5EED_0000 + (i * 8 + j * 2 + v) as u64;
                let first = scenario(seed, crash_site, loss, victim);
                let replay = scenario(seed, crash_site, loss, victim);
                assert_eq!(
                    first, replay,
                    "same-seed replay diverged ({crash_site:?}, {loss:?}, {victim:?})"
                );
            }
        }
    }
}

/// Both directions of loss at once, with both victims armed in one
/// run: the replica dies early, recovers, and the primary dies later;
/// failover still converges byte-identically.
#[test]
fn double_fault_with_lossy_wire_still_converges() {
    let cfg = ReplConfig { crash_site: FaultSite::KernelCrashMidJournal, ..Default::default() };
    let mut h = ReplHarness::new(0xD0_0B_1E, cfg);
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplShipDrop, 1, 4);
    plane.set_rate(FaultSite::ReplAckLoss, 1, 3);
    plane.arm(FaultSite::ReplReplicaCrash, 2);
    plane.arm(FaultSite::ReplPrimaryCrash, 7);
    let report = h.run(12);
    assert_eq!(report.replica_crashes, 1);
    assert!(report.primary_died);
    h.assert_replica_matches_committed_prefix();
    let promoted = h.failover();
    assert_eq!(
        committed_state_fingerprint(&h.primary().fs.borrow().disk_image()),
        committed_state_fingerprint(&promoted.fs.borrow().disk_image()),
    );
}

// ---------------------------------------------------------------------
// Satellite: the stalled-replica SLO, golden-pinned.
// ---------------------------------------------------------------------

/// A replica that stops acking is a replica that stops replicating:
/// with every ack lost, the primary's unacked window climbs past the
/// `replication-lag` threshold and the SLO fires deterministically;
/// when the wire heals and the window drains, it resolves. The stream
/// is golden-pinned and byte-identical across same-seed replays.
#[test]
fn stalled_replica_fires_the_replication_lag_slo() {
    let run = || {
        let mut h = ReplHarness::new(0x57A1, ReplConfig { window: 2, ..Default::default() });
        let plane = Rc::clone(h.fault_plane());
        plane.set_rate(FaultSite::ReplAckLoss, 1, 1);
        h.run(8);
        assert!(h.lag() >= 8, "a stalled ack path must pile up unacked records");
        assert!(
            h.watch_plane().firing().iter().any(|r| r.0 == "replication-lag"),
            "the replication-lag SLO must fire"
        );
        // Heal the wire; the drain resolves the alert.
        plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
        for _ in 0..24 {
            if h.lag() == 0 {
                break;
            }
            h.ship_round();
        }
        assert_eq!(h.lag(), 0, "a healed wire drains the window");
        assert!(
            !h.watch_plane().firing().iter().any(|r| r.0 == "replication-lag"),
            "convergence resolves the alert"
        );
        h.watch_plane().serialize()
    };
    let stream = run();
    assert_eq!(stream, run(), "same-seed replays must be byte-identical");
    assert!(stream.contains("rule=replication-lag"), "the stream names the rule:\n{stream}");
    golden::check("repl_stall.alerts", &stream);
}
