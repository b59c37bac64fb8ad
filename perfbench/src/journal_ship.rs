//! `journal_ship`: the file-system write side and the replication
//! layer, with the VM idle.
//!
//! A `ReplHarness` (primary, replica, its usual planes) takes seeded,
//! unaligned writes of 64 B–4 KB to a primary file that fits in the
//! buffer cache, with a `ship_round` after every second write over a
//! wire with a low, fixed, seeded frame-drop and ack-loss rate. After
//! the load the wire heals and the benchmark drains to lag 0, compares
//! the replica's committed state with the primary's, then crashes the
//! primary right after the commit of one last write and times
//! remounting its image (`recover_ms`). One op is one write; its
//! latency runs to the return of the ship round that follows it.

use std::collections::VecDeque;
use std::rc::Rc;

use vino::fs::FsError;
use vino::repl::{committed_state_fingerprint, ReplConfig, ReplHarness};
use vino::sim::fault::FaultSite;
use vino::sim::metrics::Counter;
use vino::sim::{Cycles, SplitMix64};

use crate::harness::{host_ns, Fnv, Layer, Round, Samples, Tracer};
use crate::{fs_rows, fs_snap, remount, LedgerSnap};

/// Primary file size: 64 blocks, well inside the 256-block cache.
const FILE_BYTES: u64 = 64 * 4096;
/// Drain rounds after which a healed wire counts as wedged.
const DRAIN_LIMIT: u64 = 10_000;

/// Draws one write: `(offset, bytes)`.
fn draw_write(rng: &mut SplitMix64, inputs: &mut Fnv) -> (u64, Vec<u8>) {
    let len = rng.range(64, 4097);
    let off = rng.below(FILE_BYTES - len);
    let fill = rng.next_u64();
    let data: Vec<u8> = (0..len).map(|i| (fill >> ((i % 8) * 8)) as u8 ^ i as u8).collect();
    inputs.mix(off);
    inputs.mix(len);
    inputs.mix(fill);
    (off, data)
}

/// One round of `writes` ops.
pub fn round(seed: u64, writes: u64, tr: &mut Tracer) -> Round {
    let mut r = Round::default();
    let mut rng = SplitMix64::new(seed ^ 0x7E91_0C4A);
    let mut inputs = Fnv::default();
    let drop_den = rng.range(40, 80);
    let ack_den = rng.range(40, 80);
    inputs.mix(drop_den);
    inputs.mix(ack_den);

    let t0 = host_ns();
    let mut h = ReplHarness::new(seed, ReplConfig::default());
    let fault = Rc::clone(h.fault_plane());
    let p = Rc::clone(h.primary());
    let fd = {
        let mut fs = p.fs.borrow_mut();
        fs.create("ship.dat", FILE_BYTES).expect("fresh volume");
        fs.open("ship.dat").expect("just created")
    };
    fault.set_rate(FaultSite::ReplShipDrop, 1, drop_den);
    fault.set_rate(FaultSite::ReplAckLoss, 1, ack_den);
    r.setup_ns = host_ns() - t0;

    let clock = Rc::clone(h.clock());
    let mut model = vec![0u8; FILE_BYTES as usize];
    let fs0 = fs_snap(&p);
    let led0 = LedgerSnap::of(h.metrics_plane(), &[h.primary_trace(), h.replica_trace()]);
    let region0 = clock.now();
    let mut pending: VecDeque<(u64, Cycles)> = VecDeque::new();
    let mut lags = Samples::default();
    let mut settle = |h: &ReplHarness, pending: &mut VecDeque<(u64, Cycles)>| {
        while pending.front().is_some_and(|&(seq, _)| seq <= h.acked()) {
            let (_, at) = pending.pop_front().expect("checked");
            lags.push(clock.since(at).get(), 1);
        }
    };
    let (mut virt, mut user_bytes, mut done) = (0u64, 0u64, 0u64);
    while done < writes {
        let pair: Vec<(u64, Vec<u8>)> =
            (0..(writes - done).min(2)).map(|_| draw_write(&mut rng, &mut inputs)).collect();
        let op = tr.begin_op();
        let v0 = clock.now();
        let mut starts = Vec::with_capacity(2);
        for (off, data) in &pair {
            starts.push(host_ns());
            let res = tr.call(Layer::FsWrite, || {
                std::hint::black_box(p.fs.borrow_mut().write(fd, *off, std::hint::black_box(data)))
            });
            match res {
                Ok(()) => {
                    model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
                    pending.push_back((p.fs.borrow().last_committed_seq(), clock.now()));
                }
                Err(e) => r.fail(format!("write at {off} failed: {e:?}")),
            }
        }
        tr.call(Layer::ShipRound, || std::hint::black_box(h.ship_round()));
        let ends: Vec<u64> = starts.iter().map(|s| host_ns() - s).collect();
        let ns = tr.end_op(op);
        virt += clock.since(v0).get();
        r.busy.push(ns, pair.len() as u64);
        r.lat.push(ns, 1);
        for &e in &ends[1..] {
            r.lat.push(e, 1);
        }
        settle(&h, &mut pending);
        done += pair.len() as u64;
        user_bytes += pair.iter().map(|(_, d)| d.len() as u64).sum::<u64>();
    }
    let region = clock.since(region0);

    // Heal the wire and drain to lag 0.
    fault.set_rate(FaultSite::ReplShipDrop, 0, 1);
    fault.set_rate(FaultSite::ReplAckLoss, 0, 1);
    let mut drain_rounds = 0u64;
    while h.lag() > 0 && drain_rounds < DRAIN_LIMIT {
        h.ship_round();
        drain_rounds += 1;
    }
    settle(&h, &mut pending);
    if h.lag() > 0 {
        r.fail(format!("replication still lags {} records after the drain", h.lag()));
    }
    if committed_state_fingerprint(&p.crash_image())
        != committed_state_fingerprint(&h.replica().crash_image())
    {
        r.fail("the replica's committed state differs from the primary's".to_string());
    }

    let d = &mut r.det;
    d.insert("virt_us_per_op", Cycles(virt).as_us() / writes as f64);
    fs_rows(&p, &fs0, writes, user_bytes, region, d);
    let led = LedgerSnap::of(h.metrics_plane(), &[h.primary_trace(), h.replica_trace()]);
    led.rows_since(&led0, writes, d);
    let mp = h.metrics_plane();
    d.insert(
        "repl.retransmit_share",
        mp.get(Counter::ReplRetransmits) as f64 / mp.get(Counter::ReplShips).max(1) as f64,
    );
    d.insert("repl.ack_lag_p99_virt_us", Cycles(lags.quantile(0.99).0).as_us());
    d.insert("repl.drain_rounds", drain_rounds as f64);

    // Crash the primary right after one last write commits: recovery
    // must roll it forward.
    let (off, data) = draw_write(&mut rng, &mut inputs);
    fault.arm(
        FaultSite::KernelCrashAfterCommit,
        fault.visits(FaultSite::KernelCrashAfterCommit) + 1,
    );
    match p.fs.borrow_mut().write(fd, off, &data) {
        Err(FsError::PowerFailure) => {
            model[off as usize..off as usize + data.len()].copy_from_slice(&data)
        }
        other => r.fail(format!("the armed crash point did not fire: {other:?}")),
    }
    r.inputs = inputs.get();
    match remount(&p.crash_image(), 5) {
        Ok((times, rk)) => {
            r.recover_ns = times;
            let rep = rk.recovery_report().expect("booted from an image");
            r.det.insert("fs.replayed_blocks", rep.replayed_blocks as f64);
            let mut fs = rk.fs.borrow_mut();
            let got = fs.open("ship.dat").and_then(|fd| fs.read(fd, 0, FILE_BYTES));
            if got.as_deref() != Ok(model.as_slice()) {
                r.fail("the recovered image's committed state differs from the writes".to_string());
            }
        }
        Err(e) => r.fail(e),
    }
    r.ops = writes;
    r
}
