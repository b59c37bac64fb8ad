//! The machine-readable bench census: `vino-bench census [--json]`.
//!
//! Seven sweeps, each also emitted as a `BENCH_<name>.json` file when
//! `--json` is passed (hand-rolled serialization — the census has no
//! dependency beyond `std`):
//!
//! - `netfilter` — µs/packet for the batched safe filter path across
//!   the amortization sweep ([`netfilter::BATCH_SWEEP`]), extracted
//!   from the same [`crate::render::PathTable`] the paper-table run
//!   renders.
//! - `storm` — virtual µs/packet, delivered and dropped for 1M packets
//!   of the seeded packet storm ([`STORM_SEED`]) at filter batch sizes
//!   1, 8, 32 and 128, in deterministic virtual time.
//! - `planes` — wall-clock ns/op for the observability hot paths:
//!   trace emit (with and without a causal context), span minting, a
//!   metrics counter bump, the `Obs` funnel's `emit` (trace record
//!   plus derived counter) and `bill` (clock plus both ledgers), and
//!   the watch plane's invocation observation and poll. These are host
//!   measurements, not virtual cycles, so the JSON is a snapshot
//!   rather than a golden.
//! - `repl_window` — the replication window sweep: shipped frames,
//!   retransmissions, drops, and drain rounds to convergence at each
//!   window size over a lossy wire, all in deterministic virtual time.
//! - `checksum` — wall-clock ns/KB for the journal's `checksum64` over
//!   a data block and over a zero block, and ns per payload KB to cut a
//!   3-block journal record into replication fragments and reassemble
//!   it into a verified record. Host measurements, like `planes`.
//! - `vm` — wall-clock ns per retired GraftVM instruction on the
//!   MiSFIT-instrumented Table 6 encryption graft, bare and with the
//!   fault, trace, metrics and profile planes bound, plus ns per
//!   `vm.sfi` record handed to the trace plane in one batch. Host
//!   measurements, like `planes`.
//! - `post_mortem` — wall-clock ns per flight-recorder snapshot
//!   (`record_post_mortem`, the default 32-record window) on full,
//!   wrapped rings of 1 Ki and 16 Ki records, and ns per
//!   `post_mortem()` read, which renders the window's lines. Host
//!   measurements, like `planes`.

use std::rc::Rc;
use std::time::Instant;

use vino_fs::layout::{block_checksums, checksum64};
use vino_fs::{JournalRecord, VerifiedRecord, BLOCK_SIZE};
use vino_repl::{fragment, Reassembler, ReplConfig, ReplHarness};
use vino_sim::clock::VirtualClock;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter, MetricsPlane};
use vino_sim::obs::Obs;
use vino_sim::profile::ProfilePlane;
use vino_sim::trace::{
    AbortKind, CauseCtx, SpanId, TraceEvent, TracePlane, DEFAULT_POST_MORTEM_WINDOW,
};
use vino_sim::Cycles;

use vino_core::{hostfn, InstallOpts, Kernel};
use vino_dev::Port;
use vino_misfit::instrument;
use vino_net::{Packet, PacketPlane};
use vino_rm::{Limits, ResourceKind};
use vino_sim::fault::FaultPlane;
use vino_sim::obs::Planes;
use vino_sim::trace::SfiKind;
use vino_sim::watch::WatchPlane;
use vino_sim::SplitMix64;
use vino_vm::interp::{Exit, NullKernel, Vm};
use vino_vm::mem::{AddressSpace, Protection};

use crate::{netfilter, table6};

/// One emitted census: a table for stdout and a JSON document.
#[derive(Debug, Clone)]
pub struct Census {
    /// Short name — the JSON lands in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Human-readable rendering.
    pub text: String,
    /// The JSON document.
    pub json: String,
}

impl Census {
    /// The file name the `--json` flag writes.
    pub fn json_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// A minimal JSON writer: objects of string/number pairs inside one
/// `rows` array. Numbers are emitted as-is; strings are quoted with
/// the only escapes our labels can need.
fn json_doc(name: &str, unit: &str, rows: &[Vec<(&str, String)>]) -> String {
    let mut out = format!("{{\n  \"name\": \"{name}\",\n  \"unit\": \"{unit}\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (k, v)) in row.iter().enumerate() {
            out.push_str(&format!("\"{k}\": {v}"));
            if j + 1 < row.len() {
                out.push_str(", ");
            }
        }
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The µs/packet batch-amortization census, from the same measurement
/// run that renders the packet-filter paper table.
pub fn netfilter_census(reps: usize) -> Census {
    let table = netfilter::run(reps);
    let mut rows = Vec::new();
    let mut text = String::from(
        "batch | us/packet (safe filter path)\n------+------------------------------\n",
    );
    for r in &table.rows {
        let Some(rest) = r.label.strip_prefix("Batched safe path (n=") else { continue };
        let Some(n) = rest.split(',').next().and_then(|n| n.parse::<usize>().ok()) else {
            continue;
        };
        let us = r.elapsed_us.expect("batch rows are path rows");
        text.push_str(&format!("{n:>5} | {us:.3}\n"));
        rows.push(vec![("batch", n.to_string()), ("us_per_packet", format!("{us:.3}"))]);
    }
    assert_eq!(rows.len(), netfilter::BATCH_SWEEP.len(), "sweep rows missing from the table");
    Census { name: "netfilter", text, json: json_doc("netfilter", "us_per_packet", &rows) }
}

/// The packet-storm seed, the one `ci.sh` pins the storm battery to.
pub const STORM_SEED: u64 = 3_405_691_582;

/// Runs `n` packets through the plane at the given filter batch size,
/// returning (virtual us total, delivered, dropped-by-verdict).
fn storm(n: u64, batch: usize) -> (f64, u64, u64) {
    let kernel = Kernel::boot();
    let app = kernel.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    let thread = kernel.spawn_thread("storm-bench");
    let plane = PacketPlane::new(Rc::clone(&kernel));
    plane.set_batch(batch);

    let well = kernel
        .compile_graft(
            "well-drop-odd",
            "andi r5, r3, 1\nbne r5, r0, t\nhalt r0\nt: const r5, 1\nhalt r5",
        )
        .expect("the drop-odd filter compiles");
    let opts = InstallOpts::default();
    plane.install_filter(Port(10), &well, app, thread, &opts).expect("fresh port");
    let spin = kernel.compile_graft("spin-filter", "spin: jmp spin").expect("the spinner compiles");
    let g = plane.install_filter(Port(20), &spin, app, thread, &opts).expect("fresh port");
    g.borrow_mut().max_slices = 4;
    for p in 0..8u16 {
        plane.open_port(Port(60 + p), 1024);
    }

    let mut rng = SplitMix64::new(STORM_SEED);
    let t0 = kernel.clock.now();
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for i in 0..n {
        let r = rng.below(100);
        let port = match r {
            0..=69 => Port(60 + rng.below(8) as u16),
            70..=95 => Port(10),
            _ => Port(20),
        };
        let src = rng.next_u64() as u32;
        plane.rx(Packet::udp(src, 1, port, vec![0xA5; 16]));
        if i % 512 == 511 {
            let s = plane.pump();
            delivered += s.accepted;
            dropped += s.dropped;
            for p in plane.open_ports() {
                plane.drain_delivered(p);
            }
        }
    }
    let s = plane.pump();
    delivered += s.accepted;
    dropped += s.dropped;
    let us = kernel.clock.since(t0).as_us();
    (us, delivered, dropped)
}

/// The packet-storm census: `n` packets through a mixed filter
/// population (a well-behaved drop-odd filter, a hostile spinner that
/// dies in its first batch, bulk default traffic) at each filter batch
/// size, in deterministic virtual time. Batching changes the cost per
/// packet, never which packets are delivered or dropped.
pub fn storm_census(n: u64) -> Census {
    let mut text = format!(
        "{n} packets, seed {STORM_SEED}\n{:<10} {:>14} {:>12} {:>12} {:>14}\n",
        "batch", "virtual us", "delivered", "dropped", "us/packet"
    );
    let mut rows = Vec::new();
    for batch in [1usize, 8, 32, 128] {
        let (us, delivered, dropped) = storm(n, batch);
        let per = us / n as f64;
        text.push_str(&format!(
            "{batch:<10} {us:>14.0} {delivered:>12} {dropped:>12} {per:>14.3}\n"
        ));
        rows.push(vec![
            ("batch", batch.to_string()),
            ("virtual_us", format!("{us:.0}")),
            ("delivered", delivered.to_string()),
            ("dropped", dropped.to_string()),
            ("us_per_packet", format!("{per:.3}")),
        ]);
    }
    Census { name: "storm", text, json: json_doc("storm", "virtual_us", &rows) }
}

/// Wall-clock ns/op for one hot-path closure.
fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    // One warmup pass keeps first-touch allocation out of the clock.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A host-clock census: one `op | value` line and one JSON row per op,
/// each value printed to `precision` decimals.
fn host_census(name: &'static str, unit: &str, precision: usize, ops: &[(&str, f64)]) -> Census {
    let w = ops.iter().map(|(op, _)| op.len()).max().unwrap_or(0);
    let head = format!("{unit} (host wall clock)");
    let mut text =
        format!("{:<w$} | {head}\n{}-+-{}\n", "op", "-".repeat(w), "-".repeat(head.len()));
    let mut rows = Vec::new();
    for (op, ns) in ops {
        text.push_str(&format!("{op:<w$} | {ns:.precision$}\n"));
        rows.push(vec![("op", json_str(op)), ("ns", format!("{ns:.precision$}"))]);
    }
    Census { name, text, json: json_doc(name, unit, &rows) }
}

/// The observability hot-path census: ns per trace emit / span mint /
/// counter bump, measured in host time.
pub fn planes_census() -> Census {
    const ITERS: u64 = 200_000;
    let clock = VirtualClock::new();
    // Capacity beyond ITERS would defeat the ring; a small ring keeps
    // the bench honest about the steady-state (evicting) emit path.
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 12);
    let metrics = MetricsPlane::new(Rc::clone(&clock));
    let ctx = tp.mint_span(SpanId::NONE);
    let mut ops: Vec<(&str, f64)> = Vec::new();
    ops.push(("trace_emit", ns_per_op(ITERS, || tp.emit(TraceEvent::NetRx { port: 80, len: 64 }))));
    ops.push((
        "trace_emit_with_ctx",
        ns_per_op(ITERS, || tp.emit_with_ctx(TraceEvent::NetRx { port: 80, len: 64 }, ctx)),
    ));
    ops.push((
        "mint_span",
        ns_per_op(ITERS, || {
            let c = tp.mint_span(ctx.span);
            std::hint::black_box(c);
        }),
    ));
    ops.push((
        "ctx_wire_roundtrip",
        ns_per_op(ITERS, || {
            let bytes = ctx.to_bytes();
            std::hint::black_box(CauseCtx::from_bytes(&bytes));
        }),
    ));
    // The plane goes through `black_box` every iteration: a counter
    // bump is one `Cell` add, which the optimizer would otherwise fold
    // out of the loop and report as 0.0 ns.
    ops.push((
        "metrics_inc",
        ns_per_op(ITERS, || std::hint::black_box(&metrics).inc(Counter::ReplShips)),
    ));
    // The funnel, with trace and metrics attached: one emit writes the
    // record and derives its counter; one bill charges the clock and
    // both ledgers. The handle is black-boxed like the planes above.
    let obs = Obs::new(Rc::clone(&clock));
    obs.attach_trace(Rc::clone(&tp)).expect("fresh handle");
    obs.attach_metrics(Rc::clone(&metrics)).expect("fresh handle");
    obs.attach_profile(ProfilePlane::new(Rc::clone(&clock))).expect("fresh handle");
    ops.push((
        "obs_emit",
        ns_per_op(ITERS, || {
            std::hint::black_box(&obs).emit(TraceEvent::NetRx { port: 80, len: 64 })
        }),
    ));
    ops.push((
        "obs_bill",
        ns_per_op(ITERS, || std::hint::black_box(&obs).bill(Component::Lock, Cycles(1))),
    ));
    // The watch plane: one invocation into a warmed principal's
    // windows, and one poll over every rule.
    let wp = WatchPlane::new(Rc::clone(&clock));
    wp.touch_principal(1);
    ops.push((
        "watch_observe_invoke",
        ns_per_op(ITERS, || std::hint::black_box(&wp).observe_invoke(1, Cycles(100))),
    ));
    ops.push(("watch_poll", ns_per_op(ITERS, || std::hint::black_box(&wp).poll())));
    host_census("planes", "ns_per_op", 1, &ops)
}

/// The journal checksum census: ns per KB hashed by [`checksum64`]
/// over a data block and a zero block, and ns per payload KB for a
/// 3-block record's wire round trip ([`fragment`], then
/// [`Reassembler::accept`] up to the verified record), measured in
/// host time.
pub fn checksum_census() -> Census {
    const ITERS: u64 = 5_000;
    let kb = |bytes: usize| bytes as f64 / 1024.0;
    let mut data = [0u8; BLOCK_SIZE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for byte in &mut data {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *byte = x as u8;
    }
    let zero = [0u8; BLOCK_SIZE];
    let payloads = vec![data, data.map(|b| b.rotate_left(3)), data.map(|b| b.rotate_left(5))];
    let entries = (100..).zip(block_checksums(&payloads)).collect();
    let rec = VerifiedRecord::verify(JournalRecord { seq: 1, entries, payloads })
        .expect("the sums were just computed");
    // Inputs and sums go through `black_box`, so the optimizer can
    // neither hash a constant block once nor drop an unused sum.
    let ops = [
        (
            "checksum64_data_block",
            ns_per_op(ITERS, || {
                std::hint::black_box(checksum64(std::hint::black_box(&data)));
            }) / kb(BLOCK_SIZE),
        ),
        (
            "checksum64_zero_block",
            ns_per_op(ITERS, || {
                std::hint::black_box(checksum64(std::hint::black_box(&zero)));
            }) / kb(BLOCK_SIZE),
        ),
        (
            "repl_frame_round_trip",
            ns_per_op(ITERS / 5, || {
                let frags = fragment(std::hint::black_box(&rec), CauseCtx::NONE);
                let mut r = Reassembler::new();
                let done = frags.iter().filter_map(|f| r.accept(f)).next();
                assert!(done.is_some(), "a clean record must reassemble");
                std::hint::black_box(done);
            }) / kb(3 * BLOCK_SIZE),
        ),
    ];
    host_census("checksum", "ns_per_kb", 1, &ops)
}

/// The GraftVM census: ns per retired instruction on the instrumented
/// Table 6 graft encrypting 8 KB, with no plane and with every plane
/// the VM reports to, and ns per `vm.sfi` record in a 128-record
/// trace batch, measured in host time.
pub fn vm_census() -> Census {
    const RUNS: u64 = 40;
    const BATCH: u64 = 128;
    let clock = VirtualClock::new();
    let src = assemble_table6();
    let bare = table6_ns_per_instr(&clock, Planes::new(Rc::clone(&clock)), &src, RUNS);
    let planes = Planes::new(Rc::clone(&clock));
    planes.attach_fault(FaultPlane::seeded(0)).expect("fresh planes");
    planes.attach_trace(TracePlane::with_capacity(Rc::clone(&clock), 1 << 12)).expect("fresh");
    planes.attach_metrics(MetricsPlane::new(Rc::clone(&clock))).expect("fresh planes");
    planes.attach_profile(ProfilePlane::new(Rc::clone(&clock))).expect("fresh planes");
    let planed = table6_ns_per_instr(&clock, planes, &src, RUNS);
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 12);
    let batch: Vec<(Cycles, TraceEvent)> = (0..BATCH)
        .map(|pc| (Cycles(pc), TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc }))
        .collect();
    let record =
        ns_per_op(20_000, || std::hint::black_box(&tp).emit_stamped(&batch)) / BATCH as f64;
    let ops = [
        ("table6_bare_ns_per_instr", bare),
        ("table6_planes_ns_per_instr", planed),
        ("sfi_batch_ns_per_record", record),
    ];
    host_census("vm", "ns", 2, &ops)
}

/// The flight-recorder census: ns per abort snapshot on full, wrapped
/// rings of two sizes (the snapshot should cost the same on both: it
/// copies the window, not the ring), and ns per post-mortem read,
/// measured in host time.
pub fn post_mortem_census() -> Census {
    const ITERS: u64 = 20_000;
    let wrapped = |cap: usize| {
        let tp = TracePlane::with_capacity(VirtualClock::new(), cap);
        let g = tp.tag("victim");
        // Half a window past a full ring: the snapshot window straddles
        // the wrap point.
        for i in 0..cap + DEFAULT_POST_MORTEM_WINDOW / 2 {
            tp.emit(TraceEvent::UndoPush { thread: 1, depth: i as u64 });
        }
        tp.emit(TraceEvent::GraftAbort { graft: g, kind: AbortKind::Trap });
        tp
    };
    let snapshot = |tp: &TracePlane| {
        ns_per_op(ITERS, || {
            std::hint::black_box(tp).record_post_mortem(
                "victim",
                AbortKind::Trap,
                1,
                4,
                Cycles(5_400),
            )
        })
    };
    let (small, large) = (wrapped(1 << 10), wrapped(1 << 14));
    let ops = [
        ("post_mortem_ring_1k_ns", snapshot(&small)),
        ("post_mortem_ring_16k_ns", snapshot(&large)),
        (
            "post_mortem_read_ns",
            ns_per_op(ITERS, || {
                std::hint::black_box(std::hint::black_box(&large).post_mortem());
            }),
        ),
    ];
    host_census("post_mortem", "ns_per_op", 1, &ops)
}

/// The MiSFIT-instrumented Table 6 encryption graft.
fn assemble_table6() -> vino_vm::isa::Program {
    let raw = vino_vm::assemble("table6", table6::ENCRYPT_GRAFT_SRC, &hostfn::symbols())
        .expect("the Table 6 graft assembles");
    instrument(&raw).expect("the Table 6 graft instruments").0
}

/// Host ns per retired instruction of `prog` encrypting 8 KB on a VM
/// bound to `planes` (a profile plane gets the graft registered).
fn table6_ns_per_instr(
    clock: &Rc<VirtualClock>,
    planes: Planes,
    prog: &vino_vm::isa::Program,
    runs: u64,
) -> f64 {
    let payload = table6::PAYLOAD as u64;
    let mem = AddressSpace::new(32 * 1024, 64, Protection::Sfi);
    let base = mem.seg_base();
    let mut vm = Vm::new(mem);
    let ptag = planes.profile().map(|pp| {
        let tag = pp.tag("table6");
        pp.register_program(tag, prog.instrs.len());
        tag
    });
    vm.bind(planes, ptag);
    vm.load(prog.clone());
    let mut instrs = 0;
    let ns = ns_per_op(runs, || {
        vm.reset();
        vm.regs[1..4].copy_from_slice(&[base + 4096, base + 4096 + payload, payload]);
        let mut fuel = u64::MAX;
        let exit = std::hint::black_box(&mut vm).run(&mut NullKernel, clock, &mut fuel);
        assert_eq!(exit, Exit::Halted(0), "the Table 6 graft halts");
        instrs = vm.stats.instrs;
    });
    ns / instrs as f64
}

/// One window-sweep row over a lossy wire, drained to convergence in
/// deterministic virtual time.
fn repl_window_row(seed: u64, steps: usize, window: u64) -> (u64, u64, u64, u64, u64) {
    let mut h = ReplHarness::new(seed, ReplConfig { window, ..Default::default() });
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplShipDrop, 1, 5);
    plane.set_rate(FaultSite::ReplAckLoss, 1, 5);
    let report = h.run(steps);
    plane.set_rate(FaultSite::ReplShipDrop, 0, 1);
    plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
    let mut drain_rounds = 0u64;
    while h.lag() > 0 {
        h.ship_round();
        drain_rounds += 1;
        assert!(drain_rounds <= 1024, "a healed wire must drain");
    }
    (report.shipped, report.retransmits, report.dropped, drain_rounds, h.acked())
}

/// The replication window sweep census.
pub fn repl_window_census(seed: u64, steps: usize) -> Census {
    let mut text = String::from(
        "window | shipped | retransmits | dropped | drain rounds | acked\n-------+---------+-------------+---------+--------------+------\n",
    );
    let mut rows = Vec::new();
    for window in [1u64, 2, 4, 8, 16] {
        let (shipped, retransmits, dropped, drain, acked) = repl_window_row(seed, steps, window);
        text.push_str(&format!(
            "{window:>6} | {shipped:>7} | {retransmits:>11} | {dropped:>7} | {drain:>12} | {acked:>5}\n"
        ));
        rows.push(vec![
            ("window", window.to_string()),
            ("shipped", shipped.to_string()),
            ("retransmits", retransmits.to_string()),
            ("dropped", dropped.to_string()),
            ("drain_rounds", drain.to_string()),
            ("acked", acked.to_string()),
        ]);
    }
    Census { name: "repl_window", text, json: json_doc("repl_window", "records", &rows) }
}

/// Runs all seven censuses; the storm sweep runs 1M packets.
pub fn run_all(reps: usize, seed: u64, steps: usize) -> Vec<Census> {
    vec![
        netfilter_census(reps),
        storm_census(1_000_000),
        planes_census(),
        repl_window_census(seed, steps),
        checksum_census(),
        vm_census(),
        post_mortem_census(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfilter_census_has_one_row_per_sweep_point() {
        let c = netfilter_census(3);
        assert_eq!(c.name, "netfilter");
        for n in netfilter::BATCH_SWEEP {
            assert!(c.json.contains(&format!("\"batch\": {n}")), "missing n={n}:\n{}", c.json);
        }
        assert!(c.json_file() == "BENCH_netfilter.json");
    }

    /// Asserts the host census `c` has exactly one row per op in
    /// `ops`, each reading more than 0 ns.
    fn assert_measures_every_op(c: &Census, ops: &[&str]) {
        for op in ops {
            assert!(c.json.contains(&format!("\"op\": \"{op}\"")), "missing {op}:\n{}", c.json);
        }
        // A row that reads 0.0 ns measured an optimized-away loop.
        let rows: Vec<f64> = c
            .json
            .lines()
            .filter_map(|l| l.split("\"ns\": ").nth(1))
            .map(|v| v.trim_end_matches(['}', ',']).parse().expect("ns is a number"))
            .collect();
        assert_eq!(rows.len(), ops.len(), "one ns row per op:\n{}", c.json);
        for ns in rows {
            assert!(ns > 0.0, "a census row reads {ns} ns:\n{}", c.text);
        }
    }

    #[test]
    fn planes_census_measures_every_hot_path() {
        assert_measures_every_op(
            &planes_census(),
            &[
                "trace_emit",
                "trace_emit_with_ctx",
                "mint_span",
                "ctx_wire_roundtrip",
                "metrics_inc",
                "obs_emit",
                "obs_bill",
                "watch_observe_invoke",
                "watch_poll",
            ],
        );
    }

    #[test]
    fn checksum_census_measures_every_path() {
        assert_measures_every_op(
            &checksum_census(),
            &["checksum64_data_block", "checksum64_zero_block", "repl_frame_round_trip"],
        );
    }

    #[test]
    fn vm_census_measures_every_row() {
        assert_measures_every_op(
            &vm_census(),
            &["table6_bare_ns_per_instr", "table6_planes_ns_per_instr", "sfi_batch_ns_per_record"],
        );
    }

    #[test]
    fn post_mortem_census_measures_every_row() {
        assert_measures_every_op(
            &post_mortem_census(),
            &["post_mortem_ring_1k_ns", "post_mortem_ring_16k_ns", "post_mortem_read_ns"],
        );
    }

    #[test]
    fn storm_census_is_deterministic_and_batching_never_changes_outcomes() {
        let a = storm_census(4_000);
        assert_eq!(a.json, storm_census(4_000).json, "virtual-time census must replay");
        // Each row's delivered/dropped tally, which must not depend on
        // the batch size.
        let tallies: Vec<&str> = a
            .json
            .lines()
            .filter_map(|l| {
                l.split_once("\"delivered\"")?.1.split_once(", \"us_per").map(|(t, _)| t)
            })
            .collect();
        assert_eq!(tallies.len(), 4, "one row per batch size:\n{}", a.json);
        assert!(tallies.iter().all(|t| *t == tallies[0]), "batching changed outcomes:\n{}", a.text);
        crate::golden::check("storm.census", &a.text);
    }

    #[test]
    fn repl_window_census_is_deterministic() {
        let a = repl_window_census(0xBE9C, 6);
        let b = repl_window_census(0xBE9C, 6);
        assert_eq!(a.json, b.json, "virtual-time census must replay byte-identically");
        assert!(a.json.contains("\"window\": 16"));
        crate::golden::check("repl_window.census", &a.text);
    }

    #[test]
    fn json_doc_shape_is_valid_enough() {
        let doc = json_doc("x", "u", &[vec![("a", "1".into())], vec![("a", "2".into())]]);
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert_eq!(doc.matches("{\"a\"").count(), 2);
        assert_eq!(doc.matches("},").count(), 1);
    }
}
