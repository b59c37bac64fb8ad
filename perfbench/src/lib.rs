//! The VINO reproduction's benchmark: four seeded, single-threaded,
//! closed-loop workloads measured on two clocks.
//!
//! The *host clock* is wall time; the *virtual clock* is the kernel's
//! calibrated cycle model, deterministic for a seed. Every run reports
//! the same end-to-end metrics ([`END_TO_END`]) from an untraced pass;
//! a traced run adds the benchmark's own layer spans and reports
//! [`PER_LAYER`]. See `README.md` beside this crate for the op
//! definitions and the metric → layer → workload table.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use vino::core::kernel::KernelConfig;
use vino::core::Kernel;
use vino::dev::DiskImage;
use vino::sim::metrics::{Component, Counter, MetricsPlane};
use vino::sim::profile::ProfilePlane;
use vino::sim::trace::{TraceEvent, TracePlane};
use vino::sim::watch::WatchPlane;
use vino::sim::{Cycles, VirtualClock};
use vino::FaultPlane;

pub mod graft_io;
pub mod harness;
pub mod hostile_churn;
pub mod journal_ship;
pub mod rx_storm;

use harness::{median, peak_rss_mib, run_passes, Layer, Pass, PassSpec, SpanSummary, Tracer};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["rx_storm", "graft_io", "journal_ship", "hostile_churn"];

/// End-to-end metrics: `(name, unit)`, reported by every workload
/// from its untraced pass.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("virt_us_per_op", "us"),
    ("served_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("recover_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`, reported by every workload from
/// its traced run. A row whose layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.rx_ns", "ns"),
    ("net.pump_ns_per_pkt", "ns"),
    ("net.pkts_per_dispatch", "count"),
    ("net.shed_share", "ratio"),
    ("net.fallback_share", "ratio"),
    ("net.ring_depth_max", "count"),
    ("vm.instrs_per_op", "count"),
    ("vm.ns_per_instr", "ns"),
    ("sfi.checks_per_op", "count"),
    ("sfi.virt_share", "ratio"),
    ("misfit.install_us", "us"),
    ("txn.virt_us_per_op", "us"),
    ("txn.abort_share", "ratio"),
    ("txn.undo_runs_per_kop", "count"),
    ("core.invoke_us", "us"),
    ("core.refusal_share", "ratio"),
    ("rm.denials_per_kop", "count"),
    ("fs.read_us", "us"),
    ("fs.write_us", "us"),
    ("fs.cache_hit_share", "ratio"),
    ("fs.prefetch_waste_share", "ratio"),
    ("fs.replayed_blocks", "count"),
    ("disk.reads_per_op", "count"),
    ("disk.writes_per_op", "count"),
    ("disk.write_amp", "ratio"),
    ("disk.busy_share", "ratio"),
    ("repl.ship_round_us", "us"),
    ("repl.retransmit_share", "ratio"),
    ("repl.ack_lag_p99_virt_us", "us"),
    ("repl.drain_rounds", "count"),
    ("obs.rx_overhead_ns_per_pkt", "ns"),
    ("obs.record_pc_ns", "ns"),
    ("obs.emit_ns", "ns"),
    ("obs.metrics_inc_ns", "ns"),
    ("obs.trace_records_per_op", "count"),
    ("bench.unattributed_share", "ratio"),
    ("bench.span_overhead_share", "ratio"),
];

/// Per-layer rows measured on the host clock, with the layer whose
/// calls they time. Each must read > 0 on a workload that calls it.
const HOST_ROWS: [(&str, Layer); 8] = [
    ("net.rx_ns", Layer::NetRx),
    ("net.pump_ns_per_pkt", Layer::NetPump),
    ("vm.ns_per_instr", Layer::Transform),
    ("misfit.install_us", Layer::Install),
    ("core.invoke_us", Layer::Invoke),
    ("fs.read_us", Layer::FsRead),
    ("fs.write_us", Layer::FsWrite),
    ("repl.ship_round_us", Layer::ShipRound),
];

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size: rounds large enough that the virtual
    /// metrics settle across seeds.
    Full,
    /// A few ops per round, for the self-test.
    Tiny,
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// Host seconds the run measures for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Round size.
    pub scale: Scale,
}

impl Config {
    fn min_rounds(&self) -> u64 {
        match self.scale {
            Scale::Full => 3,
            Scale::Tiny => 2,
        }
    }
}

/// What one run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in the reported pass.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Fingerprint of the generated inputs.
    pub inputs: u64,
    /// The virtual-clock and counter-derived values (exact per seed).
    pub det: BTreeMap<&'static str, f64>,
    /// Human-readable report and any failed checks, for stderr.
    pub notes: String,
}

/// The planes a workload reads back, of the five [`attach_planes`]
/// attaches (the kernel keeps the profile and watch planes alive).
pub struct Planes {
    /// Fault plane, seeded and unarmed unless a workload arms it.
    pub fault: Rc<FaultPlane>,
    /// Trace plane (flight recorder).
    pub trace: Rc<TracePlane>,
    /// Metrics plane (counters and the Table-3 attribution ledger).
    pub metrics: Rc<MetricsPlane>,
}

/// Attaches all five planes to `k` — fault, trace, metrics, profile
/// and watch — trace before watch so alert edges reach the flight
/// recorder.
pub fn attach_planes(k: &Kernel, seed: u64) -> Planes {
    let fault = FaultPlane::seeded(seed);
    let trace = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 14);
    let metrics = MetricsPlane::new(Rc::clone(&k.clock));
    let profile = ProfilePlane::new(Rc::clone(&k.clock));
    let watch = WatchPlane::new(Rc::clone(&k.clock));
    k.attach_fault_plane(Rc::clone(&fault)).expect("fresh kernel");
    k.attach_trace_plane(Rc::clone(&trace)).expect("fresh kernel");
    k.attach_metrics_plane(Rc::clone(&metrics)).expect("fresh kernel");
    k.attach_profile_plane(profile).expect("fresh kernel");
    k.attach_watch_plane(watch).expect("fresh kernel");
    Planes { fault, trace, metrics }
}

/// A snapshot of the metrics plane's counters and attribution ledger
/// (every graft plus the kernel ledger) and the trace record count, so
/// an op region's virtual per-layer rows are deltas that exclude
/// set-up.
pub struct LedgerSnap {
    counters: Vec<u64>,
    comps: [u64; Component::COUNT],
    records: u64,
}

impl LedgerSnap {
    /// Snapshots a kernel's planes.
    pub fn take(p: &Planes) -> LedgerSnap {
        LedgerSnap::of(&p.metrics, &[&p.trace])
    }

    /// Snapshots a metrics plane and the trace planes feeding it.
    pub fn of(mp: &MetricsPlane, traces: &[&TracePlane]) -> LedgerSnap {
        let mut comps = mp.kernel_attribution();
        for tag in mp.tags_in_order() {
            let a = mp.attribution(tag).expect("interned tag");
            for (c, v) in comps.iter_mut().zip(a.cycles) {
                *c += v;
            }
        }
        LedgerSnap {
            counters: Counter::ALL.iter().map(|&c| mp.get(c)).collect(),
            comps,
            records: traces.iter().map(|t| t.stats().total).sum(),
        }
    }

    fn counter(&self, since: &LedgerSnap, c: Counter) -> f64 {
        let i = Counter::ALL.iter().position(|&x| x == c).expect("listed");
        (self.counters[i] - since.counters[i]) as f64
    }

    fn comp(&self, since: &LedgerSnap, c: Component) -> u64 {
        self.comps[c as usize] - since.comps[c as usize]
    }

    /// Inserts the ledger-derived per-layer rows for `ops` ops.
    pub fn rows_since(&self, s: &LedgerSnap, ops: u64, det: &mut BTreeMap<&'static str, f64>) {
        let per_op = |v: f64| v / ops as f64;
        let all: u64 = Component::ALL.iter().map(|&c| self.comp(s, c)).sum();
        let txn = self.comp(s, Component::TxnBegin)
            + self.comp(s, Component::TxnCommit)
            + self.comp(s, Component::Lock);
        det.insert("vm.instrs_per_op", per_op(self.counter(s, Counter::VmInstrs)));
        det.insert(
            "sfi.checks_per_op",
            per_op(self.counter(s, Counter::SfiClamps) + self.counter(s, Counter::SfiCallchecks)),
        );
        det.insert("sfi.virt_share", self.comp(s, Component::Sfi) as f64 / all.max(1) as f64);
        det.insert("txn.virt_us_per_op", per_op(Cycles(txn).as_us()));
        det.insert("txn.undo_runs_per_kop", 1000.0 * per_op(self.counter(s, Counter::UndoRuns)));
        det.insert("rm.denials_per_kop", 1000.0 * per_op(self.counter(s, Counter::RmDenials)));
        det.insert("obs.trace_records_per_op", per_op((self.records - s.records) as f64));
    }
}

/// The file-system and disk rows over an op region: `(cache, disk)`
/// stats before it, read again after.
pub fn fs_rows(
    k: &Kernel,
    before: &(vino::fs::cache::CacheStats, vino::dev::disk::DiskStats),
    ops: u64,
    user_bytes_written: u64,
    virt_elapsed: Cycles,
    det: &mut BTreeMap<&'static str, f64>,
) {
    let (c0, d0) = before;
    let fs = k.fs.borrow();
    let (c, d) = (fs.cache_stats(), fs.disk_stats());
    let hits = (c.hits + c.late_hits) - (c0.hits + c0.late_hits);
    let lookups = hits + (c.misses - c0.misses);
    let prefetches = c.prefetches - c0.prefetches;
    det.insert("fs.cache_hit_share", hits as f64 / lookups.max(1) as f64);
    det.insert(
        "fs.prefetch_waste_share",
        (c.prefetch_waste - c0.prefetch_waste) as f64 / prefetches.max(1) as f64,
    );
    let writes = d.writes - d0.writes;
    det.insert("disk.reads_per_op", (d.reads - d0.reads) as f64 / ops as f64);
    det.insert("disk.writes_per_op", writes as f64 / ops as f64);
    if user_bytes_written > 0 {
        det.insert("disk.write_amp", (writes * 4096) as f64 / user_bytes_written as f64);
    }
    det.insert(
        "disk.busy_share",
        (d.busy.get() - d0.busy.get()) as f64 / virt_elapsed.get().max(1) as f64,
    );
}

/// The cache and disk stats an op region starts from.
pub fn fs_snap(k: &Kernel) -> (vino::fs::cache::CacheStats, vino::dev::disk::DiskStats) {
    let fs = k.fs.borrow();
    (fs.cache_stats(), fs.disk_stats())
}

/// Boots `image` `n` times through `Kernel::boot_from_image` (mount
/// plus journal replay), timing each boot. Returns the host ns of each
/// and the last booted kernel, for the caller's state checks.
///
/// Each boot drops the previous kernel before the image is cloned, so
/// only one kernel and one image are alive at a time and every boot
/// reuses the memory the last one freed.
pub fn remount(image: &DiskImage, n: usize) -> Result<(Vec<u64>, Rc<Kernel>), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let img = image.clone();
        let t0 = harness::host_ns();
        let k = std::hint::black_box(Kernel::boot_from_image(KernelConfig::default(), img))
            .map_err(|e| format!("the crash image does not remount: {e:?}"))?;
        times.push(harness::host_ns() - t0);
        last = Some(k);
    }
    Ok((times, last.expect("n > 0")))
}

/// Times `n` remounts of `k`'s current disk image and records the
/// replay size; the workloads whose image needs no state check use it.
pub fn time_remounts(k: &Kernel, n: usize, det: &mut BTreeMap<&'static str, f64>) -> Vec<u64> {
    let (times, rk) = remount(&k.crash_image(), n).expect("a live kernel's image remounts");
    let rep = rk.recovery_report().expect("booted from an image");
    det.insert("fs.replayed_blocks", rep.replayed_blocks as f64);
    times
}

/// Host ns per call of the per-instruction and per-event plane hooks,
/// each plane passed through `black_box` every iteration so the
/// optimizer cannot hoist the update out of the loop.
fn plane_hook_rows(rows: &mut BTreeMap<&'static str, f64>) {
    use std::hint::black_box;
    const ITERS: u64 = 200_000;
    let clock = VirtualClock::new();
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 12);
    let mp = MetricsPlane::new(Rc::clone(&clock));
    let pp = ProfilePlane::new(Rc::clone(&clock));
    let tag = pp.tag("hook-probe");
    pp.register_program(tag, 64);
    let mut pc = 0usize;
    rows.insert(
        "obs.record_pc_ns",
        harness::ns_per_call(ITERS, || {
            pc = (pc + 1) & 63;
            black_box(&pp).record_pc(tag, black_box(pc), Component::GraftFn, Cycles(1));
        }),
    );
    rows.insert(
        "obs.emit_ns",
        harness::ns_per_call(ITERS, || {
            black_box(&tp).emit(black_box(TraceEvent::NetRx { port: 80, len: 64 }));
        }),
    );
    rows.insert(
        "obs.metrics_inc_ns",
        harness::ns_per_call(ITERS, || black_box(&mp).inc(black_box(Counter::VmInstrs))),
    );
}

/// Round sizes per workload: `(full, tiny)` ops per round.
fn ops_per_round(workload: &str, scale: Scale) -> u64 {
    let (full, tiny) = match workload {
        "rx_storm" => (400_000, 6_000),
        "graft_io" => (1_000, 40),
        "journal_ship" => (2_000, 60),
        _ => (20_000, 300),
    };
    match scale {
        Scale::Full => full,
        Scale::Tiny => tiny,
    }
}

/// Runs `workload` under `cfg`.
pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let n = ops_per_round(workload, cfg.scale);
    let seed = cfg.seed;
    let round = |planes_on: bool| {
        move |tr: &mut Tracer| match workload {
            "rx_storm" => rx_storm::round(seed, n, planes_on, tr),
            "graft_io" => graft_io::round(seed, n, tr),
            "journal_ship" => journal_ship::round(seed, n, tr),
            _ => hostile_churn::round(seed, n, tr),
        }
    };
    // A traced run interleaves an untraced pass (the span-overhead
    // baseline) with the traced pass and, on rx_storm, a planes-on pass
    // over the identical input.
    let mut specs = vec![PassSpec { tracer: Tracer::new(false), round: Box::new(round(false)) }];
    if cfg.trace {
        specs.push(PassSpec { tracer: Tracer::new(true), round: Box::new(round(false)) });
        if workload == "rx_storm" {
            specs.push(PassSpec { tracer: Tracer::new(false), round: Box::new(round(true)) });
        }
    }
    let mut passes = run_passes(Duration::from_secs_f64(cfg.seconds), cfg.min_rounds(), &mut specs);
    let mut notes = String::new();
    let (pass, metrics) = if cfg.trace {
        let spans = specs[1].tracer.summarize()?;
        notes.push_str(&spans.render());
        let planes_on = passes.get(2);
        let rows = per_layer(&passes[0], &passes[1], &spans, planes_on, &mut notes)?;
        let mut merged = passes[1].clone();
        if let Some(p) = planes_on {
            if merged.det.iter().any(|(k, v)| p.det.get(k).is_some_and(|w| w != v)) {
                merged.failed += 1;
                merged.errors.push("attaching the planes changed the virtual clock".to_string());
            }
        }
        for (i, p) in passes.iter().enumerate() {
            if i != 1 {
                merged.failed += p.failed;
                merged.errors.extend(p.errors.iter().cloned());
            }
        }
        (merged, rows)
    } else {
        let rows = end_to_end(&passes[0], cfg.scale, &mut notes)?;
        (passes.swap_remove(0), rows)
    };
    for e in &pass.errors {
        notes.push_str(&format!("check failed: {e}\n"));
    }
    Ok(Outcome {
        correct: pass.failed == 0,
        attempted: pass.ops,
        failed: pass.failed,
        metrics,
        inputs: pass.inputs,
        det: pass.det,
        notes,
    })
}

type Rows = Vec<(&'static str, &'static str, f64)>;

/// End-to-end rows. Host timings are medians over 20 ms blocks or over
/// rounds, so a stretch that a noisy neighbour slowed moves them little.
fn end_to_end(p: &Pass, scale: Scale, notes: &mut String) -> Result<Rows, String> {
    let fewest_above = p.quantiles.iter().map(|q| q.2).min().unwrap_or(0);
    if scale == Scale::Full && fewest_above < 10 {
        return Err(format!(
            "a round has only {fewest_above} ops above its p99; rounds are too small"
        ));
    }
    let mut rates = p.rates.clone();
    if rates.is_empty() {
        // Too little op time for one block (self-test sizes).
        rates.push(p.ops as f64 / (p.busy_ns as f64 / 1e9));
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    notes.push_str(&format!(
        "{} rounds, {} ops, at least {fewest_above} above p99 per round, {} refused, {} failed\n\
         ops/s per 20 ms block: min {:.1}, median {:.1}, max {:.1}\n\
         p99 us per round: {:?}\n",
        p.rounds,
        p.ops,
        p.refused,
        p.failed,
        rates[0],
        median(&rates),
        rates[rates.len() - 1],
        p.quantiles.iter().map(|q| q.1 / 1000).collect::<Vec<_>>()
    ));
    let q: Vec<u64> = p.quantiles.iter().map(|q| q.0).collect();
    let q99: Vec<u64> = p.quantiles.iter().map(|q| q.1).collect();
    let values = [
        median(&rates),
        median(&q) as f64 / 1e3,
        median(&q99) as f64 / 1e3,
        p.det("virt_us_per_op"),
        p.ops.saturating_sub(p.refused + p.failed) as f64 / p.ops as f64,
        median(&p.setup_ns) as f64 / 1e9,
        peak_rss_mib()?,
        median(&p.recover_ns) as f64 / 1e6,
    ];
    Ok(END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect())
}

fn per_layer(
    base: &Pass,
    traced: &Pass,
    spans: &SpanSummary,
    planes_on: Option<&Pass>,
    notes: &mut String,
) -> Result<Rows, String> {
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    for src in [Some(traced), planes_on].into_iter().flatten() {
        for (&k, &v) in &src.det {
            if PER_LAYER.iter().any(|&(n, _)| n == k) {
                rows.insert(k, v);
            }
        }
    }
    let rounds = traced.rounds as f64;
    let per = |layer: Layer, count: &str| {
        let n = traced.det(count) * rounds;
        if n > 0.0 {
            spans.ns(layer) as f64 / n
        } else {
            0.0
        }
    };
    rows.insert("net.rx_ns", per(Layer::NetRx, "count.ops"));
    rows.insert("net.pump_ns_per_pkt", per(Layer::NetPump, "count.processed"));
    rows.insert("vm.ns_per_instr", per(Layer::Transform, "count.transform_instrs"));
    rows.insert("misfit.install_us", spans.ns_per_call(Layer::Install) / 1e3);
    rows.insert("core.invoke_us", spans.ns_per_call(Layer::Invoke) / 1e3);
    rows.insert("fs.read_us", spans.ns_per_call(Layer::FsRead) / 1e3);
    rows.insert("fs.write_us", spans.ns_per_call(Layer::FsWrite) / 1e3);
    rows.insert("repl.ship_round_us", spans.ns_per_call(Layer::ShipRound) / 1e3);
    rows.insert("bench.unattributed_share", spans.self_ns as f64 / spans.op_ns.max(1) as f64);
    let ns_per_op = |p: &Pass| p.busy_ns as f64 / p.ops as f64;
    rows.insert("bench.span_overhead_share", ns_per_op(traced) / ns_per_op(base) - 1.0);
    if let Some(on) = planes_on {
        rows.insert("obs.rx_overhead_ns_per_pkt", ns_per_op(on) - ns_per_op(base));
    }
    plane_hook_rows(&mut rows);

    let mut bad = Vec::new();
    for (name, layer) in HOST_ROWS {
        if spans.layers.contains_key(&layer) && rows.get(name).copied().unwrap_or(0.0) <= 0.0 {
            bad.push(name);
        }
    }
    for name in ["obs.record_pc_ns", "obs.emit_ns", "obs.metrics_inc_ns"] {
        if rows[name] <= 0.0 {
            bad.push(name);
        }
    }
    if planes_on.is_some() && rows["obs.rx_overhead_ns_per_pkt"] <= 0.0 {
        bad.push("obs.rx_overhead_ns_per_pkt");
    }
    if !bad.is_empty() {
        return Err(format!("host rows read <= 0 (a measurement bug): {bad:?}"));
    }
    notes.push_str(&format!(
        "traced: {} rounds, {} ops; untraced baseline: {} rounds\n",
        traced.rounds, traced.ops, base.rounds
    ));
    Ok(PER_LAYER.iter().map(|&(n, u)| (n, u, rows.get(n).copied().unwrap_or(0.0))).collect())
}

/// The result line: one JSON object.
pub fn json_line(o: &Outcome) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, unit, v)) in o.metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number: {v}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
    }
    out.push_str("}}");
    Ok(out)
}
