//! The measurement machinery every workload shares: the op clock, the
//! benchmark's own layer spans, weighted latency samples, and the
//! end-to-end aggregation over repeated seeded rounds.
//!
//! A run is a sequence of *rounds*. Each round boots a fresh kernel,
//! sets it up (timed as `setup_s`), and drives the same seeded op
//! sequence, so every round of one run has identical virtual-clock
//! results — the benchmark asserts that — while host-clock samples
//! accumulate across rounds until the run's time is spent.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock through 64-bit Linux's clock_gettime");

/// Host time of the calling thread, in ns: its CPU time. Every
/// workload is single-threaded and in memory, with no blocking I/O, so
/// on an idle machine this equals wall time; unlike wall time it leaves
/// out the stretches in which a shared VM's virtual CPU was stolen or
/// the thread preempted, which otherwise dominate the latency tail and
/// swing from run to run.
pub fn host_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the `compile_error!` above),
    // and `CLOCK_THREAD_CPUTIME_ID` is a clock every Linux kernel has.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU-time clock is unavailable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Layers the benchmark wraps a span around. Each is one public entry
/// point of one crate; the metric tables name them the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `PacketPlane::rx`, one span per burst's offer loop.
    NetRx,
    /// `PacketPlane::pump`.
    NetPump,
    /// `PacketPlane::drain_delivered` over every open port.
    NetDrain,
    /// `FileSystem::read`.
    FsRead,
    /// `FileSystem::write`.
    FsWrite,
    /// `StreamGraftAdapter::transform`.
    Transform,
    /// `GraftInstance::mem` writes of the application's read-ahead hint.
    PostHint,
    /// `Kernel::install_*` (loader verification, MiSFIT link audit).
    Install,
    /// `GraftInstance::invoke`.
    Invoke,
    /// `ResourceAccountant::destroy` of an unloaded graft's principal.
    RmDestroy,
    /// `FaultPlane` arm / rate / disarm calls.
    FaultArm,
    /// `ReplHarness::ship_round`.
    ShipRound,
}

impl Layer {
    /// The span name (crate prefix, then the call).
    pub fn name(self) -> &'static str {
        match self {
            Layer::NetRx => "net.rx",
            Layer::NetPump => "net.pump",
            Layer::NetDrain => "net.drain",
            Layer::FsRead => "fs.read",
            Layer::FsWrite => "fs.write",
            Layer::Transform => "core.transform",
            Layer::PostHint => "core.post_hint",
            Layer::Install => "misfit.install",
            Layer::Invoke => "core.invoke",
            Layer::RmDestroy => "rm.destroy",
            Layer::FaultArm => "sim.fault_arm",
            Layer::ShipRound => "repl.ship_round",
        }
    }
}

/// One recorded span: a layer call, or (with `layer == None`) a whole
/// op. Times are ns since the tracer's epoch. Op id 0 is set-up work
/// outside any op.
#[derive(Debug, Clone, Copy)]
struct Span {
    op: u32,
    layer: Option<Layer>,
    start: u64,
    end: u64,
}

/// Spans a traced pass may hold before it stops starting rounds; bounds
/// the pass's memory at about 100 MB.
const SPAN_BUDGET: usize = 4_000_000;

/// The op clock plus, when tracing, the span recorder. Untraced, only
/// op boundaries are stamped (they feed the latency samples); layer
/// calls cost one branch.
pub struct Tracer {
    on: bool,
    epoch: u64,
    spans: Vec<Span>,
    next_op: u32,
    op: u32,
}

/// A running op: its id and start stamp.
#[derive(Debug, Clone, Copy)]
pub struct OpStart {
    id: u32,
    start: u64,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: host_ns(), spans: Vec::new(), next_op: 0, op: 0 }
    }

    fn stamp(&self) -> u64 {
        host_ns() - self.epoch
    }

    /// Opens an op: layer calls until [`Tracer::end_op`] belong to it.
    pub fn begin_op(&mut self) -> OpStart {
        self.next_op += 1;
        self.op = self.next_op;
        OpStart { id: self.op, start: self.stamp() }
    }

    /// Closes an op and returns its host duration in ns. Layer calls
    /// after this (output checks, set-up) belong to op 0, which no op
    /// span covers.
    pub fn end_op(&mut self, op: OpStart) -> u64 {
        let end = self.stamp();
        if self.on {
            self.spans.push(Span { op: op.id, layer: None, start: op.start, end });
        }
        self.op = 0;
        end - op.start
    }

    /// Runs `f` as one call into `layer`, recording a span when tracing.
    #[inline]
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.stamp();
        let out = f();
        let end = self.stamp();
        self.spans.push(Span { op: self.op, layer: Some(layer), start, end });
        out
    }

    /// Whether the span store is full enough that the pass should stop
    /// starting rounds.
    pub fn full(&self) -> bool {
        self.spans.len() >= SPAN_BUDGET
    }

    /// Folds the recorded spans into per-layer totals and op self time.
    /// Errors if a layer span escapes its op or overlaps a sibling —
    /// either would make the self-time arithmetic meaningless.
    pub fn summarize(&self) -> Result<SpanSummary, String> {
        let mut sum = SpanSummary::default();
        // Spans are appended in time order, so an op's layer spans sit
        // right before the op span that closes them.
        let mut pending: Vec<Span> = Vec::new();
        for &s in &self.spans {
            match s.layer {
                Some(layer) if s.op == 0 => {
                    let e = sum.layers.entry(layer).or_default();
                    e.0 += 1;
                    e.1 += s.end - s.start;
                }
                Some(_) => pending.push(s),
                None => {
                    let mut child_ns = 0;
                    let mut last_end = s.start;
                    for c in pending.drain(..) {
                        let layer = c.layer.expect("only layer spans are pending");
                        if c.op != s.op || c.start < last_end || c.end > s.end {
                            return Err(format!(
                                "span {} of op {} escapes op {} or overlaps a sibling",
                                layer.name(),
                                c.op,
                                s.op
                            ));
                        }
                        last_end = c.end;
                        let e = sum.layers.entry(layer).or_default();
                        e.0 += 1;
                        e.1 += c.end - c.start;
                        child_ns += c.end - c.start;
                    }
                    sum.ops += 1;
                    sum.op_ns += s.end - s.start;
                    sum.layer_ns += child_ns;
                    sum.self_ns += s.end - s.start - child_ns;
                }
            }
        }
        if !pending.is_empty() {
            return Err("layer spans left without a closing op span".to_string());
        }
        if sum.layer_ns + sum.self_ns != sum.op_ns {
            return Err("layer spans plus unattributed time do not sum to op time".to_string());
        }
        Ok(sum)
    }
}

/// Per-layer totals of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct SpanSummary {
    /// `(calls, ns)` per layer, inside and outside ops.
    pub layers: BTreeMap<Layer, (u64, u64)>,
    /// Ops closed.
    pub ops: u64,
    /// Total op span time.
    pub op_ns: u64,
    /// Op time no layer span covers.
    pub self_ns: u64,
    /// Layer span time inside ops.
    pub layer_ns: u64,
}

impl SpanSummary {
    /// Host ns per call of `layer`, or 0 if the pass never called it.
    pub fn ns_per_call(&self, layer: Layer) -> f64 {
        match self.layers.get(&layer) {
            Some(&(calls, ns)) if calls > 0 => ns as f64 / calls as f64,
            _ => 0.0,
        }
    }

    /// Total host ns spent in `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layers.get(&layer).map_or(0, |v| v.1)
    }

    /// Renders the per-layer table (stderr report).
    pub fn render(&self) -> String {
        let mut out = String::from("layer                 calls        total ms    ns/call\n");
        for (layer, (calls, ns)) in &self.layers {
            out.push_str(&format!(
                "{:<20} {:>8} {:>14.3} {:>10.1}\n",
                layer.name(),
                calls,
                *ns as f64 / 1e6,
                *ns as f64 / (*calls).max(1) as f64
            ));
        }
        out.push_str(&format!(
            "{:<20} {:>8} {:>14.3}   (op self time, no layer span)\n",
            "bench.unattributed",
            self.ops,
            self.self_ns as f64 / 1e6
        ));
        out
    }
}

/// Host latency samples, each weighted by how many ops share it (an
/// rx_storm burst is one sample covering all its packets).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    v: Vec<(u64, u64)>,
}

impl Samples {
    /// Adds one sample of `ns` shared by `weight` ops.
    pub fn push(&mut self, ns: u64, weight: u64) {
        self.v.push((ns, weight));
    }

    /// Throughput of consecutive blocks of at least `block_ns` of op
    /// time, in ops per second, in op order. A block is short enough
    /// that a burst of host interference spoils few of them.
    pub fn block_rates(&self, block_ns: u64) -> Vec<f64> {
        let mut rates = Vec::new();
        let (mut ns, mut ops) = (0u64, 0u64);
        for &(t, w) in &self.v {
            ns += t;
            ops += w;
            if ns >= block_ns {
                rates.push(ops as f64 / (ns as f64 / 1e9));
                (ns, ops) = (0, 0);
            }
        }
        rates
    }

    /// Ops covered.
    pub fn count(&self) -> u64 {
        self.v.iter().map(|s| s.1).sum()
    }

    /// Sum of the samples' ns.
    pub fn total_ns(&self) -> u64 {
        self.v.iter().map(|s| s.0).sum()
    }

    /// Nearest-rank weighted quantile `q` in ns, and how many ops lie
    /// strictly above it.
    pub fn quantile(&mut self, q: f64) -> (u64, u64) {
        self.v.sort_unstable();
        let total = self.count();
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut seen = 0;
        for &(ns, w) in &self.v {
            seen += w;
            if seen >= rank {
                let above = self.v.iter().filter(|s| s.0 > ns).map(|s| s.1).sum();
                return (ns, above);
            }
        }
        (0, 0)
    }
}

/// Median of `xs` (upper median for even lengths); 0 when empty.
pub fn median<T: Copy + Default + PartialOrd>(xs: &[T]) -> T {
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v.get(v.len() / 2).copied().unwrap_or_default()
}

/// FNV-1a over a stream of words: the input and state fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word.
    pub fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The fingerprint.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Op time per throughput block.
const RATE_BLOCK_NS: u64 = 20_000_000;

/// What one round reports.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host ns from kernel boot to the first timed op.
    pub setup_ns: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose output check failed (kernel-integrity breaks, lost
    /// packets, wrong bytes).
    pub failed: u64,
    /// Ops the kernel refused by design (rx_storm sheds); they count
    /// against `served_share`, not as failures.
    pub refused: u64,
    /// Host op time in non-overlapping pieces, each weighted by the ops
    /// it completed: the timed region.
    pub busy: Samples,
    /// Op latency samples.
    pub lat: Samples,
    /// Host ns of each timed `Kernel::boot_from_image`.
    pub recover_ns: Vec<u64>,
    /// Fingerprint of every generated input.
    pub inputs: u64,
    /// Virtual-clock and counter-derived values: identical in every
    /// round of a seed. Includes `virt_us_per_op` and the virtual
    /// per-layer rows.
    pub det: BTreeMap<&'static str, f64>,
    /// Output-check failures, described.
    pub errors: Vec<String>,
}

impl Round {
    /// Records `ops` ops that took `ns` of host time together and each
    /// saw that latency.
    pub fn op(&mut self, ns: u64, ops: u64) {
        self.busy.push(ns, ops);
        self.lat.push(ns, ops);
    }

    /// Records a failed output check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// The rounds of one pass, folded.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Rounds run (warm-up excluded).
    pub rounds: u64,
    /// Set-up time of each round.
    pub setup_ns: Vec<u64>,
    /// Ops attempted across rounds.
    pub ops: u64,
    /// Failed ops across rounds.
    pub failed: u64,
    /// Refused ops across rounds.
    pub refused: u64,
    /// Host ns of all op spans.
    pub busy_ns: u64,
    /// Ops per host second of op time, per 20 ms block of op time.
    pub rates: Vec<f64>,
    /// Per round: `(p50, p99, ops above p99)` of op latency, in ns.
    pub quantiles: Vec<(u64, u64, u64)>,
    /// Timed remounts across rounds.
    pub recover_ns: Vec<u64>,
    /// The first round's deterministic values.
    pub det: BTreeMap<&'static str, f64>,
    /// The input fingerprint.
    pub inputs: u64,
    /// Output-check failures, described.
    pub errors: Vec<String>,
}

impl Pass {
    fn absorb(&mut self, r: Round) {
        if self.rounds == 0 {
            self.det = r.det.clone();
            self.inputs = r.inputs;
        } else if r.det != self.det || r.inputs != self.inputs {
            self.failed += 1;
            self.errors.push(format!(
                "round {} diverged from round 0 on the virtual clock (same seed must replay)",
                self.rounds
            ));
        }
        self.rounds += 1;
        self.setup_ns.push(r.setup_ns);
        self.ops += r.ops;
        self.failed += r.failed;
        self.refused += r.refused;
        self.busy_ns += r.busy.total_ns();
        self.rates.extend(r.busy.block_rates(RATE_BLOCK_NS));
        let mut lat = r.lat;
        let (p50, _) = lat.quantile(0.50);
        let (p99, above) = lat.quantile(0.99);
        self.quantiles.push((p50, p99, above));
        self.recover_ns.extend_from_slice(&r.recover_ns);
        self.errors.extend(r.errors);
    }

    /// A deterministic value by name (0 if the workload has no such
    /// value).
    pub fn det(&self, name: &str) -> f64 {
        self.det.get(name).copied().unwrap_or(0.0)
    }
}

/// One pass of a run: its tracer and its round function.
pub struct PassSpec<'a> {
    /// Records the pass's spans (or only its op clock).
    pub tracer: Tracer,
    /// Runs one round.
    pub round: Box<dyn FnMut(&mut Tracer) -> Round + 'a>,
}

/// Runs one untimed warm-up round of each pass, then rounds of the
/// passes in turn until `budget` is spent (at least `min_rounds`
/// each). Interleaving keeps drift in the host's speed from landing on
/// one pass. Every round of a pass, warm-up included, must agree on
/// the virtual clock.
pub fn run_passes(budget: Duration, min_rounds: u64, specs: &mut [PassSpec]) -> Vec<Pass> {
    let mut passes: Vec<Pass> = specs.iter().map(|_| Pass::default()).collect();
    let warmups: Vec<Round> =
        specs.iter_mut().map(|s| (s.round)(&mut Tracer::new(false))).collect();
    let t0 = Instant::now();
    while passes[0].rounds < min_rounds
        || (t0.elapsed() < budget && !specs.iter().any(|s| s.tracer.full()))
    {
        for (spec, pass) in specs.iter_mut().zip(passes.iter_mut()) {
            pass.absorb((spec.round)(&mut spec.tracer));
        }
    }
    for (pass, warm) in passes.iter_mut().zip(warmups) {
        if warm.det != pass.det || warm.inputs != pass.inputs {
            pass.failed += 1;
            pass.errors.push("warm-up round diverged from the timed rounds".to_string());
        }
    }
    passes
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host ns per call of `f`, over `iters` calls after one warm-up call.
/// The closure must black-box what it touches, or the optimizer may
/// hoist the work out of the loop.
pub fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = host_ns();
    for _ in 0..iters {
        f();
    }
    (host_ns() - t0) as f64 / iters as f64
}
