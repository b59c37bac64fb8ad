//! The debugging plane over the survival battery: deterministic storm
//! scenarios with checkpoint/restore, fault bisection, delta-debugging
//! scenario shrinking, and reproducer files (see `docs/DEBUGGING.md`).
//!
//! The storm is a distilled survival battery (`tests/survival.rs`)
//! whose every random draw is made **up front** ([`StormSpec::generate`]),
//! so execution consumes no generator state: steps can be dropped (the
//! shrinker) or the fault plane capped (the bisector) without
//! re-shuffling the remainder of the run. The zoo is restricted to
//! grafts that commit when funded, so every abort is *caused by an
//! injection* — which makes the `abort-free` invariant monotone in the
//! injection cap and therefore binary-searchable:
//!
//! - with cap `m ≥ j` (where injection `j` is the first abort-causing
//!   one) the run is identical to the uncapped run through injection
//!   `j`, so the abort happens;
//! - with cap `m < j` no injection ever fires past `m`, and the zoo
//!   cannot abort organically, so the run stays clean.

use std::rc::Rc;

use vino_core::engine::InvokeOutcome;
use vino_core::kernel::{point_names, KernelConfig};
use vino_core::reliability::ReliabilityState;
use vino_core::{AdmissionState, BillingMode, InstallError, InstallOpts, Kernel};
use vino_dev::disk::DiskImage;
use vino_fs::Fd;
use vino_misfit::SignedImage;
use vino_rm::{AccountantState, Limits, PrincipalId, ResourceKind};
use vino_sim::fault::{FaultPlane, FaultPlaneState, FaultSite};
use vino_sim::metrics::{MetricsPlane, MetricsState};
use vino_sim::trace::{TracePlane, TraceState};
use vino_sim::watch::{WatchPlane, WatchState};
use vino_sim::{render_timeline, Cycles, SplitMix64, ThreadId, TimelineOpts};
use vino_txn::locks::LockClass;
use vino_txn::TxnStats;

/// Steps in the default storm (`vino-bench bisect` et al.).
pub const DEFAULT_STEPS: usize = 64;

/// Virtual slack between a checkpoint's quiesce instant and the cycle
/// the resumed run aligns to: the restored kernel's mount + scaffold
/// rebuild must finish inside it (asserted at restore time).
const CHECKPOINT_SLACK_MS: u64 = 500;

/// Zoo entry names, in index order (reproducer files name grafts).
pub const ZOO_NAMES: [&str; 4] = ["good-kv", "alloc", "hoard", "locker"];

/// Probe-file size in blocks — deliberately bigger than the default
/// 256-block buffer cache, so storm reads keep reaching the disk.
pub const PROBE_BLOCKS: u64 = 512;

/// The named invariants a storm run is scored against, in check order.
pub const INVARIANTS: [&str; 4] =
    ["conservation", "ledger-balance", "fallback-coverage", "abort-free"];

struct ZooEntry {
    name: &'static str,
    image: SignedImage,
    /// Kernel-state slot the graft writes on commit, if any.
    slot: Option<usize>,
}

/// The storm zoo: only grafts that commit when funded, so the storm is
/// abort-free until an injection fires (the monotonicity precondition).
fn build_zoo(k: &Kernel) -> Vec<ZooEntry> {
    let z = |name: &str, src: &str| k.compile_graft(name, src).unwrap();
    vec![
        ZooEntry {
            name: "good-kv",
            image: z("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2"),
            slot: Some(5),
        },
        ZooEntry {
            name: "alloc",
            image: z("alloc", "call $kalloc\ncall $kfree\nhalt r0"),
            slot: None,
        },
        ZooEntry { name: "hoard", image: z("hoard", "call $kalloc\nhalt r0"), slot: None },
        ZooEntry {
            name: "locker",
            image: z("locker", "const r1, 0\ncall $lock\nhalt r0"),
            slot: None,
        },
    ]
}

/// The fault configuration of one storm step. Rates last for the step;
/// one-shots are armed relative to the site's visit count at step
/// entry, so dropping earlier steps (the shrinker) keeps them meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChoice {
    /// No injection this step.
    None,
    /// Arm a one-shot VM trap `offset` visits past the next one.
    VmTrap {
        /// Visits past the next one.
        offset: u64,
    },
    /// 1-in-3 disk reads fail with a media error.
    DiskRead,
    /// 1-in-4 disk accesses stall.
    DiskStall,
    /// 1-in-2 resource charges are denied as over-limit.
    ResourceExhaust,
}

/// One fully pre-drawn storm step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormStep {
    /// Virtual ms charged before the step runs.
    pub pre_ms: u64,
    /// The step's fault configuration.
    pub fault: FaultChoice,
    /// Zoo index of the graft to install and invoke.
    pub graft: usize,
    /// The invocation argument (and `good-kv`'s committed value).
    pub arg: u64,
    /// Whether the install transfers a heap budget to the graft.
    pub funded: bool,
    /// Probe-file block driven while injection is live.
    pub read_block: u64,
}

/// A complete storm scenario: every random draw made up front, so
/// execution consumes no generator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormSpec {
    /// Seed (fault-plane stream + provenance).
    pub seed: u64,
    /// The steps, in execution order.
    pub steps: Vec<StormStep>,
}

impl StormSpec {
    /// Pre-draws an `n`-step storm from `seed`.
    pub fn generate(seed: u64, n: usize) -> StormSpec {
        let mut rng = SplitMix64::new(seed ^ 0xD1A6_D1A6);
        let steps = (0..n)
            .map(|_| {
                let fault = match rng.below(12) {
                    0..=4 | 11 => FaultChoice::None,
                    5 | 6 => FaultChoice::DiskRead,
                    7 | 8 => FaultChoice::DiskStall,
                    9 => FaultChoice::VmTrap { offset: rng.below(12) },
                    _ => FaultChoice::ResourceExhaust,
                };
                let graft = rng.below(ZOO_NAMES.len() as u64) as usize;
                StormStep {
                    pre_ms: rng.below(120),
                    fault,
                    graft,
                    arg: rng.range(1, 4096),
                    // alloc/hoard only commit when funded; the storm
                    // funds them unconditionally so every abort is
                    // injection-caused (the monotonicity precondition).
                    funded: graft == 1 || graft == 2 || rng.chance(1, 2),
                    read_block: rng.below(PROBE_BLOCKS),
                }
            })
            .collect();
        StormSpec { seed, steps }
    }
}

/// Per-run outcome counters (carried across checkpoint/restore).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Committed invocations.
    pub commits: u64,
    /// Aborted invocations (every one injection-caused, by design).
    pub aborts: u64,
    /// Installs the kernel refused (quarantine, verify).
    pub install_refusals: u64,
    /// Steps whose disarmed default-path probe read failed.
    pub fallback_failures: u64,
    /// Steps where a kernel slot diverged from the committed model.
    pub conservation_breaks: u64,
}

/// A named-invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which of [`INVARIANTS`] flipped.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// A full debug-plane snapshot: everything needed to resume the storm
/// from this instant instead of cycle 0. Captured at quiesced step
/// boundaries ([`DebugWorld::capture`]), consumed by
/// [`DebugWorld::restore`].
pub struct Checkpoint {
    /// Steps completed when the capture was taken.
    pub at_step: usize,
    /// The virtual cycle the resumed run aligns to (quiesce instant
    /// plus slack).
    pub cycle: Cycles,
    /// The next checkpoint deadline, so a resumed run keeps the cadence.
    pub next_cp: Cycles,
    /// Outcome counters so far.
    pub tally: Tally,
    /// The committed-value model of the kernel slots.
    pub model: [u64; 64],
    /// The kernel slots themselves.
    pub kv: [u64; 64],
    /// The persistent disk (journal quiesced first).
    pub image: DiskImage,
    /// Fault-plane stream position, site states, cap and hit count.
    pub fault: FaultPlaneState,
    /// The flight recorder: ring, stats, interned names, post-mortem.
    pub trace: TraceState,
    /// Metrics counters, attribution ledgers, latency histogram.
    pub metrics: MetricsState,
    /// The resource accountant's book.
    pub rm: AccountantState,
    /// Failure ledgers and quarantine deadlines.
    pub rel: ReliabilityState,
    /// Transaction-id counter and lifetime stats.
    pub txn: (u64, TxnStats),
    /// Watch-plane windows, firing flags, alert ring and counters.
    pub watch: WatchState,
    /// Admission-controller deny history and decision counters.
    pub admission: AdmissionState,
    /// The trace serialization at capture (byte-equality witness).
    pub trace_snapshot: String,
    /// The metrics snapshot at capture (byte-equality witness).
    pub metrics_snapshot: String,
    /// The alert-stream serialization at capture (byte-equality
    /// witness).
    pub watch_snapshot: String,
}

impl Checkpoint {
    /// One-line description for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "checkpoint @step {:>3}  cycle {:>12}  trace {:>4} lines  {} commits  {} aborts",
            self.at_step,
            self.cycle.get(),
            self.trace_snapshot.lines().count(),
            self.tally.commits,
            self.tally.aborts,
        )
    }
}

/// A booted storm world: kernel, planes, scaffolding, model, tally.
pub struct DebugWorld {
    /// The kernel under storm.
    pub k: Rc<Kernel>,
    /// The fault plane (cap, schedule, injection stream).
    pub plane: Rc<FaultPlane>,
    /// The trace plane (flight recorder, timeline substrate).
    pub tp: Rc<TracePlane>,
    /// The metrics plane.
    pub mp: Rc<MetricsPlane>,
    /// The watch plane (alert stream, admission-control substrate).
    pub wp: Rc<WatchPlane>,
    /// The installing application principal.
    pub app: PrincipalId,
    /// The battery thread.
    pub thread: ThreadId,
    /// The probe file driven while injection is live.
    pub fd: Fd,
    /// Committed-value model of the kernel slots.
    pub model: [u64; 64],
    /// Outcome counters.
    pub tally: Tally,
    next_cp: Cycles,
    zoo: Vec<ZooEntry>,
    cfg: KernelConfig,
}

impl DebugWorld {
    /// Boots a fresh storm world: kernel, planes (attached first, so
    /// scaffolding I/O is observed), app, thread, lock, zoo, probe file.
    pub fn boot(seed: u64, cfg: &KernelConfig) -> DebugWorld {
        let k = Kernel::boot_with(cfg.clone());
        let plane = FaultPlane::seeded(seed);
        k.attach_fault_plane(Rc::clone(&plane)).unwrap();
        let tp = TracePlane::with_capacity(Rc::clone(&k.clock), cfg.trace_capacity);
        k.attach_trace_plane(Rc::clone(&tp)).unwrap();
        let mp = MetricsPlane::new(Rc::clone(&k.clock));
        k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
        // After the trace plane, so alert edges mirror onto the timeline.
        let wp = WatchPlane::new(Rc::clone(&k.clock));
        k.attach_watch_plane(Rc::clone(&wp)).unwrap();
        let (app, thread, fd, zoo) = DebugWorld::scaffold(&k, true);
        DebugWorld {
            k,
            plane,
            tp,
            mp,
            wp,
            app,
            thread,
            fd,
            model: [0; 64],
            tally: Tally::default(),
            next_cp: Cycles::from_ms(cfg.checkpoint_interval_ms),
            zoo,
            cfg: cfg.clone(),
        }
    }

    /// The canonical scaffolding order, shared by [`boot`](Self::boot)
    /// and [`restore`](Self::restore) so principal ids, thread ids,
    /// lock handles and fds line up across a checkpoint boundary.
    fn scaffold(k: &Kernel, fresh: bool) -> (PrincipalId, ThreadId, Fd, Vec<ZooEntry>) {
        let app = k.create_app(Limits::of(&[
            (ResourceKind::KernelHeap, 1 << 30),
            (ResourceKind::Memory, 1 << 30),
        ]));
        let thread = k.spawn_thread("battery");
        let _ = k.engine.register_lock(LockClass::Buffer);
        let zoo = build_zoo(k);
        // Larger than the default buffer cache, so probe reads keep
        // missing and the disk fault sites stay hot all storm long.
        if fresh {
            k.fs.borrow_mut().create("probe", PROBE_BLOCKS * 4096).unwrap();
        }
        let fd = k.fs.borrow_mut().open("probe").unwrap();
        (app, thread, fd, zoo)
    }

    /// Captures a checkpoint at a quiesced step boundary: quiesce the
    /// kernel (journal zeroed, caches dropped, disk mechanism re-homed
    /// — its fault/metrics footprint is part of the capture), export
    /// every plane and subsystem, snapshot the disk, then advance both
    /// this run and any future resumed run to the same slack cycle.
    pub fn capture(&mut self, at_step: usize) -> Checkpoint {
        self.plane.disarm_all();
        self.k.quiesce_for_checkpoint();
        let cycle = self.k.clock.now() + Cycles::from_ms(CHECKPOINT_SLACK_MS);
        let fault = self.plane.export_state();
        let trace = self.tp.export_state();
        let metrics = self.mp.export_state();
        let rm = self.k.engine.rm.borrow().export_state();
        let rel = self.k.reliability().export_state();
        let txn = self.k.engine.txn.borrow().debug_state();
        let mut kv = [0u64; 64];
        for (slot, v) in kv.iter_mut().enumerate() {
            *v = self.k.engine.kv_read(slot);
        }
        let image = self.k.crash_image();
        self.k.clock.advance_to(cycle);
        self.next_cp = cycle + Cycles::from_ms(self.cfg.checkpoint_interval_ms);
        Checkpoint {
            at_step,
            cycle,
            next_cp: self.next_cp,
            tally: self.tally,
            model: self.model,
            kv,
            image,
            fault,
            trace,
            metrics,
            rm,
            rel,
            txn,
            watch: self.wp.export_state(),
            admission: self.k.admission().export_state(),
            trace_snapshot: self.tp.serialize(),
            metrics_snapshot: self.mp.snapshot(),
            watch_snapshot: self.wp.serialize(),
        }
    }

    /// Rebuilds a world from a checkpoint. The mount and scaffolding
    /// rebuild happen **before** any plane is attached (their I/O is
    /// invisible — the captured plane states already account for run
    /// A's scaffolding), the kernel is re-quiesced so volatile fs state
    /// matches the capture instant, subsystem states are replanted, the
    /// clock aligns to the checkpoint cycle, and the restored planes
    /// attach last.
    pub fn restore(cp: &Checkpoint, seed: u64, cfg: &KernelConfig) -> DebugWorld {
        let k = Kernel::boot_from_image(cfg.clone(), cp.image.clone())
            .expect("checkpoint image mounts clean");
        let (app, thread, fd, zoo) = DebugWorld::scaffold(&k, false);
        k.quiesce_for_checkpoint();
        k.engine.rm.borrow_mut().restore_state(&cp.rm);
        k.reliability().restore_state(&cp.rel);
        k.engine.txn.borrow_mut().restore_debug_state(cp.txn.0, cp.txn.1);
        for (slot, v) in cp.kv.iter().enumerate() {
            k.engine.kv_write(slot, *v);
        }
        assert!(
            k.clock.now() <= cp.cycle,
            "checkpoint slack too small: rebuild took {} cycles, slack ends at {}",
            k.clock.now().get(),
            cp.cycle.get()
        );
        k.clock.advance_to(cp.cycle);
        let plane = FaultPlane::seeded(seed);
        plane.restore_state(&cp.fault);
        k.attach_fault_plane(Rc::clone(&plane)).unwrap();
        let tp = TracePlane::with_capacity(Rc::clone(&k.clock), cfg.trace_capacity);
        tp.restore_state(&cp.trace);
        k.attach_trace_plane(Rc::clone(&tp)).unwrap();
        let mp = MetricsPlane::new(Rc::clone(&k.clock));
        mp.restore_state(&cp.metrics);
        k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
        let wp = WatchPlane::new(Rc::clone(&k.clock));
        wp.restore_state(&cp.watch);
        k.attach_watch_plane(Rc::clone(&wp)).unwrap();
        k.admission().restore_state(&cp.admission);
        DebugWorld {
            k,
            plane,
            tp,
            mp,
            wp,
            app,
            thread,
            fd,
            model: cp.model,
            tally: cp.tally,
            next_cp: cp.next_cp,
            zoo,
            cfg: cfg.clone(),
        }
    }

    /// Runs one storm step: arm the step's fault, install + invoke the
    /// graft, drive the probe file under injection, then score the
    /// named invariants (scored, not asserted, so the bisector and
    /// shrinker observe flips instead of panics — kernel-integrity
    /// leaks still panic).
    pub fn run_step(&mut self, i: usize, step: &StormStep) {
        let k = Rc::clone(&self.k);
        k.clock.charge(Cycles::from_ms(step.pre_ms));
        self.plane.disarm_all();
        match step.fault {
            FaultChoice::None => {}
            FaultChoice::VmTrap { offset } => {
                self.plane.arm(FaultSite::VmTrap, self.plane.visits(FaultSite::VmTrap) + 1 + offset)
            }
            FaultChoice::DiskRead => self.plane.set_rate(FaultSite::DiskRead, 1, 3),
            FaultChoice::DiskStall => self.plane.set_rate(FaultSite::DiskStall, 1, 4),
            FaultChoice::ResourceExhaust => self.plane.set_rate(FaultSite::ResourceExhaust, 1, 2),
        }
        let entry = &self.zoo[step.graft];
        let opts = if step.funded {
            InstallOpts {
                billing: BillingMode::Transfer(vec![(ResourceKind::KernelHeap, 8192)]),
                ..InstallOpts::default()
            }
        } else {
            InstallOpts::default()
        };
        let installed = match k.install_function_graft(
            point_names::COMPUTE_RA,
            &entry.image,
            self.app,
            self.thread,
            &opts,
        ) {
            Ok(g) => Some(g),
            Err(
                InstallError::Quarantined { until, .. }
                | InstallError::AdmissionDenied { until, .. },
            ) => {
                // Reactive (quarantine) and proactive (admission-control
                // backoff) refusals both carry a deadline: wait it out
                // and retry once. Waiting also decays the watch windows
                // that fired the alert, so a single retry usually lands.
                self.tally.install_refusals += 1;
                k.clock.advance_to(until);
                match k.install_function_graft(
                    point_names::COMPUTE_RA,
                    &entry.image,
                    self.app,
                    self.thread,
                    &opts,
                ) {
                    Ok(g) => Some(g),
                    Err(_) => {
                        self.tally.install_refusals += 1;
                        None
                    }
                }
            }
            Err(InstallError::Verify(_)) => {
                self.tally.install_refusals += 1;
                None
            }
            Err(e) => panic!("step {i} ({}): unexpected install refusal: {e}", entry.name),
        };
        if let Some(g) = installed {
            g.borrow_mut().max_slices = 16;
            let principal = g.borrow().principal;
            match g.borrow_mut().invoke([step.arg, i as u64, 0, 0]) {
                InvokeOutcome::Ok { .. } => {
                    self.tally.commits += 1;
                    if let Some(slot) = entry.slot {
                        self.model[slot] = step.arg;
                    }
                }
                InvokeOutcome::Aborted { .. } => self.tally.aborts += 1,
                InvokeOutcome::Dead => unreachable!("fresh install cannot be dead"),
            }
            k.engine.rm.borrow_mut().destroy(principal, Some(self.app));
        }
        // Drive the disk while injection is live: a failed read is a
        // legal answer, a wedged kernel is not.
        let _ = k.fs.borrow_mut().read(self.fd, step.read_block * 4096, 4096);

        // Kernel-integrity invariants: a leak here is a kernel bug, not
        // a scenario outcome.
        {
            let txn = k.engine.txn.borrow();
            assert_eq!(txn.active_txns(), 0, "step {i}: transaction leaked");
            assert_eq!(txn.lock_table().held_count(), 0, "step {i}: lock leaked");
            assert_eq!(txn.lock_table().waiter_count(), 0, "step {i}: waiter leaked");
        }
        if k.engine.kv_read(5) != self.model[5] {
            self.tally.conservation_breaks += 1;
        }
        self.plane.disarm_all();
        if k.fs.borrow_mut().read(self.fd, 0, 4096).is_err() {
            self.tally.fallback_failures += 1;
        }
    }

    fn maybe_checkpoint(&mut self, at_step: usize, on: bool, out: &mut Vec<Checkpoint>) {
        if on && self.cfg.checkpoint_interval_ms > 0 && self.k.clock.now() >= self.next_cp {
            out.push(self.capture(at_step));
        }
    }

    /// Scores the named invariants, first flip wins (see [`INVARIANTS`]).
    pub fn violation(&self) -> Option<Violation> {
        if self.tally.conservation_breaks > 0 {
            return Some(Violation {
                invariant: "conservation",
                detail: format!("{} kernel-slot divergence(s)", self.tally.conservation_breaks),
            });
        }
        let ledgered = self.k.reliability().total_aborts();
        if ledgered != self.tally.aborts {
            return Some(Violation {
                invariant: "ledger-balance",
                detail: format!("ledgers say {ledgered} aborts, battery saw {}", self.tally.aborts),
            });
        }
        if self.tally.fallback_failures > 0 {
            return Some(Violation {
                invariant: "fallback-coverage",
                detail: format!(
                    "{} disarmed default-path read(s) failed",
                    self.tally.fallback_failures
                ),
            });
        }
        if self.tally.aborts > 0 {
            return Some(Violation {
                invariant: "abort-free",
                detail: format!("{} injection-caused graft abort(s)", self.tally.aborts),
            });
        }
        None
    }
}

/// Knobs for one storm execution.
#[derive(Clone, Default)]
pub struct StormOpts {
    /// Suppress every injection past this many hits (`None` = uncapped).
    pub cap: Option<u64>,
    /// Record the ordered `(site, visit)` injection schedule.
    pub record_schedule: bool,
    /// Capture checkpoints at the config's cadence.
    pub checkpoints: bool,
    /// Kernel configuration (checkpoint cadence, flight-recorder size).
    pub cfg: KernelConfig,
}

/// The outcome of one storm execution.
pub struct StormReport {
    /// First named invariant flipped, if any.
    pub violation: Option<Violation>,
    /// Outcome counters.
    pub tally: Tally,
    /// Injections that hit (fired or cap-suppressed).
    pub injections: u64,
    /// The ordered injection schedule (empty unless recorded).
    pub schedule: Vec<(FaultSite, u64)>,
    /// The trace plane's canonical serialization.
    pub trace: String,
    /// The metrics plane's snapshot.
    pub metrics: String,
    /// The watch plane's canonical alert stream.
    pub alerts: String,
    /// The watch plane's live snapshot (firing alerts + stats).
    pub watch: String,
    /// Admission-controller decision counters.
    pub admission: vino_core::AdmissionStats,
    /// Checkpoints captured along the way.
    pub checkpoints: Vec<Checkpoint>,
}

/// Runs `spec` from cycle 0 and keeps the world (timeline rendering,
/// manual capture) alongside the captured checkpoints.
pub fn run_storm_world(spec: &StormSpec, opts: &StormOpts) -> (DebugWorld, Vec<Checkpoint>) {
    let mut w = DebugWorld::boot(spec.seed, &opts.cfg);
    w.plane.set_injection_cap(opts.cap);
    w.plane.record_schedule(opts.record_schedule);
    let mut cps = Vec::new();
    for (i, step) in spec.steps.iter().enumerate() {
        w.run_step(i, step);
        w.maybe_checkpoint(i + 1, opts.checkpoints, &mut cps);
    }
    (w, cps)
}

/// Runs `spec` from cycle 0 and reports.
pub fn run_storm(spec: &StormSpec, opts: &StormOpts) -> StormReport {
    let (w, cps) = run_storm_world(spec, opts);
    finish(w, cps)
}

/// Resumes `spec` from `cp` instead of cycle 0 and reports. With the
/// same `opts` the report's trace and metrics are byte-identical to the
/// uninterrupted run's.
pub fn resume_storm(spec: &StormSpec, cp: &Checkpoint, opts: &StormOpts) -> StormReport {
    let mut w = DebugWorld::restore(cp, spec.seed, &opts.cfg);
    let mut cps = Vec::new();
    for i in cp.at_step..spec.steps.len() {
        w.run_step(i, &spec.steps[i]);
        w.maybe_checkpoint(i + 1, opts.checkpoints, &mut cps);
    }
    finish(w, cps)
}

fn finish(w: DebugWorld, cps: Vec<Checkpoint>) -> StormReport {
    StormReport {
        violation: w.violation(),
        tally: w.tally,
        injections: w.plane.injection_hits(),
        schedule: w.plane.schedule(),
        trace: w.tp.serialize(),
        metrics: w.mp.snapshot(),
        alerts: w.wp.serialize(),
        watch: w.wp.snapshot(),
        admission: w.k.admission().stats(),
        checkpoints: cps,
    }
}

fn violates(spec: &StormSpec, cfg: &KernelConfig, cap: Option<u64>, invariant: &str) -> bool {
    let r = run_storm(spec, &StormOpts { cap, cfg: cfg.clone(), ..StormOpts::default() });
    r.violation.as_ref().map(|v| v.invariant) == Some(invariant)
}

/// The bisector's verdict: which injection first flipped the invariant.
pub struct BisectResult {
    /// The invariant the uncapped run violates.
    pub invariant: &'static str,
    /// Total injections in the uncapped run.
    pub total_injections: u64,
    /// Smallest injection cap that still violates — the culprit's
    /// 1-based position in the schedule.
    pub culprit_cap: u64,
    /// The culprit injection: fault site and site-visit number.
    pub culprit: (FaultSite, u64),
    /// Capped replays the binary search spent (≤ ⌈log₂ n⌉ + 1).
    pub replays: u64,
    /// The uncapped baseline run (schedule recorded).
    pub baseline: StormReport,
}

/// Binary-searches the ordered injection schedule for the first
/// injection that flips the baseline's violated invariant. `None` when
/// the uncapped run is clean (nothing to bisect) or nothing injected.
pub fn bisect(spec: &StormSpec, cfg: &KernelConfig) -> Option<BisectResult> {
    let baseline = run_storm(
        spec,
        &StormOpts { record_schedule: true, cfg: cfg.clone(), ..StormOpts::default() },
    );
    let invariant = baseline.violation.as_ref()?.invariant;
    let n = baseline.injections;
    if n == 0 {
        return None;
    }
    assert_eq!(n as usize, baseline.schedule.len(), "schedule must list every hit");
    // Invariant of the search: violated(lo) = false, violated(hi) = true.
    // Cap 0 fires nothing (clean by construction); cap n is the
    // baseline itself.
    let (mut lo, mut hi) = (0u64, n);
    let mut replays = 0u64;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        replays += 1;
        if violates(spec, cfg, Some(mid), invariant) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let culprit = baseline.schedule[hi as usize - 1];
    Some(BisectResult {
        invariant,
        total_injections: n,
        culprit_cap: hi,
        culprit,
        replays,
        baseline,
    })
}

/// Ground truth for the bisector's O(log n) claim: scan caps 1, 2, 3, …
/// until the invariant flips. Returns `(culprit_cap, replays)`.
pub fn linear_scan(spec: &StormSpec, cfg: &KernelConfig) -> Option<(u64, u64)> {
    let baseline = run_storm(spec, &StormOpts { cfg: cfg.clone(), ..StormOpts::default() });
    let invariant = baseline.violation.as_ref()?.invariant;
    let mut replays = 0u64;
    for cap in 1..=baseline.injections {
        replays += 1;
        if violates(spec, cfg, Some(cap), invariant) {
            return Some((cap, replays));
        }
    }
    None
}

/// The shrinker's verdict: a 1-minimal failing scenario.
pub struct ShrinkResult {
    /// The minimized spec (still violates [`invariant`](Self::invariant)).
    pub spec: StormSpec,
    /// The invariant preserved through minimization.
    pub invariant: &'static str,
    /// Replays the delta-debugging loop spent.
    pub replays: u64,
    /// Step count before minimization.
    pub original_steps: usize,
}

/// Delta-debugging (ddmin) minimization of a failing storm: drops
/// chunks of steps while the same invariant still flips, until no
/// single chunk at any granularity can be removed. `None` when the
/// full run is clean.
pub fn shrink(spec: &StormSpec, cfg: &KernelConfig) -> Option<ShrinkResult> {
    let baseline = run_storm(spec, &StormOpts { cfg: cfg.clone(), ..StormOpts::default() });
    let invariant = baseline.violation.as_ref()?.invariant;
    let still_fails = |steps: &[StormStep], replays: &mut u64| {
        *replays += 1;
        violates(&StormSpec { seed: spec.seed, steps: steps.to_vec() }, cfg, None, invariant)
    };
    let mut current = spec.steps.clone();
    let mut granularity = 2usize;
    let mut replays = 0u64;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let complement: Vec<StormStep> =
                current[..start].iter().chain(&current[end..]).copied().collect();
            if !complement.is_empty() && still_fails(&complement, &mut replays) {
                current = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    Some(ShrinkResult {
        spec: StormSpec { seed: spec.seed, steps: current },
        invariant,
        replays,
        original_steps: spec.steps.len(),
    })
}

/// Serializes a spec as a reproducer file. `parse_reproducer` of the
/// result round-trips byte-identically.
pub fn serialize_reproducer(spec: &StormSpec, invariant: &str) -> String {
    let mut out = String::new();
    out.push_str("# vino-bench debug-storm reproducer\n");
    out.push_str("version 1\n");
    out.push_str(&format!("seed {}\n", spec.seed));
    out.push_str(&format!("invariant {invariant}\n"));
    for s in &spec.steps {
        let fault = match s.fault {
            FaultChoice::None => "none".to_string(),
            FaultChoice::VmTrap { offset } => format!("vmtrap:{offset}"),
            FaultChoice::DiskRead => "diskread".to_string(),
            FaultChoice::DiskStall => "diskstall".to_string(),
            FaultChoice::ResourceExhaust => "resexhaust".to_string(),
        };
        out.push_str(&format!(
            "step pre_ms={} fault={} graft={} arg={} funded={} read_block={}\n",
            s.pre_ms, fault, ZOO_NAMES[s.graft], s.arg, s.funded as u8, s.read_block
        ));
    }
    out
}

/// Parses a reproducer file back into `(spec, invariant)`.
pub fn parse_reproducer(text: &str) -> Result<(StormSpec, String), String> {
    let mut seed = None;
    let mut invariant = None;
    let mut steps = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}", ln + 1);
        let mut it = line.split_whitespace();
        match it.next() {
            Some("version") => {
                if it.next() != Some("1") {
                    return Err(err("unsupported reproducer version"));
                }
            }
            Some("seed") => {
                let v = it.next().ok_or_else(|| err("seed needs a value"))?;
                seed = Some(v.parse().map_err(|_| err("seed must be a u64"))?);
            }
            Some("invariant") => {
                let v = it.next().ok_or_else(|| err("invariant needs a name"))?;
                invariant = Some(v.to_string());
            }
            Some("step") => {
                let mut step = StormStep {
                    pre_ms: 0,
                    fault: FaultChoice::None,
                    graft: 0,
                    arg: 1,
                    funded: false,
                    read_block: 0,
                };
                for kv in it {
                    let (key, val) =
                        kv.split_once('=').ok_or_else(|| err("step fields are key=value"))?;
                    match key {
                        "pre_ms" => {
                            step.pre_ms = val.parse().map_err(|_| err("bad pre_ms"))?;
                        }
                        "fault" => {
                            step.fault = match val.split_once(':') {
                                Some(("vmtrap", off)) => FaultChoice::VmTrap {
                                    offset: off.parse().map_err(|_| err("bad vmtrap offset"))?,
                                },
                                Some(_) => return Err(err("unknown fault")),
                                None => match val {
                                    "none" => FaultChoice::None,
                                    "diskread" => FaultChoice::DiskRead,
                                    "diskstall" => FaultChoice::DiskStall,
                                    "resexhaust" => FaultChoice::ResourceExhaust,
                                    _ => return Err(err("unknown fault")),
                                },
                            };
                        }
                        "graft" => {
                            step.graft = ZOO_NAMES
                                .iter()
                                .position(|n| *n == val)
                                .ok_or_else(|| err("unknown graft"))?;
                        }
                        "arg" => step.arg = val.parse().map_err(|_| err("bad arg"))?,
                        "funded" => {
                            step.funded = match val {
                                "0" => false,
                                "1" => true,
                                _ => return Err(err("funded must be 0 or 1")),
                            };
                        }
                        "read_block" => {
                            step.read_block = val.parse().map_err(|_| err("bad read_block"))?;
                        }
                        _ => return Err(err("unknown step field")),
                    }
                }
                steps.push(step);
            }
            _ => return Err(err("unknown directive")),
        }
    }
    let seed = seed.ok_or("missing seed line")?;
    let invariant = invariant.ok_or("missing invariant line")?;
    Ok((StormSpec { seed, steps }, invariant))
}

/// Runs `spec` and renders its trace as an ASCII timeline.
pub fn storm_timeline(spec: &StormSpec, cfg: &KernelConfig, topts: &TimelineOpts) -> String {
    let opts = StormOpts { cfg: cfg.clone(), ..StormOpts::default() };
    let (w, _) = run_storm_world(spec, &opts);
    render_timeline(&w.tp, topts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_generation_is_deterministic_and_pure() {
        let a = StormSpec::generate(7, 32);
        let b = StormSpec::generate(7, 32);
        assert_eq!(a, b);
        assert!(a.steps.iter().any(|s| s.fault != FaultChoice::None), "some step injects");
    }

    #[test]
    fn reproducer_round_trips_byte_identically() {
        let spec = StormSpec::generate(11, 24);
        let text = serialize_reproducer(&spec, "abort-free");
        let (parsed, inv) = parse_reproducer(&text).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(inv, "abort-free");
        assert_eq!(serialize_reproducer(&parsed, &inv), text);
    }

    #[test]
    fn reproducer_rejects_garbage() {
        assert!(parse_reproducer("bogus directive").is_err());
        assert!(parse_reproducer("version 2").is_err());
        assert!(parse_reproducer("seed 1\nstep fault=warp").is_err());
        assert!(parse_reproducer("seed 1\nstep graft=no-such").is_err());
        // Missing invariant line.
        assert!(parse_reproducer("seed 1\n").is_err());
    }
}
