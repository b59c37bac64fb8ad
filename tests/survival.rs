//! The survival battery: the whole-kernel robustness argument.
//!
//! §5.1 drives VINO with "a suite of misbehaved grafts" — hoarders,
//! spinners, corruptors — and the claim defended is not that grafts
//! fail gracefully but that the *kernel* survives every one of them.
//! This battery replays that experiment at scale: ≥1000 seeded
//! graft × fault scenarios, mixing a zoo of misbehaved grafts with
//! deterministic fault injection at every instrumented site (disk
//! errors and stalls, VM traps, lock-timeout storms, resource
//! exhaustion, image corruption), and asserts after every scenario:
//!
//! - kernel state was restored or legitimately committed (never torn),
//! - no transaction leaked (`active_txns == 0`),
//! - no lock leaked (`held_count == 0`, `waiter_count == 0`),
//! - no resource counter leaked on the abort path,
//! - the default code path still serves (§3.6: "new invocations of the
//!   call use normal kernel code"),
//! - and nothing panicked.
//!
//! Seeds come from `SURVIVAL_SEEDS` (comma-separated u64s) or default
//! to three fixed seeds, so CI runs are reproducible bit-for-bit.

use std::rc::Rc;

use vino::core::engine::{AbortedWhy, InvokeOutcome};
use vino::core::kernel::point_names;
use vino::core::reliability::FailureKind;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::metrics::{Counter, MetricsPlane};
use vino::sim::profile::ProfilePlane;
use vino::sim::trace::TracePlane;
use vino::sim::{Cycles, SplitMix64};
use vino::txn::locks::LockClass;

/// Scenarios per seed; three seeds make ≥1000 total.
const SCENARIOS_PER_SEED: usize = 350;

fn seeds() -> Vec<u64> {
    match std::env::var("SURVIVAL_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|x| x.trim().parse().expect("SURVIVAL_SEEDS must be comma-separated u64s"))
            .collect(),
        Err(_) => vec![0xC0FFEE, 0xDEAD_BEEF, 42],
    }
}

/// The zoo of §5.1-style misbehaved grafts (plus one well-behaved
/// control). Each entry: name, whether it is expected to be capable of
/// committing, and the kernel-state slot it writes (if any).
struct ZooEntry {
    name: &'static str,
    image: vino::misfit::SignedImage,
    /// Slot the graft writes through the accessor protocol, if any.
    slot: Option<usize>,
    /// CPU-slice budget for instances of this graft.
    max_slices: u32,
}

fn build_zoo(k: &Kernel) -> Vec<ZooEntry> {
    let z = |name: &str, src: &str| k.compile_graft(name, src).unwrap();
    vec![
        // Well-behaved control: writes slot 5 = args[0], commits.
        ZooEntry {
            name: "good-kv",
            image: z("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2"),
            slot: Some(5),
            max_slices: 16,
        },
        // Mutates slot 6 then divides by zero: the §5.1 corruptor.
        ZooEntry {
            name: "div0",
            image: z(
                "div0",
                "
                const r1, 6
                const r2, 99
                call $kv_set
                const r3, 0
                div r0, r3, r3
                halt r0
                ",
            ),
            slot: Some(6),
            max_slices: 16,
        },
        // Allocates args[0] bytes then frees them: commits when given
        // budget, aborts on the zero-limit default (§3.2 hoarder).
        ZooEntry {
            name: "alloc",
            image: z("alloc", "call $kalloc\ncall $kfree\nhalt r0"),
            slot: None,
            max_slices: 16,
        },
        // Allocates and never frees: the hoarder whose allocation must
        // be released by the undo stack when a later fault aborts it.
        ZooEntry {
            name: "hoard",
            image: z("hoard", "call $kalloc\nhalt r0"),
            slot: None,
            max_slices: 16,
        },
        // Un-instrumented wild store at kernel memory: Mem trap.
        ZooEntry {
            name: "wild",
            image: k
                .compile_graft_unsafe(
                    "wild",
                    "
                    const r1, 0xC0000000
                    const r2, 0x41414141
                    storew r2, [r1+0]
                    halt r0
                    ",
                )
                .unwrap(),
            slot: None,
            max_slices: 16,
        },
        // Takes lock handle 0 and halts: exercises the storm site.
        ZooEntry {
            name: "locker",
            image: z("locker", "const r1, 0\ncall $lock\nhalt r0"),
            slot: None,
            max_slices: 16,
        },
        // Takes lock handle 0 and spins: the §2.2 `while(1)` holding a
        // resource. Expensive to run (full timeslices), so the mix
        // keeps it rare; killed by CpuHog or a storm-stolen txn.
        ZooEntry {
            name: "lock-spin",
            image: z("lock-spin", "const r1, 0\ncall $lock\nspin: jmp spin"),
            slot: None,
            max_slices: 2,
        },
    ]
}

struct Tally {
    commits: u64,
    aborts: u64,
    install_refusals: u64,
    quarantine_releases: u64,
    /// The canonical serialization of the battery's trace ring — the
    /// replay-determinism witness (two same-seed runs must agree byte
    /// for byte).
    trace: String,
    /// The metrics plane's full snapshot — the second determinism
    /// witness, and the cross-plane reconciliation substrate.
    metrics: String,
    /// The profile plane's full snapshot (folded stacks, hot functions,
    /// Chrome trace) — the third determinism witness.
    profile: String,
}

/// One kernel survives `SCENARIOS_PER_SEED` consecutive fault
/// scenarios — surviving means every invariant holds after every one.
fn run_battery(seed: u64) -> Tally {
    let k = Kernel::boot();
    let plane = FaultPlane::seeded(seed);
    k.attach_fault_plane(Rc::clone(&plane)).unwrap();
    let tp = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 14);
    k.attach_trace_plane(Rc::clone(&tp)).unwrap();
    let mp = MetricsPlane::new(Rc::clone(&k.clock));
    k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
    let pp = ProfilePlane::with_capacity(Rc::clone(&k.clock), 32, 1 << 16);
    k.attach_profile_plane(Rc::clone(&pp)).unwrap();
    let app = k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 30),
        (ResourceKind::Memory, 1 << 30),
    ]));
    let thread = k.spawn_thread("battery");
    let (_lock_handle, lock_id) = k.engine.register_lock(LockClass::Buffer);
    let zoo = build_zoo(&k);

    // The default-path probe: a real file read must succeed (faults
    // disarmed) after every scenario, whatever just died.
    k.fs.borrow_mut().create("probe", 16 * 4096).unwrap();
    let fd = k.fs.borrow_mut().open("probe").unwrap();

    // Model of the kernel-state slots the zoo writes: commits update
    // it, aborts must leave the real state equal to it.
    let mut model = [0u64; 64];
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let mut tally = Tally {
        commits: 0,
        aborts: 0,
        install_refusals: 0,
        quarantine_releases: 0,
        trace: String::new(),
        metrics: String::new(),
        profile: String::new(),
    };

    for i in 0..SCENARIOS_PER_SEED {
        // Spread scenarios across the quarantine window so the same
        // graft name quarantines, expires, and reinstalls many times.
        k.clock.charge(Cycles::from_ms(rng.below(120)));

        // Fault configuration for this scenario (one of eight, some
        // benign). Rates persist for the scenario, one-shots are armed
        // relative to the site's current visit count.
        plane.disarm_all();
        match rng.below(8) {
            0 => plane.arm(FaultSite::VmTrap, plane.visits(FaultSite::VmTrap) + 1 + rng.below(40)),
            1 => plane.set_rate(FaultSite::ResourceExhaust, 1, 2),
            2 => plane.set_rate(FaultSite::DiskRead, 1, 3),
            3 => plane.set_rate(FaultSite::DiskWrite, 1, 3),
            4 => plane.arm(FaultSite::ImageCorrupt, plane.visits(FaultSite::ImageCorrupt) + 1),
            5 => plane.set_rate(FaultSite::LockTimeoutStorm, 1, 1),
            6 => plane.set_rate(FaultSite::DiskStall, 1, 4),
            _ => {} // No injection: the zoo misbehaves on its own.
        }

        // Pick a graft: spinners are expensive (whole timeslices), so
        // keep them rare; everything else uniform.
        let pick = if rng.chance(1, 50) {
            zoo.iter().position(|z| z.name == "lock-spin").unwrap()
        } else {
            rng.below((zoo.len() - 1) as u64) as usize
        };
        let entry = &zoo[pick];

        // Sometimes fund the graft so the alloc/hoard paths commit.
        let opts = if rng.chance(1, 2) {
            InstallOpts {
                billing: vino::core::BillingMode::Transfer(vec![(ResourceKind::KernelHeap, 8192)]),
                ..InstallOpts::default()
            }
        } else {
            InstallOpts::default()
        };

        // Install. Quarantine and injected image corruption are valid
        // refusals: the kernel said no and kept running. A quarantine
        // must expire by the clock — prove it, then proceed.
        let graft = match k.install_function_graft(
            point_names::COMPUTE_RA,
            &entry.image,
            app,
            thread,
            &opts,
        ) {
            Ok(g) => Some(g),
            Err(InstallError::Quarantined { graft, until }) => {
                assert_eq!(graft, entry.name);
                assert!(
                    k.reliability().ledger(entry.name).unwrap().episodes > 0,
                    "quarantine without an episode"
                );
                tally.install_refusals += 1;
                k.clock.advance_to(until);
                let retried = k.install_function_graft(
                    point_names::COMPUTE_RA,
                    &entry.image,
                    app,
                    thread,
                    &opts,
                );
                match retried {
                    Ok(g) => {
                        tally.quarantine_releases += 1;
                        Some(g)
                    }
                    // The armed ImageCorrupt one-shot may hit the retry.
                    Err(InstallError::Verify(_)) => {
                        tally.install_refusals += 1;
                        None
                    }
                    Err(e) => panic!("reinstall after backoff must succeed: {e}"),
                }
            }
            Err(InstallError::Verify(_)) => {
                // Injected image corruption; the loader refused (Rule 6).
                tally.install_refusals += 1;
                None
            }
            Err(e) => panic!("scenario {i}: unexpected install refusal: {e}"),
        };

        if let Some(g) = graft {
            g.borrow_mut().max_slices = entry.max_slices;
            let arg = rng.range(1, 4096);
            let principal = g.borrow().principal;
            let used_before = k.engine.rm.borrow().used(principal, ResourceKind::KernelHeap);
            let out = g.borrow_mut().invoke([arg, i as u64, 0, 0]);
            match out {
                InvokeOutcome::Ok { .. } => {
                    tally.commits += 1;
                    if let Some(slot) = entry.slot {
                        model[slot] = match entry.name {
                            "good-kv" => arg,
                            "div0" => 99,
                            _ => model[slot],
                        };
                    }
                }
                InvokeOutcome::Aborted { why, report } => {
                    tally.aborts += 1;
                    assert!(g.borrow().is_dead(), "abort forcibly unloads (§3.6)");
                    // No resource-counter leak: everything the aborted
                    // run charged was released by the undo stack.
                    let used_after = k.engine.rm.borrow().used(principal, ResourceKind::KernelHeap);
                    assert_eq!(
                        used_before, used_after,
                        "scenario {i} ({}): abort leaked heap ({why:?}, {report:?})",
                        entry.name
                    );
                }
                InvokeOutcome::Dead => panic!("fresh install cannot be dead"),
            }
            // Unload bookkeeping: limits return to the installer.
            k.engine.rm.borrow_mut().destroy(principal, Some(app));
        }

        // Drive the disk while injection is live: reads may fail (an
        // I/O error is a legal answer) but must never wedge the cache
        // or the kernel.
        let _ = k.fs.borrow_mut().read(fd, rng.below(16) * 4096, 4096);

        // ---- Per-scenario survival invariants ----
        let txn = k.engine.txn.borrow();
        assert_eq!(txn.active_txns(), 0, "scenario {i}: transaction leaked");
        assert_eq!(txn.lock_table().held_count(), 0, "scenario {i}: lock leaked");
        assert_eq!(txn.lock_table().waiter_count(), 0, "scenario {i}: waiter leaked");
        assert_eq!(txn.lock_table().holder(lock_id), None);
        drop(txn);
        for slot in [5usize, 6] {
            assert_eq!(
                k.engine.kv_read(slot),
                model[slot],
                "scenario {i}: kernel slot {slot} torn"
            );
        }
        // The default path still serves, with injection quiesced.
        plane.disarm_all();
        let off = rng.below(16) * 4096;
        k.fs.borrow_mut().read(fd, off, 4096).expect("default read path must serve");
    }

    // The battery must actually have exercised the disaster paths.
    assert!(tally.aborts > SCENARIOS_PER_SEED as u64 / 4, "too few aborts: {}", tally.aborts);
    assert!(tally.commits > 0, "the well-behaved control never committed");
    assert!(plane.total_injected() > 0, "no fault ever fired");
    assert_eq!(k.reliability().total_aborts(), tally.aborts);
    assert!(k.engine.rm.borrow().blame(app) > 0, "aborts billed blame to the installer");
    let ts = tp.stats();
    assert_eq!(
        ts.vm + ts.txn + ts.rm + ts.fs + ts.graft + ts.net,
        ts.total,
        "per-subsystem trace counters must sum to the total"
    );
    assert_eq!(ts.net, 0, "this battery drives no packet plane");

    // ---- Cross-plane reconciliation ----
    // Counters with a trace event are derived from it
    // (`MetricsPlane::observe`), so txn/rm/fs/graft agree by
    // construction. The VM is the exception: it bills windows and SFI
    // checks in bulk per straight-line run, so its counters and its
    // trace events are still two records that must agree. (The
    // measurement-only counters — VmInstrs, MutexAcquires — have no
    // trace twin and are excluded.)
    let g = |c| mp.get(c);
    assert_eq!(
        ts.vm,
        g(Counter::VmWindows) + g(Counter::SfiClamps) + g(Counter::SfiCallchecks),
        "vm trace events must reconcile with vm counters"
    );
    // The planes also agree with the battery's own tally.
    assert_eq!(g(Counter::GraftCommits), tally.commits);
    assert_eq!(g(Counter::GraftAborts), tally.aborts);

    // The profile plane watched the same charge sites as the metrics
    // plane, so the two ledgers must agree exactly — for every graft in
    // the zoo and for the kernel's own components.
    for ptag in pp.tags_in_order() {
        let name = pp.name_of(ptag);
        let mtag = mp.tag(&name);
        assert_eq!(
            pp.attribution(ptag),
            mp.attribution(mtag),
            "{name}: profile and metrics attribution diverged"
        );
    }
    assert_eq!(pp.kernel_attribution(), mp.kernel_attribution());

    tally.trace = tp.serialize();
    tally.metrics = mp.snapshot();
    tally.profile = pp.snapshot();
    tally
}

#[test]
fn survival_battery_1000_scenarios() {
    let seeds = seeds();
    let mut quarantine_cycles = 0;
    for seed in &seeds {
        let tally = run_battery(*seed);
        quarantine_cycles += tally.quarantine_releases;
    }
    assert!(seeds.len() * SCENARIOS_PER_SEED >= 1000, "battery must cover at least 1000 scenarios");
    assert!(quarantine_cycles > 0, "no seed ever drove a graft through quarantine-and-release");
}

#[test]
fn survival_battery_is_deterministic() {
    // Same seed, same kernel, same disasters: the tallies agree.
    let a = run_battery(7);
    let b = run_battery(7);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.aborts, b.aborts);
    assert_eq!(a.install_refusals, b.install_refusals);
    assert_eq!(a.quarantine_releases, b.quarantine_releases);
    // The strong form: not just the tallies — the two runs' event
    // streams (sequence numbers, cycle stamps, payloads) are
    // byte-identical under the same seed.
    assert!(!a.trace.is_empty(), "the battery emitted no trace events");
    assert_eq!(a.trace, b.trace, "same-seed replay must produce a byte-identical trace");
    // And the same holds for the metrics plane: counters, attribution
    // ledgers, latency quantiles and health rows are all derived from
    // the virtual clock, so two same-seed runs snapshot byte-for-byte
    // identically.
    assert!(!a.metrics.is_empty(), "the battery recorded no metrics");
    assert_eq!(a.metrics, b.metrics, "same-seed replay must produce a byte-identical snapshot");
    // Third witness: the profile plane's folded stacks, hot-function
    // report and Chrome trace replay byte-for-byte too.
    assert!(!a.profile.is_empty(), "the battery recorded no profile");
    assert_eq!(a.profile, b.profile, "same-seed replay must produce a byte-identical profile");
}

#[test]
fn quarantine_blocks_reinstall_with_exponential_backoff() {
    // The reliability manager end to end: three aborts quarantine the
    // graft; reinstall is refused until the deadline, permitted after;
    // a second episode doubles the backoff.
    let k = Kernel::boot();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image = k.compile_graft("flaky", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();

    let crash = |n: u32| {
        for _ in 0..n {
            let g = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    t,
                    &InstallOpts::default(),
                )
                .expect("not quarantined yet");
            let out = g.borrow_mut().invoke([0; 4]);
            assert!(matches!(out, InvokeOutcome::Aborted { .. }));
        }
    };

    crash(3);
    let refused = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap_err();
    let InstallError::Quarantined { until: until1, .. } = refused else {
        panic!("expected quarantine, got {refused}");
    };
    let backoff1 = until1.saturating_sub(k.clock.now());
    assert!(backoff1 > Cycles::ZERO);

    // Deadline passes → reinstall permitted; three more crashes trip
    // episode two with double the backoff.
    k.clock.advance_to(until1);
    crash(3);
    let refused = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap_err();
    let InstallError::Quarantined { until: until2, .. } = refused else {
        panic!("expected second quarantine, got {refused}");
    };
    let backoff2 = until2.saturating_sub(k.clock.now());
    assert_eq!(backoff2.get(), backoff1.get() * 2, "exponential backoff doubles");
    assert_eq!(k.reliability().ledger("flaky").unwrap().episodes, 2);
    assert_eq!(k.reliability().ledger("flaky").unwrap().count(FailureKind::DivByZero), 6);

    // After the (longer) second deadline the graft is welcome again —
    // quarantine is backoff, not a death sentence.
    k.clock.advance_to(until2);
    k.install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .expect("second backoff expired");
}

#[test]
fn storm_stolen_transaction_does_not_panic_the_wrapper() {
    // The audited fire_due_timeouts interaction, end to end: a storm
    // schedules a phantom waiter against the spinning graft's lock; the
    // fired time-out aborts the wrapper's transaction from under the
    // running graft. The wrapper must observe the theft (not panic),
    // classify it as a lock time-out, and leave no residue.
    let k = Kernel::boot();
    let plane = FaultPlane::seeded(9);
    plane.set_rate(FaultSite::LockTimeoutStorm, 1, 1);
    k.attach_fault_plane(Rc::clone(&plane)).unwrap();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let (_h, lock_id) = k.engine.register_lock(LockClass::Buffer);
    let image = k.compile_graft("storm-victim", "const r1, 0\ncall $lock\nspin: jmp spin").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    g.borrow_mut().max_slices = 4;

    let out = g.borrow_mut().invoke([0; 4]);
    let InvokeOutcome::Aborted { why, .. } = out else {
        panic!("storm must abort the holder, got {out:?}");
    };
    assert_eq!(why, AbortedWhy::LockTimeout, "theft classified as a lock time-out");
    assert!(g.borrow().is_dead());
    let txn = k.engine.txn.borrow();
    assert_eq!(txn.active_txns(), 0);
    assert_eq!(txn.lock_table().holder(lock_id), None, "stolen lock released exactly once");
    assert_eq!(txn.lock_table().held_count(), 0);
    drop(txn);
    assert_eq!(k.reliability().ledger("storm-victim").unwrap().count(FailureKind::LockTimeout), 1);
}

#[test]
fn callee_disasters_never_abort_the_caller() {
    // §3.1: "any graft can abort without aborting its calling graft."
    // A caller invokes a crashing subgraft 3 times: every call returns
    // the CALLEE_ABORTED sentinel (dead callee included) and the caller
    // commits every time.
    let k = Kernel::boot();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let callee_img = k.compile_graft("callee", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
    let callee = k
        .install_function_graft(
            point_names::PICK_VICTIM,
            &callee_img,
            app,
            t,
            &InstallOpts::default(),
        )
        .unwrap();
    let handle = k.engine.register_subgraft(Rc::clone(&callee));
    let caller_img = k
        .compile_graft("caller", &format!("const r1, {handle}\ncall $call_graft\nhalt r0"))
        .unwrap();
    let caller = k
        .install_function_graft(
            point_names::COMPUTE_RA,
            &caller_img,
            app,
            t,
            &InstallOpts::default(),
        )
        .unwrap();

    for _ in 0..3 {
        caller.borrow_mut().revive();
        let out = caller.borrow_mut().invoke([0; 4]);
        let InvokeOutcome::Ok { result, .. } = out else {
            panic!("caller must commit despite callee disaster: {out:?}");
        };
        assert_eq!(result, vino::core::engine::CALLEE_ABORTED);
        assert_eq!(k.engine.txn.borrow().active_txns(), 0);
    }
    assert_eq!(caller.borrow().stats().commits, 3);
    assert_eq!(callee.borrow().stats().aborts, 1, "callee died once, then was Dead");
}
