//! The watch-plane battery (`docs/WATCH.md`): sliding-window SLOs over
//! the virtual clock, the canonical alert stream, and metrics-driven
//! admission control, end to end.
//!
//! The acceptance scenario is the multi-tenant storm: a hostile tenant
//! whose grafts abort until the `abort-storm` window fires, next to a
//! benign tenant whose grafts commit. The battery asserts that
//!
//! - the admission controller deterministically refuses the hostile
//!   tenant's next install (with an exact backoff deadline) while the
//!   benign tenant's installs proceed untouched,
//! - the alert stream is golden-pinned (`tests/goldens/*.alerts`) and
//!   byte-identical across same-seed replays — including the full
//!   debug storm with fault injection live,
//! - and the watch plane's attribution reconciles *exactly* with the
//!   metrics plane's counters, event for event.
//!
//! Regenerate goldens with `UPDATE_GOLDENS=1 cargo test --test
//! watch_battery`.

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{AdmissionPolicy, InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, PrincipalId, ResourceKind};
use vino::sim::metrics::{Counter, MetricsPlane};
use vino::sim::trace::TracePlane;
use vino::sim::watch::WatchPlane;
use vino::sim::Cycles;
use vino_bench::debug::{run_storm_world, FaultChoice, StormOpts, StormSpec, StormStep};
use vino_bench::golden;

/// Same known-bad seed as the debug battery, so the full-storm
/// reconciliation below runs the scenario the rest of the repo pins.
const SEED: u64 = 3_405_691_582;

/// A kernel with trace, metrics and watch planes attached (in that
/// order — the watch plane mirrors alert edges into the trace), plus a
/// hostile and a benign tenant.
struct World {
    k: Rc<Kernel>,
    wp: Rc<WatchPlane>,
    mp: Rc<MetricsPlane>,
    hostile: PrincipalId,
    benign: PrincipalId,
    thread: vino::sim::ThreadId,
    crasher: vino::misfit::SignedImage,
    good: vino::misfit::SignedImage,
}

fn boot() -> World {
    let k = Kernel::boot();
    let tp = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 12);
    k.attach_trace_plane(Rc::clone(&tp)).unwrap();
    let mp = MetricsPlane::new(Rc::clone(&k.clock));
    k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
    let wp = WatchPlane::new(Rc::clone(&k.clock));
    k.attach_watch_plane(Rc::clone(&wp)).unwrap();
    let limits = || Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]);
    let hostile = k.create_app(limits());
    let benign = k.create_app(limits());
    let thread = k.spawn_thread("tenants");
    let crasher = k.compile_graft("crasher", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
    let good =
        k.compile_graft("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2").unwrap();
    World { k, wp, mp, hostile, benign, thread, crasher, good }
}

impl World {
    fn install(
        &self,
        image: &vino::misfit::SignedImage,
        tenant: PrincipalId,
    ) -> Result<vino::core::adapters::SharedGraft, InstallError> {
        self.k.install_function_graft(
            point_names::COMPUTE_RA,
            image,
            tenant,
            self.thread,
            &InstallOpts::default(),
        )
    }

    /// Installs and invokes one crasher for the hostile tenant,
    /// asserting the abort.
    fn hostile_abort(&self) {
        let g = self.install(&self.crasher, self.hostile).expect("crasher installs while clean");
        assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
    }
}

/// The acceptance storm: three hostile aborts inside the 1000 ms
/// `abort-storm` window fire the alert, and the very next hostile
/// install is refused with the policy's exact base-backoff deadline —
/// while the benign tenant, asked at the same virtual instant, installs
/// and commits untouched.
#[test]
fn hostile_tenant_is_denied_while_benign_proceeds() {
    let w = boot();
    for _ in 0..3 {
        w.hostile_abort();
    }
    assert!(w.wp.principal_firing(w.hostile.0), "three windowed aborts fire abort-storm");
    assert!(!w.wp.principal_firing(w.benign.0), "blame is per-principal");

    // The hostile tenant's next install: refused, deterministically.
    let now = w.k.clock.now();
    let err = w.install(&w.crasher, w.hostile).unwrap_err();
    let InstallError::AdmissionDenied { principal, until } = err else {
        panic!("expected AdmissionDenied, got {err}");
    };
    assert_eq!(principal, w.hostile);
    assert_eq!(until, now + AdmissionPolicy::default().base_backoff, "exact base backoff");
    assert_eq!(
        w.k.admission().deny_until(w.hostile, w.k.clock.now()),
        Some(until),
        "the deny deadline is inspectable"
    );

    // Same instant, benign tenant: allowed, and the graft commits.
    let g = w.install(&w.good, w.benign).expect("the benign tenant is untouched");
    assert!(matches!(g.borrow_mut().invoke([41, 0, 0, 0]), InvokeOutcome::Ok { result: 41, .. }));

    // Retrying before the deadline is refused with the *same* deadline
    // (the backoff is a contract, not a sliding target).
    let InstallError::AdmissionDenied { until: again, .. } =
        w.install(&w.crasher, w.hostile).unwrap_err()
    else {
        panic!("still inside the backoff");
    };
    assert_eq!(again, until);

    // Once the window has decayed and the backoff passed, the alert
    // resolves and the hostile tenant is admitted again.
    w.k.clock.advance_to(until + Cycles::from_ms(1000));
    assert!(!w.wp.principal_firing(w.hostile.0), "the abort window decayed");
    w.install(&w.crasher, w.hostile).expect("a clean bill of health admits again");

    let stats = w.k.admission().stats();
    assert_eq!(stats.denies, 2);
    assert!(stats.allows >= 5, "three crashers + good-kv + the readmit");
}

/// The tenant scenario's alert stream is canonical: golden-pinned and
/// byte-identical across replays, with firing and resolved edges both
/// blaming the hostile principal.
#[test]
fn tenant_storm_alert_stream_is_golden_and_replayable() {
    let run = || {
        let w = boot();
        for _ in 0..3 {
            w.hostile_abort();
        }
        let _ = w.install(&w.crasher, w.hostile); // The denied install.
        let g = w.install(&w.good, w.benign).unwrap();
        let _ = g.borrow_mut().invoke([41, 0, 0, 0]);
        w.k.clock.advance_to(w.k.clock.now() + Cycles::from_ms(2000));
        w.wp.poll(); // Records the resolved edge.
        (w.wp.serialize(), w.wp.stats())
    };
    let (stream, stats) = run();
    let (replay, _) = run();
    assert_eq!(stream, replay, "same-seed replays must be byte-identical");
    assert_eq!(stats.fired, 1);
    assert_eq!(stats.resolved, 1);
    let hostile_blamed =
        stream.lines().filter(|l| l.contains("rule=abort-storm principal=")).count();
    assert_eq!(hostile_blamed, 2, "both edges carry per-principal blame");
    golden::check("tenant_storm.alerts", &stream);
}

/// A dense hostile storm: one-shot VM traps on three back-to-back
/// steps, so three injection-caused aborts land inside the 1000 ms
/// `abort-storm` window and the debug world's own install loop runs
/// into the admission gate. The alert stream carries real firing and
/// resolved edges, the gate records real denies, and both are
/// byte-identical across same-seed replays and golden-pinned.
#[test]
fn debug_storm_alert_stream_is_golden_and_replayable() {
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
    let run = || {
        let (w, _) = run_storm_world(&spec, &StormOpts::default());
        let admission = w.k.admission().stats();
        (w.wp.serialize(), admission, w.wp.stats())
    };
    let (stream, admission, stats) = run();
    let (replay, admission2, _) = run();
    assert_eq!(stream, replay, "storm replays must be byte-identical");
    assert_eq!(admission, admission2);
    assert!(stats.fired > 0, "three dense aborts must fire abort-storm");
    assert!(stats.resolved > 0, "the calm tail must resolve it");
    assert!(admission.denies > 0, "the storm's install loop hit the admission gate");
    assert!(admission.allows > 0, "the storm recovers once the window decays");
    golden::check("debug_storm.alerts", &stream);
}

/// Exact reconciliation between the watch plane's attribution and the
/// metrics plane's counters — on the full debug storm, so every
/// subsystem tap (engine, fs, txn) is exercised under fault injection.
#[test]
fn watch_attribution_reconciles_with_metrics_counters() {
    let spec = StormSpec::generate(SEED, 48);
    let (w, _) = run_storm_world(&spec, &StormOpts::default());
    let s = w.wp.stats();
    let c = |x| w.mp.get(x);
    assert_eq!(s.installs, c(Counter::GraftInstalls), "installs");
    assert_eq!(
        s.invocations,
        c(Counter::GraftCommits) + c(Counter::GraftAborts),
        "every completed invocation, commit or abort"
    );
    assert_eq!(s.aborts, c(Counter::GraftAborts), "aborts");
    assert_eq!(s.quarantines, c(Counter::GraftQuarantines), "quarantine trips");
    assert_eq!(s.sheds, c(Counter::NetRxSheds) + c(Counter::NetRxOverflows), "RX sheds");
    assert_eq!(s.journal_appends, c(Counter::FsJournalAppends), "journal appends");
    assert_eq!(s.lock_timeouts, c(Counter::LockTimeouts), "lock time-outs");
    assert!(s.aborts > 0, "the known-bad storm aborts — the reconciliation is not vacuous");

    // The admission mirror: controller stats equal the metrics counters.
    let a = w.k.admission().stats();
    assert_eq!(a.allows, c(Counter::AdmissionAllows));
    assert_eq!(a.denies, c(Counter::AdmissionDenies));
}

/// The tenant scenario reconciles too — no fault plane, so the counts
/// are small and human-checkable.
#[test]
fn tenant_scenario_reconciles_and_counts_are_exact() {
    let w = boot();
    for _ in 0..3 {
        w.hostile_abort();
    }
    let _ = w.install(&w.crasher, w.hostile); // Denied: not an install.
    let g = w.install(&w.good, w.benign).unwrap();
    assert!(matches!(g.borrow_mut().invoke([9, 0, 0, 0]), InvokeOutcome::Ok { .. }));

    let s = w.wp.stats();
    assert_eq!(s.installs, 4, "three crashers + good-kv; the denied attempt never installs");
    assert_eq!(s.invocations, 4);
    assert_eq!(s.aborts, 3);
    assert_eq!(s.quarantines, 1, "the third crasher abort trips the name quarantine");
    assert_eq!(s.installs, w.mp.get(Counter::GraftInstalls));
    assert_eq!(s.aborts, w.mp.get(Counter::GraftAborts));
    assert_eq!(s.quarantines, w.mp.get(Counter::GraftQuarantines));
    assert_eq!(w.mp.get(Counter::AdmissionDenies), 1);
}
