//! Golden profile-snapshot battery: the canonical profile plane
//! output, frozen.
//!
//! The same three scenarios as the golden-trace and golden-metrics
//! batteries run with a profile plane attached and compare the full
//! snapshot (folded flamegraph stacks + hot-function report + Chrome
//! trace JSON) against checked-in golden files in `tests/goldens/`.
//! Any change to per-PC billing, call-graph folding, span placement,
//! or the rendered formats shows up as a diff here. If the change is
//! intentional, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test profile_golden
//! ```
//!
//! and commit the updated `.prof` files alongside the change that
//! caused them. See `docs/PROFILING.md` for the snapshot format.

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::profile::ProfilePlane;
use vino_bench::golden;

fn boot_profiled() -> (Rc<Kernel>, Rc<ProfilePlane>) {
    let k = Kernel::boot();
    let pp = ProfilePlane::new(Rc::clone(&k.clock));
    k.attach_profile_plane(Rc::clone(&pp)).unwrap();
    (k, pp)
}

/// Scenario 1: a well-behaved graft installs, runs, and commits. The
/// golden pins the clean-path folded stacks (envelope components +
/// per-function self/SFI cycles), the hot-function ranking, and a span
/// tree with txn-begin and txn-commit nested inside one invocation.
#[test]
fn golden_clean_commit_profile() {
    let (k, pp) = boot_profiled();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image =
        k.compile_graft("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    let out = g.borrow_mut().invoke([41, 0, 0, 0]);
    assert!(matches!(out, InvokeOutcome::Ok { result: 41, .. }));
    golden::check("clean_commit.prof", &pp.snapshot());
}

/// Scenario 2: a lock-timeout storm steals the wrapper transaction out
/// from under a spinning graft. The golden pins the abort-side profile:
/// the invocation span named `!abort`, the abort/undo spans, and cycles
/// in the Abort rather than TxnCommit component.
#[test]
fn golden_lock_timeout_abort_profile() {
    let (k, pp) = boot_profiled();
    let plane = FaultPlane::seeded(9);
    plane.set_rate(FaultSite::LockTimeoutStorm, 1, 1);
    k.attach_fault_plane(plane).unwrap();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let _ = k.engine.register_lock(vino::txn::locks::LockClass::Buffer);
    let image = k.compile_graft("storm-victim", "const r1, 0\ncall $lock\nspin: jmp spin").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    g.borrow_mut().max_slices = 4;
    let out = g.borrow_mut().invoke([0; 4]);
    assert!(matches!(out, InvokeOutcome::Aborted { .. }));
    let snap = pp.snapshot();
    assert!(snap.contains("!abort"), "the aborted invocation is named in the trace");
    golden::check("lock_timeout.prof", &snap);
}

/// Scenario 3: three straight traps trip quarantine. The golden pins
/// three aborted invocations' worth of per-PC cycles and spans, all
/// billed to the same graft name across reinstalls.
#[test]
fn golden_quarantine_trip_profile() {
    let (k, pp) = boot_profiled();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image = k.compile_graft("div0", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
    for _ in 0..3 {
        let g = k
            .install_function_graft(
                point_names::COMPUTE_RA,
                &image,
                app,
                t,
                &InstallOpts::default(),
            )
            .unwrap();
        let out = g.borrow_mut().invoke([0; 4]);
        assert!(matches!(out, InvokeOutcome::Aborted { .. }));
    }
    let refused = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap_err();
    assert!(matches!(refused, InstallError::Quarantined { .. }));
    let attr = pp.attribution(pp.tag("div0")).unwrap();
    assert_eq!(attr.invocations, 3, "reinstalls share one profile tag");
    golden::check("quarantine.prof", &pp.snapshot());
}
