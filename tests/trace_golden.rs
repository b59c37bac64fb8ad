//! Golden-trace battery: the canonical event stream, frozen.
//!
//! Three scenarios run a freshly booted kernel under a fixed seed with
//! a trace plane attached and compare the serialized event stream (and,
//! for the abort scenarios, the flight-recorder post-mortem) against
//! checked-in golden files in `tests/goldens/`. Any change to event
//! ordering, cycle accounting, lock time-outs, or the canonical line
//! format shows up as a diff here — that is the point. If the change is
//! intentional, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test trace_golden
//! ```
//!
//! and commit the updated `.trace` files alongside the change that
//! caused them. See `docs/TRACING.md` for the line format.

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::trace::TracePlane;
use vino::sim::ThreadId;
use vino::txn::locks::LockClass;
use vino::txn::manager::LockOutcome;
use vino_bench::golden;

fn boot_traced() -> (Rc<Kernel>, Rc<TracePlane>) {
    let k = Kernel::boot();
    let tp = TracePlane::with_capacity(Rc::clone(&k.clock), 4096);
    k.attach_trace_plane(Rc::clone(&tp)).unwrap();
    (k, tp)
}

/// Scenario 1: a well-behaved graft installs, runs, and commits. The
/// golden pins the full install → invoke → begin → window → commit
/// sequence and its cycle accounting.
#[test]
fn golden_clean_commit() {
    let (k, tp) = boot_traced();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image =
        k.compile_graft("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    let out = g.borrow_mut().invoke([41, 0, 0, 0]);
    assert!(matches!(out, InvokeOutcome::Ok { result: 41, .. }));
    assert!(tp.post_mortem().is_none(), "clean commit leaves no post-mortem");
    golden::check("clean_commit.trace", &tp.serialize());
}

/// Scenario 2: a lock-timeout storm steals the wrapper transaction out
/// from under a spinning graft. The golden pins the timeout → undo →
/// abort → steal sequence (whose cycle stamps depend directly on the
/// `LockClass::Buffer` time-out constant) plus the rendered
/// flight-recorder post-mortem.
#[test]
fn golden_lock_timeout_abort() {
    let (k, tp) = boot_traced();
    let plane = FaultPlane::seeded(9);
    plane.set_rate(FaultSite::LockTimeoutStorm, 1, 1);
    k.attach_fault_plane(plane).unwrap();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let _ = k.engine.register_lock(LockClass::Buffer);
    let image = k.compile_graft("storm-victim", "const r1, 0\ncall $lock\nspin: jmp spin").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    g.borrow_mut().max_slices = 4;
    let out = g.borrow_mut().invoke([0; 4]);
    assert!(matches!(out, InvokeOutcome::Aborted { .. }));
    let pm = k.post_mortem().expect("storm abort leaves a post-mortem");

    // Epilogue: a genuine contended-lock time-out (no storm). The
    // blocked waiter's deadline is `now + LockClass::Buffer.timeout()`
    // tick-rounded, so the `txn.timeout` / `txn.abort` stamps below
    // move if anyone touches that constant — the golden is a tripwire
    // on the time-out table itself.
    let (holder, waiter) = (ThreadId(8), ThreadId(9));
    let lock = k.engine.txn.borrow_mut().create_lock(LockClass::Buffer);
    let mut m = k.engine.txn.borrow_mut();
    m.begin(holder);
    assert_eq!(m.lock(lock, holder), LockOutcome::Granted);
    let LockOutcome::Blocked { deadline, .. } = m.lock(lock, waiter) else {
        panic!("second taker must block");
    };
    drop(m);
    k.clock.advance_to(deadline);
    let fired = k.engine.txn.borrow_mut().fire_due_timeouts();
    assert!(!fired.is_empty(), "the contended time-out fired");

    let got = format!("{}\n{pm}", tp.serialize());
    golden::check("lock_timeout.trace", &got);
}

/// Scenario 3: three straight traps trip quarantine. The golden pins
/// three install/invoke/abort cycles, the `graft.quarantine` event with
/// its backoff deadline, and the last abort's post-mortem.
#[test]
fn golden_quarantine_trip() {
    let (k, tp) = boot_traced();
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
    let pm = k.post_mortem().expect("the third trap leaves a post-mortem");
    let got = format!("{}\n{pm}", tp.serialize());
    golden::check("quarantine.trace", &got);
}

/// Scenario 4: a kernel crash after the journal commit marker, then a
/// fresh kernel booted over the surviving image. The golden pins the
/// retroactively flushed recovery events (`fs.recovery_replay`,
/// emitted at plane-attach time because recovery runs at mount, before
/// any plane can be wired) followed by a post-recovery journaled write
/// (`fs.journal_append` → `fs.journal_commit` → `fs.checkpoint`).
#[test]
fn golden_crash_recovery() {
    use vino::core::kernel::KernelConfig;
    use vino::fs::{FsError, BLOCK_SIZE};

    let k = Kernel::boot();
    let plane = FaultPlane::seeded(0xCAFE);
    k.attach_fault_plane(Rc::clone(&plane)).unwrap();
    {
        let mut fs = k.fs.borrow_mut();
        fs.create("wal", 2 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("wal").unwrap();
        fs.write(fd, 0, b"committed").unwrap();
        let site = FaultSite::KernelCrashAfterCommit;
        plane.arm(site, plane.visits(site) + 1);
        assert_eq!(fs.write(fd, 0, b"in flight"), Err(FsError::PowerFailure));
    }
    let k2 = Kernel::boot_from_image(KernelConfig::default(), k.crash_image()).unwrap();
    assert!(k2.recovery_report().unwrap().replayed_txns >= 1);
    let tp = TracePlane::with_capacity(Rc::clone(&k2.clock), 4096);
    k2.attach_trace_plane(Rc::clone(&tp)).unwrap();
    {
        let mut fs = k2.fs.borrow_mut();
        let fd = fs.open("wal").unwrap();
        assert_eq!(fs.read(fd, 0, 9).unwrap(), b"in flight");
        fs.write(fd, 0, b"post-recovery write").unwrap();
    }
    golden::check("crash_recovery.trace", &tp.serialize());
}
