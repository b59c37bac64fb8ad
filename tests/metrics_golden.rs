//! Golden metrics-snapshot battery: the canonical metrics plane
//! output, frozen.
//!
//! The same three scenarios as the golden-trace battery run with a
//! metrics plane attached and compare the full snapshot (Prometheus
//! exposition + per-graft attribution ledgers + health view) against
//! checked-in golden files in `tests/goldens/`. Any change to counter
//! placement, cycle attribution, histogram bucketing, or the rendered
//! formats shows up as a diff here. If the change is intentional,
//! regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test metrics_golden
//! ```
//!
//! and commit the updated `.metrics` files alongside the change that
//! caused them. See `docs/METRICS.md` for the snapshot format.

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::metrics::MetricsPlane;
use vino_bench::golden;

fn boot_metered() -> (Rc<Kernel>, Rc<MetricsPlane>) {
    let k = Kernel::boot();
    let mp = MetricsPlane::new(Rc::clone(&k.clock));
    k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
    (k, mp)
}

/// Scenario 1: a well-behaved graft installs, runs, and commits. The
/// golden pins the clean-path counter census, the full attribution
/// ledger (txn envelope + lock + graft fn + indirection), and a
/// single-commit health row.
#[test]
fn golden_clean_commit_metrics() {
    let (k, mp) = boot_metered();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image =
        k.compile_graft("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    let out = g.borrow_mut().invoke([41, 0, 0, 0]);
    assert!(matches!(out, InvokeOutcome::Ok { result: 41, .. }));
    golden::check("clean_commit.metrics", &mp.snapshot());
}

/// Scenario 2: a lock-timeout storm steals the wrapper transaction out
/// from under a spinning graft. The golden pins the timeout / steal /
/// abort counters and the abort-side attribution (undo + abort rows
/// non-zero, commit row zero).
#[test]
fn golden_lock_timeout_abort_metrics() {
    let (k, mp) = boot_metered();
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
    golden::check("lock_timeout.metrics", &mp.snapshot());
}

/// Scenario 3: three straight traps trip quarantine. The golden pins
/// three install/invoke/abort cycles, the quarantine counter, a 100%
/// abort rate, and the `quarantined@` state in the health view.
#[test]
fn golden_quarantine_trip_metrics() {
    let (k, mp) = boot_metered();
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
    assert_eq!(mp.get(vino::sim::metrics::Counter::GraftQuarantines), 1);
    assert!(mp.snapshot().contains("quarantined@"), "health shows the backoff deadline");
    golden::check("quarantine.metrics", &mp.snapshot());
}

/// Scenario 4: the trace battery's crash-recovery scenario with a
/// metrics plane on the recovered kernel. The golden pins the
/// retroactively flushed `vino_fs_recovery_replays_total`, the
/// journal counters for a post-recovery write, and the `vino_disk_*`
/// census (reads/writes/seeks) the remounted volume generates — plus
/// the `disk:` and `journal:` footer lines of the health view.
#[test]
fn golden_crash_recovery_metrics() {
    use vino::core::kernel::KernelConfig;
    use vino::fs::{FsError, BLOCK_SIZE};
    use vino::sim::fault::FaultSite;

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
    let mp = MetricsPlane::new(Rc::clone(&k2.clock));
    k2.attach_metrics_plane(Rc::clone(&mp)).unwrap();
    {
        let mut fs = k2.fs.borrow_mut();
        let fd = fs.open("wal").unwrap();
        assert_eq!(fs.read(fd, 0, 9).unwrap(), b"in flight");
        fs.write(fd, 0, b"post-recovery write").unwrap();
    }
    let got = mp.snapshot();
    assert!(got.contains("vino_fs_recovery_replays_total 1"), "replay flushed to metrics");
    assert!(got.contains("disk: "), "health carries the disk census");
    golden::check("crash_recovery.metrics", &got);
}
