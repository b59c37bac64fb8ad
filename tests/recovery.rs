//! The recovery battery: crash-consistent vino-fs under injected
//! kernel crashes.
//!
//! §3's survival argument is about grafts that misbehave; this battery
//! is about the kernel itself dying at the worst possible instants. The
//! write-ahead redo journal in `vino-fs` promises that whatever instant
//! power dies, a fresh kernel booted over the surviving disk image
//! ([`Kernel::boot_from_image`]) recovers to a consistent state:
//!
//! - **committed data is durable** — bytes written by operations that
//!   returned `Ok` before the crash read back intact;
//! - **uncommitted data is absent** — the operation in flight at the
//!   crash is all-or-nothing: its target blocks are entirely old or
//!   entirely new, never a mix, and never a torn block;
//! - **the ledgers conserve** — the fresh kernel starts with zero
//!   active transactions, an empty lock table, and a recovery report
//!   that accounts for every journal record found;
//! - **replay is deterministic** — two same-seed runs of any scenario
//!   produce byte-identical crash images, recovered images, and
//!   recovery reports.
//!
//! The battery runs the full cross-product of crash points
//! ([`CRASH_SITES`]: before the journal write, mid-journal with a torn
//! record, after the commit marker but before checkpoint, and
//! mid-checkpoint) × workloads (graft install, fs write-behind,
//! mid-undo graft abort, packet-path batch), each twice to prove the
//! same-seed replay invariant.
//!
//! Two satellites ride along: an exhaustiveness test proving every
//! [`FaultSite`] variant is exercised by at least one scenario (the
//! `match` has no wildcard — adding a site without a scenario fails to
//! compile), and media-fault tests proving recovery never half-applies
//! under [`FaultSite::DiskWrite`]/[`FaultSite::DiskStall`] retries and
//! that a replay torn by [`FaultSite::DiskTornWrite`] is repaired by
//! simply running recovery again (redo records are idempotent).

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::{point_names, KernelConfig};
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::dev::disk::{Disk, DiskImage};
use vino::dev::Port;
use vino::fs::{FileSystem, FsError, RecoveryReport, BLOCK_SIZE};
use vino::net::{verdict_code, Packet, PacketPlane};
use vino::repl::{ReplConfig, ReplHarness};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite, ALL_SITES, CRASH_SITES, REPL_SITES};
use vino::sim::{Cycles, VirtualClock};

/// The four kernel workloads a crash interrupts. Each drives a
/// different subsystem before (and around) the doomed file-system
/// write the armed crash site kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Install and invoke a read-ahead graft, then crash during an fs
    /// write: graft bookkeeping must not leak into the recovered disk.
    GraftInstall,
    /// Pure file-system write-behind traffic: hot cache, interleaved
    /// reads and writes, then the doomed overwrite.
    WriteBehind,
    /// A graft aborts (div0) and its undo stack restores kernel state;
    /// the crash then hits the next fs write. Graft-transaction undo
    /// and fs-journal redo must not interfere.
    MidUndo,
    /// A packet batch flows through a filter graft; the crash hits the
    /// fs write that would have logged the tally.
    PacketBatch,
    /// A graft trips the reliability manager's quarantine (three traps)
    /// before the crash. Quarantine ledgers are volatile kernel state:
    /// the reboot must roll them back atomically — zero aborts on the
    /// ledger, the graft name welcome again, and no residue of the
    /// quarantine in the journal or on the platter.
    Quarantined,
}

const WORKLOADS: [Workload; 5] = [
    Workload::GraftInstall,
    Workload::WriteBehind,
    Workload::MidUndo,
    Workload::PacketBatch,
    Workload::Quarantined,
];

const DOOMED_BLOCKS: usize = 3;
const BASE_BYTES: &[u8] = b"committed before the crash; must survive it";

fn old_pattern() -> Vec<u8> {
    vec![0xAA; DOOMED_BLOCKS * BLOCK_SIZE]
}

fn new_pattern() -> Vec<u8> {
    vec![0xBB; DOOMED_BLOCKS * BLOCK_SIZE]
}

/// Everything one crash scenario leaves behind, for same-seed replay
/// comparison. `DiskImage` is `PartialEq`, so equality here is
/// byte-identity of every surviving block.
#[derive(PartialEq)]
struct Outcome {
    crash_image: DiskImage,
    recovered_image: DiskImage,
    report: RecoveryReport,
}

/// Runs one scenario: boot, commit base state, run the workload, arm
/// `site`, crash during the doomed overwrite, boot a fresh kernel over
/// the survivors, and assert every recovery invariant.
fn run_scenario(site: FaultSite, workload: Workload, seed: u64) -> Outcome {
    let k = Kernel::boot();
    let plane = FaultPlane::seeded(seed);
    k.attach_fault_plane(Rc::clone(&plane)).unwrap();

    // Committed state that must survive any crash.
    {
        let mut fs = k.fs.borrow_mut();
        fs.create("base", 2 * BLOCK_SIZE as u64).unwrap();
        let fd = fs.open("base").unwrap();
        fs.write(fd, 0, BASE_BYTES).unwrap();
        fs.create("doomed", (DOOMED_BLOCKS * BLOCK_SIZE) as u64).unwrap();
        let dfd = fs.open("doomed").unwrap();
        fs.write(dfd, 0, &old_pattern()).unwrap();
    }

    let app = k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    let thread = k.spawn_thread("battery");

    match workload {
        Workload::GraftInstall => {
            // A read-ahead graft goes in and serves a read before the
            // crash; its installation must leave no partial disk state.
            let fd = k.fs.borrow_mut().open("base").unwrap();
            let image = k
                .compile_graft(
                    "ra-next",
                    "add r1, r1, r2\nconst r2, 4096\ncall $ra_submit\nhalt r0",
                )
                .unwrap();
            k.install_ra_graft(fd, &image, app, thread, &InstallOpts::default()).unwrap();
            k.fs.borrow_mut().read(fd, 0, 64).unwrap();
            assert_eq!(k.fs.borrow().stats().ra_graft_calls, 1);
        }
        Workload::WriteBehind => {
            // Heat the cache with interleaved traffic so the doomed
            // write hits a warm (dirty) buffer cache.
            let mut fs = k.fs.borrow_mut();
            fs.create("hot", 4 * BLOCK_SIZE as u64).unwrap();
            let fd = fs.open("hot").unwrap();
            for i in 0..4u64 {
                fs.write(fd, i * BLOCK_SIZE as u64, &[i as u8; 128]).unwrap();
                fs.read(fd, i * BLOCK_SIZE as u64, 128).unwrap();
            }
        }
        Workload::MidUndo => {
            // The §5.1 corruptor: writes kernel state then divides by
            // zero. The abort undo restores the slot; the subsequent
            // crash must find nothing of it on disk.
            let image = k
                .compile_graft(
                    "div0",
                    "const r1, 6\nconst r2, 99\ncall $kv_set\nconst r1, 0\ndiv r0, r1, r1\nhalt r0",
                )
                .unwrap();
            let g = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    thread,
                    &InstallOpts::default(),
                )
                .unwrap();
            let out = g.borrow_mut().invoke([1, 2, 0, 0]);
            assert!(matches!(out, InvokeOutcome::Aborted { .. }));
            assert_eq!(k.engine.kv_read(6), 0, "undo must restore slot 6");
        }
        Workload::PacketBatch => {
            // A filter graft takes a batch; the crash hits the fs write
            // that would have journalled the tally.
            let pp = PacketPlane::new(Rc::clone(&k));
            let image = k.compile_graft("accept", "halt r0").unwrap();
            pp.install_filter(Port(10), &image, app, thread, &InstallOpts::default()).unwrap();
            for i in 0..32u32 {
                pp.rx(Packet::udp(i, 1, Port(10), vec![0x42; 16]));
            }
            pp.pump();
            let delivered = pp.drain_delivered(Port(10)).len();
            assert_eq!(delivered, 32, "the batch must flow before the crash");
        }
        Workload::Quarantined => {
            // Three traps quarantine the graft; stretch the backoff so
            // the quarantine is still active when the crash lands.
            k.reliability().set_policy(vino::core::reliability::QuarantinePolicy {
                base_backoff: Cycles::from_ms(60_000),
                max_backoff: Cycles::from_ms(600_000),
                ..vino::core::reliability::QuarantinePolicy::default()
            });
            let image = k.compile_graft("flaky", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
            for _ in 0..3 {
                let g = k
                    .install_function_graft(
                        point_names::COMPUTE_RA,
                        &image,
                        app,
                        thread,
                        &InstallOpts::default(),
                    )
                    .unwrap();
                assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
            }
            let err = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    thread,
                    &InstallOpts::default(),
                )
                .unwrap_err();
            assert!(matches!(err, InstallError::Quarantined { .. }));
            assert_eq!(k.reliability().total_aborts(), 3);
        }
    }

    // Arm the crash at this site's next visit, then run the doomed
    // overwrite. The kernel dies mid-operation.
    plane.arm(site, plane.visits(site) + 1);
    let injected_before = plane.injected(site);
    let crash_err = {
        let mut fs = k.fs.borrow_mut();
        let dfd = fs.open("doomed").unwrap();
        fs.write(dfd, 0, &new_pattern())
    };
    assert_eq!(crash_err, Err(FsError::PowerFailure), "{site:?}/{workload:?}: no crash");
    assert!(k.fs.borrow().halted(), "{site:?}/{workload:?}: fs still alive after the crash");
    assert_eq!(plane.injected(site), injected_before + 1);

    // The dead instance stays dead: no operation sneaks through.
    assert_eq!(k.fs.borrow_mut().create("late", 1), Err(FsError::PowerFailure));

    // Boot a fresh kernel over the surviving image. Mount runs journal
    // recovery before any subsystem touches the volume.
    let crash_image = k.crash_image();
    let k2 = Kernel::boot_from_image(KernelConfig::default(), crash_image.clone())
        .unwrap_or_else(|e| panic!("{site:?}/{workload:?}: remount failed: {e}"));
    let recovered_image = k2.crash_image();
    let report = k2.recovery_report().expect("recovered boot must carry a report");

    // ---- Recovery-to-consistent-state invariants ----

    // Committed data durable.
    {
        let mut fs = k2.fs.borrow_mut();
        let fd = fs.open("base").unwrap();
        assert_eq!(
            fs.read(fd, 0, BASE_BYTES.len() as u64).unwrap(),
            BASE_BYTES,
            "{site:?}/{workload:?}: committed bytes lost"
        );

        // The doomed write is all-or-nothing, and which side is
        // deterministic per crash point: before the commit marker the
        // transaction never happened; after it, redo completes it.
        let dfd = fs.open("doomed").unwrap();
        let got = fs.read(dfd, 0, (DOOMED_BLOCKS * BLOCK_SIZE) as u64).unwrap();
        let want = match site {
            FaultSite::KernelCrashBeforeJournal | FaultSite::KernelCrashMidJournal => old_pattern(),
            FaultSite::KernelCrashAfterCommit | FaultSite::KernelCrashMidCheckpoint => {
                new_pattern()
            }
            other => panic!("not a crash site: {other:?}"),
        };
        assert_eq!(got, want, "{site:?}/{workload:?}: doomed write not all-or-nothing");
        // No torn block visible: every byte agrees with one side, so no
        // block mixes old and new (the patterns differ in every byte).
    }

    // Mid-journal crashes tear a journal record; recovery must have
    // found and discarded the torn tail.
    if site == FaultSite::KernelCrashMidJournal {
        assert!(report.discarded_txns >= 1, "{workload:?}: torn tail not discarded");
    }
    if matches!(site, FaultSite::KernelCrashAfterCommit | FaultSite::KernelCrashMidCheckpoint) {
        assert!(report.replayed_txns >= 1, "{workload:?}: committed txn not replayed");
        assert!(report.replayed_blocks >= DOOMED_BLOCKS as u64);
    }

    // Ledger conservation on the fresh kernel: nothing in flight.
    let txn = k2.engine.txn.borrow();
    assert_eq!(txn.active_txns(), 0, "{site:?}/{workload:?}: transaction leaked across reboot");
    assert_eq!(txn.lock_table().held_count(), 0, "{site:?}/{workload:?}: lock leaked");
    assert_eq!(txn.lock_table().waiter_count(), 0, "{site:?}/{workload:?}: waiter leaked");
    drop(txn);

    // Quarantine ledgers are volatile: the reboot rolls them back
    // atomically. No abort count survives, and the graft name that was
    // refused with a far-future deadline before the crash installs
    // cleanly on the fresh kernel — checkpoint/restore (the debugging
    // plane) is the path that *preserves* quarantines; the platter
    // never does.
    if workload == Workload::Quarantined {
        assert_eq!(
            k2.reliability().total_aborts(),
            0,
            "{site:?}: quarantine ledger leaked across the reboot"
        );
        let app2 = k2.create_app(Limits::of(&[
            (ResourceKind::KernelHeap, 1 << 20),
            (ResourceKind::Memory, 1 << 24),
        ]));
        let thread2 = k2.spawn_thread("post-crash");
        let image = k2.compile_graft("flaky", "halt r0").unwrap();
        k2.install_function_graft(
            point_names::COMPUTE_RA,
            &image,
            app2,
            thread2,
            &InstallOpts::default(),
        )
        .unwrap_or_else(|e| {
            panic!("{site:?}: fresh kernel still refuses the once-quarantined name: {e}")
        });
    }

    Outcome { crash_image, recovered_image, report }
}

/// The tentpole: every crash point × every workload, each run twice
/// with the same seed to prove byte-identical replay.
#[test]
fn crash_battery_full_cross_product() {
    for &site in CRASH_SITES {
        for workload in WORKLOADS {
            let a = run_scenario(site, workload, 0xD15A57E5);
            let b = run_scenario(site, workload, 0xD15A57E5);
            assert!(
                a.crash_image == b.crash_image,
                "{site:?}/{workload:?}: same-seed crash images differ"
            );
            assert!(
                a.recovered_image == b.recovered_image,
                "{site:?}/{workload:?}: same-seed recovered images differ"
            );
            assert_eq!(
                a.report, b.report,
                "{site:?}/{workload:?}: same-seed recovery reports differ"
            );
        }
    }
}

/// Different seeds tear journal records at different prefixes, so the
/// surviving crash images differ — but recovery converges both to the
/// same consistent file contents. The tear is aimed at a *payload*
/// block (second mid-journal visit) where old and new bytes differ at
/// every offset, so the prefix length is visible on the platter.
#[test]
fn mid_journal_tears_differ_but_recovery_converges() {
    let run = |seed: u64| {
        let k = Kernel::boot();
        let plane = FaultPlane::seeded(seed);
        k.attach_fault_plane(Rc::clone(&plane)).unwrap();
        {
            let mut fs = k.fs.borrow_mut();
            fs.create("doomed", (DOOMED_BLOCKS * BLOCK_SIZE) as u64).unwrap();
            let fd = fs.open("doomed").unwrap();
            fs.write(fd, 0, &old_pattern()).unwrap();
        }
        let site = FaultSite::KernelCrashMidJournal;
        plane.arm(site, plane.visits(site) + 2); // descriptor, then *payload*
        let err = {
            let mut fs = k.fs.borrow_mut();
            let fd = fs.open("doomed").unwrap();
            fs.write(fd, 0, &new_pattern())
        };
        assert_eq!(err, Err(FsError::PowerFailure));
        let crash_image = k.crash_image();
        let k2 = Kernel::boot_from_image(KernelConfig::default(), crash_image.clone()).unwrap();
        let mut fs = k2.fs.borrow_mut();
        let fd = fs.open("doomed").unwrap();
        let got = fs.read(fd, 0, (DOOMED_BLOCKS * BLOCK_SIZE) as u64).unwrap();
        assert_eq!(got, old_pattern(), "a torn payload must void the whole transaction");
        crash_image
    };
    assert!(run(1) != run(2), "different tear prefixes must differ on disk");
}

// ---------------------------------------------------------------------
// Satellite: fault-site exhaustiveness.
// ---------------------------------------------------------------------

/// Boots a kernel with a seeded plane and one committed file.
fn boot_faulted(seed: u64) -> (Rc<Kernel>, Rc<FaultPlane>) {
    let k = Kernel::boot();
    let plane = FaultPlane::seeded(seed);
    k.attach_fault_plane(Rc::clone(&plane)).unwrap();
    let mut fs = k.fs.borrow_mut();
    fs.create("f", 4 * BLOCK_SIZE as u64).unwrap();
    let fd = fs.open("f").unwrap();
    fs.write(fd, 0, b"seed data").unwrap();
    drop(fs);
    (k, plane)
}

fn graft_harness(k: &Kernel) -> (vino::rm::PrincipalId, vino::sim::ThreadId) {
    let app = k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    (app, k.spawn_thread("exh"))
}

/// Arms or rates `site`, drives a minimal scenario that visits it, and
/// returns how many times the plane injected it.
fn exercise(site: FaultSite) -> u64 {
    if REPL_SITES.contains(&site) {
        return exercise_repl_site(site);
    }
    let (k, plane) = boot_faulted(0xE0);
    match site {
        FaultSite::DiskRead | FaultSite::DiskStall => {
            plane.set_rate(site, 1, 1);
            plane.set_stall(Cycles(10_000));
            let mut fs = k.fs.borrow_mut();
            let fd = fs.open("f").unwrap();
            // An uncached block, so the read goes to the platter.
            fs.read(fd, 3 * BLOCK_SIZE as u64, 64).unwrap();
        }
        FaultSite::DiskWrite => {
            plane.set_rate(site, 1, 1);
            let mut fs = k.fs.borrow_mut();
            let fd = fs.open("f").unwrap();
            fs.write(fd, 0, b"retry me").unwrap();
        }
        FaultSite::DiskTornWrite => {
            // A lost write: the driver is not told. The journal is why
            // this is survivable — see the media-fault tests below.
            plane.arm(site, plane.visits(site) + 1);
            let mut fs = k.fs.borrow_mut();
            let fd = fs.open("f").unwrap();
            fs.write(fd, 0, b"torn").unwrap();
        }
        FaultSite::VmTrap => {
            plane.arm(site, 1);
            let (app, thread) = graft_harness(&k);
            let image = k.compile_graft("ok", "halt r0").unwrap();
            let g = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    thread,
                    &InstallOpts::default(),
                )
                .unwrap();
            assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
        }
        FaultSite::ImageCorrupt => {
            plane.arm(site, 1);
            let (app, thread) = graft_harness(&k);
            let image = k.compile_graft("c", "halt r0").unwrap();
            let err = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    thread,
                    &InstallOpts::default(),
                )
                .unwrap_err();
            assert!(matches!(err, InstallError::Verify(_)));
        }
        FaultSite::ResourceExhaust => {
            plane.set_rate(site, 1, 1);
            let (app, thread) = graft_harness(&k);
            let image = k.compile_graft("alloc", "const r1, 4096\ncall $kalloc\nhalt r0").unwrap();
            let g = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    thread,
                    &InstallOpts::default(),
                )
                .unwrap();
            assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
        }
        FaultSite::LockTimeoutStorm => {
            plane.set_rate(site, 1, 1);
            let (app, thread) = graft_harness(&k);
            let (_h, _lock_id) = k.engine.register_lock(vino::txn::locks::LockClass::Buffer);
            let image =
                k.compile_graft("locker", "const r1, 0\ncall $lock\nspin: jmp spin").unwrap();
            let g = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    app,
                    thread,
                    &InstallOpts::default(),
                )
                .unwrap();
            g.borrow_mut().max_slices = 4;
            assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
        }
        FaultSite::NetRxOverflow => {
            plane.set_rate(site, 1, 1);
            let pp = PacketPlane::new(Rc::clone(&k));
            pp.open_port(Port(60), 64);
            pp.rx(Packet::udp(1, 2, Port(60), vec![0; 8]));
        }
        FaultSite::NetFilterTrap => {
            plane.arm(site, 1);
            let pp = PacketPlane::new(Rc::clone(&k));
            let (app, thread) = graft_harness(&k);
            let image = k.compile_graft("accept", "halt r0").unwrap();
            pp.install_filter(Port(10), &image, app, thread, &InstallOpts::default()).unwrap();
            pp.rx(Packet::udp(1, 2, Port(10), vec![0; 8]));
            pp.pump();
        }
        FaultSite::NetSteerLoop => {
            plane.arm(site, 1);
            let pp = PacketPlane::new(Rc::clone(&k));
            let (app, thread) = graft_harness(&k);
            pp.open_port(Port(61), 64);
            let image = k
                .compile_graft(
                    "steer",
                    &format!("const r5, {}\nhalt r5", verdict_code::steer_to(61)),
                )
                .unwrap();
            pp.install_filter(Port(10), &image, app, thread, &InstallOpts::default()).unwrap();
            pp.rx(Packet::udp(1, 2, Port(10), vec![0; 8]));
            pp.pump();
        }
        FaultSite::KernelCrashBeforeJournal
        | FaultSite::KernelCrashMidJournal
        | FaultSite::KernelCrashAfterCommit
        | FaultSite::KernelCrashMidCheckpoint => {
            // Already covered by the full battery; here we just prove
            // the site fires in its minimal form.
            plane.arm(site, plane.visits(site) + 1);
            let mut fs = k.fs.borrow_mut();
            let fd = fs.open("f").unwrap();
            assert_eq!(fs.write(fd, 0, b"doomed"), Err(FsError::PowerFailure));
        }
        FaultSite::ReplShipDrop
        | FaultSite::ReplShipReorder
        | FaultSite::ReplAckLoss
        | FaultSite::ReplPrimaryCrash
        | FaultSite::ReplReplicaCrash => unreachable!("repl sites are handled above"),
    }
    plane.injected(site)
}

/// The repl sites fire inside the replication plane's schedule, which
/// owns its own two-kernel pair — arm the site there and drive the
/// standard shipping workload until it is visited.
fn exercise_repl_site(site: FaultSite) -> u64 {
    let mut h = ReplHarness::new(0xE0, ReplConfig::default());
    let plane = Rc::clone(h.fault_plane());
    plane.arm(site, plane.visits(site) + 1);
    h.run(6);
    plane.injected(site)
}

/// Every named fault site is exercised by at least one battery
/// scenario. The `match` in [`exercise`] has no wildcard arm, so adding
/// a `FaultSite` variant without teaching the battery about it is a
/// compile error here — exhaustiveness is structural, not aspirational.
#[test]
fn every_fault_site_is_exercised() {
    assert_eq!(ALL_SITES.len(), 20, "keep this battery in sync with the fault plane");
    for &site in ALL_SITES {
        let injected = exercise(site);
        assert!(injected > 0, "site {site:?} never fired in its scenario");
    }
}

// ---------------------------------------------------------------------
// Satellite: media faults during journal replay.
// ---------------------------------------------------------------------

/// Builds a crash image with one committed-but-not-checkpointed
/// transaction waiting in the journal (the after-commit crash).
fn image_with_pending_redo(seed: u64) -> DiskImage {
    let clock = VirtualClock::new();
    let disk = Disk::new(Rc::clone(&clock));
    let mut fs = FileSystem::format(Rc::clone(&clock), disk, 8, 64);
    fs.create("r", 4 * BLOCK_SIZE as u64).unwrap();
    let fd = fs.open("r").unwrap();
    fs.write(fd, 0, &vec![0x11; 2 * BLOCK_SIZE]).unwrap();
    let plane = FaultPlane::seeded(seed);
    plane.arm(
        FaultSite::KernelCrashAfterCommit,
        plane.visits(FaultSite::KernelCrashAfterCommit) + 1,
    );
    fs.obs().attach_fault(plane).unwrap();
    assert_eq!(fs.write(fd, 0, &vec![0x22; 2 * BLOCK_SIZE]), Err(FsError::PowerFailure));
    fs.disk_image()
}

/// Mounts (and thereby recovers) `image` with an optional fault plane
/// wired to the disk *before* recovery runs, so injected media faults
/// hit the replay path itself.
fn recover_with(image: DiskImage, plane: Option<Rc<FaultPlane>>) -> (DiskImage, RecoveryReport) {
    let clock = VirtualClock::new();
    let disk = Disk::from_image(Rc::clone(&clock), image).unwrap();
    if let Some(p) = plane {
        disk.obs().attach_fault(p).unwrap();
    }
    let mut fs = FileSystem::mount(clock, disk, 8).unwrap();
    let report = fs.recovery_report().unwrap();
    let fd = fs.open("r").unwrap();
    assert_eq!(fs.read(fd, 0, 16).unwrap(), vec![0x22; 16], "redo must complete the commit");
    (fs.disk_image(), report)
}

/// Media retries and stalls during replay cost time, never bytes: the
/// recovered image under a storm of `DiskWrite`/`DiskRead`/`DiskStall`
/// faults is byte-identical to a clean recovery. Recovery never
/// half-applies.
#[test]
fn replay_under_media_faults_is_byte_identical() {
    let image = image_with_pending_redo(77);
    let (clean_img, clean_report) = recover_with(image.clone(), None);

    let fp = FaultPlane::seeded(99);
    fp.set_rate(FaultSite::DiskWrite, 1, 1);
    fp.set_rate(FaultSite::DiskRead, 1, 2);
    fp.set_rate(FaultSite::DiskStall, 1, 2);
    fp.set_stall(Cycles(50_000));
    let (faulted_img, faulted_report) = recover_with(image, Some(Rc::clone(&fp)));

    assert!(fp.injected(FaultSite::DiskWrite) > 0, "no write fault ever fired during replay");
    assert!(fp.injected(FaultSite::DiskStall) > 0, "no stall ever fired during replay");
    assert!(clean_img == faulted_img, "media faults during replay changed recovered bytes");
    assert_eq!(clean_report, faulted_report);
}

/// A torn write *during replay itself* (power flickers while recovery
/// is checkpointing) leaves a torn home block — and because redo
/// records are idempotent and the journal survives until overwritten,
/// simply running recovery again repairs it to the clean image.
#[test]
fn torn_replay_is_repaired_by_rerunning_recovery() {
    let image = image_with_pending_redo(77);
    let (clean_img, _) = recover_with(image.clone(), None);

    let fp = FaultPlane::seeded(5);
    fp.arm(FaultSite::DiskTornWrite, 1);
    let clock = VirtualClock::new();
    let disk = Disk::from_image(Rc::clone(&clock), image).unwrap();
    disk.obs().attach_fault(Rc::clone(&fp)).unwrap();
    let mut fs = FileSystem::mount(clock, disk, 8).unwrap();
    assert_eq!(fp.injected(FaultSite::DiskTornWrite), 1, "the replay write must tear");

    // Second pass, fault disarmed: idempotent redo completes.
    fs.recover().unwrap();
    assert!(fs.disk_image() == clean_img, "second recovery pass must repair the torn block");
}

// ---------------------------------------------------------------------
// Satellite: journal-full backpressure under the packet storm.
// ---------------------------------------------------------------------

/// A write wider than the journal splits into per-capacity chunks, each
/// atomic on its own — that is the journal-full backpressure contract.
/// With a packet storm churning the same kernel, a crash *between*
/// chunks (the per-chunk after-commit site) must leave a clean prefix:
/// whole chunks of new bytes up to an exact chunk boundary, old bytes
/// beyond it, never a mix — and the whole scenario replays
/// byte-identically under the same seed.
#[test]
fn journal_full_backpressure_under_packet_storm() {
    let run = |seed: u64| {
        let k = Kernel::boot();
        let plane = FaultPlane::seeded(seed);
        k.attach_fault_plane(Rc::clone(&plane)).unwrap();

        let cap = k.fs.borrow().journal_capacity();
        let wide_blocks = cap + 3; // Cannot fit one journal transaction.
        {
            let mut fs = k.fs.borrow_mut();
            fs.create("wide", (wide_blocks * BLOCK_SIZE) as u64).unwrap();
            let fd = fs.open("wide").unwrap();
            fs.write(fd, 0, &vec![0xAA; wide_blocks * BLOCK_SIZE]).unwrap();
        }

        // The storm: a filter graft chews a packet batch on the same
        // kernel, so graft transactions and journal traffic interleave
        // right up to the crash.
        let app = k.create_app(Limits::of(&[
            (ResourceKind::KernelHeap, 1 << 20),
            (ResourceKind::Memory, 1 << 24),
        ]));
        let thread = k.spawn_thread("storm");
        let pp = PacketPlane::new(Rc::clone(&k));
        let image = k.compile_graft("accept", "halt r0").unwrap();
        pp.install_filter(Port(10), &image, app, thread, &InstallOpts::default()).unwrap();
        for i in 0..64u32 {
            pp.rx(Packet::udp(i, 1, Port(10), vec![0x55; 32]));
        }
        pp.pump();
        assert_eq!(pp.drain_delivered(Port(10)).len(), 64, "the storm must flow pre-crash");

        // Crash after the *first* chunk's commit marker: chunk 1 is
        // durable (redo will finish its checkpoint), chunks 2+ never
        // reached the journal.
        let site = FaultSite::KernelCrashAfterCommit;
        plane.arm(site, plane.visits(site) + 1);
        let err = {
            let mut fs = k.fs.borrow_mut();
            let fd = fs.open("wide").unwrap();
            fs.write(fd, 0, &vec![0xBB; wide_blocks * BLOCK_SIZE])
        };
        assert_eq!(err, Err(FsError::PowerFailure));

        let crash_image = k.crash_image();
        let k2 = Kernel::boot_from_image(KernelConfig::default(), crash_image.clone()).unwrap();
        let report = k2.recovery_report().expect("recovered boot must carry a report");
        assert!(report.replayed_txns >= 1, "the committed first chunk must replay");

        // The clean-prefix contract, at an exact chunk boundary.
        let mut fs = k2.fs.borrow_mut();
        let fd = fs.open("wide").unwrap();
        let got = fs.read(fd, 0, (wide_blocks * BLOCK_SIZE) as u64).unwrap();
        assert_eq!(
            &got[..cap * BLOCK_SIZE],
            &vec![0xBB; cap * BLOCK_SIZE][..],
            "first journal chunk must be durable"
        );
        assert_eq!(
            &got[cap * BLOCK_SIZE..],
            &vec![0xAA; 3 * BLOCK_SIZE][..],
            "blocks past the journal-full boundary must keep their old bytes"
        );
        drop(fs);
        (crash_image, k2.crash_image())
    };
    let (a_crash, a_rec) = run(0xBACC);
    let (b_crash, b_rec) = run(0xBACC);
    assert!(a_crash == b_crash, "same-seed crash images differ under the storm");
    assert!(a_rec == b_rec, "same-seed recovered images differ under the storm");
}
