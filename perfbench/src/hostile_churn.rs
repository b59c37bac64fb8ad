//! `hostile_churn`: the survival path (Table 7).
//!
//! Every step installs a graft from a seeded zoo through
//! `Kernel::install_function_graft`, invokes it, then reads a probe
//! file under a seeded fault — a one-shot VM trap, resource
//! exhaustion, or a disk error or stall. The zoo has the debug storm's
//! shape: a kv-writer with undo, an allocator, a hoarder and a lock
//! taker. All planes are attached and the watch plane drives
//! admission; quarantine and admission refusals are waited out on the
//! virtual clock. One op is one step. Injected aborts and refused
//! installs are outcomes, not failures; a failure is a kernel-integrity
//! break.

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{BillingMode, InstallError, InstallOpts, Kernel};
use vino::misfit::SignedImage;
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::FaultSite;
use vino::sim::{Cycles, SplitMix64};
use vino::txn::LockClass;

use crate::harness::{host_ns, Fnv, Layer, Round, Tracer};
use crate::{attach_planes, fs_rows, fs_snap, time_remounts, LedgerSnap};

/// The zoo: name, source, and the kernel slot it writes on commit.
const ZOO: [(&str, &str, Option<usize>); 4] = [
    ("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2", Some(5)),
    ("alloc", "call $kalloc\ncall $kfree\nhalt r0", None),
    ("hoard", "call $kalloc\nhalt r0", None),
    ("locker", "const r1, 0\ncall $lock\nhalt r0", None),
];

/// Probe-file size in blocks: twice the buffer cache, so probe reads
/// keep reaching the disk and its fault sites.
const PROBE_BLOCKS: u64 = 512;

#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    VmTrap(u64),
    DiskRead,
    DiskStall,
    ResourceExhaust,
}

/// One step, drawn just before it runs.
struct Step {
    think_ms: u64,
    fault: Fault,
    graft: usize,
    arg: u64,
    funded: bool,
    block: u64,
}

fn draw_step(rng: &mut SplitMix64, inputs: &mut Fnv) -> Step {
    // A quarter of steps arm a trap a few instructions ahead, so
    // aborts are a steady share of steps.
    let fault = match rng.below(12) {
        0..=2 => Fault::None,
        3..=5 => Fault::VmTrap(rng.below(3)),
        6 | 7 => Fault::DiskRead,
        8 | 9 => Fault::DiskStall,
        _ => Fault::ResourceExhaust,
    };
    let graft = rng.below(ZOO.len() as u64) as usize;
    let s = Step {
        think_ms: rng.below(120),
        fault,
        graft,
        arg: rng.range(1, 4096),
        // alloc and hoard only commit when funded.
        funded: graft == 1 || graft == 2 || rng.chance(1, 2),
        block: rng.below(PROBE_BLOCKS),
    };
    let code = match s.fault {
        Fault::None => 0,
        Fault::VmTrap(o) => 1 + o,
        Fault::DiskRead => 8,
        Fault::DiskStall => 9,
        Fault::ResourceExhaust => 10,
    };
    inputs.mix(s.think_ms << 40 ^ code << 32 ^ (s.graft as u64) << 24 ^ s.funded as u64);
    inputs.mix(s.arg << 16 ^ s.block);
    s
}

/// One round of `steps` ops.
pub fn round(seed: u64, steps: u64, tr: &mut Tracer) -> Round {
    let mut r = Round::default();
    let t0 = host_ns();
    let k = Kernel::boot();
    let planes = attach_planes(&k, seed);
    let fp = &planes.fault;
    let app = k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 30),
        (ResourceKind::Memory, 1 << 30),
    ]));
    let thread = k.spawn_thread("churn");
    k.engine.register_lock(LockClass::Buffer);
    let zoo: Vec<SignedImage> =
        ZOO.iter().map(|(name, src, _)| k.compile_graft(name, src).expect("assembles")).collect();
    let fd = {
        let mut fs = k.fs.borrow_mut();
        fs.create("probe", PROBE_BLOCKS * 4096).expect("fresh volume");
        fs.open("probe").expect("just created")
    };
    r.setup_ns = host_ns() - t0;

    let mut rng = SplitMix64::new(seed ^ 0xD1A6_D1A6);
    let mut inputs = Fnv::default();
    let fs0 = fs_snap(&k);
    let led0 = LedgerSnap::take(&planes);
    let txn0 = k.engine.txn.borrow().stats();
    let aborts0 = k.reliability().total_aborts();
    let region0 = k.clock.now();
    let mut model5 = k.engine.kv_read(5);
    let (mut virt, mut attempts, mut refusals, mut aborts) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..steps {
        let s = draw_step(&mut rng, &mut inputs);
        let (name, _, slot) = ZOO[s.graft];
        let opts = InstallOpts {
            billing: BillingMode::Transfer(if s.funded {
                vec![(ResourceKind::KernelHeap, 8192)]
            } else {
                Vec::new()
            }),
            ..InstallOpts::default()
        };
        k.clock.charge(Cycles::from_ms(s.think_ms));

        let op = tr.begin_op();
        let v0 = k.clock.now();
        let mut waited = 0;
        tr.call(Layer::FaultArm, || match s.fault {
            Fault::None => {}
            Fault::VmTrap(o) => fp.arm(FaultSite::VmTrap, fp.visits(FaultSite::VmTrap) + 1 + o),
            Fault::DiskRead => fp.set_rate(FaultSite::DiskRead, 1, 3),
            Fault::DiskStall => fp.set_rate(FaultSite::DiskStall, 1, 4),
            Fault::ResourceExhaust => fp.set_rate(FaultSite::ResourceExhaust, 1, 2),
        });
        let mut installed = None;
        for _ in 0..2 {
            attempts += 1;
            let res = tr.call(Layer::Install, || {
                k.install_function_graft(point_names::COMPUTE_RA, &zoo[s.graft], app, thread, &opts)
            });
            match res {
                Ok(g) => {
                    installed = Some(g);
                    break;
                }
                // Quarantine and admission backoff carry a deadline:
                // wait it out on the virtual clock, then retry once.
                Err(
                    InstallError::Quarantined { until, .. }
                    | InstallError::AdmissionDenied { until, .. },
                ) => {
                    refusals += 1;
                    waited += until.saturating_sub(k.clock.now()).get();
                    k.clock.advance_to(until);
                }
                Err(_) => {
                    refusals += 1;
                    break;
                }
            }
        }
        if let Some(g) = installed {
            g.borrow_mut().max_slices = 16;
            let out = tr.call(Layer::Invoke, || {
                std::hint::black_box(g.borrow_mut().invoke(std::hint::black_box([s.arg, i, 0, 0])))
            });
            match out {
                InvokeOutcome::Ok { .. } => {
                    if slot.is_some() {
                        model5 = s.arg;
                    }
                }
                InvokeOutcome::Aborted { .. } => aborts += 1,
                InvokeOutcome::Dead => {
                    r.fail(format!("step {i}: a fresh install of {name} is dead"))
                }
            }
            let principal = g.borrow().principal;
            tr.call(Layer::RmDestroy, || k.engine.rm.borrow_mut().destroy(principal, Some(app)));
        }
        // A failed read under injection is a legal answer; a wedged
        // kernel is not.
        let _ = tr.call(Layer::FsRead, || {
            std::hint::black_box(k.fs.borrow_mut().read(fd, s.block * 4096, 4096))
        });
        let ns = tr.end_op(op);
        virt += k.clock.since(v0).get() - waited;
        r.op(ns, 1);

        // Kernel-integrity checks.
        {
            let txn = k.engine.txn.borrow();
            if txn.active_txns() != 0
                || txn.lock_table().held_count() != 0
                || txn.lock_table().waiter_count() != 0
            {
                r.fail(format!("step {i}: a transaction, lock or waiter leaked"));
            }
        }
        if k.engine.kv_read(5) != model5 {
            r.fail(format!("step {i}: committed kv slot 5 diverged from the model"));
        }
        tr.call(Layer::FaultArm, || fp.disarm_all());
        if k.fs.borrow_mut().read(fd, 0, 4096).is_err() {
            r.fail(format!("step {i}: the disarmed default-path read failed"));
        }
    }
    let ledgered = k.reliability().total_aborts() - aborts0;
    if ledgered != aborts {
        r.fail(format!("the ledgers count {ledgered} aborts, the benchmark saw {aborts}"));
    }
    r.ops = steps;
    r.inputs = inputs.get();
    let d = &mut r.det;
    // Kernel work per step; refusal waits are excluded (their count is
    // `core.refusal_share`), since their backoff length dwarfs the work.
    d.insert("virt_us_per_op", Cycles(virt).as_us() / steps as f64);
    d.insert("core.refusal_share", refusals as f64 / attempts as f64);
    fs_rows(&k, &fs0, steps, 0, k.clock.since(region0), d);
    LedgerSnap::take(&planes).rows_since(&led0, steps, d);
    let txn = k.engine.txn.borrow().stats();
    d.insert(
        "txn.abort_share",
        (txn.aborts - txn0.aborts) as f64 / (txn.begins - txn0.begins).max(1) as f64,
    );
    r.recover_ns = time_remounts(&k, 4, &mut r.det);
    r
}
