//! Differential test of the GraftVM's two drivers.
//!
//! The interpreter bills the observability planes once per
//! straight-line run (the block driver) whenever no `VmTrap` visit in
//! the run can fire, and falls back to asking the fault plane before
//! every instruction (the per-instruction driver) otherwise. A
//! `VmTrap` rate forces the per-instruction driver everywhere; with a
//! rate of 1 in `u64::MAX` its draws never fire, so both runs of each
//! scenario must leave every plane byte-identical: the clock, the
//! metrics snapshot, the profile snapshot and folded stacks, the trace
//! stream, and the `VmTrap` visit count.

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::metrics::MetricsPlane;
use vino::sim::profile::ProfilePlane;
use vino::sim::trace::TracePlane;

/// Everything one scenario leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    clock: u64,
    metrics: String,
    profile: String,
    folded: String,
    trace: String,
    visits: u64,
    injected: u64,
}

/// Boots a kernel with every plane attached, runs `scenario`, and
/// collects the planes. `per_instr` forces the per-instruction driver.
fn observe(per_instr: bool, scenario: impl FnOnce(&Kernel, &FaultPlane)) -> Observed {
    let k = Kernel::boot();
    let fault = FaultPlane::seeded(0xB10C);
    if per_instr {
        fault.set_rate(FaultSite::VmTrap, 1, u64::MAX);
    }
    let trace = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 16);
    let metrics = MetricsPlane::new(Rc::clone(&k.clock));
    let profile = ProfilePlane::new(Rc::clone(&k.clock));
    k.attach_fault_plane(Rc::clone(&fault)).unwrap();
    k.attach_trace_plane(Rc::clone(&trace)).unwrap();
    k.attach_metrics_plane(Rc::clone(&metrics)).unwrap();
    k.attach_profile_plane(Rc::clone(&profile)).unwrap();
    scenario(&k, &fault);
    assert_eq!(trace.stats().dropped, 0, "the ring must hold the whole stream");
    Observed {
        clock: k.clock.now().get(),
        metrics: metrics.snapshot(),
        profile: profile.snapshot(),
        folded: profile.folded(),
        trace: trace.serialize(),
        visits: fault.visits(FaultSite::VmTrap),
        injected: fault.injected(FaultSite::VmTrap),
    }
}

/// Runs `scenario` under both drivers, asserts they agree, and returns
/// the common observation.
fn both_drivers(scenario: impl Fn(&Kernel, &FaultPlane)) -> Observed {
    let block = observe(false, &scenario);
    let per_instr = observe(true, &scenario);
    assert_eq!(block.clock, per_instr.clock, "clock");
    assert_eq!(block.metrics, per_instr.metrics, "metrics snapshot");
    assert_eq!(block.profile, per_instr.profile, "profile snapshot");
    assert_eq!(block.folded, per_instr.folded, "folded stacks");
    assert_eq!(block.trace, per_instr.trace, "trace stream");
    assert_eq!((block.visits, block.injected), (per_instr.visits, per_instr.injected), "VmTrap");
    block
}

const XOR_GRAFT: &str = "
    const r5, 0x5A5A5A5A
    add r3, r1, r3
loop:
    bgeu r1, r3, done
    loadw r7, [r1+0]
    xor r7, r7, r5
    storew r7, [r2+0]
    addi r1, r1, 4
    addi r2, r2, 4
    jmp loop
done:
    halt r0
";

/// Encrypts three payloads with the xor stream graft (the SFI-heavy
/// Table 6 path).
fn xor_stream(k: &Kernel, _fault: &FaultPlane) {
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image = k.compile_graft("xor-crypt", XOR_GRAFT).unwrap();
    let mut stream = k.install_stream_graft(&image, app, t, &InstallOpts::default()).unwrap();
    for len in [64usize, 1024, 700] {
        let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let cipher = stream.transform(&plain).expect("the stream graft survives");
        assert_eq!(cipher.len(), len);
    }
}

#[test]
fn xor_stream_graft_bills_identically() {
    let o = both_drivers(xor_stream);
    assert!(o.trace.contains("vm.sfi"), "the stream graft runs MiSFIT clamps");
    assert_eq!(o.injected, 0);
}

#[test]
fn local_calls_and_host_calls_bill_identically() {
    let o = both_drivers(|k, _| {
        let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
        let t = k.spawn_thread("app");
        let src = "
            const r3, 0
            const r4, 4
        loop:
            calll sub
            addi r3, r3, 1
            bltu r3, r4, loop
            mov r2, r0
            const r1, 5
            call $kv_set
            halt r2
        sub:
            addi r0, r0, 7
            nop
            ret
        ";
        let image = k.compile_graft("caller", src).unwrap();
        let g = k
            .install_function_graft(
                point_names::COMPUTE_RA,
                &image,
                app,
                t,
                &InstallOpts::default(),
            )
            .unwrap();
        for _ in 0..3 {
            let out = g.borrow_mut().invoke([0; 4]);
            assert!(matches!(out, InvokeOutcome::Ok { result: 28, .. }), "{out:?}");
        }
    });
    assert!(o.folded.contains("caller;fn@0;fn@"), "calll descends the call tree");
}

#[test]
fn trapping_and_preempted_grafts_bill_identically() {
    both_drivers(|k, _| {
        let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
        let t = k.spawn_thread("app");
        let opts = InstallOpts::default();
        let div0 =
            k.compile_graft("div0", "const r1, 9\nnop\ndiv r0, r1, r2\nnop\nhalt r0").unwrap();
        let g = k.install_function_graft(point_names::COMPUTE_RA, &div0, app, t, &opts).unwrap();
        assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
        // A seven-instruction loop body: the timeslice runs out in the
        // middle of a run, and the hog is aborted after one slice.
        let hog = k.compile_graft("hog", "spin:\nnop\nnop\nnop\nnop\nnop\nnop\njmp spin").unwrap();
        let g = k.install_function_graft(point_names::COMPUTE_RA, &hog, app, t, &opts).unwrap();
        g.borrow_mut().max_slices = 1;
        assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
    });
}

#[test]
fn armed_one_shot_mid_stream_bills_identically() {
    let o = both_drivers(|k, fault| {
        // Land the one-shot deep inside the xor loop of the first
        // payload (eleven instructions per word once instrumented).
        fault.arm(FaultSite::VmTrap, fault.visits(FaultSite::VmTrap) + 900);
        xor_stream_until_death(k);
    });
    assert_eq!(o.injected, 1, "the armed one-shot fires under both drivers");
}

/// Like [`xor_stream`], but tolerates the graft dying to an injected
/// trap.
fn xor_stream_until_death(k: &Kernel) {
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image = k.compile_graft("xor-crypt", XOR_GRAFT).unwrap();
    let mut stream = k.install_stream_graft(&image, app, t, &InstallOpts::default()).unwrap();
    for len in [512usize, 1024, 256] {
        let plain = vec![0xA5u8; len];
        let _ = stream.transform(&plain);
    }
}
