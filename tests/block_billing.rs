//! Differential test of the GraftVM's two drivers.
//!
//! The interpreter bills the observability planes once per
//! straight-line run (the block driver) whenever no `VmTrap` visit in
//! the run can fire, and falls back to asking the fault plane before
//! every instruction (the per-instruction driver) otherwise. A
//! `VmTrap` rate forces the per-instruction driver everywhere; with a
//! rate of 1 in `u64::MAX` its draws never fire, so both runs of each
//! scenario must leave every plane byte-identical: the clock, the
//! metrics snapshot, the profile snapshot, folded stacks and per-PC
//! ledgers, the trace stream with its stamps and evictions, and the
//! `VmTrap` visit count. The block driver also dispatches MiSFIT's
//! `mov; clamp; load/store` triple as one op and batches `vm.sfi`
//! records, so the scenarios cut, trap and flush around those too.

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
    pc_hits: Vec<Vec<(usize, u64, u64, u64)>>,
    trace: String,
    dropped: u64,
    visits: u64,
    injected: u64,
}

/// The graft names whose per-PC ledgers [`Observed`] keeps.
const GRAFTS: [&str; 5] = ["xor-crypt", "caller", "sbx-spin", "sbx-batch", "sbx-callee"];

/// The trace ring the scenarios run with unless they test eviction.
const BIG_RING: usize = 1 << 16;

/// Boots a kernel with every plane attached (a `ring`-record trace
/// plane), runs `scenario`, and collects the planes. `per_instr`
/// forces the per-instruction driver.
fn observe(per_instr: bool, ring: usize, scenario: impl FnOnce(&Kernel, &FaultPlane)) -> Observed {
    let k = Kernel::boot();
    let fault = FaultPlane::seeded(0xB10C);
    if per_instr {
        fault.set_rate(FaultSite::VmTrap, 1, u64::MAX);
    }
    let trace = TracePlane::with_capacity(Rc::clone(&k.clock), ring);
    let metrics = MetricsPlane::new(Rc::clone(&k.clock));
    let profile = ProfilePlane::new(Rc::clone(&k.clock));
    k.attach_fault_plane(Rc::clone(&fault)).unwrap();
    k.attach_trace_plane(Rc::clone(&trace)).unwrap();
    k.attach_metrics_plane(Rc::clone(&metrics)).unwrap();
    k.attach_profile_plane(Rc::clone(&profile)).unwrap();
    scenario(&k, &fault);
    if ring == BIG_RING {
        assert_eq!(trace.stats().dropped, 0, "the ring must hold the whole stream");
    }
    Observed {
        clock: k.clock.now().get(),
        metrics: metrics.snapshot(),
        profile: profile.snapshot(),
        folded: profile.folded(),
        pc_hits: GRAFTS.iter().map(|g| profile.pc_buckets(profile.tag(g), 1)).collect(),
        trace: trace.serialize(),
        dropped: trace.stats().dropped,
        visits: fault.visits(FaultSite::VmTrap),
        injected: fault.injected(FaultSite::VmTrap),
    }
}

/// Runs `scenario` under both drivers with a `ring`-record trace ring,
/// asserts they agree, and returns the common observation.
fn both_drivers_on(ring: usize, scenario: impl Fn(&Kernel, &FaultPlane)) -> Observed {
    let block = observe(false, ring, &scenario);
    let per_instr = observe(true, ring, &scenario);
    assert_eq!(block.clock, per_instr.clock, "clock");
    assert_eq!(block.metrics, per_instr.metrics, "metrics snapshot");
    assert_eq!(block.profile, per_instr.profile, "profile snapshot");
    assert_eq!(block.folded, per_instr.folded, "folded stacks");
    assert_eq!(block.pc_hits, per_instr.pc_hits, "per-PC ledgers");
    assert_eq!(block.trace, per_instr.trace, "trace stream");
    assert_eq!(block.dropped, per_instr.dropped, "trace evictions");
    assert_eq!((block.visits, block.injected), (per_instr.visits, per_instr.injected), "VmTrap");
    block
}

/// [`both_drivers_on`] with a ring that holds the whole stream.
fn both_drivers(scenario: impl Fn(&Kernel, &FaultPlane)) -> Observed {
    both_drivers_on(BIG_RING, scenario)
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

/// Installs `src` at the compute-ra point as graft `name`.
fn install(k: &Kernel, name: &str, src: &str) -> vino::core::adapters::SharedGraft {
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image = k.compile_graft(name, src).unwrap();
    k.install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap()
}

/// A loop of `iters` laps, each one sandboxed load and one sandboxed
/// store once instrumented: `mov; clamp; loadw; xor; mov; clamp;
/// storew; addi; bne`, nine instructions (both accesses use offset 0,
/// so MiSFIT emits the three-instruction sequence). `pad` nops come
/// first.
fn sandboxed_loop(pad: usize, iters: u64) -> String {
    format!(
        "    const r1, 0\n    const r3, {iters}\n{}loop:\n    loadw r7, [r1+0]\n    xor r7, r7, r3\n    storew r7, [r1+0]\n    addi r3, r3, -1\n    bne r3, r0, loop\n    halt r3\n",
        "    nop\n".repeat(pad)
    )
}

#[test]
fn timeslice_cut_at_every_offset_of_a_sandboxed_triple_bills_identically() {
    let fuel = vino::sched::Scheduler::timeslice_fuel();
    // Just over one timeslice: the prologue clamp, two consts, `pad`
    // nops, then nine instructions a lap.
    let iters = fuel / 9 + 2;
    // The slice ends `(fuel - 3 - pad) % 9` instructions into a lap,
    // so the nine pads cut a lap at every offset: 1 and 2 (and 5 and
    // 6) fall inside a sandboxed triple.
    for pad in 0..9 {
        let o = both_drivers_on(1 << 12, |k, _| {
            let g = install(k, "sbx-spin", &sandboxed_loop(pad, iters));
            let out = g.borrow_mut().invoke([0; 4]);
            assert!(matches!(out, InvokeOutcome::Ok { result: 0, .. }), "{out:?}");
            assert_eq!(g.borrow().stats().preemptions, 1, "pad {pad}");
        });
        let cut = format!("vm.window instrs={fuel} exit=preempt");
        assert!(o.trace.contains(&cut), "pad {pad}");
    }
}

#[test]
fn one_shot_armed_inside_a_sandboxed_triple_bills_identically() {
    // Eleven visits per lap of the xor loop once instrumented; visits
    // 300..=311 cover one whole lap, both triples included.
    for ahead in 300..=311 {
        let o = both_drivers(|k, fault| {
            fault.arm(FaultSite::VmTrap, fault.visits(FaultSite::VmTrap) + ahead);
            xor_stream_until_death(k);
        });
        assert_eq!(o.injected, 1, "ahead {ahead}");
    }
}

/// A caller that piles up `vm.sfi` records, then calls a nested graft
/// whose instructions visit `VmTrap` on the same fault plane; a
/// one-shot lands `ahead` visits past the call.
fn nested_call_after_a_batch(k: &Kernel, fault: &FaultPlane, ahead: u64) -> InvokeOutcome {
    // The callee's store has an offset: MiSFIT's four-instruction
    // sequence, which is not fused.
    let callee = install(k, "sbx-callee", "loadw r7, [r1+0]\nstorew r7, [r1+8]\nhalt r7");
    let h = k.engine.register_subgraft(callee);
    let caller = install(
        k,
        "sbx-batch",
        &format!(
            "{}    const r1, {h}\n    call $call_graft\n    storew r0, [r2+12]\n    halt r0\n",
            sandboxed_loop(0, 40).replace("halt r3", "mov r2, r1")
        ),
    );
    // The caller's call is its visit 1 + 2 + 40 * 9 + 3.
    fault.arm(FaultSite::VmTrap, fault.visits(FaultSite::VmTrap) + 366 + ahead);
    let out = caller.borrow_mut().invoke([0; 4]);
    out
}

#[test]
fn nested_call_right_after_a_batch_of_sfi_records_bills_identically() {
    // The one-shot lands on the call itself, then on each of the
    // callee's instructions, then back in the caller.
    for ahead in 0..=10 {
        let o = both_drivers(|k, fault| {
            let out = nested_call_after_a_batch(k, fault, ahead);
            assert!(!matches!(out, InvokeOutcome::Dead), "ahead {ahead}: {out:?}");
        });
        assert_eq!(o.injected, 1, "ahead {ahead}");
        if ahead > 0 {
            let sfi = o.trace.find("vm.sfi").expect("the caller clamps");
            let invoke = o.trace.rfind("graft.invoke").expect("the callee runs");
            assert!(sfi < invoke, "ahead {ahead}: the caller's batch precedes the nested call");
        }
    }
}

#[test]
fn small_ring_wrapping_mid_batch_bills_identically() {
    // The xor stream emits 894 `vm.sfi` records in batches of up to
    // 128; rings that do not divide the batch wrap inside one.
    for ring in [7, 100, 300] {
        let o = both_drivers_on(ring, xor_stream);
        assert!(o.dropped > 0, "ring {ring}");
        assert_eq!(o.trace.lines().count(), ring, "ring {ring}");
    }
}
