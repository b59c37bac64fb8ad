//! Trace-plane microbenches: per-event emit cost, plus the
//! zero-allocation proofs the design demands — once the ring is
//! allocated, emitting an event must never touch the heap. One proof
//! runs through the `Obs` funnel with a metrics plane attached too, so
//! it covers the derived-counter path every subsystem emits through;
//! the other runs a GraftVM whose `vm.sfi` records reach the ring in
//! stamped batches.

use std::rc::Rc;

use criterion::alloc::CountingAlloc;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vino_sim::metrics::MetricsPlane;
use vino_sim::obs::Obs;
use vino_sim::obs::Planes;
use vino_sim::trace::{SfiKind, TraceEvent, TracePlane, VmExitKind};
use vino_sim::VirtualClock;
use vino_vm::interp::{Exit, NullKernel, Vm};
use vino_vm::isa::{Instr, Program, Reg};
use vino_vm::mem::{AddressSpace, Protection};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn events() -> [TraceEvent; 4] {
    [
        TraceEvent::VmWindow { instrs: 512, exit: VmExitKind::Preempt },
        TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc: 17 },
        TraceEvent::TxnBegin { thread: 1, txn: 9, depth: 1 },
        TraceEvent::LockAcquire { lock: 3, thread: 1 },
    ]
}

fn bench(c: &mut Criterion) {
    let clock = VirtualClock::new();
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1024);
    let obs = Obs::new(Rc::clone(&clock));
    obs.attach_trace(Rc::clone(&tp)).expect("fresh handle");
    obs.attach_metrics(MetricsPlane::new(Rc::clone(&clock))).expect("fresh handle");

    // Fill well past capacity first, so the steady state under proof is
    // the wrapped ring (overwrite path), not the initial fill.
    for i in 0..4096u64 {
        tp.emit(TraceEvent::VmWindow { instrs: i, exit: VmExitKind::Halt });
    }

    // The proof: 100k emits across event kinds, each written to the
    // ring and counted, zero allocations.
    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        obs.emit(events()[(i % 4) as usize]);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "trace emit hit the heap {delta} times in 100k events");
    println!("trace_plane/allocs_per_100k_emits        {delta:>12}");

    // The batched `vm.sfi` path: MiSFIT's sandboxed load in a loop,
    // one check per four instructions, through a wrapped ring.
    let planes = Planes::new(Rc::clone(&clock));
    planes.attach_trace(Rc::clone(&tp)).expect("fresh planes");
    let mut vm = Vm::new(AddressSpace::new(4096, 64, Protection::Sfi));
    vm.bind(planes, None);
    let sbx = Reg(14);
    vm.load(Program::new(
        "sbx-load",
        vec![
            Instr::Mov { d: sbx, s: Reg(1) },
            Instr::Clamp { r: sbx },
            Instr::LoadW { d: Reg(2), addr: sbx, off: 0 },
            Instr::Jmp { target: 0 },
        ],
    ));
    let mut window = |fuel: u64| {
        let mut fuel = fuel;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Preempted);
    };
    window(4_000);
    let (records, before) = (tp.stats().vm, ALLOC.allocations());
    window(400_000);
    let delta = ALLOC.allocations() - before;
    assert_eq!(tp.stats().vm - records, 100_001, "100k checks and one window");
    assert_eq!(delta, 0, "batched vm.sfi records hit the heap {delta} times in 100k");
    println!("trace_plane/allocs_per_100k_vm_sfi_records {delta:>10}");

    c.bench_function("trace_plane/emit", |b| {
        b.iter(|| tp.emit(black_box(TraceEvent::VmWindow { instrs: 64, exit: VmExitKind::Halt })))
    });
    c.bench_function("trace_plane/serialize_1k_ring", |b| b.iter(|| black_box(tp.serialize())));
}

criterion_group!(benches, bench);
criterion_main!(benches);
