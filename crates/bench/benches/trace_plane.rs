//! Trace-plane microbenches: per-event emit cost, plus the
//! zero-allocation proof the design demands — once the ring is
//! allocated, emitting an event must never touch the heap. The proof
//! runs through the `Obs` funnel with a metrics plane attached too, so
//! it covers the derived-counter path every subsystem emits through.

use std::rc::Rc;

use criterion::alloc::CountingAlloc;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vino_sim::metrics::MetricsPlane;
use vino_sim::obs::Obs;
use vino_sim::trace::{SfiKind, TraceEvent, TracePlane, VmExitKind};
use vino_sim::VirtualClock;

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

    c.bench_function("trace_plane/emit", |b| {
        b.iter(|| tp.emit(black_box(TraceEvent::VmWindow { instrs: 64, exit: VmExitKind::Halt })))
    });
    c.bench_function("trace_plane/serialize_1k_ring", |b| b.iter(|| black_box(tp.serialize())));
}

criterion_group!(benches, bench);
criterion_main!(benches);
