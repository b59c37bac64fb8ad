//! Metrics-plane microbenches: per-emit cost, plus the zero-allocation
//! proof the design demands — once tags are interned, the hot-path
//! operations (counter increments, component charges, invocation
//! brackets) must never touch the heap.

use std::rc::Rc;

use criterion::alloc::CountingAlloc;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vino_sim::metrics::{Component, Counter, MetricsPlane};
use vino_sim::{Cycles, VirtualClock};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn bench(c: &mut Criterion) {
    let clock = VirtualClock::new();
    let mp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);

    // Interning is the only allocating operation, and it happens once
    // per graft name at install time — do it before the proof window.
    let tags = [mp.tag("ra"), mp.tag("evict"), mp.tag("sched"), mp.tag("crypt")];

    // Warm every slot so the steady state under proof is the loaded
    // plane, not first-touch.
    for &t in &tags {
        mp.begin_invocation(t);
        mp.charge(Component::GraftFn, Cycles(100));
        mp.end_invocation(true);
    }

    // The proof: 100k hot-path emits mixing every operation the
    // subsystems perform per invocation — zero allocations.
    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        let tag = tags[(i % 4) as usize];
        mp.inc(Counter::TxnBegins);
        mp.add(Counter::VmInstrs, i % 512);
        mp.begin_invocation(tag);
        mp.charge(Component::TxnBegin, Cycles(4320));
        mp.charge(Component::GraftFn, Cycles(i % 997));
        mp.charge(Component::TxnCommit, Cycles(3600));
        mp.observe_rm_peak(0, i % 4096);
        mp.observe_undo_depth(i % 7);
        mp.end_invocation(i % 5 != 0);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "metrics emit hit the heap {delta} times in 100k emits");
    println!("metrics_plane/allocs_per_100k_emits      {delta:>12}");

    c.bench_function("metrics_plane/inc", |b| b.iter(|| mp.inc(black_box(Counter::TxnBegins))));
    c.bench_function("metrics_plane/charge", |b| {
        b.iter(|| mp.charge(black_box(Component::GraftFn), black_box(Cycles(100))))
    });
    c.bench_function("metrics_plane/invocation_bracket", |b| {
        b.iter(|| {
            mp.begin_invocation(black_box(tags[0]));
            mp.charge(Component::GraftFn, Cycles(100));
            mp.end_invocation(true);
        })
    });
    c.bench_function("metrics_plane/snapshot", |b| b.iter(|| black_box(mp.snapshot())));
}

criterion_group!(benches, bench);
criterion_main!(benches);
