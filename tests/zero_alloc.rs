//! Zero-allocation proofs for the observability hot paths.
//!
//! Once a plane is built and its names are interned, recording must
//! never touch the heap: the trace emit (through the `Obs` funnel with
//! a metrics plane attached, and as batched `vm.sfi` records from a
//! running GraftVM), the metrics counters and ledgers, the profile
//! plane's per-PC billing, and the watch plane's observations. Each
//! proof counts allocations over a 100k-operation window after a
//! warm-up, and asserts none.
//!
//! The counting allocator counts per thread, so tests running in
//! parallel on other threads cannot pollute a proof.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use vino::sim::metrics::{Component, Counter, MetricsPlane};
use vino::sim::obs::{Obs, Planes};
use vino::sim::profile::{ProfilePlane, SpanKind};
use vino::sim::trace::{SfiKind, TraceEvent, TracePlane, VmExitKind};
use vino::sim::watch::WatchPlane;
use vino::sim::{Cycles, VirtualClock};
use vino::vm::interp::{Exit, NullKernel, Vm};
use vino::vm::isa::{Instr, Program, Reg};
use vino::vm::mem::{AddressSpace, Protection};

/// Forwards to the system allocator, counting the calling thread's
/// `alloc`/`alloc_zeroed`/`realloc` calls. Frees are not counted.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by this thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn events() -> [TraceEvent; 4] {
    [
        TraceEvent::VmWindow { instrs: 512, exit: VmExitKind::Preempt },
        TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc: 17 },
        TraceEvent::TxnBegin { thread: 1, txn: 9, depth: 1 },
        TraceEvent::LockAcquire { lock: 3, thread: 1 },
    ]
}

/// A 1 Ki-record trace plane filled well past capacity, so the steady
/// state under proof is the wrapped ring (overwrite path), not the
/// initial fill.
fn wrapped_trace(clock: &Rc<VirtualClock>) -> Rc<TracePlane> {
    let tp = TracePlane::with_capacity(Rc::clone(clock), 1024);
    for i in 0..4096u64 {
        tp.emit(TraceEvent::VmWindow { instrs: i, exit: VmExitKind::Halt });
    }
    tp
}

/// 100k emits across event kinds through the `Obs` funnel, each
/// written to the ring and counted by the metrics plane.
#[test]
fn obs_emit_does_not_allocate() {
    let clock = VirtualClock::new();
    let tp = wrapped_trace(&clock);
    let obs = Obs::new(Rc::clone(&clock));
    obs.attach_trace(Rc::clone(&tp)).expect("fresh handle");
    obs.attach_metrics(MetricsPlane::new(Rc::clone(&clock))).expect("fresh handle");

    let before = allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        obs.emit(events()[(i % 4) as usize]);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "trace emit hit the heap {delta} times in 100k events");
}

/// MiSFIT's sandboxed load in a loop, one check per four instructions:
/// 100k `vm.sfi` records reach a wrapped ring in stamped batches.
#[test]
fn batched_vm_sfi_records_do_not_allocate() {
    let clock = VirtualClock::new();
    let tp = wrapped_trace(&clock);
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
    let (records, before) = (tp.stats().vm, allocations());
    window(400_000);
    let delta = allocations() - before;
    assert_eq!(tp.stats().vm - records, 100_001, "100k checks and one window");
    assert_eq!(delta, 0, "batched vm.sfi records hit the heap {delta} times in 100k");
}

/// 100k metrics emits mixing every operation the subsystems perform
/// per invocation: counter bumps, component charges, invocation
/// brackets and histogram observations.
#[test]
fn metrics_emit_does_not_allocate() {
    let clock = VirtualClock::new();
    let mp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);
    // Interning is the only allocating operation, done once per graft
    // name at install time. Then warm every slot.
    let tags = [mp.tag("ra"), mp.tag("evict"), mp.tag("sched"), mp.tag("crypt")];
    for &t in &tags {
        mp.begin_invocation(t);
        mp.charge(Component::GraftFn, Cycles(100));
        mp.end_invocation(true);
    }

    let before = allocations();
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
    let delta = allocations() - before;
    assert_eq!(delta, 0, "metrics emit hit the heap {delta} times in 100k emits");
}

/// 100k retired instructions billed per PC, mixed with the bracket,
/// call-graph and span traffic one invocation generates.
#[test]
fn profile_billing_does_not_allocate() {
    let clock = VirtualClock::new();
    let pp = ProfilePlane::with_capacity(Rc::clone(&clock), 8, 1 << 14);
    // Interning and program registration are the only allocating
    // operations, done once per graft at install time. One warm-up
    // pass also materialises every call-tree edge the proof walks.
    let tags = [pp.tag("ra"), pp.tag("evict"), pp.tag("sched"), pp.tag("crypt")];
    for &t in &tags {
        pp.register_program(t, 512);
        pp.begin_invocation(t);
        pp.record_pc(t, 0, Component::GraftFn, Cycles(1));
        pp.enter_fn(t, 40);
        pp.record_pc(t, 40, Component::GraftFn, Cycles(35));
        pp.exit_fn(t);
        pp.end_invocation(true);
    }

    let before = allocations();
    for i in 0..1_000u64 {
        let tag = tags[(i % 4) as usize];
        pp.begin_invocation(tag);
        pp.charge(Component::TxnBegin, Cycles(4320));
        pp.mark(SpanKind::TxnBegin, Cycles(4320));
        for pc in 0..100u32 {
            clock.charge(Cycles(1));
            let comp = if pc % 7 == 0 { Component::Sfi } else { Component::GraftFn };
            pp.record_pc(tag, pc as usize, comp, Cycles(1 + (pc as u64 % 4)));
        }
        pp.enter_fn(tag, 40);
        pp.record_pc(tag, 40, Component::GraftFn, Cycles(35));
        pp.exit_fn(tag);
        pp.charge(Component::TxnCommit, Cycles(3600));
        pp.mark(SpanKind::TxnCommit, Cycles(3600));
        pp.end_invocation(i % 5 != 0);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "profile billing hit the heap {delta} times in 100k instructions");
}

/// 100k observations mixing every signal the subsystems report, dense
/// enough that alerts fire and resolve into the preallocated ring.
#[test]
fn watch_observation_does_not_allocate() {
    let clock = VirtualClock::new();
    let wp = WatchPlane::new(Rc::clone(&clock));
    // Slot creation is the only allocating operation on the principal
    // path, done once per principal at install time, as the kernel's
    // install hook does. Then warm every signal once.
    let principals = [1u64, 2, 3, 4];
    for &p in &principals {
        wp.touch_principal(p);
    }
    for &p in &principals {
        wp.observe_install(p);
        wp.observe_invoke(p, Cycles(100));
        wp.observe_abort(p);
        wp.observe_quarantine(p);
    }
    wp.observe_shed();
    wp.observe_journal(1, 64);
    wp.observe_lock_timeout();
    wp.poll();

    let before = allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        let p = principals[(i % 4) as usize];
        wp.observe_invoke(p, Cycles(i % 997));
        if i % 3 == 0 {
            wp.observe_abort(p);
        }
        if i % 7 == 0 {
            wp.observe_shed();
        }
        if i % 11 == 0 {
            wp.observe_journal(i % 64, 64);
        }
        if i % 13 == 0 {
            wp.observe_lock_timeout();
        }
        if i % 16 == 0 {
            wp.poll();
        }
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "watch observation hit the heap {delta} times in 100k observations");
    assert!(!wp.is_empty(), "the storm above must actually fire alerts");
}
