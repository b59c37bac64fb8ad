//! Graft-to-graft invocation and nested transactions (§3.1).
//!
//! "Because graft functions may indirectly invoke other grafts, we
//! found it necessary to include support for nested transactions. In
//! this manner, any graft can abort without aborting its calling
//! graft." These tests drive the `call_graft` kernel function through
//! the full pipeline and verify the nesting laws end-to-end.

use std::rc::Rc;

use vino_core::adapters::share;
use vino_core::engine::{
    errcode, CommitMode, GraftEngine, GraftInstance, InvokeOutcome, CALLEE_ABORTED,
};
use vino_core::hostfn;
use vino_sim::{ThreadId, VirtualClock};
use vino_vm::asm::assemble;
use vino_vm::mem::{AddressSpace, Protection};

const T: ThreadId = ThreadId(1);

fn instance(engine: &Rc<GraftEngine>, name: &str, src: &str) -> GraftInstance {
    let prog = assemble(name, src, &hostfn::symbols()).unwrap();
    let principal = engine.rm.borrow_mut().create_graft_principal();
    let mem = AddressSpace::new(4096, 256, Protection::Sfi);
    GraftInstance::new(Rc::clone(engine), prog, mem, T, principal)
}

#[test]
fn caller_invokes_callee_and_gets_result() {
    let engine = GraftEngine::new(VirtualClock::new());
    // Callee: returns r1 + r2.
    let callee = share(instance(&engine, "adder", "add r0, r1, r2\nhalt r0"));
    let h = engine.register_subgraft(callee);
    // Caller: call_graft(handle, 40, 2).
    let mut caller = instance(
        &engine,
        "caller",
        &format!("const r1, {h}\nconst r2, 40\nconst r3, 2\ncall $call_graft\nhalt r0"),
    );
    match caller.invoke([0; 4]) {
        InvokeOutcome::Ok { result, .. } => assert_eq!(result, 42),
        other => panic!("{other:?}"),
    }
    // Two begins, one nested commit, one top-level commit.
    let stats = engine.txn.borrow().stats();
    assert_eq!(stats.begins, 2);
    assert_eq!(stats.nested_commits, 1);
    assert_eq!(stats.commits, 1);
}

#[test]
fn callee_abort_spares_the_caller() {
    let engine = GraftEngine::new(VirtualClock::new());
    // Callee: mutates slot 5 then traps.
    let callee = share(instance(
        &engine,
        "crasher",
        "
        const r1, 5
        const r2, 99
        call $kv_set
        const r3, 0
        div r0, r3, r3
        halt r0
        ",
    ));
    let h = engine.register_subgraft(Rc::clone(&callee));
    // Caller: mutates slot 4, calls the crasher, logs the sentinel,
    // keeps going.
    let mut caller = instance(
        &engine,
        "caller",
        &format!(
            "
            const r1, 4
            const r2, 7
            call $kv_set
            const r1, {h}
            call $call_graft
            mov r1, r0
            call $log
            halt r0
            "
        ),
    );
    engine.kv_write(5, 11);
    match caller.invoke([0; 4]) {
        InvokeOutcome::Ok { result: _, log, .. } => {
            assert_eq!(log, vec![CALLEE_ABORTED], "caller saw the abort sentinel");
        }
        other => panic!("caller must survive: {other:?}"),
    }
    assert_eq!(engine.kv_read(5), 11, "callee's mutation undone");
    assert_eq!(engine.kv_read(4), 7, "caller's mutation committed");
    assert!(callee.borrow().is_dead(), "callee forcibly unloaded");
}

#[test]
fn caller_abort_reverses_committed_callee_work() {
    // The nested-commit merge: the callee's undo records fold into the
    // caller's transaction, so a later caller abort reverses them too.
    let engine = GraftEngine::new(VirtualClock::new());
    let callee =
        share(instance(&engine, "writer", "const r1, 9\nconst r2, 1\ncall $kv_set\nhalt r0"));
    let h = engine.register_subgraft(callee);
    let mut caller =
        instance(&engine, "caller", &format!("const r1, {h}\ncall $call_graft\nhalt r0"));
    engine.kv_write(9, 5);
    match caller.invoke_mode([0; 4], CommitMode::AbortAtEnd) {
        InvokeOutcome::Aborted { report, .. } => {
            assert_eq!(report.undo_ops, 1, "the callee's undo merged into the caller");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(engine.kv_read(9), 5, "callee's committed-to-parent work reversed");
}

#[test]
fn unknown_handle_traps_caller() {
    let engine = GraftEngine::new(VirtualClock::new());
    let mut caller = instance(&engine, "caller", "const r1, 999\ncall $call_graft\nhalt r0");
    match caller.invoke([0; 4]) {
        InvokeOutcome::Aborted { why, .. } => {
            assert!(format!("{why:?}").contains(&errcode::BAD_GRAFT.to_string()));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn self_recursion_is_refused() {
    let engine = GraftEngine::new(VirtualClock::new());
    // The graft calls itself through its own handle.
    let myself = share(instance(&engine, "ouroboros", "const r1, 0\ncall $call_graft\nhalt r0"));
    let h = engine.register_subgraft(Rc::clone(&myself));
    assert_eq!(h, 0);
    let out = myself.borrow_mut().invoke([0; 4]);
    match out {
        InvokeOutcome::Aborted { why, .. } => {
            assert!(format!("{why:?}").contains(&errcode::GRAFT_RECURSION.to_string()));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn nesting_depth_is_bounded() {
    // A chain of grafts each calling the next; past MAX_NEST_DEPTH the
    // kernel refuses.
    let engine = GraftEngine::new(VirtualClock::new());
    // Build a chain of 12: graft i calls handle i+1; the last halts.
    let mut handles = Vec::new();
    let leaf = share(instance(&engine, "leaf", "const r0, 1\nhalt r0"));
    handles.push(engine.register_subgraft(leaf));
    for i in 0..12 {
        let next = handles[i];
        let g = share(instance(
            &engine,
            "link",
            &format!("const r1, {next}\ncall $call_graft\nhalt r0"),
        ));
        handles.push(engine.register_subgraft(g));
    }
    // Invoke the head of the chain.
    let head = engine_subgraft_for_test(&engine, *handles.last().unwrap());
    let out = head.borrow_mut().invoke([0; 4]);
    // Somewhere down the chain the depth bound fires; the head aborts
    // with the trap or observes a CALLEE_ABORTED sentinel — either way
    // the kernel survived and no stack overflowed.
    match out {
        InvokeOutcome::Ok { result, .. } => assert_eq!(result, CALLEE_ABORTED),
        InvokeOutcome::Aborted { .. } => {}
        InvokeOutcome::Dead => panic!("head cannot be dead before first call"),
    }
}

#[test]
fn post_mortem_empty_after_clean_commit() {
    use vino_sim::trace::TracePlane;
    let engine = GraftEngine::new(VirtualClock::new());
    let tp = TracePlane::new(Rc::clone(&engine.clock));
    engine.obs.attach_trace(Rc::clone(&tp)).unwrap();
    let mut g = instance(&engine, "clean", "const r0, 7\nhalt r0");
    assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Ok { result: 7, .. }));
    assert!(tp.post_mortem().is_none(), "clean commit leaves no post-mortem");
}

#[test]
fn post_mortem_captures_nested_transaction_abort() {
    use vino_sim::trace::{AbortKind, TracePlane};
    let engine = GraftEngine::new(VirtualClock::new());
    let tp = TracePlane::new(Rc::clone(&engine.clock));
    // The engine shares its handle with the txn manager, so one attach
    // traces both.
    engine.obs.attach_trace(Rc::clone(&tp)).unwrap();
    // Callee: one undoable kv write, then a trap — its nested wrapper
    // transaction aborts while the caller's survives.
    let callee = share(instance(
        &engine,
        "crasher",
        "
        const r1, 5
        const r2, 99
        call $kv_set
        const r3, 0
        div r0, r3, r3
        halt r0
        ",
    ));
    let h = engine.register_subgraft(Rc::clone(&callee));
    let mut caller =
        instance(&engine, "caller", &format!("const r1, {h}\ncall $call_graft\nhalt r0"));
    match caller.invoke([0; 4]) {
        InvokeOutcome::Ok { .. } => {}
        other => panic!("caller must survive the nested abort: {other:?}"),
    }
    let pm = tp.post_mortem().expect("nested abort snapshotted by the flight recorder");
    assert_eq!(pm.graft, "crasher", "post-mortem names the nested callee, not the caller");
    assert_eq!(pm.kind, AbortKind::Trap);
    assert_eq!(pm.undo_depth, 1, "the callee's kv_set was the one undo op");
    assert_eq!(pm.held_locks, 0);
    assert!(
        pm.lines.iter().any(|l| l.contains("txn.begin") && l.contains("depth=2")),
        "window shows the nested begin: {:#?}",
        pm.lines
    );
    assert!(
        pm.lines.iter().any(|l| l.contains("txn.undo-run thread=1 ops=1")),
        "window shows the undo run: {:#?}",
        pm.lines
    );
    assert!(
        pm.lines.iter().any(|l| l.contains("graft.abort g=crasher kind=trap")),
        "window shows the abort itself: {:#?}",
        pm.lines
    );
}

/// Test-only accessor: re-fetch a registered subgraft by handle. (The
/// engine does not expose enumeration; tests register and remember.)
fn engine_subgraft_for_test(
    engine: &Rc<GraftEngine>,
    handle: u64,
) -> Rc<std::cell::RefCell<GraftInstance>> {
    // register_subgraft pushes in order; rebuild by registering a probe
    // is not possible, so reach through a helper on the engine.
    engine.subgraft_handle_for_tests(handle).expect("registered")
}
