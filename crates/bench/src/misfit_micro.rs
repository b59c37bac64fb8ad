//! §3.3 MiSFIT micro-overheads (experiment E2).
//!
//! Verifies the paper's two per-instruction claims by measurement:
//!
//! - "The cost of this protection is two to five cycles per load or
//!   store" — measured as the instrumented-minus-raw cycle delta of a
//!   store-dense loop, divided by the access count.
//! - "Through the use of a sparse open hash table we find our average
//!   cost is ten to fifteen cycles per indirect function call" —
//!   measured as probe count × probe cost over a populated table.

use std::rc::Rc;

use vino_core::hostfn;
use vino_misfit::{instrument, CallableTable};
use vino_sim::{costs, VirtualClock};
use vino_vm::interp::{NullKernel, Vm};
use vino_vm::isa::{HostFnId, Program};
use vino_vm::mem::{AddressSpace, Protection};

use crate::render::{PathTable, Row};

/// A load/store-dense loop over `n` words.
fn mem_loop(n: u32) -> Program {
    let src = format!(
        "
        const r2, 0
        const r3, {n}
        loop:
        bgeu r2, r3, done
        loadw r5, [r1+0]
        addi r5, r5, 1
        storew r5, [r1+0]
        addi r1, r1, 4
        addi r2, r2, 1
        jmp loop
        done: halt r0
        "
    );
    vino_vm::assemble("memloop", &src, &hostfn::symbols()).expect("assembles")
}

fn run_cycles(prog: &Program, prot: Protection, seg: usize) -> (u64, u64) {
    let clock = VirtualClock::new();
    let mem = AddressSpace::new(seg, 64, prot);
    let base = mem.seg_base();
    let mut vm = Vm::new(mem);
    vm.regs[1] = base;
    let mut fuel = 10_000_000;
    vm.load(prog.clone());
    let exit = vm.run(&mut NullKernel, &Rc::clone(&clock), &mut fuel);
    assert!(matches!(exit, vino_vm::interp::Exit::Halted(_)), "{exit:?}");
    (clock.now().get(), vm.stats.loads + vm.stats.stores)
}

/// Measured per-access SFI overhead in cycles.
pub fn per_access_cycles() -> f64 {
    let n = 512u32;
    let raw = mem_loop(n);
    let (inst, stats) = instrument(&raw).expect("instruments");
    let (raw_cycles, accesses) = run_cycles(&raw, Protection::Unprotected, 8192);
    let (sfi_cycles, _) = run_cycles(&inst, Protection::Sfi, 8192);
    assert_eq!(accesses, 2 * n as u64);
    let _ = stats;
    // Subtract the one-off prologue clamp.
    (sfi_cycles - raw_cycles - costs::SFI_CLAMP_CYCLES) as f64 / accesses as f64
}

/// Measured average indirect-call check cost in cycles over a populated
/// callable table.
pub fn per_indirect_call_cycles() -> f64 {
    let mut table = CallableTable::new();
    for (id, name) in hostfn::GRAFT_CALLABLE {
        table.register(*id, *name);
    }
    // Populate further, as a grown kernel would.
    for i in 0..200u32 {
        table.register(HostFnId(1000 + i), format!("kfn{i}"));
    }
    // Probe every callable id many times.
    for _ in 0..50 {
        for (id, _) in hostfn::GRAFT_CALLABLE {
            assert!(table.contains(*id));
        }
        for i in 0..200u32 {
            assert!(table.contains(HostFnId(1000 + i)));
        }
    }
    table.avg_probes() * costs::HASH_PROBE_CYCLES as f64
}

/// Runs the experiment and renders it.
pub fn run() -> PathTable {
    let per_access = per_access_cycles();
    let per_call = per_indirect_call_cycles();
    PathTable {
        id: "E2",
        title: "§3.3 MiSFIT micro-overheads".to_string(),
        rows: vec![
            Row::value("Per load/store (cycles)", per_access),
            Row::value("Per indirect call check (cycles)", per_call),
        ],
        notes: vec!["paper: 2-5 cycles per load/store; 10-15 cycles per indirect call".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_access_in_two_to_five_cycles() {
        let c = per_access_cycles();
        assert!((2.0..=5.0).contains(&c), "per-access {c}");
    }

    #[test]
    fn per_indirect_call_in_ten_to_fifteen_cycles() {
        let c = per_indirect_call_cycles();
        assert!((10.0..=15.0).contains(&c), "per-call {c}");
    }
}
