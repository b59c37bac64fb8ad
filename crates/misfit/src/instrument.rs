//! The MiSFIT rewriting pass.
//!
//! Transforms an untrusted graft program into an SFI-protected one:
//!
//! 1. Every load/store is replaced by a **sandbox sequence** that
//!    computes the effective address in the reserved register
//!    [`SANDBOX_REG`], clamps it into the graft segment, and performs
//!    the access through the reserved register with offset zero:
//!
//!    ```text
//!    loadw d, [rA+off]   ==>   mov   r14, rA
//!                              addi  r14, r14, off   ; omitted when off == 0
//!                              clamp r14
//!                              loadw d, [r14+0]
//!    ```
//!
//!    Following Wahbe et al., only sandbox sequences write the reserved
//!    register, and a prologue `clamp r14` establishes the invariant
//!    that it *always* holds an in-segment address — so even a branch
//!    into the middle of a sequence cannot produce an out-of-segment
//!    access. The sequence costs 4–5 cycles, the paper's "two to five
//!    cycles per load or store".
//!
//! 2. Every indirect call is preceded by a `checkcall` probe of the
//!    graft-callable hash table (10–15 cycles, §3.3).
//!
//! 3. Branch targets are relocated to account for inserted code.
//!
//! Programs that already use the reserved register or contain SFI
//! pseudo-ops are rejected — the tool owns those, exactly as MiSFIT owns
//! its dedicated registers on x86.

use std::fmt;

use vino_vm::isa::{AluOp, Instr, Program, Reg};

/// The reserved sandbox register (user code must not touch it).
pub const SANDBOX_REG: Reg = Reg(14);

/// Rejection reasons for the instrumentation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstrumentError {
    /// The source program reads or writes the reserved register.
    ReservedRegister { pc: usize },
    /// The source program already contains `clamp`/`checkcall` — only
    /// the tool may insert those.
    UnexpectedPseudoOp { pc: usize },
    /// A branch target is out of range (malformed input).
    Malformed { reason: String },
}

impl fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstrumentError::ReservedRegister { pc } => {
                write!(f, "instruction {pc} uses the reserved sandbox register")
            }
            InstrumentError::UnexpectedPseudoOp { pc } => {
                write!(f, "instruction {pc} contains an SFI pseudo-op")
            }
            InstrumentError::Malformed { reason } => write!(f, "malformed program: {reason}"),
        }
    }
}

impl std::error::Error for InstrumentError {}

/// What the pass did — the inputs to the overhead model of §3.3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentStats {
    /// Loads/stores that received sandbox sequences.
    pub mem_accesses: usize,
    /// Indirect calls that received `checkcall` probes.
    pub indirect_calls: usize,
    /// Instructions in the input program.
    pub input_len: usize,
    /// Instructions in the output program.
    pub output_len: usize,
}

/// Runs the SFI pass over `prog`.
pub fn instrument(prog: &Program) -> Result<(Program, InstrumentStats), InstrumentError> {
    prog.validate().map_err(|reason| InstrumentError::Malformed { reason })?;
    check_source(prog)?;

    let mut stats = InstrumentStats { input_len: prog.instrs.len(), ..InstrumentStats::default() };

    // First pass: compute the new index of each source instruction.
    // Index 0 of the output is the prologue clamp.
    let mut new_index: Vec<u32> = Vec::with_capacity(prog.instrs.len());
    let mut cursor: u32 = 1; // After the prologue.
    for i in &prog.instrs {
        new_index.push(cursor);
        cursor += expansion_len(i);
    }
    let prologue_and_total = cursor;

    // Second pass: emit.
    let mut out: Vec<Instr> = Vec::with_capacity(prologue_and_total as usize);
    out.push(Instr::Clamp { r: SANDBOX_REG });
    for instr in &prog.instrs {
        match *instr {
            Instr::LoadW { d, addr, off } => {
                emit_sandbox(&mut out, addr, off, &mut stats);
                out.push(Instr::LoadW { d, addr: SANDBOX_REG, off: 0 });
            }
            Instr::StoreW { s, addr, off } => {
                emit_sandbox(&mut out, addr, off, &mut stats);
                out.push(Instr::StoreW { s, addr: SANDBOX_REG, off: 0 });
            }
            Instr::LoadB { d, addr, off } => {
                emit_sandbox(&mut out, addr, off, &mut stats);
                out.push(Instr::LoadB { d, addr: SANDBOX_REG, off: 0 });
            }
            Instr::StoreB { s, addr, off } => {
                emit_sandbox(&mut out, addr, off, &mut stats);
                out.push(Instr::StoreB { s, addr: SANDBOX_REG, off: 0 });
            }
            Instr::CallI { target } => {
                stats.indirect_calls += 1;
                out.push(Instr::CheckCall { r: target });
                out.push(Instr::CallI { target });
            }
            other => {
                // Relocate branch targets through the index map.
                if let Some(t) = other.branch_target() {
                    out.push(other.with_branch_target(new_index[t as usize]));
                } else {
                    out.push(other);
                }
            }
        }
    }
    stats.output_len = out.len();
    debug_assert_eq!(out.len() as u32, prologue_and_total);

    let instrumented = Program::new(prog.name.clone(), out);
    instrumented.validate().map_err(|reason| InstrumentError::Malformed { reason })?;
    Ok((instrumented, stats))
}

fn emit_sandbox(out: &mut Vec<Instr>, addr: Reg, off: i32, stats: &mut InstrumentStats) {
    stats.mem_accesses += 1;
    out.push(Instr::Mov { d: SANDBOX_REG, s: addr });
    if off != 0 {
        out.push(Instr::AluI { op: AluOp::Add, d: SANDBOX_REG, a: SANDBOX_REG, imm: off as i64 });
    }
    out.push(Instr::Clamp { r: SANDBOX_REG });
}

/// Output instructions one source instruction expands to.
fn expansion_len(i: &Instr) -> u32 {
    match *i {
        Instr::LoadW { off, .. }
        | Instr::StoreW { off, .. }
        | Instr::LoadB { off, .. }
        | Instr::StoreB { off, .. } => {
            if off != 0 {
                4
            } else {
                3
            }
        }
        Instr::CallI { .. } => 2,
        _ => 1,
    }
}

fn check_source(prog: &Program) -> Result<(), InstrumentError> {
    for (pc, i) in prog.instrs.iter().enumerate() {
        if matches!(i, Instr::Clamp { .. } | Instr::CheckCall { .. }) {
            return Err(InstrumentError::UnexpectedPseudoOp { pc });
        }
        if i.regs().contains(&Some(SANDBOX_REG)) {
            return Err(InstrumentError::ReservedRegister { pc });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use vino_sim::VirtualClock;
    use vino_vm::interp::{Exit, NullKernel, Vm};
    use vino_vm::isa::{Cond, HostFnId};
    use vino_vm::mem::{AddressSpace, Protection};

    fn run(prog: &Program, prot: Protection) -> (Exit, Vm, Rc<VirtualClock>) {
        let mem = AddressSpace::new(4096, 4096, prot);
        let mut vm = Vm::new(mem);
        let clock = VirtualClock::new();
        let mut fuel = 1_000_000;
        vm.load(prog.clone());
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
        (exit, vm, clock)
    }

    #[test]
    fn sandbox_sequences_inserted() {
        let p = Program::new(
            "t",
            vec![
                Instr::LoadW { d: Reg(1), addr: Reg(2), off: 8 },
                Instr::StoreW { s: Reg(1), addr: Reg(2), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let (q, stats) = instrument(&p).unwrap();
        assert_eq!(stats.mem_accesses, 2);
        assert_eq!(stats.indirect_calls, 0);
        // Prologue + (mov,add,clamp,load) + (mov,clamp,store) + halt.
        assert_eq!(q.instrs.len(), 1 + 4 + 3 + 1);
        assert_eq!(q.instrs[0], Instr::Clamp { r: SANDBOX_REG });
        assert_eq!(q.instrs[4], Instr::LoadW { d: Reg(1), addr: SANDBOX_REG, off: 0 });
    }

    #[test]
    fn checkcall_inserted_before_indirect_calls() {
        let p = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(5), imm: 3 },
                Instr::CallI { target: Reg(5) },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let (q, stats) = instrument(&p).unwrap();
        assert_eq!(stats.indirect_calls, 1);
        assert_eq!(q.instrs[2], Instr::CheckCall { r: Reg(5) });
        assert_eq!(q.instrs[3], Instr::CallI { target: Reg(5) });
    }

    #[test]
    fn branch_targets_relocated() {
        // loop: store; dec; bne -> loop; halt
        let p = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: 3 },                            // 0
                Instr::StoreW { s: Reg(1), addr: Reg(2), off: 0 },             // 1 <- loop
                Instr::AluI { op: AluOp::Sub, d: Reg(1), a: Reg(1), imm: 1 },  // 2
                Instr::Br { cond: Cond::Ne, a: Reg(1), b: Reg(0), target: 1 }, // 3
                Instr::Halt { result: Reg(1) },                                // 4
            ],
        );
        let (q, _) = instrument(&p).unwrap();
        // New index of source instr 1: prologue(1) + const(1) = 2.
        let br = q
            .instrs
            .iter()
            .find_map(|i| match i {
                Instr::Br { target, .. } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert_eq!(br, 2);
        // Executing it still terminates with r1 == 0.
        let (exit, _, _) = run(&q, Protection::Sfi);
        assert_eq!(exit, Exit::Halted(0));
    }

    #[test]
    fn semantics_preserved_for_in_segment_programs() {
        // A well-behaved graft: sums 10 words it first writes. The
        // instrumented program must compute the same result.
        let mem = AddressSpace::new(4096, 0, Protection::Unprotected);
        let base = mem.seg_base() as i64;
        let src = Program::new(
            "sum",
            vec![
                Instr::Const { d: Reg(1), imm: base }, // ptr
                Instr::Const { d: Reg(2), imm: 0 },    // i
                Instr::Const { d: Reg(3), imm: 10 },   // n
                Instr::Const { d: Reg(4), imm: 0 },    // acc
                // write loop: mem[ptr] = i+1
                Instr::AluI { op: AluOp::Add, d: Reg(5), a: Reg(2), imm: 1 }, // 4
                Instr::StoreW { s: Reg(5), addr: Reg(1), off: 0 },
                Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 4 },
                Instr::AluI { op: AluOp::Add, d: Reg(2), a: Reg(2), imm: 1 },
                Instr::Br { cond: Cond::LtU, a: Reg(2), b: Reg(3), target: 4 },
                // read loop
                Instr::Const { d: Reg(1), imm: base },
                Instr::Const { d: Reg(2), imm: 0 },
                Instr::LoadW { d: Reg(5), addr: Reg(1), off: 0 }, // 11
                Instr::Alu { op: AluOp::Add, d: Reg(4), a: Reg(4), b: Reg(5) },
                Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 4 },
                Instr::AluI { op: AluOp::Add, d: Reg(2), a: Reg(2), imm: 1 },
                Instr::Br { cond: Cond::LtU, a: Reg(2), b: Reg(3), target: 11 },
                Instr::Halt { result: Reg(4) },
            ],
        );
        let (exit_raw, _, _) = run(&src, Protection::Unprotected);
        let (inst, _) = instrument(&src).unwrap();
        let (exit_sfi, vm, _) = run(&inst, Protection::Sfi);
        assert_eq!(exit_raw, Exit::Halted(55));
        assert_eq!(exit_sfi, Exit::Halted(55));
        assert_eq!(vm.mem.kernel_write_count(), 0);
    }

    #[test]
    fn overhead_is_two_to_five_cycles_per_access() {
        // Measure the instrumented-vs-raw cycle delta per memory access
        // for a store-dense loop — the §3.3 "two to five cycles" claim.
        let mem = AddressSpace::new(8192, 0, Protection::Unprotected);
        let base = mem.seg_base() as i64;
        let n = 256i64;
        let src = Program::new(
            "stores",
            vec![
                Instr::Const { d: Reg(1), imm: base },
                Instr::Const { d: Reg(2), imm: 0 },
                Instr::Const { d: Reg(3), imm: n },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 }, // 3
                Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 4 },
                Instr::AluI { op: AluOp::Add, d: Reg(2), a: Reg(2), imm: 1 },
                Instr::Br { cond: Cond::LtU, a: Reg(2), b: Reg(3), target: 3 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let (_, _, clock_raw) = run(&src, Protection::Unprotected);
        let (inst, stats) = instrument(&src).unwrap();
        let (_, _, clock_sfi) = run(&inst, Protection::Sfi);
        let delta = clock_sfi.now().get() as i64 - clock_raw.now().get() as i64;
        // Subtract the one-off prologue clamp.
        let per_access = (delta - vino_sim::costs::SFI_CLAMP_CYCLES as i64) as f64 / n as f64;
        assert!(
            (2.0..=5.0).contains(&per_access),
            "per-access overhead {per_access} outside the paper's 2-5 cycle range"
        );
        assert_eq!(stats.mem_accesses, 1);
    }

    #[test]
    fn rejects_reserved_register_use() {
        let p = Program::new("bad", vec![Instr::Const { d: SANDBOX_REG, imm: 0 }]);
        assert_eq!(instrument(&p), Err(InstrumentError::ReservedRegister { pc: 0 }));
        let p2 = Program::new(
            "bad2",
            vec![Instr::Mov { d: Reg(0), s: SANDBOX_REG }, Instr::Halt { result: Reg(0) }],
        );
        assert_eq!(instrument(&p2), Err(InstrumentError::ReservedRegister { pc: 0 }));
    }

    #[test]
    fn rejects_existing_pseudo_ops() {
        let p = Program::new("bad", vec![Instr::Clamp { r: Reg(1) }]);
        assert_eq!(instrument(&p), Err(InstrumentError::UnexpectedPseudoOp { pc: 0 }));
        let p2 = Program::new("bad2", vec![Instr::CheckCall { r: Reg(1) }]);
        assert_eq!(instrument(&p2), Err(InstrumentError::UnexpectedPseudoOp { pc: 0 }));
    }

    #[test]
    fn rejects_malformed_input() {
        let p = Program { instrs: vec![Instr::Jmp { target: 42 }], name: "bad".into() };
        assert!(matches!(instrument(&p), Err(InstrumentError::Malformed { .. })));
    }

    #[test]
    fn direct_calls_untouched() {
        let p = Program::new(
            "t",
            vec![Instr::Call { func: HostFnId(9) }, Instr::Halt { result: Reg(0) }],
        );
        let (q, stats) = instrument(&p).unwrap();
        assert_eq!(stats.indirect_calls, 0);
        assert_eq!(q.instrs[1], Instr::Call { func: HostFnId(9) });
    }

    #[test]
    fn wild_store_is_confined_after_instrumentation() {
        // The §2 disaster scenario: a graft stores through a pointer
        // aimed at kernel memory. Raw code corrupts; instrumented code
        // is silently redirected into its own segment.
        let mem = AddressSpace::new(4096, 4096, Protection::Unprotected);
        let kaddr = mem.kernel_base() as i64 + 64;
        let src = Program::new(
            "wild",
            vec![
                Instr::Const { d: Reg(1), imm: kaddr },
                Instr::Const { d: Reg(2), imm: 0x42 },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let (exit, vm, _) = run(&src, Protection::Unprotected);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(vm.mem.kernel_write_count(), 1, "raw graft corrupts the kernel");

        let (inst, _) = instrument(&src).unwrap();
        let (exit, vm, _) = run(&inst, Protection::Sfi);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(vm.mem.kernel_write_count(), 0, "instrumented graft is confined");
    }
}
