//! The GraftVM instruction set.
//!
//! A 16-register, 64-bit machine with byte-addressed memory, 32-bit word
//! loads/stores (the paper's platform is a 32-bit Pentium: a "word" in
//! §4.4 is four bytes), direct and indirect calls into the kernel's
//! graft-callable function table, local (intra-graft) calls, and the two
//! SFI pseudo-instructions (`Clamp`, `CheckCall`) that the MiSFIT pass
//! inserts.
//!
//! ## Calling convention
//!
//! Host (kernel) calls pass arguments in `r1..=r4` and return the result
//! in `r0`. `r15` is conventionally the graft's stack pointer within its
//! own segment; the hardware does not enforce this. Local calls push the
//! return address on an internal call stack (not graft memory), bounded
//! by [`crate::interp::MAX_CALL_DEPTH`].

use std::fmt;

/// One of the sixteen general-purpose registers `r0`–`r15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Constructs a register, validating the index.
    pub fn new(i: u8) -> Option<Reg> {
        (i < 16).then_some(Reg(i))
    }

    /// Register index as usize for register-file access.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a kernel (host) function in the graft-callable table.
///
/// Host-function identifiers play the role of function *addresses* in the
/// paper: direct calls are audited at link time against the callable
/// list, and indirect calls are checked at run time by probing a hash
/// table of these ids (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostFnId(pub u32);

impl fmt::Display for HostFnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; traps on zero divisor.
    Div,
    /// Unsigned remainder; traps on zero divisor.
    Rem,
    /// Bitwise exclusive or.
    Xor,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Logical shift left (shift amount masked to 63).
    Shl,
    /// Logical shift right (shift amount masked to 63).
    Shr,
}

/// Branch conditions comparing two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
    /// Signed less-than.
    LtS,
    /// Signed greater-or-equal.
    GeS,
}

/// A GraftVM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `d = imm` (sign-extended 64-bit immediate).
    Const { d: Reg, imm: i64 },
    /// `d = s`.
    Mov { d: Reg, s: Reg },
    /// `d = a <op> b`.
    Alu { op: AluOp, d: Reg, a: Reg, b: Reg },
    /// `d = a <op> imm`.
    AluI { op: AluOp, d: Reg, a: Reg, imm: i64 },
    /// Load a 32-bit word: `d = zext(mem32[addr + off])`.
    LoadW { d: Reg, addr: Reg, off: i32 },
    /// Store a 32-bit word: `mem32[addr + off] = s as u32`.
    StoreW { s: Reg, addr: Reg, off: i32 },
    /// Load a byte: `d = zext(mem8[addr + off])`.
    LoadB { d: Reg, addr: Reg, off: i32 },
    /// Store a byte: `mem8[addr + off] = s as u8`.
    StoreB { s: Reg, addr: Reg, off: i32 },
    /// Unconditional jump to instruction index `target`.
    Jmp { target: u32 },
    /// Conditional branch: `if a <cond> b { pc = target }`.
    Br { cond: Cond, a: Reg, b: Reg, target: u32 },
    /// Direct call of kernel function `func` (checked at link time).
    Call { func: HostFnId },
    /// Indirect call of the kernel function whose id is in `target`
    /// (checked at run time by the preceding [`Instr::CheckCall`] in
    /// MiSFIT-processed code; unchecked — and therefore rejected by the
    /// kernel loader — otherwise).
    CallI { target: Reg },
    /// Intra-graft call to instruction index `target`.
    CallLocal { target: u32 },
    /// Return from an intra-graft call.
    Ret,
    /// Stop execution with the value of `result` as the graft's result.
    Halt { result: Reg },
    /// SFI pseudo-op: force the address in `r` into the graft segment
    /// (`r = (r & seg_mask) | seg_base`). Inserted by MiSFIT before each
    /// load/store; costs [`vino_sim::costs::SFI_CLAMP_CYCLES`].
    Clamp { r: Reg },
    /// SFI pseudo-op: probe the graft-callable hash table for the id in
    /// `r`; traps with [`crate::interp::Trap::ForbiddenCall`] on a miss.
    /// Inserted by MiSFIT before each indirect call; costs
    /// [`vino_sim::costs::SFI_CALLCHECK_CYCLES`].
    CheckCall { r: Reg },
    /// No operation (assembler padding); costs one cycle.
    Nop,
}

impl Instr {
    /// True for instructions that read or write graft memory and hence
    /// need an SFI sandbox op in protected code.
    pub fn is_mem_access(&self) -> bool {
        matches!(
            self,
            Instr::LoadW { .. } | Instr::StoreW { .. } | Instr::LoadB { .. } | Instr::StoreB { .. }
        )
    }

    /// The address register of a memory access, if this is one.
    pub fn mem_addr_reg(&self) -> Option<Reg> {
        match *self {
            Instr::LoadW { addr, .. }
            | Instr::StoreW { addr, .. }
            | Instr::LoadB { addr, .. }
            | Instr::StoreB { addr, .. } => Some(addr),
            _ => None,
        }
    }

    /// Every register the instruction names, in operand order (unused
    /// slots are `None`).
    pub fn regs(&self) -> [Option<Reg>; 3] {
        match *self {
            Instr::Const { d, .. } => [Some(d), None, None],
            Instr::Mov { d, s } => [Some(d), Some(s), None],
            Instr::Alu { d, a, b, .. } => [Some(d), Some(a), Some(b)],
            Instr::AluI { d, a, .. } => [Some(d), Some(a), None],
            Instr::LoadW { d, addr, .. } | Instr::LoadB { d, addr, .. } => {
                [Some(d), Some(addr), None]
            }
            Instr::StoreW { s, addr, .. } | Instr::StoreB { s, addr, .. } => {
                [Some(s), Some(addr), None]
            }
            Instr::Br { a, b, .. } => [Some(a), Some(b), None],
            Instr::CallI { target: r }
            | Instr::Halt { result: r }
            | Instr::Clamp { r }
            | Instr::CheckCall { r } => [Some(r), None, None],
            Instr::Jmp { .. }
            | Instr::Call { .. }
            | Instr::CallLocal { .. }
            | Instr::Ret
            | Instr::Nop => [None; 3],
        }
    }

    /// The branch/jump target, if this instruction has one.
    pub fn branch_target(&self) -> Option<u32> {
        match *self {
            Instr::Jmp { target } | Instr::Br { target, .. } | Instr::CallLocal { target } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// Rewrites the branch/jump target (used by the MiSFIT relocation
    /// pass when instrumentation shifts instruction indices).
    pub fn with_branch_target(self, new: u32) -> Instr {
        match self {
            Instr::Jmp { .. } => Instr::Jmp { target: new },
            Instr::Br { cond, a, b, .. } => Instr::Br { cond, a, b, target: new },
            Instr::CallLocal { .. } => Instr::CallLocal { target: new },
            other => other,
        }
    }
}

/// A complete graft program: instructions plus metadata the linker needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The instruction stream; execution starts at index 0.
    pub instrs: Vec<Instr>,
    /// Human-readable graft name (also recorded in the signed image).
    pub name: String,
}

impl Program {
    /// Creates a named program from an instruction vector.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Program {
        Program { instrs, name: name.into() }
    }

    /// Every kernel function the program calls *directly*. The dynamic
    /// linker audits this set against the graft-callable list (§3.3:
    /// "Direct function calls are checked when grafts are dynamically
    /// linked into the kernel").
    pub fn direct_callees(&self) -> Vec<HostFnId> {
        let mut ids: Vec<HostFnId> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Call { func } => Some(*func),
                _ => None,
            })
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// True if the program contains any indirect call.
    pub fn has_indirect_calls(&self) -> bool {
        self.instrs.iter().any(|i| matches!(i, Instr::CallI { .. }))
    }

    /// Counts instructions satisfying `pred` (used by instrumentation
    /// statistics and the MiSFIT micro-overhead experiment E2).
    pub fn count(&self, pred: impl Fn(&Instr) -> bool) -> usize {
        self.instrs.iter().filter(|i| pred(i)).count()
    }

    /// Validates static well-formedness: all branch targets in range
    /// and every register one of `r0..=r15`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.instrs.len() as u32;
        for (pc, i) in self.instrs.iter().enumerate() {
            if let Some(t) = i.branch_target() {
                if t >= n {
                    return Err(format!("instr {pc}: branch target {t} out of range (len {n})"));
                }
            }
            if let Some(r) = i.regs().into_iter().flatten().find(|r| Reg::new(r.0).is_none()) {
                return Err(format!("instr {pc}: register {r} out of range (r0..=r15)"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_bounds() {
        assert!(Reg::new(0).is_some());
        assert!(Reg::new(15).is_some());
        assert!(Reg::new(16).is_none());
        assert_eq!(Reg(7).to_string(), "r7");
    }

    #[test]
    fn mem_access_classification() {
        let l = Instr::LoadW { d: Reg(1), addr: Reg(2), off: 0 };
        let a = Instr::Alu { op: AluOp::Add, d: Reg(1), a: Reg(1), b: Reg(2) };
        assert!(l.is_mem_access());
        assert_eq!(l.mem_addr_reg(), Some(Reg(2)));
        assert!(!a.is_mem_access());
        assert_eq!(a.mem_addr_reg(), None);
    }

    #[test]
    fn branch_target_rewrite() {
        let b = Instr::Br { cond: Cond::Eq, a: Reg(0), b: Reg(1), target: 5 };
        assert_eq!(b.branch_target(), Some(5));
        let b2 = b.with_branch_target(9);
        assert_eq!(b2.branch_target(), Some(9));
        // Non-branch instructions pass through unchanged.
        let m = Instr::Mov { d: Reg(0), s: Reg(1) };
        assert_eq!(m.with_branch_target(3), m);
    }

    #[test]
    fn direct_callees_sorted_deduped() {
        let p = Program::new(
            "t",
            vec![
                Instr::Call { func: HostFnId(9) },
                Instr::Call { func: HostFnId(2) },
                Instr::Call { func: HostFnId(9) },
                Instr::Halt { result: Reg(0) },
            ],
        );
        assert_eq!(p.direct_callees(), vec![HostFnId(2), HostFnId(9)]);
        assert!(!p.has_indirect_calls());
    }

    #[test]
    fn validate_rejects_register_indices_past_r15() {
        let ok = Instr::Mov { d: Reg(15), s: Reg(0) };
        assert!(Program::new("t", vec![ok]).validate().is_ok());
        for bad in [
            Instr::Const { d: Reg(16), imm: 0 },
            Instr::Alu { op: AluOp::Add, d: Reg(1), a: Reg(2), b: Reg(16) },
            Instr::StoreW { s: Reg(1), addr: Reg(200), off: 0 },
            Instr::Halt { result: Reg(16) },
        ] {
            let err = Program::new("t", vec![ok, bad]).validate().unwrap_err();
            assert!(err.starts_with("instr 1: register r"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn validate_rejects_wild_branch() {
        let p = Program::new("t", vec![Instr::Jmp { target: 10 }]);
        assert!(p.validate().is_err());
        let ok = Program::new("t", vec![Instr::Jmp { target: 0 }]);
        assert!(ok.validate().is_ok());
    }
}
