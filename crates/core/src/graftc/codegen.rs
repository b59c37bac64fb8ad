//! GraftC code generation: AST → GraftVM instructions.
//!
//! Register discipline (compatible with the kernel calling convention
//! and the MiSFIT reserved register):
//!
//! | Registers | Use |
//! |---|---|
//! | `r0` | kernel-call results / scratch zero |
//! | `r1..r4` | incoming parameters; re-used to marshal call arguments |
//! | `r5..r10` | named variables (parameters are copied here on entry) |
//! | `r11..r13` | the expression temp stack |
//! | `r14` | reserved for MiSFIT (never touched) |
//!
//! Exceeding the variable file or the temp stack is a *compile-time*
//! error — GraftC never spills, so generated code is easy to audit.

use vino_vm::isa::{AluOp, Cond, Instr, Program, Reg};
use vino_vm::SymbolTable;

use super::ast::{BinOp, Expr, Function, Stmt};
use crate::hostfn;

/// Maximum named variables (parameters included): `r5..=r10`.
pub const MAX_VARS: usize = 6;
/// Expression temp-stack depth: `r11..=r13`.
pub const MAX_TEMP_DEPTH: usize = 3;

const VAR_BASE: u8 = 5;
const TEMP_BASE: u8 = 11;

struct Cg {
    instrs: Vec<Instr>,
    vars: Vec<String>,
    temp_depth: usize,
    syms: SymbolTable,
}

/// Compiles a parsed function into a program named `name`.
pub fn compile(name: &str, f: &Function) -> Result<Program, String> {
    let mut cg =
        Cg { instrs: Vec::new(), vars: Vec::new(), temp_depth: 0, syms: hostfn::symbols() };
    // Prologue: copy parameters out of the argument registers so calls
    // can re-use r1..r4 for marshalling.
    for (i, p) in f.params.iter().enumerate() {
        let var = cg.declare(p)?;
        cg.instrs.push(Instr::Mov { d: var, s: Reg(1 + i as u8) });
    }
    cg.body(&f.body)?;
    // Implicit `return 0` at the end.
    cg.instrs.push(Instr::Const { d: Reg(0), imm: 0 });
    cg.instrs.push(Instr::Halt { result: Reg(0) });
    let prog = Program::new(name, cg.instrs);
    prog.validate().map_err(|e| format!("internal: emitted invalid code: {e}"))?;
    Ok(prog)
}

impl Cg {
    fn declare(&mut self, name: &str) -> Result<Reg, String> {
        if self.vars.iter().any(|v| v == name) {
            return Err(format!("variable `{name}` already declared"));
        }
        if self.vars.len() >= MAX_VARS {
            return Err(format!("too many variables (max {MAX_VARS}); grafts are small by design"));
        }
        self.vars.push(name.to_string());
        Ok(Reg(VAR_BASE + (self.vars.len() - 1) as u8))
    }

    fn var(&self, name: &str) -> Result<Reg, String> {
        self.vars
            .iter()
            .position(|v| v == name)
            .map(|i| Reg(VAR_BASE + i as u8))
            .ok_or_else(|| format!("unknown variable `{name}`"))
    }

    fn push_temp(&mut self) -> Result<Reg, String> {
        if self.temp_depth >= MAX_TEMP_DEPTH {
            return Err("expression too deeply nested (temp stack exhausted)".to_string());
        }
        let r = Reg(TEMP_BASE + self.temp_depth as u8);
        self.temp_depth += 1;
        Ok(r)
    }

    fn pop_temp(&mut self, n: usize) {
        debug_assert!(self.temp_depth >= n);
        self.temp_depth -= n;
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn body(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Let { name, value } => {
                let t = self.expr(value)?;
                let var = self.declare(name)?;
                self.instrs.push(Instr::Mov { d: var, s: t });
                self.pop_temp(1);
            }
            Stmt::Assign { name, value } => {
                let t = self.expr(value)?;
                let var = self.var(name)?;
                self.instrs.push(Instr::Mov { d: var, s: t });
                self.pop_temp(1);
            }
            Stmt::MemStore { addr, value } => {
                let ta = self.expr(addr)?;
                let tv = self.expr(value)?;
                self.instrs.push(Instr::StoreW { s: tv, addr: ta, off: 0 });
                self.pop_temp(2);
            }
            Stmt::If { cond, then_body, else_body } => {
                let t = self.expr(cond)?;
                self.pop_temp(1);
                self.instrs.push(Instr::Const { d: Reg(0), imm: 0 });
                let br_else = self.here();
                self.instrs.push(Instr::Br { cond: Cond::Eq, a: t, b: Reg(0), target: 0 });
                self.body(then_body)?;
                if else_body.is_empty() {
                    let end = self.here();
                    self.instrs[br_else as usize] =
                        self.instrs[br_else as usize].with_branch_target(end);
                } else {
                    let jmp_end = self.here();
                    self.instrs.push(Instr::Jmp { target: 0 });
                    let else_start = self.here();
                    self.instrs[br_else as usize] =
                        self.instrs[br_else as usize].with_branch_target(else_start);
                    self.body(else_body)?;
                    let end = self.here();
                    self.instrs[jmp_end as usize] =
                        self.instrs[jmp_end as usize].with_branch_target(end);
                }
            }
            Stmt::While { cond, body } => {
                let top = self.here();
                let t = self.expr(cond)?;
                self.pop_temp(1);
                self.instrs.push(Instr::Const { d: Reg(0), imm: 0 });
                let br_end = self.here();
                self.instrs.push(Instr::Br { cond: Cond::Eq, a: t, b: Reg(0), target: 0 });
                self.body(body)?;
                self.instrs.push(Instr::Jmp { target: top });
                let end = self.here();
                self.instrs[br_end as usize] = self.instrs[br_end as usize].with_branch_target(end);
            }
            Stmt::Return(e) => {
                let t = self.expr(e)?;
                self.instrs.push(Instr::Halt { result: t });
                self.pop_temp(1);
            }
            Stmt::Expr(e) => {
                let _ = self.expr(e)?;
                self.pop_temp(1);
            }
        }
        Ok(())
    }

    /// Evaluates `e`, leaving the result in a fresh temp register that
    /// remains "pushed" (the caller pops it).
    fn expr(&mut self, e: &Expr) -> Result<Reg, String> {
        match e {
            Expr::Int(v) => {
                let t = self.push_temp()?;
                self.instrs.push(Instr::Const { d: t, imm: *v as i64 });
                Ok(t)
            }
            Expr::Var(name) => {
                let var = self.var(name)?;
                let t = self.push_temp()?;
                self.instrs.push(Instr::Mov { d: t, s: var });
                Ok(t)
            }
            Expr::Neg(inner) => {
                let ti = self.expr(inner)?;
                self.instrs.push(Instr::Const { d: Reg(0), imm: 0 });
                self.instrs.push(Instr::Alu { op: AluOp::Sub, d: ti, a: Reg(0), b: ti });
                Ok(ti)
            }
            Expr::Not(inner) => {
                let ti = self.expr(inner)?;
                self.emit_bool(Cond::Eq, ti, ti, Some(0));
                Ok(ti)
            }
            Expr::Mem(addr) => {
                let ta = self.expr(addr)?;
                self.instrs.push(Instr::LoadW { d: ta, addr: ta, off: 0 });
                Ok(ta)
            }
            Expr::Bin { op, lhs, rhs } => {
                let tl = self.expr(lhs)?;
                let tr = self.expr(rhs)?;
                // Result lands in the lhs temp; rhs temp is popped.
                match op {
                    BinOp::Add => self.alu(AluOp::Add, tl, tr),
                    BinOp::Sub => self.alu(AluOp::Sub, tl, tr),
                    BinOp::Mul => self.alu(AluOp::Mul, tl, tr),
                    BinOp::Div => self.alu(AluOp::Div, tl, tr),
                    BinOp::Rem => self.alu(AluOp::Rem, tl, tr),
                    BinOp::And => self.alu(AluOp::And, tl, tr),
                    BinOp::Or => self.alu(AluOp::Or, tl, tr),
                    BinOp::Xor => self.alu(AluOp::Xor, tl, tr),
                    BinOp::Shl => self.alu(AluOp::Shl, tl, tr),
                    BinOp::Shr => self.alu(AluOp::Shr, tl, tr),
                    BinOp::Eq => self.emit_bool(Cond::Eq, tl, tr, None),
                    BinOp::Ne => self.emit_bool(Cond::Ne, tl, tr, None),
                    BinOp::Lt => self.emit_bool(Cond::LtU, tl, tr, None),
                    BinOp::Ge => self.emit_bool(Cond::GeU, tl, tr, None),
                    // a > b  ≡  b < a;  a <= b  ≡  b >= a.
                    BinOp::Gt => self.emit_bool_swapped(Cond::LtU, tl, tr),
                    BinOp::Le => self.emit_bool_swapped(Cond::GeU, tl, tr),
                }
                self.pop_temp(1);
                Ok(tl)
            }
            Expr::Call { name, args } => {
                let id = self
                    .syms
                    .lookup(name)
                    .ok_or_else(|| format!("unknown kernel function `{name}`"))?;
                if args.len() > MAX_TEMP_DEPTH {
                    return Err(format!(
                        "calls take at most {MAX_TEMP_DEPTH} arguments in GraftC                          (temp-register file)"
                    ));
                }
                let mut temps = Vec::with_capacity(args.len());
                for a in args {
                    temps.push(self.expr(a)?);
                }
                // Marshal into r1..rN only after every argument (and any
                // nested call inside them) has fully evaluated.
                for (i, t) in temps.iter().enumerate() {
                    self.instrs.push(Instr::Mov { d: Reg(1 + i as u8), s: *t });
                }
                self.pop_temp(temps.len());
                self.instrs.push(Instr::Call { func: id });
                let t = self.push_temp()?;
                self.instrs.push(Instr::Mov { d: t, s: Reg(0) });
                Ok(t)
            }
        }
    }

    fn alu(&mut self, op: AluOp, d: Reg, b: Reg) {
        self.instrs.push(Instr::Alu { op, d, a: d, b });
    }

    /// Emits `d = (a <cond> b) ? 1 : 0`, clobbering `d` last so `a`/`b`
    /// may alias it. If `imm_b` is set, compares against that literal
    /// through `r0`.
    fn emit_bool(&mut self, cond: Cond, a: Reg, b: Reg, imm_b: Option<i64>) {
        let b = match imm_b {
            Some(v) => {
                self.instrs.push(Instr::Const { d: Reg(0), imm: v });
                Reg(0)
            }
            None => b,
        };
        // tmp result in r0-free pattern: use the branch skeleton with
        // the destination written after the compare reads its inputs.
        //   br cond a, b -> Ltrue
        //   const d, 0 ; jmp Lend
        //   Ltrue: const d, 1
        //   Lend:
        let br = self.here();
        self.instrs.push(Instr::Br { cond, a, b, target: 0 });
        self.instrs.push(Instr::Const { d: a, imm: 0 });
        let jmp = self.here();
        self.instrs.push(Instr::Jmp { target: 0 });
        let ltrue = self.here();
        self.instrs[br as usize] = self.instrs[br as usize].with_branch_target(ltrue);
        self.instrs.push(Instr::Const { d: a, imm: 1 });
        let lend = self.here();
        self.instrs[jmp as usize] = self.instrs[jmp as usize].with_branch_target(lend);
    }

    fn emit_bool_swapped(&mut self, cond: Cond, tl: Reg, tr: Reg) {
        // d (== tl) = (tr <cond> tl) ? 1 : 0.
        let br = self.here();
        self.instrs.push(Instr::Br { cond, a: tr, b: tl, target: 0 });
        self.instrs.push(Instr::Const { d: tl, imm: 0 });
        let jmp = self.here();
        self.instrs.push(Instr::Jmp { target: 0 });
        let ltrue = self.here();
        self.instrs[br as usize] = self.instrs[br as usize].with_branch_target(ltrue);
        self.instrs.push(Instr::Const { d: tl, imm: 1 });
        let lend = self.here();
        self.instrs[jmp as usize] = self.instrs[jmp as usize].with_branch_target(lend);
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use vino_sim::{ThreadId, VirtualClock};
    use vino_vm::interp::{Exit, NullKernel, Vm};
    use vino_vm::mem::{AddressSpace, Protection};

    use super::super::compile_source;
    use crate::engine::{GraftEngine, GraftInstance, InvokeOutcome};

    /// Runs a GraftC program standalone (no kernel) with args.
    fn run(src: &str, args: [u64; 4]) -> u64 {
        let prog = compile_source("t", src).unwrap();
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        let mut vm = Vm::new(mem);
        vm.regs[1] = args[0];
        vm.regs[2] = args[1];
        vm.regs[3] = args[2];
        vm.regs[4] = args[3];
        let clock = VirtualClock::new();
        let mut fuel = 1_000_000;
        vm.load(prog);
        match vm.run(&mut NullKernel, &clock, &mut fuel) {
            Exit::Halted(v) => v,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("fn main() { return 1 + 2 * 3; }", [0; 4]), 7);
        assert_eq!(run("fn main() { return (1 + 2) * 3; }", [0; 4]), 9);
        assert_eq!(run("fn main(a, b) { return a % b + a / b; }", [17, 5, 0, 0]), 2 + 3);
        assert_eq!(run("fn main() { return 1 << 4 | 3; }", [0; 4]), 19);
        assert_eq!(run("fn main() { return 0xFF & 0x0F ^ 1; }", [0; 4]), 14);
    }

    #[test]
    fn comparisons_yield_bits() {
        assert_eq!(run("fn main(a, b) { return a < b; }", [3, 4, 0, 0]), 1);
        assert_eq!(run("fn main(a, b) { return a < b; }", [4, 3, 0, 0]), 0);
        assert_eq!(run("fn main(a, b) { return a >= b; }", [4, 4, 0, 0]), 1);
        assert_eq!(run("fn main(a, b) { return a > b; }", [5, 4, 0, 0]), 1);
        assert_eq!(run("fn main(a, b) { return a <= b; }", [5, 4, 0, 0]), 0);
        assert_eq!(run("fn main(a, b) { return a == b; }", [7, 7, 0, 0]), 1);
        assert_eq!(run("fn main(a, b) { return a != b; }", [7, 7, 0, 0]), 0);
        assert_eq!(run("fn main(a) { return !a; }", [0, 0, 0, 0]), 1);
        assert_eq!(run("fn main(a) { return !a; }", [9, 0, 0, 0]), 0);
    }

    #[test]
    fn unary_negation_wraps() {
        assert_eq!(run("fn main(a) { return -a; }", [1, 0, 0, 0]), u64::MAX);
        assert_eq!(run("fn main(a) { return -a + a; }", [12345, 0, 0, 0]), 0);
    }

    #[test]
    fn control_flow() {
        let src = "fn main(x) {
            if (x > 10) { return 1; }
            else if (x > 5) { return 2; }
            else { return 3; }
        }";
        assert_eq!(run(src, [11, 0, 0, 0]), 1);
        assert_eq!(run(src, [7, 0, 0, 0]), 2);
        assert_eq!(run(src, [1, 0, 0, 0]), 3);
    }

    #[test]
    fn while_loops() {
        // Sum 1..=n.
        let src = "fn main(n) {
            let acc = 0;
            let i = 0;
            while (i < n) {
                i = i + 1;
                acc = acc + i;
            }
            return acc;
        }";
        assert_eq!(run(src, [10, 0, 0, 0]), 55);
        assert_eq!(run(src, [0, 0, 0, 0]), 0);
    }

    #[test]
    fn implicit_return_is_zero() {
        assert_eq!(run("fn main() { let x = 5; }", [0; 4]), 0);
    }

    #[test]
    fn mem_access_compiles_and_is_sandboxed() {
        // Store then load through mem[]; addresses are graft-segment
        // absolute (the graft gets its base from shared_base in real
        // code; here we pass it as a parameter).
        let prog = compile_source(
            "t",
            "fn main(base) {
                mem[base + 8] = 1234;
                return mem[base + 8] + 1;
            }",
        )
        .unwrap();
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        let base = mem.seg_base();
        let mut vm = Vm::new(mem);
        vm.regs[1] = base;
        let clock = VirtualClock::new();
        let mut fuel = 10_000;
        vm.load(prog);
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Halted(1235));
    }

    #[test]
    fn kernel_calls_through_the_full_pipeline() {
        // Compile GraftC, run it as a real graft with kernel calls.
        let src = "fn main(slot, value) {
            kv_set(slot, value);
            let got = kv_get(slot);
            log(got);
            return got * 2;
        }";
        let prog = compile_source("kv-graft", src).unwrap();
        let engine = GraftEngine::new(VirtualClock::new());
        let principal = engine.rm.borrow_mut().create_graft_principal();
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        let mut g = GraftInstance::new(Rc::clone(&engine), prog, mem, ThreadId(1), principal);
        match g.invoke([9, 21, 0, 0]) {
            InvokeOutcome::Ok { result, log, .. } => {
                assert_eq!(result, 42);
                assert_eq!(log, vec![21]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(engine.kv_read(9), 21);
    }

    #[test]
    fn nested_calls_marshal_correctly() {
        // log(kv_get(3) + 1) — the inner call runs before the outer
        // marshalling clobbers r1.
        let src = "fn main() {
            kv_set(3, 41);
            log(kv_get(3) + 1);
            return 0;
        }";
        let prog = compile_source("nest", src).unwrap();
        let engine = GraftEngine::new(VirtualClock::new());
        let principal = engine.rm.borrow_mut().create_graft_principal();
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        let mut g = GraftInstance::new(Rc::clone(&engine), prog, mem, ThreadId(1), principal);
        match g.invoke([0; 4]) {
            InvokeOutcome::Ok { log, .. } => assert_eq!(log, vec![42]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compile_errors_are_reported() {
        let e = |src: &str| compile_source("t", src).unwrap_err().to_string();
        assert!(e("fn main() { return nosuchfn(); }").contains("unknown kernel function"));
        assert!(e("fn main() { return y; }").contains("unknown variable"));
        assert!(e("fn main(a) { let a = 1; }").contains("already declared"));
        assert!(e("fn main() { let a=1; let b=1; let c=1; let d=1; let e=1; let f=1; let g=1; }")
            .contains("too many variables"));
        // Deep nesting exhausts the temp stack (no silent spill).
        assert!(e("fn main(a) { return a+(a+(a+(a+(a+a)))); }").contains("temp stack"));
    }

    #[test]
    fn division_by_zero_traps_at_runtime() {
        let prog = compile_source("t", "fn main(a) { return 1 / a; }").unwrap();
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        let mut vm = Vm::new(mem);
        vm.regs[1] = 0;
        let clock = VirtualClock::new();
        let mut fuel = 1000;
        vm.load(prog);
        assert!(matches!(
            vm.run(&mut NullKernel, &clock, &mut fuel),
            Exit::Trapped(vino_vm::interp::Trap::DivByZero)
        ));
    }

    #[test]
    fn graftc_output_survives_misfit() {
        // The compiled code must pass the instrumentation pass (it must
        // never touch r14) and still compute correctly under SFI.
        let src = "fn main(base, n) {
            let i = 0;
            let acc = 0;
            while (i < n) {
                let addr = base + i * 4;
                mem[addr] = i;
                acc = acc + mem[addr];
                i = i + 1;
            }
            return acc;
        }";
        let prog = compile_source("sumup", src).unwrap();
        let (inst, stats) = vino_misfit::instrument(&prog).unwrap();
        assert!(stats.mem_accesses >= 2);
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        let base = mem.seg_base();
        let mut vm = Vm::new(mem);
        vm.regs[1] = base;
        vm.regs[2] = 10;
        let clock = VirtualClock::new();
        let mut fuel = 100_000;
        vm.load(inst);
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Halted(45));
    }
}
