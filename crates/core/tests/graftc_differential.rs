//! Differential testing for the GraftC compiler, driven by a seeded
//! deterministic generator (formerly proptest): random expression
//! programs are evaluated by a reference AST interpreter and by the
//! compiled GraftVM code (raw *and* MiSFIT-instrumented); all three
//! must agree. Miscompilation — silent wrong answers inside the kernel
//! — is the worst failure mode a graft toolchain can have.

use vino_core::graftc::ast::{BinOp, Expr, Function, Stmt};
use vino_core::graftc::codegen::compile;
use vino_sim::{SplitMix64, VirtualClock};
use vino_vm::interp::{Exit, NullKernel, Vm};
use vino_vm::mem::{AddressSpace, Protection};

/// Reference evaluator over two parameters.
fn eval(e: &Expr, a: u64, b: u64) -> Option<u64> {
    Some(match e {
        Expr::Int(v) => *v,
        Expr::Var(name) => {
            if name == "a" {
                a
            } else {
                b
            }
        }
        Expr::Neg(x) => eval(x, a, b)?.wrapping_neg(),
        Expr::Not(x) => (eval(x, a, b)? == 0) as u64,
        Expr::Mem(_) | Expr::Call { .. } => unreachable!("not generated"),
        Expr::Bin { op, lhs, rhs } => {
            let l = eval(lhs, a, b)?;
            let r = eval(rhs, a, b)?;
            match op {
                BinOp::Add => l.wrapping_add(r),
                BinOp::Sub => l.wrapping_sub(r),
                BinOp::Mul => l.wrapping_mul(r),
                BinOp::Div => l.checked_div(r)?,
                BinOp::Rem => l.checked_rem(r)?,
                BinOp::And => l & r,
                BinOp::Or => l | r,
                BinOp::Xor => l ^ r,
                BinOp::Shl => l << (r & 63),
                BinOp::Shr => l >> (r & 63),
                BinOp::Eq => (l == r) as u64,
                BinOp::Ne => (l != r) as u64,
                BinOp::Lt => (l < r) as u64,
                BinOp::Le => (l <= r) as u64,
                BinOp::Gt => (l > r) as u64,
                BinOp::Ge => (l >= r) as u64,
            }
        }
    })
}

const BIN_OPS: &[BinOp] = &[
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

fn gen_leaf(rng: &mut SplitMix64) -> Expr {
    match rng.below(3) {
        0 => Expr::Int(rng.below(1000)),
        1 => Expr::Var("a".to_string()),
        _ => Expr::Var("b".to_string()),
    }
}

/// Expressions over vars `a`/`b`, bounded so the codegen temp stack
/// (depth 4) always suffices: right operands are leaves.
fn gen_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    if depth == 0 {
        return gen_leaf(rng);
    }
    match rng.below(4) {
        0 => gen_leaf(rng),
        1 => Expr::Bin {
            op: BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize],
            lhs: Box::new(gen_expr(rng, depth - 1)),
            rhs: Box::new(gen_leaf(rng)),
        },
        2 => Expr::Neg(Box::new(gen_expr(rng, depth - 1))),
        _ => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
    }
}

fn run_compiled(prog: &vino_vm::isa::Program, a: u64, b: u64) -> Option<u64> {
    let mem = AddressSpace::new(1024, 64, Protection::Sfi);
    let mut vm = Vm::new(mem);
    vm.regs[1] = a;
    vm.regs[2] = b;
    let clock = VirtualClock::new();
    let mut fuel = 1_000_000;
    vm.load(prog.clone());
    match vm.run(&mut NullKernel, &clock, &mut fuel) {
        Exit::Halted(v) => Some(v),
        Exit::Trapped(vino_vm::interp::Trap::DivByZero) => None,
        other => panic!("unexpected exit: {other:?}"),
    }
}

/// compiled(raw) == compiled(instrumented) == interpreted, for any
/// expression and any inputs; division by zero traps exactly when the
/// reference evaluator says so.
#[test]
fn compiler_matches_reference() {
    let mut rng = SplitMix64::new(0xD1FF0C0);
    for _case in 0..512 {
        let e = gen_expr(&mut rng, 6);
        let a = rng.next_u64();
        let b = rng.next_u64();
        let f = Function {
            params: vec!["a".to_string(), "b".to_string()],
            body: vec![Stmt::Return(e.clone())],
        };
        let prog = compile("diff", &f).expect("bounded exprs always compile");
        let expected = eval(&e, a, b);
        let raw = run_compiled(&prog, a, b);
        assert_eq!(raw, expected, "raw codegen mismatch on {e:?}");
        let (inst, _) = vino_misfit::instrument(&prog).expect("instruments");
        let sfi = run_compiled(&inst, a, b);
        assert_eq!(sfi, expected, "instrumented codegen mismatch on {e:?}");
    }
}

/// Loop semantics: compiled countdown loops terminate with the
/// reference value for arbitrary small bounds.
#[test]
fn loops_match_reference() {
    let mut rng = SplitMix64::new(0x10095);
    for _case in 0..128 {
        let n = rng.below(200);
        let step = rng.range(1, 4);
        let f = Function {
            params: vec!["a".to_string(), "b".to_string()],
            body: vec![
                Stmt::Let { name: "acc".to_string(), value: Expr::Int(0) },
                Stmt::While {
                    cond: Expr::Bin {
                        op: BinOp::Lt,
                        lhs: Box::new(Expr::Var("acc".to_string())),
                        rhs: Box::new(Expr::Var("a".to_string())),
                    },
                    body: vec![Stmt::Assign {
                        name: "acc".to_string(),
                        value: Expr::Bin {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::Var("acc".to_string())),
                            rhs: Box::new(Expr::Var("b".to_string())),
                        },
                    }],
                },
                Stmt::Return(Expr::Var("acc".to_string())),
            ],
        };
        let prog = compile("loop", &f).unwrap();
        let got = run_compiled(&prog, n, step).unwrap();
        // Reference: smallest multiple of `step` that is >= n.
        let expect = n.div_ceil(step) * step;
        assert_eq!(got, expect);
    }
}
