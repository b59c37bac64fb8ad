//! Randomised tests for the GraftVM's SFI memory model, driven by a
//! seeded deterministic generator (formerly proptest).
//!
//! The central safety claim of §3.3 is that a MiSFIT-processed graft can
//! never read or write memory outside its own segment: "Code is added to
//! force the target address to fall within the range of memory allocated
//! to the graft." Here we generate *arbitrary* programs whose memory
//! accesses are each preceded by a `Clamp` (what the instrumentation pass
//! guarantees; `vino-misfit` has its own tests that it inserts them) and
//! assert that no execution ever touches the kernel region.

use vino_sim::{SplitMix64, VirtualClock};
use vino_vm::interp::{Exit, NullKernel, Trap, Vm};
use vino_vm::isa::{AluOp, Cond, Instr, Program, Reg};
use vino_vm::mem::{AddressSpace, Protection};

/// The dedicated SFI sandbox register (Wahbe et al.'s reserved
/// register): only sandboxing sequences write it, so it always holds an
/// in-segment address once the prologue clamp has run — even when a
/// branch jumps into the middle of a sandbox sequence.
const SANDBOX: Reg = Reg(14);

fn gen_reg(rng: &mut SplitMix64) -> Reg {
    // User code never touches the reserved sandbox register.
    Reg(rng.below(14) as u8)
}

const ALU_OPS: &[AluOp] = &[
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Xor,
    AluOp::And,
    AluOp::Or,
    AluOp::Shl,
    AluOp::Shr,
];

const CONDS: &[Cond] = &[Cond::Eq, Cond::Ne, Cond::LtU, Cond::GeU, Cond::LtS, Cond::GeS];

fn gen_alu_op(rng: &mut SplitMix64) -> AluOp {
    ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize]
}

fn gen_cond(rng: &mut SplitMix64) -> Cond {
    CONDS[rng.below(CONDS.len() as u64) as usize]
}

/// One "logical" instruction of an instrumented program. Memory accesses
/// expand into `Clamp` + access, mirroring the MiSFIT pass output.
#[derive(Debug, Clone)]
enum Piece {
    Plain(Instr),
    ClampedLoad { d: Reg, addr: Reg, off: i32 },
    ClampedStore { s: Reg, addr: Reg, off: i32 },
    Branch { cond: Cond, a: Reg, b: Reg },
    Jump,
}

fn gen_piece(rng: &mut SplitMix64) -> Piece {
    match rng.below(8) {
        0 => Piece::Plain(Instr::Const { d: gen_reg(rng), imm: rng.next_u64() as i64 }),
        1 => Piece::Plain(Instr::Mov { d: gen_reg(rng), s: gen_reg(rng) }),
        2 => Piece::Plain(Instr::Alu {
            op: gen_alu_op(rng),
            d: gen_reg(rng),
            a: gen_reg(rng),
            b: gen_reg(rng),
        }),
        3 => Piece::Plain(Instr::AluI {
            op: gen_alu_op(rng),
            d: gen_reg(rng),
            a: gen_reg(rng),
            imm: rng.next_u64() as i32 as i64,
        }),
        4 => Piece::ClampedLoad {
            d: gen_reg(rng),
            addr: gen_reg(rng),
            off: rng.range(0, 127) as i32 - 64,
        },
        5 => Piece::ClampedStore {
            s: gen_reg(rng),
            addr: gen_reg(rng),
            off: rng.range(0, 127) as i32 - 64,
        },
        6 => Piece::Branch { cond: gen_cond(rng), a: gen_reg(rng), b: gen_reg(rng) },
        _ => Piece::Jump,
    }
}

/// Expands pieces into an instrumented program. Branch/jump targets are
/// chosen by hashing so they stay within range but are otherwise wild.
fn build_program(pieces: Vec<Piece>, seed: u32) -> Program {
    // Prologue: force the sandbox register in-segment before anything
    // runs. After this, SANDBOX is in-segment at every program point,
    // because only Clamp writes it.
    let mut instrs: Vec<Instr> = vec![Instr::Clamp { r: SANDBOX }];
    // Lay out to know the final length; memory ops take 4 slots
    // (mov SANDBOX, addr / add offset / clamp / access).
    let mut len = 1u32;
    for p in &pieces {
        len += match p {
            Piece::ClampedLoad { .. } | Piece::ClampedStore { .. } => 4,
            _ => 1,
        };
    }
    let total = len + 1; // + Halt
    let target_for = |i: u32| -> u32 { (i.wrapping_mul(2654435761).wrapping_add(seed)) % total };
    for (k, p) in pieces.into_iter().enumerate() {
        let k = k as u32;
        match p {
            Piece::Plain(i) => instrs.push(i),
            Piece::ClampedLoad { d, addr, off } => {
                // The MiSFIT sandbox sequence: compute the effective
                // address in the reserved register, clamp, then access
                // through it. A branch landing mid-sequence still finds
                // an in-segment address in SANDBOX.
                instrs.push(Instr::Mov { d: SANDBOX, s: addr });
                instrs.push(Instr::AluI {
                    op: AluOp::Add,
                    d: SANDBOX,
                    a: SANDBOX,
                    imm: off as i64,
                });
                instrs.push(Instr::Clamp { r: SANDBOX });
                instrs.push(Instr::LoadW { d, addr: SANDBOX, off: 0 });
            }
            Piece::ClampedStore { s, addr, off } => {
                instrs.push(Instr::Mov { d: SANDBOX, s: addr });
                instrs.push(Instr::AluI {
                    op: AluOp::Add,
                    d: SANDBOX,
                    a: SANDBOX,
                    imm: off as i64,
                });
                instrs.push(Instr::Clamp { r: SANDBOX });
                instrs.push(Instr::StoreW { s, addr: SANDBOX, off: 0 });
            }
            Piece::Branch { cond, a, b } => {
                instrs.push(Instr::Br { cond, a, b, target: target_for(k) });
            }
            Piece::Jump => instrs.push(Instr::Jmp { target: target_for(k) }),
        }
    }
    instrs.push(Instr::Halt { result: Reg(0) });
    Program::new("fuzz", instrs)
}

/// Arbitrary instrumented programs never write the kernel region and
/// never fault with an SFI violation: every access lands in-segment.
#[test]
fn instrumented_programs_stay_in_segment() {
    let mut rng = SplitMix64::new(0x5F1_C04F);
    for _case in 0..256 {
        let n = rng.range(1, 59) as usize;
        let pieces: Vec<Piece> = (0..n).map(|_| gen_piece(&mut rng)).collect();
        let seed = rng.next_u64() as u32;
        let prog = build_program(pieces, seed);
        prog.validate().expect("generated program must be well-formed");
        let mem = AddressSpace::new(4096, 4096, Protection::Sfi);
        let mut vm = Vm::new(mem);
        // Plant a sentinel in kernel memory; it must survive.
        vm.mem.kernel_bytes_mut(0, 4).unwrap().copy_from_slice(&0xDEADBEEFu32.to_le_bytes());
        let clock = VirtualClock::new();
        let mut fuel = 5_000; // Bounded: wild jumps can loop.
        vm.load(prog.clone());
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
        // The only acceptable outcomes: normal halt, preemption, or a
        // *non-memory* trap. Any MemError means confinement failed
        // (clamped accesses cannot be unmapped or kernel-region).
        if let Exit::Trapped(Trap::Mem(e)) = &exit {
            panic!("memory fault escaped SFI: {e:?}");
        }
        assert_eq!(vm.mem.kernel_write_count(), 0);
        let sentinel = vm.mem.kernel_bytes(0, 4).unwrap();
        assert_eq!(sentinel, &0xDEADBEEFu32.to_le_bytes()[..]);
    }
}

/// Clamp is idempotent and always lands in-segment, for any address.
#[test]
fn clamp_idempotent_and_confining() {
    let mut rng = SplitMix64::new(0xC1A_3417);
    for _case in 0..256 {
        let addr = rng.next_u64();
        let size_pow = rng.range(8, 19) as u32;
        let mem = AddressSpace::new(1usize << size_pow, 64, Protection::Sfi);
        let c1 = mem.clamp(addr);
        assert!(mem.in_segment(c1));
        assert_eq!(mem.clamp(c1), c1);
    }
}

/// Un-instrumented programs CAN corrupt the kernel region — the
/// disaster SFI prevents. This is the control experiment: a direct
/// store to a kernel address must succeed in Unprotected mode.
#[test]
fn unprotected_wild_store_corrupts() {
    let mut rng = SplitMix64::new(0x0B_AD);
    for _case in 0..256 {
        let off = rng.below(1000);
        let val = rng.range(1, u32::MAX as u64 - 1) as u32;
        let mem = AddressSpace::new(4096, 4096, Protection::Unprotected);
        let kaddr = mem.kernel_base() + (off & !3);
        let prog = Program::new(
            "wild",
            vec![
                Instr::Const { d: Reg(1), imm: kaddr as i64 },
                Instr::Const { d: Reg(2), imm: val as i64 },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut vm = Vm::new(mem);
        let clock = VirtualClock::new();
        let mut fuel = 100;
        vm.load(prog.clone());
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(vm.mem.kernel_write_count(), 1);
    }
}

/// Fuel is an exact instruction budget: a spin loop retires exactly
/// `fuel` instructions and then preempts (Rule 1).
#[test]
fn fuel_bounds_execution_exactly() {
    let mut rng = SplitMix64::new(0xF0E1);
    for _case in 0..256 {
        let fuel_in = rng.range(1, 9_999);
        let mem = AddressSpace::new(256, 0, Protection::Sfi);
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut vm = Vm::new(mem);
        let clock = VirtualClock::new();
        let mut fuel = fuel_in;
        vm.load(prog.clone());
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Preempted);
        assert_eq!(fuel, 0);
        assert_eq!(vm.stats.instrs, fuel_in);
    }
}
