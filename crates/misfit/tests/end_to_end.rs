//! End-to-end MiSFIT randomised tests, driven by a seeded deterministic
//! generator (formerly proptest): ANY untrusted program, once processed
//! by the tool (instrument + sign) and loaded through the verifier, can
//! never write kernel memory — the paper's central SFI claim, checked
//! over the full pipeline rather than hand-instrumented code.

use std::rc::Rc;

use vino_misfit::{MisfitTool, SigningKey};
use vino_sim::{SplitMix64, VirtualClock};
use vino_vm::interp::{Exit, NullKernel, Trap, Vm};
use vino_vm::isa::{AluOp, Cond, Instr, Program, Reg};
use vino_vm::mem::{AddressSpace, Protection};

/// User registers exclude the reserved sandbox register r14.
fn gen_reg(rng: &mut SplitMix64) -> Reg {
    let r = rng.below(15) as u8;
    Reg(if r == 14 { 15 } else { r })
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

/// Raw, *hostile* source instructions: loads and stores through totally
/// arbitrary addresses, wild immediates — everything a malicious graft
/// author could write, minus the constructs the tool statically rejects.
fn gen_raw_instr(rng: &mut SplitMix64, max_target: u32) -> Instr {
    match rng.below(13) {
        0 => Instr::Const { d: gen_reg(rng), imm: rng.next_u64() as i64 },
        1 => Instr::Mov { d: gen_reg(rng), s: gen_reg(rng) },
        2 => Instr::Alu {
            op: ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize],
            d: gen_reg(rng),
            a: gen_reg(rng),
            b: gen_reg(rng),
        },
        3 => Instr::AluI {
            op: ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize],
            d: gen_reg(rng),
            a: gen_reg(rng),
            imm: rng.next_u64() as i32 as i64,
        },
        4 => Instr::LoadW { d: gen_reg(rng), addr: gen_reg(rng), off: rng.next_u64() as i32 },
        5 => Instr::StoreW { s: gen_reg(rng), addr: gen_reg(rng), off: rng.next_u64() as i32 },
        6 => Instr::LoadB { d: gen_reg(rng), addr: gen_reg(rng), off: rng.next_u64() as i32 },
        7 => Instr::StoreB { s: gen_reg(rng), addr: gen_reg(rng), off: rng.next_u64() as i32 },
        8 => Instr::Jmp { target: rng.below(max_target as u64) as u32 },
        9 => Instr::Br {
            cond: CONDS[rng.below(CONDS.len() as u64) as usize],
            a: gen_reg(rng),
            b: gen_reg(rng),
            target: rng.below(max_target as u64) as u32,
        },
        10 => Instr::CallI { target: gen_reg(rng) },
        11 => Instr::Halt { result: gen_reg(rng) },
        _ => Instr::Nop,
    }
}

fn gen_raw_program(rng: &mut SplitMix64) -> Program {
    let n = rng.range(1, 49) as u32;
    let mut instrs: Vec<Instr> = (0..n).map(|_| gen_raw_instr(rng, n)).collect();
    // Ensure termination is at least possible.
    instrs.push(Instr::Halt { result: Reg(0) });
    Program::new("hostile", instrs)
}

/// Tool-processed hostile programs never corrupt kernel memory.
#[test]
fn processed_hostile_programs_cannot_corrupt_kernel() {
    let mut rng = SplitMix64::new(0x405_7113);
    for _case in 0..300 {
        let prog = gen_raw_program(&mut rng);
        let tool = MisfitTool::new(SigningKey::from_passphrase("e2e"));
        let (image, _) = tool.process(&prog).expect("raw programs must instrument");
        let loaded = tool.verify_and_decode(&image).expect("fresh image must verify");

        let mem = AddressSpace::new(4096, 4096, Protection::Sfi);
        let mut vm = Vm::new(mem);
        vm.mem.kernel_bytes_mut(0, 8).unwrap().copy_from_slice(b"SENTINEL");
        let clock = VirtualClock::new();
        let mut fuel = 20_000;
        vm.load(loaded.clone());
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
        // No memory fault may escape the sandbox. ForbiddenCall/WildJump
        // traps are fine (the point of CheckCall); so is preemption.
        if let Exit::Trapped(Trap::Mem(e)) = &exit {
            panic!("SFI breach: {e:?} in program {prog:?}");
        }
        assert_eq!(vm.mem.kernel_write_count(), 0);
        assert_eq!(vm.mem.kernel_bytes(0, 8).unwrap(), b"SENTINEL");
    }
}

/// Any single-bit flip anywhere in a signed image is rejected.
#[test]
fn any_bitflip_breaks_the_signature() {
    let mut rng = SplitMix64::new(0xB17_F11B);
    for _case in 0..300 {
        let prog = gen_raw_program(&mut rng);
        let tool = MisfitTool::new(SigningKey::from_passphrase("e2e"));
        let (mut image, _) = tool.process(&prog).unwrap();
        let idx = rng.below(image.bytes.len() as u64) as usize;
        let bit = rng.below(8) as u8;
        image.bytes[idx] ^= 1 << bit;
        assert!(tool.verify_and_decode(&image).is_err());
    }
}

/// Instrumentation preserves halting results for programs that only
/// touch their own segment via in-segment addresses.
#[test]
fn instrumentation_preserves_tame_programs() {
    let mut rng = SplitMix64::new(0x7A_4E17);
    for _case in 0..64 {
        // A tame graft: writes vals into its segment, sums them back.
        let n = rng.range(1, 19) as usize;
        let vals: Vec<u32> = (0..n).map(|_| rng.below(1000) as u32).collect();
        let mem_probe = AddressSpace::new(4096, 0, Protection::Unprotected);
        let base = mem_probe.seg_base() as i64;
        let mut instrs = Vec::new();
        for (i, v) in vals.iter().enumerate() {
            instrs.push(Instr::Const { d: Reg(1), imm: base + 4 * i as i64 });
            instrs.push(Instr::Const { d: Reg(2), imm: *v as i64 });
            instrs.push(Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 });
        }
        instrs.push(Instr::Const { d: Reg(3), imm: 0 });
        for i in 0..vals.len() {
            instrs.push(Instr::Const { d: Reg(1), imm: base + 4 * i as i64 });
            instrs.push(Instr::LoadW { d: Reg(2), addr: Reg(1), off: 0 });
            instrs.push(Instr::Alu { op: AluOp::Add, d: Reg(3), a: Reg(3), b: Reg(2) });
        }
        instrs.push(Instr::Halt { result: Reg(3) });
        let prog = Program::new("tame", instrs);

        let expected: u64 = vals.iter().map(|v| *v as u64).sum();

        // Raw execution.
        let mut vm_raw = Vm::new(AddressSpace::new(4096, 0, Protection::Unprotected));
        let clock: Rc<VirtualClock> = VirtualClock::new();
        let mut fuel = 1_000_000;
        vm_raw.load(prog.clone());
        let raw = vm_raw.run(&mut NullKernel, &clock, &mut fuel);
        assert_eq!(raw, Exit::Halted(expected));

        // Instrumented execution.
        let tool = MisfitTool::new(SigningKey::from_passphrase("e2e"));
        let (image, stats) = tool.process(&prog).unwrap();
        let inst = tool.verify_and_decode(&image).unwrap();
        assert_eq!(stats.mem_accesses, 2 * vals.len());
        let mut vm_sfi = Vm::new(AddressSpace::new(4096, 0, Protection::Sfi));
        let mut fuel = 1_000_000;
        vm_sfi.load(inst.clone());
        let sfi = vm_sfi.run(&mut NullKernel, &clock, &mut fuel);
        assert_eq!(sfi, Exit::Halted(expected));
    }
}
