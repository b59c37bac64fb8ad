//! Binary encoding of graft programs.
//!
//! The paper's grafts are shipped to the kernel as compiled object code
//! carrying a cryptographic signature computed by MiSFIT (§3.3). This
//! module defines the byte format of that object code: `vino-misfit`
//! signs exactly these bytes and the kernel loader decodes them after
//! verifying the signature, so any bit-flip in transit breaks the
//! signature check before it can break the decoder.
//!
//! The format is deliberately simple and versioned:
//!
//! ```text
//! magic  "GVM1"                       4 bytes
//! name   u16 length + UTF-8 bytes
//! count  u32 instruction count
//! body   one variable-length record per instruction
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use crate::isa::{AluOp, Cond, HostFnId, Instr, Program, Reg};

/// Magic bytes identifying a GraftVM image, version 1.
pub const MAGIC: &[u8; 4] = b"GVM1";

/// Errors produced when decoding a graft image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The image does not start with [`MAGIC`].
    BadMagic,
    /// The byte stream ended mid-record.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Register index not in `0..16`.
    BadReg(u8),
    /// Unknown ALU-op byte.
    BadAluOp(u8),
    /// Unknown condition byte.
    BadCond(u8),
    /// The program name is not valid UTF-8.
    BadName,
    /// Bytes remained after the declared instruction count.
    TrailingBytes,
    /// A branch target points outside the program.
    BadTarget(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::Truncated => write!(f, "truncated image"),
            DecodeError::BadOpcode(b) => write!(f, "bad opcode {b}"),
            DecodeError::BadReg(b) => write!(f, "bad register {b}"),
            DecodeError::BadAluOp(b) => write!(f, "bad alu op {b}"),
            DecodeError::BadCond(b) => write!(f, "bad condition {b}"),
            DecodeError::BadName => write!(f, "name is not UTF-8"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes"),
            DecodeError::BadTarget(t) => write!(f, "branch target {t} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a program to image bytes.
pub fn encode(prog: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + prog.instrs.len() * 8);
    out.extend_from_slice(MAGIC);
    let name = prog.name.as_bytes();
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(prog.instrs.len() as u32).to_le_bytes());
    for i in &prog.instrs {
        encode_instr(i, &mut out);
    }
    out
}

fn encode_instr(i: &Instr, out: &mut Vec<u8>) {
    match *i {
        Instr::Const { d, imm } => {
            out.push(0);
            out.push(d.0);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Instr::Mov { d, s } => {
            out.push(1);
            out.push(d.0);
            out.push(s.0);
        }
        Instr::Alu { op, d, a, b } => {
            out.push(2);
            out.push(alu_byte(op));
            out.push(d.0);
            out.push(a.0);
            out.push(b.0);
        }
        Instr::AluI { op, d, a, imm } => {
            out.push(3);
            out.push(alu_byte(op));
            out.push(d.0);
            out.push(a.0);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Instr::LoadW { d, addr, off } => mem_instr(out, 4, d, addr, off),
        Instr::StoreW { s, addr, off } => mem_instr(out, 5, s, addr, off),
        Instr::LoadB { d, addr, off } => mem_instr(out, 6, d, addr, off),
        Instr::StoreB { s, addr, off } => mem_instr(out, 7, s, addr, off),
        Instr::Jmp { target } => {
            out.push(8);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Instr::Br { cond, a, b, target } => {
            out.push(9);
            out.push(cond_byte(cond));
            out.push(a.0);
            out.push(b.0);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Instr::Call { func } => {
            out.push(10);
            out.extend_from_slice(&func.0.to_le_bytes());
        }
        Instr::CallI { target } => {
            out.push(11);
            out.push(target.0);
        }
        Instr::CallLocal { target } => {
            out.push(12);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Instr::Ret => out.push(13),
        Instr::Halt { result } => {
            out.push(14);
            out.push(result.0);
        }
        Instr::Clamp { r } => {
            out.push(15);
            out.push(r.0);
        }
        Instr::CheckCall { r } => {
            out.push(16);
            out.push(r.0);
        }
        Instr::Nop => out.push(17),
    }
}

fn mem_instr(out: &mut Vec<u8>, opcode: u8, r: Reg, addr: Reg, off: i32) {
    out.push(opcode);
    out.push(r.0);
    out.push(addr.0);
    out.extend_from_slice(&off.to_le_bytes());
}

/// Deserializes image bytes back into a [`Program`].
pub fn decode(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let name_len = c.u16()? as usize;
    let name =
        std::str::from_utf8(c.take(name_len)?).map_err(|_| DecodeError::BadName)?.to_string();
    let count = c.u32()? as usize;
    let mut instrs = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        instrs.push(decode_instr(&mut c)?);
    }
    if c.pos != bytes.len() {
        return Err(DecodeError::TrailingBytes);
    }
    let prog = Program { instrs, name };
    if let Err(_msg) = prog.validate() {
        // Surface the first wild target for diagnostics.
        let bad = prog
            .instrs
            .iter()
            .filter_map(|i| i.branch_target())
            .find(|t| *t as usize >= prog.instrs.len())
            .unwrap_or(0);
        return Err(DecodeError::BadTarget(bad));
    }
    Ok(prog)
}

fn decode_instr(c: &mut Cursor<'_>) -> Result<Instr, DecodeError> {
    let op = c.u8()?;
    Ok(match op {
        0 => Instr::Const { d: c.reg()?, imm: c.i64()? },
        1 => Instr::Mov { d: c.reg()?, s: c.reg()? },
        2 => Instr::Alu { op: c.alu()?, d: c.reg()?, a: c.reg()?, b: c.reg()? },
        3 => Instr::AluI { op: c.alu()?, d: c.reg()?, a: c.reg()?, imm: c.i64()? },
        4 => Instr::LoadW { d: c.reg()?, addr: c.reg()?, off: c.i32()? },
        5 => Instr::StoreW { s: c.reg()?, addr: c.reg()?, off: c.i32()? },
        6 => Instr::LoadB { d: c.reg()?, addr: c.reg()?, off: c.i32()? },
        7 => Instr::StoreB { s: c.reg()?, addr: c.reg()?, off: c.i32()? },
        8 => Instr::Jmp { target: c.u32()? },
        9 => Instr::Br { cond: c.cond()?, a: c.reg()?, b: c.reg()?, target: c.u32()? },
        10 => Instr::Call { func: HostFnId(c.u32()?) },
        11 => Instr::CallI { target: c.reg()? },
        12 => Instr::CallLocal { target: c.u32()? },
        13 => Instr::Ret,
        14 => Instr::Halt { result: c.reg()? },
        15 => Instr::Clamp { r: c.reg()? },
        16 => Instr::CheckCall { r: c.reg()? },
        17 => Instr::Nop,
        other => return Err(DecodeError::BadOpcode(other)),
    })
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(self.u32()? as i32)
    }
    fn i64(&mut self) -> Result<i64, DecodeError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
    fn reg(&mut self) -> Result<Reg, DecodeError> {
        let b = self.u8()?;
        Reg::new(b).ok_or(DecodeError::BadReg(b))
    }
    fn alu(&mut self) -> Result<AluOp, DecodeError> {
        let b = self.u8()?;
        Ok(match b {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Mul,
            3 => AluOp::Div,
            4 => AluOp::Rem,
            5 => AluOp::Xor,
            6 => AluOp::And,
            7 => AluOp::Or,
            8 => AluOp::Shl,
            9 => AluOp::Shr,
            other => return Err(DecodeError::BadAluOp(other)),
        })
    }
    fn cond(&mut self) -> Result<Cond, DecodeError> {
        let b = self.u8()?;
        Ok(match b {
            0 => Cond::Eq,
            1 => Cond::Ne,
            2 => Cond::LtU,
            3 => Cond::GeU,
            4 => Cond::LtS,
            5 => Cond::GeS,
            other => return Err(DecodeError::BadCond(other)),
        })
    }
}

fn alu_byte(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::Xor => 5,
        AluOp::And => 6,
        AluOp::Or => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
    }
}

fn cond_byte(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::LtU => 2,
        Cond::GeU => 3,
        Cond::LtS => 4,
        Cond::GeS => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program::new(
            "sample-graft",
            vec![
                Instr::Const { d: Reg(1), imm: -7 },
                Instr::Mov { d: Reg(2), s: Reg(1) },
                Instr::Alu { op: AluOp::Xor, d: Reg(3), a: Reg(1), b: Reg(2) },
                Instr::AluI { op: AluOp::Shl, d: Reg(3), a: Reg(3), imm: 2 },
                Instr::LoadW { d: Reg(4), addr: Reg(3), off: -16 },
                Instr::StoreB { s: Reg(4), addr: Reg(3), off: 1 },
                Instr::Jmp { target: 7 },
                Instr::Br { cond: Cond::GeS, a: Reg(1), b: Reg(2), target: 0 },
                Instr::Call { func: HostFnId(42) },
                Instr::CallI { target: Reg(5) },
                Instr::CallLocal { target: 11 },
                Instr::Ret,
                Instr::Clamp { r: Reg(6) },
                Instr::CheckCall { r: Reg(6) },
                Instr::Nop,
                Instr::Halt { result: Reg(0) },
            ],
        )
    }

    #[test]
    fn round_trip() {
        let p = sample();
        let bytes = encode(&p);
        let q = decode(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn magic_is_checked() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&sample());
        for cut in [3, 5, 10, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(DecodeError::Truncated)),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn bad_opcode_detected() {
        let p = Program::new("t", vec![Instr::Nop]);
        let mut bytes = encode(&p);
        let last = bytes.len() - 1;
        bytes[last] = 200;
        assert_eq!(decode(&bytes), Err(DecodeError::BadOpcode(200)));
    }

    #[test]
    fn bad_register_detected() {
        let p = Program::new("t", vec![Instr::Halt { result: Reg(0) }]);
        let mut bytes = encode(&p);
        let last = bytes.len() - 1;
        bytes[last] = 31; // register operand of Halt
        assert_eq!(decode(&bytes), Err(DecodeError::BadReg(31)));
    }

    #[test]
    fn wild_branch_target_detected() {
        let p = Program { instrs: vec![Instr::Jmp { target: 99 }], name: "t".into() };
        let bytes = encode(&p);
        assert_eq!(decode(&bytes), Err(DecodeError::BadTarget(99)));
    }

    #[test]
    fn empty_program_round_trips() {
        let p = Program::new("", vec![]);
        assert_eq!(decode(&encode(&p)).unwrap(), p);
    }

    #[test]
    fn unicode_name_round_trips() {
        let p = Program::new("graft-προφήτης", vec![Instr::Nop]);
        assert_eq!(decode(&encode(&p)).unwrap().name, "graft-προφήτης");
    }
}
