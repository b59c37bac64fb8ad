//! GraftVM — the virtual instruction set kernel extensions compile to.
//!
//! The paper's grafts are C++ compiled to i386 machine code and rewritten
//! by the MiSFIT tool. This reproduction replaces raw x86 with a small
//! register ISA whose interpreter charges calibrated cycle costs to the
//! simulation clock (see `vino_sim::costs`), so the per-instruction SFI
//! overheads the paper reports (2–5 cycles per load/store, 10–15 cycles
//! per indirect call) are *measured* properties of instrumented programs
//! rather than asserted constants.
//!
//! The crate provides:
//!
//! - [`isa`] — the instruction set and [`isa::Program`] container;
//! - [`asm`] — a textual assembler/disassembler used by tests, examples
//!   and the benchmark grafts;
//! - [`mem`] — the sandboxed address space: a power-of-two graft segment
//!   plus a simulated kernel region that *unprotected* grafts can corrupt
//!   (this is what MiSFIT instrumentation prevents);
//! - [`interp`] — the interpreter with fuel-based preemption and traps;
//! - [`encode`] — the binary graft-image encoding that `vino-misfit`
//!   signs and the kernel's loader verifies.

pub mod asm;
pub mod encode;
pub mod interp;
pub mod isa;
pub mod mem;

pub use asm::{assemble, disassemble, AsmError, SymbolTable};
pub use interp::{Exit, KernelApi, NullKernel, Trap, Vm};
pub use isa::{AluOp, Cond, HostFnId, Instr, Program, Reg};
pub use mem::{AddressSpace, MemError, Protection};
