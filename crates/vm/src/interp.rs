//! The GraftVM interpreter.
//!
//! Executes a [`Program`] against an [`AddressSpace`], charging calibrated
//! cycle costs to the simulation clock for every instruction. Execution
//! is **fuel-bounded**: the kernel gives each invocation a timeslice worth
//! of instructions, and when fuel runs out the interpreter returns
//! [`Exit::Preempted`] with all state preserved, so the scheduler can
//! resume or the transaction manager can abort. This is how Rule 1 of
//! Table 1 ("Grafts must be preemptible") is implemented: a graft with
//! `while (1);` gets exactly its timeslice and no more (§2.2).
//!
//! # Runs and plane billing
//!
//! [`Vm::predecode`] splits the program once, at install, into
//! straight-line *runs*: from any pc to the first `jmp`, `br`, `call`,
//! `calli`, `calll`, `ret` or `halt` (or the program end). The
//! interpreter enters one run at a time and bills the observability
//! planes per run, not per retired instruction:
//!
//! - **Clock and trace** stay per instruction: each instruction charges
//!   the clock as it retires, so `vm.sfi` trace records keep their exact
//!   stamps.
//! - **Metrics and profile attribution** accumulate in the VM and are
//!   flushed before every host call (`call`/`calli`, which may open a
//!   nested invocation bracket), before the profile call tree moves
//!   (`calll`/`ret`), and at window end. SFI counters are flushed from
//!   the [`RunStats`] deltas at the same points.
//! - **The per-PC profile ledger** is folded at window end from run
//!   entry and cut-short counts, using each pc's static cost.
//! - **Fault visits**: a run whose [`FaultSite::VmTrap`] visits cannot
//!   fire (no rate set, the next armed one-shot lies beyond it) records
//!   them in bulk up front and returns the ones a trap left unreached.
//!   Any other run calls [`vino_sim::FaultPlane::fire`] before each instruction,
//!   exactly as a per-instruction interpreter would, so the RNG draw
//!   order never changes.
//!
//! Every cycle total, counter, ledger and trace record is therefore the
//! same as billing each instruction individually; only host time drops.

use std::rc::Rc;

use vino_sim::costs;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter};
use vino_sim::obs::Planes;
use vino_sim::profile::ProfTag;
use vino_sim::trace::{SfiKind, TraceEvent, VmExitKind};
use vino_sim::{Cycles, VirtualClock};

use crate::isa::{AluOp, Cond, HostFnId, Instr, Program};
use crate::mem::{AddressSpace, MemError};

/// Why a graft stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// A memory access faulted (unmapped / SFI violation / straddle).
    Mem(MemError),
    /// A `CheckCall` probe missed: the indirect-call target is not in the
    /// graft-callable table. §3.3: "If the target function is not on the
    /// list, the graft's transaction is aborted."
    ForbiddenCall { id: HostFnId },
    /// An *unchecked* indirect call named an unknown id — the moral
    /// equivalent of un-instrumented code jumping to a wild address.
    WildJump { id: HostFnId },
    /// A direct call named an id the kernel has no binding for (cannot
    /// happen for linker-audited grafts).
    UnknownFunction { id: HostFnId },
    /// Program counter left the instruction stream without `Halt`.
    PcOutOfRange { pc: usize },
    /// Intra-graft call nesting exceeded the configured bound.
    CallDepthExceeded,
    /// `Ret` executed with an empty call stack.
    RetWithoutCall,
    /// Division or remainder by zero.
    DivByZero,
    /// A kernel (host) function failed; the code identifies the error and
    /// is interpreted by the grafting layer (e.g. resource-limit denial).
    HostError { code: u64 },
    /// An injected fault ([`FaultSite::VmTrap`]) fired at this
    /// instruction — the simulated equivalent of a hardware fault or
    /// latent graft bug surfacing mid-execution.
    Injected { pc: usize },
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::Mem(e) => write!(f, "memory fault: {e}"),
            Trap::ForbiddenCall { id } => write!(f, "forbidden indirect call to {id}"),
            Trap::WildJump { id } => write!(f, "wild indirect jump to {id}"),
            Trap::UnknownFunction { id } => write!(f, "unknown function {id}"),
            Trap::PcOutOfRange { pc } => write!(f, "pc out of range: {pc}"),
            Trap::CallDepthExceeded => write!(f, "call depth exceeded"),
            Trap::RetWithoutCall => write!(f, "ret without call"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::HostError { code } => write!(f, "host error code {code}"),
            Trap::Injected { pc } => write!(f, "injected fault at pc {pc}"),
        }
    }
}

/// How an interpreter run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// The graft executed `Halt`; payload is the graft's return value.
    Halted(u64),
    /// Fuel exhausted; state is preserved and the run may be resumed.
    Preempted,
    /// The graft trapped; the grafting layer aborts its transaction.
    Trapped(Trap),
}

/// The interface the kernel exposes to executing grafts.
///
/// Implementations wrap the graft-callable function table (§3.3). The
/// interpreter never calls a host function the implementation does not
/// resolve, and the MiSFIT `CheckCall` op consults [`KernelApi::is_callable`].
pub trait KernelApi {
    /// Invokes kernel function `id` with `args` (from `r1..=r4`). The
    /// graft's memory is passed so kernel functions can exchange buffers
    /// with the graft. Returns the value for `r0`.
    fn host_call(
        &mut self,
        id: HostFnId,
        args: [u64; 4],
        mem: &mut AddressSpace,
    ) -> Result<u64, Trap>;

    /// True if `id` is in the graft-callable table. Used by `CheckCall`
    /// and by unchecked indirect calls.
    fn is_callable(&self, id: HostFnId) -> bool;
}

/// A kernel that exposes no functions at all; any call traps.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullKernel;

impl KernelApi for NullKernel {
    fn host_call(
        &mut self,
        id: HostFnId,
        _args: [u64; 4],
        _mem: &mut AddressSpace,
    ) -> Result<u64, Trap> {
        Err(Trap::UnknownFunction { id })
    }

    fn is_callable(&self, _id: HostFnId) -> bool {
        false
    }
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Maximum intra-graft call nesting before trapping.
    pub max_call_depth: usize,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig { max_call_depth: 64 }
    }
}

/// Counters describing one run; the MiSFIT micro-overhead experiment (E2)
/// and the instrumentation tests read these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub instrs: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// SFI `Clamp` ops executed.
    pub clamps: u64,
    /// SFI `CheckCall` probes executed.
    pub checkcalls: u64,
    /// Kernel (host) calls performed.
    pub host_calls: u64,
}

/// The cycle cost of `instr` and the overhead component it bills:
/// [`Component::Sfi`] for MiSFIT sandbox ops, [`Component::GraftFn`]
/// for everything else (host functions attribute their own interior
/// costs).
fn cost_of(instr: Instr) -> (Component, u64) {
    match instr {
        Instr::Const { .. }
        | Instr::Mov { .. }
        | Instr::Alu { .. }
        | Instr::AluI { .. }
        | Instr::Halt { .. }
        | Instr::Nop => (Component::GraftFn, costs::INSTR_CYCLES),
        Instr::LoadW { .. } | Instr::LoadB { .. } => (Component::GraftFn, costs::LOAD_CYCLES),
        Instr::StoreW { .. } | Instr::StoreB { .. } => (Component::GraftFn, costs::STORE_CYCLES),
        Instr::Jmp { .. } | Instr::Br { .. } => (Component::GraftFn, costs::BRANCH_CYCLES),
        Instr::Call { .. } | Instr::CallI { .. } | Instr::CallLocal { .. } => {
            (Component::GraftFn, costs::CALL_CYCLES)
        }
        Instr::Ret => (Component::GraftFn, costs::RET_CYCLES),
        Instr::Clamp { .. } => (Component::Sfi, costs::SFI_CLAMP_CYCLES),
        Instr::CheckCall { .. } => (Component::Sfi, costs::SFI_CALLCHECK_CYCLES),
    }
}

/// True if `instr` ends a straight-line run: it may transfer control
/// or call out of the VM.
fn ends_run(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Jmp { .. }
            | Instr::Br { .. }
            | Instr::Call { .. }
            | Instr::CallI { .. }
            | Instr::CallLocal { .. }
            | Instr::Ret
            | Instr::Halt { .. }
    )
}

/// One pc's predecoded facts plus its profile tallies for the current
/// window.
#[derive(Debug, Clone, Copy)]
struct PcInfo {
    /// Instructions from this pc through the end of its run, inclusive.
    run: u32,
    /// The component the instruction bills and its static cycle cost.
    comp: Component,
    cost: u64,
    /// Runs entered at this pc since the last fold.
    entries: u64,
    /// Runs that stopped at this pc short of their end (fuel or trap).
    cuts: u64,
}

/// A program's run table (see [`Vm::predecode`]).
#[derive(Debug, Default)]
struct Decoded {
    /// The decoded program's identity: instruction buffer address and
    /// length.
    key: (usize, usize),
    pcs: Vec<PcInfo>,
    /// Pcs `lo..=hi` may hold unfolded tallies (empty when `lo > hi`).
    lo: usize,
    hi: usize,
}

impl Decoded {
    fn new(prog: &Program) -> Decoded {
        let mut pcs: Vec<PcInfo> = prog
            .instrs
            .iter()
            .map(|&i| {
                let (comp, cost) = cost_of(i);
                PcInfo { run: 1, comp, cost, entries: 0, cuts: 0 }
            })
            .collect();
        for pc in (0..pcs.len().saturating_sub(1)).rev() {
            if !ends_run(prog.instrs[pc]) {
                pcs[pc].run = pcs[pc + 1].run + 1;
            }
        }
        Decoded { key: Decoded::key_of(prog), pcs, lo: usize::MAX, hi: 0 }
    }

    fn key_of(prog: &Program) -> (usize, usize) {
        (prog.instrs.as_ptr() as usize, prog.instrs.len())
    }
}

/// A graft execution context: registers, pc, local call stack and memory.
#[derive(Debug)]
pub struct Vm {
    /// The register file, `r0..=r15`.
    pub regs: [u64; 16],
    /// Next instruction index.
    pub pc: usize,
    /// Intra-graft return addresses.
    pub call_stack: Vec<usize>,
    /// The graft's address space.
    pub mem: AddressSpace,
    /// Per-run counters.
    pub stats: RunStats,
    cfg: VmConfig,
    /// The planes bound at install (inline: this is the per-instruction
    /// path).
    obs: Planes,
    /// This graft's profile tag; `Some` only when `obs` has a profile
    /// plane.
    ptag: Option<ProfTag>,
    decoded: Decoded,
    /// [`Component::GraftFn`] cycles charged to the clock but not yet
    /// to the metrics and profile planes.
    pending_fn: u64,
    /// [`Component::Sfi`] cycles likewise.
    pending_sfi: u64,
    /// `stats` as of the last flush to the planes (or the window start).
    flushed: RunStats,
}

impl Vm {
    /// Creates a context over `mem` with default configuration.
    pub fn new(mem: AddressSpace) -> Vm {
        Vm::with_config(mem, VmConfig::default())
    }

    /// Creates a context with an explicit configuration.
    pub fn with_config(mem: AddressSpace, cfg: VmConfig) -> Vm {
        Vm {
            regs: [0; 16],
            pc: 0,
            call_stack: Vec::new(),
            mem,
            stats: RunStats::default(),
            cfg,
            obs: Planes::default(),
            ptag: None,
            decoded: Decoded::default(),
            pending_fn: 0,
            pending_sfi: 0,
            flushed: RunStats::default(),
        }
    }

    /// Binds the observation handle, plus this graft's profile tag
    /// (kept only when `obs` carries a profile plane). Each interpreted
    /// instruction visits [`FaultSite::VmTrap`], so `arm(VmTrap, n)`
    /// traps this VM at its `n`th instruction across runs and resumes.
    /// Windows emit `vm.window` and sandbox checks `vm.sfi`; cycles are
    /// attributed to [`Component::Sfi`] or [`Component::GraftFn`] and
    /// billed to this graft's per-PC profile.
    pub fn bind(&mut self, obs: Planes, ptag: Option<ProfTag>) {
        self.ptag = ptag.filter(|_| obs.profile().is_some());
        self.obs = obs;
    }

    /// Builds `prog`'s run table: per pc, the length of its straight-line
    /// run plus the static cost and component of the instruction. The
    /// grafting layer calls this once at install; [`run`](Self::run)
    /// decodes on its own only when handed a program other than the one
    /// last decoded (matched by instruction buffer and length).
    pub fn predecode(&mut self, prog: &Program) {
        self.decoded = Decoded::new(prog);
    }

    /// Charges `cost` to the clock and holds it for the metrics and
    /// profile planes, which receive it at the next
    /// [`flush`](Self::flush). Called first in every [`step`](Self::step).
    fn bill(&mut self, clock: &Rc<VirtualClock>, comp: Component, cost: u64) {
        clock.charge(Cycles(cost));
        if comp == Component::Sfi {
            self.pending_sfi += cost;
        } else {
            self.pending_fn += cost;
        }
    }

    /// Hands the held cycles and the SFI check counts retired since the
    /// last flush to the metrics plane and the profile plane's current
    /// call-tree node. Runs wherever the innermost invocation bracket or
    /// the call tree may change next: before host calls, before
    /// `calll`/`ret` move the call tree, and at window end.
    fn flush(&mut self) {
        let graft = std::mem::take(&mut self.pending_fn);
        let sfi = std::mem::take(&mut self.pending_sfi);
        let (now, was) = (self.stats, std::mem::replace(&mut self.flushed, self.stats));
        let instrs = now.instrs - was.instrs;
        if let Some(mp) = self.obs.metrics() {
            if graft > 0 {
                mp.charge(Component::GraftFn, Cycles(graft));
            }
            if sfi > 0 {
                mp.charge(Component::Sfi, Cycles(sfi));
            }
            mp.add(Counter::SfiClamps, now.clamps - was.clamps);
            mp.add(Counter::SfiCallchecks, now.checkcalls - was.checkcalls);
        }
        if let (Some(pp), Some(tag)) = (self.obs.profile(), self.ptag) {
            if instrs > 0 {
                pp.charge_retired(tag, Cycles(graft), Cycles(sfi), instrs);
            }
        }
    }

    /// Records a `vm.sfi` event for the check at the previous pc. It
    /// goes straight to the trace plane: `vm.sfi` derives no counter
    /// (the SFI counters are billed per run, in [`flush`](Self::flush)),
    /// and this is the per-instruction path.
    #[inline(always)]
    fn trace_sfi(&self, kind: SfiKind) {
        if let Some(tp) = self.obs.trace() {
            tp.emit(TraceEvent::SfiCheck { kind, pc: (self.pc - 1) as u64 });
        }
    }

    /// Records that a run entered at `start` retired `retired`
    /// instructions, for the per-PC fold.
    fn note_run(&mut self, start: usize, retired: usize) {
        if self.ptag.is_none() || retired == 0 {
            return;
        }
        let d = &mut self.decoded;
        let run = d.pcs[start].run as usize;
        d.pcs[start].entries += 1;
        if retired < run {
            d.pcs[start + retired - 1].cuts += 1;
        }
        d.lo = d.lo.min(start);
        d.hi = d.hi.max(start + run - 1);
    }

    /// Folds the window's run tallies into the profile plane's per-PC
    /// ledger: a pc retired once per run entered at or before it (within
    /// its run) that was not cut short before it.
    fn fold_hits(&mut self) {
        let (Some(pp), Some(tag)) = (self.obs.profile(), self.ptag) else { return };
        let d = &mut self.decoded;
        let mut live = 0u64;
        for pc in d.lo..=d.hi {
            let info = &mut d.pcs[pc];
            live += std::mem::take(&mut info.entries);
            if live > 0 {
                pp.record_pc_hits(tag, pc, live, info.comp, Cycles(info.cost));
            }
            live -= std::mem::take(&mut info.cuts);
            if info.run == 1 {
                live = 0;
            }
        }
        d.lo = usize::MAX;
        d.hi = 0;
    }

    /// Resets pc/registers/stats for a fresh invocation, keeping memory.
    pub fn reset(&mut self) {
        self.regs = [0; 16];
        self.pc = 0;
        self.call_stack.clear();
        self.stats = RunStats::default();
        if let (Some(pp), Some(tag)) = (self.obs.profile(), self.ptag) {
            pp.reset_stack(tag);
        }
    }

    /// Runs until halt, trap, or fuel exhaustion.
    ///
    /// `fuel` is decremented once per retired instruction; when it hits
    /// zero the run returns [`Exit::Preempted`] and may be resumed by
    /// calling `run` again with fresh fuel. All cycle costs are charged
    /// to `clock` as they accrue.
    pub fn run(
        &mut self,
        prog: &Program,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        if self.decoded.key != Decoded::key_of(prog) {
            self.predecode(prog);
        }
        let window_start = self.stats.instrs;
        self.flushed = self.stats;
        let exit = self.run_window(prog, env, clock, fuel);
        self.flush();
        self.fold_hits();
        let instrs = self.stats.instrs - window_start;
        if let Some(mp) = self.obs.metrics() {
            mp.inc(Counter::VmWindows);
            mp.add(Counter::VmInstrs, instrs);
        }
        let kind = match &exit {
            Exit::Halted(_) => VmExitKind::Halt,
            Exit::Preempted => VmExitKind::Preempt,
            Exit::Trapped(_) => VmExitKind::Trap,
        };
        self.obs.emit(TraceEvent::VmWindow { instrs, exit: kind });
        exit
    }

    fn run_window(
        &mut self,
        prog: &Program,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        loop {
            if *fuel == 0 {
                return Exit::Preempted;
            }
            let start = self.pc;
            let Some(info) = self.decoded.pcs.get(start) else {
                return Exit::Trapped(Trap::PcOutOfRange { pc: start });
            };
            // At least one instruction: fuel > 0 and every run is non-empty.
            let n = (info.run as u64).min(*fuel) as usize;
            let quiet = self
                .obs
                .fault()
                .is_none_or(|fp| fp.record_quiet_visits(FaultSite::VmTrap, n as u64));
            let (retired, exit) = if quiet {
                self.drive::<false>(prog, n, env, clock)
            } else {
                self.drive::<true>(prog, n, env, clock)
            };
            *fuel -= retired as u64;
            self.note_run(start, retired);
            if let Some(exit) = exit {
                return exit;
            }
        }
    }

    /// Executes up to `n` instructions of the run at `self.pc` and
    /// returns how many retired, plus the exit if the run ended the
    /// window.
    ///
    /// The block driver (`CHECKED = false`) runs after the run's `n`
    /// [`FaultSite::VmTrap`] visits were recorded in bulk and returns
    /// the unreached ones on an early trap. The per-instruction driver
    /// (`CHECKED = true`) asks [`FaultPlane::fire`] before each one.
    #[inline(always)]
    fn drive<const CHECKED: bool>(
        &mut self,
        prog: &Program,
        n: usize,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
    ) -> (usize, Option<Exit>) {
        for i in 0..n {
            let Some(&instr) = prog.instrs.get(self.pc) else {
                // Only reachable with a run table that does not match
                // `prog`; stop as the per-instruction loop would.
                let exit = Exit::Trapped(Trap::PcOutOfRange { pc: self.pc });
                return self.stop_early::<CHECKED>(n, i, exit);
            };
            if CHECKED && self.obs.fire(FaultSite::VmTrap) {
                return (i, Some(Exit::Trapped(Trap::Injected { pc: self.pc })));
            }
            self.stats.instrs += 1;
            self.pc += 1;
            let exit = match self.step(instr, env, clock) {
                Ok(Flow::Continue) => continue,
                Ok(Flow::Halt(v)) => Exit::Halted(v),
                Err(t) => Exit::Trapped(t),
            };
            return self.stop_early::<CHECKED>(n, i + 1, exit);
        }
        (n, None)
    }

    /// Ends a run of `n` planned instructions after `reached` of them:
    /// the block driver returns the bulk-recorded fault visits it never
    /// reached.
    fn stop_early<const CHECKED: bool>(
        &self,
        n: usize,
        reached: usize,
        exit: Exit,
    ) -> (usize, Option<Exit>) {
        if !CHECKED {
            if let Some(fp) = self.obs.fault() {
                fp.return_quiet_visits(FaultSite::VmTrap, (n - reached) as u64);
            }
        }
        (reached, Some(exit))
    }

    #[inline(always)]
    fn step(
        &mut self,
        instr: Instr,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
    ) -> Result<Flow, Trap> {
        let (comp, cost) = cost_of(instr);
        self.bill(clock, comp, cost);
        match instr {
            Instr::Const { d, imm } => {
                self.regs[d.idx()] = imm as u64;
            }
            Instr::Mov { d, s } => {
                self.regs[d.idx()] = self.regs[s.idx()];
            }
            Instr::Alu { op, d, a, b } => {
                let r = alu(op, self.regs[a.idx()], self.regs[b.idx()])?;
                self.regs[d.idx()] = r;
            }
            Instr::AluI { op, d, a, imm } => {
                let r = alu(op, self.regs[a.idx()], imm as u64)?;
                self.regs[d.idx()] = r;
            }
            Instr::LoadW { d, addr, off } => {
                self.stats.loads += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.regs[d.idx()] = self.mem.read(a, 4).map_err(Trap::Mem)?;
            }
            Instr::StoreW { s, addr, off } => {
                self.stats.stores += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.mem.write(a, self.regs[s.idx()], 4).map_err(Trap::Mem)?;
            }
            Instr::LoadB { d, addr, off } => {
                self.stats.loads += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.regs[d.idx()] = self.mem.read(a, 1).map_err(Trap::Mem)?;
            }
            Instr::StoreB { s, addr, off } => {
                self.stats.stores += 1;
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.mem.write(a, self.regs[s.idx()], 1).map_err(Trap::Mem)?;
            }
            Instr::Jmp { target } => {
                self.pc = target as usize;
            }
            Instr::Br { cond, a, b, target } => {
                if eval_cond(cond, self.regs[a.idx()], self.regs[b.idx()]) {
                    self.pc = target as usize;
                }
            }
            Instr::Call { func } => {
                self.stats.host_calls += 1;
                let args = [self.regs[1], self.regs[2], self.regs[3], self.regs[4]];
                self.flush();
                self.regs[0] = env.host_call(func, args, &mut self.mem)?;
            }
            Instr::CallI { target } => {
                let id = HostFnId(self.regs[target.idx()] as u32);
                if !env.is_callable(id) {
                    // Un-instrumented code jumping through a wild pointer;
                    // MiSFIT-processed code traps earlier, in CheckCall.
                    return Err(Trap::WildJump { id });
                }
                self.stats.host_calls += 1;
                let args = [self.regs[1], self.regs[2], self.regs[3], self.regs[4]];
                self.flush();
                self.regs[0] = env.host_call(id, args, &mut self.mem)?;
            }
            Instr::CallLocal { target } => {
                if self.call_stack.len() >= self.cfg.max_call_depth {
                    return Err(Trap::CallDepthExceeded);
                }
                self.call_stack.push(self.pc);
                self.pc = target as usize;
                if self.ptag.is_some() {
                    self.flush();
                }
                if let (Some(pp), Some(tag)) = (self.obs.profile(), self.ptag) {
                    pp.enter_fn(tag, target);
                }
            }
            Instr::Ret => {
                self.pc = self.call_stack.pop().ok_or(Trap::RetWithoutCall)?;
                if self.ptag.is_some() {
                    self.flush();
                }
                if let (Some(pp), Some(tag)) = (self.obs.profile(), self.ptag) {
                    pp.exit_fn(tag);
                }
            }
            Instr::Halt { result } => {
                return Ok(Flow::Halt(self.regs[result.idx()]));
            }
            Instr::Clamp { r } => {
                self.stats.clamps += 1;
                self.trace_sfi(SfiKind::Clamp);
                self.regs[r.idx()] = self.mem.clamp(self.regs[r.idx()]);
            }
            Instr::CheckCall { r } => {
                self.stats.checkcalls += 1;
                self.trace_sfi(SfiKind::CheckCall);
                let id = HostFnId(self.regs[r.idx()] as u32);
                if !env.is_callable(id) {
                    return Err(Trap::ForbiddenCall { id });
                }
            }
            Instr::Nop => {}
        }
        Ok(Flow::Continue)
    }
}

enum Flow {
    Continue,
    Halt(u64),
}

fn alu(op: AluOp, a: u64, b: u64) -> Result<u64, Trap> {
    Ok(match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).ok_or(Trap::DivByZero)?,
        AluOp::Rem => a.checked_rem(b).ok_or(Trap::DivByZero)?,
        AluOp::Xor => a ^ b,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
    })
}

fn eval_cond(c: Cond, a: u64, b: u64) -> bool {
    match c {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::LtU => a < b,
        Cond::GeU => a >= b,
        Cond::LtS => (a as i64) < (b as i64),
        Cond::GeS => (a as i64) >= (b as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;
    use crate::mem::Protection;

    fn ctx() -> (Vm, Rc<VirtualClock>) {
        let mem = AddressSpace::new(4096, 1024, Protection::Sfi);
        (Vm::new(mem), VirtualClock::new())
    }

    fn run_prog(instrs: Vec<Instr>) -> (Exit, Vm, Rc<VirtualClock>) {
        let (mut vm, clock) = ctx();
        let prog = Program::new("t", instrs);
        let mut fuel = 1_000_000;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        (exit, vm, clock)
    }

    #[test]
    fn const_mov_alu_halt() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 40 },
            Instr::Const { d: Reg(2), imm: 2 },
            Instr::Alu { op: AluOp::Add, d: Reg(0), a: Reg(1), b: Reg(2) },
            Instr::Halt { result: Reg(0) },
        ]);
        assert_eq!(exit, Exit::Halted(42));
    }

    #[test]
    fn alu_immediate_forms() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 10 },
            Instr::AluI { op: AluOp::Mul, d: Reg(1), a: Reg(1), imm: 5 },
            Instr::AluI { op: AluOp::Sub, d: Reg(0), a: Reg(1), imm: 8 },
            Instr::Halt { result: Reg(0) },
        ]);
        assert_eq!(exit, Exit::Halted(42));
    }

    #[test]
    fn div_by_zero_traps() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 1 },
            Instr::Const { d: Reg(2), imm: 0 },
            Instr::Alu { op: AluOp::Div, d: Reg(0), a: Reg(1), b: Reg(2) },
        ]);
        assert_eq!(exit, Exit::Trapped(Trap::DivByZero));
    }

    #[test]
    fn loop_with_branch() {
        // Sum 1..=10 using a backward branch.
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 0 },  // i
            Instr::Const { d: Reg(2), imm: 0 },  // acc
            Instr::Const { d: Reg(3), imm: 10 }, // bound
            Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 1 },
            Instr::Alu { op: AluOp::Add, d: Reg(2), a: Reg(2), b: Reg(1) },
            Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(3), target: 3 },
            Instr::Halt { result: Reg(2) },
        ]);
        assert_eq!(exit, Exit::Halted(55));
    }

    #[test]
    fn memory_round_trip_and_stats() {
        let (mut vm, clock) = ctx();
        let base = vm.mem.seg_base() as i64;
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: base + 32 },
                Instr::Const { d: Reg(2), imm: 0x1234 },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::LoadW { d: Reg(0), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Halted(0x1234));
        assert_eq!(vm.stats.loads, 1);
        assert_eq!(vm.stats.stores, 1);
        assert_eq!(vm.stats.instrs, 5);
    }

    #[test]
    fn fuel_exhaustion_preempts_and_resumes() {
        // An infinite loop — the §2.2 malicious fragment. It must be
        // preemptible (Rule 1) and resumable.
        let (mut vm, clock) = ctx();
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut fuel = 100;
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        assert_eq!(fuel, 0);
        let mut fuel = 50;
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        assert_eq!(vm.stats.instrs, 150);
    }

    #[test]
    fn cycles_charged_per_instruction() {
        let (exit, vm, clock) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 1 }, // 1 cycle
            Instr::Nop,                         // 1 cycle
            Instr::Halt { result: Reg(1) },     // 1 cycle
        ]);
        assert_eq!(exit, Exit::Halted(1));
        assert_eq!(clock.now().get(), 3 * costs::INSTR_CYCLES);
        assert_eq!(vm.stats.instrs, 3);
    }

    #[test]
    fn sfi_clamp_confines_wild_store() {
        let (mut vm, clock) = ctx();
        let kernel_addr = vm.mem.kernel_base() as i64;
        let prog = Program::new(
            "wild",
            vec![
                Instr::Const { d: Reg(1), imm: kernel_addr },
                Instr::Const { d: Reg(2), imm: 0x41 },
                Instr::Clamp { r: Reg(1) },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Halted(0));
        assert_eq!(vm.mem.kernel_write_count(), 0, "clamped store must stay in segment");
        assert_eq!(vm.stats.clamps, 1);
    }

    #[test]
    fn unchecked_wild_store_faults_under_sfi_space() {
        let (mut vm, clock) = ctx();
        let kernel_addr = vm.mem.kernel_base() as i64;
        let prog = Program::new(
            "wild",
            vec![
                Instr::Const { d: Reg(1), imm: kernel_addr },
                Instr::StoreW { s: Reg(1), addr: Reg(1), off: 0 },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        assert!(matches!(exit, Exit::Trapped(Trap::Mem(MemError::KernelRegion { .. }))));
    }

    #[test]
    fn checkcall_traps_forbidden_target() {
        let (mut vm, clock) = ctx();
        let prog = Program::new(
            "evil",
            vec![
                Instr::Const { d: Reg(5), imm: 1234 },
                Instr::CheckCall { r: Reg(5) },
                Instr::CallI { target: Reg(5) },
            ],
        );
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Trapped(Trap::ForbiddenCall { id: HostFnId(1234) }));
        assert_eq!(vm.stats.checkcalls, 1);
        assert_eq!(vm.stats.host_calls, 0);
    }

    #[test]
    fn unchecked_indirect_call_is_wild_jump() {
        let (exit, _, _) =
            run_prog(vec![Instr::Const { d: Reg(5), imm: 77 }, Instr::CallI { target: Reg(5) }]);
        assert_eq!(exit, Exit::Trapped(Trap::WildJump { id: HostFnId(77) }));
    }

    #[test]
    fn host_call_convention() {
        /// Test kernel exposing one function: fn#7 returns a1+a2+a3+a4.
        struct Adder;
        impl KernelApi for Adder {
            fn host_call(
                &mut self,
                id: HostFnId,
                args: [u64; 4],
                _mem: &mut AddressSpace,
            ) -> Result<u64, Trap> {
                if id == HostFnId(7) {
                    Ok(args.iter().sum())
                } else {
                    Err(Trap::UnknownFunction { id })
                }
            }
            fn is_callable(&self, id: HostFnId) -> bool {
                id == HostFnId(7)
            }
        }
        let (mut vm, clock) = ctx();
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: 1 },
                Instr::Const { d: Reg(2), imm: 2 },
                Instr::Const { d: Reg(3), imm: 3 },
                Instr::Const { d: Reg(4), imm: 4 },
                Instr::Call { func: HostFnId(7) },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut fuel = 100;
        assert_eq!(vm.run(&prog, &mut Adder, &clock, &mut fuel), Exit::Halted(10));
        assert_eq!(vm.stats.host_calls, 1);
    }

    #[test]
    fn local_call_and_ret() {
        let (exit, _, _) = run_prog(vec![
            Instr::CallLocal { target: 3 },
            Instr::AluI { op: AluOp::Add, d: Reg(0), a: Reg(0), imm: 1 },
            Instr::Halt { result: Reg(0) },
            // Subroutine: r0 = 41.
            Instr::Const { d: Reg(0), imm: 41 },
            Instr::Ret,
        ]);
        assert_eq!(exit, Exit::Halted(42));
    }

    #[test]
    fn call_depth_bounded() {
        // Recursion without a base case must trap, not overflow.
        let (exit, _, _) = run_prog(vec![Instr::CallLocal { target: 0 }]);
        assert_eq!(exit, Exit::Trapped(Trap::CallDepthExceeded));
    }

    #[test]
    fn ret_without_call_traps() {
        let (exit, _, _) = run_prog(vec![Instr::Ret]);
        assert_eq!(exit, Exit::Trapped(Trap::RetWithoutCall));
    }

    #[test]
    fn falling_off_the_end_traps() {
        let (exit, _, _) = run_prog(vec![Instr::Nop]);
        assert_eq!(exit, Exit::Trapped(Trap::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn reset_preserves_memory() {
        let (mut vm, clock) = ctx();
        let base = vm.mem.seg_base() as i64;
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: base },
                Instr::Const { d: Reg(2), imm: 99 },
                Instr::StoreW { s: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(2) },
            ],
        );
        let mut fuel = 100;
        vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        vm.reset();
        assert_eq!(vm.pc, 0);
        assert_eq!(vm.regs, [0; 16]);
        assert_eq!(vm.mem.graft_read_u32(0), Some(99), "memory survives reset");
    }

    #[test]
    fn injected_trap_fires_at_nth_instruction() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let (mut vm, clock) = ctx();
        let plane = FaultPlane::seeded(0);
        plane.arm(FaultSite::VmTrap, 3);
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_fault(plane).unwrap();
        vm.bind(obs, None);
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Trapped(Trap::Injected { pc: 0 }));
        assert_eq!(vm.stats.instrs, 2, "the third instruction never retires");
        assert_eq!(fuel, 98, "the trapped instruction consumes no fuel");
    }

    #[test]
    fn injected_trap_counts_across_resumes() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let (mut vm, clock) = ctx();
        let plane = FaultPlane::seeded(0);
        plane.arm(FaultSite::VmTrap, 5);
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_fault(plane).unwrap();
        vm.bind(obs, None);
        let prog = Program::new("spin", vec![Instr::Jmp { target: 0 }]);
        let mut fuel = 3;
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        let mut fuel = 100;
        let exit = vm.run(&prog, &mut NullKernel, &clock, &mut fuel);
        assert_eq!(exit, Exit::Trapped(Trap::Injected { pc: 0 }));
        assert_eq!(vm.stats.instrs, 4, "trap lands on the fifth visit overall");
    }

    #[test]
    fn trace_plane_sees_windows_and_sfi_checks() {
        use vino_sim::trace::{SfiKind, TraceEvent, TracePlane, VmExitKind};
        let (mut vm, clock) = ctx();
        let plane = TracePlane::new(Rc::clone(&clock));
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_trace(Rc::clone(&plane)).unwrap();
        vm.bind(obs, None);
        let prog = Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: 64 },
                Instr::Clamp { r: Reg(1) },
                Instr::Halt { result: Reg(1) },
            ],
        );
        let mut fuel = 2;
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        let mut fuel = 100;
        assert!(matches!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Halted(_)));
        let evs: Vec<TraceEvent> = plane.records().iter().map(|r| r.event).collect();
        assert_eq!(
            evs,
            vec![
                TraceEvent::SfiCheck { kind: SfiKind::Clamp, pc: 1 },
                TraceEvent::VmWindow { instrs: 2, exit: VmExitKind::Preempt },
                TraceEvent::VmWindow { instrs: 1, exit: VmExitKind::Halt },
            ]
        );
    }

    /// Host fn #1 arms a [`FaultSite::VmTrap`] one-shot `ahead` visits
    /// past the current one; every other id is unknown.
    struct ArmingKernel {
        plane: Rc<vino_sim::fault::FaultPlane>,
        ahead: u64,
    }

    impl KernelApi for ArmingKernel {
        fn host_call(
            &mut self,
            id: HostFnId,
            _args: [u64; 4],
            _mem: &mut AddressSpace,
        ) -> Result<u64, Trap> {
            if id != HostFnId(1) {
                return Err(Trap::UnknownFunction { id });
            }
            let now = self.plane.visits(FaultSite::VmTrap);
            self.plane.arm(FaultSite::VmTrap, now + self.ahead);
            Ok(0)
        }
        fn is_callable(&self, id: HostFnId) -> bool {
            id == HostFnId(1)
        }
    }

    /// Everything a sequence of windows leaves behind that billing per
    /// run must keep equal to billing per instruction.
    #[derive(Debug, PartialEq)]
    struct Observed {
        exits: Vec<Exit>,
        fuel_left: Vec<u64>,
        instrs: u64,
        visits: u64,
        injected: u64,
        clock: u64,
        pc_hits: Vec<(usize, u64, u64, u64)>,
        graft_cycles: Option<Cycles>,
        sfi_checks: (u64, u64),
    }

    /// Runs `prog` for one window per entry of `fuels` with fault,
    /// metrics and profile planes attached. `per_instr` sets a `VmTrap`
    /// rate that never fires, which forces the per-instruction driver;
    /// `arm` arms a one-shot at that visit.
    fn observe(prog: &Program, fuels: &[u64], arm: Option<u64>, per_instr: bool) -> Observed {
        use vino_sim::fault::{FaultPlane, FaultSite};
        use vino_sim::metrics::MetricsPlane;
        use vino_sim::profile::ProfilePlane;
        let (mut vm, clock) = ctx();
        let fp = FaultPlane::seeded(7);
        if per_instr {
            fp.set_rate(FaultSite::VmTrap, 1, u64::MAX);
        }
        if let Some(nth) = arm {
            fp.arm(FaultSite::VmTrap, nth);
        }
        let mp = MetricsPlane::new(Rc::clone(&clock));
        let pp = ProfilePlane::new(Rc::clone(&clock));
        let tag = pp.tag("t");
        pp.register_program(tag, prog.instrs.len());
        let mtag = mp.tag("t");
        mp.begin_invocation(mtag);
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_fault(Rc::clone(&fp)).unwrap();
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        vm.bind(obs, Some(tag));
        vm.predecode(prog);
        let mut env = ArmingKernel { plane: Rc::clone(&fp), ahead: 2 };
        let (mut exits, mut fuel_left) = (Vec::new(), Vec::new());
        for &f in fuels {
            let mut fuel = f;
            exits.push(vm.run(prog, &mut env, &clock, &mut fuel));
            fuel_left.push(fuel);
        }
        mp.end_invocation(true);
        // Only one-shots fire: each injection ends a window, and the
        // forcing rate's draws would add injections the block driver
        // cannot match.
        let injections = exits.iter().filter(|e| matches!(e, Exit::Trapped(Trap::Injected { .. })));
        assert_eq!(fp.injected(FaultSite::VmTrap), injections.count() as u64);
        Observed {
            exits,
            fuel_left,
            instrs: vm.stats.instrs,
            visits: fp.visits(FaultSite::VmTrap),
            injected: fp.injected(FaultSite::VmTrap),
            clock: clock.now().get(),
            pc_hits: pp.pc_buckets(tag, 1),
            graft_cycles: mp.attribution(mtag).map(|a| a.of(Component::GraftFn)),
            sfi_checks: (mp.get(Counter::SfiClamps), mp.get(Counter::SfiCallchecks)),
        }
    }

    /// Observes `prog` under both drivers, asserts they agree, and
    /// returns the common observation.
    fn both_drivers(prog: &Program, fuels: &[u64], arm: Option<u64>) -> Observed {
        let block = observe(prog, fuels, arm, false);
        let per_instr = observe(prog, fuels, arm, true);
        assert_eq!(block, per_instr, "block driver diverged from the per-instruction driver");
        block
    }

    /// Retirements per pc, indexed by pc.
    fn hits(o: &Observed, len: usize) -> Vec<u64> {
        let mut v = vec![0; len];
        for &(pc, _, _, h) in &o.pc_hits {
            v[pc] = h;
        }
        v
    }

    /// Eight straight-line instructions (one with an SFI clamp) closed
    /// by a backward jump: one nine-instruction run.
    fn straight_loop() -> Program {
        let mut instrs = vec![Instr::Nop; 8];
        instrs[3] = Instr::Clamp { r: Reg(1) };
        instrs.push(Instr::Jmp { target: 0 });
        Program::new("loop", instrs)
    }

    #[test]
    fn run_table_ends_runs_at_control_transfers() {
        let prog = Program::new(
            "t",
            vec![
                Instr::Nop,
                Instr::Clamp { r: Reg(1) },
                Instr::Br { cond: Cond::Eq, a: Reg(0), b: Reg(0), target: 0 },
                Instr::Nop,
                Instr::Call { func: HostFnId(1) },
                Instr::Nop,
            ],
        );
        let d = Decoded::new(&prog);
        let runs: Vec<u32> = d.pcs.iter().map(|p| p.run).collect();
        assert_eq!(runs, [3, 2, 1, 2, 1, 1], "the last run ends at the program end");
        assert_eq!((d.pcs[0].comp, d.pcs[1].comp), (Component::GraftFn, Component::Sfi));
        assert_eq!(d.pcs[1].cost, costs::SFI_CLAMP_CYCLES);
        assert_eq!(d.pcs[4].cost, costs::CALL_CYCLES);
    }

    #[test]
    fn fuel_cut_inside_a_run_matches_per_instruction() {
        let prog = straight_loop();
        let o = both_drivers(&prog, &[3, 5, 4, 11], None);
        assert_eq!(o.exits, vec![Exit::Preempted; 4]);
        assert_eq!(o.instrs, 23);
        assert_eq!(o.visits, 23);
        // 23 = two full nine-instruction laps plus five more.
        assert_eq!(hits(&o, 9), [3, 3, 3, 3, 3, 2, 2, 2, 2]);
        assert_eq!(o.sfi_checks, (3, 0));
    }

    #[test]
    fn memory_trap_inside_a_run_matches_per_instruction() {
        let prog = Program::new(
            "wild-load",
            vec![
                Instr::Const { d: Reg(1), imm: 0x10 },
                Instr::Nop,
                Instr::LoadW { d: Reg(2), addr: Reg(1), off: 0 },
                Instr::Nop,
                Instr::Halt { result: Reg(0) },
            ],
        );
        let o = both_drivers(&prog, &[100], None);
        assert!(matches!(o.exits[0], Exit::Trapped(Trap::Mem(MemError::Unmapped { .. }))));
        assert_eq!((o.instrs, o.visits, o.fuel_left[0]), (3, 3, 97));
        assert_eq!(hits(&o, 5), [1, 1, 1, 0, 0]);
    }

    #[test]
    fn div_by_zero_inside_a_run_matches_per_instruction() {
        let prog = Program::new(
            "div0",
            vec![
                Instr::Const { d: Reg(1), imm: 9 },
                Instr::Alu { op: AluOp::Div, d: Reg(0), a: Reg(1), b: Reg(2) },
                Instr::Nop,
                Instr::Nop,
                Instr::Halt { result: Reg(0) },
            ],
        );
        let o = both_drivers(&prog, &[100], None);
        assert_eq!(o.exits, vec![Exit::Trapped(Trap::DivByZero)]);
        assert_eq!((o.instrs, o.visits), (2, 2));
        assert_eq!(hits(&o, 5), [1, 1, 0, 0, 0]);
        assert_eq!(o.graft_cycles, Some(Cycles(2 * costs::INSTR_CYCLES)));
    }

    #[test]
    fn injected_trap_at_every_offset_of_a_run_matches_per_instruction() {
        let prog = straight_loop();
        // Visits 1..=9 land on the first lap's run, 10..=18 on the
        // second's.
        for nth in 1..=18u64 {
            let o = both_drivers(&prog, &[100], Some(nth));
            let pc = ((nth - 1) % 9) as usize;
            assert_eq!(o.exits, vec![Exit::Trapped(Trap::Injected { pc })], "visit {nth}");
            assert_eq!(o.instrs, nth - 1, "the trapped instruction never retires");
            assert_eq!((o.visits, o.injected), (nth, 1));
            let want: Vec<u64> = (0..9).map(|p| (nth - 1) / 9 + u64::from(p < pc)).collect();
            assert_eq!(hits(&o, 9), want, "visit {nth}");
        }
    }

    #[test]
    fn host_call_arming_vm_trap_mid_window_matches_per_instruction() {
        let prog = Program::new(
            "arming",
            vec![
                Instr::Nop,
                Instr::Call { func: HostFnId(1) },
                Instr::Nop,
                Instr::Nop,
                Instr::Nop,
                Instr::Halt { result: Reg(0) },
            ],
        );
        let o = both_drivers(&prog, &[100], None);
        // The call's own visit is the second; the one-shot lands two
        // visits later, on pc 3.
        assert_eq!(o.exits, vec![Exit::Trapped(Trap::Injected { pc: 3 })]);
        assert_eq!((o.instrs, o.visits, o.injected), (3, 4, 1));
        assert_eq!(hits(&o, 6), [1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn host_calls_see_every_cycle_billed_before_them() {
        use vino_sim::metrics::MetricsPlane;
        use vino_sim::profile::ProfilePlane;
        /// Host fn #1 reads the planes: a host call may open a nested
        /// bracket or read the ledgers, so they must be current.
        struct Reader {
            mp: Rc<MetricsPlane>,
            pp: Rc<ProfilePlane>,
            tag: ProfTag,
            seen: Option<(u64, [u64; Component::COUNT], u64)>,
        }
        impl KernelApi for Reader {
            fn host_call(
                &mut self,
                _id: HostFnId,
                _args: [u64; 4],
                _mem: &mut AddressSpace,
            ) -> Result<u64, Trap> {
                let clamps = self.mp.get(Counter::SfiClamps);
                self.seen =
                    Some((self.pp.instrs_of(self.tag), self.mp.kernel_attribution(), clamps));
                Ok(0)
            }
            fn is_callable(&self, _id: HostFnId) -> bool {
                true
            }
        }
        let (mut vm, clock) = ctx();
        let mp = MetricsPlane::new(Rc::clone(&clock));
        let pp = ProfilePlane::new(Rc::clone(&clock));
        let tag = pp.tag("t");
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        vm.bind(obs, Some(tag));
        let prog = Program::new(
            "t",
            vec![
                Instr::Nop,
                Instr::Clamp { r: Reg(1) },
                Instr::Call { func: HostFnId(1) },
                Instr::Halt { result: Reg(0) },
            ],
        );
        let mut env = Reader { mp, pp, tag, seen: None };
        let mut fuel = 10;
        assert_eq!(vm.run(&prog, &mut env, &clock, &mut fuel), Exit::Halted(0));
        let (instrs, comps, clamps) = env.seen.expect("the host call ran");
        assert_eq!(instrs, 3, "the call itself has retired");
        assert_eq!(comps[Component::GraftFn as usize], costs::INSTR_CYCLES + costs::CALL_CYCLES);
        assert_eq!(comps[Component::Sfi as usize], costs::SFI_CLAMP_CYCLES);
        assert_eq!(clamps, 1);
    }

    #[test]
    fn calll_and_ret_bill_each_function_its_own_cycles() {
        use vino_sim::profile::ProfilePlane;
        let (mut vm, clock) = ctx();
        let pp = ProfilePlane::new(Rc::clone(&clock));
        let tag = pp.tag("t");
        pp.register_program(tag, 7);
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        vm.bind(obs, Some(tag));
        let prog = Program::new(
            "t",
            vec![
                Instr::Nop,
                Instr::CallLocal { target: 4 },
                Instr::Nop,
                Instr::Halt { result: Reg(0) },
                Instr::Nop,
                Instr::Nop,
                Instr::Ret,
            ],
        );
        let mut fuel = 100;
        assert_eq!(vm.run(&prog, &mut NullKernel, &clock, &mut fuel), Exit::Halted(0));
        let folded = pp.folded();
        let caller = 3 * costs::INSTR_CYCLES + costs::CALL_CYCLES;
        let callee = 2 * costs::INSTR_CYCLES + costs::RET_CYCLES;
        assert!(folded.contains(&format!("t;fn@0 {caller}\n")), "{folded}");
        assert!(folded.contains(&format!("t;fn@0;fn@4 {callee}\n")), "{folded}");
    }

    #[test]
    fn run_redecodes_a_different_program() {
        let (mut vm, clock) = ctx();
        let a = Program::new("a", vec![Instr::Nop, Instr::Halt { result: Reg(0) }]);
        let b = Program::new(
            "b",
            vec![Instr::Const { d: Reg(0), imm: 5 }, Instr::Nop, Instr::Halt { result: Reg(0) }],
        );
        vm.predecode(&a);
        let mut fuel = 10;
        assert_eq!(vm.run(&b, &mut NullKernel, &clock, &mut fuel), Exit::Halted(5));
        assert_eq!(vm.decoded.pcs.len(), 3);
    }

    #[test]
    fn shift_amounts_masked() {
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: 1 },
            Instr::AluI { op: AluOp::Shl, d: Reg(0), a: Reg(1), imm: 65 }, // 65 & 63 == 1
            Instr::Halt { result: Reg(0) },
        ]);
        assert_eq!(exit, Exit::Halted(2));
    }

    #[test]
    fn signed_vs_unsigned_branches() {
        // -1 is huge unsigned but less than 0 signed.
        let (exit, _, _) = run_prog(vec![
            Instr::Const { d: Reg(1), imm: -1 },
            Instr::Const { d: Reg(2), imm: 0 },
            Instr::Br { cond: Cond::LtS, a: Reg(1), b: Reg(2), target: 4 },
            Instr::Halt { result: Reg(2) }, // not taken => 0
            Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(2), target: 6 },
            Instr::Halt { result: Reg(1) }, // LtU not taken => -1
            Instr::Halt { result: Reg(2) },
        ]);
        assert_eq!(exit, Exit::Halted(u64::MAX));
    }
}
