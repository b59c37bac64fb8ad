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
//! # Runs and settling
//!
//! [`Vm::load`] takes the program and splits it once, at install, into
//! *runs*: from any pc to the first `jmp`, `call`, `calli`, `calll`,
//! `ret` or `halt` (or the program end). A conditional `br` stays
//! inside its run; taken, it leaves the run early. The VM owns the
//! program it decoded, so a run table never outlives the code it
//! describes. For each pc the table keeps the static cost of everything
//! before it — cycles, the [`Component::Sfi`] share, and the clamp,
//! checkcall, load and store counts — so any stretch of a run costs one
//! subtraction.
//!
//! The interpreter enters one run at a time and *settles* it once, where
//! it leaves the run: a trap, a fuel cut, a taken branch, the run's
//! end, or just before the side effect of a closing `call`, `calli`,
//! `calll` or `ret`. A jump back to the run's entry does not leave it:
//! the run starts another *lap*, and laps that all jump back from the
//! same pc are settled together, as a count. Settling charges the
//! clock, holds the cycles for the metrics and profile planes, and
//! bumps [`RunStats`]:
//!
//! - **Clock.** Nothing inside a run reads the clock, so charging it
//!   where the run is left puts every host call and every later event at
//!   the cycle per-instruction charging would.
//! - **`vm.sfi` records** are stamped with the clock at run entry plus
//!   the static cost of the laps retired so far and of the current lap
//!   up to and including the check, and buffered in the VM. The buffer
//!   goes to the trace plane as one
//!   [`TracePlane::emit_stamped`](vino_sim::trace::TracePlane::emit_stamped)
//!   batch before every host call, at window end, and whenever it fills. Nothing else emits inside a run, so
//!   sequence numbers, causal contexts, ring evictions and per-category
//!   stats match emitting each check as it retires. The trace plane must
//!   stamp from the clock the VM charges, as it does in every kernel.
//! - **Metrics and profile attribution** are flushed from the held
//!   cycles before every host call (`call`/`calli`, which may open a
//!   nested invocation bracket), before the profile call tree moves
//!   (`calll`/`ret`), and at window end. SFI counters are flushed from
//!   the [`RunStats`] deltas at the same points.
//! - **The per-PC profile ledger** is folded at window end from run
//!   entry and cut-short counts (fuel, trap or taken branch, a lap
//!   counting as an entry), using each pc's static cost.
//! - **Sandboxed accesses.** MiSFIT's `mov s, a; clamp s; <load/store>
//!   [s+off]` triple is predecoded into one op and dispatched once
//!   whenever the run's budget (fuel and reserved fault visits) covers
//!   all three instructions.
//! - **Fault visits**: each window reserves the [`FaultSite::VmTrap`]
//!   visits that cannot fire (all of them with no rate set, else those
//!   before the next armed one-shot). A run whose first lap fits the
//!   reserve takes one visit from it per instruction it retires, laps
//!   included, and stops where the reserve ends. The visits taken are
//!   recorded on the fault plane before every host call, which may read
//!   or arm it, and at window end. Any other run goes to the
//!   per-instruction driver, which calls
//!   [`vino_sim::FaultPlane::fire`] before each instruction, exactly as a
//!   per-instruction interpreter would, so the RNG draw order never
//!   changes. That driver also settles and emits each instruction on its
//!   own and runs no fused ops and no laps, which makes it the block
//!   driver's differential oracle.
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

use crate::isa::{AluOp, Cond, HostFnId, Instr, Program, Reg};
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

/// Maximum intra-graft call nesting before trapping.
pub const MAX_CALL_DEPTH: usize = 64;

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

/// True if `instr` ends a run: it always transfers control or calls
/// out of the VM. A conditional branch does not end its run; when
/// taken it leaves the run early, as a trap does.
fn ends_run(instr: Instr) -> bool {
    matches!(
        instr,
        Instr::Jmp { .. }
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
    /// Runs that stopped at this pc short of their end (fuel, trap or
    /// taken branch).
    cuts: u64,
}

/// The static cost of a program prefix: entry `pc` of [`Decoded::cum`]
/// sums instructions `0..pc`, so a stretch `from..to` of a run costs
/// `cum[to] - cum[from]`.
#[derive(Debug, Clone, Copy, Default)]
struct Cum {
    cycles: u64,
    /// The [`Component::Sfi`] share of `cycles`.
    sfi: u64,
    clamps: u32,
    checkcalls: u32,
    loads: u32,
    stores: u32,
}

/// One predecoded instruction for the block driver.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// An instruction executed as written.
    One(Instr),
    /// The head of MiSFIT's sandboxed access `mov s, a; clamp s;
    /// access` (`access` addresses through `s`), dispatched as one op
    /// when the run's budget covers all three instructions and as the
    /// plain `mov` otherwise.
    Sandboxed { s: Reg, a: Reg, access: Instr },
}

/// A program's run table (see [`Vm::load`]).
#[derive(Debug)]
struct Decoded {
    ops: Vec<Op>,
    /// One entry per pc plus one for the program end.
    cum: Vec<Cum>,
    pcs: Vec<PcInfo>,
    /// Pcs `lo..=hi` may hold unfolded tallies (empty when `lo > hi`).
    lo: usize,
    hi: usize,
}

impl Default for Decoded {
    /// The empty program's table, which no run ever indexes.
    fn default() -> Decoded {
        Decoded { ops: Vec::new(), cum: Vec::new(), pcs: Vec::new(), lo: usize::MAX, hi: 0 }
    }
}

impl Decoded {
    fn new(prog: &Program) -> Decoded {
        let instrs = &prog.instrs;
        let mut pcs: Vec<PcInfo> = instrs
            .iter()
            .map(|&i| {
                let (comp, cost) = cost_of(i);
                PcInfo { run: 1, comp, cost, entries: 0, cuts: 0 }
            })
            .collect();
        for pc in (0..pcs.len().saturating_sub(1)).rev() {
            if !ends_run(instrs[pc]) {
                pcs[pc].run = pcs[pc + 1].run + 1;
            }
        }
        let mut acc = Cum::default();
        let mut cum = vec![acc];
        for (&i, info) in instrs.iter().zip(&pcs) {
            acc.cycles += info.cost;
            if info.comp == Component::Sfi {
                acc.sfi += info.cost;
            }
            match i {
                Instr::Clamp { .. } => acc.clamps += 1,
                Instr::CheckCall { .. } => acc.checkcalls += 1,
                Instr::LoadW { .. } | Instr::LoadB { .. } => acc.loads += 1,
                Instr::StoreW { .. } | Instr::StoreB { .. } => acc.stores += 1,
                _ => {}
            }
            cum.push(acc);
        }
        // Mov and clamp never end a run, so a triple lies in one run.
        let ops = (0..instrs.len())
            .map(|pc| match instrs[pc..] {
                [Instr::Mov { d: s, s: a }, Instr::Clamp { r }, access, ..]
                    if r == s && access.mem_addr_reg() == Some(s) =>
                {
                    Op::Sandboxed { s, a, access }
                }
                _ => Op::One(instrs[pc]),
            })
            .collect();
        Decoded { ops, cum, pcs, lo: usize::MAX, hi: 0 }
    }
}

/// `vm.sfi` records the VM buffers before handing them to the trace
/// plane in one batch. The buffer grows to this size on first use and
/// never beyond it, so a graft that checks little allocates little.
const SFI_BATCH: usize = 128;

/// A graft execution context: registers, pc, local call stack and
/// memory, plus the program it runs.
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
    /// The program [`run`](Self::run) executes and its run table, always
    /// decoded together.
    prog: Program,
    decoded: Decoded,
    /// The planes bound at install (inline: this is the per-instruction
    /// path).
    obs: Planes,
    /// This graft's profile tag; `Some` only when `obs` has a profile
    /// plane.
    ptag: Option<ProfTag>,
    /// The first pc of the current run not yet settled.
    settled: usize,
    /// Whole laps of the current run retired but not settled: each ran
    /// from `settled` to `lap_end` and jumped back to `settled`.
    laps: u64,
    lap_end: usize,
    /// [`Component::GraftFn`] cycles charged to the clock but not yet
    /// to the metrics and profile planes.
    pending_fn: u64,
    /// [`Component::Sfi`] cycles likewise.
    pending_sfi: u64,
    /// `stats` as of the last flush to the planes (or the window start).
    flushed: RunStats,
    /// Stamped `vm.sfi` records not yet handed to the trace plane.
    sfi_batch: Vec<(Cycles, TraceEvent)>,
    /// [`FaultSite::VmTrap`] visits that cannot fire, as of `mark`.
    quiet: u64,
    /// `stats.instrs` when the fault plane last recorded this VM's
    /// visits: every instruction the block driver settled since then
    /// took one of the `quiet` visits without asking the plane.
    mark: u64,
}

impl Vm {
    /// Creates a context over `mem` with no program loaded.
    pub fn new(mem: AddressSpace) -> Vm {
        Vm {
            regs: [0; 16],
            pc: 0,
            call_stack: Vec::new(),
            mem,
            stats: RunStats::default(),
            prog: Program::default(),
            decoded: Decoded::default(),
            obs: Planes::default(),
            ptag: None,
            settled: 0,
            laps: 0,
            lap_end: 0,
            pending_fn: 0,
            pending_sfi: 0,
            flushed: RunStats::default(),
            sfi_batch: Vec::new(),
            quiet: 0,
            mark: 0,
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

    /// Loads `prog` for [`run`](Self::run) and builds its run table: per
    /// pc, the length of its run, its static cost, and the
    /// fused form of each MiSFIT sandboxed access. The grafting layer
    /// loads once, at install, so no invocation or window pays for
    /// decoding.
    pub fn load(&mut self, prog: Program) {
        self.decoded = Decoded::new(&prog);
        self.prog = prog;
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Edits the loaded program in place and decodes it again.
    pub fn edit(&mut self, f: impl FnOnce(&mut Program)) {
        f(&mut self.prog);
        self.decoded = Decoded::new(&self.prog);
    }

    /// Settles the current run through pc `to`: bills its unsettled laps
    /// and then `settled..to`.
    #[inline(always)]
    fn settle(&mut self, clock: &VirtualClock, to: usize) {
        let laps = std::mem::take(&mut self.laps);
        if laps > 0 {
            self.bill(clock, self.settled, self.lap_end, laps);
        }
        self.bill(clock, self.settled, to, 1);
        self.settled = to;
        self.lap_end = to;
    }

    /// Bills `times` retirements of pcs `from..to` at their static cost:
    /// charges the clock, holds the cycles for the metrics and profile
    /// planes (which receive them at the next [`flush`](Self::flush)),
    /// and counts them in [`RunStats`].
    #[inline(always)]
    fn bill(&mut self, clock: &VirtualClock, from: usize, to: usize, times: u64) {
        let (was, now) = (self.decoded.cum[from], self.decoded.cum[to]);
        let (cycles, sfi) = (times * (now.cycles - was.cycles), times * (now.sfi - was.sfi));
        clock.charge(Cycles(cycles));
        self.pending_sfi += sfi;
        self.pending_fn += cycles - sfi;
        let s = &mut self.stats;
        s.instrs += times * (to - from) as u64;
        s.clamps += times * u64::from(now.clamps - was.clamps);
        s.checkcalls += times * u64::from(now.checkcalls - was.checkcalls);
        s.loads += times * u64::from(now.loads - was.loads);
        s.stores += times * u64::from(now.stores - was.stores);
    }

    /// Hands everything held to the planes: the batched `vm.sfi`
    /// records to the trace plane, and the held cycles and the SFI
    /// check counts retired since the last flush to the metrics plane
    /// and the profile plane's current call-tree node. Runs wherever
    /// another emitter, the innermost invocation bracket or the call
    /// tree may act next: before host calls, before `calll`/`ret` move
    /// the call tree, and at window end.
    fn flush(&mut self) {
        self.record_visits();
        self.flush_sfi();
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

    /// Reserves the [`FaultSite::VmTrap`] visits that cannot fire (see
    /// [`vino_sim::FaultPlane::quiet_visits`]) for the block driver,
    /// which takes them without asking the fault plane. Every visit
    /// taken is recorded before anything else can read or change the
    /// plane ([`record_visits`](Self::record_visits)).
    fn reserve_quiet_visits(&mut self) {
        self.quiet = self.obs.fault().map_or(u64::MAX, |fp| fp.quiet_visits(FaultSite::VmTrap));
        self.mark = self.stats.instrs;
    }

    /// Records the visits the block driver took since the last record:
    /// one per instruction it settled.
    fn record_visits(&mut self) {
        let n = self.stats.instrs - self.mark;
        if n == 0 {
            return;
        }
        self.quiet -= n;
        self.mark = self.stats.instrs;
        if let Some(fp) = self.obs.fault() {
            let recorded = fp.record_quiet_visits(FaultSite::VmTrap, n);
            debug_assert!(recorded, "reserved visits are quiet");
        }
    }

    /// Hands the batched `vm.sfi` records to the trace plane.
    fn flush_sfi(&mut self) {
        if let Some(tp) = self.obs.trace() {
            if !self.sfi_batch.is_empty() {
                tp.emit_stamped(&self.sfi_batch);
                self.sfi_batch.clear();
            }
        }
    }

    /// Records a `vm.sfi` event for the check at `pc`. It goes straight
    /// to the trace plane: `vm.sfi` derives no counter (the SFI counters
    /// are billed per run, in [`flush`](Self::flush)). The
    /// per-instruction driver emits it now, with the check already
    /// charged; the block driver stamps it with the run's static cost
    /// through `pc` and batches it.
    #[inline(always)]
    fn trace_sfi<const CHECKED: bool>(&mut self, kind: SfiKind, pc: usize, clock: &VirtualClock) {
        let Some(tp) = self.obs.trace() else { return };
        let event = TraceEvent::SfiCheck { kind, pc: pc as u64 };
        if CHECKED {
            tp.emit(event);
            return;
        }
        let cum = &self.decoded.cum;
        let lap = cum[self.lap_end].cycles - cum[self.settled].cycles;
        let at =
            clock.now().get() + self.laps * lap + cum[pc + 1].cycles - cum[self.settled].cycles;
        let at = Cycles(at);
        if self.sfi_batch.len() == SFI_BATCH {
            tp.emit_stamped(&self.sfi_batch);
            self.sfi_batch.clear();
        }
        self.sfi_batch.push((at, event));
    }

    /// Records, for the per-PC fold, that the run at `start` was entered
    /// `laps` times that each left it by a jump back to `start` from just
    /// before `lap_end`, and then once more for `last` instructions.
    fn note_run(&mut self, start: usize, laps: u64, lap_end: usize, last: usize) {
        if self.ptag.is_none() {
            return;
        }
        let d = &mut self.decoded;
        let run = d.pcs[start].run as usize;
        d.pcs[start].entries += laps + u64::from(last > 0);
        if laps > 0 && lap_end - start < run {
            d.pcs[lap_end - 1].cuts += laps;
        }
        if last > 0 && last < run {
            d.pcs[start + last - 1].cuts += 1;
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

    /// Runs the loaded program until halt, trap, or fuel exhaustion.
    ///
    /// `fuel` is decremented once per retired instruction; when it hits
    /// zero the run returns [`Exit::Preempted`] and may be resumed by
    /// calling `run` again with fresh fuel. Every cycle is charged to
    /// `clock` by the time `run` returns or calls into `env`.
    pub fn run(
        &mut self,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        debug_assert!(
            self.obs.trace().is_none_or(|tp| Rc::ptr_eq(tp.clock(), clock)),
            "the trace plane must stamp from the clock the VM charges"
        );
        let window_start = self.stats.instrs;
        self.flushed = self.stats;
        let exit = self.run_window(env, clock, fuel);
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
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
        fuel: &mut u64,
    ) -> Exit {
        self.reserve_quiet_visits();
        let mut left = *fuel;
        let exit = loop {
            if left == 0 {
                break Exit::Preempted;
            }
            let start = self.pc;
            let Some(info) = self.decoded.pcs.get(start) else {
                break Exit::Trapped(Trap::PcOutOfRange { pc: start });
            };
            // At least one instruction: fuel > 0 and every run is non-empty.
            let n = (info.run as u64).min(left);
            let quiet = self.quiet - (self.stats.instrs - self.mark);
            let before = self.stats.instrs;
            let exit = if n <= quiet {
                self.drive::<false>(left.min(quiet), env, clock)
            } else {
                self.record_visits();
                let exit = self.drive::<true>(n, env, clock);
                self.reserve_quiet_visits();
                exit
            };
            left -= self.stats.instrs - before;
            if let Some(exit) = exit {
                break exit;
            }
        };
        *fuel = left;
        exit
    }

    /// Executes the run at `self.pc`, retiring at most `budget`
    /// instructions, settles them, and returns the exit if the run ended
    /// the window.
    ///
    /// The block driver (`CHECKED = false`) runs on reserved
    /// [`FaultSite::VmTrap`] visits and dispatches each sandboxed access
    /// the budget covers as one op. A jump back to the run's entry
    /// starts another *lap* of the run in the same call, as long as
    /// every lap leaves from the same pc and the budget lasts; laps are
    /// settled together when the run is left. The per-instruction
    /// driver (`CHECKED = true`) asks [`FaultPlane::fire`] before each
    /// instruction and settles it before executing it.
    ///
    /// [`FaultPlane::fire`]: vino_sim::FaultPlane::fire
    #[inline(always)]
    fn drive<const CHECKED: bool>(
        &mut self,
        budget: u64,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
    ) -> Option<Exit> {
        let start = self.pc;
        let run = self.decoded.pcs[start].run as usize;
        let mut end = start + run.min(budget as usize);
        (self.settled, self.lap_end) = (start, start);
        let (mut laps, mut lap_end) = (0u64, start);
        if CHECKED {
            // Records batched by an earlier block-driven run go first.
            self.flush_sfi();
        }
        let mut pc = start;
        let exit = loop {
            if pc == end {
                break None;
            }
            if CHECKED {
                if self.obs.fire(FaultSite::VmTrap) {
                    break Some(Exit::Trapped(Trap::Injected { pc }));
                }
                self.settle(clock, pc + 1);
                // `fire` recorded this visit.
                self.mark = self.stats.instrs;
            }
            let op = if CHECKED { Op::One(self.prog.instrs[pc]) } else { self.decoded.ops[pc] };
            let (next, flow) = match op {
                Op::Sandboxed { s, a, access } if end - pc >= 3 => {
                    self.pc = pc + 3;
                    self.regs[s.idx()] = self.mem.clamp(self.regs[a.idx()]);
                    self.trace_sfi::<CHECKED>(SfiKind::Clamp, pc + 1, clock);
                    (pc + 3, self.step::<CHECKED>(access, env, clock))
                }
                Op::Sandboxed { s, a, .. } => {
                    self.pc = pc + 1;
                    (pc + 1, self.step::<CHECKED>(Instr::Mov { d: s, s: a }, env, clock))
                }
                Op::One(instr) => {
                    self.pc = pc + 1;
                    (pc + 1, self.step::<CHECKED>(instr, env, clock))
                }
            };
            pc = next;
            match flow {
                Ok(Flow::Continue) => {}
                Ok(Flow::Jump) => {
                    let done = (laps + 1) * (next - start) as u64;
                    let lap = self.pc == start && (laps == 0 || next == lap_end);
                    if !CHECKED && lap && done < budget {
                        (laps, lap_end) = (laps + 1, next);
                        (self.laps, self.lap_end) = (laps, lap_end);
                        end = start + run.min((budget - done) as usize);
                        pc = start;
                        continue;
                    }
                    break None;
                }
                Ok(Flow::Halt(v)) => break Some(Exit::Halted(v)),
                Err(t) => break Some(Exit::Trapped(t)),
            }
        };
        // The run is left before `pc`, in its last lap.
        self.settle(clock, pc);
        self.note_run(start, laps, lap_end, pc - start);
        exit
    }

    /// Executes one instruction; `self.pc` already points past it. Only
    /// instructions with a side effect outside the VM settle the run
    /// first.
    #[inline(always)]
    fn step<const CHECKED: bool>(
        &mut self,
        instr: Instr,
        env: &mut dyn KernelApi,
        clock: &Rc<VirtualClock>,
    ) -> Result<Flow, Trap> {
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
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.regs[d.idx()] = self.mem.read(a, 4).map_err(Trap::Mem)?;
            }
            Instr::StoreW { s, addr, off } => {
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.mem.write(a, self.regs[s.idx()], 4).map_err(Trap::Mem)?;
            }
            Instr::LoadB { d, addr, off } => {
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.regs[d.idx()] = self.mem.read(a, 1).map_err(Trap::Mem)?;
            }
            Instr::StoreB { s, addr, off } => {
                let a = self.regs[addr.idx()].wrapping_add(off as i64 as u64);
                self.mem.write(a, self.regs[s.idx()], 1).map_err(Trap::Mem)?;
            }
            Instr::Jmp { target } => {
                self.pc = target as usize;
                return Ok(Flow::Jump);
            }
            Instr::Br { cond, a, b, target } => {
                if eval_cond(cond, self.regs[a.idx()], self.regs[b.idx()]) {
                    self.pc = target as usize;
                    return Ok(Flow::Jump);
                }
            }
            Instr::Call { .. } | Instr::CallI { .. } | Instr::CallLocal { .. } | Instr::Ret => {
                self.call_or_ret(instr, env, clock)?;
            }
            Instr::Halt { result } => {
                return Ok(Flow::Halt(self.regs[result.idx()]));
            }
            Instr::Clamp { r } => {
                self.trace_sfi::<CHECKED>(SfiKind::Clamp, self.pc - 1, clock);
                self.regs[r.idx()] = self.mem.clamp(self.regs[r.idx()]);
            }
            Instr::CheckCall { r } => {
                self.trace_sfi::<CHECKED>(SfiKind::CheckCall, self.pc - 1, clock);
                let id = HostFnId(self.regs[r.idx()] as u32);
                if !env.is_callable(id) {
                    return Err(Trap::ForbiddenCall { id });
                }
            }
            Instr::Nop => {}
        }
        Ok(Flow::Continue)
    }

    /// Executes a run's closing `call`, `calli`, `calll` or `ret`, whose
    /// side effects leave the VM: the run is settled and the planes are
    /// flushed first. Kept out of line so the per-instruction dispatch
    /// stays small.
    #[inline(never)]
    fn call_or_ret(
        &mut self,
        instr: Instr,
        env: &mut dyn KernelApi,
        clock: &VirtualClock,
    ) -> Result<(), Trap> {
        match instr {
            Instr::Call { func } => self.host_call(func, env, clock)?,
            Instr::CallI { target } => {
                let id = HostFnId(self.regs[target.idx()] as u32);
                if !env.is_callable(id) {
                    // Un-instrumented code jumping through a wild pointer;
                    // MiSFIT-processed code traps earlier, in CheckCall.
                    return Err(Trap::WildJump { id });
                }
                self.host_call(id, env, clock)?;
            }
            Instr::CallLocal { target } => {
                if self.call_stack.len() >= MAX_CALL_DEPTH {
                    return Err(Trap::CallDepthExceeded);
                }
                self.settle(clock, self.pc);
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
                self.settle(clock, self.pc);
                self.pc = self.call_stack.pop().ok_or(Trap::RetWithoutCall)?;
                if self.ptag.is_some() {
                    self.flush();
                }
                if let (Some(pp), Some(tag)) = (self.obs.profile(), self.ptag) {
                    pp.exit_fn(tag);
                }
            }
            _ => unreachable!("only calls and returns leave the VM"),
        }
        Ok(())
    }

    /// Calls kernel function `id` with `r1..=r4` into `r0`. The kernel
    /// sees every retired cycle, `vm.sfi` record and fault visit
    /// first, and may arm the fault plane or run another graft's VM on
    /// it, so the quiet visits are reserved afresh after it returns.
    fn host_call(
        &mut self,
        id: HostFnId,
        env: &mut dyn KernelApi,
        clock: &VirtualClock,
    ) -> Result<(), Trap> {
        self.stats.host_calls += 1;
        let args = [self.regs[1], self.regs[2], self.regs[3], self.regs[4]];
        self.settle(clock, self.pc);
        self.flush();
        let ret = env.host_call(id, args, &mut self.mem);
        self.reserve_quiet_visits();
        self.regs[0] = ret?;
        Ok(())
    }
}

enum Flow {
    /// On to the next instruction.
    Continue,
    /// Control moved to `self.pc`, out of the run.
    Jump,
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
        vm.load(prog);
        let mut fuel = 1_000_000;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 100;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 100;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        assert_eq!(fuel, 0);
        let mut fuel = 50;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Preempted);
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
        vm.load(prog);
        let mut fuel = 100;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 100;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 100;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 100;
        assert_eq!(vm.run(&mut Adder, &clock, &mut fuel), Exit::Halted(10));
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
        vm.load(prog);
        let mut fuel = 100;
        vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 100;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 3;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        let mut fuel = 100;
        let exit = vm.run(&mut NullKernel, &clock, &mut fuel);
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
        vm.load(prog);
        let mut fuel = 2;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Preempted);
        let mut fuel = 100;
        assert!(matches!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Halted(_)));
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
    /// past the current one and emits a trace event, which must land
    /// after every `vm.sfi` record retired before the call; every other
    /// id is unknown.
    struct ArmingKernel {
        plane: Rc<vino_sim::fault::FaultPlane>,
        trace: Rc<vino_sim::trace::TracePlane>,
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
            self.trace.emit(TraceEvent::FsPrefetch { fd: now });
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
        trace: String,
        dropped: u64,
    }

    /// One differential scenario: a program, one window per entry of
    /// `fuels`, an optional one-shot at visit `arm`, and the trace
    /// ring's capacity.
    #[derive(Clone, Copy)]
    struct Scenario<'a> {
        prog: &'a Program,
        fuels: &'a [u64],
        arm: Option<u64>,
        ring: usize,
    }

    impl<'a> Scenario<'a> {
        fn new(prog: &'a Program, fuels: &'a [u64]) -> Scenario<'a> {
            Scenario { prog, fuels, arm: None, ring: 1 << 12 }
        }
    }

    /// Runs a scenario with fault, trace, metrics and profile planes
    /// attached. `per_instr` sets a `VmTrap` rate that never fires,
    /// which forces the per-instruction driver.
    fn observe(sc: Scenario<'_>, per_instr: bool) -> Observed {
        use vino_sim::fault::{FaultPlane, FaultSite};
        use vino_sim::metrics::MetricsPlane;
        use vino_sim::profile::ProfilePlane;
        use vino_sim::trace::TracePlane;
        let (mut vm, clock) = ctx();
        let fp = FaultPlane::seeded(7);
        if per_instr {
            fp.set_rate(FaultSite::VmTrap, 1, u64::MAX);
        }
        if let Some(nth) = sc.arm {
            fp.arm(FaultSite::VmTrap, nth);
        }
        let tp = TracePlane::with_capacity(Rc::clone(&clock), sc.ring);
        let mp = MetricsPlane::new(Rc::clone(&clock));
        let pp = ProfilePlane::new(Rc::clone(&clock));
        let tag = pp.tag("t");
        pp.register_program(tag, sc.prog.instrs.len());
        let mtag = mp.tag("t");
        mp.begin_invocation(mtag);
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_fault(Rc::clone(&fp)).unwrap();
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        vm.bind(obs, Some(tag));
        vm.load(sc.prog.clone());
        let mut env = ArmingKernel { plane: Rc::clone(&fp), trace: Rc::clone(&tp), ahead: 2 };
        let (mut exits, mut fuel_left) = (Vec::new(), Vec::new());
        for &f in sc.fuels {
            let mut fuel = f;
            exits.push(vm.run(&mut env, &clock, &mut fuel));
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
            trace: tp.serialize(),
            dropped: tp.stats().dropped,
        }
    }

    /// Observes a scenario under both drivers, asserts they agree, and
    /// returns the common observation.
    fn both(sc: Scenario<'_>) -> Observed {
        let block = observe(sc, false);
        let per_instr = observe(sc, true);
        assert_eq!(block, per_instr, "block driver diverged from the per-instruction driver");
        block
    }

    /// [`both`] with the default ring and an optional one-shot.
    fn both_drivers(prog: &Program, fuels: &[u64], arm: Option<u64>) -> Observed {
        both(Scenario { arm, ..Scenario::new(prog, fuels) })
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
    fn run_table_ends_runs_at_unconditional_transfers() {
        let prog = Program::new(
            "t",
            vec![
                Instr::Nop,
                Instr::Clamp { r: Reg(1) },
                Instr::Br { cond: Cond::Eq, a: Reg(0), b: Reg(0), target: 0 },
                Instr::Nop,
                Instr::Call { func: HostFnId(1) },
                Instr::Nop,
                Instr::Jmp { target: 0 },
                Instr::Nop,
            ],
        );
        let d = Decoded::new(&prog);
        let runs: Vec<u32> = d.pcs.iter().map(|p| p.run).collect();
        // A conditional branch stays inside its run; the last run ends
        // at the program end.
        assert_eq!(runs, [5, 4, 3, 2, 1, 2, 1, 1]);
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
    fn taken_branch_inside_a_run_matches_per_instruction() {
        // One run from pc 0 to the halt; the back edge at pc 4 is taken
        // four times and leaves the run there each time.
        let prog = Program::new(
            "count",
            vec![
                Instr::Const { d: Reg(1), imm: 0 },
                Instr::Const { d: Reg(3), imm: 5 },
                Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 1 },
                Instr::Clamp { r: Reg(2) },
                Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(3), target: 2 },
                Instr::Clamp { r: Reg(2) },
                Instr::Nop,
                Instr::Halt { result: Reg(1) },
            ],
        );
        let o = both_drivers(&prog, &[100], None);
        assert_eq!(o.exits, vec![Exit::Halted(5)]);
        assert_eq!(hits(&o, 8), [1, 1, 5, 5, 5, 1, 1, 1]);
        for cut in 1..=20 {
            let o = both_drivers(&prog, &[cut, 3, 100], None);
            assert!(o.exits.contains(&Exit::Halted(5)), "cut {cut}: {:?}", o.exits);
        }
        for nth in 1..=20 {
            let o = both_drivers(&prog, &[100], Some(nth));
            assert_eq!(o.instrs, nth - 1, "visit {nth}");
        }
    }

    #[test]
    fn host_call_after_laps_of_a_run_matches_per_instruction() {
        // Entered at pc 2, the run laps through the back edge at pc 4
        // three times, then falls through to the call: the call settles
        // the laps, and its kernel emits after every lapped clamp's
        // record and arms a one-shot two visits on, on the halt.
        let prog = Program::new(
            "lapped-call",
            vec![
                Instr::Const { d: Reg(3), imm: 4 },
                Instr::Const { d: Reg(1), imm: 0 },
                Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 1 },
                Instr::Clamp { r: Reg(2) },
                Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(3), target: 2 },
                Instr::Call { func: HostFnId(1) },
                Instr::Nop,
                Instr::Halt { result: Reg(1) },
            ],
        );
        let o = both_drivers(&prog, &[100], None);
        assert_eq!(o.exits, vec![Exit::Trapped(Trap::Injected { pc: 7 })]);
        assert_eq!(hits(&o, 8), [1, 1, 4, 4, 4, 1, 1, 0]);
        let lines: Vec<&str> = o.trace.lines().collect();
        assert_eq!(lines.len(), 6, "{}", o.trace);
        assert!(lines[..4].iter().all(|l| l.contains("vm.sfi")), "{}", o.trace);
        assert!(lines[4].contains("fs.prefetch"), "{}", o.trace);
        for cut in 1..=16 {
            let o = both_drivers(&prog, &[cut, 2, 100], None);
            assert!(o.exits.iter().any(|e| *e != Exit::Preempted), "cut {cut}: {:?}", o.exits);
        }
    }

    #[test]
    fn laps_through_two_back_edges_match_per_instruction() {
        // Odd counts jump back from pc 4, even ones from pc 6: laps of
        // two lengths alternate, so no two consecutive laps match.
        let prog = Program::new(
            "two-edges",
            vec![
                Instr::Const { d: Reg(3), imm: 9 },
                Instr::Const { d: Reg(1), imm: 0 },
                Instr::AluI { op: AluOp::Add, d: Reg(1), a: Reg(1), imm: 1 },
                Instr::AluI { op: AluOp::And, d: Reg(4), a: Reg(1), imm: 1 },
                Instr::Br { cond: Cond::Ne, a: Reg(4), b: Reg(0), target: 2 },
                Instr::Clamp { r: Reg(2) },
                Instr::Br { cond: Cond::LtU, a: Reg(1), b: Reg(3), target: 2 },
                Instr::Halt { result: Reg(1) },
            ],
        );
        let o = both_drivers(&prog, &[100], None);
        assert_eq!(o.exits, vec![Exit::Halted(10)]);
        assert_eq!(hits(&o, 8), [1, 1, 10, 10, 10, 5, 5, 1]);
        for cut in 1..=30 {
            both_drivers(&prog, &[cut, 7, 100], None);
        }
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
        vm.load(prog);
        let mut env = Reader { mp, pp, tag, seen: None };
        let mut fuel = 10;
        assert_eq!(vm.run(&mut env, &clock, &mut fuel), Exit::Halted(0));
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
        vm.load(prog);
        let mut fuel = 100;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Halted(0));
        let folded = pp.folded();
        let caller = 3 * costs::INSTR_CYCLES + costs::CALL_CYCLES;
        let callee = 2 * costs::INSTR_CYCLES + costs::RET_CYCLES;
        assert!(folded.contains(&format!("t;fn@0 {caller}\n")), "{folded}");
        assert!(folded.contains(&format!("t;fn@0;fn@4 {callee}\n")), "{folded}");
    }

    /// A MiSFIT-shaped loop: two sandboxed accesses per lap, one run of
    /// seven instructions (pcs 1..=7).
    fn sandboxed_loop() -> Program {
        let base = crate::mem::DEFAULT_SEG_BASE as i64;
        let sbx = Reg(14);
        Program::new(
            "sbx",
            vec![
                Instr::Const { d: Reg(1), imm: base + 64 },
                Instr::Mov { d: sbx, s: Reg(1) },
                Instr::Clamp { r: sbx },
                Instr::LoadW { d: Reg(2), addr: sbx, off: 0 },
                Instr::Mov { d: sbx, s: Reg(1) },
                Instr::Clamp { r: sbx },
                Instr::StoreW { s: Reg(2), addr: sbx, off: 4 },
                Instr::Jmp { target: 1 },
            ],
        )
    }

    #[test]
    fn sandboxed_triples_are_fused_inside_one_run() {
        let d = Decoded::new(&sandboxed_loop());
        let fused: Vec<usize> =
            (0..d.ops.len()).filter(|&pc| matches!(d.ops[pc], Op::Sandboxed { .. })).collect();
        assert_eq!(fused, [1, 4]);
        assert_eq!(d.pcs[1].run, 7);
        let run = d.cum[8].cycles - d.cum[1].cycles;
        let clamps = 2 * costs::SFI_CLAMP_CYCLES;
        let access = costs::LOAD_CYCLES + costs::STORE_CYCLES;
        assert_eq!(run, 2 * costs::INSTR_CYCLES + clamps + access + costs::BRANCH_CYCLES);
        assert_eq!(d.cum[8].sfi - d.cum[1].sfi, clamps);
    }

    #[test]
    fn fuel_cut_at_every_offset_of_a_sandboxed_triple_matches_per_instruction() {
        let prog = sandboxed_loop();
        // The const, then the first window ends `cut` instructions into
        // the seven-instruction run: cuts 1 and 2 (and 4, 5) land
        // inside a triple, so the block driver must fall back to
        // single steps there and resume mid-triple in the next window.
        for cut in 0..=8u64 {
            let fuels = [1 + cut, 3, 1, 2, 100];
            let o = both_drivers(&prog, &fuels, None);
            assert_eq!(o.exits, vec![Exit::Preempted; 5], "cut {cut}");
            assert_eq!(o.instrs, 107 + cut);
            assert_eq!(o.trace.matches("vm.sfi").count() as u64, o.sfi_checks.0, "cut {cut}");
        }
    }

    #[test]
    fn one_shot_armed_inside_a_sandboxed_triple_matches_per_instruction() {
        let prog = sandboxed_loop();
        // Visits 2..=8 walk the first lap's run, 9..=15 the second's.
        for nth in 1..=15u64 {
            let o = both_drivers(&prog, &[100], Some(nth));
            let pc = if nth == 1 { 0 } else { 1 + ((nth - 2) % 7) as usize };
            assert_eq!(o.exits, vec![Exit::Trapped(Trap::Injected { pc })], "visit {nth}");
            assert_eq!((o.instrs, o.injected), (nth - 1, 1));
        }
    }

    #[test]
    fn host_call_arming_after_a_batch_of_sfi_records_matches_per_instruction() {
        let mut instrs = sandboxed_loop().instrs[..7].to_vec();
        instrs.extend_from_slice(&instrs.clone()[1..]);
        // Thirteen instructions and four clamps into the run, host fn
        // #1 emits its own event and arms a one-shot two visits on: the
        // clamp at pc 15, whose check never retires.
        instrs.push(Instr::Call { func: HostFnId(1) });
        instrs.extend_from_slice(&[Instr::Nop, Instr::Clamp { r: Reg(3) }, Instr::Nop]);
        instrs.push(Instr::Halt { result: Reg(0) });
        let prog = Program::new("arm-after-sfi", instrs);
        let o = both_drivers(&prog, &[100], None);
        assert_eq!(o.exits, vec![Exit::Trapped(Trap::Injected { pc: 15 })]);
        let lines: Vec<&str> = o.trace.lines().collect();
        assert_eq!(lines.len(), 6, "{}", o.trace);
        assert!(lines[..4].iter().all(|l| l.contains("vm.sfi")), "{}", o.trace);
        assert!(lines[4].contains("fs.prefetch") && lines[5].contains("vm.window"), "{}", o.trace);
    }

    #[test]
    fn small_ring_wrapping_mid_batch_matches_per_instruction() {
        let prog = sandboxed_loop();
        // 700 instructions make 200 checks: one full batch, ring
        // evictions inside every batch, and short windows.
        for ring in [3, 7, 50] {
            let o = both(Scenario { ring, ..Scenario::new(&prog, &[701, 5, 9]) });
            assert_eq!(o.sfi_checks.0, 204);
            assert_eq!(o.dropped, 204 + 3 - ring as u64, "ring {ring}");
            assert_eq!(o.trace.lines().count(), ring);
        }
    }

    #[test]
    fn editing_the_program_in_place_redecodes_it() {
        use vino_sim::profile::ProfilePlane;
        let (mut vm, clock) = ctx();
        let pp = ProfilePlane::new(Rc::clone(&clock));
        let tag = pp.tag("t");
        pp.register_program(tag, 5);
        let obs = Planes::new(Rc::clone(&clock));
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        vm.bind(obs, Some(tag));
        let base = vm.mem.seg_base() as i64;
        let sbx = Reg(14);
        vm.load(Program::new(
            "t",
            vec![
                Instr::Const { d: Reg(1), imm: base },
                Instr::Mov { d: sbx, s: Reg(1) },
                Instr::Clamp { r: sbx },
                Instr::StoreW { s: Reg(1), addr: sbx, off: 0 },
                Instr::Halt { result: Reg(1) },
            ],
        ));
        let mut fuel = 100;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Halted(base as u64));
        let buf = vm.program().instrs.as_ptr();
        // Same buffer, same length: unfuse the triple and change costs.
        vm.edit(|p| {
            p.instrs[0] = Instr::Const { d: Reg(1), imm: base + 8 };
            p.instrs[2] = Instr::Nop;
            p.instrs[3] = Instr::LoadW { d: Reg(0), addr: sbx, off: -8 };
            p.instrs[4] = Instr::Halt { result: Reg(0) };
        });
        assert_eq!(vm.program().instrs.as_ptr(), buf, "edited in place");
        vm.reset();
        let before = clock.now().get();
        let mut fuel = 100;
        assert_eq!(vm.run(&mut NullKernel, &clock, &mut fuel), Exit::Halted(base as u64));
        assert_eq!(clock.now().get() - before, 4 * costs::INSTR_CYCLES + costs::LOAD_CYCLES);
        assert_eq!((vm.stats.clamps, vm.stats.loads, vm.stats.stores), (0, 1, 0));
        let hits: Vec<(usize, u64, u64, u64)> = pp.pc_buckets(tag, 1);
        let sfi_at_pc2 = costs::SFI_CLAMP_CYCLES;
        assert_eq!(hits[2], (2, sfi_at_pc2 + costs::INSTR_CYCLES, sfi_at_pc2, 2));
        assert_eq!(hits.iter().map(|h| h.3).collect::<Vec<_>>(), [2; 5]);
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
