//! The graft execution engine: the wrapper of §3.1.
//!
//! "When a function is grafted into the kernel a small wrapper function
//! is interposed; the wrapper begins a transaction for the graft
//! invocation and then calls the grafted function. When the grafted
//! function returns, the wrapper commits the transaction." On any trap,
//! CPU-hogging time-out, or resource-limit violation the wrapper aborts
//! instead, the undo stack runs, locks are released, and "the graft is
//! forcibly removed from the kernel, so that new invocations of the call
//! use normal kernel code and not the misbehaving graft code" (§3.6).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use vino_misfit::CallableTable;
use vino_rm::{PrincipalId, ResourceAccountant, ResourceKind};
use vino_sim::metrics::MetricTag;
use vino_sim::obs::{Obs, Planes};
use vino_sim::profile::ProfTag;
use vino_sim::trace::{AbortKind, CauseCtx, GraftTag, TraceEvent};
use vino_sim::{costs, Cycles, ThreadId, VirtualClock};
use vino_txn::locks::{LockClass, LockId};
use vino_txn::manager::{AbortReason, AbortReport, TxnId, TxnManager};
use vino_vm::interp::{Exit, KernelApi, Trap, Vm};
use vino_vm::isa::{HostFnId, Program};
use vino_vm::mem::AddressSpace;

use crate::hostfn;
use crate::reliability::{self, ReliabilityManager};

/// Host-error codes surfaced to grafts (and to abort diagnostics).
pub mod errcode {
    /// Kernel-heap allocation denied: resource limit exceeded (§3.2).
    pub const NOMEM: u64 = 1;
    /// A lock could not be acquired within its time-out budget.
    pub const LOCK_TIMEOUT: u64 = 2;
    /// Kernel-state slot out of range.
    pub const BAD_SLOT: u64 = 3;
    /// Unknown lock handle.
    pub const BAD_LOCK: u64 = 4;
    /// Unknown subgraft handle in `call_graft`.
    pub const BAD_GRAFT: u64 = 5;
    /// A graft tried to invoke itself (directly or in a cycle).
    pub const GRAFT_RECURSION: u64 = 6;
    /// Graft-to-graft nesting exceeded the kernel's depth bound.
    pub const NEST_TOO_DEEP: u64 = 7;
}

/// Sentinel returned by `call_graft` when the callee aborted: "any
/// graft can abort without aborting its calling graft" (§3.1) — the
/// caller observes the failure as a value and decides what to do.
pub const CALLEE_ABORTED: u64 = u64::MAX;

/// Maximum graft-to-graft nesting depth.
pub const MAX_NEST_DEPTH: u32 = 8;

/// Number of kernel-state slots grafts may access through the
/// `kv_set`/`kv_get` accessor pair.
pub const KV_SLOTS: usize = 64;

/// Shared state every graft invocation needs: the clock, the transaction
/// manager, the resource accountant, the kernel-state store the accessor
/// functions guard, the graft-callable table and the lock-handle table.
pub struct GraftEngine {
    /// The virtual clock costs are charged to.
    pub clock: Rc<VirtualClock>,
    /// The transaction manager (§3.1).
    pub txn: Rc<RefCell<TxnManager>>,
    /// The resource accountant (§3.2).
    pub rm: Rc<RefCell<ResourceAccountant>>,
    /// The reliability manager: failure ledgers and quarantine (every
    /// abort is recorded here automatically by the wrapper).
    pub reliability: Rc<RefCell<ReliabilityManager>>,
    /// Kernel state reachable only through accessor functions.
    kv: Rc<RefCell<[u64; KV_SLOTS]>>,
    /// The graft-callable function table (§3.3).
    pub callable: Rc<CallableTable>,
    /// Lock handles exposed to grafts: handle index → lock id.
    lock_handles: Rc<RefCell<Vec<LockId>>>,
    /// Subgrafts invocable through `call_graft` (nested transactions).
    subgrafts: RefCell<Vec<Rc<RefCell<GraftInstance>>>>,
    /// Current graft-to-graft nesting depth.
    nest_depth: std::cell::Cell<u32>,
    /// The observation handle, shared with the transaction manager, the
    /// accountant and the reliability manager. The wrapper reads it live
    /// for causal spans, the flight recorder and the watch plane; each
    /// graft instance binds a snapshot for its VM and lifecycle events.
    pub obs: Obs,
}

impl GraftEngine {
    /// Creates an engine with fresh subsystems on `clock`, no planes.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<GraftEngine> {
        GraftEngine::with_obs(Obs::new(clock))
    }

    /// Creates an engine with fresh subsystems observed through `obs`
    /// and charging its clock.
    pub fn with_obs(obs: Obs) -> Rc<GraftEngine> {
        Rc::new(GraftEngine {
            clock: Rc::clone(obs.clock()),
            txn: Rc::new(RefCell::new(TxnManager::with_obs(obs.clone()))),
            rm: Rc::new(RefCell::new(ResourceAccountant::with_obs(obs.clone()))),
            reliability: Rc::new(RefCell::new(ReliabilityManager::with_obs(obs.clone()))),
            kv: Rc::new(RefCell::new([0; KV_SLOTS])),
            callable: Rc::new(hostfn::build_callable_table()),
            lock_handles: Rc::new(RefCell::new(Vec::new())),
            subgrafts: RefCell::new(Vec::new()),
            nest_depth: std::cell::Cell::new(0),
            obs,
        })
    }

    /// Registers a lockable kernel object and exposes it to grafts as a
    /// small-integer handle (grafts never see raw lock ids).
    pub fn register_lock(&self, class: LockClass) -> (u64, LockId) {
        let id = self.txn.borrow_mut().create_lock(class);
        let mut handles = self.lock_handles.borrow_mut();
        handles.push(id);
        ((handles.len() - 1) as u64, id)
    }

    /// Reads a kernel-state slot (host-side, no checks).
    pub fn kv_read(&self, slot: usize) -> u64 {
        self.kv.borrow()[slot]
    }

    /// Writes a kernel-state slot (host-side, no undo — kernel code).
    pub fn kv_write(&self, slot: usize, v: u64) {
        self.kv.borrow_mut()[slot] = v;
    }

    fn lock_for_handle(&self, handle: u64) -> Option<LockId> {
        self.lock_handles.borrow().get(handle as usize).copied()
    }

    /// Registers an installed graft as a subgraft other grafts may
    /// invoke through the `call_graft` kernel function, returning its
    /// handle. The callee runs nested inside the caller's transaction
    /// stack (§3.1).
    pub fn register_subgraft(&self, graft: Rc<RefCell<GraftInstance>>) -> u64 {
        let mut subs = self.subgrafts.borrow_mut();
        subs.push(graft);
        (subs.len() - 1) as u64
    }

    fn subgraft(&self, handle: u64) -> Option<Rc<RefCell<GraftInstance>>> {
        self.subgrafts.borrow().get(handle as usize).cloned()
    }

    /// Fetches a registered subgraft by handle (inspection/testing).
    pub fn subgraft_handle_for_tests(&self, handle: u64) -> Option<Rc<RefCell<GraftInstance>>> {
        self.subgraft(handle)
    }
}

impl fmt::Debug for GraftEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraftEngine").finish_non_exhaustive()
    }
}

/// The per-invocation kernel interface handed to the interpreter.
///
/// Collects the graft's side-band outputs (submitted read-ahead extents,
/// trace log) so adapters can consume them after the run.
pub struct KernelHost {
    engine: Rc<GraftEngine>,
    thread: ThreadId,
    principal: PrincipalId,
    /// Extents submitted through `ra_submit`.
    pub extents: Vec<(u64, u64)>,
    /// Values logged through `log`.
    pub log: Vec<u64>,
}

impl KernelHost {
    /// Creates a host context for one invocation.
    pub fn new(engine: Rc<GraftEngine>, thread: ThreadId, principal: PrincipalId) -> KernelHost {
        KernelHost { engine, thread, principal, extents: Vec::new(), log: Vec::new() }
    }
}

impl KernelApi for KernelHost {
    fn host_call(
        &mut self,
        id: HostFnId,
        args: [u64; 4],
        mem: &mut AddressSpace,
    ) -> Result<u64, Trap> {
        match id {
            hostfn::LOCK => {
                let lock = self
                    .engine
                    .lock_for_handle(args[0])
                    .ok_or(Trap::HostError { code: errcode::BAD_LOCK })?;
                let (ok, _events) =
                    self.engine.txn.borrow_mut().lock_blocking(lock, self.thread, 3);
                if ok {
                    Ok(1)
                } else {
                    Err(Trap::HostError { code: errcode::LOCK_TIMEOUT })
                }
            }
            hostfn::UNLOCK => {
                let lock = self
                    .engine
                    .lock_for_handle(args[0])
                    .ok_or(Trap::HostError { code: errcode::BAD_LOCK })?;
                self.engine.txn.borrow_mut().unlock(lock, self.thread);
                Ok(0)
            }
            hostfn::RA_SUBMIT => {
                self.extents.push((args[0], args[1]));
                Ok(0)
            }
            hostfn::KALLOC => {
                let bytes = args[0];
                let mut rm = self.engine.rm.borrow_mut();
                rm.charge(self.principal, ResourceKind::KernelHeap, bytes)
                    .map_err(|_| Trap::HostError { code: errcode::NOMEM })?;
                drop(rm);
                // The allocation is undone if the transaction aborts.
                let rm = Rc::clone(&self.engine.rm);
                let principal = self.principal;
                let _ = self.engine.txn.borrow_mut().log_undo(
                    self.thread,
                    "kalloc",
                    Cycles(60),
                    move || rm.borrow_mut().release(principal, ResourceKind::KernelHeap, bytes),
                );
                Ok(1)
            }
            hostfn::KFREE => {
                self.engine.rm.borrow_mut().release(
                    self.principal,
                    ResourceKind::KernelHeap,
                    args[0],
                );
                Ok(0)
            }
            hostfn::KV_SET => {
                let slot = args[0] as usize;
                if slot >= KV_SLOTS {
                    return Err(Trap::HostError { code: errcode::BAD_SLOT });
                }
                // Accessor-function protocol (§3.1): mutate, then push
                // the reversing operation onto the undo call stack.
                let old = self.engine.kv.borrow()[slot];
                self.engine.kv.borrow_mut()[slot] = args[1];
                let kv = Rc::clone(&self.engine.kv);
                let _ = self.engine.txn.borrow_mut().log_undo(
                    self.thread,
                    "kv_set",
                    Cycles(60),
                    move || kv.borrow_mut()[slot] = old,
                );
                Ok(0)
            }
            hostfn::KV_GET => {
                let slot = args[0] as usize;
                if slot >= KV_SLOTS {
                    return Err(Trap::HostError { code: errcode::BAD_SLOT });
                }
                Ok(self.engine.kv.borrow()[slot])
            }
            hostfn::SHARED_BASE => Ok(mem.seg_base()),
            hostfn::LOG => {
                self.log.push(args[0]);
                Ok(0)
            }
            hostfn::CALL_GRAFT => {
                // Graft-to-graft invocation: the callee runs on the
                // caller's thread, so its wrapper transaction nests
                // inside the caller's (§3.1). A callee abort is
                // surfaced as the CALLEE_ABORTED sentinel and does NOT
                // abort the caller.
                let sub = self
                    .engine
                    .subgraft(args[0])
                    .ok_or(Trap::HostError { code: errcode::BAD_GRAFT })?;
                let Ok(mut callee) = sub.try_borrow_mut() else {
                    return Err(Trap::HostError { code: errcode::GRAFT_RECURSION });
                };
                if self.engine.nest_depth.get() >= MAX_NEST_DEPTH {
                    return Err(Trap::HostError { code: errcode::NEST_TOO_DEEP });
                }
                self.engine.nest_depth.set(self.engine.nest_depth.get() + 1);
                let saved = callee.thread();
                callee.set_thread(self.thread);
                let out = callee.invoke([args[1], args[2], args[3], 0]);
                callee.set_thread(saved);
                self.engine.nest_depth.set(self.engine.nest_depth.get() - 1);
                match out {
                    InvokeOutcome::Ok { result, .. } => Ok(result),
                    InvokeOutcome::Aborted { .. } | InvokeOutcome::Dead => Ok(CALLEE_ABORTED),
                }
            }
            // Defence in depth: restricted functions refuse even if the
            // link/run-time checks were somehow bypassed.
            other if other.0 >= hostfn::FIRST_RESTRICTED => Err(Trap::ForbiddenCall { id: other }),
            other => Err(Trap::UnknownFunction { id: other }),
        }
    }

    fn is_callable(&self, id: HostFnId) -> bool {
        self.engine.callable.contains(id)
    }
}

/// Why an invocation was aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortedWhy {
    /// The graft trapped (memory fault, forbidden call, host error...).
    Trap(Trap),
    /// The graft exceeded its CPU-slice budget — the §2.5 covert
    /// denial-of-service detector for grafts the kernel is waiting on.
    CpuHog,
    /// A fired lock time-out aborted the wrapper transaction while the
    /// graft was still running (Rule 9: a waiter's forward progress
    /// trumps the holder). The wrapper observes the theft at its next
    /// pump or at commit and finishes the unload.
    LockTimeout,
    /// The caller requested an abort-instead-of-commit run (benchmarks
    /// measuring the Table 3–6 "abort path").
    Requested,
}

/// The result of one graft invocation.
#[derive(Debug)]
pub enum InvokeOutcome {
    /// The graft halted and the transaction committed.
    Ok {
        /// The graft's return value (from `halt`).
        result: u64,
        /// Extents it submitted via `ra_submit`.
        extents: Vec<(u64, u64)>,
        /// Its debug trace.
        log: Vec<u64>,
    },
    /// The transaction was aborted; the graft is now dead (unloaded).
    Aborted {
        /// Why.
        why: AbortedWhy,
        /// The transaction manager's abort report.
        report: AbortReport,
    },
    /// The graft was already unloaded; the caller should run the
    /// default function.
    Dead,
}

impl InvokeOutcome {
    /// The halt value, if the invocation committed.
    pub fn result(&self) -> Option<u64> {
        match self {
            InvokeOutcome::Ok { result, .. } => Some(*result),
            _ => None,
        }
    }
}

/// The result of one batched invocation: a single wrapper transaction
/// covering up to `count` back-to-back runs of the graft function
/// (§4.1.3's per-invocation overhead argument — the begin/commit
/// envelope is paid once per batch instead of once per run).
#[derive(Debug)]
pub enum BatchOutcome {
    /// Every run halted and the whole batch committed; `results[i]` is
    /// run `i`'s halt value.
    Ok {
        /// Halt values, one per run, in run order.
        results: Vec<u64>,
    },
    /// Run `failed_at` misbehaved. The batch is one atomicity domain:
    /// the wrapper transaction was aborted, every earlier run's effects
    /// were undone, and the graft is now dead (§3.6).
    Aborted {
        /// Index of the run that misbehaved.
        failed_at: usize,
        /// Why.
        why: AbortedWhy,
        /// The transaction manager's abort report.
        report: AbortReport,
    },
    /// The graft was already unloaded; the caller should run the
    /// default function for the whole batch.
    Dead,
}

/// Commit-or-abort mode for an invocation (benchmarks measure both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Commit on successful halt (the normal wrapper).
    Commit,
    /// Abort at the end even on success (the Table 3–6 "abort path").
    AbortAtEnd,
}

/// Per-instance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvokeStats {
    /// Invocations attempted.
    pub invocations: u64,
    /// Committed runs.
    pub commits: u64,
    /// Aborted runs.
    pub aborts: u64,
    /// Timeslice preemptions across all runs.
    pub preemptions: u64,
}

/// An installed graft: program, persistent VM context, principal.
pub struct GraftInstance {
    /// Graft name (from the signed image).
    pub name: String,
    engine: Rc<GraftEngine>,
    /// The graft's execution context, which owns its program.
    vm: Vm,
    thread: ThreadId,
    /// The graft's resource principal (zero limits at install; §3.2).
    pub principal: PrincipalId,
    /// The principal the watch plane blames for this graft's behaviour:
    /// the installer who vouched for it (the accountant's
    /// `blame_target`), resolved once at install. Admission control
    /// gates installs by installer, so watch blame must land there too.
    blame: PrincipalId,
    dead: bool,
    /// Timeslices a single invocation may consume before the kernel
    /// declares it a CPU hog and aborts (§2.5's forward-progress
    /// detector for grafts in the kernel's path).
    pub max_slices: u32,
    stats: InvokeStats,
    /// The planes attached when the instance was created — its VM's,
    /// and the target of its `graft.*` lifecycle events.
    obs: Planes,
    /// Interned trace tag for this graft's name.
    tag: GraftTag,
    /// Interned metrics tag, with a metrics plane bound.
    mtag: Option<MetricTag>,
    /// Interned profile tag, with a profile plane bound.
    ptag: Option<ProfTag>,
    /// Clock reading at the start of the current invocation, so the
    /// watch plane can be fed the invocation's cycle cost on both the
    /// commit and the abort exits.
    invoke_started: Cycles,
    /// The trace plane's causal context before the current invocation
    /// span was installed, restored on both the commit and abort exits.
    prev_ctx: CauseCtx,
}

impl GraftInstance {
    /// Builds an instance from its parts (normally done by the loader).
    pub fn new(
        engine: Rc<GraftEngine>,
        program: Program,
        mem: AddressSpace,
        thread: ThreadId,
        principal: PrincipalId,
    ) -> GraftInstance {
        // Bind the planes attached now: grafts installed before a
        // plane attaches never report to it.
        let obs = engine.obs.snapshot();
        // Intern the graft name once at install time (the only point a
        // plane may allocate) and announce the install.
        let tag = obs.tag(&program.name);
        obs.emit(TraceEvent::GraftInstall { graft: tag });
        let mtag = obs.metrics().map(|mp| mp.tag(&program.name));
        // The profile plane also pre-sizes the per-PC arrays to the
        // program length so the hot path never allocates.
        let ptag = obs.profile().map(|pp| {
            let ptag = pp.tag(&program.name);
            pp.register_program(ptag, program.instrs.len());
            ptag
        });
        let name = program.name.clone();
        let mut vm = Vm::new(mem);
        vm.bind(obs.clone(), ptag);
        // Decode the program into runs once, here, so no
        // invocation or window pays for decoding.
        vm.load(program);
        // Watch plane: count the install and pre-create the blamed
        // principal's window slot now, while allocation is permitted.
        let blame = engine.rm.borrow().blame_target(principal);
        engine.obs.watched(|wp| {
            wp.touch_principal(blame.0);
            wp.observe_install(blame.0);
        });
        GraftInstance {
            name,
            engine,
            vm,
            thread,
            principal,
            blame,
            dead: false,
            max_slices: 16,
            stats: InvokeStats::default(),
            obs,
            tag,
            mtag,
            ptag,
            invoke_started: Cycles::ZERO,
            prev_ctx: CauseCtx::NONE,
        }
    }

    /// Closes the invocation's causal span, restoring the context that
    /// was in force before it. Both exits (commit and abort) land here.
    fn end_invoke_span(&mut self) {
        if let Some(tp) = self.engine.obs.trace() {
            tp.set_ctx(self.prev_ctx);
        }
    }

    /// Serves a dead-graft invocation to the caller's default path.
    fn serve_fallback(&self) {
        self.obs.emit(TraceEvent::FallbackServed { graft: self.tag });
        if let (Some(mp), Some(mtag)) = (self.obs.metrics(), self.mtag) {
            mp.mark_fallback(mtag);
        }
        if let Some(pp) = self.obs.profile() {
            pp.mark_fallback();
        }
    }

    /// Opens one wrapper invocation: its causal span, `graft.invoke`,
    /// and the metrics and profile brackets.
    ///
    /// The span is an event origin: minted as a child of whatever
    /// context is in force (so a graft invoked from a packet batch
    /// chains to the packet's span) and installed as the plane's current
    /// context, so every event the invocation emits, on any subsystem,
    /// inherits it.
    fn open_invocation(&mut self) {
        self.stats.invocations += 1;
        self.invoke_started = self.engine.clock.now();
        if let Some(tp) = self.engine.obs.trace() {
            self.prev_ctx = tp.set_ctx(tp.mint_span(tp.ctx().span));
        }
        self.obs.emit(TraceEvent::GraftInvoke { graft: self.tag });
        if let (Some(mp), Some(mtag)) = (self.obs.metrics(), self.mtag) {
            mp.begin_invocation(mtag);
        }
        if let (Some(pp), Some(ptag)) = (self.obs.profile(), self.ptag) {
            pp.begin_invocation(ptag);
        }
    }

    /// Closes a committed invocation (the abort exit is
    /// [`fail`](Self::fail)).
    fn close_committed(&mut self) {
        self.stats.commits += 1;
        self.obs.emit(TraceEvent::GraftCommit { graft: self.tag });
        self.close_brackets(true);
        self.observe_watch_invoke();
        self.end_invoke_span();
    }

    fn close_brackets(&self, committed: bool) {
        if let Some(mp) = self.obs.metrics() {
            mp.end_invocation(committed);
        }
        if let Some(pp) = self.obs.profile() {
            pp.end_invocation(committed);
        }
    }

    /// True once the graft has been forcibly unloaded (§3.6).
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Counters.
    pub fn stats(&self) -> InvokeStats {
        self.stats
    }

    /// The graft's memory, for host-side shared-buffer setup.
    pub fn mem(&mut self) -> &mut AddressSpace {
        &mut self.vm.mem
    }

    /// Read-only view of the graft's memory.
    pub fn mem_ref(&self) -> &AddressSpace {
        &self.vm.mem
    }

    /// The thread this graft runs on.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Rebinds the graft to a thread (event dispatch workers and
    /// nested graft-to-graft calls run the graft on the invoking
    /// thread).
    pub fn set_thread(&mut self, thread: ThreadId) {
        self.thread = thread;
    }

    /// Reinstalls a dead graft (a fresh install in the paper's model;
    /// provided so benchmarks can measure repeated abort paths without
    /// rebuilding shared-buffer state).
    pub fn revive(&mut self) {
        self.dead = false;
    }

    /// Forcibly unloads the graft from outside an invocation — the
    /// discipline path for misbehaviour that the wrapper cannot see
    /// from inside one transaction (e.g. the packet plane's
    /// steer-cycle tolerance). The failure is recorded in the
    /// reliability ledger, so repeated condemnation quarantines the
    /// graft name exactly like in-invocation aborts. The caller owns
    /// any trace/metrics emission for the event that triggered it.
    pub fn condemn(&mut self) {
        if self.dead {
            return;
        }
        self.dead = true;
        let verdict = self.engine.reliability.borrow_mut().record_abort(
            &self.name,
            reliability::FailureKind::OtherTrap,
            self.engine.clock.now(),
        );
        if let reliability::Verdict::Quarantined { .. } = verdict {
            self.engine.obs.watched(|wp| wp.observe_quarantine(self.blame.0));
        }
    }

    /// Feeds the finished invocation's cycle cost into the watch
    /// plane's p99 window (both exits call this: commit directly,
    /// abort via [`fail`](Self::fail)).
    fn observe_watch_invoke(&self) {
        let cost = self.engine.clock.now() - self.invoke_started;
        self.engine.obs.watched(|wp| wp.observe_invoke(self.blame.0, cost));
    }

    /// Invokes the graft through the full wrapper: transaction begin,
    /// fuel-bounded execution, commit/abort, forcible unload on
    /// misbehaviour.
    pub fn invoke(&mut self, args: [u64; 4]) -> InvokeOutcome {
        self.invoke_mode(args, CommitMode::Commit)
    }

    /// [`GraftInstance::invoke`] with an explicit commit mode.
    pub fn invoke_mode(&mut self, args: [u64; 4], mode: CommitMode) -> InvokeOutcome {
        if self.dead {
            self.serve_fallback();
            return InvokeOutcome::Dead;
        }
        self.open_invocation();
        let engine = Rc::clone(&self.engine);
        let txn_id = engine.txn.borrow_mut().begin(self.thread);
        self.vm.reset();
        self.vm.regs[1..5].copy_from_slice(&args);
        let mut host = KernelHost::new(Rc::clone(&engine), self.thread, self.principal);
        let result = match self.run_to_halt(&mut host, txn_id) {
            Ok(result) => result,
            Err(aborted) => return aborted,
        };
        match mode {
            CommitMode::Commit => {
                if engine.txn.borrow_mut().commit(self.thread).is_ok() {
                    self.close_committed();
                    InvokeOutcome::Ok { result, extents: host.extents, log: host.log }
                } else {
                    // A fired lock time-out stole the wrapper transaction
                    // mid-run; the work is already undone, so the
                    // invocation is an abort.
                    let report = self.stolen_report(txn_id);
                    self.fail(AbortedWhy::LockTimeout, report)
                }
            }
            CommitMode::AbortAtEnd => {
                let report = self.abort_wrapper(txn_id, AbortReason::Explicit);
                self.fail(AbortedWhy::Requested, report)
            }
        }
    }

    /// Runs the graft from the VM's current state until it halts,
    /// returning the halt value, or until the wrapper must abort it — a
    /// trap, a stolen transaction, a CPU hog — returning the abort
    /// outcome ([`fail`](Self::fail) has already run).
    fn run_to_halt(&mut self, host: &mut KernelHost, txn_id: TxnId) -> Result<u64, InvokeOutcome> {
        let mut slices = 0u32;
        loop {
            let mut fuel = vino_sched::Scheduler::timeslice_fuel();
            match self.vm.run(host, &self.engine.clock, &mut fuel) {
                Exit::Halted(result) => return Ok(result),
                Exit::Preempted => {
                    self.stats.preemptions += 1;
                    slices += 1;
                    // Preemption costs a switch pair (another thread ran).
                    self.engine.clock.charge(costs::CONTEXT_SWITCH);
                    self.engine.clock.charge(costs::CONTEXT_SWITCH);
                    // Other threads' lock time-outs fire while this graft
                    // is off-CPU; one of them may abort this wrapper's
                    // transaction (Rule 9).
                    self.engine.txn.borrow_mut().fire_due_timeouts();
                    let stolen =
                        self.engine.txn.borrow_mut().take_forced_abort(self.thread, txn_id);
                    if let Some(report) = stolen {
                        return Err(self.fail(AbortedWhy::LockTimeout, report));
                    }
                    if slices >= self.max_slices {
                        let report = self.abort_wrapper(txn_id, AbortReason::Explicit);
                        return Err(self.fail(AbortedWhy::CpuHog, report));
                    }
                }
                Exit::Trapped(trap) => {
                    // Resource-limit traps abort with the matching
                    // reason; everything else is a generic abort.
                    let reason = match trap {
                        Trap::HostError { code: errcode::NOMEM } => AbortReason::ResourceLimit,
                        Trap::HostError { code: errcode::LOCK_TIMEOUT } => {
                            AbortReason::LockTimeout(LockId(u64::MAX))
                        }
                        _ => AbortReason::Explicit,
                    };
                    let report = self.abort_wrapper(txn_id, reason);
                    return Err(self.fail(AbortedWhy::Trap(trap), report));
                }
            }
        }
    }

    /// Invokes the graft `count` times under ONE wrapper transaction.
    ///
    /// `marshal(i, mem)` prepares the graft memory for run `i` (e.g.
    /// writes packet `i`'s header and payload into the segment) and
    /// returns the run's register arguments. The transaction envelope —
    /// begin, commit, the invocation metrics bracket and the `graft.*`
    /// lifecycle trace events — is paid once for the whole batch, which
    /// is the batched dispatcher's per-packet win. The batch is one
    /// atomicity domain: if any run traps, hogs the CPU or loses its
    /// locks, the whole batch aborts, every run's effects are undone
    /// and the graft is forcibly unloaded, exactly as a single-run
    /// abort.
    pub fn invoke_batch<F>(&mut self, count: usize, mut marshal: F) -> BatchOutcome
    where
        F: FnMut(usize, &mut AddressSpace) -> [u64; 4],
    {
        if self.dead {
            self.serve_fallback();
            return BatchOutcome::Dead;
        }
        if count == 0 {
            return BatchOutcome::Ok { results: Vec::new() };
        }
        self.open_invocation();
        let engine = Rc::clone(&self.engine);
        let txn_id = engine.txn.borrow_mut().begin(self.thread);
        let mut host = KernelHost::new(Rc::clone(&engine), self.thread, self.principal);
        let mut results = Vec::with_capacity(count);
        for i in 0..count {
            self.vm.reset();
            let args = marshal(i, &mut self.vm.mem);
            self.vm.regs[1..5].copy_from_slice(&args);
            match self.run_to_halt(&mut host, txn_id) {
                Ok(result) => results.push(result),
                Err(aborted) => return batch_aborted(i, aborted),
            }
        }
        let committed = engine.txn.borrow_mut().commit(self.thread).is_ok();
        if committed {
            self.close_committed();
            BatchOutcome::Ok { results }
        } else {
            // A fired lock time-out stole the wrapper transaction
            // between the last run and the commit.
            let report = self.stolen_report(txn_id);
            let out = self.fail(AbortedWhy::LockTimeout, report);
            batch_aborted(count - 1, out)
        }
    }

    /// Aborts the wrapper transaction; if a fired lock time-out already
    /// stole it (aborted this thread's innermost frame from under the
    /// running graft), recovers that abort's report instead of
    /// panicking on the missing frame.
    fn abort_wrapper(&self, txn: TxnId, reason: AbortReason) -> AbortReport {
        let mut mgr = self.engine.txn.borrow_mut();
        match mgr.abort(self.thread, reason) {
            Ok(report) => report,
            Err(_) => {
                drop(mgr);
                self.stolen_report(txn)
            }
        }
    }

    /// The abort report for a wrapper transaction that was stolen by a
    /// fired time-out, or a zero-cost placeholder if the theft predates
    /// report capture (e.g. the manager was rebuilt mid-run in a test).
    fn stolen_report(&self, txn: TxnId) -> AbortReport {
        self.engine.txn.borrow_mut().take_forced_abort(self.thread, txn).unwrap_or(AbortReport {
            txn,
            reason: AbortReason::LockTimeout(LockId(u64::MAX)),
            undo_ops: 0,
            locks_released: 0,
            cost: Cycles::ZERO,
            handoffs: Vec::new(),
        })
    }

    /// The single exit path for every aborted invocation: bumps the
    /// abort counter, forcibly unloads the graft (§3.6), bills the
    /// abort's cleanup cost to the blame chain (§3.2 — the installer
    /// ultimately pays for a misbehaving graft's cleanup), and records
    /// the failure in the engine's reliability ledger, which may
    /// quarantine the graft name against reinstallation.
    fn fail(&mut self, why: AbortedWhy, report: AbortReport) -> InvokeOutcome {
        self.stats.aborts += 1;
        self.dead = true;
        self.close_brackets(false);
        let kind = reliability::classify(&why);
        self.engine.rm.borrow_mut().charge_blame(self.principal, report.cost.get());
        let abort_kind = abort_kind_of(&why);
        self.obs.emit(TraceEvent::GraftAbort { graft: self.tag, kind: abort_kind });
        if let Some(tp) = self.engine.obs.trace() {
            // The flight recorder: snapshot the trace tail and the
            // abort's vital signs (abort path, allocation allowed).
            tp.record_post_mortem(
                &self.name,
                abort_kind,
                report.locks_released,
                report.undo_ops,
                report.cost,
            );
        }
        let verdict = self.engine.reliability.borrow_mut().record_abort(
            &self.name,
            kind,
            self.engine.clock.now(),
        );
        self.observe_watch_invoke();
        self.engine.obs.watched(|wp| {
            wp.observe_abort(self.blame.0);
            if let reliability::Verdict::Quarantined { .. } = verdict {
                wp.observe_quarantine(self.blame.0);
            }
        });
        self.end_invoke_span();
        InvokeOutcome::Aborted { why, report }
    }
}

/// Re-shapes a single-run abort outcome into its batch counterpart.
fn batch_aborted(failed_at: usize, out: InvokeOutcome) -> BatchOutcome {
    match out {
        InvokeOutcome::Aborted { why, report } => BatchOutcome::Aborted { failed_at, why, report },
        _ => unreachable!("fail() always returns Aborted"),
    }
}

/// Maps the engine's abort cause onto the sim-level trace encoding.
pub fn abort_kind_of(why: &AbortedWhy) -> AbortKind {
    match why {
        AbortedWhy::Trap(_) => AbortKind::Trap,
        AbortedWhy::CpuHog => AbortKind::CpuHog,
        AbortedWhy::LockTimeout => AbortKind::LockTimeout,
        AbortedWhy::Requested => AbortKind::Requested,
    }
}

impl fmt::Debug for GraftInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraftInstance")
            .field("name", &self.name)
            .field("dead", &self.dead)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_rm::Limits;
    use vino_vm::asm::assemble;
    use vino_vm::mem::Protection;

    const T: ThreadId = ThreadId(7);

    fn instance(src: &str) -> GraftInstance {
        let engine = GraftEngine::new(VirtualClock::new());
        let prog = assemble("test-graft", src, &hostfn::symbols()).unwrap();
        let principal = engine.rm.borrow_mut().create_graft_principal();
        let mem = AddressSpace::new(4096, 1024, Protection::Sfi);
        GraftInstance::new(engine, prog, mem, T, principal)
    }

    #[test]
    fn null_graft_commits() {
        let mut g = instance("halt r0");
        match g.invoke([0; 4]) {
            InvokeOutcome::Ok { result, .. } => assert_eq!(result, 0),
            other => panic!("expected Ok, got {other:?}"),
        }
        assert_eq!(g.stats().commits, 1);
        assert!(!g.is_dead());
        // Wrapper envelope charged begin + commit.
        let t = g.engine.txn.borrow().stats();
        assert_eq!(t.begins, 1);
        assert_eq!(t.commits, 1);
    }

    #[test]
    fn args_arrive_in_registers() {
        let mut g = instance("add r0, r1, r2\nhalt r0");
        assert_eq!(g.invoke([30, 12, 0, 0]).result(), Some(42));
    }

    #[test]
    fn kv_accessor_undone_on_abort() {
        // The graft writes kernel state through the accessor, then
        // traps; the undo stack must restore the old value.
        let mut g = instance(
            "
            const r1, 5       ; slot
            const r2, 99      ; value
            call $kv_set
            const r3, 0
            div r0, r2, r3    ; trap: divide by zero
            halt r0
            ",
        );
        g.engine.kv_write(5, 11);
        match g.invoke([0; 4]) {
            InvokeOutcome::Aborted { why: AbortedWhy::Trap(Trap::DivByZero), report } => {
                assert_eq!(report.undo_ops, 1);
            }
            other => panic!("expected trap abort, got {other:?}"),
        }
        assert_eq!(g.engine.kv_read(5), 11, "kernel state restored");
        assert!(g.is_dead(), "graft forcibly unloaded after abort");
        assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Dead));
    }

    #[test]
    fn kv_accessor_persists_on_commit() {
        let mut g = instance(
            "
            const r1, 3
            const r2, 77
            call $kv_set
            halt r0
            ",
        );
        g.invoke([0; 4]);
        assert_eq!(g.engine.kv_read(3), 77);
    }

    #[test]
    fn kv_bad_slot_traps() {
        let mut g = instance(
            "
            const r1, 9999
            call $kv_get
            halt r0
            ",
        );
        match g.invoke([0; 4]) {
            InvokeOutcome::Aborted { why: AbortedWhy::Trap(t), .. } => {
                assert_eq!(t, Trap::HostError { code: errcode::BAD_SLOT });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resource_limit_denies_allocation() {
        // Zero-limit graft: any allocation must fail and abort (§3.2).
        let mut g = instance(
            "
            const r1, 4096
            call $kalloc
            halt r0
            ",
        );
        match g.invoke([0; 4]) {
            InvokeOutcome::Aborted { why: AbortedWhy::Trap(t), .. } => {
                assert_eq!(t, Trap::HostError { code: errcode::NOMEM });
            }
            other => panic!("{other:?}"),
        }
        assert!(g.is_dead());
    }

    #[test]
    fn allocation_within_transferred_limit_succeeds_and_unwinds() {
        let mut g = instance(
            "
            const r1, 4096
            call $kalloc
            const r1, 0
            const r2, 0
            div r0, r1, r2   ; trap after allocating
            halt r0
            ",
        );
        // Give the graft a budget (the install-time transfer).
        let installer = g
            .engine
            .rm
            .borrow_mut()
            .create_principal(Limits::of(&[(ResourceKind::KernelHeap, 8192)]));
        g.engine
            .rm
            .borrow_mut()
            .transfer(installer, g.principal, ResourceKind::KernelHeap, 8192)
            .unwrap();
        let used_before = g.engine.rm.borrow().used(g.principal, ResourceKind::KernelHeap);
        assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Aborted { .. }));
        let used_after = g.engine.rm.borrow().used(g.principal, ResourceKind::KernelHeap);
        assert_eq!(used_before, used_after, "abort released the allocation");
    }

    #[test]
    fn infinite_loop_is_preempted_then_aborted() {
        // §2.2's `while(1);` — preemptible (Rule 1), and eventually the
        // kernel gives up on it.
        let mut g = instance("spin: jmp spin");
        g.max_slices = 3;
        match g.invoke([0; 4]) {
            InvokeOutcome::Aborted { why: AbortedWhy::CpuHog, .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(g.stats().preemptions, 3);
        assert!(g.is_dead());
    }

    #[test]
    fn lock_and_commit_releases() {
        let mut g = instance(
            "
            const r1, 0    ; lock handle 0
            call $lock
            halt r0
            ",
        );
        let (_handle, lock_id) = g.engine.register_lock(LockClass::Buffer);
        g.invoke([0; 4]);
        assert_eq!(g.engine.txn.borrow().lock_table().holder(lock_id), None);
    }

    #[test]
    fn lock_hog_times_out_for_other_threads() {
        // Graft takes the lock and commits... no: take lock inside the
        // graft then make another thread want it while the graft
        // transaction is still open — model by invoking with
        // AbortAtEnd? Simplest deterministic check: graft acquires the
        // lock, and while its txn is open (we re-enter via engine), a
        // second thread's blocking acquire aborts it.
        let engine = GraftEngine::new(VirtualClock::new());
        let (_h, lock_id) = engine.register_lock(LockClass::Buffer);
        let t_graft = ThreadId(1);
        let t_other = ThreadId(2);
        engine.txn.borrow_mut().begin(t_graft);
        engine.txn.borrow_mut().lock(lock_id, t_graft);
        // The graft now "spins forever" holding the lock. The other
        // thread's blocking acquire must time out the holder and win.
        let (ok, events) = engine.txn.borrow_mut().lock_blocking(lock_id, t_other, 3);
        assert!(ok, "Rule 9: other threads make progress");
        assert!(!events.is_empty());
        assert!(!engine.txn.borrow().in_txn(t_graft), "holder transaction aborted");
    }

    #[test]
    fn ra_submit_collected() {
        let mut g = instance(
            "
            const r1, 4096
            const r2, 8192
            call $ra_submit
            const r1, 0
            const r2, 4096
            call $ra_submit
            halt r0
            ",
        );
        match g.invoke([0; 4]) {
            InvokeOutcome::Ok { extents, .. } => {
                assert_eq!(extents, vec![(4096, 8192), (0, 4096)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abort_at_end_mode() {
        let mut g = instance("halt r0");
        match g.invoke_mode([0; 4], CommitMode::AbortAtEnd) {
            InvokeOutcome::Aborted { why: AbortedWhy::Requested, .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(g.is_dead());
        g.revive();
        assert!(matches!(g.invoke([0; 4]), InvokeOutcome::Ok { .. }));
    }

    #[test]
    fn batch_pays_one_transaction_envelope_for_n_runs() {
        let mut g = instance("add r0, r1, r2\nhalt r0");
        let out = g.invoke_batch(8, |i, _mem| [i as u64, 100, 0, 0]);
        match out {
            BatchOutcome::Ok { results } => {
                assert_eq!(results, (100..108).collect::<Vec<u64>>());
            }
            other => panic!("{other:?}"),
        }
        let t = g.engine.txn.borrow().stats();
        assert_eq!(t.begins, 1, "one begin for the whole batch");
        assert_eq!(t.commits, 1, "one commit for the whole batch");
        assert_eq!(g.stats().commits, 1);
    }

    #[test]
    fn batch_abort_undoes_every_earlier_run() {
        // Each run writes kv[run]; run 5 divides by zero. The whole
        // batch is one atomicity domain: all five earlier writes must
        // be undone.
        let mut g = instance(
            "
            mov r5, r1        ; slot = run index
            const r2, 1
            mov r1, r5
            call $kv_set
            const r3, 5
            bne r5, r3, fine
            const r3, 0
            div r0, r2, r3    ; run 5 traps
        fine:
            halt r0
            ",
        );
        match g.invoke_batch(8, |i, _mem| [i as u64, 0, 0, 0]) {
            BatchOutcome::Aborted { failed_at, why: AbortedWhy::Trap(Trap::DivByZero), report } => {
                assert_eq!(failed_at, 5);
                assert_eq!(report.undo_ops, 6, "five earlier writes plus run 5's own");
            }
            other => panic!("{other:?}"),
        }
        for slot in 0..6 {
            assert_eq!(g.engine.kv_read(slot), 0, "kv[{slot}] restored");
        }
        assert!(g.is_dead(), "batch abort forcibly unloads the graft");
        assert!(matches!(g.invoke_batch(4, |_, _| [0; 4]), BatchOutcome::Dead));
    }

    #[test]
    fn batch_cpu_hog_aborts_whole_batch() {
        let mut g = instance("spin: jmp spin");
        g.max_slices = 2;
        match g.invoke_batch(4, |_, _| [0; 4]) {
            BatchOutcome::Aborted { failed_at: 0, why: AbortedWhy::CpuHog, .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(g.is_dead());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut g = instance("halt r0");
        assert!(
            matches!(g.invoke_batch(0, |_, _| [0; 4]), BatchOutcome::Ok { results } if results.is_empty())
        );
        assert_eq!(g.engine.txn.borrow().stats().begins, 0);
    }

    #[test]
    fn shared_base_returns_segment() {
        let mut g = instance(
            "
            call $shared_base
            halt r0
            ",
        );
        let base = g.mem_ref().seg_base();
        assert_eq!(g.invoke([0; 4]).result(), Some(base));
    }

    #[test]
    fn log_collects_trace() {
        let mut g = instance(
            "
            const r1, 42
            call $log
            const r1, 43
            call $log
            halt r0
            ",
        );
        match g.invoke([0; 4]) {
            InvokeOutcome::Ok { log, .. } => assert_eq!(log, vec![42, 43]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wild_store_trap_aborts_and_unloads() {
        // Un-instrumented graft in an SFI space: the wild store faults,
        // the wrapper aborts, the graft dies. (Loader tests cover the
        // instrumented case where the store is silently confined.)
        let mut g = instance(
            "
            const r1, 0xC0000000
            storew r1, [r1+0]
            halt r0
            ",
        );
        match g.invoke([0; 4]) {
            InvokeOutcome::Aborted { why: AbortedWhy::Trap(Trap::Mem(_)), .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(g.is_dead());
    }
}
