//! The transaction manager.
//!
//! Owns the per-thread transaction stacks (nesting), the lock table and
//! the time-out queue. All costs follow the calibrated model:
//!
//! - begin: 36 µs (`TXN_BEGIN`)
//! - top-level commit: 30 µs (`TXN_COMMIT`) including lock release
//! - nested commit: 8 µs merge (`TXN_NESTED_COMMIT`)
//! - abort: `35 µs + 10 µs × L + Σ undo costs` — the §4.5 equation
//! - transaction lock acquire: 33 µs; plain mutex pair: 14 µs
//!
//! The manager is *driven*: blocking is represented by return values and
//! the caller (the kernel main loop, a test, or a bench harness)
//! advances the virtual clock and calls [`TxnManager::fire_due_timeouts`].

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use vino_sim::costs;
use vino_sim::event::EventQueue;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter};
use vino_sim::obs::Obs;
use vino_sim::profile::SpanKind;
use vino_sim::trace::TraceEvent;
use vino_sim::{Cycles, ThreadId, VirtualClock};

use crate::locks::{AcquireOutcome, LockClass, LockId, LockTable};
use crate::undo::{UndoRecord, UndoStack};

/// Identifies a transaction instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// Transaction-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The thread has no active transaction.
    NoTransaction(ThreadId),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::NoTransaction(t) => write!(f, "{t} has no active transaction"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Why a transaction was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The grafting layer decided to abort (graft trapped, bad result…).
    Explicit,
    /// A contended lock held too long timed out (§3.2).
    LockTimeout(LockId),
    /// The graft exceeded a quantity-constrained resource limit (§3.2).
    ResourceLimit,
}

/// What an abort did — the quantities in the §4.5 cost equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortReport {
    /// The aborted transaction.
    pub txn: TxnId,
    /// Why it aborted.
    pub reason: AbortReason,
    /// Undo operations executed (LIFO).
    pub undo_ops: usize,
    /// Locks released (the `L` term; 10 µs each).
    pub locks_released: usize,
    /// Total cycle cost charged for the abort.
    pub cost: Cycles,
    /// Lock hand-offs to waiting threads caused by the release.
    pub handoffs: Vec<(LockId, ThreadId)>,
}

/// What a commit did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReport {
    /// The committed transaction.
    pub txn: TxnId,
    /// True when this was a nested commit (merge into parent).
    pub nested: bool,
    /// Locks released (zero for nested commits).
    pub locks_released: usize,
    /// Lock hand-offs to waiting threads.
    pub handoffs: Vec<(LockId, ThreadId)>,
}

/// Outcome of a lock request through the manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// Acquired; cost charged.
    Granted,
    /// Blocked on `holder`; a time-out has been scheduled at `deadline`
    /// (tick-rounded absolute time). The caller should advance time and
    /// call [`TxnManager::fire_due_timeouts`].
    Blocked { holder: ThreadId, deadline: Cycles },
}

/// Events produced when a scheduled time-out fires.
#[derive(Debug)]
pub enum TimeoutEvent {
    /// The holder was executing a transaction; it has been aborted and
    /// its locks released (§3.2: "we abort that transaction").
    HolderAborted {
        /// The contended lock whose time-out fired.
        lock: LockId,
        /// The thread whose transaction was aborted.
        holder: ThreadId,
        /// The abort details.
        report: AbortReport,
    },
    /// The holder was not in a transaction; policy is the caller's
    /// (VINO would preempt/terminate the thread, §2.2).
    HolderNotInTxn {
        /// The contended lock.
        lock: LockId,
        /// The current holder.
        holder: ThreadId,
    },
    /// The contention resolved before the deadline; nothing to do.
    Stale {
        /// The lock the stale timer referred to.
        lock: LockId,
    },
}

/// Counters for the whole manager lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun.
    pub begins: u64,
    /// Top-level commits.
    pub commits: u64,
    /// Nested commits (merges).
    pub nested_commits: u64,
    /// Aborts.
    pub aborts: u64,
    /// Undo operations executed across all aborts.
    pub undo_ops_run: u64,
    /// Lock time-outs that fired and aborted a holder.
    pub timeout_aborts: u64,
}

struct TxnFrame {
    id: TxnId,
    undo: UndoStack,
    locks: Vec<LockId>,
}

#[derive(PartialEq, Eq)]
struct PendingTimeout {
    lock: LockId,
    waiter: ThreadId,
}

/// Sentinel waiter used by injected time-out storms
/// ([`FaultSite::LockTimeoutStorm`]): never a real thread, so the fired
/// time-out always targets the holder.
const STORM_WAITER: ThreadId = ThreadId(u64::MAX);

/// The default VINO transaction manager (§3.1).
pub struct TxnManager {
    table: LockTable,
    stacks: HashMap<ThreadId, Vec<TxnFrame>>,
    timeouts: EventQueue<PendingTimeout>,
    next_txn: u64,
    stats: TxnStats,
    obs: Obs,
    /// Abort reports from fired time-outs, keyed by the aborted holder.
    /// The graft wrapper consumes these to discover that its transaction
    /// was stolen out from under it (see [`take_forced_abort`]).
    ///
    /// [`take_forced_abort`]: TxnManager::take_forced_abort
    forced: HashMap<ThreadId, AbortReport>,
}

impl TxnManager {
    /// Creates a manager charging costs to `clock`, with no planes.
    pub fn new(clock: Rc<VirtualClock>) -> TxnManager {
        TxnManager::with_obs(Obs::new(clock))
    }

    /// Creates a manager observed through `obs`, charging costs to its
    /// clock. A [`FaultSite::LockTimeoutStorm`] firing on a granted
    /// transactional acquire schedules a forced time-out against the
    /// holder at the next clock tick. Envelope steps emit `txn.*`
    /// events, bill their cycles to their overhead component and mark
    /// profile spans; fired time-outs feed the watch plane's
    /// `lock-starved` rule.
    pub fn with_obs(obs: Obs) -> TxnManager {
        TxnManager {
            table: LockTable::new(),
            stacks: HashMap::new(),
            timeouts: EventQueue::new(),
            next_txn: 0,
            stats: TxnStats::default(),
            obs,
            forced: HashMap::new(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// The clock this manager charges costs to.
    pub fn clock(&self) -> &Rc<VirtualClock> {
        self.obs.clock()
    }

    /// The observation handle the manager reports through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of active transactions across all threads (the survival
    /// battery asserts this returns to zero after every scenario).
    pub fn active_txns(&self) -> usize {
        self.stacks.values().map(Vec::len).sum()
    }

    /// The checkpointable counters: the next transaction id and the
    /// lifetime stats. Everything else in the manager is per-flight
    /// state that must be empty at a checkpoint.
    pub fn debug_state(&self) -> (u64, TxnStats) {
        (self.next_txn, self.stats)
    }

    /// Replants [`debug_state`](Self::debug_state) counters after a
    /// checkpoint restore, so resumed transactions mint the same ids.
    pub fn restore_debug_state(&mut self, next_txn: u64, stats: TxnStats) {
        self.next_txn = next_txn;
        self.stats = stats;
    }

    /// Drops every pending lock time-out and unconsumed forced-abort
    /// report. Part of the checkpoint quiesce: with no transaction
    /// active these can no longer fire against a live frame, and a
    /// restored manager starts without them, so the capture side must
    /// shed them too.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is still active.
    pub fn clear_timeouts(&mut self) {
        assert_eq!(self.active_txns(), 0, "cannot quiesce with live transactions");
        self.timeouts = EventQueue::new();
        self.forced.clear();
    }

    /// Consumes the abort report of transaction `txn` if a fired
    /// time-out aborted it out from under `thread`.
    ///
    /// A running graft holds no reference to its wrapper transaction; if
    /// a waiter's time-out (genuine contention or an injected storm)
    /// aborts that transaction while the graft is still executing, the
    /// wrapper discovers it only when its own commit/abort fails. The
    /// report is matched by [`TxnId`] so a stale entry from an earlier
    /// transaction on the same thread is never mistaken for the current
    /// one.
    pub fn take_forced_abort(&mut self, thread: ThreadId, txn: TxnId) -> Option<AbortReport> {
        match self.forced.get(&thread) {
            Some(r) if r.txn == txn => {
                self.obs.emit(TraceEvent::LockSteal { thread: thread.0, txn: txn.0 });
                self.forced.remove(&thread)
            }
            _ => None,
        }
    }

    /// Registers a lockable object.
    pub fn create_lock(&mut self, class: LockClass) -> LockId {
        self.table.create(class)
    }

    /// Read access to the lock table (for assertions and policy code).
    pub fn lock_table(&self) -> &LockTable {
        &self.table
    }

    /// Begins a transaction on `thread`. If the thread already has one,
    /// the new transaction nests inside it (§3.1).
    pub fn begin(&mut self, thread: ThreadId) -> TxnId {
        self.obs.bill(Component::TxnBegin, costs::TXN_BEGIN);
        self.obs.mark(SpanKind::TxnBegin, costs::TXN_BEGIN);
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.stats.begins += 1;
        let stack = self.stacks.entry(thread).or_default();
        stack.push(TxnFrame { id, undo: UndoStack::new(), locks: Vec::new() });
        let depth = stack.len() as u64;
        self.obs.emit(TraceEvent::TxnBegin { thread: thread.0, txn: id.0, depth });
        id
    }

    /// True if `thread` has an active transaction.
    pub fn in_txn(&self, thread: ThreadId) -> bool {
        self.depth(thread) > 0
    }

    /// Nesting depth of `thread`'s transaction stack.
    pub fn depth(&self, thread: ThreadId) -> usize {
        self.stacks.get(&thread).map_or(0, Vec::len)
    }

    /// The innermost transaction of `thread`.
    pub fn current(&self, thread: ThreadId) -> Option<TxnId> {
        self.stacks.get(&thread).and_then(|s| s.last()).map(|f| f.id)
    }

    /// Records an undo operation against `thread`'s current transaction
    /// (called by accessor functions, §3.1). Charges the push cost.
    pub fn log_undo(
        &mut self,
        thread: ThreadId,
        label: &'static str,
        cost: Cycles,
        op: impl FnOnce() + 'static,
    ) -> Result<(), TxnError> {
        let frame = self
            .stacks
            .get_mut(&thread)
            .and_then(|s| s.last_mut())
            .ok_or(TxnError::NoTransaction(thread))?;
        frame.undo.push(UndoRecord::new(label, cost, op));
        let depth = frame.undo.len() as u64;
        self.obs.bill(Component::Undo, costs::UNDO_PUSH);
        self.obs.emit(TraceEvent::UndoPush { thread: thread.0, depth });
        Ok(())
    }

    /// Number of undo records pending in `thread`'s current transaction.
    pub fn pending_undo(&self, thread: ThreadId) -> usize {
        self.stacks.get(&thread).and_then(|s| s.last()).map_or(0, |f| f.undo.len())
    }

    /// Acquires `lock` for `thread`.
    ///
    /// Inside a transaction this is a *transaction lock*: 33 µs, release
    /// deferred to commit/abort (two-phase locking). Outside, it is a
    /// conventional mutex: 14 µs for the acquire/release pair, released
    /// by [`TxnManager::unlock`].
    ///
    /// On contention a time-out is scheduled at the class deadline,
    /// rounded up to the 10 ms system-clock tick (§4.5).
    pub fn lock(&mut self, lock: LockId, thread: ThreadId) -> LockOutcome {
        match self.table.acquire(lock, thread) {
            AcquireOutcome::Granted => {
                match self.stacks.get_mut(&thread) {
                    Some(stack) if !stack.is_empty() => {
                        self.obs.bill(Component::Lock, costs::TXN_LOCK_ACQUIRE);
                        // The lock belongs to the frame that FIRST
                        // acquired it: re-recording a re-entrant grant
                        // in an inner frame would make an inner abort
                        // release a lock the outer transaction still
                        // holds (breaking two-phase locking).
                        if !stack.iter().any(|f| f.locks.contains(&lock)) {
                            stack.last_mut().expect("non-empty").locks.push(lock);
                        }
                        self.obs.emit(TraceEvent::LockAcquire { lock: lock.0, thread: thread.0 });
                        if self.obs.fire(FaultSite::LockTimeoutStorm) {
                            let deadline = EventQueue::<PendingTimeout>::round_to_tick(
                                self.obs.clock().now() + Cycles(1),
                            );
                            self.timeouts.schedule_exact(
                                deadline,
                                PendingTimeout { lock, waiter: STORM_WAITER },
                            );
                        }
                    }
                    _ => {
                        self.obs.bill(Component::Lock, costs::MUTEX_PAIR);
                        self.obs.inc(Counter::MutexAcquires);
                    }
                }
                LockOutcome::Granted
            }
            AcquireOutcome::Contended { holder, timeout } => {
                let deadline =
                    EventQueue::<PendingTimeout>::round_to_tick(self.obs.clock().now() + timeout);
                self.timeouts.schedule_exact(deadline, PendingTimeout { lock, waiter: thread });
                self.obs.emit(TraceEvent::LockBlocked {
                    lock: lock.0,
                    waiter: thread.0,
                    holder: holder.0,
                });
                LockOutcome::Blocked { holder, deadline }
            }
        }
    }

    /// Releases `lock` for `thread`.
    ///
    /// If the lock belongs to an active transaction of the thread the
    /// release is *deferred* (two-phase locking: "lock release is
    /// delayed until commit or abort") and this returns `None`.
    /// Otherwise the lock is released and the next waiter (if any) is
    /// returned for hand-off.
    pub fn unlock(&mut self, lock: LockId, thread: ThreadId) -> Option<ThreadId> {
        if let Some(stack) = self.stacks.get(&thread) {
            if stack.iter().any(|f| f.locks.contains(&lock)) {
                return None; // Deferred to commit/abort.
            }
        }
        self.table.release(lock, thread)
    }

    /// Commits `thread`'s current transaction.
    pub fn commit(&mut self, thread: ThreadId) -> Result<CommitReport, TxnError> {
        let stack = self.stacks.get_mut(&thread).ok_or(TxnError::NoTransaction(thread))?;
        let frame = stack.pop().ok_or(TxnError::NoTransaction(thread))?;
        if let Some(parent) = stack.last_mut() {
            // Nested commit: merge undo stack and locks into the parent.
            self.obs.bill(Component::TxnCommit, costs::TXN_NESTED_COMMIT);
            self.obs.mark(SpanKind::TxnCommit, costs::TXN_NESTED_COMMIT);
            self.stats.nested_commits += 1;
            parent.undo.absorb(frame.undo);
            for l in frame.locks {
                if !parent.locks.contains(&l) {
                    parent.locks.push(l);
                }
            }
            self.obs.emit(TraceEvent::TxnCommit {
                thread: thread.0,
                txn: frame.id.0,
                nested: true,
                locks: 0,
            });
            Ok(CommitReport {
                txn: frame.id,
                nested: true,
                locks_released: 0,
                handoffs: Vec::new(),
            })
        } else {
            self.obs.bill(Component::TxnCommit, costs::TXN_COMMIT);
            self.obs.mark(SpanKind::TxnCommit, costs::TXN_COMMIT);
            self.stats.commits += 1;
            let mut handoffs = Vec::new();
            let mut released = 0;
            for l in &frame.locks {
                released += 1;
                if let Some(next) = self.table.release_all_holds(*l, thread) {
                    handoffs.push((*l, next));
                }
            }
            self.obs.emit(TraceEvent::TxnCommit {
                thread: thread.0,
                txn: frame.id.0,
                nested: false,
                locks: released as u64,
            });
            Ok(CommitReport { txn: frame.id, nested: false, locks_released: released, handoffs })
        }
    }

    /// Aborts `thread`'s current (innermost) transaction: runs the undo
    /// call stack in LIFO order, releases the transaction's locks, and
    /// charges `35 µs + 10 µs × L + Σ undo` (§4.5).
    pub fn abort(
        &mut self,
        thread: ThreadId,
        reason: AbortReason,
    ) -> Result<AbortReport, TxnError> {
        let stack = self.stacks.get_mut(&thread).ok_or(TxnError::NoTransaction(thread))?;
        let mut frame = stack.pop().ok_or(TxnError::NoTransaction(thread))?;
        let start = self.obs.clock().now();
        self.obs.bill(Component::Abort, costs::TXN_ABORT_OVERHEAD);
        let (undo_ops, undo_cost) = frame.undo.unwind();
        self.obs.bill(Component::Undo, undo_cost);
        if undo_cost.get() > 0 {
            self.obs.mark(SpanKind::Undo, undo_cost);
        }
        let mut handoffs = Vec::new();
        let mut released = 0;
        for l in &frame.locks {
            self.obs.bill(Component::Abort, costs::ABORT_UNLOCK);
            released += 1;
            if let Some(next) = self.table.release_all_holds(*l, thread) {
                handoffs.push((*l, next));
            }
        }
        self.stats.aborts += 1;
        self.stats.undo_ops_run += undo_ops as u64;
        if undo_ops > 0 {
            self.obs.emit(TraceEvent::UndoRun { thread: thread.0, ops: undo_ops as u64 });
        }
        self.obs.emit(TraceEvent::TxnAbort {
            thread: thread.0,
            txn: frame.id.0,
            locks: released as u64,
        });
        self.obs.mark_since(SpanKind::Abort, start);
        Ok(AbortReport {
            txn: frame.id,
            reason,
            undo_ops,
            locks_released: released,
            cost: self.obs.clock().since(start),
            handoffs,
        })
    }

    /// The earliest pending lock time-out, so drivers can advance the
    /// virtual clock straight to it.
    pub fn next_timeout(&mut self) -> Option<Cycles> {
        self.timeouts.next_deadline()
    }

    /// Fires every lock time-out whose deadline is ≤ now.
    ///
    /// For each fired time-out whose lock is still contended: if the
    /// holder is executing a transaction, that transaction is aborted
    /// (even if the lock predates it — §3.2 note) and its locks
    /// released. Stale time-outs (contention already resolved, or the
    /// waiter has the lock now) are reported as [`TimeoutEvent::Stale`].
    pub fn fire_due_timeouts(&mut self) -> Vec<TimeoutEvent> {
        let now = self.obs.clock().now();
        let due = self.timeouts.fire_due(now);
        let mut events = Vec::new();
        for (_, PendingTimeout { lock, waiter }) in due {
            let holder = self.table.holder(lock);
            match holder {
                Some(h) if h != waiter => {
                    if self.in_txn(h) {
                        self.obs.watched(|wp| wp.observe_lock_timeout());
                        self.obs.emit(TraceEvent::LockTimeout { lock: lock.0, holder: h.0 });
                        let report = self
                            .abort(h, AbortReason::LockTimeout(lock))
                            .expect("holder verified in txn");
                        self.stats.timeout_aborts += 1;
                        self.forced.insert(h, report.clone());
                        events.push(TimeoutEvent::HolderAborted { lock, holder: h, report });
                    } else {
                        events.push(TimeoutEvent::HolderNotInTxn { lock, holder: h });
                    }
                }
                _ => events.push(TimeoutEvent::Stale { lock }),
            }
        }
        events
    }

    /// Convenience driver: acquire `lock`, advancing virtual time and
    /// firing time-outs until granted or `max_timeouts` time-outs have
    /// fired without progress. Returns the time-out events encountered.
    ///
    /// This is the deterministic analogue of a blocking kernel lock
    /// acquire and demonstrates Rule 9 (forward progress despite a
    /// faulty graft holding the lock).
    pub fn lock_blocking(
        &mut self,
        lock: LockId,
        thread: ThreadId,
        max_timeouts: usize,
    ) -> (bool, Vec<TimeoutEvent>) {
        let mut events = Vec::new();
        for _ in 0..=max_timeouts {
            match self.lock(lock, thread) {
                LockOutcome::Granted => return (true, events),
                LockOutcome::Blocked { deadline, .. } => {
                    let t0 = self.obs.clock().now();
                    self.obs.clock().advance_to(deadline);
                    self.obs.mark_since(SpanKind::LockWait, t0);
                    events.extend(self.fire_due_timeouts());
                }
            }
        }
        (false, events)
    }
}

impl fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnManager")
            .field("active_threads", &self.stacks.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn mgr() -> TxnManager {
        TxnManager::new(VirtualClock::new())
    }

    #[test]
    fn begin_commit_costs_match_paper() {
        let mut m = mgr();
        let t0 = m.clock().now();
        m.begin(T1);
        assert_eq!(m.clock().since(t0), costs::TXN_BEGIN);
        let t1 = m.clock().now();
        let rep = m.commit(T1).unwrap();
        assert!(!rep.nested);
        assert_eq!(m.clock().since(t1), costs::TXN_COMMIT);
        // Begin+commit == the paper's 64-66us "null graft" transaction
        // envelope.
        let total = (costs::TXN_BEGIN + costs::TXN_COMMIT).as_us();
        assert!((60.0..=90.0).contains(&total));
    }

    #[test]
    fn commit_without_txn_errors() {
        let mut m = mgr();
        assert_eq!(m.commit(T1), Err(TxnError::NoTransaction(T1)));
        assert_eq!(m.abort(T1, AbortReason::Explicit), Err(TxnError::NoTransaction(T1)));
    }

    #[test]
    fn abort_runs_undo_lifo_and_restores_state() {
        // Model kernel state: a counter an accessor increments.
        let state = Rc::new(RefCell::new(0i64));
        let mut m = mgr();
        m.begin(T1);
        for _ in 0..5 {
            *state.borrow_mut() += 1; // The accessor's forward action.
            let s = Rc::clone(&state);
            m.log_undo(T1, "dec", Cycles(100), move || *s.borrow_mut() -= 1).unwrap();
        }
        assert_eq!(*state.borrow(), 5);
        assert_eq!(m.pending_undo(T1), 5);
        let rep = m.abort(T1, AbortReason::Explicit).unwrap();
        assert_eq!(rep.undo_ops, 5);
        assert_eq!(*state.borrow(), 0, "abort must restore pre-txn state");
        assert!(!m.in_txn(T1));
    }

    #[test]
    fn abort_cost_equation() {
        // §4.5: abort = 35us + 10us*L + cG. Build a txn with L locks and
        // undo cost G', assert the charge matches exactly.
        for locks in 0..4usize {
            let mut m = mgr();
            let ids: Vec<LockId> = (0..locks).map(|_| m.create_lock(LockClass::Buffer)).collect();
            m.begin(T1);
            for id in &ids {
                assert_eq!(m.lock(*id, T1), LockOutcome::Granted);
            }
            let undo_cost = Cycles::from_us(12);
            m.log_undo(T1, "undo", undo_cost, || {}).unwrap();
            let rep = m.abort(T1, AbortReason::Explicit).unwrap();
            let expect = costs::TXN_ABORT_OVERHEAD
                + Cycles(costs::ABORT_UNLOCK.0 * locks as u64)
                + undo_cost;
            assert_eq!(rep.cost, expect, "L = {locks}");
            assert_eq!(rep.locks_released, locks);
        }
    }

    #[test]
    fn commit_discards_undo() {
        let state = Rc::new(RefCell::new(0i64));
        let mut m = mgr();
        m.begin(T1);
        *state.borrow_mut() = 42;
        let s = Rc::clone(&state);
        m.log_undo(T1, "reset", Cycles(1), move || *s.borrow_mut() = 0).unwrap();
        m.commit(T1).unwrap();
        assert_eq!(*state.borrow(), 42, "commit must not undo");
    }

    #[test]
    fn log_undo_without_txn_errors() {
        let mut m = mgr();
        assert!(m.log_undo(T1, "x", Cycles(1), || {}).is_err());
    }

    #[test]
    fn nested_commit_merges_into_parent() {
        let state = Rc::new(RefCell::new(Vec::<&'static str>::new()));
        let mut m = mgr();
        let l_outer = m.create_lock(LockClass::Buffer);
        let l_inner = m.create_lock(LockClass::Buffer);
        m.begin(T1);
        m.lock(l_outer, T1);
        let s = Rc::clone(&state);
        m.log_undo(T1, "outer", Cycles(1), move || s.borrow_mut().push("undo-outer")).unwrap();

        let inner = m.begin(T1); // Nested.
        assert_eq!(m.depth(T1), 2);
        m.lock(l_inner, T1);
        let s = Rc::clone(&state);
        m.log_undo(T1, "inner", Cycles(1), move || s.borrow_mut().push("undo-inner")).unwrap();
        let rep = m.commit(T1).unwrap();
        assert!(rep.nested);
        assert_eq!(rep.txn, inner);
        assert_eq!(rep.locks_released, 0, "nested commit must not release locks");
        assert_eq!(m.lock_table().holder(l_inner), Some(T1), "lock survives nested commit");

        // Parent abort now reverses both, child's op first.
        let rep = m.abort(T1, AbortReason::Explicit).unwrap();
        assert_eq!(rep.undo_ops, 2);
        assert_eq!(rep.locks_released, 2);
        assert_eq!(*state.borrow(), vec!["undo-inner", "undo-outer"]);
        assert_eq!(m.lock_table().holder(l_outer), None);
    }

    #[test]
    fn nested_abort_spares_parent() {
        // "any graft can abort without aborting its calling graft".
        let state = Rc::new(RefCell::new(0i64));
        let mut m = mgr();
        m.begin(T1);
        *state.borrow_mut() += 1;
        let s = Rc::clone(&state);
        m.log_undo(T1, "outer", Cycles(1), move || *s.borrow_mut() -= 1).unwrap();

        m.begin(T1);
        *state.borrow_mut() += 10;
        let s = Rc::clone(&state);
        m.log_undo(T1, "inner", Cycles(1), move || *s.borrow_mut() -= 10).unwrap();
        m.abort(T1, AbortReason::Explicit).unwrap();

        assert_eq!(*state.borrow(), 1, "only the inner delta reversed");
        assert!(m.in_txn(T1), "parent still active");
        m.commit(T1).unwrap();
        assert_eq!(*state.borrow(), 1);
    }

    #[test]
    fn txn_lock_costs_more_than_mutex() {
        // §4.6: a transaction lock adds ~19us over a conventional mutex.
        let mut m = mgr();
        let l = m.create_lock(LockClass::Buffer);
        let t0 = m.clock().now();
        m.lock(l, T1); // No txn: mutex path.
        let mutex_cost = m.clock().since(t0);
        m.unlock(l, T1);

        let mut m2 = mgr();
        let l2 = m2.create_lock(LockClass::Buffer);
        m2.begin(T2);
        let t0 = m2.clock().now();
        m2.lock(l2, T2);
        let txn_cost = m2.clock().since(t0);
        let delta = txn_cost.as_us() - mutex_cost.as_us();
        assert!((delta - 19.0).abs() < 1e-9, "delta = {delta}");
    }

    #[test]
    fn two_phase_locking_defers_release() {
        let mut m = mgr();
        let l = m.create_lock(LockClass::Buffer);
        m.begin(T1);
        m.lock(l, T1);
        // An explicit unlock inside the transaction is deferred.
        assert_eq!(m.unlock(l, T1), None);
        assert_eq!(m.lock_table().holder(l), Some(T1));
        // Commit releases it.
        let rep = m.commit(T1).unwrap();
        assert_eq!(rep.locks_released, 1);
        assert_eq!(m.lock_table().holder(l), None);
    }

    #[test]
    fn lock_timeout_aborts_hoarding_holder() {
        // The §2.2 malicious fragment: lock(resourceA); while(1);
        let mut m = mgr();
        let l = m.create_lock(LockClass::Buffer);
        m.begin(T1);
        m.lock(l, T1);
        // T2 wants the lock; T1 spins forever.
        let out = m.lock(l, T2);
        let LockOutcome::Blocked { holder, deadline } = out else {
            panic!("expected contention");
        };
        assert_eq!(holder, T1);
        // Deadline is tick-rounded: between timeout and timeout + 10ms.
        let timeout = LockClass::Buffer.timeout();
        assert!(deadline >= timeout);
        assert!(deadline.get() <= (timeout + costs::CLOCK_TICK).get());
        // Advance to the deadline and fire.
        m.clock().advance_to(deadline);
        let events = m.fire_due_timeouts();
        assert_eq!(events.len(), 1);
        match &events[0] {
            TimeoutEvent::HolderAborted { lock, holder, report } => {
                assert_eq!(*lock, l);
                assert_eq!(*holder, T1);
                assert_eq!(report.locks_released, 1);
            }
            other => panic!("expected HolderAborted, got {other:?}"),
        }
        // T2 can now take the lock: forward progress (Rule 9).
        assert_eq!(m.lock(l, T2), LockOutcome::Granted);
        assert_eq!(m.stats().timeout_aborts, 1);
    }

    #[test]
    fn timeout_stale_when_contention_resolved() {
        let mut m = mgr();
        let l = m.create_lock(LockClass::Buffer);
        m.begin(T1);
        m.lock(l, T1);
        let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else { panic!() };
        // Holder commits (releasing) before the deadline.
        m.commit(T1).unwrap();
        m.lock(l, T2);
        m.clock().advance_to(deadline);
        let events = m.fire_due_timeouts();
        assert!(matches!(events[0], TimeoutEvent::Stale { .. }));
        assert_eq!(m.stats().timeout_aborts, 0);
    }

    #[test]
    fn timeout_on_non_txn_holder_reports() {
        let mut m = mgr();
        let l = m.create_lock(LockClass::Buffer);
        m.lock(l, T1); // Plain mutex hold, no txn.
        let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else { panic!() };
        m.clock().advance_to(deadline);
        let events = m.fire_due_timeouts();
        assert!(matches!(events[0], TimeoutEvent::HolderNotInTxn { .. }));
    }

    #[test]
    fn deadlock_broken_by_timeout() {
        // A holds L1 wants L2; B holds L2 wants L1. Time-outs must
        // abort one and let the other proceed (§3.2: "implicit
        // mechanism for breaking deadlocks").
        let mut m = mgr();
        let l1 = m.create_lock(LockClass::Buffer);
        let l2 = m.create_lock(LockClass::Buffer);
        m.begin(T1);
        m.begin(T2);
        assert_eq!(m.lock(l1, T1), LockOutcome::Granted);
        assert_eq!(m.lock(l2, T2), LockOutcome::Granted);
        let LockOutcome::Blocked { .. } = m.lock(l2, T1) else { panic!() };
        let LockOutcome::Blocked { .. } = m.lock(l1, T2) else { panic!() };
        // Advance to the first deadline; at least one holder aborts.
        let dl = m.next_timeout().unwrap();
        m.clock().advance_to(dl);
        let events = m.fire_due_timeouts();
        let aborted: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TimeoutEvent::HolderAborted { holder, .. } => Some(*holder),
                _ => None,
            })
            .collect();
        assert!(!aborted.is_empty(), "deadlock must be broken");
        // Some thread can now make progress on both locks.
        let survivor = if aborted.contains(&T1) { T2 } else { T1 };
        let (ok1, _) = m.lock_blocking(l1, survivor, 4);
        let (ok2, _) = m.lock_blocking(l2, survivor, 4);
        assert!(ok1 && ok2, "survivor must acquire both locks");
    }

    #[test]
    fn lock_blocking_drives_to_acquisition() {
        let mut m = mgr();
        let l = m.create_lock(LockClass::SharedBuffer);
        m.begin(T1);
        m.lock(l, T1);
        let (ok, events) = m.lock_blocking(l, T2, 3);
        assert!(ok, "Rule 9: waiter must eventually make progress");
        assert!(events.iter().any(|e| matches!(e, TimeoutEvent::HolderAborted { .. })));
    }

    #[test]
    fn reentrant_lock_recorded_once() {
        let mut m = mgr();
        let l = m.create_lock(LockClass::Buffer);
        m.begin(T1);
        m.lock(l, T1);
        m.lock(l, T1);
        let rep = m.abort(T1, AbortReason::Explicit).unwrap();
        assert_eq!(rep.locks_released, 1, "re-entrant holds count as one lock");
        assert_eq!(m.lock_table().holder(l), None);
    }

    #[test]
    fn trace_plane_sees_lock_lifecycle() {
        use vino_sim::trace::TracePlane;
        let mut m = mgr();
        let plane = TracePlane::new(Rc::clone(m.clock()));
        m.obs().attach_trace(Rc::clone(&plane)).unwrap();
        let l = m.create_lock(LockClass::Buffer);
        let txn = m.begin(T1);
        m.lock(l, T1);
        m.log_undo(T1, "x", Cycles(1), || {}).unwrap();
        let LockOutcome::Blocked { deadline, .. } = m.lock(l, T2) else { panic!() };
        m.clock().advance_to(deadline);
        m.fire_due_timeouts();
        assert!(m.take_forced_abort(T1, txn).is_some());
        let evs: Vec<TraceEvent> = plane.records().iter().map(|r| r.event).collect();
        assert_eq!(
            evs,
            vec![
                TraceEvent::TxnBegin { thread: 1, txn: txn.0, depth: 1 },
                TraceEvent::LockAcquire { lock: l.0, thread: 1 },
                TraceEvent::UndoPush { thread: 1, depth: 1 },
                TraceEvent::LockBlocked { lock: l.0, waiter: 2, holder: 1 },
                TraceEvent::LockTimeout { lock: l.0, holder: 1 },
                TraceEvent::UndoRun { thread: 1, ops: 1 },
                TraceEvent::TxnAbort { thread: 1, txn: txn.0, locks: 1 },
                TraceEvent::LockSteal { thread: 1, txn: txn.0 },
            ]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mgr();
        m.begin(T1);
        m.begin(T1);
        m.commit(T1).unwrap();
        m.log_undo(T1, "x", Cycles(1), || {}).unwrap();
        m.abort(T1, AbortReason::Explicit).unwrap();
        let s = m.stats();
        assert_eq!(s.begins, 2);
        assert_eq!(s.nested_commits, 1);
        assert_eq!(s.commits, 0);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.undo_ops_run, 1);
    }
}
