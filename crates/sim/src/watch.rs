//! The deterministic watch plane: sliding-window SLOs over the virtual
//! clock, and the alert stream that drives admission control.
//!
//! The trace plane answers *what happened*, the metrics plane *how
//! much*; this plane answers *is it acceptable right now*. Subsystems
//! feed fixed-capacity sliding-window aggregators — abort rate,
//! invocation p99 cycles, quarantine churn, RX shed rate, journal
//! occupancy, lock-timeout rate, replication lag — and every
//! observation is evaluated
//! against a declarative [`SloRule`] table. When a rule's windowed
//! value crosses its threshold the plane records a `firing` edge into a
//! pre-allocated alert ring (a `resolved` edge when it recedes), with
//! per-principal blame, so the whole alert history serializes to a
//! canonical, golden-pinnable stream ([`WatchPlane::serialize`]).
//!
//! Design discipline matches the other planes:
//!
//! - **Zero allocations on the hot path.** Windows are fixed bucket
//!   arrays, the p99 aggregator a fixed sample ring sorted into a stack
//!   scratch, principal slots a pre-reserved table, alert records
//!   `Copy` stores into a pre-reserved ring — proven by
//!   `cargo test --test zero_alloc`.
//! - **Deterministic.** Everything is integer arithmetic over the
//!   virtual clock; two same-seed runs produce byte-identical alert
//!   streams (`tests/watch_battery.rs`).
//! - **Attach-once.** `Kernel::attach_watch_plane` wires one shared
//!   handle through the graft engine, file system, transaction manager
//!   and packet plane; a second attach is refused.
//! - **Passive but consulted.** Observing never charges the clock; the
//!   one component that *reads* the plane is the kernel's admission
//!   controller, which denies installs from principals with firing
//!   per-principal alerts (`docs/WATCH.md`).
//!
//! With a trace plane attached ([`WatchPlane::set_trace_plane`]), every
//! alert edge is mirrored as a `watch.*` trace event so alerts land on
//! the ASCII timeline next to the aborts that caused them.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};
use crate::trace::{GraftTag, TraceEvent, TracePlane};

/// Default alert-ring capacity, in records.
pub const DEFAULT_ALERT_CAPACITY: usize = 256;

/// Default pre-reserved principal slots (observing a principal beyond
/// this still works, but the slot table reallocates).
pub const DEFAULT_PRINCIPAL_CAPACITY: usize = 32;

/// Buckets per sliding window. The window is covered by `BUCKETS`
/// equal-width time buckets; rotating is O(buckets skipped), capped.
const BUCKETS: usize = 8;

/// Fixed rule-table ceiling (rule state lives in fixed arrays).
pub const MAX_RULES: usize = 8;

/// Samples held by the invocation-latency window.
const P99_SAMPLES: usize = 128;

// ---------------------------------------------------------------------------
// Signals and rules.
// ---------------------------------------------------------------------------

/// The windowed signal a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Graft aborts in the window (per principal).
    AbortRate,
    /// p99 of invocation cycle costs in the window (global).
    InvokeP99,
    /// Quarantine trips in the window (per principal).
    QuarantineChurn,
    /// RX packets shed (watermark + overflow) in the window (global).
    RxShed,
    /// Journal-region occupancy, in permille of capacity (global
    /// gauge; the window is ignored).
    JournalOccupancy,
    /// Lock time-outs fired in the window (global).
    LockTimeoutRate,
    /// Replication lag — committed-but-unacked journal records on the
    /// primary's shipping window (global gauge; the window is ignored).
    ReplicationLag,
}

/// One declarative SLO rule: when `signal`'s windowed value reaches
/// `threshold`, an alert fires (per principal for per-principal
/// signals, globally otherwise) until the value recedes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloRule {
    /// Canonical rule name, used in the alert stream and trace events.
    pub name: &'static str,
    /// The watched signal.
    pub signal: Signal,
    /// Sliding-window span on the virtual clock.
    pub window: Cycles,
    /// Inclusive firing threshold (counts, cycles, or permille —
    /// whatever the signal's value is measured in).
    pub threshold: u64,
}

impl SloRule {
    /// True when this rule keeps independent state (and fires) per
    /// principal rather than globally.
    pub fn per_principal(&self) -> bool {
        matches!(self.signal, Signal::AbortRate | Signal::QuarantineChurn)
    }
}

/// The default rule table (`docs/WATCH.md` documents each choice).
pub fn default_rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "abort-storm",
            signal: Signal::AbortRate,
            window: Cycles::from_ms(1000),
            threshold: 3,
        },
        SloRule {
            name: "quarantine-churn",
            signal: Signal::QuarantineChurn,
            window: Cycles::from_ms(5000),
            threshold: 2,
        },
        SloRule {
            name: "invoke-p99",
            signal: Signal::InvokeP99,
            window: Cycles::from_ms(1000),
            threshold: Cycles::from_ms(5).get(),
        },
        SloRule {
            name: "rx-shed",
            signal: Signal::RxShed,
            window: Cycles::from_ms(1000),
            threshold: 8,
        },
        SloRule {
            name: "journal-full",
            signal: Signal::JournalOccupancy,
            window: Cycles::from_ms(1000),
            threshold: 750,
        },
        SloRule {
            name: "lock-starved",
            signal: Signal::LockTimeoutRate,
            window: Cycles::from_ms(1000),
            threshold: 3,
        },
        SloRule {
            name: "replication-lag",
            signal: Signal::ReplicationLag,
            window: Cycles::from_ms(1000),
            threshold: 8,
        },
    ]
}

// ---------------------------------------------------------------------------
// Windows.
// ---------------------------------------------------------------------------

/// A fixed-bucket sliding count window over the virtual clock. Bucket
/// `epoch` math is pure integer arithmetic, so rotation is
/// deterministic and allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CountWindow {
    buckets: [u64; BUCKETS],
    /// Bucket width in cycles (`window / BUCKETS`, at least 1).
    width: u64,
    /// Absolute bucket index `head` currently covers.
    epoch: u64,
    head: usize,
}

impl CountWindow {
    fn new(window: Cycles) -> CountWindow {
        CountWindow {
            buckets: [0; BUCKETS],
            width: (window.get() / BUCKETS as u64).max(1),
            epoch: 0,
            head: 0,
        }
    }

    /// Advances `head` to the bucket covering `now`, zeroing skipped
    /// buckets (capped at one full revolution).
    fn rotate_to(&mut self, now: Cycles) {
        let e = now.get() / self.width;
        if e <= self.epoch {
            return; // Same bucket; the clock never runs backwards.
        }
        let advance = (e - self.epoch).min(BUCKETS as u64) as usize;
        for _ in 0..advance {
            self.head = (self.head + 1) % BUCKETS;
            self.buckets[self.head] = 0;
        }
        self.epoch = e;
    }

    fn add(&mut self, now: Cycles, n: u64) {
        self.rotate_to(now);
        self.buckets[self.head] += n;
    }

    fn sum(&mut self, now: Cycles) -> u64 {
        self.rotate_to(now);
        self.buckets.iter().sum()
    }
}

/// A fixed-capacity ring of `(stamp, value)` samples; the p99 is
/// computed over in-window samples via a stack scratch array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SampleWindow {
    samples: [(u64, u64); P99_SAMPLES],
    len: usize,
    head: usize,
}

impl SampleWindow {
    fn new() -> SampleWindow {
        SampleWindow { samples: [(0, 0); P99_SAMPLES], len: 0, head: 0 }
    }

    fn push(&mut self, at: Cycles, value: u64) {
        self.samples[self.head] = (at.get(), value);
        self.head = (self.head + 1) % P99_SAMPLES;
        self.len = (self.len + 1).min(P99_SAMPLES);
    }

    /// p99 (bucketless, exact over retained samples) of samples whose
    /// stamp falls inside `[now - window, now]`; 0 when none do.
    fn p99(&self, now: Cycles, window: Cycles) -> u64 {
        let lo = now.get().saturating_sub(window.get());
        let mut scratch = [0u64; P99_SAMPLES];
        let mut n = 0usize;
        for &(at, v) in self.samples.iter().take(self.len) {
            if at >= lo && at <= now.get() {
                scratch[n] = v;
                n += 1;
            }
        }
        if n == 0 {
            return 0;
        }
        scratch[..n].sort_unstable();
        let rank = (n as u64 * 99).div_ceil(100).max(1) as usize;
        scratch[rank - 1]
    }
}

// ---------------------------------------------------------------------------
// Alert records and the ring.
// ---------------------------------------------------------------------------

/// Which way an alert edge went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertEdge {
    /// The rule's windowed value reached its threshold.
    Firing,
    /// The value receded below the threshold.
    Resolved,
}

impl AlertEdge {
    fn label(self) -> &'static str {
        match self {
            AlertEdge::Firing => "firing",
            AlertEdge::Resolved => "resolved",
        }
    }
}

/// One alert-stream record. `Copy`, so ring writes are plain stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertRecord {
    /// Monotonic sequence number (never wraps; survives ring eviction).
    pub seq: u64,
    /// Virtual-clock stamp.
    pub at: Cycles,
    /// Firing or resolved.
    pub edge: AlertEdge,
    /// Index into the plane's rule table.
    pub rule: u8,
    /// The blamed principal (0 for kernel-global signals).
    pub principal: u64,
    /// The windowed value at the edge.
    pub value: u64,
    /// The rule's threshold, for self-contained rendering.
    pub threshold: u64,
}

struct Ring {
    buf: Vec<AlertRecord>,
    cap: usize,
    head: usize,
}

impl Ring {
    fn push(&mut self, rec: AlertRecord) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(rec); // Within reserved capacity: no alloc.
            false
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            true
        }
    }

    fn ordered(&self) -> Vec<AlertRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

// ---------------------------------------------------------------------------
// Stats and state.
// ---------------------------------------------------------------------------

/// Lifetime observation and alert counters. Each observation counter
/// mirrors exactly one metrics-plane counter (or sum of two), so the
/// two planes reconcile event-for-event (asserted by the watch
/// battery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchStats {
    /// Graft installs observed (mirrors `GraftInstalls`).
    pub installs: u64,
    /// Invocation completions observed (mirrors `GraftCommits +
    /// GraftAborts`).
    pub invocations: u64,
    /// Graft aborts observed (mirrors `GraftAborts`).
    pub aborts: u64,
    /// Quarantine trips observed (mirrors `GraftQuarantines`).
    pub quarantines: u64,
    /// RX sheds observed (mirrors `NetRxSheds + NetRxOverflows`).
    pub sheds: u64,
    /// Journal appends observed (mirrors `FsJournalAppends`).
    pub journal_appends: u64,
    /// Lock time-outs observed (mirrors `LockTimeouts`).
    pub lock_timeouts: u64,
    /// Firing edges recorded.
    pub fired: u64,
    /// Resolved edges recorded.
    pub resolved: u64,
    /// Alert records overwritten after the ring filled.
    pub dropped: u64,
}

impl fmt::Display for WatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "installs={} invocations={} aborts={} quarantines={} sheds={} journal_appends={} \
             lock_timeouts={} fired={} resolved={} dropped={}",
            self.installs,
            self.invocations,
            self.aborts,
            self.quarantines,
            self.sheds,
            self.journal_appends,
            self.lock_timeouts,
            self.fired,
            self.resolved,
            self.dropped
        )
    }
}

/// Per-rule global evaluation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RuleCell {
    window: CountWindow,
    firing: bool,
    /// The principal blamed at the firing edge, echoed by the resolved
    /// edge so the pair reads as one episode.
    blamed: u64,
}

/// One principal's per-rule windows and firing flags (only
/// per-principal rules use their slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrincipalSlot {
    id: u64,
    windows: [CountWindow; MAX_RULES],
    firing: [bool; MAX_RULES],
}

/// An opaque snapshot of a [`WatchPlane`]'s full mutable state: the
/// rule table, alert ring, sequence counter, stats, windows and firing
/// flags. Captured by [`WatchPlane::export_state`], replanted by
/// [`WatchPlane::restore_state`] so a resumed replay appends to the
/// same alert stream and serializes byte-identically.
#[derive(Clone)]
pub struct WatchState {
    rules: Vec<SloRule>,
    records: Vec<AlertRecord>,
    cap: usize,
    seq: u64,
    stats: WatchStats,
    global: [RuleCell; MAX_RULES],
    journal_permille: u64,
    repl_lag: u64,
    repl_lag_age: u64,
    p99: SampleWindow,
    principals: Vec<PrincipalSlot>,
}

// ---------------------------------------------------------------------------
// The plane.
// ---------------------------------------------------------------------------

/// The shared watch plane handle (see module docs).
pub struct WatchPlane {
    clock: Rc<VirtualClock>,
    rules: Vec<SloRule>,
    ring: RefCell<Ring>,
    seq: Cell<u64>,
    stats: Cell<WatchStats>,
    global: RefCell<[RuleCell; MAX_RULES]>,
    /// Last observed journal occupancy, permille of capacity.
    journal_permille: Cell<u64>,
    /// Last observed replication lag, in unacked committed records.
    repl_lag: Cell<u64>,
    /// Last observed replication-lag *age*: virtual cycles since the
    /// oldest unacked record's commit marker sealed (0 when caught up).
    repl_lag_age: Cell<u64>,
    p99: RefCell<SampleWindow>,
    principals: RefCell<Vec<PrincipalSlot>>,
    trace: RefCell<Option<Rc<TracePlane>>>,
    /// Rule names interned into the trace plane at attach time, so
    /// edge mirroring stays allocation-free.
    rule_tags: RefCell<Vec<GraftTag>>,
}

impl WatchPlane {
    /// A plane with the default rules and capacities.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<WatchPlane> {
        WatchPlane::with_rules(clock, default_rules())
    }

    /// A plane evaluating `rules`, with default capacities.
    ///
    /// # Panics
    ///
    /// Panics when `rules` exceeds [`MAX_RULES`] (rule state lives in
    /// fixed arrays) or is empty.
    pub fn with_rules(clock: Rc<VirtualClock>, rules: Vec<SloRule>) -> Rc<WatchPlane> {
        WatchPlane::with_capacity(clock, rules, DEFAULT_ALERT_CAPACITY, DEFAULT_PRINCIPAL_CAPACITY)
    }

    /// Full-control constructor: `alerts` ring slots, `principals`
    /// pre-reserved principal slots. Everything is reserved here;
    /// observing never allocates while within capacity.
    pub fn with_capacity(
        clock: Rc<VirtualClock>,
        rules: Vec<SloRule>,
        alerts: usize,
        principals: usize,
    ) -> Rc<WatchPlane> {
        assert!(!rules.is_empty(), "a watch plane needs at least one rule");
        assert!(rules.len() <= MAX_RULES, "at most {MAX_RULES} rules");
        assert!(alerts > 0, "alert ring capacity must be non-zero");
        let global = std::array::from_fn(|i| RuleCell {
            window: CountWindow::new(rules.get(i).map_or(Cycles(1), |r| r.window)),
            firing: false,
            blamed: 0,
        });
        Rc::new(WatchPlane {
            clock,
            rules,
            ring: RefCell::new(Ring { buf: Vec::with_capacity(alerts), cap: alerts, head: 0 }),
            seq: Cell::new(0),
            stats: Cell::new(WatchStats::default()),
            global: RefCell::new(global),
            journal_permille: Cell::new(0),
            repl_lag: Cell::new(0),
            repl_lag_age: Cell::new(0),
            p99: RefCell::new(SampleWindow::new()),
            principals: RefCell::new(Vec::with_capacity(principals)),
            trace: RefCell::new(None),
            rule_tags: RefCell::new(Vec::new()),
        })
    }

    /// The clock observations are stamped from.
    pub fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    /// The rule table, in evaluation (and alert-stream `rule=`) order.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Mirrors every alert edge as a `watch.*` event on `plane`. Rule
    /// names are interned here, off the hot path.
    pub fn set_trace_plane(&self, plane: Rc<TracePlane>) {
        *self.rule_tags.borrow_mut() = self.rules.iter().map(|r| plane.tag(r.name)).collect();
        *self.trace.borrow_mut() = Some(plane);
    }

    /// Pre-creates `principal`'s slot (allocation-count proofs warm
    /// slots the same way metrics interning does).
    pub fn touch_principal(&self, principal: u64) {
        self.slot_index(principal);
    }

    // -- observations (the hot path) ----------------------------------------

    /// One graft install by `principal`.
    pub fn observe_install(&self, _principal: u64) {
        let mut s = self.stats.get();
        s.installs += 1;
        self.stats.set(s);
    }

    /// One completed invocation billed to `principal` costing `cost`
    /// cycles (committed or aborted — aborts also call
    /// [`observe_abort`](Self::observe_abort)).
    pub fn observe_invoke(&self, principal: u64, cost: Cycles) {
        let now = self.clock.now();
        let mut s = self.stats.get();
        s.invocations += 1;
        self.stats.set(s);
        self.p99.borrow_mut().push(now, cost.get());
        self.eval_signal(Signal::InvokeP99, principal, now);
    }

    /// One graft abort blamed on `principal`.
    pub fn observe_abort(&self, principal: u64) {
        let now = self.clock.now();
        let mut s = self.stats.get();
        s.aborts += 1;
        self.stats.set(s);
        self.bump_principal(Signal::AbortRate, principal, now);
    }

    /// One quarantine trip blamed on `principal`.
    pub fn observe_quarantine(&self, principal: u64) {
        let now = self.clock.now();
        let mut s = self.stats.get();
        s.quarantines += 1;
        self.stats.set(s);
        self.bump_principal(Signal::QuarantineChurn, principal, now);
    }

    /// One RX packet shed (watermark or overflow).
    pub fn observe_shed(&self) {
        let now = self.clock.now();
        let mut s = self.stats.get();
        s.sheds += 1;
        self.stats.set(s);
        self.bump_global(Signal::RxShed, now);
    }

    /// One journal append leaving `occupied` of `capacity` blocks in
    /// the journal region.
    pub fn observe_journal(&self, occupied: u64, capacity: u64) {
        let now = self.clock.now();
        let mut s = self.stats.get();
        s.journal_appends += 1;
        self.stats.set(s);
        self.journal_permille.set(occupied.saturating_mul(1000) / capacity.max(1));
        self.eval_signal(Signal::JournalOccupancy, 0, now);
    }

    /// One replication-plane progress report: `lag` committed journal
    /// records are shipped-or-pending but not yet cumulatively acked by
    /// the replica.
    pub fn observe_repl_lag(&self, lag: u64) {
        let now = self.clock.now();
        self.repl_lag.set(lag);
        self.eval_signal(Signal::ReplicationLag, 0, now);
    }

    /// The last observed replication lag, in unacked committed records.
    pub fn repl_lag(&self) -> u64 {
        self.repl_lag.get()
    }

    /// One replication-lag *age* report: the oldest unacked committed
    /// record sealed `age` virtual cycles ago (pass [`Cycles::ZERO`]
    /// when the window is empty). A pure gauge — no SLO rule keys on
    /// it — whose value the `vino-bench lagpath` per-hop breakdown
    /// reconciles against exactly.
    pub fn observe_repl_lag_age(&self, age: Cycles) {
        self.repl_lag_age.set(age.get());
    }

    /// The last observed replication-lag age, in virtual cycles.
    pub fn repl_lag_age(&self) -> Cycles {
        Cycles(self.repl_lag_age.get())
    }

    /// One fired lock time-out.
    pub fn observe_lock_timeout(&self) {
        let now = self.clock.now();
        let mut s = self.stats.get();
        s.lock_timeouts += 1;
        self.stats.set(s);
        self.bump_global(Signal::LockTimeoutRate, now);
    }

    /// Rotates every window to `now` and emits `resolved` edges for
    /// alerts whose value has receded. Windows only decay with time, so
    /// a poll never *fires* — call it before consulting firing state
    /// (the admission controller does).
    pub fn poll(&self) {
        let now = self.clock.now();
        for i in 0..self.rules.len() {
            if self.rules[i].per_principal() {
                let n = self.principals.borrow().len();
                for p in 0..n {
                    self.eval_principal_rule(i, p, now);
                }
            } else {
                self.eval_global_rule(i, 0, now);
            }
        }
    }

    // -- evaluation ---------------------------------------------------------

    fn bump_global(&self, signal: Signal, now: Cycles) {
        for i in 0..self.rules.len() {
            if self.rules[i].signal == signal {
                self.global.borrow_mut()[i].window.add(now, 1);
                self.eval_global_rule(i, 0, now);
            }
        }
    }

    fn bump_principal(&self, signal: Signal, principal: u64, now: Cycles) {
        let slot = self.slot_index(principal);
        for i in 0..self.rules.len() {
            if self.rules[i].signal == signal {
                self.principals.borrow_mut()[slot].windows[i].add(now, 1);
                self.eval_principal_rule(i, slot, now);
            }
        }
    }

    /// Re-evaluates every rule on `signal` without bumping a window
    /// (gauge- and sample-backed signals).
    fn eval_signal(&self, signal: Signal, blame: u64, now: Cycles) {
        for i in 0..self.rules.len() {
            if self.rules[i].signal == signal {
                self.eval_global_rule(i, blame, now);
            }
        }
    }

    fn global_value(&self, i: usize, now: Cycles) -> u64 {
        match self.rules[i].signal {
            Signal::JournalOccupancy => self.journal_permille.get(),
            Signal::ReplicationLag => self.repl_lag.get(),
            Signal::InvokeP99 => self.p99.borrow().p99(now, self.rules[i].window),
            _ => self.global.borrow_mut()[i].window.sum(now),
        }
    }

    fn eval_global_rule(&self, i: usize, blame: u64, now: Cycles) {
        let value = self.global_value(i, now);
        let firing = value >= self.rules[i].threshold;
        let (was, blamed) = {
            let g = self.global.borrow();
            (g[i].firing, g[i].blamed)
        };
        if firing == was {
            return;
        }
        let principal = if firing { blame } else { blamed };
        {
            let mut g = self.global.borrow_mut();
            g[i].firing = firing;
            g[i].blamed = principal;
        }
        self.edge(
            if firing { AlertEdge::Firing } else { AlertEdge::Resolved },
            i,
            principal,
            value,
        );
    }

    fn eval_principal_rule(&self, i: usize, slot: usize, now: Cycles) {
        let (id, value, was) = {
            let mut p = self.principals.borrow_mut();
            let s = &mut p[slot];
            (s.id, s.windows[i].sum(now), s.firing[i])
        };
        let firing = value >= self.rules[i].threshold;
        if firing == was {
            return;
        }
        self.principals.borrow_mut()[slot].firing[i] = firing;
        self.edge(if firing { AlertEdge::Firing } else { AlertEdge::Resolved }, i, id, value);
    }

    fn edge(&self, edge: AlertEdge, rule: usize, principal: u64, value: u64) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let rec = AlertRecord {
            seq,
            at: self.clock.now(),
            edge,
            rule: rule as u8,
            principal,
            value,
            threshold: self.rules[rule].threshold,
        };
        let mut s = self.stats.get();
        match edge {
            AlertEdge::Firing => s.fired += 1,
            AlertEdge::Resolved => s.resolved += 1,
        }
        if self.ring.borrow_mut().push(rec) {
            s.dropped += 1;
        }
        self.stats.set(s);
        if let Some(tp) = self.trace.borrow().as_ref() {
            let tag = self.rule_tags.borrow()[rule];
            tp.emit(match edge {
                AlertEdge::Firing => TraceEvent::WatchAlertFiring { rule: tag, principal },
                AlertEdge::Resolved => TraceEvent::WatchAlertResolved { rule: tag, principal },
            });
        }
    }

    fn slot_index(&self, principal: u64) -> usize {
        let mut p = self.principals.borrow_mut();
        if let Some(i) = p.iter().position(|s| s.id == principal) {
            return i;
        }
        p.push(PrincipalSlot {
            id: principal,
            windows: std::array::from_fn(|i| {
                CountWindow::new(self.rules.get(i).map_or(Cycles(1), |r| r.window))
            }),
            firing: [false; MAX_RULES],
        });
        p.len() - 1
    }

    // -- consultation -------------------------------------------------------

    /// True when any *per-principal* rule is firing for `principal`
    /// right now (polls first, so stale alerts resolve before they can
    /// deny anyone). This is the admission controller's question.
    pub fn principal_firing(&self, principal: u64) -> bool {
        self.poll();
        let p = self.principals.borrow();
        let Some(slot) = p.iter().find(|s| s.id == principal) else {
            return false;
        };
        (0..self.rules.len()).any(|i| self.rules[i].per_principal() && slot.firing[i])
    }

    /// Every currently firing alert as `(rule name, principal, value)`,
    /// in rule-table order then principal-slot order. Polls first.
    pub fn firing(&self) -> Vec<(&'static str, u64, u64)> {
        self.poll();
        let now = self.clock.now();
        let mut out = Vec::new();
        for i in 0..self.rules.len() {
            if self.rules[i].per_principal() {
                let n = self.principals.borrow().len();
                for slot in 0..n {
                    let (id, firing) = {
                        let p = self.principals.borrow();
                        (p[slot].id, p[slot].firing[i])
                    };
                    if firing {
                        let value = self.principals.borrow_mut()[slot].windows[i].sum(now);
                        out.push((self.rules[i].name, id, value));
                    }
                }
            } else if self.global.borrow()[i].firing {
                let blamed = self.global.borrow()[i].blamed;
                out.push((self.rules[i].name, blamed, self.global_value(i, now)));
            }
        }
        out
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WatchStats {
        self.stats.get()
    }

    /// Alert edges recorded so far (equals the next record's `seq`).
    pub fn len(&self) -> u64 {
        self.seq.get()
    }

    /// True when no alert edge was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.seq.get() == 0
    }

    /// The ring's current records, oldest first.
    pub fn records(&self) -> Vec<AlertRecord> {
        self.ring.borrow().ordered()
    }

    // -- rendering (off the hot path) ---------------------------------------

    /// Renders one record in the canonical line format:
    /// `SEQ @CYCLES watch.EDGE rule=NAME principal=P value=V threshold=T`.
    pub fn render(&self, r: &AlertRecord) -> String {
        let name = self.rules.get(r.rule as usize).map_or("?rule", |x| x.name);
        format!(
            "{:06} @{:012} watch.{} rule={} principal={} value={} threshold={}",
            r.seq,
            r.at.get(),
            r.edge.label(),
            name,
            r.principal,
            r.value,
            r.threshold
        )
    }

    /// Serializes the alert ring (oldest first) to the canonical line
    /// format, one record per line, trailing newline. Identical seeds
    /// and call sequences yield byte-identical output.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&self.render(&r));
            out.push('\n');
        }
        out
    }

    /// The canonical live view: currently firing alerts (after a
    /// poll), then the lifetime stats line. Byte-identical across
    /// same-seed runs.
    pub fn snapshot(&self) -> String {
        let firing = self.firing();
        let mut out =
            format!("== watch: {} alert edges recorded, {} firing ==\n", self.len(), firing.len());
        for (name, principal, value) in &firing {
            out.push_str(&format!("firing: {name} principal={principal} value={value}\n"));
        }
        out.push_str(&format!("stats: {}\n", self.stats()));
        out
    }

    // -- checkpointing ------------------------------------------------------

    /// Snapshots the plane's full mutable state for a checkpoint.
    pub fn export_state(&self) -> WatchState {
        WatchState {
            rules: self.rules.clone(),
            records: self.ring.borrow().ordered(),
            cap: self.ring.borrow().cap,
            seq: self.seq.get(),
            stats: self.stats.get(),
            global: *self.global.borrow(),
            journal_permille: self.journal_permille.get(),
            repl_lag: self.repl_lag.get(),
            repl_lag_age: self.repl_lag_age.get(),
            p99: *self.p99.borrow(),
            principals: self.principals.borrow().clone(),
        }
    }

    /// Replants a [`WatchState`] capture: the ring, counters, windows
    /// and firing flags resume exactly where the capture left them, so
    /// later observations continue the same alert stream.
    ///
    /// # Panics
    ///
    /// Panics when the captured rule table differs from this plane's —
    /// a restored world must be built with the same rules.
    pub fn restore_state(&self, st: &WatchState) {
        assert_eq!(st.rules, self.rules, "watch restore requires an identical rule table");
        let mut buf = Vec::with_capacity(st.cap);
        buf.extend_from_slice(&st.records);
        *self.ring.borrow_mut() = Ring { buf, cap: st.cap, head: 0 };
        self.seq.set(st.seq);
        self.stats.set(st.stats);
        *self.global.borrow_mut() = st.global;
        self.journal_permille.set(st.journal_permille);
        self.repl_lag.set(st.repl_lag);
        self.repl_lag_age.set(st.repl_lag_age);
        *self.p99.borrow_mut() = st.p99;
        *self.principals.borrow_mut() = st.principals.clone();
    }
}

impl fmt::Debug for WatchPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WatchPlane")
            .field("rules", &self.rules.len())
            .field("len", &self.seq.get())
            .field("stats", &self.stats.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abort_rule() -> SloRule {
        SloRule {
            name: "abort-storm",
            signal: Signal::AbortRate,
            window: Cycles(8000),
            threshold: 3,
        }
    }

    fn plane_with(rules: Vec<SloRule>) -> (Rc<WatchPlane>, Rc<VirtualClock>) {
        let clock = VirtualClock::new();
        (WatchPlane::with_rules(Rc::clone(&clock), rules), clock)
    }

    #[test]
    fn abort_storm_fires_at_threshold_and_resolves_by_decay() {
        let (wp, clock) = plane_with(vec![abort_rule()]);
        wp.observe_abort(7);
        wp.observe_abort(7);
        assert!(wp.is_empty(), "below threshold: no edge");
        wp.observe_abort(7);
        assert_eq!(wp.len(), 1, "third abort inside the window fires");
        assert!(wp.principal_firing(7));
        assert!(!wp.principal_firing(8), "blame is per-principal");

        // Decay: a full window later the counts rotate out, and the
        // next poll records the resolved edge.
        clock.advance_to(Cycles(20_000));
        assert!(!wp.principal_firing(7));
        let recs = wp.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].edge, AlertEdge::Firing);
        assert_eq!(recs[1].edge, AlertEdge::Resolved);
        assert_eq!(recs[1].principal, 7, "resolved edge blames the firing principal");
        let s = wp.stats();
        assert_eq!((s.fired, s.resolved, s.aborts), (1, 1, 3));
    }

    #[test]
    fn aborts_outside_the_window_do_not_accumulate() {
        let (wp, clock) = plane_with(vec![abort_rule()]);
        wp.observe_abort(1);
        clock.advance_to(Cycles(10_000)); // Past the 8000-cycle window.
        wp.observe_abort(1);
        clock.advance_to(Cycles(20_000));
        wp.observe_abort(1);
        assert!(wp.is_empty(), "spread-out aborts never reach the threshold");
    }

    #[test]
    fn journal_gauge_fires_and_resolves_on_observation() {
        let rules = vec![SloRule {
            name: "journal-full",
            signal: Signal::JournalOccupancy,
            window: Cycles(1000),
            threshold: 750,
        }];
        let (wp, _) = plane_with(rules);
        wp.observe_journal(10, 100);
        assert!(wp.is_empty());
        wp.observe_journal(80, 100);
        assert_eq!(wp.len(), 1, "800 permille >= 750 fires");
        wp.observe_journal(10, 100);
        assert_eq!(wp.len(), 2, "draining the journal resolves");
        assert_eq!(wp.stats().journal_appends, 3);
    }

    #[test]
    fn p99_rule_watches_windowed_samples() {
        let rules = vec![SloRule {
            name: "invoke-p99",
            signal: Signal::InvokeP99,
            window: Cycles(100_000),
            threshold: 5_000,
        }];
        let (wp, clock) = plane_with(rules);
        for _ in 0..50 {
            wp.observe_invoke(1, Cycles(100));
        }
        assert!(wp.is_empty(), "uniformly fast invocations stay quiet");
        wp.observe_invoke(2, Cycles(1_000_000));
        assert_eq!(wp.len(), 1, "one outlier in 51 drags the p99 over threshold");
        assert_eq!(wp.records()[0].principal, 2, "blamed on the observed principal");
        // The outlier ages out of the window; the next poll resolves.
        clock.advance_to(Cycles(500_000));
        wp.poll();
        assert_eq!(wp.len(), 2);
        assert_eq!(wp.records()[1].edge, AlertEdge::Resolved);
    }

    #[test]
    fn serialization_is_canonical_and_deterministic() {
        let build = || {
            let (wp, clock) = plane_with(vec![abort_rule()]);
            clock.advance_to(Cycles(4242));
            for _ in 0..3 {
                wp.observe_abort(9);
            }
            wp.serialize()
        };
        let a = build();
        assert_eq!(a, build(), "same call sequence, byte-identical stream");
        assert_eq!(
            a,
            "000000 @000000004242 watch.firing rule=abort-storm principal=9 value=3 threshold=3\n"
        );
    }

    #[test]
    fn export_restore_round_trips_and_continues_the_stream() {
        let (wp, clock) = plane_with(vec![abort_rule()]);
        for _ in 0..3 {
            wp.observe_abort(4);
        }
        let st = wp.export_state();

        let wp2 = WatchPlane::with_rules(Rc::clone(&clock), vec![abort_rule()]);
        wp2.restore_state(&st);
        assert_eq!(wp2.serialize(), wp.serialize());
        assert_eq!(wp2.stats(), wp.stats());
        assert!(wp2.principal_firing(4), "firing state survives the restore");

        // Both planes observe the same decay and record the same edge.
        clock.advance_to(Cycles(40_000));
        wp.poll();
        wp2.poll();
        assert_eq!(wp2.serialize(), wp.serialize());
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_newest() {
        let clock = VirtualClock::new();
        let wp = WatchPlane::with_capacity(Rc::clone(&clock), vec![abort_rule()], 2, 4);
        // Three separate firing episodes for three principals.
        for p in 1..=3u64 {
            for _ in 0..3 {
                wp.observe_abort(p);
            }
        }
        let recs = wp.records();
        assert_eq!(recs.len(), 2, "ring holds exactly its capacity");
        assert_eq!(recs[0].principal, 2);
        assert_eq!(recs[1].principal, 3);
        assert_eq!(wp.stats().dropped, 1);
        assert_eq!(wp.len(), 3, "sequence numbers survive eviction");
    }

    #[test]
    fn replication_lag_gauge_fires_and_resolves_on_observation() {
        let rules = vec![SloRule {
            name: "replication-lag",
            signal: Signal::ReplicationLag,
            window: Cycles(1000),
            threshold: 8,
        }];
        let (wp, _) = plane_with(rules);
        wp.observe_repl_lag(3);
        assert!(wp.is_empty(), "a shallow shipping window stays quiet");
        wp.observe_repl_lag(8);
        assert_eq!(wp.len(), 1, "8 unacked records >= 8 fires");
        wp.observe_repl_lag(0);
        assert_eq!(wp.len(), 2, "a caught-up replica resolves");
        assert_eq!(wp.records()[1].edge, AlertEdge::Resolved);
    }

    #[test]
    fn default_rules_fit_the_fixed_tables() {
        let rules = default_rules();
        assert!(rules.len() <= MAX_RULES);
        let (wp, _) = plane_with(rules);
        assert!(wp.snapshot().contains("0 firing"));
    }

    #[test]
    #[should_panic(expected = "identical rule table")]
    fn restore_refuses_a_different_rule_table() {
        let (wp, clock) = plane_with(vec![abort_rule()]);
        let st = wp.export_state();
        let other = WatchPlane::with_rules(clock, default_rules());
        other.restore_state(&st);
    }
}
