//! The deterministic profiling plane: cycle-exact, per-PC attribution
//! of where a graft's protection budget goes.
//!
//! The third observability plane beside [`crate::trace`] (what
//! happened) and [`crate::metrics`] (how much, per component). This
//! module answers *where, inside the graft*: every retired GraftVM
//! instruction bills its deterministic cycle cost to a
//! (graft, function, pc) key, with MiSFIT sandbox cycles
//! ([`crate::metrics::Component::Sfi`]) kept separate from the graft's
//! own work so SFI overhead shows up as its own frames. On top of the
//! per-PC ledger sit three renderings:
//!
//! - **Folded stacks** ([`ProfilePlane::folded`]): one line per call
//!   path in the `flamegraph.pl` input format
//!   (`graft;fn@0;fn@7 cycles`), with synthetic `[sfi]` leaf frames and
//!   `[txn-begin]`-style frames for the host-side envelope components.
//! - **Hot-function report** ([`ProfilePlane::render_top`]): a
//!   `vino_top`-style table of the top-N functions by self cycles.
//! - **Invocation span trees** ([`ProfilePlane::chrome_trace`]): one
//!   span per graft invocation with child spans for the transaction
//!   envelope (begin / lock-wait / undo / commit / abort), fs and net
//!   dispatch, and RM grants, exported as Chrome `chrome://tracing`
//!   JSON.
//!
//! Design discipline matches the other planes:
//!
//! - **Zero allocations on the hot path.** Per-PC tallies are
//!   pre-sized`Vec` slots ([`ProfilePlane::register_program`], install
//!   time); the call-stack tree allocates only on the first sight of a
//!   (caller, callee) edge; spans live in a fixed-capacity buffer that
//!   drops (and counts) overflow instead of growing. Proven by
//!   `cargo bench -p vino-bench --bench profile_plane`.
//! - **Deterministic.** Driven entirely by the virtual clock, so two
//!   same-seed runs render byte-identical output
//!   (`tests/profile_golden.rs`, `tests/survival.rs`).
//! - **Reconciles with the metrics ledger.** The plane is fed from
//!   exactly the same billing sites with the same bracket semantics as
//!   [`crate::metrics::MetricsPlane::charge`], so per-component sums
//!   agree *exactly* with the Table-3 attribution (asserted in
//!   `crates/bench/src/table3.rs`).
//!
//! Recording a profile never charges the clock: attaching a profile
//! plane is observation, not perturbation.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};
use crate::metrics::{Attribution, Component};
use crate::plane::Brackets;

/// Interned graft-name handle, the profile twin of
/// [`crate::metrics::MetricTag`]. Interning happens at install time;
/// every hot-path call passes the `Copy` tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfTag(pub u16);

/// Default span-buffer capacity; overflow is dropped and counted.
const DEFAULT_SPAN_CAP: usize = 4096;

/// Reserved call-stack depth per graft (the engine bounds VM call
/// nesting far below this).
const STACK_RESERVE: usize = 64;

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

named_enum! {
    /// The kinds of spans in an invocation tree.
    pub enum SpanKind, fn label {
        /// One graft invocation, begin bracket to end bracket.
        Invocation => "invoke",
        /// `TXN_BEGIN` inside the wrapper envelope.
        TxnBegin => "txn-begin",
        /// Top-level or nested commit.
        TxnCommit => "txn-commit",
        /// Time spent blocked on a contended lock (advance-to-deadline).
        LockWait => "lock-wait",
        /// Undo logging or undo execution.
        Undo => "undo",
        /// Abort overhead including per-lock release.
        Abort => "abort",
        /// File-system dispatch indirection to a grafted policy.
        FsDispatch => "fs-dispatch",
        /// Packet-plane batched filter dispatch.
        NetDispatch => "net-dispatch",
        /// A resource-manager grant (instantaneous).
        RmGrant => "rm-grant",
    }
}

impl SpanKind {
    /// The Chrome-trace category.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Invocation => "graft",
            SpanKind::TxnBegin
            | SpanKind::TxnCommit
            | SpanKind::LockWait
            | SpanKind::Undo
            | SpanKind::Abort => "txn",
            SpanKind::FsDispatch => "fs",
            SpanKind::NetDispatch => "net",
            SpanKind::RmGrant => "rm",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    /// Interned graft tag, or `u16::MAX` for kernel-side spans.
    tag: u16,
    start: Cycles,
    dur: Cycles,
    /// For [`SpanKind::Invocation`]: true when the invocation aborted.
    aborted: bool,
}

// ---------------------------------------------------------------------------
// Call-graph nodes.
// ---------------------------------------------------------------------------

/// One node in a graft's call tree: a function (identified by its entry
/// pc) reached through a particular caller chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent node index, or `u32::MAX` for the root.
    parent: u32,
    /// Entry pc of the function this node represents (0 for the root).
    entry: u32,
    /// Self cycles billed at this node, excluding SFI.
    cycles: u64,
    /// Self SFI cycles (Clamp / CheckCall) billed at this node.
    sfi: u64,
    /// Times this node was entered (`calll`; root counts via
    /// invocations).
    enters: u64,
}

const ROOT: u32 = 0;

// ---------------------------------------------------------------------------
// Per-graft slots and invocation frames.
// ---------------------------------------------------------------------------

/// Per-graft profile state, one slot per interned tag.
#[derive(Debug)]
struct GraftProf {
    /// Program length; sizes the per-PC arrays.
    prog_len: usize,
    /// Total cycles billed at each pc (all components).
    pc_cycles: Vec<u64>,
    /// SFI cycles billed at each pc.
    pc_sfi: Vec<u64>,
    /// Instructions retired at each pc.
    pc_hits: Vec<u64>,
    /// Attributed cycles per component, merged at end-of-invocation —
    /// the mirror of the metrics ledger.
    comps: [u64; Component::COUNT],
    /// Invocations bracketed for this graft.
    invocations: u64,
    /// Instructions retired across all invocations.
    instrs: u64,
    /// Call-tree nodes; `nodes[0]` is the root.
    nodes: Vec<Node>,
    /// (parent node, callee entry pc) → node index.
    edges: HashMap<(u32, u32), u32>,
    /// Current call stack, as node indices (excluding `cur`).
    stack: Vec<u32>,
    /// The node currently executing.
    cur: u32,
}

impl GraftProf {
    fn new() -> GraftProf {
        GraftProf {
            prog_len: 0,
            pc_cycles: Vec::new(),
            pc_sfi: Vec::new(),
            pc_hits: Vec::new(),
            comps: [0; Component::COUNT],
            invocations: 0,
            instrs: 0,
            nodes: vec![Node { parent: u32::MAX, entry: 0, cycles: 0, sfi: 0, enters: 0 }],
            edges: HashMap::new(),
            stack: Vec::with_capacity(STACK_RESERVE),
            cur: ROOT,
        }
    }
}

/// One row of the hot-function report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotFn {
    /// The graft the function belongs to.
    pub graft: String,
    /// Entry pc of the function (0 = the graft's entry function).
    pub entry: u32,
    /// Self cycles, excluding SFI.
    pub self_cycles: u64,
    /// Self SFI cycles.
    pub sfi_cycles: u64,
    /// Times the function was entered.
    pub calls: u64,
}

// ---------------------------------------------------------------------------
// The plane.
// ---------------------------------------------------------------------------

/// The shared profiling plane handle (see module docs).
///
/// Create once, wrap in `Rc`, attach with `Kernel::attach_profile_plane`
/// (or [`crate::obs::Planes::attach_profile`] on a standalone subsystem's
/// handle).
#[derive(Debug)]
pub struct ProfilePlane {
    clock: Rc<VirtualClock>,
    grafts: RefCell<Vec<GraftProf>>,
    names: RefCell<Vec<String>>,
    tags: RefCell<HashMap<String, ProfTag>>,
    /// The same bracket rule as the metrics plane's ledger.
    brackets: Brackets<ProfTag>,
    spans: RefCell<Vec<Span>>,
    span_cap: usize,
    spans_dropped: Cell<u64>,
}

impl ProfilePlane {
    /// Creates a plane stamped by `clock` with default capacities.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<ProfilePlane> {
        ProfilePlane::with_capacity(clock, 32, DEFAULT_SPAN_CAP)
    }

    /// Creates a plane with room for `grafts` interned names and
    /// `spans` recorded spans. The span buffer never grows: overflow is
    /// dropped and counted ([`Self::spans_dropped`]).
    pub fn with_capacity(clock: Rc<VirtualClock>, grafts: usize, spans: usize) -> Rc<ProfilePlane> {
        Rc::new(ProfilePlane {
            clock,
            grafts: RefCell::new(Vec::with_capacity(grafts)),
            names: RefCell::new(Vec::with_capacity(grafts)),
            tags: RefCell::new(HashMap::with_capacity(grafts)),
            brackets: Brackets::new(ProfTag(u16::MAX)),
            spans: RefCell::new(Vec::with_capacity(spans)),
            span_cap: spans,
            spans_dropped: Cell::new(0),
        })
    }

    // -- interning ----------------------------------------------------------

    /// Interns `name`, allocating a per-graft slot on first sight
    /// (install time).
    pub fn tag(&self, name: &str) -> ProfTag {
        if let Some(t) = self.tags.borrow().get(name) {
            return *t;
        }
        let mut names = self.names.borrow_mut();
        let t = ProfTag(names.len() as u16);
        names.push(name.to_string());
        self.grafts.borrow_mut().push(GraftProf::new());
        self.tags.borrow_mut().insert(name.to_string(), t);
        t
    }

    /// The interned name for `tag` (`?tagN` for unknown tags).
    pub fn name_of(&self, tag: ProfTag) -> String {
        self.names.borrow().get(tag.0 as usize).cloned().unwrap_or_else(|| format!("?tag{}", tag.0))
    }

    /// Sizes `tag`'s per-PC arrays for a program of `len` instructions
    /// (install time; the arrays only ever grow, so re-installs of a
    /// longer program under the same name stay in bounds).
    pub fn register_program(&self, tag: ProfTag, len: usize) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(g) = grafts.get_mut(tag.0 as usize) else { return };
        if len > g.prog_len {
            g.prog_len = len;
            g.pc_cycles.resize(len, 0);
            g.pc_sfi.resize(len, 0);
            g.pc_hits.resize(len, 0);
        }
    }

    // -- hot-path recording -------------------------------------------------

    /// Attributes a host-side `cost` to component `c` of the innermost
    /// open invocation, with exactly the bracket semantics of
    /// [`crate::metrics::MetricsPlane::charge`] — pending indirection
    /// and the kernel ledger included — so the two planes reconcile.
    /// Zero-allocation.
    pub fn charge(&self, c: Component, cost: Cycles) {
        self.brackets.charge(c, cost);
    }

    /// Bills one retired instruction: `cost` cycles of component `c`
    /// (the VM only bills [`Component::GraftFn`] and
    /// [`Component::Sfi`]) at program counter `pc` of graft `tag`.
    /// Updates the per-PC ledger, the current call-tree node, and the
    /// bracketed component attribution. Zero-allocation.
    pub fn record_pc(&self, tag: ProfTag, pc: usize, c: Component, cost: Cycles) {
        let (graft, sfi) = if c == Component::Sfi { (0, cost.get()) } else { (cost.get(), 0) };
        self.charge_retired(tag, Cycles(graft), Cycles(sfi), 1);
        self.record_pc_hits(tag, pc, 1, c, cost);
    }

    /// Bills `instrs` retired instructions in bulk: `graft` cycles of
    /// [`Component::GraftFn`] and `sfi` cycles of [`Component::Sfi`],
    /// to the bracketed attribution and the current call-tree node.
    /// The per-PC ledger is left to
    /// [`record_pc_hits`](Self::record_pc_hits). The VM calls this once
    /// per straight-line stretch instead of [`record_pc`](Self::record_pc)
    /// per instruction, always before the call tree or the innermost
    /// bracket can change. Zero-allocation.
    pub fn charge_retired(&self, tag: ProfTag, graft: Cycles, sfi: Cycles, instrs: u64) {
        self.brackets.charge(Component::GraftFn, graft);
        self.brackets.charge(Component::Sfi, sfi);
        let mut grafts = self.grafts.borrow_mut();
        let Some(g) = grafts.get_mut(tag.0 as usize) else { return };
        g.instrs += instrs;
        let node = &mut g.nodes[g.cur as usize];
        node.cycles += graft.get();
        node.sfi += sfi.get();
    }

    /// Adds `hits` retirements of the instruction at `pc`, each costing
    /// `cost` cycles of component `c`, to `tag`'s per-PC ledger only.
    /// Zero-allocation.
    pub fn record_pc_hits(&self, tag: ProfTag, pc: usize, hits: u64, c: Component, cost: Cycles) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(g) = grafts.get_mut(tag.0 as usize) else { return };
        if pc < g.prog_len {
            let cycles = hits * cost.get();
            g.pc_cycles[pc] += cycles;
            g.pc_hits[pc] += hits;
            if c == Component::Sfi {
                g.pc_sfi[pc] += cycles;
            }
        }
    }

    /// Descends into the function at `entry` (a `calll` retired by the
    /// VM). Allocates only on the first sight of a (caller, callee)
    /// edge.
    pub fn enter_fn(&self, tag: ProfTag, entry: u32) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(g) = grafts.get_mut(tag.0 as usize) else { return };
        let cur = g.cur;
        let next = match g.edges.get(&(cur, entry)) {
            Some(n) => *n,
            None => {
                let n = g.nodes.len() as u32;
                g.nodes.push(Node { parent: cur, entry, cycles: 0, sfi: 0, enters: 0 });
                g.edges.insert((cur, entry), n);
                n
            }
        };
        g.nodes[next as usize].enters += 1;
        g.stack.push(cur);
        g.cur = next;
    }

    /// Returns from the current function (a `ret` retired by the VM).
    pub fn exit_fn(&self, tag: ProfTag) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(g) = grafts.get_mut(tag.0 as usize) else { return };
        g.cur = g.stack.pop().unwrap_or(ROOT);
    }

    /// Rewinds `tag`'s call stack to the root (VM reset: a fresh run
    /// starts at pc 0 with an empty call stack).
    pub fn reset_stack(&self, tag: ProfTag) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(g) = grafts.get_mut(tag.0 as usize) else { return };
        g.stack.clear();
        g.cur = ROOT;
    }

    /// Opens an invocation bracket for `tag`: claims any pending
    /// dispatch charge, stamps the span start, and rewinds the call
    /// stack. Zero-allocation.
    pub fn begin_invocation(&self, tag: ProfTag) {
        self.brackets.open(tag, self.clock.now());
        let mut grafts = self.grafts.borrow_mut();
        if let Some(g) = grafts.get_mut(tag.0 as usize) {
            g.invocations += 1;
            g.stack.clear();
            g.cur = ROOT;
        }
    }

    /// Closes the innermost invocation bracket: merges the frame's
    /// attribution into the graft ledger and records the invocation
    /// span. Zero-allocation (the span buffer is pre-sized).
    pub fn end_invocation(&self, committed: bool) {
        let frame = self.brackets.close();
        if let Some(g) = self.grafts.borrow_mut().get_mut(frame.tag.0 as usize) {
            for (total, add) in g.comps.iter_mut().zip(frame.comps.iter()) {
                *total += add;
            }
        }
        let now = self.clock.now();
        self.push_span(Span {
            kind: SpanKind::Invocation,
            tag: frame.tag.0,
            start: frame.start,
            dur: now.saturating_sub(frame.start),
            aborted: !committed,
        });
    }

    /// Records a dead-graft invocation refused to the fallback path:
    /// flushes any unclaimed dispatch charge to the kernel ledger
    /// (mirroring the metrics plane).
    pub fn mark_fallback(&self) {
        self.brackets.drop_pending();
    }

    /// Records a child span of `kind` that just finished and lasted
    /// `dur` (subsystems charge the clock at the site, so the span
    /// covers `[now - dur, now]`). Zero-allocation.
    pub fn mark(&self, kind: SpanKind, dur: Cycles) {
        let now = self.clock.now();
        self.push_span(Span {
            kind,
            tag: self.current_tag(),
            start: now.saturating_sub(dur),
            dur,
            aborted: false,
        });
    }

    /// Records a child span of `kind` that started at `t0` and just
    /// finished. Zero-allocation.
    pub fn mark_since(&self, kind: SpanKind, t0: Cycles) {
        let now = self.clock.now();
        self.push_span(Span {
            kind,
            tag: self.current_tag(),
            start: t0,
            dur: now.saturating_sub(t0),
            aborted: false,
        });
    }

    fn current_tag(&self) -> u16 {
        self.brackets.innermost().map_or(u16::MAX, |t| t.0)
    }

    fn push_span(&self, span: Span) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < self.span_cap {
            spans.push(span);
        } else {
            self.spans_dropped.set(self.spans_dropped.get() + 1);
        }
    }

    // -- introspection ------------------------------------------------------

    /// Interned tags in intern order (install order).
    pub fn tags_in_order(&self) -> Vec<ProfTag> {
        (0..self.names.borrow().len() as u16).map(ProfTag).collect()
    }

    /// The per-component attribution ledger for `tag` — by
    /// construction equal to the metrics plane's
    /// [`crate::metrics::MetricsPlane::attribution`] for the same
    /// graft.
    pub fn attribution(&self, tag: ProfTag) -> Option<Attribution> {
        self.grafts
            .borrow()
            .get(tag.0 as usize)
            .map(|g| Attribution { cycles: g.comps, invocations: g.invocations })
    }

    /// Cycles attributed to kernel-side work outside any invocation.
    pub fn kernel_attribution(&self) -> [u64; Component::COUNT] {
        self.brackets.kernel()
    }

    /// Instructions retired by `tag`.
    pub fn instrs_of(&self, tag: ProfTag) -> u64 {
        self.grafts.borrow().get(tag.0 as usize).map_or(0, |g| g.instrs)
    }

    /// Sums of `tag`'s per-PC ledger: (graft-fn cycles, SFI cycles,
    /// retirements). The component split reconciles exactly with the
    /// attribution ledger's [`Component::GraftFn`] / [`Component::Sfi`]
    /// rows.
    pub fn pc_totals(&self, tag: ProfTag) -> (Cycles, Cycles, u64) {
        let grafts = self.grafts.borrow();
        let Some(g) = grafts.get(tag.0 as usize) else { return (Cycles(0), Cycles(0), 0) };
        let total: u64 = g.pc_cycles.iter().sum();
        let sfi: u64 = g.pc_sfi.iter().sum();
        let hits: u64 = g.pc_hits.iter().sum();
        (Cycles(total - sfi), Cycles(sfi), hits)
    }

    /// `tag`'s per-PC cycles aggregated into buckets of `bucket` pcs:
    /// `(first_pc, total_cycles, sfi_cycles, hits)` per non-empty
    /// bucket.
    pub fn pc_buckets(&self, tag: ProfTag, bucket: usize) -> Vec<(usize, u64, u64, u64)> {
        let bucket = bucket.max(1);
        let grafts = self.grafts.borrow();
        let Some(g) = grafts.get(tag.0 as usize) else { return Vec::new() };
        let mut out = Vec::new();
        let mut pc = 0;
        while pc < g.prog_len {
            let end = (pc + bucket).min(g.prog_len);
            let cycles: u64 = g.pc_cycles[pc..end].iter().sum();
            let sfi: u64 = g.pc_sfi[pc..end].iter().sum();
            let hits: u64 = g.pc_hits[pc..end].iter().sum();
            if hits > 0 {
                out.push((pc, cycles, sfi, hits));
            }
            pc = end;
        }
        out
    }

    /// Spans dropped because the fixed span buffer was full.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.get()
    }

    /// Spans currently recorded.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The top-`n` functions across all grafts by self cycles
    /// (SFI included in the ranking key, reported separately).
    pub fn top_functions(&self, n: usize) -> Vec<HotFn> {
        let names = self.names.borrow();
        let grafts = self.grafts.borrow();
        // (graft, entry) → merged totals across call-tree nodes.
        let mut merged: Vec<HotFn> = Vec::new();
        for (gi, g) in grafts.iter().enumerate() {
            let mut per_fn: HashMap<u32, (u64, u64, u64)> = HashMap::new();
            for node in &g.nodes {
                let e = per_fn.entry(node.entry).or_insert((0, 0, 0));
                e.0 += node.cycles;
                e.1 += node.sfi;
                e.2 += node.enters;
            }
            for (entry, (cycles, sfi, mut calls)) in per_fn {
                if cycles == 0 && sfi == 0 {
                    continue;
                }
                if entry == 0 {
                    calls = g.invocations;
                }
                merged.push(HotFn {
                    graft: names[gi].clone(),
                    entry,
                    self_cycles: cycles,
                    sfi_cycles: sfi,
                    calls,
                });
            }
        }
        merged.sort_by(|a, b| {
            (b.self_cycles + b.sfi_cycles, &a.graft, a.entry).cmp(&(
                a.self_cycles + a.sfi_cycles,
                &b.graft,
                b.entry,
            ))
        });
        merged.truncate(n);
        merged
    }

    // -- rendering (all off the hot path) -----------------------------------

    /// Folded-stack output in the `flamegraph.pl` input format: one
    /// `frame;frame;frame cycles` line per call path (plus `[sfi]` leaf
    /// frames and `[component]` frames for the host-side envelope), in
    /// deterministic order. Pipe through `flamegraph.pl` to get an SVG.
    pub fn folded(&self) -> String {
        let names = self.names.borrow();
        let grafts = self.grafts.borrow();
        let mut out = String::new();
        for (gi, g) in grafts.iter().enumerate() {
            let name = &names[gi];
            // Host-side envelope components as single synthetic frames.
            for c in Component::ALL {
                if c == Component::GraftFn || c == Component::Sfi {
                    continue;
                }
                let v = g.comps[c as usize];
                if v > 0 {
                    let _ = writeln!(out, "{name};[{}] {v}", c.label());
                }
            }
            // The VM call tree, depth-first with children in entry-pc
            // order.
            let mut children: Vec<Vec<u32>> = vec![Vec::new(); g.nodes.len()];
            for (i, node) in g.nodes.iter().enumerate().skip(1) {
                children[node.parent as usize].push(i as u32);
            }
            for kids in &mut children {
                kids.sort_by_key(|&i| g.nodes[i as usize].entry);
            }
            let mut path = vec![format!("{name};fn@0")];
            let mut stack = vec![(ROOT, false)];
            while let Some((node, visited)) = stack.pop() {
                if visited {
                    path.pop();
                    continue;
                }
                let n = &g.nodes[node as usize];
                if node != ROOT {
                    path.push(format!("fn@{}", n.entry));
                }
                let prefix = path.join(";");
                if n.cycles > 0 {
                    let _ = writeln!(out, "{prefix} {}", n.cycles);
                }
                if n.sfi > 0 {
                    let _ = writeln!(out, "{prefix};[sfi] {}", n.sfi);
                }
                stack.push((node, true));
                for &kid in children[node as usize].iter().rev() {
                    stack.push((kid, false));
                }
            }
        }
        let kernel = self.brackets.kernel();
        for c in Component::ALL {
            let v = kernel[c as usize];
            if v > 0 {
                let _ = writeln!(out, "kernel;[{}] {v}", c.label());
            }
        }
        out
    }

    /// The `vino_top`-style hot-function table for the top `n`
    /// functions by self cycles.
    pub fn render_top(&self, n: usize) -> String {
        let mut out =
            String::from("graft              function     self-cycles   sfi-cycles      calls\n");
        for f in self.top_functions(n) {
            let _ = writeln!(
                out,
                "{:<18} {:<10} {:>13} {:>12} {:>10}",
                f.graft,
                format!("fn@{}", f.entry),
                f.self_cycles,
                f.sfi_cycles,
                f.calls,
            );
        }
        out
    }

    /// The invocation span trees as Chrome `chrome://tracing` JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    /// Complete (`ph:"X"`) events on one track; nesting is implied by
    /// containment. Timestamps and durations are microseconds of
    /// virtual time. Deterministic: spans render in record order.
    pub fn chrome_trace(&self) -> String {
        let names = self.names.borrow();
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = match s.kind {
                SpanKind::Invocation => {
                    let graft = names.get(s.tag as usize).map(String::as_str).unwrap_or("?");
                    if s.aborted {
                        format!("invoke:{graft}!abort")
                    } else {
                        format!("invoke:{graft}")
                    }
                }
                kind => kind.label().to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
                escape_json(&name),
                s.kind.category(),
                s.start.as_us(),
                s.dur.as_us(),
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spansDropped\":{}}}}}\n",
            self.spans_dropped.get(),
        );
        out
    }

    /// The canonical full snapshot frozen by the golden battery: folded
    /// stacks, the hot-function table, and the Chrome trace.
    /// Byte-identical across same-seed runs.
    pub fn snapshot(&self) -> String {
        let mut out = String::from("== folded stacks ==\n");
        out.push_str(&self.folded());
        out.push_str("== hot functions ==\n");
        out.push_str(&self.render_top(10));
        out.push_str("== chrome trace ==\n");
        out.push_str(&self.chrome_trace());
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> (Rc<ProfilePlane>, Rc<VirtualClock>) {
        let clock = VirtualClock::new();
        (ProfilePlane::new(Rc::clone(&clock)), clock)
    }

    #[test]
    fn tags_intern_and_stay_stable() {
        let (pp, _) = plane();
        let a = pp.tag("ra");
        let b = pp.tag("evict");
        assert_eq!(pp.tag("ra"), a);
        assert_ne!(a, b);
        assert_eq!(pp.name_of(a), "ra");
        assert_eq!(pp.name_of(ProfTag(99)), "?tag99");
    }

    #[test]
    fn per_pc_ledger_reconciles_with_components() {
        let (pp, _) = plane();
        let t = pp.tag("g");
        pp.register_program(t, 8);
        pp.begin_invocation(t);
        pp.record_pc(t, 0, Component::GraftFn, Cycles(10));
        pp.record_pc(t, 1, Component::Sfi, Cycles(4));
        pp.record_pc(t, 1, Component::Sfi, Cycles(4));
        pp.record_pc(t, 7, Component::GraftFn, Cycles(35));
        pp.end_invocation(true);
        let (fn_c, sfi_c, hits) = pp.pc_totals(t);
        assert_eq!(fn_c, Cycles(45));
        assert_eq!(sfi_c, Cycles(8));
        assert_eq!(hits, 4);
        let a = pp.attribution(t).unwrap();
        assert_eq!(a.of(Component::GraftFn), fn_c);
        assert_eq!(a.of(Component::Sfi), sfi_c);
        assert_eq!(pp.instrs_of(t), 4);
    }

    #[test]
    fn call_tree_folds_by_path() {
        let (pp, _) = plane();
        let t = pp.tag("g");
        pp.register_program(t, 32);
        pp.begin_invocation(t);
        pp.record_pc(t, 0, Component::GraftFn, Cycles(5));
        pp.enter_fn(t, 10);
        pp.record_pc(t, 10, Component::GraftFn, Cycles(7));
        pp.record_pc(t, 11, Component::Sfi, Cycles(4));
        pp.enter_fn(t, 20);
        pp.record_pc(t, 20, Component::GraftFn, Cycles(9));
        pp.exit_fn(t);
        pp.record_pc(t, 12, Component::GraftFn, Cycles(3));
        pp.exit_fn(t);
        pp.end_invocation(true);
        let folded = pp.folded();
        assert!(folded.contains("g;fn@0 5\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@10 10\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@10;[sfi] 4\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@10;fn@20 9\n"), "{folded}");
    }

    #[test]
    fn recursive_paths_get_distinct_nodes() {
        let (pp, _) = plane();
        let t = pp.tag("g");
        pp.register_program(t, 8);
        pp.begin_invocation(t);
        pp.enter_fn(t, 4);
        pp.record_pc(t, 4, Component::GraftFn, Cycles(1));
        pp.enter_fn(t, 4);
        pp.record_pc(t, 4, Component::GraftFn, Cycles(1));
        pp.exit_fn(t);
        pp.exit_fn(t);
        pp.end_invocation(true);
        let folded = pp.folded();
        assert!(folded.contains("g;fn@0;fn@4 1\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@4;fn@4 1\n"), "{folded}");
    }

    #[test]
    fn bracket_semantics_mirror_metrics() {
        use crate::metrics::MetricsPlane;
        let clock = VirtualClock::new();
        let pp = ProfilePlane::new(Rc::clone(&clock));
        let mp = MetricsPlane::new(Rc::clone(&clock));
        let pt = pp.tag("g");
        let mt = mp.tag("g");
        pp.register_program(pt, 4);
        // Pending indirection claimed by the next bracket; kernel-side
        // charges land in the kernel ledger — on both planes alike.
        for (c, cost) in [(Component::Lock, Cycles(55)), (Component::Indirection, Cycles(120))] {
            pp.charge(c, cost);
            mp.charge(c, cost);
        }
        pp.begin_invocation(pt);
        mp.begin_invocation(mt);
        pp.record_pc(pt, 0, Component::GraftFn, Cycles(10));
        mp.charge(Component::GraftFn, Cycles(10));
        pp.charge(Component::TxnBegin, Cycles::from_us(36));
        mp.charge(Component::TxnBegin, Cycles::from_us(36));
        pp.end_invocation(true);
        mp.end_invocation(true);
        let pa = pp.attribution(pt).unwrap();
        let ma = mp.attribution(mt).unwrap();
        assert_eq!(pa, ma);
        assert_eq!(pp.kernel_attribution(), mp.kernel_attribution());
    }

    #[test]
    fn spans_record_and_cap() {
        let clock = VirtualClock::new();
        let pp = ProfilePlane::with_capacity(Rc::clone(&clock), 4, 2);
        let t = pp.tag("g");
        pp.begin_invocation(t);
        clock.charge(Cycles::from_us(36));
        pp.mark(SpanKind::TxnBegin, Cycles::from_us(36));
        clock.charge(Cycles::from_us(30));
        pp.end_invocation(true);
        assert_eq!(pp.span_count(), 2);
        assert_eq!(pp.spans_dropped(), 0);
        pp.mark(SpanKind::RmGrant, Cycles(0));
        assert_eq!(pp.span_count(), 2, "buffer is fixed-capacity");
        assert_eq!(pp.spans_dropped(), 1);
        let json = pp.chrome_trace();
        assert!(json.contains("\"name\":\"txn-begin\""), "{json}");
        assert!(json.contains("\"name\":\"invoke:g\""), "{json}");
        assert!(json.contains("\"spansDropped\":1"), "{json}");
    }

    #[test]
    fn aborted_invocations_are_named() {
        let (pp, _) = plane();
        let t = pp.tag("bad");
        pp.begin_invocation(t);
        pp.end_invocation(false);
        assert!(pp.chrome_trace().contains("invoke:bad!abort"));
    }

    #[test]
    fn top_functions_rank_by_cycles() {
        let (pp, _) = plane();
        let t = pp.tag("g");
        pp.register_program(t, 32);
        pp.begin_invocation(t);
        pp.record_pc(t, 0, Component::GraftFn, Cycles(5));
        pp.enter_fn(t, 8);
        pp.record_pc(t, 8, Component::GraftFn, Cycles(100));
        pp.record_pc(t, 9, Component::Sfi, Cycles(4));
        pp.exit_fn(t);
        pp.end_invocation(true);
        let top = pp.top_functions(10);
        assert_eq!(top[0].entry, 8);
        assert_eq!(top[0].self_cycles, 100);
        assert_eq!(top[0].sfi_cycles, 4);
        assert_eq!(top[0].calls, 1);
        assert_eq!(top[1].entry, 0);
        assert_eq!(top[1].calls, 1, "root calls = invocations");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let (pp, clock) = plane();
        let t = pp.tag("g");
        pp.register_program(t, 4);
        pp.begin_invocation(t);
        pp.record_pc(t, 0, Component::GraftFn, Cycles(10));
        clock.charge(Cycles(100));
        pp.end_invocation(true);
        assert_eq!(pp.snapshot(), pp.snapshot());
    }
}
