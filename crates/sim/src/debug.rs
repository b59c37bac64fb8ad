//! ASCII Gantt timelines over the trace plane's flight recorder.
//!
//! A survival-battery failure is an ordered story — a graft invoked, a
//! lock contended, a fault injected, an abort, a quarantine — but the
//! canonical trace serialization tells it one line per event. This
//! module renders the same records as a timeline: one lane per graft
//! plus one lane per kernel subsystem, the x-axis scaled over virtual
//! cycles, invoke spans drawn between their begin/end markers and lock
//! waits between block and grant. The render is pure and deterministic
//! (golden-pinned by `tests/timeline_golden.rs`), and the glyph and
//! lane maps are exhaustive over [`TraceEvent`] — a new variant fails
//! to compile here rather than silently vanishing from the picture.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use crate::trace::{NodeId, TraceEvent, TracePlane, TraceRecord};

/// Options for [`render_timeline`].
#[derive(Debug, Clone)]
pub struct TimelineOpts {
    /// Inclusive virtual-cycle range to plot; `None` plots everything
    /// in the ring.
    pub range: Option<(u64, u64)>,
    /// Lane filter: keep a lane when its name equals, or starts with,
    /// any entry (so `graft:` keeps every graft lane). `None` keeps
    /// all.
    pub lanes: Option<Vec<String>>,
    /// Plot width in columns.
    pub width: usize,
}

impl Default for TimelineOpts {
    fn default() -> TimelineOpts {
        TimelineOpts { range: None, lanes: None, width: 96 }
    }
}

/// The subsystem lanes, in render order (graft lanes come first).
const SUBSYSTEM_LANES: &[&str] = &["vm", "txn", "rm", "fs", "net", "watch", "admission", "repl"];

/// The lane a record renders in. Exhaustive over [`TraceEvent`]: graft
/// lifecycle events get a per-graft lane, everything else its
/// subsystem's lane.
pub fn lane_of(plane: &TracePlane, ev: &TraceEvent) -> String {
    use TraceEvent::*;
    match ev {
        VmWindow { .. } | SfiCheck { .. } => "vm".to_string(),
        TxnBegin { .. }
        | TxnCommit { .. }
        | TxnAbort { .. }
        | LockAcquire { .. }
        | LockBlocked { .. }
        | LockTimeout { .. }
        | LockSteal { .. }
        | UndoPush { .. }
        | UndoRun { .. } => "txn".to_string(),
        ResGrant { .. } | ResRelease { .. } | ResLimitHit { .. } => "rm".to_string(),
        FsRead { .. }
        | FsWrite { .. }
        | FsPrefetch { .. }
        | FsJournalAppend { .. }
        | FsJournalCommit { .. }
        | FsCheckpoint { .. }
        | FsRecoveryReplay { .. }
        | FsRecoveryDiscard { .. } => "fs".to_string(),
        GraftInstall { graft }
        | GraftInvoke { graft }
        | GraftCommit { graft }
        | GraftAbort { graft, .. }
        | GraftQuarantine { graft, .. }
        | FallbackServed { graft } => format!("graft:{}", plane.name_of(*graft)),
        NetRx { .. }
        | NetShed { .. }
        | NetVerdict { .. }
        | NetSteer { .. }
        | NetLoopCut { .. }
        | NetBatch { .. } => "net".to_string(),
        WatchAlertFiring { .. } | WatchAlertResolved { .. } => "watch".to_string(),
        // Their own lane: the gate polls the watch plane, so a resolved
        // edge and an admit often share a cycle — one lane would let
        // the admit glyph overwrite the alert edge.
        AdmissionAllow { .. } | AdmissionDeny { .. } => "admission".to_string(),
        ReplShip { .. }
        | ReplAck { .. }
        | ReplApply { .. }
        | ReplFrameDrop { .. }
        | ReplPromote { .. } => "repl".to_string(),
    }
}

/// The single-character marker a record renders as. Exhaustive over
/// [`TraceEvent`]; every glyph is globally unique so the legend is
/// unambiguous.
pub fn glyph_of(ev: &TraceEvent) -> char {
    use TraceEvent::*;
    match ev {
        VmWindow { .. } => 'w',
        SfiCheck { .. } => 'k',
        TxnBegin { .. } => 'B',
        TxnCommit { .. } => 'C',
        TxnAbort { .. } => 'A',
        LockAcquire { .. } => 'l',
        LockBlocked { .. } => 'b',
        LockTimeout { .. } => 'T',
        LockSteal { .. } => 'S',
        UndoPush { .. } => 'u',
        UndoRun { .. } => 'U',
        ResGrant { .. } => 'g',
        ResRelease { .. } => 'r',
        ResLimitHit { .. } => 'X',
        FsRead { .. } => 'R',
        FsWrite { .. } => 'W',
        FsPrefetch { .. } => 'p',
        FsJournalAppend { .. } => 'j',
        FsJournalCommit { .. } => 'J',
        FsCheckpoint { .. } => 'c',
        FsRecoveryReplay { .. } => 'Y',
        FsRecoveryDiscard { .. } => 'D',
        GraftInstall { .. } => 'I',
        GraftInvoke { .. } => '[',
        GraftCommit { .. } => ']',
        GraftAbort { .. } => '!',
        GraftQuarantine { .. } => 'Q',
        FallbackServed { .. } => 'F',
        NetRx { .. } => 'x',
        NetShed { .. } => 'd',
        NetVerdict { .. } => 'v',
        NetSteer { .. } => 's',
        NetLoopCut { .. } => 'o',
        NetBatch { .. } => 'n',
        WatchAlertFiring { .. } => 'f',
        WatchAlertResolved { .. } => 'z',
        AdmissionAllow { .. } => 'a',
        AdmissionDeny { .. } => 'V',
        ReplShip { .. } => '>',
        ReplAck { .. } => 'K',
        ReplApply { .. } => '+',
        ReplFrameDrop { .. } => 'L',
        ReplPromote { .. } => 'P',
    }
}

/// The fixed glyph legend, rendered at the foot of every timeline.
pub const LEGEND: &[&str] = &[
    "[=] invoke span  ! abort  I install  Q quarantine  F fallback",
    "B/C/A txn begin/commit/abort  l lock  b~l blocked span  T timeout  S steal  u/U undo",
    "R/W read/write  p prefetch  j/J/c journal append/commit/checkpoint  Y/D recovery",
    "g/r/X rm grant/release/limit-hit  w vm-window  k sfi-check",
    "x rx  d shed  v verdict  s steer  o loop-cut  n batch",
    "f/z alert firing/resolved  a admit  V veto (admission deny)",
    "> ship  K ack  + apply  L frame-drop  P promote (repl)",
];

/// Renders the plane's current records as an ASCII Gantt chart.
///
/// Per-graft lanes draw `=` between an invoke (`[`) and its commit
/// (`]`) or abort (`!`); the txn lane draws `~` between a lock block
/// (`b`) and the grant or timeout that resolves it. Markers overwrite
/// fills; when several records land in one cell the latest wins —
/// deterministically, since records are ordered.
pub fn render_timeline(plane: &TracePlane, opts: &TimelineOpts) -> String {
    let width = opts.width.max(8);
    let records: Vec<TraceRecord> = plane
        .records()
        .into_iter()
        .filter(|r| match opts.range {
            Some((lo, hi)) => r.at.get() >= lo && r.at.get() <= hi,
            None => true,
        })
        .collect();
    let range_label = match opts.range {
        Some((lo, hi)) => format!("{lo}..{hi}"),
        None => "all".to_string(),
    };
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return format!("== timeline: 0 records (range {range_label}) ==\n");
    };
    let (t0, t1) = (first.at.get(), last.at.get());
    let span = (t1 - t0).max(1);
    let col = |at: u64| (((at - t0) as u128 * (width as u128 - 1)) / span as u128) as usize;

    // Lane discovery, in deterministic order: graft lanes by first
    // appearance in the record stream, then the fixed subsystem lanes.
    let mut lane_names: Vec<String> = Vec::new();
    for r in &records {
        let lane = lane_of(plane, &r.event);
        if lane.starts_with("graft:") && !lane_names.contains(&lane) {
            lane_names.push(lane);
        }
    }
    for s in SUBSYSTEM_LANES {
        if records.iter().any(|r| lane_of(plane, &r.event) == *s) {
            lane_names.push(s.to_string());
        }
    }
    if let Some(keep) = &opts.lanes {
        lane_names.retain(|l| keep.iter().any(|k| l == k || l.starts_with(k.as_str())));
    }

    let mut rows: HashMap<String, Vec<char>> =
        lane_names.iter().map(|l| (l.clone(), vec![' '; width])).collect();
    let mut counts: HashMap<String, u64> = HashMap::new();

    // Span fills first, so markers drawn later stay visible.
    let fill = |row: &mut [char], a: usize, b: usize, ch: char| {
        for cell in row.iter_mut().take(b).skip(a + 1) {
            if *cell == ' ' {
                *cell = ch;
            }
        }
    };
    let mut open_invokes: HashMap<String, usize> = HashMap::new();
    let mut open_blocks: HashMap<u64, usize> = HashMap::new();
    for r in &records {
        let lane = lane_of(plane, &r.event);
        let c = col(r.at.get());
        match r.event {
            TraceEvent::GraftInvoke { .. } => {
                open_invokes.insert(lane.clone(), c);
            }
            TraceEvent::GraftCommit { .. } | TraceEvent::GraftAbort { .. } => {
                if let (Some(a), Some(row)) = (open_invokes.remove(&lane), rows.get_mut(&lane)) {
                    fill(row, a, c, '=');
                }
            }
            TraceEvent::LockBlocked { lock, .. } => {
                open_blocks.insert(lock, c);
            }
            TraceEvent::LockAcquire { lock, .. } | TraceEvent::LockTimeout { lock, .. } => {
                if let (Some(a), Some(row)) = (open_blocks.remove(&lock), rows.get_mut(&lane)) {
                    fill(row, a, c, '~');
                }
            }
            _ => {}
        }
    }
    for r in &records {
        let lane = lane_of(plane, &r.event);
        if let Some(row) = rows.get_mut(&lane) {
            row[col(r.at.get())] = glyph_of(&r.event);
            *counts.entry(lane).or_insert(0) += 1;
        }
    }

    let shown: u64 = counts.values().sum();
    let mut out = format!(
        "== timeline: {} records shown (range {range_label}), cycles {t0}..{t1}, 1 col ~ {} cyc ==\n",
        shown,
        span.div_ceil(width as u64 - 1).max(1),
    );
    for lane in &lane_names {
        let row: String = rows[lane].iter().collect();
        out.push_str(&format!(
            "{:<18} |{row}| n={}\n",
            lane,
            counts.get(lane).copied().unwrap_or(0)
        ));
    }
    out.push_str("legend:\n");
    for line in LEGEND {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The extra legend line for [`render_merged_timeline`]'s wire lane.
pub const WIRE_LEGEND: &str =
    r"wire lane: \ cross-kernel edge to a higher node (ship)  / to a lower node (ack)";

/// Renders several kernels' trace planes as one cross-kernel Gantt
/// chart, merged by [`TracePlane::merge_streams`].
///
/// Every lane of the single-kernel renderer appears per node with an
/// `n0:`/`n1:` prefix (that node's graft lanes first, then its
/// subsystem lanes, nodes in ascending id order), and one shared
/// `wire` lane draws a span-link glyph at each record whose causal
/// parent was minted on a *different* node: `\` when the edge flows to
/// a higher node id (a shipped record landing on the replica), `/`
/// when it flows back down (an ack landing on the primary). A shipped
/// journal record is thus one readable story:
/// `n0:fs J` → `wire \` → `n1:repl +` → `wire /` → `n0:repl K`.
pub fn render_merged_timeline(planes: &[&TracePlane], opts: &TimelineOpts) -> String {
    let width = opts.width.max(8);
    let merged = TracePlane::merge_streams(planes);
    let by_node: HashMap<NodeId, &TracePlane> = planes.iter().map(|p| (p.node(), *p)).collect();
    let records: Vec<(NodeId, TraceRecord)> = merged
        .records()
        .iter()
        .map(|m| (m.node, m.rec))
        .filter(|(_, r)| match opts.range {
            Some((lo, hi)) => r.at.get() >= lo && r.at.get() <= hi,
            None => true,
        })
        .collect();
    let range_label = match opts.range {
        Some((lo, hi)) => format!("{lo}..{hi}"),
        None => "all".to_string(),
    };
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        return format!("== merged timeline: 0 records (range {range_label}) ==\n");
    };
    let (t0, t1) = (first.1.at.get(), last.1.at.get());
    let span = (t1 - t0).max(1);
    let col = |at: u64| (((at - t0) as u128 * (width as u128 - 1)) / span as u128) as usize;
    let lane_for =
        |node: NodeId, ev: &TraceEvent| format!("{node}:{}", lane_of(by_node[&node], ev));

    // Lane discovery: per node (ascending id), graft lanes by first
    // appearance then the fixed subsystem lanes; `wire` closes the
    // chart when any cross-node edge exists.
    let mut nodes: Vec<NodeId> = by_node.keys().copied().collect();
    nodes.sort();
    let mut lane_names: Vec<String> = Vec::new();
    for &node in &nodes {
        for (n, r) in &records {
            if *n != node {
                continue;
            }
            let lane = lane_for(node, &r.event);
            if lane.contains(":graft:") && !lane_names.contains(&lane) {
                lane_names.push(lane);
            }
        }
        for s in SUBSYSTEM_LANES {
            let lane = format!("{node}:{s}");
            if records.iter().any(|(n, r)| *n == node && lane_for(node, &r.event) == lane) {
                lane_names.push(lane);
            }
        }
    }
    let cross_edge =
        |n: NodeId, r: &TraceRecord| !r.ctx.parent.is_none() && r.ctx.parent.node() != n;
    let has_wire = records.iter().any(|(n, r)| cross_edge(*n, r));
    if has_wire {
        lane_names.push("wire".to_string());
    }
    if let Some(keep) = &opts.lanes {
        lane_names.retain(|l| keep.iter().any(|k| l == k || l.starts_with(k.as_str())));
    }

    let mut rows: HashMap<String, Vec<char>> =
        lane_names.iter().map(|l| (l.clone(), vec![' '; width])).collect();
    let mut counts: HashMap<String, u64> = HashMap::new();

    // Span fills first (per node), so markers drawn later stay visible.
    let fill = |row: &mut [char], a: usize, b: usize, ch: char| {
        for cell in row.iter_mut().take(b).skip(a + 1) {
            if *cell == ' ' {
                *cell = ch;
            }
        }
    };
    let mut open_invokes: HashMap<String, usize> = HashMap::new();
    let mut open_blocks: HashMap<(NodeId, u64), usize> = HashMap::new();
    for (n, r) in &records {
        let lane = lane_for(*n, &r.event);
        let c = col(r.at.get());
        match r.event {
            TraceEvent::GraftInvoke { .. } => {
                open_invokes.insert(lane.clone(), c);
            }
            TraceEvent::GraftCommit { .. } | TraceEvent::GraftAbort { .. } => {
                if let (Some(a), Some(row)) = (open_invokes.remove(&lane), rows.get_mut(&lane)) {
                    fill(row, a, c, '=');
                }
            }
            TraceEvent::LockBlocked { lock, .. } => {
                open_blocks.insert((*n, lock), c);
            }
            TraceEvent::LockAcquire { lock, .. } | TraceEvent::LockTimeout { lock, .. } => {
                if let (Some(a), Some(row)) = (open_blocks.remove(&(*n, lock)), rows.get_mut(&lane))
                {
                    fill(row, a, c, '~');
                }
            }
            _ => {}
        }
    }
    for (n, r) in &records {
        let lane = lane_for(*n, &r.event);
        if let Some(row) = rows.get_mut(&lane) {
            row[col(r.at.get())] = glyph_of(&r.event);
            *counts.entry(lane).or_insert(0) += 1;
        }
        if cross_edge(*n, r) {
            if let Some(row) = rows.get_mut("wire") {
                row[col(r.at.get())] = if r.ctx.parent.node() < *n { '\\' } else { '/' };
                *counts.entry("wire".to_string()).or_insert(0) += 1;
            }
        }
    }

    let shown: u64 =
        counts.iter().filter(|(lane, _)| lane.as_str() != "wire").map(|(_, n)| n).sum();
    let mut out = format!(
        "== merged timeline: {} records shown across {} nodes (range {range_label}), cycles {t0}..{t1}, 1 col ~ {} cyc ==\n",
        shown,
        nodes.len(),
        span.div_ceil(width as u64 - 1).max(1),
    );
    for lane in &lane_names {
        let row: String = rows[lane].iter().collect();
        out.push_str(&format!(
            "{:<18} |{row}| n={}\n",
            lane,
            counts.get(lane).copied().unwrap_or(0)
        ));
    }
    out.push_str("legend:\n");
    for line in LEGEND {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("  ");
    out.push_str(WIRE_LEGEND);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::trace::AbortKind;
    use crate::Cycles;

    #[test]
    fn invoke_span_and_markers_render() {
        let clock = VirtualClock::new();
        let tp = TracePlane::new(std::rc::Rc::clone(&clock));
        let g = tp.tag("ra");
        tp.emit(TraceEvent::GraftInvoke { graft: g });
        clock.charge(Cycles(10_000));
        tp.emit(TraceEvent::FsRead { fd: 3, len: 4096 });
        clock.charge(Cycles(10_000));
        tp.emit(TraceEvent::GraftAbort { graft: g, kind: AbortKind::Trap });
        let out = render_timeline(&tp, &TimelineOpts::default());
        let graft_row = out.lines().find(|l| l.starts_with("graft:ra")).unwrap();
        assert!(graft_row.contains('['), "invoke marker missing: {graft_row}");
        assert!(graft_row.contains('!'), "abort marker missing: {graft_row}");
        assert!(graft_row.contains('='), "invoke span fill missing: {graft_row}");
        let fs_row = out.lines().find(|l| l.starts_with("fs")).unwrap();
        assert!(fs_row.contains('R'), "fs read marker missing: {fs_row}");
    }

    #[test]
    fn range_and_lane_filters_apply() {
        let clock = VirtualClock::new();
        let tp = TracePlane::new(std::rc::Rc::clone(&clock));
        tp.emit(TraceEvent::FsRead { fd: 3, len: 1 });
        clock.charge(Cycles(50_000));
        tp.emit(TraceEvent::NetRx { port: 1, len: 64 });
        let all = render_timeline(&tp, &TimelineOpts::default());
        assert!(all.contains("\nfs") && all.contains("\nnet"));
        let only_net = render_timeline(
            &tp,
            &TimelineOpts { lanes: Some(vec!["net".to_string()]), ..TimelineOpts::default() },
        );
        assert!(!only_net.contains("\nfs") && only_net.contains("net"));
        let early =
            render_timeline(&tp, &TimelineOpts { range: Some((0, 10)), ..TimelineOpts::default() });
        assert!(early.contains("1 records shown"));
    }

    #[test]
    fn empty_range_renders_a_stub() {
        let tp = TracePlane::new(VirtualClock::new());
        let out = render_timeline(&tp, &TimelineOpts::default());
        assert!(out.contains("0 records"));
    }

    #[test]
    fn merged_timeline_draws_node_lanes_and_wire_links() {
        use crate::trace::SpanId;
        let clock = VirtualClock::new();
        let p0 = TracePlane::with_node(std::rc::Rc::clone(&clock), 64, NodeId(0));
        let p1 = TracePlane::with_node(std::rc::Rc::clone(&clock), 64, NodeId(1));
        let seal = p0.mint_span(SpanId::NONE);
        p0.emit_with_ctx(TraceEvent::FsJournalCommit { seq: 1 }, seal);
        clock.charge(Cycles(10_000));
        let apply = p1.mint_span(seal.span);
        p1.emit_with_ctx(TraceEvent::ReplApply { seq: 1, blocks: 2 }, apply);
        clock.charge(Cycles(10_000));
        p0.emit_with_ctx(TraceEvent::ReplAck { acked: 1 }, p0.mint_span(apply.span));
        let out = render_merged_timeline(&[&p0, &p1], &TimelineOpts::default());
        assert!(out.contains("across 2 nodes"), "header: {out}");
        let fs0 = out.lines().find(|l| l.starts_with("n0:fs")).expect("n0:fs lane");
        assert!(fs0.contains('J'), "journal commit on n0: {fs0}");
        let repl1 = out.lines().find(|l| l.starts_with("n1:repl")).expect("n1:repl lane");
        assert!(repl1.contains('+'), "apply on n1: {repl1}");
        let wire = out.lines().find(|l| l.starts_with("wire")).expect("wire lane");
        assert!(wire.contains('\\'), "ship edge n0->n1: {wire}");
        assert!(wire.contains('/'), "ack edge n1->n0: {wire}");
        assert!(out.contains(WIRE_LEGEND));
        // Merge stability: either argument order, byte-identical chart.
        assert_eq!(out, render_merged_timeline(&[&p1, &p0], &TimelineOpts::default()));
    }
}
