//! The machine-readable bench census: `vino-bench census [--json]`.
//!
//! Four sweeps, each also emitted as a `BENCH_<name>.json` file when
//! `--json` is passed (hand-rolled serialization — the census has no
//! dependency beyond `std`):
//!
//! - `netfilter` — µs/packet for the batched safe filter path across
//!   the amortization sweep ([`netfilter::BATCH_SWEEP`]), extracted
//!   from the same [`crate::render::PathTable`] the paper-table run
//!   renders.
//! - `planes` — wall-clock ns/op for the observability hot paths:
//!   trace emit (with and without a causal context), span minting, a
//!   metrics counter bump, and the `Obs` funnel's `emit` (trace record
//!   plus derived counter) and `bill` (clock plus both ledgers). These
//!   are host measurements, not virtual cycles, so the JSON is a
//!   snapshot rather than a golden.
//! - `repl_window` — the replication window sweep: shipped frames,
//!   retransmissions, drops, and drain rounds to convergence at each
//!   window size over a lossy wire, all in deterministic virtual time.
//! - `checksum` — wall-clock ns/KB for the journal's FNV-1a 64: one
//!   chain over a data block and over a zero block, and the two-lane
//!   helper over a pair of data blocks. Host measurements, like
//!   `planes`.

use std::rc::Rc;
use std::time::Instant;

use vino_fs::layout::{checksum64, checksum64_x2};
use vino_fs::BLOCK_SIZE;
use vino_repl::{ReplConfig, ReplHarness};
use vino_sim::clock::VirtualClock;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::{Component, Counter, MetricsPlane};
use vino_sim::obs::Obs;
use vino_sim::profile::ProfilePlane;
use vino_sim::trace::{CauseCtx, SpanId, TraceEvent, TracePlane};
use vino_sim::Cycles;

use crate::netfilter;

/// One emitted census: a table for stdout and a JSON document.
#[derive(Debug, Clone)]
pub struct Census {
    /// Short name — the JSON lands in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Human-readable rendering.
    pub text: String,
    /// The JSON document.
    pub json: String,
}

impl Census {
    /// The file name the `--json` flag writes.
    pub fn json_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }
}

/// A minimal JSON writer: objects of string/number pairs inside one
/// `rows` array. Numbers are emitted as-is; strings are quoted with
/// the only escapes our labels can need.
fn json_doc(name: &str, unit: &str, rows: &[Vec<(&str, String)>]) -> String {
    let mut out = format!("{{\n  \"name\": \"{name}\",\n  \"unit\": \"{unit}\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (k, v)) in row.iter().enumerate() {
            out.push_str(&format!("\"{k}\": {v}"));
            if j + 1 < row.len() {
                out.push_str(", ");
            }
        }
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The µs/packet batch-amortization census, from the same measurement
/// run that renders the packet-filter paper table.
pub fn netfilter_census(reps: usize) -> Census {
    let table = netfilter::run(reps);
    let mut rows = Vec::new();
    let mut text = String::from(
        "batch | us/packet (safe filter path)\n------+------------------------------\n",
    );
    for r in &table.rows {
        let Some(rest) = r.label.strip_prefix("Batched safe path (n=") else { continue };
        let Some(n) = rest.split(',').next().and_then(|n| n.parse::<usize>().ok()) else {
            continue;
        };
        let us = r.elapsed_us.expect("batch rows are path rows");
        text.push_str(&format!("{n:>5} | {us:.3}\n"));
        rows.push(vec![("batch", n.to_string()), ("us_per_packet", format!("{us:.3}"))]);
    }
    assert_eq!(rows.len(), netfilter::BATCH_SWEEP.len(), "sweep rows missing from the table");
    Census { name: "netfilter", text, json: json_doc("netfilter", "us_per_packet", &rows) }
}

/// Wall-clock ns/op for one hot-path closure.
fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    // One warmup pass keeps first-touch allocation out of the clock.
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The observability hot-path census: ns per trace emit / span mint /
/// counter bump, measured in host time.
pub fn planes_census() -> Census {
    const ITERS: u64 = 200_000;
    let clock = VirtualClock::new();
    // Capacity beyond ITERS would defeat the ring; a small ring keeps
    // the bench honest about the steady-state (evicting) emit path.
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 12);
    let metrics = MetricsPlane::new(Rc::clone(&clock));
    let ctx = tp.mint_span(SpanId::NONE);
    let mut ops: Vec<(&str, f64)> = Vec::new();
    ops.push(("trace_emit", ns_per_op(ITERS, || tp.emit(TraceEvent::NetRx { port: 80, len: 64 }))));
    ops.push((
        "trace_emit_with_ctx",
        ns_per_op(ITERS, || tp.emit_with_ctx(TraceEvent::NetRx { port: 80, len: 64 }, ctx)),
    ));
    ops.push((
        "mint_span",
        ns_per_op(ITERS, || {
            let c = tp.mint_span(ctx.span);
            std::hint::black_box(c);
        }),
    ));
    ops.push((
        "ctx_wire_roundtrip",
        ns_per_op(ITERS, || {
            let bytes = ctx.to_bytes();
            std::hint::black_box(CauseCtx::from_bytes(&bytes));
        }),
    ));
    // The plane goes through `black_box` every iteration: a counter
    // bump is one `Cell` add, which the optimizer would otherwise fold
    // out of the loop and report as 0.0 ns.
    ops.push((
        "metrics_inc",
        ns_per_op(ITERS, || std::hint::black_box(&metrics).inc(Counter::ReplShips)),
    ));
    // The funnel, with trace and metrics attached: one emit writes the
    // record and derives its counter; one bill charges the clock and
    // both ledgers. The handle is black-boxed like the planes above.
    let obs = Obs::new(Rc::clone(&clock));
    obs.attach_trace(Rc::clone(&tp)).expect("fresh handle");
    obs.attach_metrics(Rc::clone(&metrics)).expect("fresh handle");
    obs.attach_profile(ProfilePlane::new(Rc::clone(&clock))).expect("fresh handle");
    ops.push((
        "obs_emit",
        ns_per_op(ITERS, || {
            std::hint::black_box(&obs).emit(TraceEvent::NetRx { port: 80, len: 64 })
        }),
    ));
    ops.push((
        "obs_bill",
        ns_per_op(ITERS, || std::hint::black_box(&obs).bill(Component::Lock, Cycles(1))),
    ));
    let mut text = String::from("op                   | ns/op (host wall clock)\n---------------------+------------------------\n");
    let mut rows = Vec::new();
    for (op, ns) in &ops {
        text.push_str(&format!("{op:<20} | {ns:.1}\n"));
        rows.push(vec![("op", json_str(op)), ("ns", format!("{ns:.1}"))]);
    }
    Census { name: "planes", text, json: json_doc("planes", "ns_per_op", &rows) }
}

/// The journal checksum census: ns per KB hashed by [`checksum64`]
/// over a data block and a zero block, and by [`checksum64_x2`] over a
/// pair of data blocks, measured in host time.
pub fn checksum_census() -> Census {
    const ITERS: u64 = 5_000;
    let kb = |bytes: usize| bytes as f64 / 1024.0;
    let mut data = [0u8; BLOCK_SIZE];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for byte in &mut data {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *byte = x as u8;
    }
    let other = data.map(|b| b.rotate_left(3));
    let zero = [0u8; BLOCK_SIZE];
    // Inputs and sums go through `black_box`, so the optimizer can
    // neither hash a constant block once nor drop an unused sum.
    let ops = [
        (
            "checksum64_data_block",
            ns_per_op(ITERS, || {
                std::hint::black_box(checksum64(std::hint::black_box(&data)));
            }) / kb(BLOCK_SIZE),
        ),
        (
            "checksum64_zero_block",
            ns_per_op(ITERS, || {
                std::hint::black_box(checksum64(std::hint::black_box(&zero)));
            }) / kb(BLOCK_SIZE),
        ),
        (
            "checksum64_x2_block_pair",
            ns_per_op(ITERS, || {
                let (a, b) = std::hint::black_box((&data, &other));
                std::hint::black_box(checksum64_x2(a, b));
            }) / kb(2 * BLOCK_SIZE),
        ),
    ];
    let mut text = String::from("op                       | ns/KB (host wall clock)\n-------------------------+------------------------\n");
    let mut rows = Vec::new();
    for (op, ns) in &ops {
        text.push_str(&format!("{op:<24} | {ns:.1}\n"));
        rows.push(vec![("op", json_str(op)), ("ns", format!("{ns:.1}"))]);
    }
    Census { name: "checksum", text, json: json_doc("checksum", "ns_per_kb", &rows) }
}

/// One window-sweep row over a lossy wire, drained to convergence in
/// deterministic virtual time.
fn repl_window_row(seed: u64, steps: usize, window: u64) -> (u64, u64, u64, u64, u64) {
    let mut h = ReplHarness::new(seed, ReplConfig { window, ..Default::default() });
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplShipDrop, 1, 5);
    plane.set_rate(FaultSite::ReplAckLoss, 1, 5);
    let report = h.run(steps);
    plane.set_rate(FaultSite::ReplShipDrop, 0, 1);
    plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
    let mut drain_rounds = 0u64;
    while h.lag() > 0 {
        h.ship_round();
        drain_rounds += 1;
        assert!(drain_rounds <= 1024, "a healed wire must drain");
    }
    (report.shipped, report.retransmits, report.dropped, drain_rounds, h.acked())
}

/// The replication window sweep census.
pub fn repl_window_census(seed: u64, steps: usize) -> Census {
    let mut text = String::from(
        "window | shipped | retransmits | dropped | drain rounds | acked\n-------+---------+-------------+---------+--------------+------\n",
    );
    let mut rows = Vec::new();
    for window in [1u64, 2, 4, 8, 16] {
        let (shipped, retransmits, dropped, drain, acked) = repl_window_row(seed, steps, window);
        text.push_str(&format!(
            "{window:>6} | {shipped:>7} | {retransmits:>11} | {dropped:>7} | {drain:>12} | {acked:>5}\n"
        ));
        rows.push(vec![
            ("window", window.to_string()),
            ("shipped", shipped.to_string()),
            ("retransmits", retransmits.to_string()),
            ("dropped", dropped.to_string()),
            ("drain_rounds", drain.to_string()),
            ("acked", acked.to_string()),
        ]);
    }
    Census { name: "repl_window", text, json: json_doc("repl_window", "records", &rows) }
}

/// Runs all four censuses.
pub fn run_all(reps: usize, seed: u64, steps: usize) -> Vec<Census> {
    vec![
        netfilter_census(reps),
        planes_census(),
        repl_window_census(seed, steps),
        checksum_census(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netfilter_census_has_one_row_per_sweep_point() {
        let c = netfilter_census(3);
        assert_eq!(c.name, "netfilter");
        for n in netfilter::BATCH_SWEEP {
            assert!(c.json.contains(&format!("\"batch\": {n}")), "missing n={n}:\n{}", c.json);
        }
        assert!(c.json_file() == "BENCH_netfilter.json");
    }

    /// Asserts the host census `c` has exactly one row per op in
    /// `ops`, each reading more than 0 ns.
    fn assert_measures_every_op(c: &Census, ops: &[&str]) {
        for op in ops {
            assert!(c.json.contains(&format!("\"op\": \"{op}\"")), "missing {op}:\n{}", c.json);
        }
        // A row that reads 0.0 ns measured an optimized-away loop.
        let rows: Vec<f64> = c
            .json
            .lines()
            .filter_map(|l| l.split("\"ns\": ").nth(1))
            .map(|v| v.trim_end_matches(['}', ',']).parse().expect("ns is a number"))
            .collect();
        assert_eq!(rows.len(), ops.len(), "one ns row per op:\n{}", c.json);
        for ns in rows {
            assert!(ns > 0.0, "a census row reads {ns} ns:\n{}", c.text);
        }
    }

    #[test]
    fn planes_census_measures_every_hot_path() {
        assert_measures_every_op(
            &planes_census(),
            &[
                "trace_emit",
                "trace_emit_with_ctx",
                "mint_span",
                "ctx_wire_roundtrip",
                "metrics_inc",
                "obs_emit",
                "obs_bill",
            ],
        );
    }

    #[test]
    fn checksum_census_measures_every_path() {
        assert_measures_every_op(
            &checksum_census(),
            &["checksum64_data_block", "checksum64_zero_block", "checksum64_x2_block_pair"],
        );
    }

    #[test]
    fn repl_window_census_is_deterministic() {
        let a = repl_window_census(0xBE9C, 6);
        let b = repl_window_census(0xBE9C, 6);
        assert_eq!(a.json, b.json, "virtual-time census must replay byte-identically");
        assert!(a.json.contains("\"window\": 16"));
    }

    #[test]
    fn json_doc_shape_is_valid_enough() {
        let doc = json_doc("x", "u", &[vec![("a", "1".into())], vec![("a", "2".into())]]);
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert_eq!(doc.matches("{\"a\"").count(), 2);
        assert_eq!(doc.matches("},").count(), 1);
    }
}
