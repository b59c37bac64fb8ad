//! `tables` — regenerates every table and figure from the paper's
//! evaluation section against the simulated VINO kernel, plus the
//! debugging-plane subcommands (`bisect`, `shrink`, `replay`,
//! `timeline`, `checkpoints` — see `docs/DEBUGGING.md`), the
//! watch-plane subcommand (`watch` — see `docs/WATCH.md`), and the
//! replication census (`repl` — see `docs/REPLICATION.md`).
//!
//! Usage: `cargo run -p vino-bench --release [-- --reps N]`

use vino_bench::debug;
use vino_core::kernel::KernelConfig;
use vino_sim::TimelineOpts;

/// Flags shared by the debug subcommands.
struct DebugArgs {
    seed: u64,
    steps: usize,
    out: Option<String>,
    topts: TimelineOpts,
    /// `watch` only: run the dense trap storm instead of the generated
    /// one, so the alert stream and admission gate have real work.
    hostile: bool,
    /// `census` only: also write `BENCH_<name>.json` files.
    json: bool,
    /// `census` only: samples per measurement path.
    reps: usize,
}

fn parse_debug_args(args: &mut impl Iterator<Item = String>) -> DebugArgs {
    let mut d = DebugArgs {
        seed: 0xD15A57E5,
        steps: debug::DEFAULT_STEPS,
        out: None,
        topts: TimelineOpts::default(),
        hostile: false,
        json: false,
        reps: 25,
    };
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} expects a value");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                d.seed = need(args, "--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects a u64");
                    std::process::exit(2);
                });
            }
            "--steps" => {
                d.steps = need(args, "--steps").parse().unwrap_or_else(|_| {
                    eprintln!("--steps expects a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => d.out = Some(need(args, "--out")),
            "--hostile" => d.hostile = true,
            "--json" => d.json = true,
            "--reps" => {
                d.reps = need(args, "--reps").parse().unwrap_or_else(|_| {
                    eprintln!("--reps expects a positive integer");
                    std::process::exit(2);
                });
            }
            "--time-range" => {
                let v = need(args, "--time-range");
                let Some((lo, hi)) = v.split_once("..") else {
                    eprintln!("--time-range expects LO..HI in virtual cycles");
                    std::process::exit(2);
                };
                match (lo.parse(), hi.parse()) {
                    (Ok(lo), Ok(hi)) => d.topts.range = Some((lo, hi)),
                    _ => {
                        eprintln!("--time-range expects LO..HI in virtual cycles");
                        std::process::exit(2);
                    }
                }
            }
            "--lanes" => {
                d.topts.lanes =
                    Some(need(args, "--lanes").split(',').map(str::to_string).collect());
            }
            "--width" => {
                d.topts.width = need(args, "--width").parse().unwrap_or_else(|_| {
                    eprintln!("--width expects a positive integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown debug argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    d
}

fn cmd_bisect(d: &DebugArgs) {
    let spec = debug::StormSpec::generate(d.seed, d.steps);
    let cfg = KernelConfig::default();
    match debug::bisect(&spec, &cfg) {
        Some(r) => {
            println!(
                "storm seed {} ({} steps): {} injections, invariant `{}` violated",
                d.seed, d.steps, r.total_injections, r.invariant
            );
            println!(
                "culprit: injection #{} — {:?} at site-visit {} (found in {} capped replays, \
                 ⌈log₂ {}⌉+1 = {})",
                r.culprit_cap,
                r.culprit.0,
                r.culprit.1,
                r.replays,
                r.total_injections,
                (64 - (r.total_injections.max(1) - 1).leading_zeros()) + 1,
            );
        }
        None => println!(
            "storm seed {} ({} steps): every invariant held — nothing to bisect",
            d.seed, d.steps
        ),
    }
}

fn cmd_shrink(d: &DebugArgs) {
    let spec = debug::StormSpec::generate(d.seed, d.steps);
    let cfg = KernelConfig::default();
    match debug::shrink(&spec, &cfg) {
        Some(r) => {
            let text = debug::serialize_reproducer(&r.spec, r.invariant);
            println!(
                "shrunk {} steps -> {} (invariant `{}`, {} replays)",
                r.original_steps,
                r.spec.steps.len(),
                r.invariant,
                r.replays
            );
            match &d.out {
                Some(path) => {
                    std::fs::write(path, &text).unwrap_or_else(|e| {
                        eprintln!("{path}: {e}");
                        std::process::exit(2);
                    });
                    println!("wrote {path}");
                }
                None => print!("{text}"),
            }
        }
        None => println!(
            "storm seed {} ({} steps): every invariant held — nothing to shrink",
            d.seed, d.steps
        ),
    }
}

fn cmd_replay(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let (spec, invariant) = debug::parse_reproducer(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let opts = debug::StormOpts::default();
    let a = debug::run_storm(&spec, &opts);
    let b = debug::run_storm(&spec, &opts);
    let identical = a.trace == b.trace && a.metrics == b.metrics;
    match &a.violation {
        Some(v) if v.invariant == invariant => {
            println!("reproduced: `{}` — {}", v.invariant, v.detail)
        }
        Some(v) => {
            println!("violated `{}` (reproducer claims `{invariant}`): {}", v.invariant, v.detail)
        }
        None => println!("did NOT reproduce: every invariant held"),
    }
    println!("replay determinism: {}", if identical { "byte-identical" } else { "DIVERGED" });
    if !identical || a.violation.as_ref().map(|v| v.invariant) != Some(invariant.as_str()) {
        std::process::exit(1);
    }
}

fn cmd_timeline(d: &DebugArgs) {
    let spec = debug::StormSpec::generate(d.seed, d.steps);
    print!("{}", debug::storm_timeline(&spec, &KernelConfig::default(), &d.topts));
}

fn cmd_checkpoints(d: &DebugArgs) {
    let spec = debug::StormSpec::generate(d.seed, d.steps);
    let opts = debug::StormOpts { checkpoints: true, ..debug::StormOpts::default() };
    let full = debug::run_storm(&spec, &opts);
    println!(
        "storm seed {} ({} steps): {} checkpoints at a {} virtual-ms cadence",
        d.seed,
        d.steps,
        full.checkpoints.len(),
        opts.cfg.checkpoint_interval_ms
    );
    for cp in &full.checkpoints {
        println!("  {}", cp.summary());
    }
    if let Some(cp) = full.checkpoints.get(full.checkpoints.len() / 2) {
        let resumed = debug::resume_storm(&spec, cp, &opts);
        let identical = resumed.trace == full.trace && resumed.metrics == full.metrics;
        println!(
            "resume from step {}: {}",
            cp.at_step,
            if identical { "byte-identical to the uninterrupted run" } else { "DIVERGED" }
        );
        if !identical {
            std::process::exit(1);
        }
    }
}

fn cmd_watch(d: &DebugArgs) {
    let spec = if d.hostile {
        // A distilled hostile tenant: three back-to-back one-shot VM
        // traps (inside the 1000 ms abort-storm window) then a calm
        // tail, so alerts fire, the admission gate vetoes, and the
        // alert resolves — the same scenario the watch battery pins.
        let trap = debug::StormStep {
            pre_ms: 1,
            fault: debug::FaultChoice::VmTrap { offset: 0 },
            graft: 0,
            arg: 7,
            funded: true,
            read_block: 0,
        };
        let calm = debug::StormStep { fault: debug::FaultChoice::None, pre_ms: 50, ..trap };
        debug::StormSpec { seed: d.seed, steps: vec![trap, trap, trap, calm, calm, calm] }
    } else {
        debug::StormSpec::generate(d.seed, d.steps)
    };
    let opts = debug::StormOpts::default();
    let a = debug::run_storm(&spec, &opts);
    println!(
        "storm seed {} ({} steps): {} alert edges, admission {}",
        d.seed,
        spec.steps.len(),
        a.alerts.lines().count(),
        a.admission
    );
    if a.alerts.is_empty() {
        println!("alert stream: (empty — every window stayed under threshold)");
    } else {
        println!("alert stream:");
        print!("{}", a.alerts);
    }
    print!("{}", a.watch);
    // Self-test: the watch plane is deterministic — a same-seed replay
    // must reproduce the alert stream and decisions byte-for-byte.
    let b = debug::run_storm(&spec, &opts);
    let identical = a.alerts == b.alerts && a.watch == b.watch && a.admission == b.admission;
    println!("watch determinism: {}", if identical { "byte-identical" } else { "DIVERGED" });
    if !identical {
        std::process::exit(1);
    }
}

/// One replication-census row: a full workload at one window size over
/// a lossy wire, drained to convergence. Returns the drained harness's
/// committed-state fingerprint plus the serialized trace and metrics
/// for the determinism self-test.
fn repl_census_row(seed: u64, steps: usize, window: u64) -> (String, u64) {
    use std::rc::Rc;
    use vino_repl::{committed_state_fingerprint, ReplConfig, ReplHarness};
    use vino_sim::fault::FaultSite;

    let mut h = ReplHarness::new(seed, ReplConfig { window, ..Default::default() });
    let plane = Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplShipDrop, 1, 5);
    plane.set_rate(FaultSite::ReplAckLoss, 1, 5);
    let report = h.run(steps);
    // Heal the wire and measure the drain: how many extra rounds the
    // window needs to converge after the workload stops.
    plane.set_rate(FaultSite::ReplShipDrop, 0, 1);
    plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
    let mut drain_rounds = 0u64;
    while h.lag() > 0 {
        h.ship_round();
        drain_rounds += 1;
        assert!(drain_rounds <= 1024, "a healed wire must drain");
    }
    h.assert_replica_matches_committed_prefix();
    let secs = h.clock().now().as_ms() / 1000.0;
    let rate = if secs > 0.0 { h.acked() as f64 / secs } else { 0.0 };
    let row = format!(
        "{window:>6} | {:>7} | {:>11} | {:>7} | {:>9} | {:>12} | {rate:>9.1}",
        report.shipped, report.retransmits, report.dropped, report.final_lag, drain_rounds,
    );
    let fp = {
        let img = h.replica().fs.borrow().disk_image();
        committed_state_fingerprint(&img)
    };
    (row, fp)
}

fn cmd_repl(d: &DebugArgs) {
    println!(
        "replication census — seed {}, {} rounds, 1/5 frame drops, 1/5 ack loss \
         (docs/REPLICATION.md, EXPERIMENTS.md A8)",
        d.seed, d.steps
    );
    println!("window | shipped | retransmits | dropped | final lag | drain rounds | records/s");
    println!("-------+---------+-------------+---------+-----------+--------------+----------");
    let mut fingerprints = Vec::new();
    for window in [1u64, 2, 4, 8, 16] {
        let (row, fp) = repl_census_row(d.seed, d.steps, window);
        println!("{row}");
        fingerprints.push((window, fp));
    }
    // Every window size converges to the same committed state: the
    // window bounds in-flight records, never what is replicated.
    let (_, fp0) = fingerprints[0];
    for (window, fp) in &fingerprints {
        if *fp != fp0 {
            eprintln!("window {window} converged to a different committed state");
            std::process::exit(1);
        }
    }
    // Self-test: a same-seed replay of one row is byte-identical.
    let a = repl_census_row(d.seed, d.steps, 4);
    let b = repl_census_row(d.seed, d.steps, 4);
    let identical = a == b;
    println!("repl determinism: {}", if identical { "byte-identical" } else { "DIVERGED" });
    if !identical {
        std::process::exit(1);
    }
}

fn cmd_census(d: &DebugArgs) {
    println!(
        "bench census — {} reps, seed {}, {} repl rounds (EXPERIMENTS.md A9)",
        d.reps, d.seed, d.steps
    );
    for c in vino_bench::census::run_all(d.reps, d.seed, d.steps) {
        println!();
        println!("[{}]", c.name);
        print!("{}", c.text);
        if d.json {
            let file = c.json_file();
            std::fs::write(&file, &c.json).unwrap_or_else(|e| {
                eprintln!("{file}: {e}");
                std::process::exit(2);
            });
            println!("wrote {file}");
        }
    }
}

/// The lag-path walker over a live stalled harness: stall the ack
/// path, attribute where the oldest unacked record's age went, prove
/// the per-hop sum reconciles exactly with the watch plane's gauge,
/// then heal the wire and show convergence.
fn cmd_lagpath(d: &DebugArgs) {
    use vino_repl::{lag_path, ReplConfig, ReplHarness};
    use vino_sim::fault::FaultSite;

    let mut h = ReplHarness::new(d.seed, ReplConfig { window: 2, ..Default::default() });
    let plane = std::rc::Rc::clone(h.fault_plane());
    plane.set_rate(FaultSite::ReplAckLoss, 1, 1);
    h.run(d.steps.min(12));
    let s = h.shipping_state();
    println!(
        "shipping state: window {} ({} in flight), shipped {}, acked {}, applied {}, lag {}, \
         {} retransmits, {} drops",
        s.window,
        s.in_flight,
        s.last_shipped,
        s.last_acked,
        s.applied,
        s.lag,
        s.retransmits,
        s.frame_drops
    );
    let Some(report) = lag_path(&h) else {
        println!("lag 0 — nothing to attribute (try more --steps)");
        return;
    };
    print!("{}", report.render());
    let gauge = h.watch_plane().repl_lag_age();
    let reconciled = report.total == gauge;
    println!(
        "watch repl-lag-age gauge: {} cyc — {}",
        gauge.0,
        if reconciled { "reconciled exactly" } else { "DIVERGED" }
    );
    if !reconciled {
        std::process::exit(1);
    }
    plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
    let mut rounds = 0;
    while h.lag() > 0 && rounds < 64 {
        h.ship_round();
        rounds += 1;
    }
    println!("healed wire: lag 0 after {rounds} drain rounds");
}

fn main() {
    let mut reps = 100usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "bisect" => {
                cmd_bisect(&parse_debug_args(&mut args));
                return;
            }
            "shrink" => {
                cmd_shrink(&parse_debug_args(&mut args));
                return;
            }
            "replay" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("replay expects a reproducer file path");
                    std::process::exit(2);
                });
                cmd_replay(&path);
                return;
            }
            "timeline" => {
                cmd_timeline(&parse_debug_args(&mut args));
                return;
            }
            "checkpoints" => {
                cmd_checkpoints(&parse_debug_args(&mut args));
                return;
            }
            "watch" => {
                cmd_watch(&parse_debug_args(&mut args));
                return;
            }
            "repl" => {
                cmd_repl(&parse_debug_args(&mut args));
                return;
            }
            "census" => {
                cmd_census(&parse_debug_args(&mut args));
                return;
            }
            "lagpath" => {
                cmd_lagpath(&parse_debug_args(&mut args));
                return;
            }
            "--reps" => {
                reps = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--reps expects a positive integer");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("tables: regenerate the paper's evaluation tables");
                println!("  --reps N          samples per measurement path (default 100)");
                println!();
                println!("debugging-plane subcommands (docs/DEBUGGING.md):");
                println!("  bisect      --seed S [--steps N]   first invariant-flipping injection");
                println!("  shrink      --seed S [--out FILE]  ddmin-minimal failing reproducer");
                println!("  replay FILE                        re-run a reproducer, twice");
                println!("  timeline    --seed S [--time-range A..B] [--lanes l1,l2] [--width W]");
                println!("  checkpoints --seed S               checkpoint cadence + resume check");
                println!(
                    "  watch       --seed S [--steps N] [--hostile]  alert stream + admission decisions"
                );
                println!(
                    "  repl        --seed S [--steps N]   replication census: convergence vs window size"
                );
                println!(
                    "  census      [--json] [--reps N]    machine-readable sweeps; --json writes BENCH_<name>.json"
                );
                println!(
                    "  lagpath     --seed S [--steps N]   critical-path lag attribution vs the watch gauge"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    println!(
        "VINO reproduction — 'Dealing With Disaster' (OSDI '96) evaluation tables\n\
         methodology: {reps} samples/path, top+bottom 10% trimmed (§4)\n"
    );
    println!("{}", vino_bench::full_report(reps));
}
