//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rx_storm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The report behind them goes to
//! stderr. The exit code is 1 when an output check failed, 2 on bad
//! arguments or a measurement error.

use std::process::ExitCode;

use vino_perfbench::{json_line, run, Config, Scale};

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config { seed: 0, seconds: 10.0, trace: false, scale: Scale::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {val}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => cfg.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = val.parse().map_err(|_| bad("a number of seconds"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad("a non-negative number of seconds"));
                }
            }
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// Keeps freed memory in the process heap instead of returning it to
/// the OS. Each round boots and drops whole kernels; with glibc's
/// default, whether a large allocation is served from the heap or by a
/// fresh, page-faulting `mmap` depends on the allocation history, and
/// sub-millisecond timings such as `recover_ms` flip between two modes
/// from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets glibc allocator tunables. It is called
    // first thing in `main`, before this process allocates from another
    // thread, with parameters and values glibc documents as valid.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_allocator() {}

fn main() -> ExitCode {
    steady_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    eprint!("{}", outcome.notes);
    eprintln!("{workload} seed {} inputs {:016x}", cfg.seed, outcome.inputs);
    match json_line(&outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
