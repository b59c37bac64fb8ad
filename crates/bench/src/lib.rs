//! The benchmark harness: regenerates every table and figure in the
//! paper's evaluation (§4) plus the §6 lock-manager ablation.
//!
//! Methodology follows §4: each measurement path is run repeatedly, the
//! top and bottom 10 % of samples are dropped, and the trimmed mean in
//! microseconds is reported (the virtual clock *is* the cycle counter,
//! so dispersion is zero unless a path is intrinsically variable — the
//! paper's §4 caveats about cache effects and the page daemon apply to
//! their hardware, not the model).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table3`] | Table 3 — read-ahead graft overhead |
//! | [`table4`] | Table 4 — page-eviction graft overhead |
//! | [`table5`] | Table 5 — scheduling graft overhead |
//! | [`table6`] | Table 6 — encryption graft overhead |
//! | [`table7`] | Table 7 — graft abort costs |
//! | [`equation`] | §4.5 — the abort-cost equation `35µs + 10L + cG` |
//! | [`misfit_micro`] | §3.3 — per-load/store and per-call SFI costs |
//! | [`lockfig`] | Figures 4/5 — policy-encapsulation indirection cost |
//! | [`benefit`] | §4.1.1 / §4.2.2 — cost-benefit crossover figures |
//! | [`ablation`] | design-choice ablations: eviction policy, time-out sweep |
//! | [`tracecount`] | trace-plane event census (observability tripwire) |
//! | [`netfilter`] | packet-filter path census + batched-dispatch sweep |
//! | [`profdiff`] | differential profile snapshot (cost-model drift tripwire) |
//! | [`debug`] | debugging plane: checkpoint/restore, bisect, shrink, timelines |
//! | [`golden`] | the one exact checker for every pinned output (`tests/goldens/`) |

pub mod ablation;
pub mod benefit;
pub mod census;
pub mod debug;
pub mod equation;
pub mod golden;
pub mod lockfig;
pub mod misfit_micro;
pub mod netfilter;
pub mod profdiff;
pub mod render;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod tracecount;
pub mod world;

pub use render::{PathTable, Row};

/// Runs every experiment and renders the full report.
pub fn full_report(reps: usize) -> String {
    let mut out = String::new();
    out.push_str(&table3::run(reps).render());
    out.push('\n');
    out.push_str(&table4::run(reps).render());
    out.push('\n');
    out.push_str(&table5::run(reps).render());
    out.push('\n');
    out.push_str(&table6::run(reps).render());
    out.push('\n');
    out.push_str(&table7::run(reps).render());
    out.push('\n');
    out.push_str(&equation::run().render());
    out.push('\n');
    out.push_str(&misfit_micro::run().render());
    out.push('\n');
    out.push_str(&lockfig::run(reps).render());
    out.push('\n');
    out.push_str(&benefit::readahead_crossover().render());
    out.push('\n');
    out.push_str(&benefit::eviction_break_even(reps).render());
    out.push('\n');
    out.push_str(&ablation::eviction_policy().render());
    out.push('\n');
    out.push_str(&ablation::lock_timeout_sweep().render());
    out.push('\n');
    out.push_str(&netfilter::run(reps).render());
    out.push('\n');
    out.push_str(&tracecount::run().render());
    out
}

#[cfg(test)]
mod tests {
    /// Every table in the report runs on the virtual clock, so the
    /// whole report is pinned exactly: a cost-model change moves it.
    #[test]
    fn full_report_matches_golden() {
        crate::golden::check("full_report.tables", &super::full_report(5));
    }
}
