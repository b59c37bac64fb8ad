//! The differential profile snapshot (`docs/PROFILING.md`).
//!
//! A pinned-seed workload runs under the profile plane and its ledger
//! is rendered as a flat `<key> <value>` snapshot: per-component cycles
//! for the graft and the kernel, the per-PC totals, the call-tree hot
//! functions and the span census. The snapshot is the golden
//! `tests/goldens/profdiff.snapshot`, checked exactly like every other
//! golden — so a cost-model change that silently shifts where cycles go
//! breaks CI until the golden is regenerated on purpose
//! (`UPDATE_GOLDENS=1 cargo test -p vino-bench profdiff`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use vino_sim::costs;
use vino_sim::metrics::Component;
use vino_sim::Cycles;

use crate::world::{build_profiled, Variant, World};
use vino_sim::metrics::MetricsPlane;
use vino_sim::profile::ProfilePlane;

/// Invocations in the pinned workload.
pub const REPS: u64 = 50;

/// The pinned workload: lock the shared buffer, walk a small loop
/// through an intra-graft subroutine (so the call tree has depth), and
/// touch memory (so the safe variant pays SFI clamps).
pub const PROFDIFF_SRC: &str = "
    const r1, 0          ; shared-buffer lock handle
    call $lock
    call $shared_base
    mov r6, r0
    const r4, 0
    const r9, 8
loop:
    bgeu r4, r9, done
    calll work
    addi r4, r4, 1
    jmp loop
done:
    const r1, 0
    call $unlock         ; two-phase locking defers this to commit
    halt r5
work:
    loadw r10, [r6+0]
    add r5, r5, r10
    addi r5, r5, 3
    storew r5, [r6+4]
    ret
";

/// Runs the pinned workload and returns the world with its planes.
fn run_workload() -> (World, Rc<MetricsPlane>, Rc<ProfilePlane>) {
    let (mut w, mp, pp) = build_profiled(PROFDIFF_SRC, 8192, Variant::Safe, 1);
    w.graft.mem().graft_write_u32(0, 7);
    for _ in 0..REPS {
        // The dispatch indirection, charged at the call site as the
        // subsystems do.
        let cost = Cycles(costs::INDIRECTION_CYCLES);
        w.clock.charge(cost);
        mp.charge(Component::Indirection, cost);
        pp.charge(Component::Indirection, cost);
        let out = w.graft.invoke([0, 0, 0, 0]);
        assert!(
            matches!(out, vino_core::engine::InvokeOutcome::Ok { .. }),
            "profdiff workload must commit: {out:?}"
        );
    }
    (w, mp, pp)
}

/// Runs the pinned workload and renders the profile ledger as sorted
/// `<key> <value>` lines. Deterministic: the same tree always produces
/// the same bytes.
pub fn snapshot() -> String {
    let (w, _mp, pp) = run_workload();
    let tag = pp.tag("bench-graft");
    let attr = pp.attribution(tag).expect("interned at install");
    let mut kv: BTreeMap<String, u64> = BTreeMap::new();
    kv.insert("graft.invocations".into(), attr.invocations);
    kv.insert("graft.instrs".into(), pp.instrs_of(tag));
    for c in Component::ALL {
        kv.insert(format!("graft.comp.{}", c.label()), attr.cycles[c as usize]);
    }
    let kernel = pp.kernel_attribution();
    for c in Component::ALL {
        kv.insert(format!("kernel.comp.{}", c.label()), kernel[c as usize]);
    }
    let (graft_fn, sfi, hits) = pp.pc_totals(tag);
    kv.insert("pc.graft_fn_cycles".into(), graft_fn.get());
    kv.insert("pc.sfi_cycles".into(), sfi.get());
    kv.insert("pc.hits".into(), hits);
    for f in pp.top_functions(4) {
        kv.insert(format!("fn.{}@{}.self", f.graft, f.entry), f.self_cycles);
        kv.insert(format!("fn.{}@{}.sfi", f.graft, f.entry), f.sfi_cycles);
        kv.insert(format!("fn.{}@{}.calls", f.graft, f.entry), f.calls);
    }
    kv.insert("spans.count".into(), pp.span_count() as u64);
    kv.insert("spans.dropped".into(), pp.spans_dropped());
    kv.insert("clock.total_cycles".into(), w.clock.now().get());
    let mut out = String::new();
    for (k, v) in kv {
        let _ = writeln!(out, "{k} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(snapshot(), snapshot(), "same tree, same bytes");
    }

    #[test]
    fn clean_tree_passes_the_gate() {
        crate::golden::check("profdiff.snapshot", &snapshot());
    }
}
