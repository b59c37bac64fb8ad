//! Shared measurement machinery: building graft instances on the three
//! protection variants and timing closures against the virtual clock
//! with the paper's trimmed-mean methodology.

use std::rc::Rc;

use vino_core::engine::{GraftEngine, GraftInstance};
use vino_core::hostfn;
use vino_misfit::{MisfitTool, SigningKey};
use vino_sim::metrics::MetricsPlane;
use vino_sim::obs::Obs;
use vino_sim::profile::ProfilePlane;
use vino_sim::stats::{trimmed_summary, Summary};
use vino_sim::AttachError;
use vino_sim::{ThreadId, VirtualClock};
use vino_txn::locks::LockClass;
use vino_vm::asm::assemble;
use vino_vm::isa::Program;
use vino_vm::mem::{AddressSpace, Protection};

/// How a benchmark graft is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// MiSFIT-instrumented, SFI address space — the "safe path".
    Safe,
    /// Raw code, unprotected address space — the "unsafe path".
    Unsafe,
}

/// A freshly built measurement world: one engine, one graft instance.
pub struct World {
    /// The engine (clock, transactions, resources).
    pub engine: Rc<GraftEngine>,
    /// The instance under test.
    pub graft: GraftInstance,
    /// The clock (shortcut for `engine.clock`).
    pub clock: Rc<VirtualClock>,
}

/// The thread benchmark grafts run on.
pub const BENCH_THREAD: ThreadId = ThreadId(1);

/// Builds a world around `src`, registering `locks` engine locks first
/// (so the graft's lock handle 0 is always valid).
pub fn build(src: &str, seg_size: usize, variant: Variant, locks: usize) -> World {
    build_on(VirtualClock::new(), src, seg_size, variant, locks, |_| Ok(()))
}

/// [`build`] on `clock`, with planes attached by `attach` to the
/// engine's handle *before* the instance is created, so the instance
/// interns its tags and its VM reports to them.
fn build_on(
    clock: Rc<VirtualClock>,
    src: &str,
    seg_size: usize,
    variant: Variant,
    locks: usize,
    attach: impl FnOnce(&Obs) -> Result<(), AttachError>,
) -> World {
    let engine = GraftEngine::new(Rc::clone(&clock));
    attach(&engine.obs).expect("fresh engine");
    for _ in 0..locks {
        engine.register_lock(LockClass::SharedBuffer);
    }
    let prog = assemble("bench-graft", src, &hostfn::symbols()).expect("bench graft assembles");
    let graft = instance_from(&engine, prog, seg_size, variant);
    World { engine, graft, clock }
}

/// [`build`] with a metrics plane attached before the instance is
/// created, so the VM attributes instruction charges. Used by the
/// runtime-attribution reconciliation tests (`docs/METRICS.md`).
pub fn build_metered(
    src: &str,
    seg_size: usize,
    variant: Variant,
    locks: usize,
) -> (World, Rc<MetricsPlane>) {
    let clock = VirtualClock::new();
    let mp = MetricsPlane::new(Rc::clone(&clock));
    let w =
        build_on(clock, src, seg_size, variant, locks, |obs| obs.attach_metrics(Rc::clone(&mp)));
    (w, mp)
}

/// [`build_metered`] plus a profile plane, attached the same way (so
/// the VM bills per-PC cycles and the wrapper brackets invocations).
/// Used by the profile reconciliation tests and the differential
/// profile gate (`docs/PROFILING.md`).
pub fn build_profiled(
    src: &str,
    seg_size: usize,
    variant: Variant,
    locks: usize,
) -> (World, Rc<MetricsPlane>, Rc<ProfilePlane>) {
    let clock = VirtualClock::new();
    let mp = MetricsPlane::new(Rc::clone(&clock));
    let pp = ProfilePlane::new(Rc::clone(&clock));
    let w = build_on(clock, src, seg_size, variant, locks, |obs| {
        obs.attach_metrics(Rc::clone(&mp))?;
        obs.attach_profile(Rc::clone(&pp))
    });
    (w, mp, pp)
}

/// Builds an instance from an already-assembled program, running it
/// through the real tool + loader pipeline for the chosen variant.
pub fn instance_from(
    engine: &Rc<GraftEngine>,
    prog: Program,
    seg_size: usize,
    variant: Variant,
) -> GraftInstance {
    let tool = MisfitTool::new(SigningKey::from_passphrase("bench"));
    let (image, protection) = match variant {
        Variant::Safe => {
            let (img, _) = tool.process(&prog).expect("instrumentation");
            (img, Protection::Sfi)
        }
        Variant::Unsafe => (tool.seal(&prog), Protection::Unprotected),
    };
    let loaded = tool.verify_and_decode(&image).expect("fresh image verifies");
    let principal = engine.rm.borrow_mut().create_graft_principal();
    let mem = AddressSpace::new(seg_size, 4096, protection);
    GraftInstance::new(Rc::clone(engine), loaded, mem, BENCH_THREAD, principal)
}

/// Measures `op` `reps` times, each against a fresh state produced by
/// `mk`, returning the trimmed summary of per-rep elapsed microseconds.
pub fn measure<S>(
    reps: usize,
    mut mk: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, &Rc<VirtualClock>),
) -> Summary
where
    S: HasClock,
{
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut state = mk();
        let clock = state.clock();
        let t0 = clock.now();
        op(&mut state, &clock);
        samples.push(clock.since(t0).as_us());
    }
    trimmed_summary(&samples).expect("reps > 0")
}

/// Anything that exposes the virtual clock it charges.
pub trait HasClock {
    /// The clock used by this state.
    fn clock(&self) -> Rc<VirtualClock>;
}

impl HasClock for World {
    fn clock(&self) -> Rc<VirtualClock> {
        Rc::clone(&self.clock)
    }
}

impl HasClock for Rc<VirtualClock> {
    fn clock(&self) -> Rc<VirtualClock> {
        Rc::clone(self)
    }
}

impl<T> HasClock for (T, Rc<VirtualClock>) {
    fn clock(&self) -> Rc<VirtualClock> {
        Rc::clone(&self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_core::engine::InvokeOutcome;

    #[test]
    fn build_and_invoke_both_variants() {
        for v in [Variant::Safe, Variant::Unsafe] {
            let mut w = build("halt r1", 4096, v, 1);
            match w.graft.invoke([42, 0, 0, 0]) {
                InvokeOutcome::Ok { result, .. } => assert_eq!(result, 42),
                other => panic!("{v:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn safe_variant_is_instrumented() {
        let w_safe = build("loadw r0, [r1+0]\nhalt r0", 4096, Variant::Safe, 0);
        let w_raw = build("loadw r0, [r1+0]\nhalt r0", 4096, Variant::Unsafe, 0);
        // The instrumented program is longer (sandbox sequence), so its
        // cycle cost is higher on identical work.
        let mut ws = w_safe;
        let mut wr = w_raw;
        let base = ws.graft.mem_ref().seg_base();
        let t0 = ws.clock.now();
        ws.graft.invoke([base, 0, 0, 0]);
        let safe_cost = ws.clock.since(t0);
        let base_r = wr.graft.mem_ref().seg_base();
        let t0 = wr.clock.now();
        wr.graft.invoke([base_r, 0, 0, 0]);
        let raw_cost = wr.clock.since(t0);
        assert!(safe_cost > raw_cost);
    }

    #[test]
    fn measure_is_deterministic() {
        let s = measure(
            20,
            || build("halt r0", 1024, Variant::Safe, 0),
            |w, _| {
                w.graft.invoke([0; 4]);
            },
        );
        assert!(s.std_dev < 1e-9, "identical worlds must time identically");
        assert!(s.mean > 60.0, "at least begin+commit envelope");
    }
}
