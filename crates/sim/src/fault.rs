//! Deterministic fault injection for the whole simulated kernel.
//!
//! The paper's claim is not "grafts usually behave" but "the kernel
//! *survives* when they don't" (Rule 9: forward progress despite faulty
//! extensions). Exercising that claim needs faults on demand: disk
//! errors and stalls, traps in the middle of graft execution, lock
//! time-out storms, resource-limit exhaustion, and corrupted images at
//! load time. This module is the one shared schedule all subsystems
//! consult, so a single seed reproduces an entire disaster scenario
//! exactly, run after run.
//!
//! Each subsystem threads a [`FaultPlane`] handle to its named
//! [`FaultSite`] and calls [`FaultPlane::fire`] at the instrumentation
//! point ("should this visit fail?"). Sites fire two ways, composable:
//!
//! - **rate faults** — `set_rate(site, num, den)` makes each visit fail
//!   with probability `num/den`, drawn from the plane's seeded RNG;
//! - **armed one-shots** — `arm(site, nth)` makes exactly the `nth`
//!   visit (1-based, counted from plane creation) fail, which is how
//!   "trap at the Nth interpreted instruction" is expressed.
//!
//! The plane is passive and single-threaded like the rest of the
//! simulator: interior mutability behind `Rc`, no locking, and no
//! wall-clock anywhere.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::clock::Cycles;
use crate::rng::SplitMix64;

/// A named injection point threaded through the stack. The plane keeps
/// one slot per site, indexed by its discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// A disk read fails with a media error (`vino-dev::disk`).
    DiskRead,
    /// A disk write fails with a media error (`vino-dev::disk`).
    DiskWrite,
    /// A disk access stalls for [`FaultPlane::stall`] extra model time
    /// before completing (`vino-dev::disk`).
    DiskStall,
    /// The GraftVM traps at this interpreted instruction (`vino-vm`).
    VmTrap,
    /// A granted transactional lock acquisition is scheduled for an
    /// immediate forced time-out — a storm of them aborts holders as
    /// fast as the clock ticks (`vino-txn`).
    LockTimeoutStorm,
    /// A resource charge is denied as over-limit even though the
    /// principal had headroom (`vino-rm`).
    ResourceExhaust,
    /// A signed graft image fails verification at load time, as if
    /// corrupted in transit (`vino-misfit`).
    ImageCorrupt,
    /// A packet admitted to an RX ring is forced to drop as if the ring
    /// were full, regardless of actual depth (`vino-net`).
    NetRxOverflow,
    /// The next packet-filter batch traps mid-run: the plane arms a
    /// [`FaultSite::VmTrap`] one-shot on the filter's first interpreted
    /// instruction (`vino-net`).
    NetFilterTrap,
    /// A steer verdict is redirected back at the port it came from,
    /// manufacturing a steering cycle the hop budget must cut
    /// (`vino-net`).
    NetSteerLoop,
    /// Power is cut at the top of a journalled update, before any
    /// journal block reaches the disk: the transaction vanishes
    /// entirely (`vino-fs`).
    KernelCrashBeforeJournal,
    /// Power is cut while journal blocks are streaming out: the record
    /// being written persists only as a torn prefix, and recovery must
    /// discard the tail (`vino-fs`).
    KernelCrashMidJournal,
    /// Power is cut after the commit marker is durable but before any
    /// home-location block is checkpointed: recovery must roll the
    /// whole transaction forward (`vino-fs`).
    KernelCrashAfterCommit,
    /// Power is cut partway through checkpointing home-location blocks:
    /// some are new, some old, and recovery must make them all new
    /// (`vino-fs`).
    KernelCrashMidCheckpoint,
    /// A disk write persists only a prefix of its 4 KB block — the
    /// torn-write hazard journal checksums exist to catch
    /// (`vino-dev::disk`).
    DiskTornWrite,
    /// A shipped replication frame is dropped on the wire before it
    /// reaches the replica's reserved port (`vino-repl`).
    ReplShipDrop,
    /// Two in-flight replication frames swap places within the shipping
    /// window, so the replica sees them out of order (`vino-repl`).
    ReplShipReorder,
    /// A cumulative ack from the replica is lost, so the primary
    /// retransmits from its last acked sequence (`vino-repl`).
    ReplAckLoss,
    /// The primary kernel loses power at a replication-schedule point;
    /// the replica must finish replay and be promoted (`vino-repl`).
    ReplPrimaryCrash,
    /// The replica kernel loses power mid-apply; its own journal makes
    /// the half-applied record recoverable on remount (`vino-repl`).
    ReplReplicaCrash,
}

/// Every site, for iteration in diagnostics and docs.
pub const ALL_SITES: &[FaultSite] = &[
    FaultSite::DiskRead,
    FaultSite::DiskWrite,
    FaultSite::DiskStall,
    FaultSite::VmTrap,
    FaultSite::LockTimeoutStorm,
    FaultSite::ResourceExhaust,
    FaultSite::ImageCorrupt,
    FaultSite::NetRxOverflow,
    FaultSite::NetFilterTrap,
    FaultSite::NetSteerLoop,
    FaultSite::KernelCrashBeforeJournal,
    FaultSite::KernelCrashMidJournal,
    FaultSite::KernelCrashAfterCommit,
    FaultSite::KernelCrashMidCheckpoint,
    FaultSite::DiskTornWrite,
    FaultSite::ReplShipDrop,
    FaultSite::ReplShipReorder,
    FaultSite::ReplAckLoss,
    FaultSite::ReplPrimaryCrash,
    FaultSite::ReplReplicaCrash,
];

const N_SITES: usize = ALL_SITES.len();

/// The crash-point family, in commit-pipeline order. Iterated by the
/// recovery battery to cover every power-cut position.
pub const CRASH_SITES: &[FaultSite] = &[
    FaultSite::KernelCrashBeforeJournal,
    FaultSite::KernelCrashMidJournal,
    FaultSite::KernelCrashAfterCommit,
    FaultSite::KernelCrashMidCheckpoint,
];

/// The replication-fault family: wire losses first, then the two
/// node-death sites. Iterated by the repl battery to cover every
/// loss-pattern × crash-point combination.
pub const REPL_SITES: &[FaultSite] = &[
    FaultSite::ReplShipDrop,
    FaultSite::ReplShipReorder,
    FaultSite::ReplAckLoss,
    FaultSite::ReplPrimaryCrash,
    FaultSite::ReplReplicaCrash,
];

#[derive(Debug, Default, Clone)]
struct SiteState {
    /// Per-visit failure probability as `num/den`; `None` = never.
    rate: Option<(u64, u64)>,
    /// 1-based visit indices that must fail (one-shots), sorted.
    armed: Vec<u64>,
    /// Visits so far.
    visits: u64,
    /// Faults injected so far.
    fired: u64,
}

/// Upcoming visits to `st` that cannot fire (see
/// [`FaultPlane::quiet_visits`]).
fn quiet(st: &SiteState) -> u64 {
    if st.rate.is_some() {
        return 0;
    }
    st.armed.first().map_or(u64::MAX, |&nth| nth.saturating_sub(st.visits + 1))
}

/// An opaque snapshot of a [`FaultPlane`]'s full mutable state (RNG
/// stream position, per-site schedules and counters, cap and schedule
/// log). Captured by [`FaultPlane::export_state`] and replanted with
/// [`FaultPlane::restore_state`] so a replay can resume mid-stream.
#[derive(Debug, Clone)]
pub struct FaultPlaneState {
    rng: u64,
    sites: [SiteState; N_SITES],
    stall: Cycles,
    cap: Option<u64>,
    hits: u64,
    record: bool,
    schedule: Vec<(FaultSite, u64)>,
}

/// The shared, seeded fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlane {
    rng: RefCell<SplitMix64>,
    sites: RefCell<[SiteState; N_SITES]>,
    /// Extra latency charged when [`FaultSite::DiskStall`] fires.
    stall: Cell<Cycles>,
    /// Plane-wide injection budget: once this many faults have been
    /// injected, later would-be injections are suppressed (they still
    /// consume visits and RNG draws, so the run's prefix is identical
    /// to an uncapped run). `None` = unlimited.
    cap: Cell<Option<u64>>,
    /// Would-be injections seen so far (fired or cap-suppressed).
    hits: Cell<u64>,
    /// When set, every would-be injection is appended to the schedule
    /// log as `(site, visit)`. Off by default (the log allocates).
    record: Cell<bool>,
    schedule: RefCell<Vec<(FaultSite, u64)>>,
}

/// Default extra latency for an injected disk stall: 50 ms, the same
/// order as a worst-case seek storm on the simulated device.
pub const DEFAULT_STALL: Cycles = Cycles::from_ms(50);

impl FaultPlane {
    /// A plane with every site disabled; `fire` always answers `false`.
    /// This is what subsystems get when nobody is injecting faults.
    pub fn inert() -> Rc<FaultPlane> {
        FaultPlane::seeded(0)
    }

    /// A plane whose rate faults draw from a SplitMix64 stream seeded
    /// with `seed`. All sites start disabled; configure with
    /// [`set_rate`](FaultPlane::set_rate) and [`arm`](FaultPlane::arm).
    pub fn seeded(seed: u64) -> Rc<FaultPlane> {
        Rc::new(FaultPlane {
            rng: RefCell::new(SplitMix64::new(seed)),
            sites: RefCell::new(Default::default()),
            stall: Cell::new(DEFAULT_STALL),
            cap: Cell::new(None),
            hits: Cell::new(0),
            record: Cell::new(false),
            schedule: RefCell::new(Vec::new()),
        })
    }

    /// Makes every visit to `site` fail with probability `num/den`.
    /// `num = 0` disables rate faults for the site.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den`.
    pub fn set_rate(&self, site: FaultSite, num: u64, den: u64) {
        assert!(den > 0 && num <= den, "rate must be a probability: {num}/{den}");
        self.sites.borrow_mut()[site as usize].rate =
            if num == 0 { None } else { Some((num, den)) };
    }

    /// Arms a one-shot: the `nth` visit to `site` (1-based, counted
    /// from plane creation) will fail. Arming an already-passed index
    /// is a no-op. Multiple one-shots may be armed on one site.
    pub fn arm(&self, site: FaultSite, nth: u64) {
        let mut sites = self.sites.borrow_mut();
        let st = &mut sites[site as usize];
        if nth > st.visits && !st.armed.contains(&nth) {
            st.armed.push(nth);
            st.armed.sort_unstable();
        }
    }

    /// The instrumentation-point query: records one visit to `site` and
    /// answers whether this visit must fail. Deterministic for a given
    /// seed and call sequence.
    ///
    /// With an [`injection cap`](Self::set_injection_cap) in force, a
    /// would-be injection past the cap is *suppressed*: the visit and
    /// the RNG draw still happen exactly as in the uncapped run (so the
    /// run is byte-identical up to the cap point), but the site does
    /// not fail. This is the primitive `vino-bench bisect` searches
    /// over.
    pub fn fire(&self, site: FaultSite) -> bool {
        let mut sites = self.sites.borrow_mut();
        let st = &mut sites[site as usize];
        st.visits += 1;
        let visit = st.visits;
        let mut hit = false;
        if let Some(pos) = st.armed.iter().position(|n| *n == visit) {
            st.armed.remove(pos);
            hit = true;
        }
        if !hit {
            if let Some((num, den)) = st.rate {
                hit = self.rng.borrow_mut().chance(num, den);
            }
        }
        if !hit {
            return false;
        }
        let h = self.hits.get() + 1;
        self.hits.set(h);
        if self.record.get() {
            self.schedule.borrow_mut().push((site, visit));
        }
        if self.cap.get().is_some_and(|cap| h > cap) {
            return false; // Suppressed: counted but not injected.
        }
        st.fired += 1;
        true
    }

    /// How many upcoming visits to `site` cannot fire: none while a rate
    /// is set (every visit draws from the RNG), otherwise every visit
    /// before the next armed one-shot (`u64::MAX` when none is armed).
    pub fn quiet_visits(&self, site: FaultSite) -> u64 {
        let sites = self.sites.borrow();
        quiet(&sites[site as usize])
    }

    /// Records `n` visits to `site` in bulk if none of them can fire
    /// (`n <= quiet_visits(site)`) and answers whether it did. A `true`
    /// leaves the plane exactly as `n` calls to [`fire`](Self::fire)
    /// answering `false` would; a `false` records nothing.
    pub fn record_quiet_visits(&self, site: FaultSite, n: u64) -> bool {
        let mut sites = self.sites.borrow_mut();
        let st = &mut sites[site as usize];
        if n > quiet(st) {
            return false;
        }
        st.visits += n;
        true
    }

    /// Takes back `n` visits recorded by
    /// [`record_quiet_visits`](Self::record_quiet_visits) that the
    /// caller did not reach after all (a run cut short by a trap).
    pub fn return_quiet_visits(&self, site: FaultSite, n: u64) {
        self.sites.borrow_mut()[site as usize].visits -= n;
    }

    /// Caps the plane-wide injection count: the first `cap` would-be
    /// injections fire, every later one is suppressed. `None` lifts the
    /// cap. See [`fire`](Self::fire) for the prefix-identity guarantee.
    pub fn set_injection_cap(&self, cap: Option<u64>) {
        self.cap.set(cap);
    }

    /// Would-be injections seen so far (fired or cap-suppressed).
    pub fn injection_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Turns the schedule log on or off. While on, every would-be
    /// injection appends `(site, visit)` to [`Self::schedule`].
    pub fn record_schedule(&self, on: bool) {
        self.record.set(on);
    }

    /// The recorded injection schedule, in firing order.
    pub fn schedule(&self) -> Vec<(FaultSite, u64)> {
        self.schedule.borrow().clone()
    }

    /// Snapshots the plane's full mutable state for a checkpoint.
    pub fn export_state(&self) -> FaultPlaneState {
        FaultPlaneState {
            rng: self.rng.borrow().state(),
            sites: self.sites.borrow().clone(),
            stall: self.stall.get(),
            cap: self.cap.get(),
            hits: self.hits.get(),
            record: self.record.get(),
            schedule: self.schedule.borrow().clone(),
        }
    }

    /// Replants a [`FaultPlaneState`] capture, resuming the RNG stream
    /// and all per-site schedules exactly where the capture left them.
    pub fn restore_state(&self, st: &FaultPlaneState) {
        *self.rng.borrow_mut() = SplitMix64::from_state(st.rng);
        *self.sites.borrow_mut() = st.sites.clone();
        self.stall.set(st.stall);
        self.cap.set(st.cap);
        self.hits.set(st.hits);
        self.record.set(st.record);
        *self.schedule.borrow_mut() = st.schedule.clone();
    }

    /// Deterministic torn-write prefix length: how many leading bytes
    /// of a 4 KB block survive when [`FaultSite::DiskTornWrite`] (or a
    /// mid-journal power cut) tears a write. Drawn from the plane's
    /// seeded RNG — a multiple of 64 in `[64, 4032]`, so a tear is
    /// never empty and never the whole block.
    pub fn torn_prefix(&self) -> usize {
        (64 * (1 + self.rng.borrow_mut().below(63))) as usize
    }

    /// Extra model latency a fired [`FaultSite::DiskStall`] costs.
    pub fn stall(&self) -> Cycles {
        self.stall.get()
    }

    /// Overrides the injected-stall latency.
    pub fn set_stall(&self, d: Cycles) {
        self.stall.set(d);
    }

    /// Visits recorded at `site` so far.
    pub fn visits(&self, site: FaultSite) -> u64 {
        self.sites.borrow()[site as usize].visits
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.sites.borrow()[site as usize].fired
    }

    /// Faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.sites.borrow().iter().map(|s| s.fired).sum()
    }

    /// Disarms every site (rates and one-shots), keeping counters.
    pub fn disarm_all(&self) {
        for st in self.sites.borrow_mut().iter_mut() {
            st.rate = None;
            st.armed.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_lists_every_slot_in_discriminant_order() {
        for (i, site) in ALL_SITES.iter().enumerate() {
            assert_eq!(*site as usize, i, "{site:?}");
        }
        assert_eq!(FaultSite::ReplReplicaCrash as usize + 1, N_SITES, "last variant");
    }

    #[test]
    fn inert_plane_never_fires() {
        let p = FaultPlane::inert();
        for _ in 0..1000 {
            for s in ALL_SITES {
                assert!(!p.fire(*s));
            }
        }
        assert_eq!(p.total_injected(), 0);
        assert_eq!(p.visits(FaultSite::DiskRead), 1000);
    }

    #[test]
    fn armed_one_shot_fires_exactly_once_at_nth_visit() {
        let p = FaultPlane::seeded(1);
        p.arm(FaultSite::VmTrap, 5);
        let fired: Vec<bool> = (0..8).map(|_| p.fire(FaultSite::VmTrap)).collect();
        assert_eq!(fired, [false, false, false, false, true, false, false, false]);
        assert_eq!(p.injected(FaultSite::VmTrap), 1);
    }

    #[test]
    fn quiet_visits_stop_short_of_the_next_one_shot() {
        let p = FaultPlane::seeded(1);
        assert_eq!(p.quiet_visits(FaultSite::VmTrap), u64::MAX);
        p.arm(FaultSite::VmTrap, 5);
        assert_eq!(p.quiet_visits(FaultSite::VmTrap), 4);
        assert!(!p.record_quiet_visits(FaultSite::VmTrap, 5), "visit 5 can fire");
        assert_eq!(p.visits(FaultSite::VmTrap), 0, "a refused bulk record records nothing");
        assert!(p.record_quiet_visits(FaultSite::VmTrap, 4));
        assert_eq!(p.quiet_visits(FaultSite::VmTrap), 0);
        p.return_quiet_visits(FaultSite::VmTrap, 1);
        assert_eq!(p.visits(FaultSite::VmTrap), 3);
        assert!(!p.fire(FaultSite::VmTrap));
        assert!(p.fire(FaultSite::VmTrap), "the one-shot still lands on visit 5");
        p.set_rate(FaultSite::VmTrap, 1, 1_000_000);
        assert_eq!(p.quiet_visits(FaultSite::VmTrap), 0, "a rate makes every visit draw");
    }

    #[test]
    fn arming_a_passed_visit_is_a_noop() {
        let p = FaultPlane::seeded(1);
        for _ in 0..10 {
            p.fire(FaultSite::DiskRead);
        }
        p.arm(FaultSite::DiskRead, 3);
        for _ in 0..10 {
            assert!(!p.fire(FaultSite::DiskRead));
        }
    }

    #[test]
    fn rate_faults_are_seed_deterministic_and_calibrated() {
        let a = FaultPlane::seeded(99);
        let b = FaultPlane::seeded(99);
        a.set_rate(FaultSite::DiskWrite, 1, 4);
        b.set_rate(FaultSite::DiskWrite, 1, 4);
        let run =
            |p: &FaultPlane| (0..10_000).map(|_| p.fire(FaultSite::DiskWrite)).collect::<Vec<_>>();
        let ra = run(&a);
        assert_eq!(ra, run(&b), "same seed, same schedule");
        let frac = ra.iter().filter(|x| **x).count() as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn sites_are_independent() {
        let p = FaultPlane::seeded(7);
        p.set_rate(FaultSite::ResourceExhaust, 1, 1);
        assert!(p.fire(FaultSite::ResourceExhaust));
        assert!(!p.fire(FaultSite::DiskRead));
        assert!(!p.fire(FaultSite::ImageCorrupt));
        p.set_rate(FaultSite::ResourceExhaust, 0, 1);
        assert!(!p.fire(FaultSite::ResourceExhaust));
    }

    #[test]
    fn disarm_all_stops_everything() {
        let p = FaultPlane::seeded(3);
        p.set_rate(FaultSite::DiskRead, 1, 1);
        p.arm(FaultSite::VmTrap, 2);
        p.disarm_all();
        assert!(!p.fire(FaultSite::DiskRead));
        assert!(!p.fire(FaultSite::VmTrap));
        assert!(!p.fire(FaultSite::VmTrap));
    }

    #[test]
    fn injection_cap_preserves_the_uncapped_prefix() {
        let full = FaultPlane::seeded(12345);
        full.set_rate(FaultSite::DiskWrite, 1, 3);
        full.record_schedule(true);
        let uncapped: Vec<bool> = (0..200).map(|_| full.fire(FaultSite::DiskWrite)).collect();
        let total = full.injection_hits();
        assert!(total > 10);
        let log = full.schedule();
        assert_eq!(log.len() as u64, total);

        for cap in [0u64, 1, total / 2, total] {
            let p = FaultPlane::seeded(12345);
            p.set_rate(FaultSite::DiskWrite, 1, 3);
            p.set_injection_cap(Some(cap));
            let capped: Vec<bool> = (0..200).map(|_| p.fire(FaultSite::DiskWrite)).collect();
            // Identical up to the cap-th injection, suppressed after.
            let mut seen = 0u64;
            for (a, b) in uncapped.iter().zip(capped.iter()) {
                if *a {
                    seen += 1;
                    assert_eq!(*b, seen <= cap, "injection {seen} vs cap {cap}");
                } else {
                    assert!(!b, "capped run must not invent injections");
                }
            }
            assert_eq!(p.injection_hits(), total, "hits count the would-be schedule");
            assert_eq!(p.total_injected(), cap.min(total));
        }
    }

    #[test]
    fn export_restore_resumes_the_exact_stream() {
        let a = FaultPlane::seeded(777);
        a.set_rate(FaultSite::DiskRead, 1, 2);
        a.arm(FaultSite::VmTrap, 120);
        for _ in 0..50 {
            a.fire(FaultSite::DiskRead);
            a.fire(FaultSite::VmTrap);
        }
        let snap = a.export_state();
        let tail_a: Vec<bool> = (0..100)
            .flat_map(|_| [a.fire(FaultSite::DiskRead), a.fire(FaultSite::VmTrap)])
            .collect();

        let b = FaultPlane::seeded(0);
        b.restore_state(&snap);
        let tail_b: Vec<bool> = (0..100)
            .flat_map(|_| [b.fire(FaultSite::DiskRead), b.fire(FaultSite::VmTrap)])
            .collect();
        assert_eq!(tail_a, tail_b, "restored plane must replay the same tail");
        assert_eq!(a.visits(FaultSite::DiskRead), b.visits(FaultSite::DiskRead));
        assert_eq!(a.injected(FaultSite::VmTrap), b.injected(FaultSite::VmTrap));
    }

    #[test]
    fn stall_is_configurable() {
        let p = FaultPlane::inert();
        assert_eq!(p.stall(), DEFAULT_STALL);
        p.set_stall(Cycles::from_ms(5));
        assert_eq!(p.stall(), Cycles::from_ms(5));
    }
}
