//! Resource limits and accounting — quantity-constrained resources.
//!
//! §3.2: "Each thread in VINO has a set of resource limits associated
//! with it. [...] When a graft is installed, it initially has limits of
//! zero (i.e., it cannot allocate any resources). The installing thread
//! may transfer arbitrary amounts from its own limits to the newly
//! installed graft, or the thread can request that all of the graft's
//! allocation requests be 'billed' against the installing thread's own
//! limits. If multiple processes wish to pool resources [...] they can
//! each delegate their resource rights to the graft, in a manner
//! analogous to ticket delegation in lottery scheduling."
//!
//! Principals are threads *or* grafts; both are rows in the accountant.
//! When a thread invokes a grafted function "the thread's resource
//! limits are replaced by those associated with the graft", so the
//! grafting layer simply charges the graft's principal while the graft
//! runs.

use std::collections::HashMap;
use std::fmt;

use vino_sim::fault::FaultSite;
use vino_sim::obs::Obs;
use vino_sim::profile::SpanKind;
use vino_sim::trace::TraceEvent;
use vino_sim::Cycles;

/// The kinds of quantity-constrained resources the kernel accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Pageable memory, in bytes.
    Memory,
    /// Wired (non-evictable) pages, in pages.
    WiredPages,
    /// Kernel heap (graft heaps/stacks live here), in bytes.
    KernelHeap,
    /// Network buffers, in buffers.
    NetBuffers,
    /// Kernel threads.
    Threads,
}

impl ResourceKind {
    /// All kinds, for iteration.
    pub const ALL: [ResourceKind; 5] = [
        ResourceKind::Memory,
        ResourceKind::WiredPages,
        ResourceKind::KernelHeap,
        ResourceKind::NetBuffers,
        ResourceKind::Threads,
    ];

    /// Stable small-integer encoding, used by trace events (the sim
    /// crate cannot name `ResourceKind`, so `rm.*` trace lines carry
    /// this index).
    pub fn index(self) -> u8 {
        self.idx() as u8
    }

    fn idx(self) -> usize {
        match self {
            ResourceKind::Memory => 0,
            ResourceKind::WiredPages => 1,
            ResourceKind::KernelHeap => 2,
            ResourceKind::NetBuffers => 3,
            ResourceKind::Threads => 4,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Memory => "memory",
            ResourceKind::WiredPages => "wired-pages",
            ResourceKind::KernelHeap => "kernel-heap",
            ResourceKind::NetBuffers => "net-buffers",
            ResourceKind::Threads => "threads",
        };
        f.write_str(s)
    }
}

/// A vector of per-kind amounts (limits or usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits([u64; 5]);

impl Limits {
    /// All-zero limits — what a freshly installed graft gets (§3.2).
    pub const ZERO: Limits = Limits([0; 5]);

    /// Builds limits from `(kind, amount)` pairs; unlisted kinds are 0.
    pub fn of(pairs: &[(ResourceKind, u64)]) -> Limits {
        let mut l = Limits::ZERO;
        for (k, v) in pairs {
            l.0[k.idx()] = *v;
        }
        l
    }

    /// Amount for `kind`.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.0[kind.idx()]
    }

    /// Sets the amount for `kind`.
    pub fn set(&mut self, kind: ResourceKind, v: u64) {
        self.0[kind.idx()] = v;
    }
}

/// Identifies an accounted principal: a thread or an installed graft.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub u64);

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "principal#{}", self.0)
    }
}

/// Resource-accounting failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceError {
    /// A charge would exceed the (effective) limit. "When the process
    /// would normally be denied requests for new resources, the graft's
    /// requests also fail" (§3.2).
    LimitExceeded {
        /// The principal that was charged (after billing indirection).
        principal: PrincipalId,
        /// The resource kind.
        kind: ResourceKind,
        /// Requested amount.
        requested: u64,
        /// Headroom actually available.
        available: u64,
    },
    /// Transfer source lacks unused headroom to give away.
    InsufficientHeadroom {
        /// The transfer source.
        from: PrincipalId,
        /// The resource kind.
        kind: ResourceKind,
    },
    /// Unknown principal id.
    NoSuchPrincipal(PrincipalId),
    /// Billing chains may not form cycles.
    BillingCycle(PrincipalId),
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::LimitExceeded { principal, kind, requested, available } => {
                write!(f, "{principal}: {kind} charge of {requested} exceeds available {available}")
            }
            ResourceError::InsufficientHeadroom { from, kind } => {
                write!(f, "{from}: insufficient unused {kind} headroom to transfer")
            }
            ResourceError::NoSuchPrincipal(p) => write!(f, "unknown {p}"),
            ResourceError::BillingCycle(p) => write!(f, "billing cycle involving {p}"),
        }
    }
}

impl std::error::Error for ResourceError {}

#[derive(Debug, Clone, Default)]
struct Account {
    limits: Limits,
    used: Limits,
    peak: Limits,
    billed_to: Option<PrincipalId>,
    /// Who answers for this principal's abort-blame. Independent of
    /// `billed_to`: a Transfer-mode graft pays for its own allocations
    /// out of transferred limits, but the blame for its aborts still
    /// belongs to the installer who vouched for it.
    blamed_on: Option<PrincipalId>,
    /// Accumulated abort-blame, in cycles of kernel time spent cleaning
    /// up after this principal's grafts (§3.2's accounting turned into a
    /// reliability signal).
    blame: u64,
    /// Optional ceiling on blame; once reached the kernel may refuse
    /// further graft installs from this principal.
    blame_limit: Option<u64>,
}

/// An opaque snapshot of the accountant's book: every account (limits,
/// usage, peaks, billing/blame links) and the principal-id counter.
/// Captured by [`ResourceAccountant::export_state`], replanted by
/// [`ResourceAccountant::restore_state`] so a checkpoint-restored
/// kernel mints the same principal ids and enforces the same limits.
#[derive(Debug, Clone)]
pub struct AccountantState {
    accounts: HashMap<PrincipalId, Account>,
    next: u64,
}

/// The kernel's resource accountant.
#[derive(Debug, Default)]
pub struct ResourceAccountant {
    accounts: HashMap<PrincipalId, Account>,
    next: u64,
    obs: Obs,
}

impl ResourceAccountant {
    /// An empty accountant.
    pub fn new() -> ResourceAccountant {
        ResourceAccountant::default()
    }

    /// An empty accountant observed through `obs`. Each
    /// [`charge`](Self::charge) visits [`FaultSite::ResourceExhaust`],
    /// which denies it as over-limit despite headroom (§3.2's transient
    /// exhaustion). Grants, releases and denials emit `rm.*` events; a
    /// grant also raises the per-kind high-water gauge and is a
    /// zero-length `rm-grant` profile mark.
    pub fn with_obs(obs: Obs) -> ResourceAccountant {
        ResourceAccountant { obs, ..ResourceAccountant::default() }
    }

    /// The observation handle the accountant reports through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Snapshots the full book for a checkpoint.
    pub fn export_state(&self) -> AccountantState {
        AccountantState { accounts: self.accounts.clone(), next: self.next }
    }

    /// Replants an [`AccountantState`] capture, replacing the book and
    /// the id counter. Attached planes are untouched.
    pub fn restore_state(&mut self, st: &AccountantState) {
        self.accounts = st.accounts.clone();
        self.next = st.next;
    }

    /// Creates a principal (a thread) with the given limits.
    pub fn create_principal(&mut self, limits: Limits) -> PrincipalId {
        let id = PrincipalId(self.next);
        self.next += 1;
        self.accounts.insert(id, Account { limits, ..Account::default() });
        id
    }

    /// Creates a graft principal: limits of zero (§3.2).
    pub fn create_graft_principal(&mut self) -> PrincipalId {
        self.create_principal(Limits::ZERO)
    }

    /// Transfers `amount` of `kind` limit headroom from one principal to
    /// another (the §3.2 install-time transfer, and the delegation used
    /// for pooling). Only *unused* headroom can move.
    pub fn transfer(
        &mut self,
        from: PrincipalId,
        to: PrincipalId,
        kind: ResourceKind,
        amount: u64,
    ) -> Result<(), ResourceError> {
        if !self.accounts.contains_key(&to) {
            return Err(ResourceError::NoSuchPrincipal(to));
        }
        let src = self.accounts.get_mut(&from).ok_or(ResourceError::NoSuchPrincipal(from))?;
        let headroom = src.limits.get(kind).saturating_sub(src.used.get(kind));
        if headroom < amount {
            return Err(ResourceError::InsufficientHeadroom { from, kind });
        }
        src.limits.set(kind, src.limits.get(kind) - amount);
        let dst = self.accounts.get_mut(&to).expect("checked above");
        dst.limits.set(kind, dst.limits.get(kind) + amount);
        Ok(())
    }

    /// Routes all of `graft`'s charges to `installer`'s account ("billed
    /// against the installing thread's own limits", §3.2).
    pub fn bill_to(
        &mut self,
        graft: PrincipalId,
        installer: PrincipalId,
    ) -> Result<(), ResourceError> {
        if !self.accounts.contains_key(&installer) {
            return Err(ResourceError::NoSuchPrincipal(installer));
        }
        // Reject chains that would loop.
        let mut cur = Some(installer);
        let mut hops = 0;
        while let Some(p) = cur {
            if p == graft {
                return Err(ResourceError::BillingCycle(graft));
            }
            hops += 1;
            if hops > 8 {
                return Err(ResourceError::BillingCycle(graft));
            }
            cur = self.accounts.get(&p).and_then(|a| a.billed_to);
        }
        self.accounts.get_mut(&graft).ok_or(ResourceError::NoSuchPrincipal(graft))?.billed_to =
            Some(installer);
        Ok(())
    }

    /// Resolves the billing chain to the account that actually pays.
    pub fn payer_of(&self, principal: PrincipalId) -> PrincipalId {
        let mut cur = principal;
        let mut hops = 0;
        while let Some(acc) = self.accounts.get(&cur) {
            match acc.billed_to {
                Some(next) if hops < 8 => {
                    cur = next;
                    hops += 1;
                }
                _ => break,
            }
        }
        cur
    }

    /// Charges `amount` of `kind` to `principal` (through billing).
    /// Fails — without partial effect — when the payer lacks headroom.
    pub fn charge(
        &mut self,
        principal: PrincipalId,
        kind: ResourceKind,
        amount: u64,
    ) -> Result<(), ResourceError> {
        let payer = self.payer_of(principal);
        if self.obs.fire(FaultSite::ResourceExhaust) {
            // Injected denial: indistinguishable from a genuine limit
            // hit, and like one it has no partial effect.
            self.obs.emit(TraceEvent::ResLimitHit {
                principal: payer.0,
                kind: kind.index(),
                requested: amount,
            });
            return Err(ResourceError::LimitExceeded {
                principal: payer,
                kind,
                requested: amount,
                available: 0,
            });
        }
        let acc = self.accounts.get_mut(&payer).ok_or(ResourceError::NoSuchPrincipal(payer))?;
        let used = acc.used.get(kind);
        let limit = acc.limits.get(kind);
        let available = limit.saturating_sub(used);
        if amount > available {
            self.obs.emit(TraceEvent::ResLimitHit {
                principal: payer.0,
                kind: kind.index(),
                requested: amount,
            });
            return Err(ResourceError::LimitExceeded {
                principal: payer,
                kind,
                requested: amount,
                available,
            });
        }
        acc.used.set(kind, used + amount);
        if acc.used.get(kind) > acc.peak.get(kind) {
            let new_peak = acc.used.get(kind);
            acc.peak.set(kind, new_peak);
        }
        let now_used = acc.used.get(kind);
        if let Some(mp) = self.obs.metrics() {
            mp.observe_rm_peak(kind.index(), now_used);
        }
        self.obs.mark(SpanKind::RmGrant, Cycles::ZERO);
        self.obs.emit(TraceEvent::ResGrant { principal: payer.0, kind: kind.index(), amount });
        Ok(())
    }

    /// Releases `amount` of `kind` charged to `principal` (through
    /// billing). Saturates at zero — double release is forgiven because
    /// abort paths may race with explicit frees.
    pub fn release(&mut self, principal: PrincipalId, kind: ResourceKind, amount: u64) {
        let payer = self.payer_of(principal);
        if let Some(acc) = self.accounts.get_mut(&payer) {
            let used = acc.used.get(kind);
            acc.used.set(kind, used.saturating_sub(amount));
            self.obs.emit(TraceEvent::ResRelease {
                principal: payer.0,
                kind: kind.index(),
                amount,
            });
        }
    }

    /// Current usage of `principal`'s payer account.
    pub fn used(&self, principal: PrincipalId, kind: ResourceKind) -> u64 {
        let payer = self.payer_of(principal);
        self.accounts.get(&payer).map_or(0, |a| a.used.get(kind))
    }

    /// Limit of `principal`'s payer account.
    pub fn limit(&self, principal: PrincipalId, kind: ResourceKind) -> u64 {
        let payer = self.payer_of(principal);
        self.accounts.get(&payer).map_or(0, |a| a.limits.get(kind))
    }

    /// Peak usage of `principal`'s own account.
    pub fn peak(&self, principal: PrincipalId, kind: ResourceKind) -> u64 {
        self.accounts.get(&principal).map_or(0, |a| a.peak.get(kind))
    }

    /// Sum of `kind` limits across all principals — conserved by
    /// transfers (property-tested).
    pub fn total_limit(&self, kind: ResourceKind) -> u64 {
        self.accounts.values().map(|a| a.limits.get(kind)).sum()
    }

    /// Directs `graft`'s abort-blame at `installer` (set by the loader
    /// for every install, whatever the billing mode).
    pub fn blame_to(&mut self, graft: PrincipalId, installer: PrincipalId) {
        if let Some(acc) = self.accounts.get_mut(&graft) {
            acc.blamed_on = Some(installer);
        }
    }

    /// The account that answers for `principal`'s aborts: its
    /// [`blame_to`](Self::blame_to) installer if one was recorded, else
    /// the [`bill_to`](Self::bill_to) payer chain. This is the account
    /// [`charge_blame`](Self::charge_blame) debits — and the principal
    /// the watch plane's per-principal windows (and hence the admission
    /// controller) key on.
    pub fn blame_target(&self, principal: PrincipalId) -> PrincipalId {
        self.accounts
            .get(&principal)
            .and_then(|a| a.blamed_on)
            .unwrap_or_else(|| self.payer_of(principal))
    }

    /// Bills `amount` cycles of abort-blame against whoever answers for
    /// `principal`: its [`blame_to`](Self::blame_to) installer if one
    /// was recorded, else the [`bill_to`](Self::bill_to) payer chain.
    /// Returns the account that was debited. Blame only accumulates —
    /// aborts are sunk kernel time; there is no refund path.
    pub fn charge_blame(&mut self, principal: PrincipalId, amount: u64) -> PrincipalId {
        let payer = self.blame_target(principal);
        if let Some(acc) = self.accounts.get_mut(&payer) {
            acc.blame = acc.blame.saturating_add(amount);
        }
        payer
    }

    /// Accumulated abort-blame on `principal`'s own account, in cycles.
    pub fn blame(&self, principal: PrincipalId) -> u64 {
        self.accounts.get(&principal).map_or(0, |a| a.blame)
    }

    /// Sets a blame ceiling for `principal`. Once
    /// [`blame_exceeded`](Self::blame_exceeded) reports true, the
    /// grafting layer refuses further installs from the principal.
    pub fn set_blame_limit(&mut self, principal: PrincipalId, limit: u64) {
        if let Some(acc) = self.accounts.get_mut(&principal) {
            acc.blame_limit = Some(limit);
        }
    }

    /// True when `principal` has a blame ceiling and has reached it.
    /// Principals without an explicit ceiling are never cut off (blame
    /// still accumulates for diagnostics).
    pub fn blame_exceeded(&self, principal: PrincipalId) -> bool {
        self.accounts.get(&principal).is_some_and(|a| a.blame_limit.is_some_and(|l| a.blame >= l))
    }

    /// Removes a principal (graft unload), returning its remaining
    /// limits to `heir` (usually the installer) if given.
    pub fn destroy(&mut self, principal: PrincipalId, heir: Option<PrincipalId>) {
        if let Some(acc) = self.accounts.remove(&principal) {
            if let Some(h) = heir {
                if let Some(ha) = self.accounts.get_mut(&h) {
                    for kind in ResourceKind::ALL {
                        ha.limits.set(kind, ha.limits.get(kind) + acc.limits.get(kind));
                    }
                }
            }
            // Clear dangling billing references.
            for a in self.accounts.values_mut() {
                if a.billed_to == Some(principal) {
                    a.billed_to = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use vino_sim::fault::FaultPlane;

    use ResourceKind::{Memory, WiredPages};

    #[test]
    fn graft_principal_starts_at_zero() {
        let mut ra = ResourceAccountant::new();
        let g = ra.create_graft_principal();
        for kind in ResourceKind::ALL {
            assert_eq!(ra.limit(g, kind), 0);
        }
        // A fresh graft cannot allocate anything (§3.2).
        let err = ra.charge(g, Memory, 1).unwrap_err();
        assert!(matches!(err, ResourceError::LimitExceeded { available: 0, .. }));
    }

    #[test]
    fn transfer_moves_headroom() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 1000)]));
        let g = ra.create_graft_principal();
        ra.transfer(app, g, Memory, 400).unwrap();
        assert_eq!(ra.limit(app, Memory), 600);
        assert_eq!(ra.limit(g, Memory), 400);
        assert!(ra.charge(g, Memory, 400).is_ok());
        assert!(ra.charge(g, Memory, 1).is_err());
    }

    #[test]
    fn transfer_cannot_strand_usage() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 1000)]));
        let g = ra.create_graft_principal();
        ra.charge(app, Memory, 900).unwrap();
        // Only 100 unused headroom left.
        assert!(matches!(
            ra.transfer(app, g, Memory, 200),
            Err(ResourceError::InsufficientHeadroom { .. })
        ));
        ra.transfer(app, g, Memory, 100).unwrap();
    }

    #[test]
    fn billing_routes_to_installer() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 500)]));
        let g = ra.create_graft_principal();
        ra.bill_to(g, app).unwrap();
        ra.charge(g, Memory, 300).unwrap();
        assert_eq!(ra.used(app, Memory), 300, "charge lands on installer");
        // The graft is denied exactly when the installer would be.
        let err = ra.charge(g, Memory, 300).unwrap_err();
        assert!(matches!(err, ResourceError::LimitExceeded { available: 200, .. }));
        ra.release(g, Memory, 300);
        assert_eq!(ra.used(app, Memory), 0);
    }

    #[test]
    fn billing_cycles_rejected() {
        let mut ra = ResourceAccountant::new();
        let a = ra.create_graft_principal();
        let b = ra.create_graft_principal();
        ra.bill_to(a, b).unwrap();
        assert!(matches!(ra.bill_to(b, a), Err(ResourceError::BillingCycle(_))));
        assert!(matches!(ra.bill_to(a, a), Err(ResourceError::BillingCycle(_))));
    }

    #[test]
    fn pooling_delegation() {
        // §3.2's database example: several clients pool wired memory
        // into a shared buffer-pool graft.
        let mut ra = ResourceAccountant::new();
        let clients: Vec<_> =
            (0..3).map(|_| ra.create_principal(Limits::of(&[(WiredPages, 100)]))).collect();
        let pool = ra.create_graft_principal();
        for c in &clients {
            ra.transfer(*c, pool, WiredPages, 50).unwrap();
        }
        assert_eq!(ra.limit(pool, WiredPages), 150);
        assert!(ra.charge(pool, WiredPages, 150).is_ok());
        assert!(ra.charge(pool, WiredPages, 1).is_err());
    }

    #[test]
    fn release_saturates() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 100)]));
        ra.charge(app, Memory, 40).unwrap();
        ra.release(app, Memory, 100); // Over-release forgiven.
        assert_eq!(ra.used(app, Memory), 0);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 100)]));
        ra.charge(app, Memory, 70).unwrap();
        ra.release(app, Memory, 50);
        ra.charge(app, Memory, 10).unwrap();
        assert_eq!(ra.peak(app, Memory), 70);
        assert_eq!(ra.used(app, Memory), 30);
    }

    #[test]
    fn destroy_returns_limits_to_heir() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 1000)]));
        let g = ra.create_graft_principal();
        ra.transfer(app, g, Memory, 400).unwrap();
        ra.destroy(g, Some(app));
        assert_eq!(ra.limit(app, Memory), 1000, "graft unload returns headroom");
    }

    #[test]
    fn destroy_clears_billing_references() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 10)]));
        let g = ra.create_graft_principal();
        ra.bill_to(g, app).unwrap();
        ra.destroy(app, None);
        // The graft's charges now land on its own (zero) account.
        assert!(ra.charge(g, Memory, 1).is_err());
    }

    #[test]
    fn unknown_principals_error() {
        let mut ra = ResourceAccountant::new();
        let ghost = PrincipalId(999);
        let real = ra.create_graft_principal();
        assert!(matches!(
            ra.transfer(ghost, real, Memory, 1),
            Err(ResourceError::NoSuchPrincipal(_))
        ));
        assert!(matches!(
            ra.transfer(real, ghost, Memory, 1),
            Err(ResourceError::NoSuchPrincipal(_))
        ));
        assert!(matches!(ra.bill_to(real, ghost), Err(ResourceError::NoSuchPrincipal(_))));
    }

    #[test]
    fn injected_exhaustion_denies_despite_headroom() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 1000)]));
        let plane = FaultPlane::seeded(0);
        plane.arm(FaultSite::ResourceExhaust, 1);
        ra.obs().attach_fault(plane).unwrap();
        let err = ra.charge(app, Memory, 10).unwrap_err();
        assert!(matches!(err, ResourceError::LimitExceeded { available: 0, .. }));
        assert_eq!(ra.used(app, Memory), 0, "denied charge has no partial effect");
        // The one-shot is spent; the same charge now succeeds.
        ra.charge(app, Memory, 10).unwrap();
        assert_eq!(ra.used(app, Memory), 10);
    }

    #[test]
    fn blame_follows_the_billing_chain() {
        let mut ra = ResourceAccountant::new();
        let installer = ra.create_principal(Limits::of(&[(Memory, 100)]));
        let graft = ra.create_graft_principal();
        ra.bill_to(graft, installer).unwrap();
        let payer = ra.charge_blame(graft, 4200);
        assert_eq!(payer, installer, "blame lands on the installer");
        assert_eq!(ra.blame(installer), 4200);
        assert_eq!(ra.blame(graft), 0);
        // No ceiling: never cut off.
        assert!(!ra.blame_exceeded(installer));
        ra.set_blame_limit(installer, 5000);
        assert!(!ra.blame_exceeded(installer));
        ra.charge_blame(graft, 800);
        assert!(ra.blame_exceeded(installer), "5000 reached");
    }

    #[test]
    fn blame_to_overrides_the_billing_chain() {
        // Transfer-mode shape: the graft pays for its own resources (no
        // bill_to link) yet its abort-blame still reaches the installer.
        let mut ra = ResourceAccountant::new();
        let installer = ra.create_principal(Limits::of(&[(Memory, 100)]));
        let graft = ra.create_graft_principal();
        ra.blame_to(graft, installer);
        assert_eq!(ra.charge_blame(graft, 900), installer);
        assert_eq!(ra.blame(installer), 900);
        assert_eq!(ra.blame(graft), 0);
    }

    #[test]
    fn failed_charge_has_no_effect() {
        let mut ra = ResourceAccountant::new();
        let app = ra.create_principal(Limits::of(&[(Memory, 100)]));
        ra.charge(app, Memory, 60).unwrap();
        assert!(ra.charge(app, Memory, 50).is_err());
        assert_eq!(ra.used(app, Memory), 60, "failed charge must not partially apply");
    }

    #[test]
    fn trace_plane_sees_grants_releases_and_denials() {
        use vino_sim::trace::TracePlane;
        use vino_sim::VirtualClock;
        let mut ra = ResourceAccountant::new();
        let plane = TracePlane::new(VirtualClock::new());
        ra.obs().attach_trace(Rc::clone(&plane)).unwrap();
        let app = ra.create_principal(Limits::of(&[(Memory, 100)]));
        ra.charge(app, Memory, 60).unwrap();
        ra.release(app, Memory, 10);
        assert!(ra.charge(app, Memory, 90).is_err());
        let evs: Vec<TraceEvent> = plane.records().iter().map(|r| r.event).collect();
        let k = Memory.index();
        assert_eq!(
            evs,
            vec![
                TraceEvent::ResGrant { principal: app.0, kind: k, amount: 60 },
                TraceEvent::ResRelease { principal: app.0, kind: k, amount: 10 },
                TraceEvent::ResLimitHit { principal: app.0, kind: k, requested: 90 },
            ]
        );
    }

    #[test]
    fn total_limit_conserved_by_transfer() {
        let mut ra = ResourceAccountant::new();
        let a = ra.create_principal(Limits::of(&[(Memory, 700)]));
        let b = ra.create_principal(Limits::of(&[(Memory, 300)]));
        let before = ra.total_limit(Memory);
        ra.transfer(a, b, Memory, 250).unwrap();
        assert_eq!(ra.total_limit(Memory), before);
    }
}
