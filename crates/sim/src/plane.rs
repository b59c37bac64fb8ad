//! Shared observability-plane plumbing.
//!
//! Every observability plane (fault, trace, metrics, profile) follows
//! the same attach contract: a single shared `Rc` handle is wired
//! through the subsystems exactly once, and a second attach is refused
//! so two planes can never interleave records on the same sites. The
//! kernel used to re-implement the "already attached" flag per plane;
//! this module centralises the error type and the one-shot slot so new
//! planes get the contract for free. It also holds `CellCounters`, the
//! fixed counter array the planes bump on their hot paths.

use std::cell::Cell;
use std::fmt;

/// Errors from `Kernel::attach_*_plane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// A plane of this kind is already attached. Planes are wired
    /// through every subsystem at attach time; swapping one mid-run
    /// would split the record stream across two planes.
    AlreadyAttached,
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::AlreadyAttached => write!(f, "a plane is already attached"),
        }
    }
}

impl std::error::Error for AttachError {}

/// A one-shot attach slot: the first [`claim`](AttachSlot::claim) wins,
/// every later claim reports [`AttachError::AlreadyAttached`].
///
/// The slot only records *that* a plane was attached — the handle
/// itself lives wherever the subsystems were wired — so it stays a
/// single `Cell<bool>` and works from `&self` attach methods.
#[derive(Debug, Default)]
pub struct AttachSlot {
    taken: Cell<bool>,
}

impl AttachSlot {
    /// An unclaimed slot.
    pub const fn new() -> AttachSlot {
        AttachSlot { taken: Cell::new(false) }
    }

    /// Claims the slot; errors if it was already claimed.
    pub fn claim(&self) -> Result<(), AttachError> {
        if self.taken.replace(true) {
            Err(AttachError::AlreadyAttached)
        } else {
            Ok(())
        }
    }

    /// True once a plane has been attached.
    pub fn is_claimed(&self) -> bool {
        self.taken.get()
    }
}

/// A fixed array of `u64` counters, one `Cell` per slot, so a bump
/// reads and writes only its own slot. Zero-allocation.
#[derive(Debug)]
pub(crate) struct CellCounters<const N: usize>([Cell<u64>; N]);

impl<const N: usize> CellCounters<N> {
    /// All slots zero.
    pub(crate) fn new() -> CellCounters<N> {
        CellCounters(std::array::from_fn(|_| Cell::new(0)))
    }

    /// Adds `n` to slot `i`.
    #[inline]
    pub(crate) fn add(&self, i: usize, n: u64) {
        let c = &self.0[i];
        c.set(c.get() + n);
    }

    /// The value of slot `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> u64 {
        self.0[i].get()
    }

    /// Every slot, as a plain array (snapshots and exports).
    pub(crate) fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].get())
    }

    /// Overwrites every slot from `v` (checkpoint restore).
    pub(crate) fn store(&self, v: &[u64; N]) {
        for (c, &x) in self.0.iter().zip(v) {
            c.set(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_claim_wins() {
        let slot = AttachSlot::new();
        assert!(!slot.is_claimed());
        assert_eq!(slot.claim(), Ok(()));
        assert!(slot.is_claimed());
        assert_eq!(slot.claim(), Err(AttachError::AlreadyAttached));
        assert_eq!(slot.claim(), Err(AttachError::AlreadyAttached));
    }

    #[test]
    fn cell_counters_update_in_place_and_round_trip() {
        let c = CellCounters::<4>::new();
        c.add(1, 3);
        c.add(1, 2);
        c.add(3, 7);
        assert_eq!(c.get(1), 5);
        assert_eq!(c.load(), [0, 5, 0, 7]);
        c.store(&[9, 8, 7, 6]);
        assert_eq!(c.load(), [9, 8, 7, 6]);
    }

    #[test]
    fn error_displays() {
        assert_eq!(AttachError::AlreadyAttached.to_string(), "a plane is already attached");
    }
}
