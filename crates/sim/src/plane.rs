//! Shared observability-plane plumbing.
//!
//! Every observability plane (fault, trace, metrics, profile, watch)
//! follows the same attach contract: a plane fills its slot in the
//! shared [`crate::obs::Obs`] handle exactly once, and a second attach
//! is refused so two planes can never interleave records on the same
//! sites. This module holds the error type for that refusal,
//! `CellCounters`, the fixed counter array the planes bump on their
//! hot paths, and `Brackets`, the invocation brackets both attribution
//! ledgers keep.

use std::cell::{Cell, RefCell};
use std::fmt;

use crate::clock::Cycles;
use crate::metrics::Component;

/// Errors from `Kernel::attach_*_plane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// A plane of this kind is already attached. Every subsystem sees
    /// a plane from its attach on; swapping one mid-run would split the
    /// record stream across two planes.
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

/// Maximum concurrently bracketed invocations (graft-to-graft nesting).
/// The engine bounds nesting well below this (`MAX_NEST_DEPTH`).
const MAX_NEST: usize = 16;

/// One open invocation bracket and the cycles attributed to it so far.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<T> {
    pub(crate) tag: T,
    pub(crate) start: Cycles,
    pub(crate) comps: [u64; Component::COUNT],
}

/// The invocation brackets both attribution ledgers (metrics and
/// profile) keep, so the two attribute every charge by one rule: into
/// the innermost open invocation; outside any, a dispatch
/// ([`Component::Indirection`]) charge waits for the invocation it
/// dispatches and every other charge lands in the kernel ledger.
/// Fixed depth, zero-allocation.
#[derive(Debug)]
pub(crate) struct Brackets<T> {
    frames: RefCell<[Frame<T>; MAX_NEST]>,
    depth: Cell<usize>,
    pending_indirection: Cell<u64>,
    kernel: CellCounters<{ Component::COUNT }>,
}

impl<T: Copy> Brackets<T> {
    pub(crate) fn new(idle: T) -> Brackets<T> {
        let frame = Frame { tag: idle, start: Cycles(0), comps: [0; Component::COUNT] };
        Brackets {
            frames: RefCell::new([frame; MAX_NEST]),
            depth: Cell::new(0),
            pending_indirection: Cell::new(0),
            kernel: CellCounters::new(),
        }
    }

    pub(crate) fn charge(&self, c: Component, cost: Cycles) {
        let d = self.depth.get();
        if d > 0 {
            self.frames.borrow_mut()[d - 1].comps[c as usize] += cost.get();
        } else if c == Component::Indirection {
            self.pending_indirection.set(self.pending_indirection.get() + cost.get());
        } else {
            self.kernel.add(c as usize, cost.get());
        }
    }

    /// Opens a bracket, claiming the pending dispatch charge.
    pub(crate) fn open(&self, tag: T, start: Cycles) {
        let d = self.depth.get();
        assert!(d < MAX_NEST, "invocation nest deeper than MAX_NEST");
        let mut comps = [0; Component::COUNT];
        comps[Component::Indirection as usize] = self.pending_indirection.replace(0);
        self.frames.borrow_mut()[d] = Frame { tag, start, comps };
        self.depth.set(d + 1);
    }

    pub(crate) fn close(&self) -> Frame<T> {
        let d = self.depth.get();
        assert!(d > 0, "end_invocation without begin_invocation");
        self.depth.set(d - 1);
        self.frames.borrow()[d - 1]
    }

    pub(crate) fn innermost(&self) -> Option<T> {
        self.depth.get().checked_sub(1).map(|d| self.frames.borrow()[d].tag)
    }

    /// Moves the pending dispatch charge to the kernel ledger: the
    /// dispatch led to no invocation (a dead graft's fallback).
    pub(crate) fn drop_pending(&self) {
        self.kernel.add(Component::Indirection as usize, self.pending_indirection.replace(0));
    }

    pub(crate) fn kernel(&self) -> [u64; Component::COUNT] {
        self.kernel.load()
    }

    /// The checkpointable state; checkpoints are taken with no bracket
    /// open.
    pub(crate) fn export(&self) -> (u64, [u64; Component::COUNT]) {
        assert_eq!(self.depth.get(), 0, "cannot checkpoint mid-invocation");
        (self.pending_indirection.get(), self.kernel.load())
    }

    pub(crate) fn restore(&self, (pending, kernel): (u64, [u64; Component::COUNT])) {
        self.pending_indirection.set(pending);
        self.kernel.store(&kernel);
        self.depth.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
