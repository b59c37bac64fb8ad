//! vino-repl: deterministic primary/replica journal shipping.
//!
//! The journaling plane (PR 6) made every mutation a sequenced,
//! checksummed, idempotently-replayable record. This crate closes the
//! loop the paper's recovery story implies: if a record can be replayed
//! on the machine that crashed, it can be replayed on a *different*
//! machine — and then a misbehaving kernel is survivable not just by
//! rebooting it, but by failing over past it.
//!
//! - [`frame`] — the wire contract: a committed
//!   [`VerifiedRecord`](vino_fs::VerifiedRecord) cut into record-frame
//!   fragments under the packet plane's
//!   [`PAYLOAD_CAP`](vino_net::PAYLOAD_CAP) (entry table + payload
//!   blocks + a fresh `checksum64` seal over the header, bound to the
//!   sequence), the cumulative-ack frame, and the reassembler, which
//!   checks each payload block once and yields a verified record.
//! - [`harness`] — the [`ReplHarness`]: two kernels off one virtual
//!   clock, a bounded in-flight shipping window with go-back-N
//!   retransmission over cumulative acks, wire faults
//!   ([`REPL_SITES`](vino_sim::fault::REPL_SITES)) consulted at every
//!   schedule point, node crashes landed on PR 6 crash-point
//!   granularity, and failover that proves the replica's disk is a
//!   byte-identical prefix of the primary's committed state before
//!   promoting it. Each kernel owns a per-node trace plane; causal
//!   context ([`CauseCtx`](vino_sim::trace::CauseCtx)) is minted at the
//!   journal seal, carried in-band by every fragment and ack frame, and
//!   re-chained on the far side, so
//!   [`ReplHarness::merged_trace`] yields one deterministic
//!   cross-kernel stream.
//! - [`lagpath`] — critical-path lag attribution: walks the merged
//!   span DAG for the oldest unacked record and splits its age into
//!   per-hop virtual-cycle intervals that sum *exactly* to the watch
//!   plane's cycles-valued replication-lag gauge.
//!
//! Everything is single-threaded and seeded: the same seed produces the
//! same interleaving, the same faults, the same traces and the same
//! final images, byte for byte. See `docs/REPLICATION.md`.

pub mod frame;
pub mod harness;
pub mod lagpath;

pub use frame::{decode_ack, encode_ack, fragment, Reassembler};
pub use harness::{
    assert_committed_states_match, committed_state_fingerprint, NodeDeath, ReplConfig, ReplHarness,
    RoundReport, ShippingState, WorkloadReport, WIRE_CYCLES,
};
pub use lagpath::{lag_path, LagHop, LagPathReport};
