//! Wire frames for the replication plane.
//!
//! A committed [`JournalRecord`] travels as one *record frame*: the
//! entry table and payload blocks re-marshalled for the wire, with a
//! fresh FNV-1a seal computed at ship time and xor-bound to the
//! record's sequence — so a frame replayed under the wrong sequence, or
//! corrupted in flight, is refused at reassembly rather than applied.
//! The journal's own on-disk seals never leave the primary; the wire
//! carries its own.
//!
//! A record frame is bigger than the packet plane allows (one payload
//! block alone is [`BLOCK_SIZE`] = 4096 bytes against a
//! [`PAYLOAD_CAP`] of 2048), so frames are split into fragments, each
//! carrying `(kind, seq, index, count)` ahead of its chunk. The
//! [`Reassembler`] tolerates fragments arriving in any order and
//! interleaved across sequences; a record surfaces only when its last
//! missing fragment lands and its seal verifies.
//!
//! Acks are a single small frame: the cumulative applied sequence plus
//! a seal. There is no negative ack — loss in either direction is
//! repaired by the shipper's go-back-N retransmission.

use std::collections::BTreeMap;

use vino_fs::layout::checksum64;
use vino_fs::{JournalDescriptor, JournalRecord, BLOCK_SIZE};
use vino_net::PAYLOAD_CAP;
use vino_sim::trace::CauseCtx;

/// Frame kind tag: a fragment of a marshalled record.
pub const KIND_RECORD: u8 = 1;
/// Frame kind tag: a cumulative acknowledgement.
pub const KIND_ACK: u8 = 2;

/// Per-fragment header: kind (1) + record sequence (8) + fragment
/// index (2) + fragment count (2) + causal context (16 — the ship
/// span propagated in-band, [`CauseCtx::WIRE_BYTES`]).
pub const FRAG_HEADER: usize = 13 + CauseCtx::WIRE_BYTES;

/// Chunk bytes carried per fragment.
const CHUNK: usize = PAYLOAD_CAP - FRAG_HEADER;

/// Most fragments one record frame can need: the marshalled body of a
/// record holding [`JournalDescriptor::MAX_ENTRIES`] blocks — the
/// largest a journal can produce. The [`Reassembler`] refuses any
/// fragment claiming more.
pub const MAX_FRAGMENTS: usize =
    (4 + JournalDescriptor::MAX_ENTRIES * (16 + BLOCK_SIZE) + 8).div_ceil(CHUNK);

/// Marshals a record body: entry count, entry table, payload blocks,
/// and a trailing seal — FNV-1a over everything before it, xor-bound
/// to the record's sequence (the "re-seal on ship").
pub fn marshal(rec: &JournalRecord) -> Vec<u8> {
    let n = rec.entries.len();
    let mut out = Vec::with_capacity(4 + n * 16 + n * BLOCK_SIZE + 8);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for (home, sum) in &rec.entries {
        out.extend_from_slice(&home.to_le_bytes());
        out.extend_from_slice(&sum.to_le_bytes());
    }
    for payload in &rec.payloads {
        out.extend_from_slice(payload);
    }
    let seal = checksum64(&out) ^ rec.seq;
    out.extend_from_slice(&seal.to_le_bytes());
    out
}

/// Parses a marshalled record body back under sequence `seq`. `None`
/// if the seal does not verify for these bytes and this sequence, or
/// the shape is wrong.
pub fn unmarshal(seq: u64, body: &[u8]) -> Option<JournalRecord> {
    if body.len() < 4 + 8 {
        return None;
    }
    let (sealed, seal_bytes) = body.split_at(body.len() - 8);
    let seal = u64::from_le_bytes(seal_bytes.try_into().ok()?);
    if checksum64(sealed) ^ seq != seal {
        return None;
    }
    let n = u32::from_le_bytes(sealed[0..4].try_into().ok()?) as usize;
    if sealed.len() != 4 + n * 16 + n * BLOCK_SIZE || n == 0 {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let at = 4 + i * 16;
        let home = u64::from_le_bytes(sealed[at..at + 8].try_into().ok()?);
        let sum = u64::from_le_bytes(sealed[at + 8..at + 16].try_into().ok()?);
        entries.push((home, sum));
    }
    let mut payloads = Vec::with_capacity(n);
    let base = 4 + n * 16;
    for i in 0..n {
        let at = base + i * BLOCK_SIZE;
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(&sealed[at..at + BLOCK_SIZE]);
        payloads.push(block);
    }
    Some(JournalRecord { seq, entries, payloads })
}

/// Splits a record into packet-sized fragments, each under
/// [`PAYLOAD_CAP`].
/// Every fragment carries `ctx` — the ship span — so the receiver can
/// chain its enqueue/ingest spans to the sender's whichever fragment
/// completes the record.
pub fn fragment(rec: &JournalRecord, ctx: CauseCtx) -> Vec<Vec<u8>> {
    let body = marshal(rec);
    let total = body.chunks(CHUNK).count();
    assert!(total <= MAX_FRAGMENTS, "record larger than any journal record");
    body.chunks(CHUNK)
        .enumerate()
        .map(|(i, chunk)| {
            let mut f = Vec::with_capacity(FRAG_HEADER + chunk.len());
            f.push(KIND_RECORD);
            f.extend_from_slice(&rec.seq.to_le_bytes());
            f.extend_from_slice(&(i as u16).to_le_bytes());
            f.extend_from_slice(&(total as u16).to_le_bytes());
            f.extend_from_slice(&ctx.to_bytes());
            f.extend_from_slice(chunk);
            f
        })
        .collect()
}

/// Ack frame length: kind (1) + acked (8) + causal context (16) +
/// seal (8).
pub const ACK_LEN: usize = 1 + 8 + CauseCtx::WIRE_BYTES + 8;

/// Encodes a cumulative ack: every sequence `<= acked` is applied.
/// `ctx` is the replica's ack span, propagated in-band so the primary
/// can chain its `repl.ack` event to the replica's apply story.
pub fn encode_ack(acked: u64, ctx: CauseCtx) -> Vec<u8> {
    let mut f = Vec::with_capacity(ACK_LEN);
    f.push(KIND_ACK);
    f.extend_from_slice(&acked.to_le_bytes());
    f.extend_from_slice(&ctx.to_bytes());
    let seal = checksum64(&f);
    f.extend_from_slice(&seal.to_le_bytes());
    f
}

/// Parses an ack frame; `None` for anything malformed or corrupted.
pub fn decode_ack(payload: &[u8]) -> Option<(u64, CauseCtx)> {
    if payload.len() != ACK_LEN || payload[0] != KIND_ACK {
        return None;
    }
    let (sealed, seal_bytes) = payload.split_at(ACK_LEN - 8);
    let seal = u64::from_le_bytes(seal_bytes.try_into().ok()?);
    if checksum64(sealed) != seal {
        return None;
    }
    let acked = u64::from_le_bytes(sealed[1..9].try_into().ok()?);
    let ctx = CauseCtx::from_bytes(sealed[9..9 + CauseCtx::WIRE_BYTES].try_into().ok()?);
    Some((acked, ctx))
}

/// Collects record fragments delivered by the packet plane and yields
/// each record once complete and seal-verified. Fragments may arrive
/// in any order, interleaved across sequences; a fragment that
/// disagrees with its peers (wrong count, bad index) or claims more
/// than [`MAX_FRAGMENTS`] is dropped.
#[derive(Default)]
pub struct Reassembler {
    parts: BTreeMap<u64, Vec<Option<Vec<u8>>>>,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feeds one delivered packet payload. Returns the finished record
    /// and the ship context its fragments carried when this was its
    /// last missing fragment.
    pub fn accept(&mut self, payload: &[u8]) -> Option<(JournalRecord, CauseCtx)> {
        if payload.len() < FRAG_HEADER || payload[0] != KIND_RECORD {
            return None;
        }
        let seq = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let idx = u16::from_le_bytes(payload[9..11].try_into().ok()?) as usize;
        let total = u16::from_le_bytes(payload[11..13].try_into().ok()?) as usize;
        if total == 0 || idx >= total || total > MAX_FRAGMENTS {
            return None;
        }
        let ctx = CauseCtx::from_bytes(payload[13..13 + CauseCtx::WIRE_BYTES].try_into().ok()?);
        let slots = self.parts.entry(seq).or_insert_with(|| vec![None; total]);
        if slots.len() != total {
            return None;
        }
        slots[idx] = Some(payload[FRAG_HEADER..].to_vec());
        if slots.iter().any(|s| s.is_none()) {
            return None;
        }
        let slots = self.parts.remove(&seq).expect("just completed");
        let mut body = Vec::with_capacity(slots.iter().flatten().map(Vec::len).sum());
        for chunk in slots.iter().flatten() {
            body.extend_from_slice(chunk);
        }
        unmarshal(seq, &body).map(|rec| (rec, ctx))
    }

    /// Drops all partial state — e.g. when the receiving node reboots
    /// and its in-flight fragments are lost with it.
    pub fn clear(&mut self) {
        self.parts.clear();
    }

    /// Sequences with fragments outstanding.
    pub fn pending(&self) -> usize {
        self.parts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, blocks: usize) -> JournalRecord {
        let mut entries = Vec::new();
        let mut payloads = Vec::new();
        for i in 0..blocks {
            let mut block = [0u8; BLOCK_SIZE];
            for (j, b) in block.iter_mut().enumerate() {
                *b = (seq as u8).wrapping_mul(7).wrapping_add(i as u8).wrapping_add(j as u8);
            }
            entries.push((100 + i as u64, checksum64(&block)));
            payloads.push(block);
        }
        JournalRecord { seq, entries, payloads }
    }

    #[test]
    fn marshal_round_trips_and_binds_the_sequence() {
        let rec = record(7, 3);
        let body = marshal(&rec);
        assert_eq!(unmarshal(7, &body), Some(rec.clone()));
        // The seal is bound to the sequence: the same bytes under a
        // different sequence are refused.
        assert_eq!(unmarshal(8, &body), None);
        // Any flipped byte is refused.
        let mut bent = body.clone();
        bent[10] ^= 0x40;
        assert_eq!(unmarshal(7, &bent), None);
    }

    #[test]
    fn fragments_respect_the_payload_cap_and_reassemble_out_of_order() {
        use vino_sim::trace::{NodeId, SpanId};
        let rec = record(3, 2);
        let ctx = CauseCtx { span: SpanId::new(NodeId(0), 7), parent: SpanId::new(NodeId(0), 2) };
        let frags = fragment(&rec, ctx);
        assert!(frags.len() > 1, "a multi-block record cannot fit one packet");
        for f in &frags {
            assert!(f.len() <= PAYLOAD_CAP);
        }
        let mut r = Reassembler::new();
        // Deliver in reverse order; the record completes on the last
        // fragment and not before, carrying the in-band ship context.
        let mut done = None;
        for f in frags.iter().rev() {
            assert!(done.is_none());
            done = r.accept(f);
        }
        assert_eq!(done, Some((rec, ctx)));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_interleaves_sequences_and_drops_corrupt_frames() {
        let a = record(1, 1);
        let b = record(2, 2);
        let fa = fragment(&a, CauseCtx::NONE);
        let fb = fragment(&b, CauseCtx::NONE);
        let mut r = Reassembler::new();
        assert_eq!(r.accept(&fb[0]), None);
        // Feed all of record 1 but corrupt its final fragment: the
        // frame completes, the seal fails, nothing surfaces.
        for f in &fa[..fa.len() - 1] {
            assert_eq!(r.accept(f), None);
        }
        let mut corrupt = fa.last().expect("non-empty").clone();
        *corrupt.last_mut().expect("non-empty") ^= 0xff;
        assert_eq!(r.accept(&corrupt), None);
        // Record 2 still completes despite the interleaving.
        let mut done = None;
        for f in &fb[1..] {
            assert_eq!(done, None);
            done = r.accept(f);
        }
        assert_eq!(done, Some((b, CauseCtx::NONE)));
        // Record 1 retransmitted clean reassembles from scratch.
        let mut done = None;
        for f in &fa {
            done = r.accept(f);
        }
        assert_eq!(done, Some((a, CauseCtx::NONE)));
    }

    #[test]
    fn the_largest_journal_record_fits_the_fragment_bound() {
        let rec = record(9, JournalDescriptor::MAX_ENTRIES);
        let frags = fragment(&rec, CauseCtx::NONE);
        assert_eq!(frags.len(), MAX_FRAGMENTS);
        let mut r = Reassembler::new();
        let done = frags.iter().filter_map(|f| r.accept(f)).next();
        assert_eq!(done, Some((rec, CauseCtx::NONE)));
    }

    #[test]
    fn reassembler_refuses_a_forged_fragment_count() {
        let mut f = fragment(&record(5, 1), CauseCtx::NONE).remove(0);
        let mut r = Reassembler::new();
        for forged in [u16::MAX, MAX_FRAGMENTS as u16 + 1] {
            f[11..13].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(r.accept(&f), None);
            assert_eq!(r.pending(), 0, "count {forged} must hold no reassembly state");
        }
        // The largest honest count is held for its missing fragments.
        f[11..13].copy_from_slice(&(MAX_FRAGMENTS as u16).to_le_bytes());
        assert_eq!(r.accept(&f), None);
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn ack_frames_round_trip_and_refuse_corruption() {
        use vino_sim::trace::{NodeId, SpanId};
        let ctx = CauseCtx { span: SpanId::new(NodeId(1), 3), parent: SpanId::new(NodeId(1), 1) };
        let f = encode_ack(42, ctx);
        assert_eq!(f.len(), ACK_LEN);
        assert!(f.len() <= PAYLOAD_CAP);
        assert_eq!(decode_ack(&f), Some((42, ctx)));
        let mut bent = f.clone();
        bent[3] ^= 1;
        assert_eq!(decode_ack(&bent), None);
        assert_eq!(decode_ack(&[]), None);
    }
}
