//! Wire frames for the replication plane.
//!
//! A committed [`VerifiedRecord`] travels as one *record frame*:
//!
//! ```text
//! n: u32 | (home: u64, sum: u64) × n | payload block × n | seal: u64
//! '------- sealed header --------'
//! seal = checksum64(n | entries) ^ seq
//! ```
//!
//! The seal covers the header only, xor-bound to the record's
//! sequence, so a frame replayed under the wrong sequence, or with a
//! bent count or entry, is refused. The payload blocks need no seal of
//! their own: the sealed entry table already carries each block's sum,
//! so the [`Reassembler`] checks each block against its entry exactly
//! once ([`VerifiedRecord::verify`]), and what it
//! yields is a [`VerifiedRecord`] that the replica applies without
//! hashing again. The journal's own on-disk seals never leave the
//! primary; the wire carries its own.
//!
//! A record frame is bigger than the packet plane allows (one payload
//! block alone is [`BLOCK_SIZE`] = 4096 bytes against a
//! [`PAYLOAD_CAP`] of 2048), so frames are split into fragments, each
//! carrying `(kind, seq, index, count)` ahead of its chunk. No frame is
//! ever built whole: [`fragment`] cuts each chunk straight from the
//! entry table and the record's blocks, and the [`Reassembler`] lands
//! each chunk straight in the block arrays of the record it rebuilds,
//! so each payload byte is copied once on each side of the wire. The
//! [`Reassembler`] tolerates fragments arriving in any order and
//! interleaved across sequences; a record surfaces only when its last
//! missing fragment lands, its header seal verifies and every block
//! matches its entry.
//!
//! Acks are a single small frame: the cumulative applied sequence plus
//! a seal. There is no negative ack — loss in either direction is
//! repaired by the shipper's go-back-N retransmission.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;

use vino_fs::layout::checksum64;
use vino_fs::{JournalDescriptor, JournalRecord, VerifiedRecord, BLOCK_SIZE};
use vino_net::PAYLOAD_CAP;
use vino_sim::trace::CauseCtx;

/// Frame kind tag: a fragment of a record frame.
pub const KIND_RECORD: u8 = 1;
/// Frame kind tag: a cumulative acknowledgement.
pub const KIND_ACK: u8 = 2;

/// Per-fragment header: kind (1) + record sequence (8) + fragment
/// index (2) + fragment count (2) + causal context (16 — the ship
/// span propagated in-band, [`CauseCtx::WIRE_BYTES`]).
pub const FRAG_HEADER: usize = 13 + CauseCtx::WIRE_BYTES;

/// Chunk bytes carried per fragment.
const CHUNK: usize = PAYLOAD_CAP - FRAG_HEADER;

/// Bytes of the sealed header of an `n`-entry record frame: the count
/// and the entry table.
const fn head_len(n: usize) -> usize {
    4 + n * 16
}

/// Bytes of an `n`-entry record frame: header, payload blocks, seal.
const fn frame_len(n: usize) -> usize {
    head_len(n) + n * BLOCK_SIZE + 8
}

/// Most fragments one record frame can need: the frame of a record
/// holding [`JournalDescriptor::MAX_ENTRIES`] blocks — the largest a
/// journal can produce. The [`Reassembler`] refuses any fragment
/// claiming more.
pub const MAX_FRAGMENTS: usize = frame_len(JournalDescriptor::MAX_ENTRIES).div_ceil(CHUNK);

/// The entry count of a record frame cut into `total` fragments. There
/// is at most one: each entry adds more than a chunk to the frame.
fn entries_for(total: usize) -> Option<usize> {
    let n = (total * CHUNK).checked_sub(frame_len(0))? / (16 + BLOCK_SIZE);
    (n > 0 && frame_len(n).div_ceil(CHUNK) == total).then_some(n)
}

/// One of the three regions of a record frame.
enum Part {
    Head,
    Block(usize),
    Seal,
}

/// Where byte `at` of an `n`-entry record frame lives: its part and the
/// offset within that part.
fn locate(n: usize, at: usize) -> (Part, usize) {
    match at.checked_sub(head_len(n)) {
        None => (Part::Head, at),
        Some(off) if off < n * BLOCK_SIZE => (Part::Block(off / BLOCK_SIZE), off % BLOCK_SIZE),
        Some(off) => (Part::Seal, off - n * BLOCK_SIZE),
    }
}

/// Splits a record into packet-sized fragments, each under
/// [`PAYLOAD_CAP`], cut straight from its entry table and blocks.
/// Every fragment carries `ctx` — the ship span — so the receiver can
/// chain its enqueue/ingest spans to the sender's whichever fragment
/// completes the record.
pub fn fragment(rec: &VerifiedRecord, ctx: CauseCtx) -> Vec<Vec<u8>> {
    let n = rec.entries.len();
    let mut head = Vec::with_capacity(head_len(n));
    head.extend_from_slice(&(n as u32).to_le_bytes());
    for (home, sum) in &rec.entries {
        head.extend_from_slice(&home.to_le_bytes());
        head.extend_from_slice(&sum.to_le_bytes());
    }
    let seal = (checksum64(&head) ^ rec.seq).to_le_bytes();
    let len = frame_len(n);
    let total = len.div_ceil(CHUNK);
    assert!(total <= MAX_FRAGMENTS, "record larger than any journal record");
    (0..total)
        .map(|i| {
            let (mut at, end) = (i * CHUNK, len.min((i + 1) * CHUNK));
            let mut f = Vec::with_capacity(FRAG_HEADER + end - at);
            f.push(KIND_RECORD);
            f.extend_from_slice(&rec.seq.to_le_bytes());
            f.extend_from_slice(&(i as u16).to_le_bytes());
            f.extend_from_slice(&(total as u16).to_le_bytes());
            f.extend_from_slice(&ctx.to_bytes());
            while at < end {
                let (part, off) = locate(n, at);
                let src = match part {
                    Part::Head => &head[off..],
                    Part::Block(j) => &rec.payloads[j][off..],
                    Part::Seal => &seal[off..],
                };
                let take = src.len().min(end - at);
                f.extend_from_slice(&src[..take]);
                at += take;
            }
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

/// A record frame being reassembled: which fragments have landed, and
/// the frame's parts as their chunks fill them.
struct Partial {
    landed: Vec<bool>,
    head: Vec<u8>,
    blocks: Vec<[u8; BLOCK_SIZE]>,
    seal: [u8; 8],
}

impl Partial {
    /// An empty `n`-entry frame awaiting `total` fragments.
    fn new(total: usize, n: usize) -> Partial {
        Partial {
            landed: vec![false; total],
            head: vec![0; head_len(n)],
            blocks: vec![[0; BLOCK_SIZE]; n],
            seal: [0; 8],
        }
    }

    /// Copies fragment `idx`'s chunk into the parts it covers.
    fn land(&mut self, idx: usize, mut chunk: &[u8]) {
        let n = self.blocks.len();
        let mut at = idx * CHUNK;
        while !chunk.is_empty() {
            let (part, off) = locate(n, at);
            let dst = match part {
                Part::Head => &mut self.head[off..],
                Part::Block(j) => &mut self.blocks[j][off..],
                Part::Seal => &mut self.seal[off..],
            };
            let take = dst.len().min(chunk.len());
            dst[..take].copy_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            at += take;
        }
        self.landed[idx] = true;
    }

    /// The finished frame as the record at `seq`: `None` unless the
    /// header seal verifies for this sequence, the count matches the
    /// frame's length, and every block matches its entry.
    fn finish(self, seq: u64) -> Option<VerifiedRecord> {
        if checksum64(&self.head) ^ seq != u64::from_le_bytes(self.seal) {
            return None;
        }
        let (count, table) = self.head.split_first_chunk::<4>()?;
        if u32::from_le_bytes(*count) as usize != self.blocks.len() {
            return None;
        }
        let entries = table
            .as_chunks::<8>()
            .0
            .chunks_exact(2)
            .map(|e| (u64::from_le_bytes(e[0]), u64::from_le_bytes(e[1])))
            .collect();
        VerifiedRecord::verify(JournalRecord { seq, entries, payloads: self.blocks }).ok()
    }
}

/// Collects record fragments delivered by the packet plane and yields
/// each record once complete and verified. Fragments may arrive in any
/// order, interleaved across sequences; a fragment that disagrees with
/// its peers (wrong count, bad index, wrong chunk length) or claims
/// more than [`MAX_FRAGMENTS`] is dropped. A sequence holds its whole
/// block array from its first fragment on: at most
/// [`JournalDescriptor::MAX_ENTRIES`] blocks, as the count is bounded
/// before anything is allocated.
#[derive(Default)]
pub struct Reassembler {
    parts: BTreeMap<u64, Partial>,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Feeds one delivered packet payload. Returns the finished record
    /// and the ship context its fragments carried when this was its
    /// last missing fragment and the record verifies. A record that
    /// completes but fails to verify is dropped whole; its
    /// retransmission reassembles from scratch.
    pub fn accept(&mut self, payload: &[u8]) -> Option<(VerifiedRecord, CauseCtx)> {
        if payload.len() < FRAG_HEADER || payload[0] != KIND_RECORD {
            return None;
        }
        let seq = u64::from_le_bytes(payload[1..9].try_into().ok()?);
        let idx = u16::from_le_bytes(payload[9..11].try_into().ok()?) as usize;
        let total = u16::from_le_bytes(payload[11..13].try_into().ok()?) as usize;
        if total == 0 || idx >= total || total > MAX_FRAGMENTS {
            return None;
        }
        let n = entries_for(total)?;
        let chunk = &payload[FRAG_HEADER..];
        if chunk.len() != frame_len(n).min((idx + 1) * CHUNK) - idx * CHUNK {
            return None;
        }
        let ctx = CauseCtx::from_bytes(payload[13..13 + CauseCtx::WIRE_BYTES].try_into().ok()?);
        let partial = self.parts.entry(seq).or_insert_with(|| Partial::new(total, n));
        if partial.landed.len() != total {
            return None;
        }
        partial.land(idx, chunk);
        if partial.landed.contains(&false) {
            return None;
        }
        let done = self.parts.remove(&seq)?;
        done.finish(seq).map(|rec| (rec, ctx))
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

    fn record(seq: u64, blocks: usize) -> VerifiedRecord {
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
        VerifiedRecord::verify(JournalRecord { seq, entries, payloads }).unwrap()
    }

    /// Feeds every fragment; returns what the last one yielded, and
    /// asserts no earlier one yielded anything.
    fn deliver(r: &mut Reassembler, frags: &[Vec<u8>]) -> Option<(VerifiedRecord, CauseCtx)> {
        let (last, rest) = frags.split_last().expect("a record has fragments");
        for f in rest {
            assert_eq!(r.accept(f), None, "a record surfaced before its last fragment");
        }
        r.accept(last)
    }

    #[test]
    fn fragment_counts_name_one_entry_count() {
        let counts: Vec<usize> =
            (1..=JournalDescriptor::MAX_ENTRIES).map(|n| frame_len(n).div_ceil(CHUNK)).collect();
        for total in 0..=MAX_FRAGMENTS + 1 {
            let want = counts.iter().position(|&t| t == total).map(|i| i + 1);
            assert_eq!(entries_for(total), want, "{total} fragments");
        }
    }

    #[test]
    fn corruption_is_refused_at_the_wire_and_repaired_by_retransmission() {
        let rec = record(7, 3);
        let frags = fragment(&rec, CauseCtx::NONE);
        assert_eq!(frags.len(), 7);
        let mut r = Reassembler::new();
        // One flipped payload byte in any fragment: the record is
        // refused whole, so it never reaches `ingest_replicated`.
        for i in 0..frags.len() {
            let at = (i * CHUNK..)
                .find(|&at| matches!(locate(3, at), (Part::Block(_), _)))
                .expect("every fragment of this record carries payload bytes");
            let mut bent = frags.clone();
            bent[i][FRAG_HEADER + at - i * CHUNK] ^= 0x10;
            assert_eq!(deliver(&mut r, &bent), None, "payload byte in fragment {i}");
            assert_eq!(r.pending(), 0, "a refused record holds no state");
        }
        // One flipped entry-table byte (a home address, which no block
        // sum covers): the header seal refuses it.
        let mut bent = frags.clone();
        bent[0][FRAG_HEADER + 4 + 1] ^= 0x01;
        assert_eq!(deliver(&mut r, &bent), None, "entry-table byte");
        // The whole record under the next sequence: the seal is bound
        // to the sequence it was shipped under.
        let mut replayed = frags.clone();
        for f in &mut replayed {
            f[1..9].copy_from_slice(&(rec.seq + 1).to_le_bytes());
        }
        assert_eq!(deliver(&mut r, &replayed), None, "seq + 1");
        // Retransmitted clean, the record comes out whole.
        assert_eq!(deliver(&mut r, &frags), Some((rec, CauseCtx::NONE)));
        assert_eq!(r.pending(), 0);
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
        // Beyond the bound, or a count no record frame is cut into.
        for forged in [u16::MAX, MAX_FRAGMENTS as u16 + 1, 1, 4] {
            f[11..13].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(r.accept(&f), None);
            assert_eq!(r.pending(), 0, "count {forged} must hold no reassembly state");
        }
        // A chunk shorter than its index's share of the frame.
        let mut short = f.clone();
        short[11..13].copy_from_slice(&3u16.to_le_bytes());
        short.pop();
        assert_eq!(r.accept(&short), None);
        assert_eq!(r.pending(), 0, "a short chunk must hold no reassembly state");
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
