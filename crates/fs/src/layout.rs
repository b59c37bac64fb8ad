//! On-disk structures: superblock, inode table and allocation bitmap.
//!
//! A deliberately simple extent-based layout (files are allocated
//! first-fit and usually occupy a single contiguous extent, which is
//! also what makes the sequential/random distinction of the read-ahead
//! experiments physically meaningful):
//!
//! ```text
//! block 0                superblock
//! blocks 1..=I           inode table (16 inodes per 4 KB block)
//! blocks I+1..=I+B       allocation bitmap (1 bit per data block)
//! blocks I+B+1..=I+B+J   write-ahead journal (redo log)
//! blocks I+B+J+1..       data
//! ```
//!
//! The journal region holds one redo transaction at a time — a
//! descriptor block naming the home locations and carrying per-payload
//! checksums, the payload blocks themselves, and a commit block whose
//! durable arrival is the commit point. Because every in-place update
//! flows through the journal and each transaction overwrites the region
//! from its start, mount-time recovery only ever has the latest
//! transaction to consider: roll it forward if its commit block and
//! checksums validate, discard it as a torn tail otherwise. See
//! `docs/RECOVERY.md` for the byte-level story.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// The `N` bytes of the little-endian field at `b[at..at + N]`, for
/// `from_le_bytes`. Every offset is fixed by the format and lies inside
/// the block or record it reads.
fn le<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    let mut out = [0; N];
    out.copy_from_slice(&b[at..at + N]);
    out
}

/// File-system block size; "4KB is our file system block size" (§4.1.3).
pub const BLOCK_SIZE: usize = 4096;

/// Bytes per on-disk inode record.
pub const INODE_SIZE: usize = 256;

/// Inodes per table block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;

/// Maximum file-name bytes stored in an inode.
pub const MAX_NAME: usize = 64;

/// Maximum extents per file; first-fit contiguous allocation keeps real
/// files at one.
pub const MAX_EXTENTS: usize = 4;

/// Magic number identifying a formatted volume whose journal sums are
/// [`checksum64`]. Volumes stamped "VINO" (`0x5649_4E4F`) were
/// journalled with FNV-1a sums; mount refuses them rather than read
/// their committed tail as torn.
pub const FS_MAGIC: u32 = 0x5649_4E32; // "VIN2"

/// Magic number opening a journal descriptor block.
pub const JOURNAL_MAGIC: u32 = 0x4A_52_4E_4C; // "JRNL"

/// Magic number opening a journal commit block.
pub const COMMIT_MAGIC: u32 = 0x43_4D_49_54; // "CMIT"

/// Smallest journal region a volume is formatted with (descriptor +
/// commit + at least six payload slots).
pub const MIN_JOURNAL_BLOCKS: u32 = 8;

/// Largest journal region; one transaction never needs more.
pub const MAX_JOURNAL_BLOCKS: u32 = 64;

/// The superblock, stored in block 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBlock {
    /// Must equal [`FS_MAGIC`].
    pub magic: u32,
    /// Total blocks on the volume.
    pub total_blocks: u32,
    /// Number of inode-table blocks.
    pub inode_blocks: u32,
    /// Number of bitmap blocks.
    pub bitmap_blocks: u32,
    /// First journal block.
    pub journal_start: u32,
    /// Number of journal blocks (descriptor + payloads + commit).
    pub journal_blocks: u32,
    /// First data block.
    pub data_start: u32,
}

impl SuperBlock {
    /// Computes a layout for a volume of `total_blocks`, with room for
    /// `max_files` inodes.
    pub fn for_volume(total_blocks: u32, max_files: u32) -> SuperBlock {
        let inode_blocks = max_files.div_ceil(INODES_PER_BLOCK as u32).max(1);
        let bitmap_blocks = total_blocks.div_ceil((BLOCK_SIZE * 8) as u32).max(1);
        let journal_blocks = (total_blocks / 1024).clamp(MIN_JOURNAL_BLOCKS, MAX_JOURNAL_BLOCKS);
        let journal_start = 1 + inode_blocks + bitmap_blocks;
        SuperBlock {
            magic: FS_MAGIC,
            total_blocks,
            inode_blocks,
            bitmap_blocks,
            journal_start,
            journal_blocks,
            data_start: journal_start + journal_blocks,
        }
    }

    /// Serializes into the first bytes of a block.
    pub fn encode(&self) -> [u8; BLOCK_SIZE] {
        let mut b = [0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&self.magic.to_le_bytes());
        b[4..8].copy_from_slice(&self.total_blocks.to_le_bytes());
        b[8..12].copy_from_slice(&self.inode_blocks.to_le_bytes());
        b[12..16].copy_from_slice(&self.bitmap_blocks.to_le_bytes());
        b[16..20].copy_from_slice(&self.journal_start.to_le_bytes());
        b[20..24].copy_from_slice(&self.journal_blocks.to_le_bytes());
        b[24..28].copy_from_slice(&self.data_start.to_le_bytes());
        b
    }

    /// Parses a superblock; `None` when the magic does not match.
    pub fn decode(b: &[u8; BLOCK_SIZE]) -> Option<SuperBlock> {
        let word = |at| u32::from_le_bytes(le(b, at));
        let sb = SuperBlock {
            magic: word(0),
            total_blocks: word(4),
            inode_blocks: word(8),
            bitmap_blocks: word(12),
            journal_start: word(16),
            journal_blocks: word(20),
            data_start: word(24),
        };
        (sb.magic == FS_MAGIC).then_some(sb)
    }

    /// Inode capacity of the volume.
    pub fn max_inodes(&self) -> u32 {
        self.inode_blocks * INODES_PER_BLOCK as u32
    }

    /// Payload blocks one journal transaction can carry (the region
    /// minus the descriptor and commit slots).
    pub fn journal_capacity(&self) -> usize {
        (self.journal_blocks as usize).saturating_sub(2)
    }
}

/// Independent lanes [`checksum64`] hashes in parallel, one 64-bit
/// word each per step.
const LANES: usize = 4;

/// Each lane's starting state (the first SplitMix64 outputs of seed 0):
/// non-zero, since a zero lane fed zero words stays zero, and distinct,
/// so lanes fed equal words still diverge.
const LANE_SEEDS: [u64; LANES] =
    [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f, 0xf88b_b8a8_724c_81ec];

/// Odd, so multiplying by it is a bijection on `u64` (the 64-bit
/// golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One lane step. For a fixed state it is a bijection of the word, and
/// for a fixed word a bijection of the state, so two inputs that
/// differ in one word leave that lane differing to the end.
#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(K).rotate_left(29)
}

/// The SplitMix64 finalizer: a bijection that spreads every input bit
/// over the whole sum.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The journal's integrity check over `data`. Not cryptographic; it
/// only needs to catch torn prefixes and stale tail bytes, and it must
/// be dependency-free and deterministic.
///
/// Four lanes each take every fourth 64-bit little-endian word, so the
/// multiplies of one step overlap instead of waiting on each other; a
/// final partial word is zero-padded. The lanes are then folded in
/// order into the length, and the result avalanched. Every stage is a
/// bijection of the one before for fixed other inputs, so inputs of
/// equal length that differ in a single word, a single bit included,
/// always sum differently.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (stripes, rest) = data.as_chunks::<{ 8 * LANES }>();
    for stripe in stripes {
        for (h, w) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
            *h = step(*h, u64::from_le_bytes(*w));
        }
    }
    for (h, w) in lanes.iter_mut().zip(rest.chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *h = step(*h, u64::from_le_bytes(word));
    }
    avalanche(lanes.into_iter().fold(data.len() as u64, step))
}

/// The [`checksum64`] of every block, in order: a journal record's
/// payload sums.
pub fn block_checksums<'a>(blocks: impl IntoIterator<Item = &'a [u8; BLOCK_SIZE]>) -> Vec<u64> {
    blocks.into_iter().map(|b| checksum64(b)).collect()
}

/// The journal descriptor: names the home location and payload checksum
/// of every block the transaction will rewrite.
///
/// On-disk form (all little-endian):
///
/// ```text
/// 0..4        JOURNAL_MAGIC
/// 4..12       sequence number
/// 12..16      entry count n
/// 16..16+16n  n × (home block u64, payload checksum64 u64)
/// 4088..4096  header checksum over bytes 0..4088
/// ```
///
/// The header checksum lives in the block's final eight bytes, past the
/// longest prefix a torn write can persist, so a tear never forges a
/// valid descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDescriptor {
    /// Transaction sequence number.
    pub seq: u64,
    /// `(home block, payload checksum)` per payload, in journal order.
    pub entries: Vec<(u64, u64)>,
}

impl JournalDescriptor {
    /// Most entries one descriptor block can carry.
    pub const MAX_ENTRIES: usize = (BLOCK_SIZE - 16 - 8) / 16;

    /// Serializes the descriptor, sealing it with the header checksum.
    pub fn encode(&self) -> [u8; BLOCK_SIZE] {
        assert!(self.entries.len() <= Self::MAX_ENTRIES, "descriptor overflow");
        let mut b = [0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        b[4..12].copy_from_slice(&self.seq.to_le_bytes());
        b[12..16].copy_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (i, (home, sum)) in self.entries.iter().enumerate() {
            let off = 16 + i * 16;
            b[off..off + 8].copy_from_slice(&home.to_le_bytes());
            b[off + 8..off + 16].copy_from_slice(&sum.to_le_bytes());
        }
        let seal = checksum64(&b[..BLOCK_SIZE - 8]);
        b[BLOCK_SIZE - 8..].copy_from_slice(&seal.to_le_bytes());
        b
    }

    /// Parses a descriptor; `None` when the magic or header checksum
    /// does not hold (unwritten region, torn write, stale bytes).
    pub fn decode(b: &[u8; BLOCK_SIZE]) -> Option<JournalDescriptor> {
        let magic = u32::from_le_bytes(le(b, 0));
        if magic != JOURNAL_MAGIC {
            return None;
        }
        let seal = u64::from_le_bytes(le(b, BLOCK_SIZE - 8));
        if seal != checksum64(&b[..BLOCK_SIZE - 8]) {
            return None;
        }
        let seq = u64::from_le_bytes(le(b, 4));
        let n = u32::from_le_bytes(le(b, 12)) as usize;
        if n > Self::MAX_ENTRIES {
            return None;
        }
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let off = 16 + i * 16;
            entries.push((u64::from_le_bytes(le(b, off)), u64::from_le_bytes(le(b, off + 8))));
        }
        Some(JournalDescriptor { seq, entries })
    }

    /// Whether the descriptor block looks like a journal record at all
    /// (magic present), regardless of checksum validity — used to tell
    /// "torn record" apart from "journal never written".
    pub fn has_magic(b: &[u8; BLOCK_SIZE]) -> bool {
        u32::from_le_bytes(le(b, 0)) == JOURNAL_MAGIC
    }

    /// The raw sequence field, readable even from a torn record (it
    /// sits inside the minimum torn prefix), for diagnostics.
    pub fn raw_seq(b: &[u8; BLOCK_SIZE]) -> u64 {
        u64::from_le_bytes(le(b, 4))
    }
}

/// Serializes a commit block: magic, sequence, the endorsed
/// descriptor's header checksum (so a stale commit block left deep in
/// the journal can never endorse a newer, uncommitted record), and a
/// seal over all of it. The commit's meaningful 28 bytes fit inside the
/// smallest torn prefix, so a commit write is effectively atomic —
/// exactly the property a commit point needs.
pub fn encode_commit(seq: u64, desc_seal: u64) -> [u8; BLOCK_SIZE] {
    let mut b = [0u8; BLOCK_SIZE];
    b[0..4].copy_from_slice(&COMMIT_MAGIC.to_le_bytes());
    b[4..12].copy_from_slice(&seq.to_le_bytes());
    b[12..20].copy_from_slice(&desc_seal.to_le_bytes());
    let seal = checksum64(&b[..20]);
    b[20..28].copy_from_slice(&seal.to_le_bytes());
    b
}

/// Whether `b` is a valid commit block for sequence `seq` endorsing the
/// descriptor whose header checksum is `desc_seal`.
pub fn decode_commit(b: &[u8; BLOCK_SIZE], seq: u64, desc_seal: u64) -> bool {
    let magic = u32::from_le_bytes(le(b, 0));
    let got_seq = u64::from_le_bytes(le(b, 4));
    let got_desc = u64::from_le_bytes(le(b, 12));
    let seal = u64::from_le_bytes(le(b, 20));
    magic == COMMIT_MAGIC && got_seq == seq && got_desc == desc_seal && seal == checksum64(&b[..20])
}

/// The header checksum a descriptor block seals itself with — what
/// [`encode_commit`] binds to. Computable from any encoded descriptor.
pub fn descriptor_seal(b: &[u8; BLOCK_SIZE]) -> u64 {
    u64::from_le_bytes(le(b, BLOCK_SIZE - 8))
}

/// A contiguous run of data blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskExtent {
    /// First block (absolute).
    pub start: u32,
    /// Number of blocks.
    pub len: u32,
}

/// An on-disk inode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Inode {
    /// Whether this slot is allocated.
    pub used: bool,
    /// File name (≤ [`MAX_NAME`] bytes).
    pub name: String,
    /// Logical size in bytes.
    pub size: u64,
    /// The file's extents.
    pub extents: Vec<DiskExtent>,
}

impl Inode {
    /// Total blocks backing this file.
    pub fn block_count(&self) -> u32 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Absolute disk block backing logical block `lbn`, if any.
    pub fn block_of(&self, lbn: u32) -> Option<u32> {
        let mut remaining = lbn;
        for e in &self.extents {
            if remaining < e.len {
                return Some(e.start + remaining);
            }
            remaining -= e.len;
        }
        None
    }

    /// Serializes into an [`INODE_SIZE`]-byte record.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0] = self.used as u8;
        let name = self.name.as_bytes();
        let n = name.len().min(MAX_NAME);
        b[1] = n as u8;
        b[2..2 + n].copy_from_slice(&name[..n]);
        b[72..80].copy_from_slice(&self.size.to_le_bytes());
        b[80] = self.extents.len().min(MAX_EXTENTS) as u8;
        for (i, e) in self.extents.iter().take(MAX_EXTENTS).enumerate() {
            let off = 88 + i * 8;
            b[off..off + 4].copy_from_slice(&e.start.to_le_bytes());
            b[off + 4..off + 8].copy_from_slice(&e.len.to_le_bytes());
        }
        b
    }

    /// Parses an inode record. `None` when the record is in use and its
    /// name is malformed: a length byte above [`MAX_NAME`], or bytes
    /// that are not UTF-8. A free record's name is not read.
    pub fn decode(b: &[u8; INODE_SIZE]) -> Option<Inode> {
        let used = b[0] != 0;
        let name = match used {
            true if b[1] as usize > MAX_NAME => return None,
            true => std::str::from_utf8(&b[2..2 + b[1] as usize]).ok()?.to_string(),
            false => String::new(),
        };
        let size = u64::from_le_bytes(le(b, 72));
        let count = (b[80] as usize).min(MAX_EXTENTS);
        let mut extents = Vec::with_capacity(count);
        for i in 0..count {
            let off = 88 + i * 8;
            extents.push(DiskExtent {
                start: u32::from_le_bytes(le(b, off)),
                len: u32::from_le_bytes(le(b, off + 4)),
            });
        }
        Some(Inode { used, name, size, extents })
    }
}

/// An in-memory view of the allocation bitmap.
#[derive(Debug, Clone)]
pub struct Bitmap {
    bits: Vec<u8>,
    blocks: u32,
}

impl Bitmap {
    /// An all-free bitmap covering `blocks` data blocks.
    pub fn new(blocks: u32) -> Bitmap {
        Bitmap { bits: vec![0; (blocks as usize).div_ceil(8)], blocks }
    }

    /// Rebuilds a bitmap from its on-disk bytes.
    pub fn from_bytes(bytes: Vec<u8>, blocks: u32) -> Bitmap {
        Bitmap { bits: bytes, blocks }
    }

    /// The raw bytes (for writing back to disk).
    pub fn bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Whether block `b` is allocated.
    pub fn is_set(&self, b: u32) -> bool {
        self.bits[b as usize / 8] & (1 << (b % 8)) != 0
    }

    /// Marks block `b` allocated.
    pub fn set(&mut self, b: u32) {
        self.bits[b as usize / 8] |= 1 << (b % 8);
    }

    /// Marks block `b` free.
    pub fn clear(&mut self, b: u32) {
        self.bits[b as usize / 8] &= !(1 << (b % 8));
    }

    /// First-fit search for `len` contiguous free blocks; returns the
    /// starting block, or `None` when no run is long enough.
    pub fn find_run(&self, len: u32) -> Option<u32> {
        let mut run_start = 0u32;
        let mut run_len = 0u32;
        for b in 0..self.blocks {
            if self.is_set(b) {
                run_len = 0;
                run_start = b + 1;
            } else {
                run_len += 1;
                if run_len == len {
                    return Some(run_start);
                }
            }
        }
        None
    }

    /// Number of free blocks.
    pub fn free_count(&self) -> u32 {
        (0..self.blocks).filter(|b| !self.is_set(*b)).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trip() {
        let sb = SuperBlock::for_volume(65_536, 64);
        let back = SuperBlock::decode(&sb.encode()).unwrap();
        assert_eq!(sb, back);
        assert!(sb.max_inodes() >= 64);
        assert!(sb.data_start > sb.inode_blocks);
    }

    #[test]
    fn superblock_reserves_a_journal_region() {
        let sb = SuperBlock::for_volume(65_536, 64);
        assert_eq!(sb.journal_start, 1 + sb.inode_blocks + sb.bitmap_blocks);
        assert_eq!(sb.data_start, sb.journal_start + sb.journal_blocks);
        assert!(sb.journal_blocks >= MIN_JOURNAL_BLOCKS);
        assert!(sb.journal_blocks <= MAX_JOURNAL_BLOCKS);
        assert_eq!(sb.journal_capacity(), sb.journal_blocks as usize - 2);
        // Tiny volumes still get the floor.
        assert_eq!(SuperBlock::for_volume(64, 16).journal_blocks, MIN_JOURNAL_BLOCKS);
    }

    #[test]
    fn journal_descriptor_round_trip() {
        let d = JournalDescriptor { seq: 42, entries: vec![(7, 0xDEAD), (9, 0xBEEF)] };
        let b = d.encode();
        assert!(JournalDescriptor::has_magic(&b));
        assert_eq!(JournalDescriptor::raw_seq(&b), 42);
        assert_eq!(JournalDescriptor::decode(&b).unwrap(), d);
    }

    #[test]
    fn torn_descriptor_fails_its_seal() {
        let d = JournalDescriptor { seq: 1, entries: vec![(100, checksum64(b"payload"))] };
        let mut b = d.encode();
        // A torn write persists a prefix over stale bytes: clobber the
        // tail (where the seal lives) with garbage.
        for byte in &mut b[2048..] {
            *byte = 0xAA;
        }
        assert!(JournalDescriptor::decode(&b).is_none());
        assert!(JournalDescriptor::has_magic(&b), "the prefix still looks journal-ish");
    }

    #[test]
    fn commit_block_binds_to_sequence_and_descriptor() {
        let d = JournalDescriptor { seq: 7, entries: vec![(3, 0x1234)] };
        let seal = descriptor_seal(&d.encode());
        let b = encode_commit(7, seal);
        assert!(decode_commit(&b, 7, seal));
        assert!(!decode_commit(&b, 8, seal), "a stale commit must not endorse a newer seq");
        assert!(
            !decode_commit(&b, 7, seal ^ 1),
            "a stale commit must not endorse a different descriptor"
        );
        assert!(!decode_commit(&[0u8; BLOCK_SIZE], 7, seal));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum64(b"vino"), checksum64(b"vino"));
        assert_ne!(checksum64(b"vino"), checksum64(b"vinO"));
        assert_ne!(checksum64(&[0u8; 4096]), 0, "all-zero block must not seal as zero");
    }

    /// A [`BLOCK_SIZE`] block of SplitMix64 bytes from `seed`.
    fn seeded_block(seed: u64) -> [u8; BLOCK_SIZE] {
        let mut rng = vino_sim::rng::SplitMix64::new(seed);
        let mut b = [0u8; BLOCK_SIZE];
        for word in b.as_chunks_mut::<8>().0 {
            *word = rng.next_u64().to_le_bytes();
        }
        b
    }

    #[test]
    fn lane_seeds_are_the_first_splitmix64_outputs() {
        let mut rng = vino_sim::rng::SplitMix64::new(0);
        assert_eq!(LANE_SEEDS.map(|_| rng.next_u64()), LANE_SEEDS);
    }

    #[test]
    fn checksum_pins_a_known_answer() {
        // Pins the on-disk journal format: a change here is a format
        // change, and needs a new `FS_MAGIC`.
        assert_eq!(checksum64(&seeded_block(0x5EED)), 0x9bf3_b944_6e4d_fa76);
    }

    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        for seed in [1, 2] {
            let block = seeded_block(seed);
            let want = checksum64(&block);
            for bit in 0..BLOCK_SIZE * 8 {
                let mut b = block;
                b[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&b), want, "seed {seed}, bit {bit}");
            }
        }
    }

    #[test]
    fn a_torn_block_changes_the_sum() {
        // New prefix over a stale suffix, torn at each sector boundary.
        let (new, stale) = (seeded_block(3), seeded_block(4));
        let want = checksum64(&new);
        for at in (0..BLOCK_SIZE).step_by(512) {
            let mut torn = stale;
            torn[..at].copy_from_slice(&new[..at]);
            assert_ne!(checksum64(&torn), want, "torn at {at}");
        }
    }

    #[test]
    fn short_inputs_hash_and_zero_runs_of_each_length_differ() {
        let bytes = seeded_block(5);
        let mut zero_sums = std::collections::HashSet::new();
        for len in 0..=96 {
            assert_eq!(checksum64(&bytes[..len]), checksum64(&bytes[..len]), "len {len}");
            assert!(zero_sums.insert(checksum64(&[0u8; 96][..len])), "zeros of len {len}");
        }
    }

    #[test]
    fn block_checksums_sum_each_block() {
        for n in 0..=5u64 {
            let blocks: Vec<[u8; BLOCK_SIZE]> = (0..n).map(|i| seeded_block(100 + i)).collect();
            let want: Vec<u64> = blocks.iter().map(|b| checksum64(b)).collect();
            assert_eq!(block_checksums(&blocks), want, "{n} blocks");
        }
    }

    #[test]
    fn superblock_bad_magic_rejected() {
        let mut b = SuperBlock::for_volume(1024, 16).encode();
        b[0] = 0;
        assert!(SuperBlock::decode(&b).is_none());
    }

    #[test]
    fn inode_round_trip() {
        let ino = Inode {
            used: true,
            name: "database.db".to_string(),
            size: 12 * 1024 * 1024,
            extents: vec![
                DiskExtent { start: 100, len: 2000 },
                DiskExtent { start: 5000, len: 1072 },
            ],
        };
        let back = Inode::decode(&ino.encode()).unwrap();
        assert_eq!(ino, back);
        assert_eq!(back.block_count(), 3072);
    }

    #[test]
    fn inode_block_mapping_across_extents() {
        let ino = Inode {
            used: true,
            name: "f".into(),
            size: 0,
            extents: vec![DiskExtent { start: 10, len: 3 }, DiskExtent { start: 100, len: 2 }],
        };
        assert_eq!(ino.block_of(0), Some(10));
        assert_eq!(ino.block_of(2), Some(12));
        assert_eq!(ino.block_of(3), Some(100));
        assert_eq!(ino.block_of(4), Some(101));
        assert_eq!(ino.block_of(5), None);
    }

    #[test]
    fn inode_name_truncated_to_max() {
        let long = "x".repeat(200);
        let ino = Inode { used: true, name: long, size: 0, extents: vec![] };
        let back = Inode::decode(&ino.encode()).unwrap();
        assert_eq!(back.name.len(), MAX_NAME);
    }

    #[test]
    fn bitmap_set_clear_find() {
        let mut bm = Bitmap::new(64);
        assert_eq!(bm.free_count(), 64);
        bm.set(0);
        bm.set(1);
        bm.set(5);
        assert_eq!(bm.find_run(3), Some(2), "first fit skips the 2-run at 2..4? no: 2,3,4 free");
        assert_eq!(bm.find_run(60), None);
        bm.clear(0);
        assert!(!bm.is_set(0));
        assert_eq!(bm.free_count(), 62);
    }

    #[test]
    fn bitmap_run_at_start_and_end() {
        let mut bm = Bitmap::new(16);
        assert_eq!(bm.find_run(16), Some(0));
        for b in 0..15 {
            bm.set(b);
        }
        assert_eq!(bm.find_run(1), Some(15));
        bm.set(15);
        assert_eq!(bm.find_run(1), None);
    }

    #[test]
    fn bitmap_bytes_round_trip() {
        let mut bm = Bitmap::new(32);
        bm.set(7);
        bm.set(31);
        let back = Bitmap::from_bytes(bm.bytes().to_vec(), 32);
        assert!(back.is_set(7));
        assert!(back.is_set(31));
        assert!(!back.is_set(8));
    }
}
