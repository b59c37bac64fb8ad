//! The simulated disk.
//!
//! A latency model of the paper's Fujitsu M2694ESA: seeks cost time
//! proportional to head travel (up to the 9 ms full-stroke average
//! anchor), rotation at 5400 RPM adds up to one revolution of delay, and
//! each 4 KB block transfers at the sustained media rate. Sequential
//! reads that hit the current head position skip the seek, which is what
//! makes read-ahead profitable (§4.1).
//!
//! Block contents are stored in memory; the disk is both a latency model
//! and a real (volatile) block store the file system is built on.

use std::rc::Rc;

use vino_sim::costs;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::Counter;
use vino_sim::obs::Obs;
use vino_sim::{Cycles, SplitMix64, VirtualClock};

/// A logical block address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr(pub u64);

/// Geometry and latency parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Total number of 4 KB blocks.
    pub blocks: u64,
    /// Blocks per track, for rotational-position modelling.
    pub blocks_per_track: u64,
    /// Full-stroke seek cost; average seek is roughly half of this.
    pub full_seek: Cycles,
    /// One full rotation (5400 RPM ⇒ ~11.1 ms).
    pub rotation: Cycles,
    /// Transfer time for one 4 KB block.
    pub transfer: Cycles,
}

impl Default for DiskGeometry {
    fn default() -> DiskGeometry {
        DiskGeometry {
            // 1080 MB formatted / 4 KB blocks ≈ 270k blocks; scaled down
            // to keep simulations snappy while preserving latencies.
            blocks: 65_536,
            blocks_per_track: 64,
            // Average seek 9 ms ⇒ full stroke ≈ 18 ms (avg ≈ 1/2 full
            // stroke under uniform random traffic, to first order).
            full_seek: Cycles(costs::DISK_AVG_SEEK.get() * 2),
            rotation: Cycles(costs::DISK_HALF_ROTATION.get() * 2),
            transfer: costs::DISK_TRANSFER_4K,
        }
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Reads that required a head seek.
    pub seeks: u64,
    /// Reads satisfied at the current head position (sequential).
    pub sequential_hits: u64,
    /// Injected transient media errors (each one costs a full retry).
    pub io_errors: u64,
    /// Injected head stalls (each one costs the plane's stall latency).
    pub stalls: u64,
    /// Injected torn writes: the block persisted only as a prefix of
    /// the data handed to the controller.
    pub torn_writes: u64,
    /// Total cycles spent in the mechanism.
    pub busy: Cycles,
}

/// The persistent face of a [`Disk`]: every block that survives a power
/// cut, plus the geometry they were written under. Snapshot one with
/// [`Disk::snapshot`] at the instant of a simulated crash and hand it to
/// [`Disk::from_image`] to boot a fresh kernel over the surviving bytes.
/// Volatile state — head position, stats, fault wiring — is *not* part
/// of the image, exactly as it would not survive real power loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskImage {
    geometry: DiskGeometry,
    blocks: Vec<Option<Box<[u8; 4096]>>>,
}

/// Why [`Disk::from_image`] refused an image: its block vector
/// disagrees with the geometry it claims to have been written under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskImageError {
    /// The image holds fewer block slots than its geometry declares.
    Truncated {
        /// Blocks the geometry declares.
        expected: u64,
        /// Block slots actually present.
        got: u64,
    },
    /// The image holds more block slots than its geometry declares.
    Oversized {
        /// Blocks the geometry declares.
        expected: u64,
        /// Block slots actually present.
        got: u64,
    },
}

impl std::fmt::Display for DiskImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskImageError::Truncated { expected, got } => {
                write!(f, "truncated disk image: geometry declares {expected} blocks, got {got}")
            }
            DiskImageError::Oversized { expected, got } => {
                write!(f, "oversized disk image: geometry declares {expected} blocks, got {got}")
            }
        }
    }
}

impl std::error::Error for DiskImageError {}

impl DiskImage {
    /// The geometry the image was written under.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    /// Harness hook: forges an image whose block vector disagrees with
    /// its geometry (added slots read as zeros), for exercising
    /// [`Disk::from_image`] validation. A well-formed image can only
    /// come from [`Disk::snapshot`]; this is how tests make a
    /// malformed one.
    pub fn with_forged_block_count(mut self, blocks: u64) -> DiskImage {
        self.blocks.resize_with(blocks as usize, || None);
        self
    }

    /// The surviving contents of block `addr` (zeros if never written),
    /// for post-crash forensics in tests.
    pub fn block(&self, addr: BlockAddr) -> [u8; 4096] {
        match self.blocks.get(addr.0 as usize) {
            Some(Some(b)) => **b,
            _ => [0; 4096],
        }
    }

    /// Addresses of blocks the drive has ever materialised, in address
    /// order. Everything else reads as zeros, so comparing two images
    /// only needs the union of their written sets — the replication
    /// plane's convergence checks walk this instead of the full
    /// geometry.
    pub fn written(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.blocks.iter().enumerate().filter_map(|(i, b)| b.as_ref().map(|_| BlockAddr(i as u64)))
    }
}

/// The simulated drive.
#[derive(Debug)]
pub struct Disk {
    geometry: DiskGeometry,
    blocks: Vec<Option<Box<[u8; 4096]>>>,
    head: u64,
    rng: SplitMix64,
    stats: DiskStats,
    obs: Obs,
}

impl Disk {
    /// Creates a disk with the default (paper-calibrated) geometry.
    pub fn new(clock: Rc<VirtualClock>) -> Disk {
        Disk::with_geometry(clock, DiskGeometry::default())
    }

    /// Creates a disk with explicit geometry.
    pub fn with_geometry(clock: Rc<VirtualClock>, geometry: DiskGeometry) -> Disk {
        Disk {
            blocks: (0..geometry.blocks).map(|_| None).collect(),
            geometry,
            obs: Obs::new(clock),
            head: 0,
            rng: SplitMix64::new(0x5EED_D15C),
            stats: DiskStats::default(),
        }
    }

    /// Reconstructs a drive over the persistent blocks of `image`, as a
    /// machine powering back up over the platters a crash left behind.
    /// Mechanical state starts fresh (head at 0, zeroed stats, the same
    /// fixed rotational-phase seed as [`Disk::new`]), so a same-seed
    /// remount replays byte-identically. An image whose block vector
    /// disagrees with its declared geometry is refused with a typed
    /// [`DiskImageError`] rather than booting a drive that would panic
    /// on its first out-of-range access.
    pub fn from_image(clock: Rc<VirtualClock>, image: DiskImage) -> Result<Disk, DiskImageError> {
        let expected = image.geometry.blocks;
        let got = image.blocks.len() as u64;
        if got < expected {
            return Err(DiskImageError::Truncated { expected, got });
        }
        if got > expected {
            return Err(DiskImageError::Oversized { expected, got });
        }
        let mut d = Disk::with_geometry(clock, image.geometry);
        d.blocks = image.blocks;
        Ok(d)
    }

    /// Captures the persistent face of the drive — what survives an
    /// immediate power cut. See [`DiskImage`].
    pub fn snapshot(&self) -> DiskImage {
        DiskImage { geometry: self.geometry, blocks: self.blocks.clone() }
    }

    /// Resets the drive's volatile mechanical state — head parked at 0,
    /// the rotational-phase stream reseeded with the fixed
    /// [`Disk::new`] seed — without touching the platters or stats.
    /// Checkpoints call this on both the capture and restore sides so a
    /// resumed replay sees the same mechanics as [`Disk::from_image`]
    /// gives a fresh remount.
    pub fn reset_mechanism(&mut self) {
        self.head = 0;
        self.rng = SplitMix64::new(0x5EED_D15C);
    }

    /// The drive's observation handle, shared with the file system
    /// mounted on it. [`FaultSite::DiskRead`] and [`FaultSite::DiskWrite`]
    /// model media errors the driver retries at full mechanical cost;
    /// [`FaultSite::DiskStall`] adds the plane's stall latency. Every
    /// operation in [`DiskStats`] also ticks its `vino_disk_*` counter.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The geometry in use.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    /// Operation counters.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Number of addressable blocks.
    pub fn block_count(&self) -> u64 {
        self.geometry.blocks
    }

    /// Reads block `addr`, charging the mechanical latency to the clock.
    /// Unwritten blocks read as zeros.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the device (file-system bug, not graft
    /// misbehaviour — grafts cannot address the disk directly).
    pub fn read(&mut self, addr: BlockAddr) -> [u8; 4096] {
        let (data, cost) = self.read_with_cost(addr);
        self.obs.clock().charge(cost);
        data
    }

    /// Reads block `addr` and returns its mechanical cost *without*
    /// charging the clock. Used by the asynchronous prefetch path, where
    /// the I/O overlaps computation: the file system accounts the cost
    /// on a separate disk-busy timeline instead of the caller's.
    pub fn read_with_cost(&mut self, addr: BlockAddr) -> ([u8; 4096], Cycles) {
        let mut cost = self.access_cost(addr);
        cost += self.fault_overhead(FaultSite::DiskRead, cost);
        self.stats.reads += 1;
        self.obs.inc(Counter::DiskReads);
        self.stats.busy += cost;
        let data = match &self.blocks[addr.0 as usize] {
            Some(b) => **b,
            None => [0; 4096],
        };
        (data, cost)
    }

    /// Writes block `addr`, charging mechanical latency. If an armed
    /// [`FaultSite::DiskTornWrite`] fires, only a prefix of the block
    /// reaches the platter (length drawn deterministically from the
    /// fault plane) — the caller is not told, which is the point.
    pub fn write(&mut self, addr: BlockAddr, data: &[u8; 4096]) {
        let mut cost = self.access_cost(addr);
        cost += self.fault_overhead(FaultSite::DiskWrite, cost);
        self.obs.clock().charge(cost);
        self.stats.writes += 1;
        self.obs.inc(Counter::DiskWrites);
        self.stats.busy += cost;
        let torn = match self.obs.fault() {
            Some(plane) if plane.fire(FaultSite::DiskTornWrite) => Some(plane.torn_prefix()),
            _ => None,
        };
        match torn {
            Some(prefix) => self.persist_prefix(addr, data, prefix),
            None => self.blocks[addr.0 as usize] = Some(Box::new(*data)),
        }
    }

    /// Writes block `addr` but persists only its first `prefix` bytes,
    /// leaving the rest of the block as it was — the torn state an
    /// in-flight write leaves when power dies mid-transfer. Used by the
    /// crash-injection path; normal clients never call this.
    pub fn write_torn(&mut self, addr: BlockAddr, data: &[u8; 4096], prefix: usize) {
        let cost = self.access_cost(addr);
        self.obs.clock().charge(cost);
        self.stats.writes += 1;
        self.obs.inc(Counter::DiskWrites);
        self.stats.busy += cost;
        self.persist_prefix(addr, data, prefix);
    }

    fn persist_prefix(&mut self, addr: BlockAddr, data: &[u8; 4096], prefix: usize) {
        let prefix = prefix.min(4096);
        let mut block = match &self.blocks[addr.0 as usize] {
            Some(b) => **b,
            None => [0; 4096],
        };
        block[..prefix].copy_from_slice(&data[..prefix]);
        self.stats.torn_writes += 1;
        self.obs.inc(Counter::DiskTornWrites);
        self.blocks[addr.0 as usize] = Some(Box::new(block));
    }

    /// The latency the next access to `addr` would incur, without
    /// performing it (used by the prefetch scheduler).
    pub fn peek_cost(&mut self, addr: BlockAddr) -> Cycles {
        let head = self.head;
        self.cost_from(head, addr)
    }

    /// Extra latency injected faults add to an access whose clean
    /// mechanical cost is `base`. Media errors cost one full retry;
    /// stalls cost the plane's configured stall latency.
    fn fault_overhead(&mut self, site: FaultSite, base: Cycles) -> Cycles {
        let Some(plane) = self.obs.fault() else {
            return Cycles(0);
        };
        let mut extra = Cycles(0);
        if plane.fire(site) {
            self.stats.io_errors += 1;
            extra += base;
            self.obs.inc(Counter::DiskIoErrors);
        }
        if plane.fire(FaultSite::DiskStall) {
            self.stats.stalls += 1;
            extra += plane.stall();
            self.obs.inc(Counter::DiskStalls);
        }
        extra
    }

    fn access_cost(&mut self, addr: BlockAddr) -> Cycles {
        assert!(addr.0 < self.geometry.blocks, "block {addr:?} beyond device");
        let cost = self.cost_from(self.head, addr);
        if addr.0 == self.head {
            self.stats.sequential_hits += 1;
        } else {
            self.stats.seeks += 1;
            self.obs.inc(Counter::DiskSeeks);
        }
        self.head = addr.0 + 1; // Head ends just past the block read.
        cost
    }

    fn cost_from(&mut self, head: u64, addr: BlockAddr) -> Cycles {
        let g = self.geometry;
        if addr.0 == head {
            // Sequential: media transfer only.
            return g.transfer;
        }
        let track_of = |b: u64| b / g.blocks_per_track;
        let distance = track_of(addr.0).abs_diff(track_of(head));
        let max_tracks = (g.blocks / g.blocks_per_track).max(1);
        // Seek: settle cost plus travel proportional to distance.
        let settle = g.full_seek.get() / 8;
        let travel = g.full_seek.get() * distance / max_tracks;
        // Rotational delay: uniformly distributed in [0, rotation).
        let rot = self.rng.below(g.rotation.get().max(1));
        Cycles(settle + travel + rot + g.transfer.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(VirtualClock::new())
    }

    #[test]
    fn read_write_round_trip() {
        let mut d = disk();
        let mut data = [0u8; 4096];
        data[..4].copy_from_slice(b"VINO");
        d.write(BlockAddr(100), &data);
        let back = d.read(BlockAddr(100));
        assert_eq!(&back[..4], b"VINO");
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let mut d = disk();
        assert_eq!(d.read(BlockAddr(5)), [0u8; 4096]);
    }

    #[test]
    fn sequential_reads_skip_seek() {
        let mut d = disk();
        d.read(BlockAddr(10)); // Position the head.
        let clock = Rc::clone(d.obs().clock());
        let t0 = clock.now();
        d.read(BlockAddr(11));
        let seq_cost = clock.since(t0);
        assert_eq!(seq_cost, d.geometry().transfer, "sequential read is transfer-only");
        assert!(d.stats().sequential_hits >= 1);
    }

    #[test]
    fn random_reads_cost_milliseconds() {
        // The premise of the read-ahead analysis: a random 4KB read
        // costs on the order of 10-20ms (the paper's 18ms page fault).
        let mut d = disk();
        let clock = Rc::clone(d.obs().clock());
        let mut rng = SplitMix64::new(7);
        let n = 200;
        let t0 = clock.now();
        for _ in 0..n {
            d.read(BlockAddr(rng.below(d.block_count())));
        }
        let avg_ms = clock.since(t0).as_ms() / n as f64;
        assert!(
            (5.0..=30.0).contains(&avg_ms),
            "average random-read latency {avg_ms:.1}ms out of calibration"
        );
    }

    #[test]
    fn random_costs_dwarf_sequential() {
        let mut d = disk();
        let clock = Rc::clone(d.obs().clock());
        d.read(BlockAddr(0));
        let t0 = clock.now();
        for i in 1..=50 {
            d.read(BlockAddr(i));
        }
        let seq = clock.since(t0);
        let t1 = clock.now();
        let mut rng = SplitMix64::new(9);
        for _ in 0..50 {
            d.read(BlockAddr(rng.below(d.block_count())));
        }
        let rand = clock.since(t1);
        // Sequential is transfer-bound (~1.6 ms/block at the 1996 media
        // rate); random adds seek + rotation (~10 ms) on top.
        assert!(rand.get() > seq.get() * 5, "random ({rand}) must dwarf sequential ({seq})");
    }

    #[test]
    fn stats_count_operations() {
        let mut d = disk();
        d.write(BlockAddr(1), &[0; 4096]);
        d.read(BlockAddr(1));
        d.read(BlockAddr(2));
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert!(s.busy.get() > 0);
    }

    #[test]
    #[should_panic(expected = "beyond device")]
    fn out_of_range_block_panics() {
        let mut d = disk();
        let past_end = d.block_count();
        d.read(BlockAddr(past_end));
    }

    #[test]
    fn injected_read_error_doubles_cost_and_counts() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let mut d = disk();
        let clock = Rc::clone(d.obs().clock());
        d.read(BlockAddr(10)); // Position the head for sequential reads.
        let plane = FaultPlane::seeded(1);
        plane.arm(FaultSite::DiskRead, 1);
        d.obs().attach_fault(plane).unwrap();
        let t0 = clock.now();
        d.read(BlockAddr(11)); // Faulted: transfer + one retry.
        let faulted = clock.since(t0);
        let t1 = clock.now();
        d.read(BlockAddr(12)); // Clean sequential read.
        let clean = clock.since(t1);
        assert_eq!(faulted.get(), clean.get() * 2, "retry pays the access again");
        assert_eq!(d.stats().io_errors, 1);
        assert_eq!(&d.read(BlockAddr(11))[..4], &[0; 4], "data still served");
    }

    #[test]
    fn injected_stall_adds_configured_latency() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let mut d = disk();
        d.write(BlockAddr(5), &[1; 4096]);
        let plane = FaultPlane::seeded(2);
        plane.set_stall(Cycles::from_ms(7));
        plane.arm(FaultSite::DiskStall, 1);
        d.obs().attach_fault(Rc::clone(&plane)).unwrap();
        d.read(BlockAddr(5)); // Seek back — stall fires on top.
        assert_eq!(d.stats().stalls, 1);
        assert!(d.stats().busy >= Cycles::from_ms(7), "stall latency accounted");
    }

    #[test]
    fn from_image_round_trips_a_well_formed_snapshot() {
        let mut d = disk();
        d.write(BlockAddr(7), &[0xAB; 4096]);
        let image = d.snapshot();
        let mut d2 = Disk::from_image(VirtualClock::new(), image).unwrap();
        assert_eq!(d2.read(BlockAddr(7)), [0xAB; 4096]);
    }

    #[test]
    fn from_image_refuses_truncated_and_oversized_images() {
        let d = disk();
        let blocks = d.block_count();
        let short = d.snapshot().with_forged_block_count(blocks - 1);
        assert_eq!(
            Disk::from_image(VirtualClock::new(), short).unwrap_err(),
            DiskImageError::Truncated { expected: blocks, got: blocks - 1 }
        );
        let long = d.snapshot().with_forged_block_count(blocks + 8);
        assert_eq!(
            Disk::from_image(VirtualClock::new(), long).unwrap_err(),
            DiskImageError::Oversized { expected: blocks, got: blocks + 8 }
        );
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let run = |seed: u64| {
            let mut d = disk();
            let plane = FaultPlane::seeded(seed);
            plane.set_rate(FaultSite::DiskWrite, 1, 3);
            d.obs().attach_fault(plane).unwrap();
            for i in 0..200 {
                d.write(BlockAddr(i), &[0; 4096]);
            }
            d.stats().io_errors
        };
        assert_eq!(run(42), run(42), "same seed, same error schedule");
        assert!(run(42) > 30, "1-in-3 rate must actually inject");
    }
}
