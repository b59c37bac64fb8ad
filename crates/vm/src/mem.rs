//! The graft address space and SFI memory model.
//!
//! §2 of the paper: "Each graft receives its own heap and stack" and SFI
//! "is used instead of the traditional VM mechanisms to prevent illegal
//! data accesses". We model the machine's physical address space as two
//! regions:
//!
//! - the **graft segment**: a power-of-two sized, alignment-matched
//!   region holding the graft's heap, stack and any buffers the kernel
//!   shares with it (e.g. the read-ahead pattern buffer of §4.1.2);
//! - the **kernel region**: memory owned by the kernel. An *unprotected*
//!   graft that computes a wild address can read and write this region —
//!   exactly the disaster the paper is about. MiSFIT's `Clamp` pseudo-op
//!   makes that impossible by construction: after clamping, an address
//!   always falls inside the graft segment.
//!
//! Addresses that hit neither region model an unmapped page and raise a
//! fault regardless of protection.

use std::fmt;

/// Whether the executing graft was processed by MiSFIT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Code went through the SFI pass; wild kernel-region accesses can
    /// still be *attempted* by a buggy rewriter, so they fault loudly.
    Sfi,
    /// Raw, un-instrumented code (the paper's "unsafe path"): kernel
    /// region accesses silently succeed, corrupting kernel state.
    Unprotected,
}

/// Memory access errors (surfaced as [`crate::interp::Trap`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Address not mapped by the graft segment or the kernel region.
    Unmapped { addr: u64 },
    /// An SFI-protected graft touched the kernel region (only possible
    /// if instrumentation was bypassed, which the loader prevents).
    KernelRegion { addr: u64 },
    /// Access crossed the end of a region.
    Straddle { addr: u64 },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "unmapped address {addr:#x}"),
            MemError::KernelRegion { addr } => {
                write!(f, "SFI violation: kernel region access at {addr:#x}")
            }
            MemError::Straddle { addr } => write!(f, "access straddles region end at {addr:#x}"),
        }
    }
}

/// The two-region physical address space a graft executes in.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    seg_base: u64,
    seg_mask: u64,
    graft: Vec<u8>,
    kernel_base: u64,
    kernel: Vec<u8>,
    protection: Protection,
    /// Number of kernel-region writes an unprotected graft performed —
    /// the "corruption meter" integration tests assert on.
    kernel_writes: u64,
}

/// Guard-zone bytes appended to the graft segment. Wahbe et al.'s SFI
/// design places unmapped-in-spirit guard zones around each segment so a
/// clamped *base* address plus a small constant offset (here, the width
/// of the widest access) cannot escape into another region. Guard bytes
/// are graft-owned scratch: spilling into them is harmless.
pub const GUARD_BYTES: usize = 8;

/// Default base address of the graft segment.
pub const DEFAULT_SEG_BASE: u64 = 0x0010_0000;
/// Default base address of the kernel region.
pub const DEFAULT_KERNEL_BASE: u64 = 0xC000_0000;

impl AddressSpace {
    /// Creates an address space with a graft segment of `seg_size` bytes
    /// (rounded up to a power of two, minimum 256) based at
    /// [`DEFAULT_SEG_BASE`] and a kernel region of `kernel_size` bytes.
    pub fn new(seg_size: usize, kernel_size: usize, protection: Protection) -> AddressSpace {
        let size = seg_size.next_power_of_two().max(256);
        let base = DEFAULT_SEG_BASE.next_multiple_of(size as u64);
        AddressSpace {
            seg_base: base,
            seg_mask: size as u64 - 1,
            graft: vec![0; size + GUARD_BYTES],
            kernel_base: DEFAULT_KERNEL_BASE,
            kernel: vec![0; kernel_size],
            protection,
            kernel_writes: 0,
        }
    }

    /// Base address of the graft segment.
    pub fn seg_base(&self) -> u64 {
        self.seg_base
    }

    /// Size of the graft segment in bytes (a power of two), excluding
    /// the trailing [`GUARD_BYTES`] guard zone.
    pub fn seg_size(&self) -> u64 {
        self.seg_mask + 1
    }

    /// Base address of the simulated kernel region.
    pub fn kernel_base(&self) -> u64 {
        self.kernel_base
    }

    /// The protection mode this space enforces.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// The MiSFIT sandbox operation: forces `addr` into the graft
    /// segment by masking (`(addr & mask) | base`). Matches the
    /// two-instruction and/or sequence MiSFIT emits on x86.
    pub fn clamp(&self, addr: u64) -> u64 {
        (addr & self.seg_mask) | self.seg_base
    }

    /// True if `addr` lies inside the graft segment.
    pub fn in_segment(&self, addr: u64) -> bool {
        addr >= self.seg_base && addr < self.seg_base + self.seg_size()
    }

    /// Number of kernel-region bytes writable by unprotected grafts.
    pub fn kernel_len(&self) -> usize {
        self.kernel.len()
    }

    /// How many kernel-region writes have occurred (corruption meter).
    pub fn kernel_write_count(&self) -> u64 {
        self.kernel_writes
    }

    /// Reads `len ∈ {1,4}` bytes at `addr` as a zero-extended
    /// little-endian value. The region is classified once and a word is
    /// read whole.
    #[inline(always)]
    pub fn read(&self, addr: u64, len: u32) -> Result<u64, MemError> {
        let (region, off) = self.locate(addr, len)?;
        let buf = match region {
            Region::Graft => &self.graft,
            Region::Kernel => &self.kernel,
        };
        Ok(match len {
            4 => u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]).into(),
            1 => buf[off].into(),
            n => {
                let mut w = [0u8; 8];
                w[..n as usize].copy_from_slice(&buf[off..off + n as usize]);
                u64::from_le_bytes(w)
            }
        })
    }

    /// Writes the low `len ∈ {1,4}` bytes of `val` at `addr`, little
    /// endian, classifying the region once.
    #[inline(always)]
    pub fn write(&mut self, addr: u64, val: u64, len: u32) -> Result<(), MemError> {
        let (region, off) = self.locate(addr, len)?;
        let buf = match region {
            Region::Graft => &mut self.graft,
            Region::Kernel => {
                self.kernel_writes += 1;
                &mut self.kernel
            }
        };
        buf[off..off + len as usize].copy_from_slice(&val.to_le_bytes()[..len as usize]);
        Ok(())
    }

    /// Host-side access to graft-segment memory (no SFI semantics; used
    /// by kernel functions that exchange buffers with the graft, e.g.
    /// the shared read-ahead pattern buffer of §4.1.2).
    pub fn graft_bytes(&self, offset: usize, len: usize) -> Option<&[u8]> {
        self.graft.get(offset..offset + len)
    }

    /// Mutable host-side access to graft-segment memory.
    pub fn graft_bytes_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        self.graft.get_mut(offset..offset + len)
    }

    /// Reads a little-endian u32 from the graft segment by offset.
    pub fn graft_read_u32(&self, offset: usize) -> Option<u32> {
        self.graft_bytes(offset, 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Writes a little-endian u32 into the graft segment by offset.
    pub fn graft_write_u32(&mut self, offset: usize, v: u32) -> Option<()> {
        self.graft_bytes_mut(offset, 4).map(|b| b.copy_from_slice(&v.to_le_bytes()))
    }

    /// Host-side read of kernel-region memory (for corruption checks).
    pub fn kernel_bytes(&self, offset: usize, len: usize) -> Option<&[u8]> {
        self.kernel.get(offset..offset + len)
    }

    /// Host-side write of kernel-region memory (to set up sentinels).
    pub fn kernel_bytes_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        self.kernel.get_mut(offset..offset + len)
    }

    /// Classifies a `len`-byte access at `addr`: its region and the
    /// offset into that region's bytes, or the fault it raises. The
    /// guard zone counts as graft memory for access purposes, though
    /// clamp never produces an address inside it.
    #[inline(always)]
    fn locate(&self, addr: u64, len: u32) -> Result<(Region, usize), MemError> {
        let (region, bytes, off) = if addr.wrapping_sub(self.seg_base) < self.graft.len() as u64 {
            (Region::Graft, &self.graft, addr - self.seg_base)
        } else if addr.wrapping_sub(self.kernel_base) < self.kernel.len() as u64 {
            if self.protection == Protection::Sfi {
                // Instrumented code cannot reach here (Clamp precedes
                // every access); if it does, the rewriter was bypassed
                // and we fault loudly instead of corrupting.
                return Err(MemError::KernelRegion { addr });
            }
            (Region::Kernel, &self.kernel, addr - self.kernel_base)
        } else {
            return Err(MemError::Unmapped { addr });
        };
        let off = off as usize;
        if off + len as usize > bytes.len() {
            return Err(MemError::Straddle { addr });
        }
        Ok((region, off))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Graft,
    Kernel,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(prot: Protection) -> AddressSpace {
        AddressSpace::new(4096, 4096, prot)
    }

    #[test]
    fn segment_is_power_of_two_and_aligned() {
        let m = AddressSpace::new(5000, 0, Protection::Sfi);
        assert_eq!(m.seg_size(), 8192);
        assert_eq!(m.seg_base() % m.seg_size(), 0);
    }

    #[test]
    fn clamp_always_lands_in_segment() {
        let m = space(Protection::Sfi);
        for addr in [0u64, 1, 0xdead_beef, u64::MAX, m.kernel_base() + 10] {
            let c = m.clamp(addr);
            assert!(m.in_segment(c), "clamp({addr:#x}) = {c:#x} escaped the segment");
        }
    }

    #[test]
    fn clamp_is_identity_inside_segment() {
        let m = space(Protection::Sfi);
        for off in [0u64, 4, 100, m.seg_size() - 1] {
            let addr = m.seg_base() + off;
            assert_eq!(m.clamp(addr), addr);
        }
    }

    #[test]
    fn read_write_word_round_trip() {
        let mut m = space(Protection::Sfi);
        let a = m.seg_base() + 16;
        m.write(a, 0xAABB_CCDD, 4).unwrap();
        assert_eq!(m.read(a, 4).unwrap(), 0xAABB_CCDD);
        // Little-endian byte view.
        assert_eq!(m.read(a, 1).unwrap(), 0xDD);
    }

    #[test]
    fn sfi_mode_faults_on_kernel_region() {
        let mut m = space(Protection::Sfi);
        let k = m.kernel_base();
        assert_eq!(m.write(k, 1, 4), Err(MemError::KernelRegion { addr: k }));
        assert_eq!(m.read(k, 4), Err(MemError::KernelRegion { addr: k }));
        assert_eq!(m.kernel_write_count(), 0);
    }

    #[test]
    fn unprotected_mode_corrupts_kernel_region() {
        let mut m = space(Protection::Unprotected);
        let k = m.kernel_base();
        m.write(k + 8, 0x41414141, 4).unwrap();
        assert_eq!(m.read(k + 8, 4).unwrap(), 0x41414141);
        assert_eq!(m.kernel_write_count(), 1);
        assert_eq!(m.kernel_bytes(8, 4).unwrap(), &0x41414141u32.to_le_bytes());
    }

    #[test]
    fn unmapped_addresses_fault() {
        let mut m = space(Protection::Unprotected);
        assert!(matches!(m.read(0, 4), Err(MemError::Unmapped { .. })));
        assert!(matches!(m.write(u64::MAX - 3, 0, 4), Err(MemError::Unmapped { .. })));
    }

    #[test]
    fn straddling_access_faults() {
        let mut m = space(Protection::Sfi);
        // A word access near the segment end spills into the guard zone:
        // allowed (this is the point of the guard zone).
        let near_end = m.seg_base() + m.seg_size() - 2;
        assert!(m.write(near_end, 0, 4).is_ok());
        // Past the guard zone the access straddles and faults.
        let past_guard = m.seg_base() + m.seg_size() + GUARD_BYTES as u64 - 2;
        assert!(matches!(m.write(past_guard, 0, 4), Err(MemError::Straddle { .. })));
        // A one-byte access at the same spot is fine.
        assert!(m.write(past_guard, 0, 1).is_ok());
    }

    /// The byte-serial reference: classifies `addr` by region bounds,
    /// then walks the access one byte at a time.
    fn oracle_slice(m: &mut AddressSpace, addr: u64, len: u32) -> Result<&mut [u8], MemError> {
        let (start, bytes) = if addr >= m.seg_base && addr < m.seg_base + m.graft.len() as u64 {
            (m.seg_base, &mut m.graft)
        } else if addr >= m.kernel_base && addr < m.kernel_base + m.kernel.len() as u64 {
            if m.protection == Protection::Sfi {
                return Err(MemError::KernelRegion { addr });
            }
            (m.kernel_base, &mut m.kernel)
        } else {
            return Err(MemError::Unmapped { addr });
        };
        let off = (addr - start) as usize;
        bytes.get_mut(off..off + len as usize).ok_or(MemError::Straddle { addr })
    }

    fn oracle_read(m: &mut AddressSpace, addr: u64, len: u32) -> Result<u64, MemError> {
        let bytes = oracle_slice(m, addr, len)?;
        Ok(bytes.iter().enumerate().fold(0, |v, (i, &b)| v | (b as u64) << (8 * i)))
    }

    fn oracle_write(m: &mut AddressSpace, addr: u64, val: u64, len: u32) -> Result<(), MemError> {
        let kernel = addr >= m.kernel_base && addr < m.kernel_base + m.kernel.len() as u64;
        for (i, b) in oracle_slice(m, addr, len)?.iter_mut().enumerate() {
            *b = (val >> (8 * i)) as u8;
        }
        m.kernel_writes += u64::from(kernel);
        Ok(())
    }

    #[test]
    fn word_access_matches_the_byte_serial_oracle() {
        use vino_sim::SplitMix64;
        for prot in [Protection::Sfi, Protection::Unprotected] {
            let mut rng = SplitMix64::new(0x3E3 ^ prot as u64);
            let mut fast = AddressSpace::new(256, 64, prot);
            let mut slow = fast.clone();
            let seg_end = fast.seg_base() + fast.seg_size();
            let kernel_end = fast.kernel_base() + fast.kernel_len() as u64;
            // Edges: both region starts, the segment end, the guard-zone
            // end, the kernel end, address zero and the wrap at u64::MAX.
            let edges = [
                fast.seg_base(),
                seg_end,
                seg_end + GUARD_BYTES as u64,
                fast.kernel_base(),
                kernel_end,
                0,
                u64::MAX,
            ];
            for _ in 0..20_000 {
                let edge = edges[rng.below(edges.len() as u64) as usize];
                let addr = edge.wrapping_add(rng.below(16)).wrapping_sub(8);
                let len = if rng.chance(1, 2) { 4 } else { 1 };
                if rng.chance(1, 2) {
                    let val = rng.next_u64();
                    let got = fast.write(addr, val, len);
                    assert_eq!(
                        got,
                        oracle_write(&mut slow, addr, val, len),
                        "write {addr:#x}/{len}"
                    );
                } else {
                    let got = fast.read(addr, len);
                    assert_eq!(got, oracle_read(&mut slow, addr, len), "read {addr:#x}/{len}");
                }
            }
            assert_eq!((&fast.graft, &fast.kernel), (&slow.graft, &slow.kernel), "{prot:?}");
            assert_eq!(fast.kernel_writes, slow.kernel_writes, "{prot:?}");
            if prot == Protection::Unprotected {
                assert!(fast.kernel_writes > 0, "the kernel region was exercised");
            }
        }
    }

    #[test]
    fn host_side_graft_buffer_access() {
        let mut m = space(Protection::Sfi);
        m.graft_write_u32(64, 7).unwrap();
        assert_eq!(m.graft_read_u32(64), Some(7));
        // VM-side sees the same bytes.
        assert_eq!(m.read(m.seg_base() + 64, 4).unwrap(), 7);
        assert!(m.graft_read_u32(m.seg_size() as usize + GUARD_BYTES).is_none());
    }
}
