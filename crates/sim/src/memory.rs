//! Flat little-endian memory with bounds checking and optional guard
//! regions.
//!
//! The simulated machine sees one contiguous byte-addressable memory starting
//! at address 0. The scan-vector library's environment bump-allocates buffers
//! out of it; tests can arm *guard regions* around buffers so that an
//! under/overrun traps deterministically instead of silently corrupting a
//! neighbouring buffer.

use crate::error::{SimError, SimResult};
use std::ops::Range;

/// Dirty-page granularity for snapshots: 4 KiB, so a snapshot copies
/// O(pages written) bytes, not O(memory size).
pub const PAGE_BYTES: u64 = 4096;

/// A copy of every page written since the memory was created (or since
/// the last [`Memory::restore`]), plus the guard regions. Because fresh
/// memory is all-zero, the dirty pages fully determine the contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Memory size in bytes (restore requires an identical size).
    pub size: u64,
    /// Guard regions armed at snapshot time (disarmed slots included, so
    /// guard handles stay valid across restore).
    pub guards: Vec<Range<u64>>,
    /// `(page index, page bytes)` for every dirty page, ascending. The
    /// final page of a non-page-multiple memory may be short.
    pub pages: Vec<(u64, Box<[u8]>)>,
}

/// Byte-addressable little-endian memory.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    guards: Vec<Range<u64>>,
    /// One bit per [`PAGE_BYTES`] page, set on any write (simulated or
    /// host-side). Never cleared except by [`Memory::restore`], whose
    /// correctness depends on "not dirty ⇒ still zero".
    dirty: Vec<u64>,
}

impl Memory {
    /// Create a zeroed memory of `size` bytes.
    pub fn new(size: usize) -> Memory {
        let pages = (size as u64).div_ceil(PAGE_BYTES) as usize;
        Memory {
            bytes: vec![0; size],
            guards: Vec::new(),
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Mark every page intersecting `[addr, addr+len)` dirty. Callers
    /// pass already-bounds-checked ranges.
    #[inline]
    fn mark_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_BYTES;
        let last = (addr + len - 1) / PAGE_BYTES;
        for p in first..=last {
            self.dirty[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    fn dirty_page_indices(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as u64;
                out.push(w as u64 * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Number of pages written so far — snapshots copy exactly this many
    /// pages.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Capture the written pages and guard regions. Cost is
    /// O(dirty pages), independent of total memory size.
    pub fn snapshot(&self) -> MemSnapshot {
        let pages = self
            .dirty_page_indices()
            .into_iter()
            .map(|p| {
                let start = (p * PAGE_BYTES) as usize;
                let end = ((p + 1) * PAGE_BYTES).min(self.size()) as usize;
                (p, self.bytes[start..end].to_vec().into_boxed_slice())
            })
            .collect();
        MemSnapshot {
            size: self.size(),
            guards: self.guards.clone(),
            pages,
        }
    }

    /// Restore memory to exactly the snapshotted contents: pages dirty
    /// now but clean at snapshot time are re-zeroed, snapshotted pages
    /// are copied back, and the dirty set becomes the snapshot's.
    ///
    /// # Panics
    /// If the snapshot was taken from a memory of a different size.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        assert_eq!(
            snap.size,
            self.size(),
            "snapshot is from a {}-byte memory, this one is {} bytes",
            snap.size,
            self.size()
        );
        for p in self.dirty_page_indices() {
            let start = (p * PAGE_BYTES) as usize;
            let end = ((p + 1) * PAGE_BYTES).min(self.size()) as usize;
            self.bytes[start..end].fill(0);
        }
        self.dirty.fill(0);
        for (p, data) in &snap.pages {
            let start = (*p * PAGE_BYTES) as usize;
            self.bytes[start..start + data.len()].copy_from_slice(data);
            self.dirty[(*p / 64) as usize] |= 1u64 << (*p % 64);
        }
        self.guards = snap.guards.clone();
    }

    /// Memory size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Arm a guard region: any load or store intersecting `range` traps with
    /// [`SimError::GuardHit`]. Returns a handle for [`Memory::remove_guard`].
    pub fn add_guard(&mut self, range: Range<u64>) -> usize {
        self.guards.push(range);
        self.guards.len() - 1
    }

    /// Disarm a guard region previously armed with [`Memory::add_guard`].
    /// Guards are disarmed by replacing with an empty range so handles stay
    /// stable.
    pub fn remove_guard(&mut self, handle: usize) {
        if let Some(g) = self.guards.get_mut(handle) {
            *g = 0..0;
        }
    }

    /// Remove every guard region.
    pub fn clear_guards(&mut self) {
        self.guards.clear();
    }

    /// Bounds check only — `addr + len` computed with `checked_add` so wild
    /// pointers near `u64::MAX` trap instead of wrapping around into
    /// low memory.
    #[inline]
    fn check_bounds(&self, addr: u64, len: u64) -> SimResult<u64> {
        let end = addr.checked_add(len).ok_or(SimError::MemOutOfBounds {
            addr,
            len,
            size: self.size(),
        })?;
        if end > self.size() {
            return Err(SimError::MemOutOfBounds {
                addr,
                len,
                size: self.size(),
            });
        }
        Ok(end)
    }

    #[inline]
    fn check(&self, addr: u64, len: u64) -> SimResult<()> {
        let end = self.check_bounds(addr, len)?;
        if !self.guards.is_empty() {
            for g in &self.guards {
                if addr < g.end && end > g.start {
                    return Err(SimError::GuardHit { addr });
                }
            }
        }
        Ok(())
    }

    /// Load `len ∈ {1,2,4,8}` bytes little-endian, zero-extended to `u64`.
    #[inline]
    pub fn load(&self, addr: u64, len: u64) -> SimResult<u64> {
        debug_assert!(len <= 8, "load of {len} bytes does not fit a u64");
        self.check(addr, len)?;
        let a = addr as usize;
        let mut v = 0u64;
        for (i, b) in self.bytes[a..a + len as usize].iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Store the low `len ∈ {1,2,4,8}` bytes of `value` little-endian.
    #[inline]
    pub fn store(&mut self, addr: u64, len: u64, value: u64) -> SimResult<()> {
        debug_assert!(len <= 8, "store of {len} bytes does not fit a u64");
        self.check(addr, len)?;
        self.mark_dirty(addr, len);
        let a = addr as usize;
        for i in 0..len as usize {
            self.bytes[a + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Read a byte slice (bounds- and guard-checked).
    pub fn read_bytes(&self, addr: u64, len: u64) -> SimResult<&[u8]> {
        self.check(addr, len)?;
        Ok(&self.bytes[addr as usize..(addr + len) as usize])
    }

    /// Write a byte slice (bounds- and guard-checked).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> SimResult<()> {
        self.check(addr, data.len() as u64)?;
        self.mark_dirty(addr, data.len() as u64);
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Write the `elem`-byte chunks of `data` whose index passes `keep` to
    /// `addr + i·elem`, after one bounds-and-guard check of the whole
    /// `[addr, addr + data.len())`. Only the pages under written chunks are
    /// marked dirty — exactly what one [`Memory::store`] per kept chunk
    /// would mark — so a masked store leaves snapshots unchanged.
    pub(crate) fn write_chunks(
        &mut self,
        addr: u64,
        data: &[u8],
        elem: usize,
        mut keep: impl FnMut(usize) -> bool,
    ) -> SimResult<()> {
        self.check(addr, data.len() as u64)?;
        for (i, c) in data.chunks_exact(elem).enumerate() {
            if keep(i) {
                let at = addr as usize + i * elem;
                self.mark_dirty(at as u64, elem as u64);
                self.bytes[at..at + elem].copy_from_slice(c);
            }
        }
        Ok(())
    }

    /// Host-side load: bounds-checked but **guard-exempt**. Guard regions
    /// model device-side buffer overruns; the host runtime staging inputs
    /// and reading back results is not simulated execution and must be able
    /// to inspect memory even while guards are armed (a chaos run that arms
    /// a guard over a result buffer must not turn read-back into a trap).
    #[inline]
    pub fn peek(&self, addr: u64, len: u64) -> SimResult<u64> {
        debug_assert!(len <= 8, "peek of {len} bytes does not fit a u64");
        self.check_bounds(addr, len)?;
        let a = addr as usize;
        let mut v = 0u64;
        for (i, b) in self.bytes[a..a + len as usize].iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Host-side store: bounds-checked but guard-exempt (see
    /// [`Memory::peek`]).
    #[inline]
    pub fn poke(&mut self, addr: u64, len: u64, value: u64) -> SimResult<()> {
        debug_assert!(len <= 8, "poke of {len} bytes does not fit a u64");
        self.check_bounds(addr, len)?;
        self.mark_dirty(addr, len);
        let a = addr as usize;
        for i in 0..len as usize {
            self.bytes[a + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Host-side fill: bounds-checked, guard-exempt. The environment's
    /// allocator zeroes fresh allocations through this so arming a guard
    /// inside the heap cannot make allocation itself trap.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) -> SimResult<()> {
        self.check_bounds(addr, len)?;
        self.mark_dirty(addr, len);
        self.bytes[addr as usize..(addr + len) as usize].fill(byte);
        Ok(())
    }

    /// Host-side convenience: copy a `u32` slice into memory (no guard check
    /// — this is test/driver setup, not simulated execution).
    pub fn write_u32_slice(&mut self, addr: u64, data: &[u32]) {
        self.mark_dirty(addr, 4 * data.len() as u64);
        let a = addr as usize;
        for (i, v) in data.iter().enumerate() {
            self.bytes[a + 4 * i..a + 4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Host-side convenience: copy memory out as a `u32` vector.
    pub fn read_u32_slice(&self, addr: u64, n: usize) -> Vec<u32> {
        let a = addr as usize;
        (0..n)
            .map(|i| u32::from_le_bytes(self.bytes[a + 4 * i..a + 4 * i + 4].try_into().unwrap()))
            .collect()
    }

    /// Host-side convenience: copy a `u64` slice into memory.
    pub fn write_u64_slice(&mut self, addr: u64, data: &[u64]) {
        self.mark_dirty(addr, 8 * data.len() as u64);
        let a = addr as usize;
        for (i, v) in data.iter().enumerate() {
            self.bytes[a + 8 * i..a + 8 * i + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Host-side convenience: copy memory out as a `u64` vector.
    pub fn read_u64_slice(&self, addr: u64, n: usize) -> Vec<u64> {
        let a = addr as usize;
        (0..n)
            .map(|i| u64::from_le_bytes(self.bytes[a + 8 * i..a + 8 * i + 8].try_into().unwrap()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let mut m = Memory::new(64);
        m.store(8, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.load(8, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.load(8, 4).unwrap(), 0x5566_7788);
        assert_eq!(m.load(8, 1).unwrap(), 0x88);
        // Little-endian byte order.
        assert_eq!(m.load(15, 1).unwrap(), 0x11);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = Memory::new(16);
        assert!(matches!(
            m.load(16, 1),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(
            m.load(12, 8),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(matches!(
            m.store(u64::MAX, 8, 0),
            Err(SimError::MemOutOfBounds { .. })
        ));
        assert!(m.store(8, 8, 1).is_ok());
    }

    #[test]
    fn guards_trap_and_disarm() {
        let mut m = Memory::new(64);
        let g = m.add_guard(16..20);
        assert!(matches!(m.load(16, 4), Err(SimError::GuardHit { .. })));
        assert!(matches!(m.load(12, 8), Err(SimError::GuardHit { .. }))); // straddles
        assert!(m.load(12, 4).is_ok()); // adjacent below
        assert!(m.load(20, 4).is_ok()); // adjacent above
        m.remove_guard(g);
        assert!(m.load(16, 4).is_ok());
    }

    #[test]
    fn overflow_near_u64_max_traps_and_reports() {
        let m = Memory::new(16);
        for addr in [u64::MAX, u64::MAX - 7, u64::MAX - 4] {
            let e = m.load(addr, 8).unwrap_err();
            assert!(matches!(e, SimError::MemOutOfBounds { .. }), "{e:?}");
            // The report must render without overflowing (debug builds
            // panic on arithmetic overflow).
            let _ = e.to_string();
        }
        assert!(matches!(
            m.peek(u64::MAX - 1, 4),
            Err(SimError::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn host_side_access_is_guard_exempt() {
        let mut m = Memory::new(64);
        m.add_guard(16..24);
        // Simulated access traps...
        assert!(matches!(m.load(16, 4), Err(SimError::GuardHit { .. })));
        assert!(matches!(m.store(16, 4, 1), Err(SimError::GuardHit { .. })));
        // ...host-side staging does not, but stays bounds-checked.
        m.poke(16, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.peek(16, 8).unwrap(), 0x0102_0304_0506_0708);
        m.fill(16, 8, 0).unwrap();
        assert_eq!(m.peek(16, 8).unwrap(), 0);
        assert!(matches!(
            m.fill(60, 8, 0),
            Err(SimError::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn slice_helpers() {
        let mut m = Memory::new(64);
        m.write_u32_slice(4, &[1, 2, 3]);
        assert_eq!(m.read_u32_slice(4, 3), vec![1, 2, 3]);
        m.write_u64_slice(32, &[u64::MAX, 7]);
        assert_eq!(m.read_u64_slice(32, 2), vec![u64::MAX, 7]);
    }
}
