//! Machine state: scalar register file, vector register file, vector CSRs,
//! memory, and counters.
//!
//! ## Vector register file layout
//!
//! All 32 vector registers live in one contiguous byte array of
//! `32 × VLENB`. Element `i` of the group based at register `r` with element
//! size `e` bytes sits at byte offset `r·VLENB + i·e`; because registers are
//! contiguous, LMUL grouping falls out of the layout with no special cases.
//! Mask bit `i` of register `r` is bit `i % 8` of byte `r·VLENB + i/8`
//! (RVV 1.0 mask layout). A mask always fits in a single register: the
//! largest `vl` is `8·VLEN/8 = VLEN` bits.

use crate::counters::Counters;
use crate::error::{SimError, SimResult};
use crate::memory::Memory;
use crate::snapshot::MachineSnapshot;
use rvv_isa::{Lmul, Sew, VReg, VType, XReg};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Vector register length in bits. Must be a power of two in
    /// `[64, 65536]`. The paper evaluates 128, 256, 512, and 1024.
    pub vlen: u32,
    /// Memory size in bytes.
    pub mem_bytes: usize,
}

impl MachineConfig {
    /// The paper's headline configuration: VLEN=1024, 64 MiB of memory.
    pub fn paper_default() -> MachineConfig {
        MachineConfig {
            vlen: 1024,
            mem_bytes: 64 << 20,
        }
    }

    /// Same memory, different VLEN.
    pub fn with_vlen(vlen: u32) -> MachineConfig {
        MachineConfig {
            vlen,
            ..MachineConfig::paper_default()
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_default()
    }
}

/// Diagnostic tally of fused-tier activity ([`Machine::run_plan`] with
/// `fuse`).
///
/// Deliberately **not** part of [`Counters`] or [`MachineSnapshot`]: the
/// dispatch-independence invariant requires counters, traces, and snapshots
/// to be bit-identical across engines, and fusion activity necessarily
/// differs (it is zero on the other two tiers). These numbers exist for
/// coverage goldens and perf forensics only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Fused windows entered (superinstruction fast path taken).
    pub windows: u64,
    /// Instructions retired through fused kernels (sum of window lengths).
    pub ops: u64,
    /// Windows reached with enough fuel whose kernel declined (a
    /// precondition failed: overlap, misalignment, an out-of-bounds or
    /// guarded range, a SEW mismatch, `vill`), so the window ran per-op.
    pub declined: u64,
}

/// The complete architectural state of the simulated hart.
#[derive(Debug, Clone)]
pub struct Machine {
    vlen: u32,
    vlenb: u32,
    xregs: [u64; 32],
    vregs: Box<[u8]>,
    vtype: Option<VType>,
    vl: u32,
    /// Simulated memory (public: the host environment stages inputs and
    /// reads back outputs directly).
    pub mem: Memory,
    /// Dynamic instruction counters (public: benches snapshot and diff).
    pub counters: Counters,
    /// Fused-tier activity tally (see [`FusedStats`]). Zeroed by
    /// [`Machine::reset_cpu`] and [`Machine::restore`]; never snapshotted.
    pub fused_stats: FusedStats,
    /// Reusable staging buffer for the plan and fused tiers' compare
    /// kernels (one packed result word per 64 elements). Not architectural
    /// state — only here so the hot path never allocates.
    pub(crate) cmp_scratch: Vec<u64>,
    /// PC at which the last run loop paused with
    /// [`SimError::FuelExhausted`] or was stopped by its observer
    /// ([`SimError::Cancelled`]) — the precise `start_pc` to resume from.
    /// Captured by snapshots.
    pub(crate) stop_pc: u64,
}

impl Machine {
    /// Build a machine. Panics if `vlen` is not a power of two in
    /// `[64, 65536]` — that is a harness bug, not a simulated-program error.
    pub fn new(cfg: MachineConfig) -> Machine {
        assert!(
            cfg.vlen.is_power_of_two() && (64..=65536).contains(&cfg.vlen),
            "VLEN must be a power of two in [64, 65536], got {}",
            cfg.vlen
        );
        let vlenb = cfg.vlen / 8;
        Machine {
            vlen: cfg.vlen,
            vlenb,
            xregs: [0; 32],
            vregs: vec![0u8; (32 * vlenb) as usize].into_boxed_slice(),
            vtype: None,
            vl: 0,
            mem: Memory::new(cfg.mem_bytes),
            counters: Counters::new(),
            fused_stats: FusedStats::default(),
            cmp_scratch: Vec::new(),
            stop_pc: 0,
        }
    }

    /// PC at which the last run loop paused with fuel exhaustion or a
    /// polled stop — pass it as the `start_pc` of a run on any tier to
    /// continue exactly where the run stopped. Zero until a run has paused.
    #[inline]
    pub fn stop_pc(&self) -> u64 {
        self.stop_pc
    }

    /// VLEN in bits.
    #[inline]
    pub fn vlen(&self) -> u32 {
        self.vlen
    }

    /// VLEN in bytes (`VLENB`).
    #[inline]
    pub fn vlenb(&self) -> u32 {
        self.vlenb
    }

    /// Current `vl`.
    #[inline]
    pub fn vl(&self) -> u32 {
        self.vl
    }

    /// Current decoded `vtype`, or `None` when `vill` is set.
    #[inline]
    pub fn vtype(&self) -> Option<VType> {
        self.vtype
    }

    /// Read a scalar register (`x0` reads as 0).
    #[inline]
    pub fn xreg(&self, r: XReg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.xregs[r.num() as usize]
        }
    }

    /// Write a scalar register (writes to `x0` are discarded).
    #[inline]
    pub fn set_xreg(&mut self, r: XReg, v: u64) {
        if !r.is_zero() {
            self.xregs[r.num() as usize] = v;
        }
    }

    // ------------------------------------------------------------ vectors --

    /// Require a legal vector configuration; returns `(vtype, vl)`.
    #[inline]
    pub fn vcfg(&self) -> SimResult<(VType, u32)> {
        match self.vtype {
            Some(t) => Ok((t, self.vl)),
            None => Err(SimError::Vill),
        }
    }

    /// Set the vector configuration directly (used by `vsetvli` execution
    /// and by tests).
    pub(crate) fn set_vcfg(&mut self, vtype: Option<VType>, vl: u32) {
        self.vtype = vtype;
        self.vl = vl;
    }

    /// `VLMAX` under the current configuration.
    pub fn vlmax(&self) -> SimResult<u32> {
        let (t, _) = self.vcfg()?;
        Ok(t.vlmax(self.vlen))
    }

    /// Check LMUL alignment of a group base register.
    #[inline]
    pub fn check_group(&self, reg: VReg, lmul: Lmul) -> SimResult<()> {
        if lmul.aligned(reg.num()) {
            Ok(())
        } else {
            Err(SimError::MisalignedGroup { reg, lmul })
        }
    }

    /// Do two register groups overlap?
    #[inline]
    pub fn groups_overlap(a: VReg, a_regs: u32, b: VReg, b_regs: u32) -> bool {
        let (a0, a1) = (a.num() as u32, a.num() as u32 + a_regs);
        let (b0, b1) = (b.num() as u32, b.num() as u32 + b_regs);
        a0 < b1 && b0 < a1
    }

    /// Read element `i` of the group based at `base`, width `sew`,
    /// zero-extended.
    #[inline]
    pub fn velem(&self, base: VReg, i: u32, sew: Sew) -> u64 {
        let off = (base.num() as u32 * self.vlenb + i * sew.bytes()) as usize;
        let mut v = 0u64;
        for (k, b) in self.vregs[off..off + sew.bytes() as usize]
            .iter()
            .enumerate()
        {
            v |= (*b as u64) << (8 * k);
        }
        v
    }

    /// Write element `i` of the group based at `base` (value truncated to
    /// `sew`).
    #[inline]
    pub fn set_velem(&mut self, base: VReg, i: u32, sew: Sew, value: u64) {
        let off = (base.num() as u32 * self.vlenb + i * sew.bytes()) as usize;
        for k in 0..sew.bytes() as usize {
            self.vregs[off + k] = (value >> (8 * k)) as u8;
        }
    }

    /// Read mask bit `i` of register `reg`.
    #[inline]
    pub fn mask_bit(&self, reg: VReg, i: u32) -> bool {
        let off = (reg.num() as u32 * self.vlenb + i / 8) as usize;
        self.vregs[off] & (1 << (i % 8)) != 0
    }

    /// Write mask bit `i` of register `reg`.
    #[inline]
    pub fn set_mask_bit(&mut self, reg: VReg, i: u32, v: bool) {
        let off = (reg.num() as u32 * self.vlenb + i / 8) as usize;
        if v {
            self.vregs[off] |= 1 << (i % 8);
        } else {
            self.vregs[off] &= !(1 << (i % 8));
        }
    }

    /// Is element `i` active under mask polarity `vm` (true = unmasked)?
    #[inline]
    pub fn active(&self, vm: bool, i: u32) -> bool {
        vm || self.mask_bit(VReg::V0, i)
    }

    /// Raw bytes of register `reg` (one register, not a group) — used by
    /// whole-register moves and by tests.
    pub fn vreg_bytes(&self, reg: VReg) -> &[u8] {
        let off = (reg.num() as u32 * self.vlenb) as usize;
        &self.vregs[off..off + self.vlenb as usize]
    }

    /// Overwrite raw bytes of register `reg`. Panics if `data` is not
    /// exactly `VLENB` bytes.
    pub fn set_vreg_bytes(&mut self, reg: VReg, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.vlenb as usize,
            "vreg write must be VLENB bytes"
        );
        let off = (reg.num() as u32 * self.vlenb) as usize;
        self.vregs[off..off + self.vlenb as usize].copy_from_slice(data);
    }

    /// The whole vector register file as one contiguous byte slice
    /// (`32 × VLENB`, register `r` at offset `r·VLENB`). The plan engine's
    /// SEW-monomorphized kernels index it with fixed-size
    /// `from_le_bytes`/`to_le_bytes` instead of per-byte loops.
    #[inline]
    pub(crate) fn vreg_store(&self) -> &[u8] {
        &self.vregs
    }

    /// Mutable view of the whole vector register file.
    #[inline]
    pub(crate) fn vreg_store_mut(&mut self) -> &mut [u8] {
        &mut self.vregs
    }

    /// Split borrow: memory and the vector register file at once, so a
    /// fused kernel can bulk-copy between them without an intermediate
    /// buffer. The two are disjoint fields; the borrow checker just cannot
    /// see that through two `&mut self` method calls.
    #[inline]
    pub(crate) fn mem_and_vregs(&mut self) -> (&mut Memory, &mut [u8]) {
        (&mut self.mem, &mut self.vregs)
    }

    /// Whole-register load (`vl<nregs>r.v`) without the per-register
    /// `to_vec` copy of the legacy interpreter: memory and the register file
    /// are disjoint fields, so bytes move in one `copy_from_slice` per
    /// register. Trap behaviour matches `exec` exactly.
    pub(crate) fn vload_whole_fast(&mut self, nregs: u8, vd: VReg, rs1: XReg) -> SimResult<()> {
        if !(vd.num() as u32).is_multiple_of(nregs as u32) {
            return Err(SimError::UnsupportedEmul {
                what: "whole-register vd not aligned to register count",
            });
        }
        let base = self.xreg(rs1);
        let vlenb = self.vlenb as u64;
        for r in 0..nregs {
            let bytes = self.mem.read_bytes(base + r as u64 * vlenb, vlenb)?;
            let off = ((vd.num() + r) as u32 * self.vlenb) as usize;
            self.vregs[off..off + vlenb as usize].copy_from_slice(bytes);
        }
        Ok(())
    }

    /// Whole-register store (`vs<nregs>r.v`), allocation-free counterpart of
    /// [`Machine::vload_whole_fast`].
    pub(crate) fn vstore_whole_fast(&mut self, nregs: u8, vs3: VReg, rs1: XReg) -> SimResult<()> {
        if !(vs3.num() as u32).is_multiple_of(nregs as u32) {
            return Err(SimError::UnsupportedEmul {
                what: "whole-register vs3 not aligned to register count",
            });
        }
        let base = self.xreg(rs1);
        let vlenb = self.vlenb as u64;
        for r in 0..nregs {
            let off = ((vs3.num() + r) as u32 * self.vlenb) as usize;
            self.mem.write_bytes(
                base + r as u64 * vlenb,
                &self.vregs[off..off + vlenb as usize],
            )?;
        }
        Ok(())
    }

    /// Reset architectural state (registers, vtype, counters) but keep
    /// memory contents.
    pub fn reset_cpu(&mut self) {
        self.xregs = [0; 32];
        self.vregs.fill(0);
        self.vtype = None;
        self.vl = 0;
        self.counters.reset();
        self.fused_stats = FusedStats::default();
        self.stop_pc = 0;
    }

    /// Capture the complete architectural state. Memory cost is
    /// O(dirty pages) — see [`Memory::snapshot`].
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            vlen: self.vlen,
            xregs: self.xregs,
            vregs: self.vregs.clone(),
            vtype: self.vtype,
            vl: self.vl,
            counters: self.counters.clone(),
            stop_pc: self.stop_pc,
            mem: self.mem.snapshot(),
        }
    }

    /// Restore the state captured by [`Machine::snapshot`]: afterwards
    /// this machine is bit-for-bit indistinguishable from the
    /// snapshotted one (`cmp_scratch` excepted — it is not architectural
    /// and is rebuilt on demand).
    ///
    /// # Panics
    /// If the snapshot came from a machine with a different VLEN or
    /// memory size — restoring across shapes would silently corrupt
    /// state, so it is a harness bug.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        assert_eq!(
            snap.vlen, self.vlen,
            "snapshot is from a VLEN={} machine, this one is VLEN={}",
            snap.vlen, self.vlen
        );
        assert_eq!(
            snap.vregs.len(),
            self.vregs.len(),
            "vector register file size mismatch"
        );
        self.xregs = snap.xregs;
        self.vregs.copy_from_slice(&snap.vregs);
        self.vtype = snap.vtype;
        self.vl = snap.vl;
        self.counters = snap.counters.clone();
        self.fused_stats = FusedStats::default();
        self.stop_pc = snap.stop_pc;
        self.mem.restore(&snap.mem);
        self.cmp_scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired() {
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        });
        m.set_xreg(XReg::ZERO, 42);
        assert_eq!(m.xreg(XReg::ZERO), 0);
        m.set_xreg(XReg::new(5), 42);
        assert_eq!(m.xreg(XReg::new(5)), 42);
    }

    #[test]
    fn element_layout_spans_group_registers() {
        // VLEN=128 -> 4 e32 elements per register. Element 5 of an LMUL=2
        // group based at v2 lives in v3.
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        });
        m.set_velem(VReg::new(2), 5, Sew::E32, 0xdead_beef);
        assert_eq!(m.velem(VReg::new(2), 5, Sew::E32), 0xdead_beef);
        assert_eq!(m.velem(VReg::new(3), 1, Sew::E32), 0xdead_beef);
    }

    #[test]
    fn truncation_on_write() {
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        });
        m.set_velem(VReg::new(1), 0, Sew::E8, 0x1ff);
        assert_eq!(m.velem(VReg::new(1), 0, Sew::E8), 0xff);
        // Neighbouring element untouched.
        assert_eq!(m.velem(VReg::new(1), 1, Sew::E8), 0);
    }

    #[test]
    fn mask_bits() {
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        });
        m.set_mask_bit(VReg::V0, 0, true);
        m.set_mask_bit(VReg::V0, 9, true);
        assert!(m.mask_bit(VReg::V0, 0));
        assert!(!m.mask_bit(VReg::V0, 1));
        assert!(m.mask_bit(VReg::V0, 9));
        m.set_mask_bit(VReg::V0, 9, false);
        assert!(!m.mask_bit(VReg::V0, 9));
        assert!(m.active(true, 3));
        assert!(m.active(false, 0));
        assert!(!m.active(false, 3));
    }

    #[test]
    fn overlap_detection() {
        assert!(Machine::groups_overlap(VReg::new(8), 4, VReg::new(10), 2));
        assert!(!Machine::groups_overlap(VReg::new(8), 2, VReg::new(10), 2));
        assert!(Machine::groups_overlap(VReg::new(0), 1, VReg::new(0), 8));
    }

    #[test]
    fn vill_until_configured() {
        let m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        });
        assert!(matches!(m.vcfg(), Err(SimError::Vill)));
    }

    #[test]
    #[should_panic]
    fn bad_vlen_panics() {
        let _ = Machine::new(MachineConfig {
            vlen: 100,
            mem_bytes: 4096,
        });
    }
}
