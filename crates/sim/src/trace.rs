//! Retire-time tracing hooks.
//!
//! A [`TraceSink`] observes every architecturally retired instruction of a
//! run driven with the [`Traced`](crate::Traced) observer, together with
//! the vector configuration it executed under and (for memory operations)
//! the data footprint it touched. Both run loops are generic over their
//! [`Observer`](crate::Observer), and the untraced instantiation compiles
//! event assembly away — untraced execution pays nothing for this module.
//!
//! Sinks are deliberately *aggregating* consumers: the simulator hands each
//! event by reference and keeps nothing, so a profiler that only bumps
//! histograms adds a few arithmetic ops per retired instruction and no
//! allocation. The optional phase hooks let a host runtime (the `scanvec`
//! environment) bracket groups of kernel launches — "this range of retired
//! instructions was the split step of radix pass 7" — which is what turns a
//! flat instruction stream into an attributable profile.

use crate::machine::Machine;
use crate::program::Program;
use rvv_isa::{Instr, InstrClass, VType};

/// The memory footprint of one retired load or store.
///
/// For unit-stride and whole-register accesses this is the exact byte range
/// `[addr, addr + bytes)`. For strided and indexed accesses `addr` is the
/// base register and `bytes` the *data volume* (`vl × EEW`), not the span —
/// enough for traffic accounting and for classifying the access by the
/// region its base points into, which is all the profilers here need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Base effective address of the access.
    pub addr: u64,
    /// Bytes of data moved.
    pub bytes: u64,
    /// `true` for stores, `false` for loads.
    pub store: bool,
}

/// Everything a sink learns about one retired instruction.
///
/// `vl` and `vtype` are the configuration the instruction *executed under*
/// (the pre-execution state — for a `vsetvli` that is the previous
/// configuration, not the one it installs).
#[derive(Debug, Clone, Copy)]
pub struct RetireEvent<'a> {
    /// Byte PC of the instruction.
    pub pc: u64,
    /// The instruction itself.
    pub instr: &'a Instr,
    /// Its class (precomputed; sinks almost always bin by it).
    pub class: InstrClass,
    /// `vl` at execution time.
    pub vl: u32,
    /// Decoded `vtype` at execution time (`None` while `vill`).
    pub vtype: Option<VType>,
    /// Memory footprint, for loads and stores.
    pub mem: Option<MemAccess>,
    /// Zero-based index of this instruction within the traced run.
    pub seq: u64,
}

impl RetireEvent<'_> {
    /// SEW the instruction executed under (`None` while `vill`).
    pub fn sew(&self) -> Option<rvv_isa::Sew> {
        self.vtype.map(|t| t.sew)
    }

    /// LMUL the instruction executed under (`None` while `vill`).
    ///
    /// Together with [`RetireEvent::vl`] this is what makes a cost model
    /// LMUL-aware: `vl` scales with LMUL, so element-proportional
    /// occupancy charges grow with the register-group size.
    pub fn lmul(&self) -> Option<rvv_isa::Lmul> {
        self.vtype.map(|t| t.lmul)
    }

    /// Elements the instruction operated on (its `vl`, at least 1 — an
    /// instruction retiring under `vl=0` still issues and occupies).
    pub fn elems(&self) -> u64 {
        u64::from(self.vl.max(1))
    }
}

/// Observer of a traced run. All methods except [`TraceSink::retire`] have
/// no-op defaults, so simple sinks implement one method.
///
/// The `Any` supertrait lets an owner that holds sinks as
/// `Box<dyn TraceSink>` recover the concrete type afterwards (upcast to
/// `Box<dyn Any>`, then downcast); it is why sinks must be `'static`.
pub trait TraceSink: std::any::Any {
    /// One instruction retired.
    fn retire(&mut self, event: &RetireEvent<'_>);

    /// A program is about to run (carries the name and symbol marks used
    /// for hotspot symbolication).
    fn launch(&mut self, _program: &Program) {}

    /// A host-runtime phase opened (phases nest).
    fn phase_begin(&mut self, _name: &str) {}

    /// The innermost open phase closed.
    fn phase_end(&mut self, _name: &str) {}
}

impl Machine {
    /// The retire event of `instr` (of class `class`) at byte PC `pc`,
    /// assembled from the current — pre-execution — state.
    pub(crate) fn retire_event<'a>(
        &self,
        pc: u64,
        instr: &'a Instr,
        class: InstrClass,
        seq: u64,
    ) -> RetireEvent<'a> {
        RetireEvent {
            pc,
            instr,
            class,
            vl: self.vl(),
            vtype: self.vtype(),
            mem: self.mem_footprint(instr),
            seq,
        }
    }

    /// Pre-execution memory footprint of `instr`, if it is a load or store.
    ///
    /// Computed from architectural state *before* the instruction executes;
    /// see [`MemAccess`] for the strided/indexed approximation.
    pub fn mem_footprint(&self, instr: &Instr) -> Option<MemAccess> {
        use Instr::*;
        let vl = self.vl() as u64;
        match *instr {
            Load {
                width, rs1, offset, ..
            } => Some(MemAccess {
                addr: self.xreg(rs1).wrapping_add(offset as i64 as u64),
                bytes: width.bytes(),
                store: false,
            }),
            Store {
                width, rs1, offset, ..
            } => Some(MemAccess {
                addr: self.xreg(rs1).wrapping_add(offset as i64 as u64),
                bytes: width.bytes(),
                store: true,
            }),
            VLoad { eew, rs1, .. } | VLoadStrided { eew, rs1, .. } => Some(MemAccess {
                addr: self.xreg(rs1),
                bytes: vl * eew.bytes() as u64,
                store: false,
            }),
            VLoadIndexed { rs1, .. } => {
                // Data EEW is SEW for the modelled subset.
                let sew = self.vtype().map_or(0, |t| t.sew.bytes() as u64);
                Some(MemAccess {
                    addr: self.xreg(rs1),
                    bytes: vl * sew,
                    store: false,
                })
            }
            VStore { eew, rs1, .. } | VStoreStrided { eew, rs1, .. } => Some(MemAccess {
                addr: self.xreg(rs1),
                bytes: vl * eew.bytes() as u64,
                store: true,
            }),
            VStoreIndexed { rs1, .. } => {
                let sew = self.vtype().map_or(0, |t| t.sew.bytes() as u64);
                Some(MemAccess {
                    addr: self.xreg(rs1),
                    bytes: vl * sew,
                    store: true,
                })
            }
            VLoadWhole { nregs, rs1, .. } => Some(MemAccess {
                addr: self.xreg(rs1),
                bytes: nregs as u64 * self.vlenb() as u64,
                store: false,
            }),
            VStoreWhole { nregs, rs1, .. } => Some(MemAccess {
                addr: self.xreg(rs1),
                bytes: nregs as u64 * self.vlenb() as u64,
                store: true,
            }),
            VLoadMask { rs1, .. } => Some(MemAccess {
                addr: self.xreg(rs1),
                bytes: vl.div_ceil(8),
                store: false,
            }),
            VStoreMask { rs1, .. } => Some(MemAccess {
                addr: self.xreg(rs1),
                bytes: vl.div_ceil(8),
                store: true,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use rvv_isa::{MemWidth, Sew, VReg, XReg};

    #[test]
    fn footprints_of_the_memory_ops() {
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 1 << 16,
        });
        m.set_xreg(XReg::new(10), 0x100);
        // Scalar store with negative offset.
        let f = m
            .mem_footprint(&Instr::Store {
                width: MemWidth::D,
                rs2: XReg::ZERO,
                rs1: XReg::new(10),
                offset: -8,
            })
            .unwrap();
        assert_eq!((f.addr, f.bytes, f.store), (0xf8, 8, true));
        // Whole-register load: nregs × VLENB regardless of vl/vtype.
        let f = m
            .mem_footprint(&Instr::VLoadWhole {
                nregs: 4,
                vd: VReg::new(8),
                rs1: XReg::new(10),
            })
            .unwrap();
        assert_eq!((f.addr, f.bytes, f.store), (0x100, 64, false));
        // Unit-stride load scales with vl.
        m.set_vcfg(Some(rvv_isa::VType::new(Sew::E32, rvv_isa::Lmul::M1)), 3);
        let f = m
            .mem_footprint(&Instr::VLoad {
                eew: Sew::E32,
                vd: VReg::new(8),
                rs1: XReg::new(10),
                vm: true,
            })
            .unwrap();
        assert_eq!((f.addr, f.bytes, f.store), (0x100, 12, false));
        // Non-memory instructions have no footprint.
        assert!(m.mem_footprint(&Instr::Ecall).is_none());
    }
}
