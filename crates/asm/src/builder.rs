//! The assembler EDSL: build [`Program`]s with labels, forward references,
//! and pseudo-instructions.
//!
//! Branch/jump targets are [`Label`]s; [`ProgramBuilder::finish`] resolves
//! them to PC-relative byte offsets (and fails loudly on unbound labels or
//! out-of-range offsets rather than emitting garbage).

use rvv_isa::{AluOp, BranchCond, Instr, MemWidth, Sew, VAluOp, VCmp, VRedOp, VReg, VType, XReg};
use rvv_sim::{CompiledPlan, Program};
use std::fmt;

/// A branch target. Created by [`ProgramBuilder::label`], positioned by
/// [`ProgramBuilder::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`ProgramBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(usize),
    /// A resolved branch offset does not fit the instruction encoding.
    OffsetOutOfRange {
        /// Instruction index of the branch.
        at: usize,
        /// The offset that did not fit.
        offset: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(i) => write!(f, "label {i} was never bound"),
            AsmError::OffsetOutOfRange { at, offset } => {
                write!(
                    f,
                    "branch at instruction {at} has out-of-range offset {offset}"
                )
            }
        }
    }
}

impl std::error::Error for AsmError {}

enum Item {
    Fixed(Instr),
    Branch {
        cond: BranchCond,
        rs1: XReg,
        rs2: XReg,
        target: Label,
    },
    Jump {
        rd: XReg,
        target: Label,
    },
}

/// Incrementally builds a [`Program`].
///
/// Most methods mirror an instruction or standard pseudo-instruction and
/// append exactly one instruction; `li` may emit up to a handful. The escape
/// hatch [`ProgramBuilder::raw`] appends any [`Instr`] directly.
pub struct ProgramBuilder {
    name: String,
    items: Vec<Item>,
    labels: Vec<Option<usize>>,
    marks: Vec<(usize, String)>,
}

impl ProgramBuilder {
    /// Start a program named `name`.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            items: Vec::new(),
            labels: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Attach a symbol mark at the current position: instructions emitted
    /// from here until the next mark are attributed to `label` by
    /// profilers (see [`rvv_sim::Program::symbol_for`]). Marks never affect
    /// the emitted code.
    pub fn mark(&mut self, label: impl Into<String>) -> &mut Self {
        self.marks.push((self.items.len(), label.into()));
        self
    }

    /// Current instruction count (next emission index).
    pub fn here(&self) -> usize {
        self.items.len()
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `l` to the current position. Panics if already bound (that is a
    /// kernel-generator bug).
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.items.len());
    }

    /// Append an arbitrary instruction.
    pub fn raw(&mut self, i: Instr) -> &mut Self {
        self.items.push(Item::Fixed(i));
        self
    }

    // ------------------------------------------------------------- scalar --

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: XReg, rs1: XReg, imm: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        })
    }

    /// `mv rd, rs` (canonical `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: XReg, rs: XReg) -> &mut Self {
        self.addi(rd, rs, 0)
    }

    /// `li rd, value` — load immediate, expanding to `addi` / `lui`+`addi` /
    /// a shift-and-or sequence as needed.
    pub fn li(&mut self, rd: XReg, value: i64) -> &mut Self {
        if (-2048..=2047).contains(&value) {
            return self.addi(rd, XReg::ZERO, value as i32);
        }
        // lui+addi reaches any value where the upper part fits the 20-bit
        // lui immediate *without 32-bit wraparound* (RV64 lui sign-extends,
        // so e.g. 0x7fff_ffff needs the long form).
        let lo = ((value << 52) >> 52) as i32; // low 12, sign-extended
        let hi = value.wrapping_sub(lo as i64) >> 12;
        if (-(1 << 19)..(1 << 19)).contains(&hi) {
            self.raw(Instr::Lui {
                rd,
                imm20: hi as i32,
            });
            if lo != 0 {
                self.addi(rd, rd, lo);
            }
            return self;
        }
        // 64-bit constants: build the upper 32 bits, shift, then OR in the
        // lower bits 11 at a time (keeps every addi immediate non-negative
        // so sign extension cannot corrupt already-placed bits).
        self.li(rd, value >> 32);
        let low = value as u32 as u64;
        self.slli(rd, rd, 11);
        self.addi(rd, rd, ((low >> 21) & 0x7ff) as i32);
        self.slli(rd, rd, 11);
        self.addi(rd, rd, ((low >> 10) & 0x7ff) as i32);
        self.slli(rd, rd, 10);
        if low & 0x3ff != 0 {
            self.addi(rd, rd, (low & 0x3ff) as i32);
        }
        self
    }

    /// Register-register ALU op.
    pub fn op(&mut self, op: AluOp, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.raw(Instr::Op { op, rd, rs1, rs2 })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Add, rd, rs1, rs2)
    }

    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: XReg, rs1: XReg, rs2: XReg) -> &mut Self {
        self.op(AluOp::Sub, rd, rs1, rs2)
    }

    /// `slli rd, rs1, shamt`.
    pub fn slli(&mut self, rd: XReg, rs1: XReg, shamt: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `srli rd, rs1, shamt`.
    pub fn srli(&mut self, rd: XReg, rs1: XReg, shamt: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm: shamt,
        })
    }

    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: XReg, rs1: XReg, imm: i32) -> &mut Self {
        self.raw(Instr::OpImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        })
    }

    /// Scalar load. (`ld` has no unsigned variant; width D normalizes to
    /// signed, matching the decoder.)
    pub fn load(
        &mut self,
        width: MemWidth,
        signed: bool,
        rd: XReg,
        rs1: XReg,
        off: i32,
    ) -> &mut Self {
        let signed = signed || width == MemWidth::D;
        self.raw(Instr::Load {
            width,
            signed,
            rd,
            rs1,
            offset: off,
        })
    }

    /// `lw rd, off(rs1)` (signed).
    pub fn lw(&mut self, rd: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.load(MemWidth::W, true, rd, rs1, off)
    }

    /// `lwu rd, off(rs1)`.
    pub fn lwu(&mut self, rd: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.load(MemWidth::W, false, rd, rs1, off)
    }

    /// `ld rd, off(rs1)`.
    pub fn ld(&mut self, rd: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.load(MemWidth::D, true, rd, rs1, off)
    }

    /// Scalar store.
    pub fn store(&mut self, width: MemWidth, rs2: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.raw(Instr::Store {
            width,
            rs2,
            rs1,
            offset: off,
        })
    }

    /// `sw rs2, off(rs1)`.
    pub fn sw(&mut self, rs2: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.store(MemWidth::W, rs2, rs1, off)
    }

    /// `sd rs2, off(rs1)`.
    pub fn sd(&mut self, rs2: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.store(MemWidth::D, rs2, rs1, off)
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.items.push(Item::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
        self
    }

    /// `beq rs1, rs2, target`.
    pub fn beq(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.branch(BranchCond::Eq, rs1, rs2, target)
    }

    /// `bne rs1, rs2, target`.
    pub fn bne(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.branch(BranchCond::Ne, rs1, rs2, target)
    }

    /// `blt rs1, rs2, target` (signed).
    pub fn blt(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.branch(BranchCond::Lt, rs1, rs2, target)
    }

    /// `bge rs1, rs2, target` (signed).
    pub fn bge(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.branch(BranchCond::Ge, rs1, rs2, target)
    }

    /// `bltu rs1, rs2, target`.
    pub fn bltu(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.branch(BranchCond::Ltu, rs1, rs2, target)
    }

    /// `bgeu rs1, rs2, target`.
    pub fn bgeu(&mut self, rs1: XReg, rs2: XReg, target: Label) -> &mut Self {
        self.branch(BranchCond::Geu, rs1, rs2, target)
    }

    /// `beqz rs, target`.
    pub fn beqz(&mut self, rs: XReg, target: Label) -> &mut Self {
        self.beq(rs, XReg::ZERO, target)
    }

    /// `bnez rs, target`.
    pub fn bnez(&mut self, rs: XReg, target: Label) -> &mut Self {
        self.bne(rs, XReg::ZERO, target)
    }

    /// Unconditional jump to a label (`jal x0`).
    pub fn jump(&mut self, target: Label) -> &mut Self {
        self.items.push(Item::Jump {
            rd: XReg::ZERO,
            target,
        });
        self
    }

    /// `jal rd, target` — call a label.
    pub fn call(&mut self, rd: XReg, target: Label) -> &mut Self {
        self.items.push(Item::Jump { rd, target });
        self
    }

    /// `jalr rd, off(rs1)` — indirect jump (returns).
    pub fn jalr(&mut self, rd: XReg, rs1: XReg, off: i32) -> &mut Self {
        self.raw(Instr::Jalr {
            rd,
            rs1,
            offset: off,
        })
    }

    /// `ret` (`jalr x0, 0(ra)`).
    pub fn ret(&mut self) -> &mut Self {
        self.jalr(XReg::ZERO, XReg::RA, 0)
    }

    /// `ecall` — halt.
    pub fn halt(&mut self) -> &mut Self {
        self.raw(Instr::Ecall)
    }

    // ------------------------------------------------------------- vector --

    /// `vsetvli rd, rs1, vtype`.
    pub fn vsetvli(&mut self, rd: XReg, rs1: XReg, vtype: VType) -> &mut Self {
        self.raw(Instr::Vsetvli { rd, rs1, vtype })
    }

    /// Unit-stride load `vle<eew>.v`.
    pub fn vle(&mut self, eew: Sew, vd: VReg, rs1: XReg) -> &mut Self {
        self.raw(Instr::VLoad {
            eew,
            vd,
            rs1,
            vm: true,
        })
    }

    /// Unit-stride store `vse<eew>.v`.
    pub fn vse(&mut self, eew: Sew, vs3: VReg, rs1: XReg) -> &mut Self {
        self.raw(Instr::VStore {
            eew,
            vs3,
            rs1,
            vm: true,
        })
    }

    /// Indexed-unordered store `vsuxei<eew>.v` — the paper's permutation
    /// primitive.
    pub fn vsuxei(&mut self, eew: Sew, vs3: VReg, rs1: XReg, vs2: VReg) -> &mut Self {
        self.raw(Instr::VStoreIndexed {
            eew,
            ordered: false,
            vs3,
            rs1,
            vs2,
            vm: true,
        })
    }

    /// Whole-register load (spill reload).
    pub fn vlr(&mut self, nregs: u8, vd: VReg, rs1: XReg) -> &mut Self {
        self.raw(Instr::VLoadWhole { nregs, vd, rs1 })
    }

    /// Whole-register store (spill).
    pub fn vsr(&mut self, nregs: u8, vs3: VReg, rs1: XReg) -> &mut Self {
        self.raw(Instr::VStoreWhole { nregs, vs3, rs1 })
    }

    /// Vector-vector ALU op.
    pub fn vop_vv(&mut self, op: VAluOp, vd: VReg, vs2: VReg, vs1: VReg, vm: bool) -> &mut Self {
        self.raw(Instr::VOpVV {
            op,
            vd,
            vs2,
            vs1,
            vm,
        })
    }

    /// Vector-scalar ALU op.
    pub fn vop_vx(&mut self, op: VAluOp, vd: VReg, vs2: VReg, rs1: XReg, vm: bool) -> &mut Self {
        self.raw(Instr::VOpVX {
            op,
            vd,
            vs2,
            rs1,
            vm,
        })
    }

    /// Vector-immediate ALU op.
    pub fn vop_vi(&mut self, op: VAluOp, vd: VReg, vs2: VReg, imm: i8, vm: bool) -> &mut Self {
        self.raw(Instr::VOpVI {
            op,
            vd,
            vs2,
            imm,
            vm,
        })
    }

    /// Compare-to-mask, vector-immediate.
    pub fn vcmp_vi(&mut self, cond: VCmp, vd: VReg, vs2: VReg, imm: i8, vm: bool) -> &mut Self {
        self.raw(Instr::VCmpVI {
            cond,
            vd,
            vs2,
            imm,
            vm,
        })
    }

    /// Compare-to-mask, vector-scalar.
    pub fn vcmp_vx(&mut self, cond: VCmp, vd: VReg, vs2: VReg, rs1: XReg, vm: bool) -> &mut Self {
        self.raw(Instr::VCmpVX {
            cond,
            vd,
            vs2,
            rs1,
            vm,
        })
    }

    /// `vmv.v.v vd, vs1`.
    pub fn vmv_vv(&mut self, vd: VReg, vs1: VReg) -> &mut Self {
        self.raw(Instr::VMvVV { vd, vs1 })
    }

    /// `vmv.v.x vd, rs1`.
    pub fn vmv_vx(&mut self, vd: VReg, rs1: XReg) -> &mut Self {
        self.raw(Instr::VMvVX { vd, rs1 })
    }

    /// `vmv.v.i vd, imm`.
    pub fn vmv_vi(&mut self, vd: VReg, imm: i8) -> &mut Self {
        self.raw(Instr::VMvVI { vd, imm })
    }

    /// `vmv.s.x vd, rs1`.
    pub fn vmv_sx(&mut self, vd: VReg, rs1: XReg) -> &mut Self {
        self.raw(Instr::VMvSX { vd, rs1 })
    }

    /// `vmv.x.s rd, vs2`.
    pub fn vmv_xs(&mut self, rd: XReg, vs2: VReg) -> &mut Self {
        self.raw(Instr::VMvXS { rd, vs2 })
    }

    /// `vslideup.vx`.
    pub fn vslideup_vx(&mut self, vd: VReg, vs2: VReg, rs1: XReg, vm: bool) -> &mut Self {
        self.raw(Instr::VSlideUpVX { vd, vs2, rs1, vm })
    }

    /// `vslidedown.vx`.
    pub fn vslidedown_vx(&mut self, vd: VReg, vs2: VReg, rs1: XReg, vm: bool) -> &mut Self {
        self.raw(Instr::VSlideDownVX { vd, vs2, rs1, vm })
    }

    /// `viota.m`.
    pub fn viota(&mut self, vd: VReg, vs2: VReg) -> &mut Self {
        self.raw(Instr::VIota { vd, vs2, vm: true })
    }

    /// `vcpop.m`.
    pub fn vcpop(&mut self, rd: XReg, vs2: VReg) -> &mut Self {
        self.raw(Instr::VCpop { rd, vs2, vm: true })
    }

    /// `vmsbf.m`.
    pub fn vmsbf(&mut self, vd: VReg, vs2: VReg) -> &mut Self {
        self.raw(Instr::VMsbf { vd, vs2, vm: true })
    }

    /// `vid.v`.
    pub fn vid(&mut self, vd: VReg) -> &mut Self {
        self.raw(Instr::VId { vd, vm: true })
    }

    /// Reduction `vred<op>.vs`.
    pub fn vred(&mut self, op: VRedOp, vd: VReg, vs2: VReg, vs1: VReg) -> &mut Self {
        self.raw(Instr::VRed {
            op,
            vd,
            vs2,
            vs1,
            vm: true,
        })
    }

    /// Resolve labels and produce the program.
    pub fn finish(self) -> Result<Program, AsmError> {
        let mut instrs = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let resolve = |l: &Label| -> Result<i64, AsmError> {
                let t = self.labels[l.0].ok_or(AsmError::UnboundLabel(l.0))?;
                Ok((t as i64 - idx as i64) * 4)
            };
            let i = match item {
                Item::Fixed(i) => *i,
                Item::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let offset = resolve(target)?;
                    if !(-4096..=4094).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange { at: idx, offset });
                    }
                    Instr::Branch {
                        cond: *cond,
                        rs1: *rs1,
                        rs2: *rs2,
                        offset: offset as i32,
                    }
                }
                Item::Jump { rd, target } => {
                    let offset = resolve(target)?;
                    if !(-(1i64 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::OffsetOutOfRange { at: idx, offset });
                    }
                    Instr::Jal {
                        rd: *rd,
                        offset: offset as i32,
                    }
                }
            };
            instrs.push(i);
        }
        let mut p = Program::new(self.name, instrs);
        for (idx, label) in self.marks {
            p.add_mark(idx as u64 * 4, label);
        }
        Ok(p)
    }

    /// Resolve labels and produce a pre-decoded execution plan — `finish`
    /// followed by [`CompiledPlan::compile`]. Use this when the program goes
    /// straight to a machine; the plan still carries the source program for
    /// disassembly and legacy-engine runs.
    pub fn finish_plan(self) -> Result<CompiledPlan, AsmError> {
        Ok(CompiledPlan::compile(self.finish()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvv_sim::{Machine, MachineConfig};

    fn run(p: &Program) -> Machine {
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 1 << 16,
        });
        m.run_default(p).unwrap();
        m
    }

    #[test]
    fn finish_plan_matches_finish() {
        let build = || {
            let mut b = ProgramBuilder::new("plan");
            b.li(XReg::new(5), 7);
            b.halt();
            b
        };
        let plan = build().finish_plan().unwrap();
        let p = build().finish().unwrap();
        assert_eq!(plan.program().instrs, p.instrs);
        let mut m = Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 1 << 16,
        });
        m.run_plan(&plan, 100, 0, false, &mut ()).unwrap();
        assert_eq!(m.xreg(XReg::new(5)), 7);
    }

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new("labels");
        let loop_head = b.label();
        let done = b.label();
        b.li(XReg::new(5), 3);
        b.bind(loop_head);
        b.beqz(XReg::new(5), done); // forward reference
        b.addi(XReg::new(5), XReg::new(5), -1);
        b.addi(XReg::new(6), XReg::new(6), 10);
        b.jump(loop_head); // backward reference
        b.bind(done);
        b.halt();
        let p = b.finish().unwrap();
        let m = run(&p);
        assert_eq!(m.xreg(XReg::new(6)), 30);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.label();
        b.jump(l);
        assert!(matches!(b.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn li_small_medium_large() {
        for v in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            -2049,
            0x12345,
            -0x12345,
            i32::MAX as i64,
            i32::MIN as i64,
            0x1234_5678_9abc_def0,
            -0x1234_5678_9abc_def0,
            i64::MAX,
            i64::MIN,
            0x8000_0000, // not representable as positive i32 lui path
            0xdead_beef_i64,
        ] {
            let mut b = ProgramBuilder::new("li");
            b.li(XReg::new(5), v);
            b.halt();
            let p = b.finish().unwrap();
            let m = run(&p);
            assert_eq!(
                m.xreg(XReg::new(5)) as i64,
                v,
                "li {v:#x} materialized wrong"
            );
        }
    }

    #[test]
    fn branch_offset_overflow_detected() {
        let mut b = ProgramBuilder::new("far");
        let far = b.label();
        b.beqz(XReg::ZERO, far);
        for _ in 0..2000 {
            b.addi(XReg::new(5), XReg::new(5), 1);
        }
        b.bind(far);
        b.halt();
        assert!(matches!(b.finish(), Err(AsmError::OffsetOutOfRange { .. })));
    }

    #[test]
    fn programs_assemble_to_valid_machine_code() {
        let mut b = ProgramBuilder::new("asm");
        let l = b.label();
        b.li(XReg::new(5), 123456789);
        b.bind(l);
        b.addi(XReg::new(5), XReg::new(5), -1);
        b.bnez(XReg::new(5), l);
        b.halt();
        let p = b.finish().unwrap();
        let bytes = p.assemble().unwrap();
        for (i, c) in bytes.chunks_exact(4).enumerate() {
            let w = u32::from_le_bytes(c.try_into().unwrap());
            assert_eq!(rvv_isa::decode(w).unwrap(), p.instrs[i]);
        }
    }
}
