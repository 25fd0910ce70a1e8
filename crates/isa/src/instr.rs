//! The typed instruction set: one enum variant per instruction *family*.
//!
//! Every instruction the workspace's kernels can emit is representable here.
//! Families group instructions that share an encoding shape and an execution
//! loop (e.g. every integer `OPIVV` arithmetic instruction is
//! [`Instr::VOpVV`] with a [`VAluOp`]); the concrete mnemonic, encoding and
//! assembly syntax of each form live in one row of [`crate::table`].

use crate::{Sew, VReg, VType, XReg};

/// Scalar ALU operation selector, shared by register-register
/// ([`Instr::Op`]) and, for the subset that exists, immediate
/// ([`Instr::OpImm`]) forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`; no immediate form — use `addi` with negated imm).
    Sub,
    /// Logical left shift (`sll`/`slli`).
    Sll,
    /// Set-if-less-than, signed (`slt`/`slti`).
    Slt,
    /// Set-if-less-than, unsigned (`sltu`/`sltiu`).
    Sltu,
    /// Bitwise exclusive or (`xor`/`xori`).
    Xor,
    /// Logical right shift (`srl`/`srli`).
    Srl,
    /// Arithmetic right shift (`sra`/`srai`).
    Sra,
    /// Bitwise or (`or`/`ori`).
    Or,
    /// Bitwise and (`and`/`andi`).
    And,
    /// Multiplication, low 64 bits (`mul`; RV64M).
    Mul,
    /// Multiplication, high 64 bits signed×signed (`mulh`).
    Mulh,
    /// Multiplication, high 64 bits unsigned×unsigned (`mulhu`).
    Mulhu,
    /// Signed division (`div`).
    Div,
    /// Unsigned division (`divu`).
    Divu,
    /// Signed remainder (`rem`).
    Rem,
    /// Unsigned remainder (`remu`).
    Remu,
}

impl AluOp {
    /// Does an `OP-IMM` (`*i`) form of this operation exist in RV64I?
    pub const fn has_imm_form(self) -> bool {
        matches!(
            self,
            AluOp::Add
                | AluOp::Sll
                | AluOp::Slt
                | AluOp::Sltu
                | AluOp::Xor
                | AluOp::Srl
                | AluOp::Sra
                | AluOp::Or
                | AluOp::And
        )
    }

    /// Is this a shift (immediate operand is a 6-bit shamt on RV64)?
    pub const fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

/// Branch comparison condition ([`Instr::Branch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq` — equal.
    Eq,
    /// `bne` — not equal.
    Ne,
    /// `blt` — signed less-than.
    Lt,
    /// `bge` — signed greater-or-equal.
    Ge,
    /// `bltu` — unsigned less-than.
    Ltu,
    /// `bgeu` — unsigned greater-or-equal.
    Geu,
}

/// Vector-state CSRs readable with `csrr` (the Zicsr subset kernels use:
/// all three are read-only views of the vector configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VCsr {
    /// `vl` (0xC20).
    Vl,
    /// `vtype` (0xC21; bit 63 is `vill`).
    Vtype,
    /// `vlenb` (0xC22): VLEN/8.
    Vlenb,
}

impl VCsr {
    /// CSR address.
    pub const fn addr(self) -> u32 {
        match self {
            VCsr::Vl => 0xC20,
            VCsr::Vtype => 0xC21,
            VCsr::Vlenb => 0xC22,
        }
    }

    /// Decode from a CSR address.
    pub const fn from_addr(a: u32) -> Option<VCsr> {
        match a {
            0xC20 => Some(VCsr::Vl),
            0xC21 => Some(VCsr::Vtype),
            0xC22 => Some(VCsr::Vlenb),
            _ => None,
        }
    }

    /// Assembly name (`vl`, `vtype`, `vlenb`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            VCsr::Vl => "vl",
            VCsr::Vtype => "vtype",
            VCsr::Vlenb => "vlenb",
        }
    }
}

/// Scalar memory access width ([`Instr::Load`]/[`Instr::Store`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte (`lb`/`lbu`/`sb`).
    B,
    /// 2 bytes (`lh`/`lhu`/`sh`).
    H,
    /// 4 bytes (`lw`/`lwu`/`sw`).
    W,
    /// 8 bytes (`ld`/`sd`).
    D,
}

impl MemWidth {
    /// Access width in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Vector integer ALU operation selector for the `OPIVV`/`OPIVX`/`OPIVI` and
/// `OPMVV`/`OPMVX` arithmetic families.
///
/// Which operand forms exist follows the RVV 1.0 instruction listings; the
/// encoder rejects nonexistent combinations (e.g. `vsub.vi`,
/// `vmul.vi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VAluOp {
    /// `vadd` (vv, vx, vi).
    Add,
    /// `vsub` (vv, vx).
    Sub,
    /// `vrsub` — reverse subtract, `vd = rs1 - vs2` (vx, vi).
    Rsub,
    /// `vminu` — unsigned minimum (vv, vx).
    Minu,
    /// `vmin` — signed minimum (vv, vx).
    Min,
    /// `vmaxu` — unsigned maximum (vv, vx).
    Maxu,
    /// `vmax` — signed maximum (vv, vx).
    Max,
    /// `vand` (vv, vx, vi).
    And,
    /// `vor` (vv, vx, vi).
    Or,
    /// `vxor` (vv, vx, vi).
    Xor,
    /// `vsll` — logical left shift (vv, vx, vi\[uimm\]).
    Sll,
    /// `vsrl` — logical right shift (vv, vx, vi\[uimm\]).
    Srl,
    /// `vsra` — arithmetic right shift (vv, vx, vi\[uimm\]).
    Sra,
    /// `vmul` — low SEW bits of product (vv, vx; OPM funct3).
    Mul,
    /// `vmulh` — high SEW bits, signed×signed (vv, vx).
    Mulh,
    /// `vmulhu` — high SEW bits, unsigned×unsigned (vv, vx).
    Mulhu,
    /// `vdivu` — unsigned division (vv, vx).
    Divu,
    /// `vdiv` — signed division (vv, vx).
    Div,
    /// `vremu` — unsigned remainder (vv, vx).
    Remu,
    /// `vrem` — signed remainder (vv, vx).
    Rem,
}

impl VAluOp {
    /// Operations encoded under the `OPM*` funct3 space (multiply/divide).
    pub const fn is_opm(self) -> bool {
        matches!(
            self,
            VAluOp::Mul
                | VAluOp::Mulh
                | VAluOp::Mulhu
                | VAluOp::Divu
                | VAluOp::Div
                | VAluOp::Remu
                | VAluOp::Rem
        )
    }

    /// Does a `.vv` form exist?
    pub const fn has_vv(self) -> bool {
        !matches!(self, VAluOp::Rsub)
    }

    /// Does a `.vx` form exist? (All of this subset do.)
    pub const fn has_vx(self) -> bool {
        true
    }

    /// Does a `.vi` form exist?
    pub const fn has_vi(self) -> bool {
        matches!(
            self,
            VAluOp::Add
                | VAluOp::Rsub
                | VAluOp::And
                | VAluOp::Or
                | VAluOp::Xor
                | VAluOp::Sll
                | VAluOp::Srl
                | VAluOp::Sra
        )
    }

    /// Do the shift-style instructions interpret the immediate as unsigned?
    pub const fn imm_is_unsigned(self) -> bool {
        matches!(self, VAluOp::Sll | VAluOp::Srl | VAluOp::Sra)
    }
}

/// Vector integer compare condition — these produce a *mask* in `vd`
/// (`vmseq` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VCmp {
    /// `vmseq` (vv, vx, vi).
    Eq,
    /// `vmsne` (vv, vx, vi).
    Ne,
    /// `vmsltu` (vv, vx).
    Ltu,
    /// `vmslt` (vv, vx).
    Lt,
    /// `vmsleu` (vv, vx, vi).
    Leu,
    /// `vmsle` (vv, vx, vi).
    Le,
    /// `vmsgtu` (vx, vi).
    Gtu,
    /// `vmsgt` (vx, vi).
    Gt,
}

impl VCmp {
    /// Does a `.vv` form exist?
    pub const fn has_vv(self) -> bool {
        !matches!(self, VCmp::Gtu | VCmp::Gt)
    }

    /// Does a `.vi` form exist?
    pub const fn has_vi(self) -> bool {
        !matches!(self, VCmp::Ltu | VCmp::Lt)
    }
}

/// Mask-register logical operation (`vm<op>.mm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskOp {
    /// `vmandn.mm` — `vs2 & !vs1`.
    Andn,
    /// `vmand.mm`.
    And,
    /// `vmor.mm`.
    Or,
    /// `vmxor.mm`.
    Xor,
    /// `vmorn.mm` — `vs2 | !vs1`.
    Orn,
    /// `vmnand.mm`.
    Nand,
    /// `vmnor.mm`.
    Nor,
    /// `vmxnor.mm`.
    Xnor,
}

/// Single-width integer reduction operation (`vred<op>.vs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VRedOp {
    /// `vredsum.vs`.
    Sum,
    /// `vredand.vs`.
    And,
    /// `vredor.vs`.
    Or,
    /// `vredxor.vs`.
    Xor,
    /// `vredminu.vs`.
    Minu,
    /// `vredmin.vs`.
    Min,
    /// `vredmaxu.vs`.
    Maxu,
    /// `vredmax.vs`.
    Max,
}

/// One instruction of the modelled RV64IM + RVV subset.
///
/// Branch and jump offsets are **byte offsets relative to the instruction's
/// own PC**, exactly as in the binary encoding; the assembler layer
/// (`rvv-asm`) resolves labels to these offsets. All instructions are 4 bytes.
///
/// The `vm` field on vector instructions is the standard RVV polarity:
/// `vm == true` means *unmasked*; `vm == false` means "execute where mask
/// register `v0` has bit set".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings follow the RISC-V specifications
pub enum Instr {
    // ------------------------------------------------------------- scalar --
    /// `lui rd, imm20` — load upper immediate (`rd = imm20 << 12`).
    Lui { rd: XReg, imm20: i32 },
    /// `auipc rd, imm20` — add upper immediate to PC.
    Auipc { rd: XReg, imm20: i32 },
    /// `jal rd, offset` — jump and link.
    Jal { rd: XReg, offset: i32 },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr { rd: XReg, rs1: XReg, offset: i32 },
    /// Conditional branch.
    Branch {
        cond: BranchCond,
        rs1: XReg,
        rs2: XReg,
        offset: i32,
    },
    /// Scalar load. `signed` selects sign- vs zero-extension (`ld` is always
    /// `signed = true` by convention; width D ignores the flag).
    Load {
        width: MemWidth,
        signed: bool,
        rd: XReg,
        rs1: XReg,
        offset: i32,
    },
    /// Scalar store.
    Store {
        width: MemWidth,
        rs2: XReg,
        rs1: XReg,
        offset: i32,
    },
    /// Register-immediate ALU operation (`addi`, `slli`, …).
    OpImm {
        op: AluOp,
        rd: XReg,
        rs1: XReg,
        imm: i32,
    },
    /// Register-register ALU operation (`add`, `mul`, …).
    Op {
        op: AluOp,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    /// `csrr rd, csr` — read a vector-state CSR (`csrrs rd, csr, x0`).
    Csrr { rd: XReg, csr: VCsr },
    /// `ecall` — the runner treats this as *halt*.
    Ecall,
    /// `ebreak` — the runner treats this as a trap (test/failure hook).
    Ebreak,

    // ------------------------------------------------------ configuration --
    /// `vsetvli rd, rs1, vtype`.
    Vsetvli { rd: XReg, rs1: XReg, vtype: VType },
    /// `vsetivli rd, uimm, vtype` (5-bit immediate AVL).
    Vsetivli { rd: XReg, uimm: u8, vtype: VType },
    /// `vsetvl rd, rs1, rs2` (vtype from `rs2`).
    Vsetvl { rd: XReg, rs1: XReg, rs2: XReg },

    // ------------------------------------------------------ vector memory --
    /// Unit-stride load `vle<eew>.v vd, (rs1)`.
    VLoad {
        eew: Sew,
        vd: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// Unit-stride store `vse<eew>.v vs3, (rs1)`.
    VStore {
        eew: Sew,
        vs3: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// Strided load `vlse<eew>.v vd, (rs1), rs2`.
    VLoadStrided {
        eew: Sew,
        vd: VReg,
        rs1: XReg,
        rs2: XReg,
        vm: bool,
    },
    /// Strided store `vsse<eew>.v vs3, (rs1), rs2`.
    VStoreStrided {
        eew: Sew,
        vs3: VReg,
        rs1: XReg,
        rs2: XReg,
        vm: bool,
    },
    /// Indexed load `vlux/vloxei<eew>.v vd, (rs1), vs2` — `vs2` holds *byte*
    /// offsets.
    VLoadIndexed {
        eew: Sew,
        ordered: bool,
        vd: VReg,
        rs1: XReg,
        vs2: VReg,
        vm: bool,
    },
    /// Indexed store `vsux/vsoxei<eew>.v vs3, (rs1), vs2` — the paper's
    /// `VSUXEI` permutation workhorse.
    VStoreIndexed {
        eew: Sew,
        ordered: bool,
        vs3: VReg,
        rs1: XReg,
        vs2: VReg,
        vm: bool,
    },
    /// Whole-register load `vl<nregs>re8.v vd, (rs1)`; `nregs ∈ {1,2,4,8}`.
    /// Used by spill code.
    VLoadWhole { nregs: u8, vd: VReg, rs1: XReg },
    /// Whole-register store `vs<nregs>r.v vs3, (rs1)`.
    VStoreWhole { nregs: u8, vs3: VReg, rs1: XReg },
    /// Mask load `vlm.v vd, (rs1)` (EEW=8, ceil(vl/8) bytes).
    VLoadMask { vd: VReg, rs1: XReg },
    /// Mask store `vsm.v vs3, (rs1)`.
    VStoreMask { vs3: VReg, rs1: XReg },

    // -------------------------------------------------- vector arithmetic --
    /// Integer ALU, vector-vector.
    VOpVV {
        op: VAluOp,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        vm: bool,
    },
    /// Integer ALU, vector-scalar.
    VOpVX {
        op: VAluOp,
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// Integer ALU, vector-immediate (5-bit, sign- or zero-extended per op).
    VOpVI {
        op: VAluOp,
        vd: VReg,
        vs2: VReg,
        imm: i8,
        vm: bool,
    },
    /// Integer compare to mask, vector-vector.
    VCmpVV {
        cond: VCmp,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        vm: bool,
    },
    /// Integer compare to mask, vector-scalar.
    VCmpVX {
        cond: VCmp,
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// Integer compare to mask, vector-immediate.
    VCmpVI {
        cond: VCmp,
        vd: VReg,
        vs2: VReg,
        imm: i8,
        vm: bool,
    },
    /// `vmerge.vvm vd, vs2, vs1, v0` — `vd[i] = v0.mask[i] ? vs1[i] : vs2[i]`.
    VMergeVVM { vd: VReg, vs2: VReg, vs1: VReg },
    /// `vmerge.vxm vd, vs2, rs1, v0`.
    VMergeVXM { vd: VReg, vs2: VReg, rs1: XReg },
    /// `vmerge.vim vd, vs2, imm, v0`.
    VMergeVIM { vd: VReg, vs2: VReg, imm: i8 },
    /// `vmv.v.v vd, vs1`.
    VMvVV { vd: VReg, vs1: VReg },
    /// `vmv.v.x vd, rs1` — broadcast scalar.
    VMvVX { vd: VReg, rs1: XReg },
    /// `vmv.v.i vd, imm` — broadcast immediate.
    VMvVI { vd: VReg, imm: i8 },
    /// `vmv.s.x vd, rs1` — write element 0 only.
    VMvSX { vd: VReg, rs1: XReg },
    /// `vmv.x.s rd, vs2` — read element 0.
    VMvXS { rd: XReg, vs2: VReg },

    // ------------------------------------------------- vector permutation --
    /// `vslideup.vx vd, vs2, rs1`.
    VSlideUpVX {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// `vslideup.vi vd, vs2, uimm`.
    VSlideUpVI {
        vd: VReg,
        vs2: VReg,
        uimm: u8,
        vm: bool,
    },
    /// `vslidedown.vx vd, vs2, rs1`.
    VSlideDownVX {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// `vslidedown.vi vd, vs2, uimm`.
    VSlideDownVI {
        vd: VReg,
        vs2: VReg,
        uimm: u8,
        vm: bool,
    },
    /// `vslide1up.vx vd, vs2, rs1` — slide up one, insert scalar at 0.
    VSlide1Up {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// `vslide1down.vx vd, vs2, rs1`.
    VSlide1Down {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// `vrgather.vv vd, vs2, vs1` — `vd[i] = vs1[i] < VLMAX ? vs2[vs1[i]] : 0`.
    VRGatherVV {
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        vm: bool,
    },
    /// `vrgather.vx vd, vs2, rs1` — broadcast `vs2[rs1]`.
    VRGatherVX {
        vd: VReg,
        vs2: VReg,
        rs1: XReg,
        vm: bool,
    },
    /// `vcompress.vm vd, vs2, vs1` — pack elements selected by mask `vs1`.
    VCompress { vd: VReg, vs2: VReg, vs1: VReg },

    // ------------------------------------------------------- vector masks --
    /// Mask-register logical (`vmand.mm` etc.).
    VMaskLogic {
        op: MaskOp,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
    },
    /// `viota.m vd, vs2` — exclusive prefix popcount of mask `vs2` (the
    /// paper's in-register `enumerate`).
    VIota { vd: VReg, vs2: VReg, vm: bool },
    /// `vid.v vd` — element indices.
    VId { vd: VReg, vm: bool },
    /// `vcpop.m rd, vs2` — population count of mask into scalar.
    VCpop { rd: XReg, vs2: VReg, vm: bool },
    /// `vfirst.m rd, vs2` — index of first set mask bit, or -1.
    VFirst { rd: XReg, vs2: VReg, vm: bool },
    /// `vmsbf.m vd, vs2` — set-before-first (the paper's carry-mask trick).
    VMsbf { vd: VReg, vs2: VReg, vm: bool },
    /// `vmsif.m vd, vs2` — set-including-first.
    VMsif { vd: VReg, vs2: VReg, vm: bool },
    /// `vmsof.m vd, vs2` — set-only-first.
    VMsof { vd: VReg, vs2: VReg, vm: bool },

    // -------------------------------------------------- vector reductions --
    /// `vred<op>.vs vd, vs2, vs1` — `vd[0] = op(vs1[0], vs2[0..vl])`.
    VRed {
        op: VRedOp,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
        vm: bool,
    },
}

impl Instr {
    /// Is this instruction a member of the vector extension (as opposed to
    /// the scalar base ISA)?
    pub const fn is_vector(&self) -> bool {
        !matches!(
            self,
            Instr::Lui { .. }
                | Instr::Auipc { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Branch { .. }
                | Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::OpImm { .. }
                | Instr::Op { .. }
                | Instr::Csrr { .. }
                | Instr::Ecall
                | Instr::Ebreak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lmul, VType};

    #[test]
    fn display_scalar() {
        let i = Instr::OpImm {
            op: AluOp::Add,
            rd: XReg::new(10),
            rs1: XReg::new(10),
            imm: -4,
        };
        assert_eq!(i.to_string(), "addi x10, x10, -4");
        let i = Instr::Branch {
            cond: BranchCond::Ne,
            rs1: XReg::new(10),
            rs2: XReg::ZERO,
            offset: -32,
        };
        assert_eq!(i.to_string(), "bne x10, x0, -32");
        let i = Instr::Load {
            width: MemWidth::W,
            signed: false,
            rd: XReg::new(5),
            rs1: XReg::new(11),
            offset: 8,
        };
        assert_eq!(i.to_string(), "lwu x5, 8(x11)");
    }

    #[test]
    fn display_vector() {
        let i = Instr::Vsetvli {
            rd: XReg::new(13),
            rs1: XReg::new(10),
            vtype: VType::new(Sew::E32, Lmul::M1),
        };
        assert_eq!(i.to_string(), "vsetvli x13, x10, e32, m1, ta, mu");
        let i = Instr::VOpVV {
            op: VAluOp::Add,
            vd: VReg::new(8),
            vs2: VReg::new(8),
            vs1: VReg::new(9),
            vm: false,
        };
        assert_eq!(i.to_string(), "vadd.vv v8, v8, v9, v0.t");
        let i = Instr::VIota {
            vd: VReg::new(4),
            vs2: VReg::V0,
            vm: true,
        };
        assert_eq!(i.to_string(), "viota.m v4, v0");
    }

    #[test]
    fn vector_classification() {
        assert!(!Instr::Ecall.is_vector());
        assert!(Instr::VId {
            vd: VReg::V0,
            vm: true
        }
        .is_vector());
        assert!(Instr::Vsetvl {
            rd: XReg::ZERO,
            rs1: XReg::ZERO,
            rs2: XReg::ZERO
        }
        .is_vector());
    }

    #[test]
    fn form_availability() {
        assert!(!VAluOp::Rsub.has_vv());
        assert!(VAluOp::Rsub.has_vi());
        assert!(!VAluOp::Sub.has_vi());
        assert!(!VAluOp::Mul.has_vi());
        assert!(VAluOp::Mul.is_opm());
        assert!(!VAluOp::Add.is_opm());
        assert!(!VCmp::Gt.has_vv());
        assert!(!VCmp::Lt.has_vi());
        assert!(AluOp::Add.has_imm_form());
        assert!(!AluOp::Sub.has_imm_form());
        assert!(AluOp::Srl.is_shift());
    }
}
