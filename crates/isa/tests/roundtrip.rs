//! Property tests: `decode(encode(i)) == i` for every encodable instruction,
//! and `encode(decode(w)) == w` for every word that decodes.

use proptest::prelude::*;
use rvv_isa::{
    decode, encode, AluOp, BranchCond, Instr, Lmul, MaskOp, MemWidth, Sew, VAluOp, VCmp, VCsr,
    VRedOp, VReg, VType, XReg,
};

fn xreg() -> impl Strategy<Value = XReg> {
    (0u8..32).prop_map(XReg::new)
}

fn vreg() -> impl Strategy<Value = VReg> {
    (0u8..32).prop_map(VReg::new)
}

fn sew() -> impl Strategy<Value = Sew> {
    prop_oneof![
        Just(Sew::E8),
        Just(Sew::E16),
        Just(Sew::E32),
        Just(Sew::E64)
    ]
}

fn lmul() -> impl Strategy<Value = Lmul> {
    prop_oneof![
        Just(Lmul::M1),
        Just(Lmul::M2),
        Just(Lmul::M4),
        Just(Lmul::M8)
    ]
}

fn vtype() -> impl Strategy<Value = VType> {
    (sew(), lmul(), any::<bool>(), any::<bool>()).prop_map(|(sew, lmul, ta, ma)| VType {
        sew,
        lmul,
        ta,
        ma,
    })
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Or),
        Just(AluOp::And),
        Just(AluOp::Mul),
        Just(AluOp::Mulh),
        Just(AluOp::Mulhu),
        Just(AluOp::Div),
        Just(AluOp::Divu),
        Just(AluOp::Rem),
        Just(AluOp::Remu),
    ]
}

fn valu_op() -> impl Strategy<Value = VAluOp> {
    prop_oneof![
        Just(VAluOp::Add),
        Just(VAluOp::Sub),
        Just(VAluOp::Rsub),
        Just(VAluOp::Minu),
        Just(VAluOp::Min),
        Just(VAluOp::Maxu),
        Just(VAluOp::Max),
        Just(VAluOp::And),
        Just(VAluOp::Or),
        Just(VAluOp::Xor),
        Just(VAluOp::Sll),
        Just(VAluOp::Srl),
        Just(VAluOp::Sra),
        Just(VAluOp::Mul),
        Just(VAluOp::Mulh),
        Just(VAluOp::Mulhu),
        Just(VAluOp::Divu),
        Just(VAluOp::Div),
        Just(VAluOp::Remu),
        Just(VAluOp::Rem),
    ]
}

fn vcmp() -> impl Strategy<Value = VCmp> {
    prop_oneof![
        Just(VCmp::Eq),
        Just(VCmp::Ne),
        Just(VCmp::Ltu),
        Just(VCmp::Lt),
        Just(VCmp::Leu),
        Just(VCmp::Le),
        Just(VCmp::Gtu),
        Just(VCmp::Gt),
    ]
}

fn mask_op() -> impl Strategy<Value = MaskOp> {
    prop_oneof![
        Just(MaskOp::Andn),
        Just(MaskOp::And),
        Just(MaskOp::Or),
        Just(MaskOp::Xor),
        Just(MaskOp::Orn),
        Just(MaskOp::Nand),
        Just(MaskOp::Nor),
        Just(MaskOp::Xnor),
    ]
}

fn red_op() -> impl Strategy<Value = VRedOp> {
    prop_oneof![
        Just(VRedOp::Sum),
        Just(VRedOp::And),
        Just(VRedOp::Or),
        Just(VRedOp::Xor),
        Just(VRedOp::Minu),
        Just(VRedOp::Min),
        Just(VRedOp::Maxu),
        Just(VRedOp::Max),
    ]
}

fn branch_cond() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn mem_width() -> impl Strategy<Value = MemWidth> {
    prop_oneof![
        Just(MemWidth::B),
        Just(MemWidth::H),
        Just(MemWidth::W),
        Just(MemWidth::D)
    ]
}

fn whole_count() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
}

/// Generate only instructions the encoder accepts (valid operand forms and
/// in-range immediates).
fn instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (xreg(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm20)| Instr::Lui { rd, imm20 }),
        (xreg(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm20)| Instr::Auipc { rd, imm20 }),
        (xreg(), (-(1i32 << 19)..(1 << 19)).prop_map(|o| o * 2))
            .prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
        (xreg(), xreg(), -2048i32..=2047).prop_map(|(rd, rs1, offset)| Instr::Jalr {
            rd,
            rs1,
            offset
        }),
        (
            branch_cond(),
            xreg(),
            xreg(),
            (-2048i32..=2047).prop_map(|o| o * 2)
        )
            .prop_map(|(cond, rs1, rs2, offset)| Instr::Branch {
                cond,
                rs1,
                rs2,
                offset
            }),
        (mem_width(), any::<bool>(), xreg(), xreg(), -2048i32..=2047).prop_map(
            |(width, signed, rd, rs1, offset)| Instr::Load {
                width,
                // `ld` has no unsigned variant; normalize like the decoder.
                signed: signed || width == MemWidth::D,
                rd,
                rs1,
                offset
            }
        ),
        (mem_width(), xreg(), xreg(), -2048i32..=2047).prop_map(|(width, rs2, rs1, offset)| {
            Instr::Store {
                width,
                rs2,
                rs1,
                offset,
            }
        }),
        (alu_op(), xreg(), xreg(), -2048i32..=2047).prop_filter_map(
            "imm form must exist",
            |(op, rd, rs1, imm)| {
                if !op.has_imm_form() {
                    return None;
                }
                let imm = if op.is_shift() {
                    imm.rem_euclid(64)
                } else {
                    imm
                };
                Some(Instr::OpImm { op, rd, rs1, imm })
            }
        ),
        (alu_op(), xreg(), xreg(), xreg()).prop_map(|(op, rd, rs1, rs2)| Instr::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        Just(Instr::Ecall),
        Just(Instr::Ebreak),
        (
            xreg(),
            prop_oneof![Just(VCsr::Vl), Just(VCsr::Vtype), Just(VCsr::Vlenb)]
        )
            .prop_map(|(rd, csr)| Instr::Csrr { rd, csr }),
        (xreg(), xreg(), vtype()).prop_map(|(rd, rs1, vtype)| Instr::Vsetvli { rd, rs1, vtype }),
        (xreg(), 0u8..32, vtype()).prop_map(|(rd, uimm, vtype)| Instr::Vsetivli {
            rd,
            uimm,
            vtype
        }),
        (xreg(), xreg(), xreg()).prop_map(|(rd, rs1, rs2)| Instr::Vsetvl { rd, rs1, rs2 }),
        (sew(), vreg(), xreg(), any::<bool>()).prop_map(|(eew, vd, rs1, vm)| Instr::VLoad {
            eew,
            vd,
            rs1,
            vm
        }),
        (sew(), vreg(), xreg(), any::<bool>()).prop_map(|(eew, vs3, rs1, vm)| Instr::VStore {
            eew,
            vs3,
            rs1,
            vm
        }),
        (sew(), vreg(), xreg(), xreg(), any::<bool>()).prop_map(|(eew, vd, rs1, rs2, vm)| {
            Instr::VLoadStrided {
                eew,
                vd,
                rs1,
                rs2,
                vm,
            }
        }),
        (sew(), vreg(), xreg(), xreg(), any::<bool>()).prop_map(|(eew, vs3, rs1, rs2, vm)| {
            Instr::VStoreStrided {
                eew,
                vs3,
                rs1,
                rs2,
                vm,
            }
        }),
        (sew(), any::<bool>(), vreg(), xreg(), vreg(), any::<bool>()).prop_map(
            |(eew, ordered, vd, rs1, vs2, vm)| Instr::VLoadIndexed {
                eew,
                ordered,
                vd,
                rs1,
                vs2,
                vm
            }
        ),
        (sew(), any::<bool>(), vreg(), xreg(), vreg(), any::<bool>()).prop_map(
            |(eew, ordered, vs3, rs1, vs2, vm)| Instr::VStoreIndexed {
                eew,
                ordered,
                vs3,
                rs1,
                vs2,
                vm
            }
        ),
        (whole_count(), vreg(), xreg()).prop_map(|(nregs, vd, rs1)| Instr::VLoadWhole {
            nregs,
            vd,
            rs1
        }),
        (whole_count(), vreg(), xreg()).prop_map(|(nregs, vs3, rs1)| Instr::VStoreWhole {
            nregs,
            vs3,
            rs1
        }),
        (vreg(), xreg()).prop_map(|(vd, rs1)| Instr::VLoadMask { vd, rs1 }),
        (vreg(), xreg()).prop_map(|(vs3, rs1)| Instr::VStoreMask { vs3, rs1 }),
        (valu_op(), vreg(), vreg(), vreg(), any::<bool>()).prop_filter_map(
            ".vv must exist",
            |(op, vd, vs2, vs1, vm)| op.has_vv().then_some(Instr::VOpVV {
                op,
                vd,
                vs2,
                vs1,
                vm
            })
        ),
        (valu_op(), vreg(), vreg(), xreg(), any::<bool>()).prop_map(|(op, vd, vs2, rs1, vm)| {
            Instr::VOpVX {
                op,
                vd,
                vs2,
                rs1,
                vm,
            }
        }),
        (valu_op(), vreg(), vreg(), -16i8..=15, any::<bool>()).prop_filter_map(
            ".vi must exist",
            |(op, vd, vs2, imm, vm)| {
                if !op.has_vi() {
                    return None;
                }
                let imm = if op.imm_is_unsigned() {
                    imm & 0x1f
                } else {
                    imm
                };
                Some(Instr::VOpVI {
                    op,
                    vd,
                    vs2,
                    imm,
                    vm,
                })
            }
        ),
        (vcmp(), vreg(), vreg(), vreg(), any::<bool>()).prop_filter_map(
            "compare .vv must exist",
            |(cond, vd, vs2, vs1, vm)| cond.has_vv().then_some(Instr::VCmpVV {
                cond,
                vd,
                vs2,
                vs1,
                vm
            })
        ),
        (vcmp(), vreg(), vreg(), xreg(), any::<bool>()).prop_map(|(cond, vd, vs2, rs1, vm)| {
            Instr::VCmpVX {
                cond,
                vd,
                vs2,
                rs1,
                vm,
            }
        }),
        (vcmp(), vreg(), vreg(), -16i8..=15, any::<bool>()).prop_filter_map(
            "compare .vi must exist",
            |(cond, vd, vs2, imm, vm)| cond.has_vi().then_some(Instr::VCmpVI {
                cond,
                vd,
                vs2,
                imm,
                vm
            })
        ),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instr::VMergeVVM { vd, vs2, vs1 }),
        (vreg(), vreg(), xreg()).prop_map(|(vd, vs2, rs1)| Instr::VMergeVXM { vd, vs2, rs1 }),
        (vreg(), vreg(), -16i8..=15).prop_map(|(vd, vs2, imm)| Instr::VMergeVIM { vd, vs2, imm }),
        (vreg(), vreg()).prop_map(|(vd, vs1)| Instr::VMvVV { vd, vs1 }),
        (vreg(), xreg()).prop_map(|(vd, rs1)| Instr::VMvVX { vd, rs1 }),
        (vreg(), -16i8..=15).prop_map(|(vd, imm)| Instr::VMvVI { vd, imm }),
        (vreg(), xreg()).prop_map(|(vd, rs1)| Instr::VMvSX { vd, rs1 }),
        (xreg(), vreg()).prop_map(|(rd, vs2)| Instr::VMvXS { rd, vs2 }),
        (vreg(), vreg(), xreg(), any::<bool>()).prop_map(|(vd, vs2, rs1, vm)| Instr::VSlideUpVX {
            vd,
            vs2,
            rs1,
            vm
        }),
        (vreg(), vreg(), 0u8..32, any::<bool>())
            .prop_map(|(vd, vs2, uimm, vm)| Instr::VSlideUpVI { vd, vs2, uimm, vm }),
        (vreg(), vreg(), xreg(), any::<bool>())
            .prop_map(|(vd, vs2, rs1, vm)| Instr::VSlideDownVX { vd, vs2, rs1, vm }),
        (vreg(), vreg(), 0u8..32, any::<bool>())
            .prop_map(|(vd, vs2, uimm, vm)| Instr::VSlideDownVI { vd, vs2, uimm, vm }),
        (vreg(), vreg(), xreg(), any::<bool>()).prop_map(|(vd, vs2, rs1, vm)| Instr::VSlide1Up {
            vd,
            vs2,
            rs1,
            vm
        }),
        (vreg(), vreg(), xreg(), any::<bool>()).prop_map(|(vd, vs2, rs1, vm)| Instr::VSlide1Down {
            vd,
            vs2,
            rs1,
            vm
        }),
        (vreg(), vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vs1, vm)| Instr::VRGatherVV {
            vd,
            vs2,
            vs1,
            vm
        }),
        (vreg(), vreg(), xreg(), any::<bool>()).prop_map(|(vd, vs2, rs1, vm)| Instr::VRGatherVX {
            vd,
            vs2,
            rs1,
            vm
        }),
        (vreg(), vreg(), vreg()).prop_map(|(vd, vs2, vs1)| Instr::VCompress { vd, vs2, vs1 }),
        (mask_op(), vreg(), vreg(), vreg()).prop_map(|(op, vd, vs2, vs1)| Instr::VMaskLogic {
            op,
            vd,
            vs2,
            vs1
        }),
        (vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vm)| Instr::VIota { vd, vs2, vm }),
        (vreg(), any::<bool>()).prop_map(|(vd, vm)| Instr::VId { vd, vm }),
        (xreg(), vreg(), any::<bool>()).prop_map(|(rd, vs2, vm)| Instr::VCpop { rd, vs2, vm }),
        (xreg(), vreg(), any::<bool>()).prop_map(|(rd, vs2, vm)| Instr::VFirst { rd, vs2, vm }),
        (vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vm)| Instr::VMsbf { vd, vs2, vm }),
        (vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vm)| Instr::VMsif { vd, vs2, vm }),
        (vreg(), vreg(), any::<bool>()).prop_map(|(vd, vs2, vm)| Instr::VMsof { vd, vs2, vm }),
        (red_op(), vreg(), vreg(), vreg(), any::<bool>()).prop_map(|(op, vd, vs2, vs1, vm)| {
            Instr::VRed {
                op,
                vd,
                vs2,
                vs1,
                vm,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn encode_decode_roundtrip(i in instr()) {
        let word = encode(&i).expect("generator only produces encodable instructions");
        let back = decode(word).expect("encoded word must decode");
        prop_assert_eq!(back, i);
    }

    #[test]
    fn decode_encode_roundtrip(word in any::<u32>()) {
        // Most random words don't decode; those that do must re-encode
        // to the same bits (the encoding has no don't-care bits we model).
        if let Ok(i) = decode(word) {
            let re = encode(&i).expect("decoded instruction must re-encode");
            prop_assert_eq!(re, word, "decode({:#010x}) = {} re-encoded differently", word, i);
        }
    }

    #[test]
    fn display_never_panics(i in instr()) {
        let _ = i.to_string();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    /// Words one or two bit flips, or a rewritten funct6/vm or
    /// opcode/funct3, away from a real encoding: whatever decodes must
    /// re-encode to the same word, so no don't-care bit is ever accepted.
    #[test]
    fn mutated_encodings_decode_canonically(
        i in instr(),
        how in 0u32..4,
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let w = encode(&i).expect("generator only produces encodable instructions");
        let w = match how {
            0 => w ^ (1 << (a % 32)),
            1 => w ^ (1 << (a % 32)) ^ (1 << (b % 32)),
            2 => (w & !(0x7f << 25)) | (a & (0x7f << 25)),
            _ => (w & !0x707f) | (a & 0x707f),
        };
        if let Ok(d) = decode(w) {
            let re = encode(&d).expect("decoded instruction must re-encode");
            prop_assert_eq!(re, w, "decode({:#010x}) = {} re-encoded differently", w, d);
        }
    }
}

#[test]
fn noncanonical_vid_is_rejected() {
    // vid.v has no vs2 operand: its vs2 field must be zero.
    let vid = Instr::VId {
        vd: VReg::new(8),
        vm: false,
    };
    assert_eq!(encode(&vid).unwrap(), 0x5008_a457);
    assert_eq!(decode(0x5008_a457).unwrap(), vid);
    assert!(decode(0x5088_a457).is_err());
}
