//! 32-bit binary instruction decoding — the inverse of [`crate::encode`].
//!
//! `decode(encode(i)) == i` for every encodable instruction `i` (with the
//! single normalization that `ld` is always decoded with `signed = true`),
//! and `encode(decode(w)) == w` for every word that decodes; both are
//! property-tested in `tests/roundtrip.rs`.

use crate::instr::Instr;
use crate::table::{self, Operands};
use core::fmt;

/// Error produced when a 32-bit word is not a recognizable instruction of
/// the modelled subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
    /// Human-readable reason.
    pub reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {:#010x}: {}", self.word, self.reason)
    }
}

impl std::error::Error for DecodeError {}

/// Decode a 32-bit word into an [`Instr`]: find the one table row whose
/// fixed bits the word carries, then read each operand field.
///
/// # Errors
/// Returns a [`DecodeError`] if no row matches (including any word with a
/// bit set that the instruction's encoding fixes to zero) or an operand
/// holds a value its field rejects (a reserved `vtype`, an unmodelled CSR).
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let err = |reason| DecodeError { word, reason };
    let row = table::find(word).ok_or(err("no instruction of the modelled subset"))?;
    let mut ops = Operands::default();
    for &field in row.fields() {
        let v = field.extract(word);
        field
            .check(v)
            .map_err(|_| err("operand value out of range"))?;
        if let Some(s) = field.slot() {
            ops[s as usize] = v;
        }
    }
    Ok(table::join(row, &ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use crate::{AluOp, VAluOp, VReg, XReg};

    #[test]
    fn decode_known_words() {
        assert_eq!(
            decode(0x0000_0013).unwrap(),
            Instr::OpImm {
                op: AluOp::Add,
                rd: XReg::ZERO,
                rs1: XReg::ZERO,
                imm: 0
            }
        );
        assert_eq!(decode(0x0000_0073).unwrap(), Instr::Ecall);
        assert_eq!(decode(0x0010_0073).unwrap(), Instr::Ebreak);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(0xffff_ffff).is_err());
        assert!(decode(0x0000_0000).is_err()); // all-zero is not a valid instruction
    }

    #[test]
    fn roundtrip_spot_checks() {
        use crate::{Lmul, Sew, VType};
        let samples = [
            Instr::VMsbf {
                vd: VReg::new(3),
                vs2: VReg::new(5),
                vm: true,
            },
            Instr::VCpop {
                rd: XReg::new(9),
                vs2: VReg::V0,
                vm: true,
            },
            Instr::VCompress {
                vd: VReg::new(8),
                vs2: VReg::new(16),
                vs1: VReg::new(1),
            },
            Instr::VMergeVIM {
                vd: VReg::new(2),
                vs2: VReg::new(4),
                imm: -8,
            },
            Instr::VMvVI {
                vd: VReg::new(2),
                imm: -1,
            },
            Instr::Vsetivli {
                rd: XReg::new(1),
                uimm: 16,
                vtype: VType {
                    sew: Sew::E64,
                    lmul: Lmul::M2,
                    ta: false,
                    ma: true,
                },
            },
            Instr::VLoadWhole {
                nregs: 8,
                vd: VReg::new(8),
                rs1: XReg::new(2),
            },
            Instr::VStoreMask {
                vs3: VReg::new(7),
                rs1: XReg::new(4),
            },
            Instr::VOpVI {
                op: VAluOp::Srl,
                vd: VReg::new(1),
                vs2: VReg::new(2),
                imm: 31,
                vm: false,
            },
            Instr::VOpVV {
                op: VAluOp::Mul,
                vd: VReg::new(4),
                vs2: VReg::new(6),
                vs1: VReg::new(8),
                vm: true,
            },
            Instr::VSlide1Down {
                vd: VReg::new(1),
                vs2: VReg::new(2),
                rs1: XReg::new(3),
                vm: true,
            },
            Instr::Lui {
                rd: XReg::new(7),
                imm20: -1,
            },
            Instr::Jalr {
                rd: XReg::RA,
                rs1: XReg::new(5),
                offset: -2048,
            },
        ];
        for s in samples {
            let w = encode(&s).unwrap();
            assert_eq!(decode(w).unwrap(), s, "roundtrip failed for {s}");
        }
    }
}
