//! The instruction table: one [`Row`] per mnemonic form of the modelled
//! subset.
//!
//! A row holds the mnemonic, the fixed bits that select it (`bits` under
//! `mask`) and its operand format, an ordered list of [`Field`]s. Each field
//! knows where its value sits in the 32-bit word, how it is written in
//! assembly and which values it admits. [`crate::encode`], [`crate::decode`],
//! `Display for Instr` and [`crate::parse_asm`] are walks over these rows, so
//! each instruction's facts are written down once, here.
//!
//! A row's mask is every bit that no operand field owns. A word with a
//! don't-care bit set therefore matches no row: `decode` accepts only the
//! canonical encoding of each instruction.

use crate::encode::EncodeError;
use crate::instr::{AluOp, BranchCond, Instr, MaskOp, MemWidth, VAluOp, VCmp, VCsr, VRedOp};
use crate::{Sew, VReg, VType, XReg};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

const OPC_LUI: u32 = 0b0110111;
const OPC_AUIPC: u32 = 0b0010111;
const OPC_JAL: u32 = 0b1101111;
const OPC_JALR: u32 = 0b1100111;
const OPC_BRANCH: u32 = 0b1100011;
const OPC_LOAD: u32 = 0b0000011;
const OPC_STORE: u32 = 0b0100011;
const OPC_OP_IMM: u32 = 0b0010011;
const OPC_OP: u32 = 0b0110011;
const OPC_SYSTEM: u32 = 0b1110011;
const OPC_OP_V: u32 = 0b1010111;
const OPC_LOAD_FP: u32 = 0b0000111;
const OPC_STORE_FP: u32 = 0b0100111;

/// `OP-V` funct3 spaces.
const OPIVV: u32 = 0b000;
const OPMVV: u32 = 0b010;
const OPIVI: u32 = 0b011;
const OPIVX: u32 = 0b100;
const OPMVX: u32 = 0b110;
const OPCFG: u32 = 0b111;

/// The `vm` bit set: unmasked.
const VM1: u32 = 1 << 25;

/// Vector memory `mop` (bits 27:26) and unit-stride `lumop` (bits 24:20).
const MOP_INDEXED_UNORDERED: u32 = 0b01 << 26;
const MOP_STRIDED: u32 = 0b10 << 26;
const MOP_INDEXED_ORDERED: u32 = 0b11 << 26;
const LUMOP_WHOLE: u32 = 0b01000 << 20;
const LUMOP_MASK: u32 = 0b01011 << 20;

/// An `OP-V` arithmetic word: `funct6[31:26]` and `funct3[14:12]`.
const fn opv(funct6: u32, funct3: u32) -> u32 {
    funct6 << 26 | funct3 << 12 | OPC_OP_V
}

/// One operand of an instruction form: where its value sits in the word,
/// how it is written in assembly and which values it admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Scalar destination `rd`, bits 11:7.
    Xd,
    /// Scalar source `rs1`, bits 19:15.
    Xs1,
    /// Scalar source `rs2`, bits 24:20.
    Xs2,
    /// Vector destination `vd` (the data register `vs3` of a store), bits
    /// 11:7.
    Vd,
    /// Vector source `vs1`, bits 19:15.
    Vs1,
    /// Vector source `vs2`, bits 24:20.
    Vs2,
    /// Base address register `rs1`, written `(x5)`, bits 19:15.
    Base,
    /// I-type signed immediate, or a load or `jalr` offset, bits 31:20.
    Imm12,
    /// S-type signed store offset, bits 31:25 and 11:7.
    StoreOff,
    /// B-type branch byte offset: even, within ±4 KiB.
    BranchOff,
    /// J-type `jal` byte offset: even, within ±1 MiB.
    JumpOff,
    /// U-type upper immediate, bits 31:12, written in hex.
    Upper,
    /// RV64 shift amount, bits 25:20.
    Shamt,
    /// 5-bit signed vector immediate, bits 19:15.
    Simm5,
    /// 5-bit unsigned immediate, bits 19:15.
    Uimm5,
    /// Vector CSR address, bits 31:20, written by name.
    Csr,
    /// `vsetvli`'s `vtype` immediate, bits 30:20, written `e32, m1, ta, mu`.
    Vtype11,
    /// `vsetivli`'s `vtype` immediate, bits 29:20.
    Vtype10,
    /// Mask bit 25: 1 is unmasked; 0 is written as a trailing `v0.t`.
    Vm,
    /// The `v0` operand of the merges. It is text only: their `vm` bit is
    /// a fixed 0.
    V0,
}

/// Where a field's value sits in the word: `(word lsb, width, value lsb)`
/// chunks.
type Chunks = &'static [(u32, u32, u32)];

impl Field {
    /// Name (for errors), bit chunks and inclusive value range. Fields with
    /// a negative lower bound are sign-extended from their top value bit.
    fn layout(self) -> (&'static str, Chunks, i64, i64) {
        use Field::*;
        match self {
            Xd | Vd => ("rd", &[(7, 5, 0)], 0, 31),
            Xs1 | Vs1 | Base => ("rs1", &[(15, 5, 0)], 0, 31),
            Xs2 | Vs2 => ("rs2", &[(20, 5, 0)], 0, 31),
            Imm12 => ("imm12", &[(20, 12, 0)], -2048, 2047),
            StoreOff => ("store offset", &[(7, 5, 0), (25, 7, 5)], -2048, 2047),
            BranchOff => (
                "branch offset",
                &[(8, 4, 1), (25, 6, 5), (7, 1, 11), (31, 1, 12)],
                -4096,
                4094,
            ),
            JumpOff => (
                "jal offset",
                &[(21, 10, 1), (20, 1, 11), (12, 8, 12), (31, 1, 20)],
                -(1 << 20),
                (1 << 20) - 2,
            ),
            Upper => ("imm20", &[(12, 20, 0)], -(1 << 19), (1 << 19) - 1),
            Shamt => ("shamt", &[(20, 6, 0)], 0, 63),
            Simm5 => ("simm5", &[(15, 5, 0)], -16, 15),
            Uimm5 => ("uimm5", &[(15, 5, 0)], 0, 31),
            Csr => ("csr", &[(20, 12, 0)], 0xc20, 0xc22),
            Vtype11 => ("vtype", &[(20, 11, 0)], 0, 0xff),
            Vtype10 => ("vtype", &[(20, 10, 0)], 0, 0xff),
            Vm => ("vm", &[(25, 1, 0)], 0, 1),
            V0 => ("v0", &[], 0, 0),
        }
    }

    /// The values this field can hold. Inside it, `vtype` values with a
    /// reserved SEW or LMUL are rejected too, and offsets must be even.
    pub fn range(self) -> RangeInclusive<i64> {
        let (_, _, lo, hi) = self.layout();
        lo..=hi
    }

    /// Reject a value this field cannot hold.
    pub(crate) fn check(self, v: i64) -> Result<(), EncodeError> {
        let (field, chunks, lo, hi) = self.layout();
        // Value bits below the lowest chunk are implied zeros.
        let align = chunks.iter().map(|c| c.2).min().unwrap_or(0);
        if v & ((1 << align) - 1) != 0 {
            return Err(EncodeError::MisalignedOffset(v));
        }
        let vtype = matches!(self, Field::Vtype11 | Field::Vtype10);
        if !(lo..=hi).contains(&v) || (vtype && VType::from_bits(v as u64).is_none()) {
            return Err(EncodeError::ImmOutOfRange { field, value: v });
        }
        Ok(())
    }

    /// The field's bits of `v`, placed in the word.
    pub(crate) fn insert(self, v: i64) -> u32 {
        let (_, chunks, _, _) = self.layout();
        chunks.iter().fold(0, |w, &(at, n, s)| {
            w | (((v >> s) as u32 & ((1 << n) - 1)) << at)
        })
    }

    /// The field's value in `word`.
    pub(crate) fn extract(self, word: u32) -> i64 {
        let (_, chunks, lo, _) = self.layout();
        let (mut v, mut width) = (0u32, 0);
        for &(at, n, s) in chunks {
            v |= ((word >> at) & ((1 << n) - 1)) << s;
            width = width.max(s + n);
        }
        if lo < 0 {
            let unused = 32 - width;
            i64::from(((v << unused) as i32) >> unused)
        } else {
            i64::from(v)
        }
    }

    /// The operand slot the value occupies; `None` for text-only fields.
    pub(crate) fn slot(self) -> Option<Slot> {
        use Field::*;
        Some(match self {
            Xd | Vd => Slot::Rd,
            Xs1 | Vs1 | Base | Simm5 | Uimm5 => Slot::Rs1,
            Xs2 | Vs2 => Slot::Rs2,
            Imm12 | StoreOff | BranchOff | JumpOff | Upper | Shamt | Csr | Vtype11 | Vtype10 => {
                Slot::Imm
            }
            Vm => Slot::Vm,
            V0 => return None,
        })
    }

    /// This field's value among an instruction's operands.
    pub(crate) fn value(self, ops: &Operands) -> i64 {
        self.slot().map_or(0, |s| ops[s as usize])
    }
}

/// One mnemonic form: the bits that select it and its operand format.
#[derive(Debug)]
pub struct Row {
    mnemonic: String,
    bits: u32,
    mask: u32,
    fields: Vec<Field>,
    /// The typed instruction of this form with every operand cleared.
    key: Instr,
}

impl Row {
    fn new(mnemonic: String, bits: u32, fields: &[Field], proto: Instr) -> Row {
        let owned = fields.iter().fold(0, |m, f| m | f.insert(-1));
        debug_assert_eq!(bits & owned, 0, "{mnemonic}: fixed bits overlap a field");
        Row {
            mnemonic,
            bits,
            mask: !owned,
            fields: fields.to_vec(),
            key: strip(&proto).0,
        }
    }

    /// The mnemonic, e.g. `vadd.vv`.
    pub fn mnemonic(&self) -> &str {
        &self.mnemonic
    }

    /// The operands in assembly order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The instruction of this form with operand `values`, given in
    /// [`Row::fields`] order.
    ///
    /// # Errors
    /// A value outside its field's range, or a wrong number of values.
    pub fn instr(&self, values: &[i64]) -> Result<Instr, EncodeError> {
        if values.len() != self.fields.len() {
            return Err(EncodeError::InvalidForm("wrong number of operands"));
        }
        let mut ops = Operands::default();
        for (&field, &v) in self.fields.iter().zip(values) {
            field.check(v)?;
            if let Some(s) = field.slot() {
                ops[s as usize] = v;
            }
        }
        Ok(join(self, &ops))
    }

    /// The word with this row's fields set from `ops`.
    pub(crate) fn encode(&self, ops: &Operands) -> Result<u32, EncodeError> {
        self.fields.iter().try_fold(self.bits, |w, &f| {
            let v = f.value(ops);
            f.check(v)?;
            Ok(w | f.insert(v))
        })
    }

    fn matches(&self, word: u32) -> bool {
        word & self.mask == self.bits
    }
}

/// Where an operand sits in an [`Instr`], named by its encoding position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// `rd`/`vd`/`vs3`, bits 11:7.
    Rd,
    /// `rs1`/`vs1` or a 5-bit immediate, bits 19:15.
    Rs1,
    /// `rs2`/`vs2`, bits 24:20.
    Rs2,
    /// Every wider immediate, offset, CSR or `vtype`.
    Imm,
    /// The mask bit.
    Vm,
}

/// An instruction's operand values, indexed by [`Slot`].
pub(crate) type Operands = [i64; 5];

/// A typed operand seen as an integer.
trait Operand {
    fn get(&self) -> i64;
    /// Store `v`, which the operand's field has checked (or 0, which clears
    /// it).
    fn set(&mut self, v: i64);
}

impl Operand for XReg {
    fn get(&self) -> i64 {
        self.num().into()
    }
    fn set(&mut self, v: i64) {
        *self = XReg::new(v as u8);
    }
}

impl Operand for VReg {
    fn get(&self) -> i64 {
        self.num().into()
    }
    fn set(&mut self, v: i64) {
        *self = VReg::new(v as u8);
    }
}

impl Operand for i32 {
    fn get(&self) -> i64 {
        (*self).into()
    }
    fn set(&mut self, v: i64) {
        *self = v as i32;
    }
}

impl Operand for i8 {
    fn get(&self) -> i64 {
        (*self).into()
    }
    fn set(&mut self, v: i64) {
        *self = v as i8;
    }
}

impl Operand for u8 {
    fn get(&self) -> i64 {
        (*self).into()
    }
    fn set(&mut self, v: i64) {
        *self = v as u8;
    }
}

impl Operand for bool {
    fn get(&self) -> i64 {
        (*self).into()
    }
    fn set(&mut self, v: i64) {
        *self = v != 0;
    }
}

impl Operand for VType {
    fn get(&self) -> i64 {
        self.to_bits() as i64
    }
    fn set(&mut self, v: i64) {
        *self = VType::from_bits(v as u64).expect("vtype checked by its field");
    }
}

impl Operand for VCsr {
    fn get(&self) -> i64 {
        self.addr().into()
    }
    fn set(&mut self, v: i64) {
        // The cleared value 0 is no CSR; it reads as `vl`.
        *self = VCsr::from_addr(v as u32).unwrap_or(VCsr::Vl);
    }
}

/// Hand every operand of `i` to `f` with the slot it occupies. This is the
/// one place that knows which field of each `Instr` variant is which
/// operand; everything else in the table is keyed by the rest of the
/// variant (its op, width, EEW, …).
fn visit(i: &mut Instr, f: &mut dyn FnMut(Slot, &mut dyn Operand)) {
    use Instr::*;
    use Slot::{Imm, Rd, Rs1, Rs2, Vm};
    match i {
        Ecall | Ebreak => {}
        Lui { rd, imm20: imm } | Auipc { rd, imm20: imm } | Jal { rd, offset: imm } => {
            f(Rd, rd);
            f(Imm, imm);
        }
        Jalr { rd, rs1, offset }
        | Load {
            rd, rs1, offset, ..
        }
        | OpImm {
            rd,
            rs1,
            imm: offset,
            ..
        } => {
            f(Rd, rd);
            f(Rs1, rs1);
            f(Imm, offset);
        }
        Branch {
            rs1, rs2, offset, ..
        }
        | Store {
            rs1, rs2, offset, ..
        } => {
            f(Rs1, rs1);
            f(Rs2, rs2);
            f(Imm, offset);
        }
        Op { rd, rs1, rs2, .. } | Vsetvl { rd, rs1, rs2 } => {
            f(Rd, rd);
            f(Rs1, rs1);
            f(Rs2, rs2);
        }
        Csrr { rd, csr } => {
            f(Rd, rd);
            f(Imm, csr);
        }
        Vsetvli { rd, rs1, vtype } => {
            f(Rd, rd);
            f(Rs1, rs1);
            f(Imm, vtype);
        }
        Vsetivli { rd, uimm, vtype } => {
            f(Rd, rd);
            f(Rs1, uimm);
            f(Imm, vtype);
        }
        VLoadWhole { vd, rs1, .. }
        | VStoreWhole { vs3: vd, rs1, .. }
        | VLoadMask { vd, rs1 }
        | VStoreMask { vs3: vd, rs1 }
        | VMvVX { vd, rs1 }
        | VMvSX { vd, rs1 } => {
            f(Rd, vd);
            f(Rs1, rs1);
        }
        VLoad { vd, rs1, vm, .. }
        | VStore {
            vs3: vd, rs1, vm, ..
        } => {
            f(Rd, vd);
            f(Rs1, rs1);
            f(Vm, vm);
        }
        VLoadStrided {
            vd, rs1, rs2, vm, ..
        }
        | VStoreStrided {
            vs3: vd,
            rs1,
            rs2,
            vm,
            ..
        } => {
            f(Rd, vd);
            f(Rs1, rs1);
            f(Rs2, rs2);
            f(Vm, vm);
        }
        VOpVV {
            vd, vs2, vs1, vm, ..
        }
        | VCmpVV {
            vd, vs2, vs1, vm, ..
        }
        | VRGatherVV { vd, vs2, vs1, vm }
        | VRed {
            vd, vs2, vs1, vm, ..
        } => {
            f(Rd, vd);
            f(Rs1, vs1);
            f(Rs2, vs2);
            f(Vm, vm);
        }
        VLoadIndexed {
            vd, rs1, vs2, vm, ..
        }
        | VStoreIndexed {
            vs3: vd,
            rs1,
            vs2,
            vm,
            ..
        }
        | VOpVX {
            vd, vs2, rs1, vm, ..
        }
        | VCmpVX {
            vd, vs2, rs1, vm, ..
        }
        | VSlideUpVX { vd, vs2, rs1, vm }
        | VSlideDownVX { vd, vs2, rs1, vm }
        | VSlide1Up { vd, vs2, rs1, vm }
        | VSlide1Down { vd, vs2, rs1, vm }
        | VRGatherVX { vd, vs2, rs1, vm } => {
            f(Rd, vd);
            f(Rs1, rs1);
            f(Rs2, vs2);
            f(Vm, vm);
        }
        VOpVI {
            vd, vs2, imm, vm, ..
        }
        | VCmpVI {
            vd, vs2, imm, vm, ..
        } => {
            f(Rd, vd);
            f(Rs1, imm);
            f(Rs2, vs2);
            f(Vm, vm);
        }
        VSlideUpVI { vd, vs2, uimm, vm } | VSlideDownVI { vd, vs2, uimm, vm } => {
            f(Rd, vd);
            f(Rs1, uimm);
            f(Rs2, vs2);
            f(Vm, vm);
        }
        VMergeVVM { vd, vs2, vs1 }
        | VCompress { vd, vs2, vs1 }
        | VMaskLogic { vd, vs2, vs1, .. } => {
            f(Rd, vd);
            f(Rs1, vs1);
            f(Rs2, vs2);
        }
        VMergeVXM { vd, vs2, rs1 } => {
            f(Rd, vd);
            f(Rs1, rs1);
            f(Rs2, vs2);
        }
        VMergeVIM { vd, vs2, imm } => {
            f(Rd, vd);
            f(Rs1, imm);
            f(Rs2, vs2);
        }
        VMvVV { vd, vs1 } => {
            f(Rd, vd);
            f(Rs1, vs1);
        }
        VMvVI { vd, imm } => {
            f(Rd, vd);
            f(Rs1, imm);
        }
        VMvXS { rd, vs2 } => {
            f(Rd, rd);
            f(Rs2, vs2);
        }
        VIota { vd, vs2, vm }
        | VMsbf { vd, vs2, vm }
        | VMsif { vd, vs2, vm }
        | VMsof { vd, vs2, vm } => {
            f(Rd, vd);
            f(Rs2, vs2);
            f(Vm, vm);
        }
        VCpop { rd, vs2, vm } | VFirst { rd, vs2, vm } => {
            f(Rd, rd);
            f(Rs2, vs2);
            f(Vm, vm);
        }
        VId { vd, vm } => {
            f(Rd, vd);
            f(Vm, vm);
        }
    }
}

/// Split `i` into its table key (every operand cleared) and its operands.
fn strip(i: &Instr) -> (Instr, Operands) {
    let mut key = *i;
    let mut ops = Operands::default();
    visit(&mut key, &mut |s, o| {
        ops[s as usize] = o.get();
        o.set(0);
    });
    // `ld` has no unsigned form: both flag values name the one row.
    if let Instr::Load {
        width: MemWidth::D,
        signed,
        ..
    } = &mut key
    {
        *signed = true;
    }
    (key, ops)
}

/// The row of `i`'s form and `i`'s operands; `None` for a form the ISA
/// lacks (e.g. `vsub.vi`).
pub(crate) fn split(i: &Instr) -> Option<(&'static Row, Operands)> {
    let (key, ops) = strip(i);
    let t = table();
    t.by_key.get(&key).map(|&r| (&t.rows[r], ops))
}

/// The instruction of `row`'s form with operands `ops`, which the row's
/// fields have checked.
pub(crate) fn join(row: &Row, ops: &Operands) -> Instr {
    let mut i = row.key;
    visit(&mut i, &mut |s, o| o.set(ops[s as usize]));
    i
}

/// Every row of the table.
pub fn rows() -> &'static [Row] {
    &table().rows
}

/// The row spelled `mnemonic`.
pub(crate) fn by_mnemonic(mnemonic: &str) -> Option<&'static Row> {
    let t = table();
    t.by_mnemonic.get(mnemonic).map(|&r| &t.rows[r])
}

/// The row whose fixed bits `word` carries.
pub(crate) fn find(word: u32) -> Option<&'static Row> {
    let t = table();
    t.by_major[major(word)]
        .iter()
        .map(|&r| &t.rows[r])
        .find(|row| row.matches(word))
}

/// A word's opcode and funct3, packed into 10 bits to index candidate rows.
fn major(word: u32) -> usize {
    ((word & 0x7f) | ((word >> 5) & 0x380)) as usize
}

struct Table {
    rows: Vec<Row>,
    by_key: HashMap<Instr, usize>,
    by_mnemonic: HashMap<String, usize>,
    /// Rows that can match each [`major`] value.
    by_major: Vec<Vec<usize>>,
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let rows = build();
        let by_key = rows.iter().enumerate().map(|(i, r)| (r.key, i)).collect();
        let by_mnemonic = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (r.mnemonic.clone(), i))
            .collect();
        let by_major = (0..1024u32)
            .map(|m| {
                let word = (m & 0x7f) | (m >> 7) << 12;
                let rows = rows.iter().enumerate();
                rows.filter(|(_, r)| (word ^ r.bits) & r.mask & 0x707f == 0)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        Table {
            rows,
            by_key,
            by_mnemonic,
            by_major,
        }
    })
}

/// The rows of the RV64IM + RVV subset, from the RISC-V unprivileged and
/// RVV 1.0 specifications. Which `.vv`/`.vx`/`.vi` and immediate forms an
/// op has comes from its operand enum (`VAluOp::has_vi`, …).
fn build() -> Vec<Row> {
    use Field::*;
    use Instr::*;
    let (x, v, vtype) = (XReg::ZERO, VReg::V0, VType::from_bits(0).expect("e8, m1"));
    let mut rows = Vec::new();
    let mut add = |m: &str, bits: u32, fields: &[Field], proto: Instr| {
        rows.push(Row::new(m.to_string(), bits, fields, proto));
    };

    add("lui", OPC_LUI, &[Xd, Upper], Lui { rd: x, imm20: 0 });
    add("auipc", OPC_AUIPC, &[Xd, Upper], Auipc { rd: x, imm20: 0 });
    add("jal", OPC_JAL, &[Xd, JumpOff], Jal { rd: x, offset: 0 });
    let jalr = Jalr {
        rd: x,
        rs1: x,
        offset: 0,
    };
    add("jalr", OPC_JALR, &[Xd, Imm12, Base], jalr);
    for (cond, m, funct3) in [
        (BranchCond::Eq, "beq", 0b000),
        (BranchCond::Ne, "bne", 0b001),
        (BranchCond::Lt, "blt", 0b100),
        (BranchCond::Ge, "bge", 0b101),
        (BranchCond::Ltu, "bltu", 0b110),
        (BranchCond::Geu, "bgeu", 0b111),
    ] {
        let key = Branch {
            cond,
            rs1: x,
            rs2: x,
            offset: 0,
        };
        add(m, OPC_BRANCH | funct3 << 12, &[Xs1, Xs2, BranchOff], key);
    }
    for (width, signed, m, funct3) in [
        (MemWidth::B, true, "lb", 0b000),
        (MemWidth::H, true, "lh", 0b001),
        (MemWidth::W, true, "lw", 0b010),
        (MemWidth::D, true, "ld", 0b011),
        (MemWidth::B, false, "lbu", 0b100),
        (MemWidth::H, false, "lhu", 0b101),
        (MemWidth::W, false, "lwu", 0b110),
    ] {
        let key = Load {
            width,
            signed,
            rd: x,
            rs1: x,
            offset: 0,
        };
        add(m, OPC_LOAD | funct3 << 12, &[Xd, Imm12, Base], key);
    }
    for (width, m, funct3) in [
        (MemWidth::B, "sb", 0b000),
        (MemWidth::H, "sh", 0b001),
        (MemWidth::W, "sw", 0b010),
        (MemWidth::D, "sd", 0b011),
    ] {
        let key = Store {
            width,
            rs2: x,
            rs1: x,
            offset: 0,
        };
        add(m, OPC_STORE | funct3 << 12, &[Xs2, StoreOff, Base], key);
    }
    // The register form is the stem; the immediate form, where the op has
    // one, is the stem plus `i`, written before an unsigned `u` (`sltiu`).
    for (op, stem, funct7, funct3) in [
        (AluOp::Add, "add", 0b0000000, 0b000),
        (AluOp::Sub, "sub", 0b0100000, 0b000),
        (AluOp::Sll, "sll", 0b0000000, 0b001),
        (AluOp::Slt, "slt", 0b0000000, 0b010),
        (AluOp::Sltu, "sltu", 0b0000000, 0b011),
        (AluOp::Xor, "xor", 0b0000000, 0b100),
        (AluOp::Srl, "srl", 0b0000000, 0b101),
        (AluOp::Sra, "sra", 0b0100000, 0b101),
        (AluOp::Or, "or", 0b0000000, 0b110),
        (AluOp::And, "and", 0b0000000, 0b111),
        (AluOp::Mul, "mul", 0b0000001, 0b000),
        (AluOp::Mulh, "mulh", 0b0000001, 0b001),
        (AluOp::Mulhu, "mulhu", 0b0000001, 0b011),
        (AluOp::Div, "div", 0b0000001, 0b100),
        (AluOp::Divu, "divu", 0b0000001, 0b101),
        (AluOp::Rem, "rem", 0b0000001, 0b110),
        (AluOp::Remu, "remu", 0b0000001, 0b111),
    ] {
        let r = OPC_OP | funct3 << 12 | funct7 << 25;
        let key = Op {
            op,
            rd: x,
            rs1: x,
            rs2: x,
        };
        add(stem, r, &[Xd, Xs1, Xs2], key);
        let key = OpImm {
            op,
            rd: x,
            rs1: x,
            imm: 0,
        };
        let i = OPC_OP_IMM | funct3 << 12;
        let imm = match stem.strip_suffix('u') {
            Some(signed) => format!("{signed}iu"),
            None => format!("{stem}i"),
        };
        // A shift's funct7 sits above its 6-bit shamt.
        if op.is_shift() {
            add(&imm, i | funct7 << 25, &[Xd, Xs1, Shamt], key);
        } else if op.has_imm_form() {
            add(&imm, i, &[Xd, Xs1, Imm12], key);
        }
    }
    // `csrr rd, csr` is `csrrs rd, csr, x0`.
    let csrr = Csrr {
        rd: x,
        csr: VCsr::Vl,
    };
    add("csrr", OPC_SYSTEM | 0b010 << 12, &[Xd, Csr], csrr);
    add("ecall", OPC_SYSTEM, &[], Ecall);
    add("ebreak", OPC_SYSTEM | 1 << 20, &[], Ebreak);

    let cfg = OPC_OP_V | OPCFG << 12;
    let vsetvli = Vsetvli {
        rd: x,
        rs1: x,
        vtype,
    };
    add("vsetvli", cfg, &[Xd, Xs1, Vtype11], vsetvli);
    let vsetivli = Vsetivli {
        rd: x,
        uimm: 0,
        vtype,
    };
    add(
        "vsetivli",
        cfg | 0b11 << 30,
        &[Xd, Uimm5, Vtype10],
        vsetivli,
    );
    let vsetvl = Vsetvl {
        rd: x,
        rs1: x,
        rs2: x,
    };
    add("vsetvl", cfg | 1 << 31, &[Xd, Xs1, Xs2], vsetvl);

    for eew in Sew::ALL {
        let (e, w) = (eew.bits(), eew.mem_width_bits() << 12);
        let (load, store) = (OPC_LOAD_FP | w, OPC_STORE_FP | w);
        let key = VLoad {
            eew,
            vd: v,
            rs1: x,
            vm: false,
        };
        add(&format!("vle{e}.v"), load, &[Vd, Base, Vm], key);
        let key = VStore {
            eew,
            vs3: v,
            rs1: x,
            vm: false,
        };
        add(&format!("vse{e}.v"), store, &[Vd, Base, Vm], key);
        let key = VLoadStrided {
            eew,
            vd: v,
            rs1: x,
            rs2: x,
            vm: false,
        };
        add(
            &format!("vlse{e}.v"),
            load | MOP_STRIDED,
            &[Vd, Base, Xs2, Vm],
            key,
        );
        let key = VStoreStrided {
            eew,
            vs3: v,
            rs1: x,
            rs2: x,
            vm: false,
        };
        add(
            &format!("vsse{e}.v"),
            store | MOP_STRIDED,
            &[Vd, Base, Xs2, Vm],
            key,
        );
        for (ordered, o, mop) in [
            (false, 'u', MOP_INDEXED_UNORDERED),
            (true, 'o', MOP_INDEXED_ORDERED),
        ] {
            let key = VLoadIndexed {
                eew,
                ordered,
                vd: v,
                rs1: x,
                vs2: v,
                vm: false,
            };
            add(
                &format!("vl{o}xei{e}.v"),
                load | mop,
                &[Vd, Base, Vs2, Vm],
                key,
            );
            let key = VStoreIndexed {
                eew,
                ordered,
                vs3: v,
                rs1: x,
                vs2: v,
                vm: false,
            };
            add(
                &format!("vs{o}xei{e}.v"),
                store | mop,
                &[Vd, Base, Vs2, Vm],
                key,
            );
        }
    }
    // Whole-register moves are EEW=8 with `nf` = registers - 1.
    for nregs in [1u8, 2, 4, 8] {
        let whole = (u32::from(nregs) - 1) << 29 | VM1 | LUMOP_WHOLE;
        let key = VLoadWhole {
            nregs,
            vd: v,
            rs1: x,
        };
        add(
            &format!("vl{nregs}re8.v"),
            OPC_LOAD_FP | whole,
            &[Vd, Base],
            key,
        );
        let key = VStoreWhole {
            nregs,
            vs3: v,
            rs1: x,
        };
        add(
            &format!("vs{nregs}r.v"),
            OPC_STORE_FP | whole,
            &[Vd, Base],
            key,
        );
    }
    let mask = VM1 | LUMOP_MASK;
    add(
        "vlm.v",
        OPC_LOAD_FP | mask,
        &[Vd, Base],
        VLoadMask { vd: v, rs1: x },
    );
    add(
        "vsm.v",
        OPC_STORE_FP | mask,
        &[Vd, Base],
        VStoreMask { vs3: v, rs1: x },
    );

    for (op, stem, funct6) in [
        (VAluOp::Add, "vadd", 0b000000),
        (VAluOp::Sub, "vsub", 0b000010),
        (VAluOp::Rsub, "vrsub", 0b000011),
        (VAluOp::Minu, "vminu", 0b000100),
        (VAluOp::Min, "vmin", 0b000101),
        (VAluOp::Maxu, "vmaxu", 0b000110),
        (VAluOp::Max, "vmax", 0b000111),
        (VAluOp::And, "vand", 0b001001),
        (VAluOp::Or, "vor", 0b001010),
        (VAluOp::Xor, "vxor", 0b001011),
        (VAluOp::Sll, "vsll", 0b100101),
        (VAluOp::Srl, "vsrl", 0b101000),
        (VAluOp::Sra, "vsra", 0b101001),
        (VAluOp::Mul, "vmul", 0b100101),
        (VAluOp::Mulh, "vmulh", 0b100111),
        (VAluOp::Mulhu, "vmulhu", 0b100100),
        (VAluOp::Divu, "vdivu", 0b100000),
        (VAluOp::Div, "vdiv", 0b100001),
        (VAluOp::Remu, "vremu", 0b100010),
        (VAluOp::Rem, "vrem", 0b100011),
    ] {
        let (vv, vx) = if op.is_opm() {
            (OPMVV, OPMVX)
        } else {
            (OPIVV, OPIVX)
        };
        if op.has_vv() {
            let key = VOpVV {
                op,
                vd: v,
                vs2: v,
                vs1: v,
                vm: false,
            };
            add(
                &format!("{stem}.vv"),
                opv(funct6, vv),
                &[Vd, Vs2, Vs1, Vm],
                key,
            );
        }
        if op.has_vx() {
            let key = VOpVX {
                op,
                vd: v,
                vs2: v,
                rs1: x,
                vm: false,
            };
            add(
                &format!("{stem}.vx"),
                opv(funct6, vx),
                &[Vd, Vs2, Xs1, Vm],
                key,
            );
        }
        if op.has_vi() {
            let key = VOpVI {
                op,
                vd: v,
                vs2: v,
                imm: 0,
                vm: false,
            };
            let imm = if op.imm_is_unsigned() { Uimm5 } else { Simm5 };
            add(
                &format!("{stem}.vi"),
                opv(funct6, OPIVI),
                &[Vd, Vs2, imm, Vm],
                key,
            );
        }
    }
    for (cond, stem, funct6) in [
        (VCmp::Eq, "vmseq", 0b011000),
        (VCmp::Ne, "vmsne", 0b011001),
        (VCmp::Ltu, "vmsltu", 0b011010),
        (VCmp::Lt, "vmslt", 0b011011),
        (VCmp::Leu, "vmsleu", 0b011100),
        (VCmp::Le, "vmsle", 0b011101),
        (VCmp::Gtu, "vmsgtu", 0b011110),
        (VCmp::Gt, "vmsgt", 0b011111),
    ] {
        if cond.has_vv() {
            let key = VCmpVV {
                cond,
                vd: v,
                vs2: v,
                vs1: v,
                vm: false,
            };
            add(
                &format!("{stem}.vv"),
                opv(funct6, OPIVV),
                &[Vd, Vs2, Vs1, Vm],
                key,
            );
        }
        let key = VCmpVX {
            cond,
            vd: v,
            vs2: v,
            rs1: x,
            vm: false,
        };
        add(
            &format!("{stem}.vx"),
            opv(funct6, OPIVX),
            &[Vd, Vs2, Xs1, Vm],
            key,
        );
        if cond.has_vi() {
            let key = VCmpVI {
                cond,
                vd: v,
                vs2: v,
                imm: 0,
                vm: false,
            };
            add(
                &format!("{stem}.vi"),
                opv(funct6, OPIVI),
                &[Vd, Vs2, Simm5, Vm],
                key,
            );
        }
    }

    // funct6 0b010111 is a merge when masked and a move (vs2 = 0) when not.
    let key = VMergeVVM {
        vd: v,
        vs2: v,
        vs1: v,
    };
    add("vmerge.vvm", opv(0b010111, OPIVV), &[Vd, Vs2, Vs1, V0], key);
    let key = VMergeVXM {
        vd: v,
        vs2: v,
        rs1: x,
    };
    add("vmerge.vxm", opv(0b010111, OPIVX), &[Vd, Vs2, Xs1, V0], key);
    let key = VMergeVIM {
        vd: v,
        vs2: v,
        imm: 0,
    };
    add(
        "vmerge.vim",
        opv(0b010111, OPIVI),
        &[Vd, Vs2, Simm5, V0],
        key,
    );
    let mv = opv(0b010111, 0) | VM1;
    add(
        "vmv.v.v",
        mv | OPIVV << 12,
        &[Vd, Vs1],
        VMvVV { vd: v, vs1: v },
    );
    add(
        "vmv.v.x",
        mv | OPIVX << 12,
        &[Vd, Xs1],
        VMvVX { vd: v, rs1: x },
    );
    add(
        "vmv.v.i",
        mv | OPIVI << 12,
        &[Vd, Simm5],
        VMvVI { vd: v, imm: 0 },
    );
    add(
        "vmv.s.x",
        opv(0b010000, OPMVX) | VM1,
        &[Vd, Xs1],
        VMvSX { vd: v, rs1: x },
    );
    add(
        "vmv.x.s",
        opv(0b010000, OPMVV) | VM1,
        &[Xd, Vs2],
        VMvXS { rd: x, vs2: v },
    );

    let vx = [Vd, Vs2, Xs1, Vm];
    let vi = [Vd, Vs2, Uimm5, Vm];
    let key = VSlideUpVX {
        vd: v,
        vs2: v,
        rs1: x,
        vm: false,
    };
    add("vslideup.vx", opv(0b001110, OPIVX), &vx, key);
    let key = VSlideUpVI {
        vd: v,
        vs2: v,
        uimm: 0,
        vm: false,
    };
    add("vslideup.vi", opv(0b001110, OPIVI), &vi, key);
    let key = VSlideDownVX {
        vd: v,
        vs2: v,
        rs1: x,
        vm: false,
    };
    add("vslidedown.vx", opv(0b001111, OPIVX), &vx, key);
    let key = VSlideDownVI {
        vd: v,
        vs2: v,
        uimm: 0,
        vm: false,
    };
    add("vslidedown.vi", opv(0b001111, OPIVI), &vi, key);
    let key = VSlide1Up {
        vd: v,
        vs2: v,
        rs1: x,
        vm: false,
    };
    add("vslide1up.vx", opv(0b001110, OPMVX), &vx, key);
    let key = VSlide1Down {
        vd: v,
        vs2: v,
        rs1: x,
        vm: false,
    };
    add("vslide1down.vx", opv(0b001111, OPMVX), &vx, key);
    let key = VRGatherVV {
        vd: v,
        vs2: v,
        vs1: v,
        vm: false,
    };
    add(
        "vrgather.vv",
        opv(0b001100, OPIVV),
        &[Vd, Vs2, Vs1, Vm],
        key,
    );
    let key = VRGatherVX {
        vd: v,
        vs2: v,
        rs1: x,
        vm: false,
    };
    add("vrgather.vx", opv(0b001100, OPIVX), &vx, key);
    let key = VCompress {
        vd: v,
        vs2: v,
        vs1: v,
    };
    add(
        "vcompress.vm",
        opv(0b010111, OPMVV) | VM1,
        &[Vd, Vs2, Vs1],
        key,
    );

    for (op, m, funct6) in [
        (MaskOp::Andn, "vmandn.mm", 0b011000),
        (MaskOp::And, "vmand.mm", 0b011001),
        (MaskOp::Or, "vmor.mm", 0b011010),
        (MaskOp::Xor, "vmxor.mm", 0b011011),
        (MaskOp::Orn, "vmorn.mm", 0b011100),
        (MaskOp::Nand, "vmnand.mm", 0b011101),
        (MaskOp::Nor, "vmnor.mm", 0b011110),
        (MaskOp::Xnor, "vmxnor.mm", 0b011111),
    ] {
        let key = VMaskLogic {
            op,
            vd: v,
            vs2: v,
            vs1: v,
        };
        add(m, opv(funct6, OPMVV) | VM1, &[Vd, Vs2, Vs1], key);
    }
    // The VMUNARY0 and VWXUNARY0 groups select the op in the vs1 field.
    let unary = |funct6: u32, vs1: u32| opv(funct6, OPMVV) | vs1 << 15;
    let mask_unary = [Vd, Vs2, Vm];
    let key = VIota {
        vd: v,
        vs2: v,
        vm: false,
    };
    add("viota.m", unary(0b010100, 0b10000), &mask_unary, key);
    add(
        "vid.v",
        unary(0b010100, 0b10001),
        &[Vd, Vm],
        VId { vd: v, vm: false },
    );
    let key = VMsbf {
        vd: v,
        vs2: v,
        vm: false,
    };
    add("vmsbf.m", unary(0b010100, 0b00001), &mask_unary, key);
    let key = VMsof {
        vd: v,
        vs2: v,
        vm: false,
    };
    add("vmsof.m", unary(0b010100, 0b00010), &mask_unary, key);
    let key = VMsif {
        vd: v,
        vs2: v,
        vm: false,
    };
    add("vmsif.m", unary(0b010100, 0b00011), &mask_unary, key);
    let key = VCpop {
        rd: x,
        vs2: v,
        vm: false,
    };
    add("vcpop.m", unary(0b010000, 0b10000), &[Xd, Vs2, Vm], key);
    let key = VFirst {
        rd: x,
        vs2: v,
        vm: false,
    };
    add("vfirst.m", unary(0b010000, 0b10001), &[Xd, Vs2, Vm], key);

    for (op, m, funct6) in [
        (VRedOp::Sum, "vredsum.vs", 0b000000),
        (VRedOp::And, "vredand.vs", 0b000001),
        (VRedOp::Or, "vredor.vs", 0b000010),
        (VRedOp::Xor, "vredxor.vs", 0b000011),
        (VRedOp::Minu, "vredminu.vs", 0b000100),
        (VRedOp::Min, "vredmin.vs", 0b000101),
        (VRedOp::Maxu, "vredmaxu.vs", 0b000110),
        (VRedOp::Max, "vredmax.vs", 0b000111),
    ] {
        let key = VRed {
            op,
            vd: v,
            vs2: v,
            vs1: v,
            vm: false,
        };
        add(m, opv(funct6, OPMVV), &[Vd, Vs2, Vs1, Vm], key);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_disjoint() {
        // No word can match two rows: for every pair, some bit both rows
        // fix differs.
        let rows = rows();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[i + 1..] {
                assert_ne!(
                    (a.bits ^ b.bits) & a.mask & b.mask,
                    0,
                    "{} and {} overlap",
                    a.mnemonic,
                    b.mnemonic
                );
            }
        }
    }

    #[test]
    fn keys_and_mnemonics_are_unique() {
        let t = table();
        assert_eq!(t.by_key.len(), t.rows.len());
        assert_eq!(t.by_mnemonic.len(), t.rows.len());
    }

    #[test]
    fn fields_cover_exactly_the_variant_operands() {
        // Each row's fields fill every operand slot of its variant, once.
        for row in rows() {
            let mut visited = Vec::new();
            let mut key = row.key;
            visit(&mut key, &mut |s, _| visited.push(s));
            let mut fields: Vec<Slot> = row.fields.iter().filter_map(|f| f.slot()).collect();
            let key = |s: &Slot| *s as usize;
            visited.sort_by_key(key);
            fields.sort_by_key(key);
            assert_eq!(visited, fields, "{}", row.mnemonic);
        }
    }

    #[test]
    fn field_bits_roundtrip_at_the_range_ends() {
        for f in [
            Field::Imm12,
            Field::StoreOff,
            Field::BranchOff,
            Field::JumpOff,
            Field::Upper,
            Field::Shamt,
            Field::Simm5,
            Field::Uimm5,
        ] {
            for v in [*f.range().start(), *f.range().end(), 0, 2] {
                assert_eq!(f.check(v), Ok(()), "{f:?} {v}");
                assert_eq!(f.extract(f.insert(v)), v, "{f:?} {v}");
            }
        }
    }
}
