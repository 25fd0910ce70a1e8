//! Vector configuration state: selected element width, length multiplier and
//! the `vtype` CSR model.

use core::fmt;

/// Selected element width (SEW).
///
/// RVV operates on vectors of elements whose width is configured dynamically
/// through `vsetvli`. The paper's kernels are mostly `e32` (the scan vector
/// model's `unsigned int` vectors), but the library supports all four integer
/// widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sew {
    /// 8-bit elements.
    E8,
    /// 16-bit elements.
    E16,
    /// 32-bit elements.
    E32,
    /// 64-bit elements.
    E64,
}

impl Sew {
    /// All supported widths, narrowest first.
    pub const ALL: [Sew; 4] = [Sew::E8, Sew::E16, Sew::E32, Sew::E64];

    /// Element width in bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        match self {
            Sew::E8 => 8,
            Sew::E16 => 16,
            Sew::E32 => 32,
            Sew::E64 => 64,
        }
    }

    /// Element width in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// The `vsew[2:0]` encoding used inside `vtype`.
    #[inline]
    pub const fn vtype_bits(self) -> u64 {
        match self {
            Sew::E8 => 0b000,
            Sew::E16 => 0b001,
            Sew::E32 => 0b010,
            Sew::E64 => 0b011,
        }
    }

    /// Decode from the `vsew[2:0]` field. Reserved encodings yield `None`.
    pub const fn from_vtype_bits(bits: u64) -> Option<Sew> {
        match bits {
            0b000 => Some(Sew::E8),
            0b001 => Some(Sew::E16),
            0b010 => Some(Sew::E32),
            0b011 => Some(Sew::E64),
            _ => None,
        }
    }

    /// The `width` field encoding used by vector loads/stores
    /// (`vle8`→0b000, `vle16`→0b101, `vle32`→0b110, `vle64`→0b111).
    #[inline]
    pub const fn mem_width_bits(self) -> u32 {
        match self {
            Sew::E8 => 0b000,
            Sew::E16 => 0b101,
            Sew::E32 => 0b110,
            Sew::E64 => 0b111,
        }
    }

    /// Maximum value representable in an element of this width.
    #[inline]
    pub const fn max_value(self) -> u64 {
        match self {
            Sew::E8 => u8::MAX as u64,
            Sew::E16 => u16::MAX as u64,
            Sew::E32 => u32::MAX as u64,
            Sew::E64 => u64::MAX,
        }
    }

    /// Truncate a 64-bit value to this element width.
    #[inline]
    pub const fn truncate(self, v: u64) -> u64 {
        v & self.max_value()
    }

    /// Sign-extend the low `bits()` bits of `v` to 64 bits (as `i64`).
    #[inline]
    pub const fn sign_extend(self, v: u64) -> i64 {
        match self {
            Sew::E8 => v as u8 as i8 as i64,
            Sew::E16 => v as u16 as i16 as i64,
            Sew::E32 => v as u32 as i32 as i64,
            Sew::E64 => v as i64,
        }
    }
}

impl fmt::Display for Sew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.bits())
    }
}

/// Vector register group length multiplier (LMUL).
///
/// Integer `LMUL > 1` groups consecutive vector registers so a single
/// instruction operates on `LMUL × VLEN` bits; the group's base register
/// number must be a multiple of LMUL. Fractional LMUL (`mf2`/`mf4`/`mf8`)
/// uses a *fraction* of one register — any register number is a legal base
/// and the group still occupies one register. The paper's experiments use
/// the integer settings ([`Lmul::ALL`]); the fractional ones are modelled
/// for RVV 1.0 completeness ([`Lmul::ALL_WITH_FRACTIONAL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lmul {
    /// One eighth of a register.
    F8,
    /// One quarter of a register.
    F4,
    /// Half a register.
    F2,
    /// One register per group.
    M1,
    /// Two registers per group.
    M2,
    /// Four registers per group.
    M4,
    /// Eight registers per group.
    M8,
}

impl Lmul {
    /// The integer multipliers every implementation must support — the
    /// paper's sweep. (Kept integer-only so the Table 5/6 experiments
    /// iterate exactly the paper's settings.)
    pub const ALL: [Lmul; 4] = [Lmul::M1, Lmul::M2, Lmul::M4, Lmul::M8];

    /// Every multiplier including the fractional ones, smallest first.
    pub const ALL_WITH_FRACTIONAL: [Lmul; 7] = [
        Lmul::F8,
        Lmul::F4,
        Lmul::F2,
        Lmul::M1,
        Lmul::M2,
        Lmul::M4,
        Lmul::M8,
    ];

    /// The multiplier as a fraction `(numerator, denominator)`.
    #[inline]
    pub const fn fraction(self) -> (u32, u32) {
        match self {
            Lmul::F8 => (1, 8),
            Lmul::F4 => (1, 4),
            Lmul::F2 => (1, 2),
            Lmul::M1 => (1, 1),
            Lmul::M2 => (2, 1),
            Lmul::M4 => (4, 1),
            Lmul::M8 => (8, 1),
        }
    }

    /// Is this a fractional multiplier?
    #[inline]
    pub const fn is_fractional(self) -> bool {
        matches!(self, Lmul::F8 | Lmul::F4 | Lmul::F2)
    }

    /// Number of registers a group occupies (fractional groups still take
    /// one architectural register).
    #[inline]
    pub const fn regs(self) -> u32 {
        match self {
            Lmul::F8 | Lmul::F4 | Lmul::F2 | Lmul::M1 => 1,
            Lmul::M2 => 2,
            Lmul::M4 => 4,
            Lmul::M8 => 8,
        }
    }

    /// The `vlmul[2:0]` encoding used inside `vtype`.
    #[inline]
    pub const fn vtype_bits(self) -> u64 {
        match self {
            Lmul::M1 => 0b000,
            Lmul::M2 => 0b001,
            Lmul::M4 => 0b010,
            Lmul::M8 => 0b011,
            Lmul::F8 => 0b101,
            Lmul::F4 => 0b110,
            Lmul::F2 => 0b111,
        }
    }

    /// Decode from the `vlmul[2:0]` field. The reserved encoding `0b100`
    /// yields `None`.
    pub const fn from_vtype_bits(bits: u64) -> Option<Lmul> {
        match bits {
            0b000 => Some(Lmul::M1),
            0b001 => Some(Lmul::M2),
            0b010 => Some(Lmul::M4),
            0b011 => Some(Lmul::M8),
            0b101 => Some(Lmul::F8),
            0b110 => Some(Lmul::F4),
            0b111 => Some(Lmul::F2),
            _ => None,
        }
    }

    /// Is `reg` a legal base register for a group of this multiplier?
    /// (Fractional groups may start anywhere.)
    #[inline]
    pub const fn aligned(self, reg: u8) -> bool {
        (reg as u32).is_multiple_of(self.regs())
    }
}

impl fmt::Display for Lmul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fractional() {
            write!(f, "mf{}", self.fraction().1)
        } else {
            write!(f, "m{}", self.regs())
        }
    }
}

/// The dynamic vector type configuration: the decoded form of the `vtype`
/// CSR written by `vsetvli`/`vsetivli`/`vsetvl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VType {
    /// Selected element width.
    pub sew: Sew,
    /// Register group length multiplier.
    pub lmul: Lmul,
    /// Tail agnostic (`ta`) — if false, tail elements are undisturbed.
    pub ta: bool,
    /// Mask agnostic (`ma`) — if false, masked-off elements are undisturbed.
    pub ma: bool,
}

impl VType {
    /// Construct a `vtype` with the paper's usual policy (`ta`, `mu`):
    /// tail agnostic, mask undisturbed — matching the `vsetvli … ta, mu`
    /// in the paper's Listing 2.
    pub const fn new(sew: Sew, lmul: Lmul) -> VType {
        VType {
            sew,
            lmul,
            ta: true,
            ma: false,
        }
    }

    /// `VLMAX` for this configuration on an implementation with `vlen` bits
    /// per vector register: `LMUL × VLEN / SEW`. A result of 0 means the
    /// configuration is illegal on that implementation (e.g. `e64, mf8` at
    /// VLEN=128) and `vsetvli` sets `vill`.
    #[inline]
    pub const fn vlmax(self, vlen: u32) -> u32 {
        let (num, den) = self.lmul.fraction();
        num * vlen / (den * self.sew.bits())
    }

    /// Encode into the `vtype` CSR bit layout
    /// (`vlmul[2:0]`, `vsew[5:3]`, `vta[6]`, `vma[7]`).
    pub const fn to_bits(self) -> u64 {
        self.lmul.vtype_bits()
            | (self.sew.vtype_bits() << 3)
            | ((self.ta as u64) << 6)
            | ((self.ma as u64) << 7)
    }

    /// Decode from the `vtype` CSR bit layout. Reserved SEW/LMUL encodings
    /// (including fractional LMUL, which this model does not support) yield
    /// `None`, which executors surface as the `vill` condition.
    pub const fn from_bits(bits: u64) -> Option<VType> {
        // Bits 8.. must be zero in a legal non-vill vtype.
        if bits >> 8 != 0 {
            return None;
        }
        let lmul = match Lmul::from_vtype_bits(bits & 0b111) {
            Some(l) => l,
            None => return None,
        };
        let sew = match Sew::from_vtype_bits((bits >> 3) & 0b111) {
            Some(s) => s,
            None => return None,
        };
        Some(VType {
            sew,
            lmul,
            ta: bits & (1 << 6) != 0,
            ma: bits & (1 << 7) != 0,
        })
    }
}

/// A kernel compilation configuration: the architectural parameters a
/// generated kernel is specialized for. This is the shared plan registry's
/// cache key (together with the kernel name and spill profile): two
/// environments agree on a compiled kernel exactly when they agree on a
/// `KernelConfig`.
///
/// Hashes cheaply and stably: [`KernelConfig::to_bits`] packs the whole
/// configuration into one `u64` (VLEN is a power of two in `[64, 65536]`,
/// so its log2 fits in 5 bits; SEW and LMUL reuse their `vtype` field
/// encodings), and the `Hash` impl hashes exactly that word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KernelConfig {
    /// Vector register length in bits.
    pub vlen: u32,
    /// Selected element width the kernel was generated for.
    pub sew: Sew,
    /// Register-group multiplier the kernel was generated for.
    pub lmul: Lmul,
}

impl KernelConfig {
    /// Pack into a single word: `log2(vlen)` in bits 6.., the `vsew` field
    /// in bits 3..6, the `vlmul` field in bits 0..3. Distinct
    /// configurations map to distinct words.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        ((self.vlen.trailing_zeros() as u64) << 6)
            | (self.sew.vtype_bits() << 3)
            | self.lmul.vtype_bits()
    }

    /// `VLMAX` for this configuration (0 = illegal, see [`VType::vlmax`]).
    #[inline]
    pub const fn vlmax(self) -> u32 {
        VType::new(self.sew, self.lmul).vlmax(self.vlen)
    }
}

impl std::hash::Hash for KernelConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_bits().hash(state);
    }
}

impl fmt::Display for KernelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vlen{}/{}/{}", self.vlen, self.sew, self.lmul)
    }
}

impl fmt::Display for VType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}, {}, {}, {}",
            self.sew,
            self.lmul,
            if self.ta { "ta" } else { "tu" },
            if self.ma { "ma" } else { "mu" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sew_widths() {
        assert_eq!(Sew::E8.bits(), 8);
        assert_eq!(Sew::E64.bytes(), 8);
        assert_eq!(Sew::E32.max_value(), 0xffff_ffff);
    }

    #[test]
    fn sew_truncate_and_extend() {
        assert_eq!(Sew::E8.truncate(0x1ff), 0xff);
        assert_eq!(Sew::E16.sign_extend(0x8000), -32768);
        assert_eq!(Sew::E32.sign_extend(0x7fff_ffff), 0x7fff_ffff);
        assert_eq!(Sew::E64.sign_extend(u64::MAX), -1);
    }

    #[test]
    fn lmul_alignment() {
        assert!(Lmul::M4.aligned(8));
        assert!(!Lmul::M4.aligned(6));
        assert!(Lmul::M1.aligned(31));
        assert!(Lmul::M8.aligned(0));
        assert!(!Lmul::M8.aligned(4));
    }

    #[test]
    fn vtype_roundtrip_all() {
        for &sew in &Sew::ALL {
            for &lmul in &Lmul::ALL_WITH_FRACTIONAL {
                for ta in [false, true] {
                    for ma in [false, true] {
                        let vt = VType { sew, lmul, ta, ma };
                        assert_eq!(VType::from_bits(vt.to_bits()), Some(vt));
                    }
                }
            }
        }
    }

    #[test]
    fn vtype_known_encoding() {
        // e32, m1, ta, mu == vsew=010, vlmul=000, vta=1, vma=0 -> 0b0101_0000.
        let vt = VType::new(Sew::E32, Lmul::M1);
        assert_eq!(vt.to_bits(), 0b0101_0000);
        // e64, m8, ta, ma -> vlmul=011, vsew=011, vta=1, vma=1.
        let vt = VType {
            sew: Sew::E64,
            lmul: Lmul::M8,
            ta: true,
            ma: true,
        };
        assert_eq!(vt.to_bits(), 0b1101_1011);
    }

    #[test]
    fn vtype_rejects_reserved() {
        assert_eq!(VType::from_bits(0b100), None); // reserved vlmul
        assert_eq!(VType::from_bits(0b111 << 3), None); // reserved vsew
        assert_eq!(VType::from_bits(1 << 8), None); // high bits set
                                                    // Fractional encodings parse.
        assert_eq!(VType::from_bits(0b101).map(|t| t.lmul), Some(Lmul::F8));
        assert_eq!(VType::from_bits(0b111).map(|t| t.lmul), Some(Lmul::F2));
    }

    #[test]
    fn vlmax_matches_paper_configs() {
        // The paper's headline config: VLEN=1024, e32, m1 -> 32 elements.
        assert_eq!(VType::new(Sew::E32, Lmul::M1).vlmax(1024), 32);
        // LMUL=8 at VLEN=1024 -> 256 elements.
        assert_eq!(VType::new(Sew::E32, Lmul::M8).vlmax(1024), 256);
        // VLEN=128, e32, m1 -> 4 elements.
        assert_eq!(VType::new(Sew::E32, Lmul::M1).vlmax(128), 4);
        assert_eq!(VType::new(Sew::E64, Lmul::M2).vlmax(256), 8);
        assert_eq!(VType::new(Sew::E8, Lmul::M1).vlmax(128), 16);
    }

    #[test]
    fn kernel_config_bits_are_injective() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for vlen in [64u32, 128, 256, 512, 1024, 65536] {
            for &sew in &Sew::ALL {
                for &lmul in &Lmul::ALL_WITH_FRACTIONAL {
                    let k = KernelConfig { vlen, sew, lmul };
                    assert!(seen.insert(k.to_bits()), "collision at {k}");
                }
            }
        }
        let k = KernelConfig {
            vlen: 1024,
            sew: Sew::E32,
            lmul: Lmul::M1,
        };
        assert_eq!(k.vlmax(), 32);
        assert_eq!(format!("{k}"), "vlen1024/e32/m1");
    }

    #[test]
    fn fractional_lmul_vlmax_and_legality() {
        // mf2 at VLEN=1024, e32: half a register = 16 elements.
        assert_eq!(VType::new(Sew::E32, Lmul::F2).vlmax(1024), 16);
        assert_eq!(VType::new(Sew::E8, Lmul::F8).vlmax(128), 2);
        // Illegal: SEW too wide for the fraction -> VLMAX 0 (vill).
        assert_eq!(VType::new(Sew::E64, Lmul::F8).vlmax(128), 0);
        assert_eq!(VType::new(Sew::E64, Lmul::F2).vlmax(128), 1);
        // Fractional groups start anywhere and occupy one register.
        assert!(Lmul::F4.aligned(3));
        assert_eq!(Lmul::F2.regs(), 1);
        assert!(Lmul::F2.is_fractional() && !Lmul::M2.is_fractional());
        assert_eq!(format!("{}", Lmul::F4), "mf4");
    }
}
