//! Packed-word kernels for the mask instruction group and the
//! compare-to-mask ops.
//!
//! Mask bit `i` of a register is bit `i % 8` of its byte `i / 8`, so the
//! little-endian `u64` at byte `8w` holds bits `64w..64w + 64` in order. A
//! mask never needs more than `VLEN / 64` words, and `VLENB` is a multiple
//! of 8, so word `w < ⌈vl/64⌉` always lies inside one register. Every
//! kernel here runs the checks of its `exec/vmask.rs` (or `exec/varith.rs`)
//! counterpart in the same order and returns the same [`SimError`]; the
//! results are then computed a word at a time, and written through
//! `(old & !valid) | (new & valid)` so inactive and tail bits stay
//! undisturbed.

use super::*;
use rvv_isa::MaskOp;

/// Byte offset of register `r` in the register file.
#[inline(always)]
pub(super) fn reg_off(m: &Machine, r: VReg) -> usize {
    r.num() as usize * m.vlenb() as usize
}

/// Word `w` of the mask register at byte offset `off`.
#[inline(always)]
pub(super) fn mask_word(vregs: &[u8], off: usize, w: usize) -> u64 {
    let at = off + 8 * w;
    u64::from_le_bytes(vregs[at..at + 8].try_into().expect("8 bytes"))
}

/// Bits of word `w` whose element index is below `n`.
#[inline(always)]
pub(super) fn below(n: u64, w: usize) -> u64 {
    let lo = 64 * w as u64;
    if n <= lo {
        0
    } else if n - lo >= 64 {
        !0
    } else {
        (1u64 << (n - lo)) - 1
    }
}

/// Active elements of word `w`: the body (`< vl`), and `v0` when masked.
#[inline(always)]
pub(super) fn active_word(vregs: &[u8], vm: bool, vl: u32, w: usize) -> u64 {
    let body = below(vl as u64, w);
    if vm {
        body
    } else {
        body & mask_word(vregs, 0, w)
    }
}

/// Write `bits` into word `w` of the mask at `off` where `valid` is set.
#[inline(always)]
pub(super) fn merge_word(vregs: &mut [u8], off: usize, w: usize, bits: u64, valid: u64) {
    let at = off + 8 * w;
    let old = mask_word(vregs, off, w);
    vregs[at..at + 8].copy_from_slice(&((old & !valid) | (bits & valid)).to_le_bytes());
}

/// Merge staged compare results into the mask at `off`, active elements
/// only. `v0` is read word by word before the same word is written, so a
/// destination of `v0` itself sees the pre-instruction mask.
#[inline(always)]
pub(super) fn merge_staged(vregs: &mut [u8], off: usize, vl: u32, vm: bool, set: &[u64]) {
    for (w, &bits) in set.iter().enumerate() {
        let valid = active_word(vregs, vm, vl, w);
        merge_word(vregs, off, w, bits, valid);
    }
}

/// The machine's compare scratch, emptied and sized to one zeroed word per
/// 64 of `vl` elements. Callers hand it back through `m.cmp_scratch`.
pub(super) fn staging(m: &mut Machine, vl: u32) -> Vec<u64> {
    let mut set = std::mem::take(&mut m.cmp_scratch);
    set.clear();
    set.resize(vl.div_ceil(64) as usize, 0);
    set
}

/// `set[w]` bit `j` = `C(a[64w + j], b)` for every element of `a`.
#[inline(always)]
pub(super) fn cmp_words<E: Elem, C: CmpOp>(a: &[u8], b: u64, set: &mut [u64]) {
    for (s, blk) in set.iter_mut().zip(a.chunks(64 * E::BYTES)) {
        let mut bits = 0u64;
        for (j, c) in blk.chunks_exact(E::BYTES).enumerate() {
            bits |= (C::cmp::<E>(E::ld(c), b) as u64) << j;
        }
        *s = bits;
    }
}

/// [`cmp_words`] against a second element region.
#[inline(always)]
fn cmp_words_vv<E: Elem, C: CmpOp>(a: &[u8], b: &[u8], set: &mut [u64]) {
    let blocks = a.chunks(64 * E::BYTES).zip(b.chunks(64 * E::BYTES));
    for (s, (ba, bb)) in set.iter_mut().zip(blocks) {
        let mut bits = 0u64;
        let pairs = ba.chunks_exact(E::BYTES).zip(bb.chunks_exact(E::BYTES));
        for (j, (ca, cb)) in pairs.enumerate() {
            bits |= (C::cmp::<E>(E::ld(ca), E::ld(cb)) as u64) << j;
        }
        *s = bits;
    }
}

/// [`cmp_words`] with the condition chosen at run time — for fused windows,
/// whose kernels are resolved per SEW (or per ALU op) but not per
/// condition as well.
pub(super) fn cmp_words_dyn<E: Elem>(cond: VCmp, a: &[u8], b: u64, set: &mut [u64]) {
    match cond {
        VCmp::Eq => cmp_words::<E, CEq>(a, b, set),
        VCmp::Ne => cmp_words::<E, CNe>(a, b, set),
        VCmp::Ltu => cmp_words::<E, CLtu>(a, b, set),
        VCmp::Lt => cmp_words::<E, CLt>(a, b, set),
        VCmp::Leu => cmp_words::<E, CLeu>(a, b, set),
        VCmp::Le => cmp_words::<E, CLe>(a, b, set),
        VCmp::Gtu => cmp_words::<E, CGtu>(a, b, set),
        VCmp::Gt => cmp_words::<E, CGt>(a, b, set),
    }
}

/// Compare-to-mask (`vmsCC.{vv,vx,vi}`). Results are staged in the
/// machine's scratch words before the merge, so a destination overlapping
/// a source group is well-defined.
pub(super) fn vcmp_exec<E: Elem, C: CmpOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    src: VSrc,
    vm: bool,
) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    if let VSrc::V(vs1) = src {
        m.check_group(vs1, t.lmul)?;
    }
    m.check_group(vs2, t.lmul)?;
    let bytes = vl as usize * E::BYTES;
    let mut set = staging(m, vl);
    let a = &m.vreg_store()[reg_off(m, vs2)..][..bytes];
    match src {
        VSrc::V(vs1) => {
            let b = &m.vreg_store()[reg_off(m, vs1)..][..bytes];
            cmp_words_vv::<E, C>(a, b, &mut set);
        }
        VSrc::X(rs1) => cmp_words::<E, C>(a, m.xreg(rs1) & E::MAX, &mut set),
        VSrc::I(imm) => cmp_words::<E, C>(a, imm & E::MAX, &mut set),
    }
    let off = reg_off(m, vd);
    merge_staged(m.vreg_store_mut(), off, vl, vm, &set);
    m.cmp_scratch = set;
    Ok(())
}

/// `viota` body: for each active element, write the count of set `mask`
/// bits among the active elements before it, plus `add` (truncated to
/// SEW). Returns the count over all active elements. The caller has
/// proven the destination group overlaps neither the mask nor (when
/// masked) `v0`.
#[inline(always)]
pub(super) fn iota_region<E: Elem>(
    vregs: &mut [u8],
    d_off: usize,
    mask_off: usize,
    vl: u32,
    vm: bool,
    add: u64,
) -> u64 {
    let mut count = 0u64;
    for w in 0..vl.div_ceil(64) as usize {
        let act = active_word(vregs, vm, vl, w);
        let bits = mask_word(vregs, mask_off, w) & act;
        let start = d_off + 64 * w * E::BYTES;
        let n = (vl as usize - 64 * w).min(64);
        let region = &mut vregs[start..start + n * E::BYTES];
        if vm {
            for (j, c) in region.chunks_exact_mut(E::BYTES).enumerate() {
                E::st(c, count + add);
                count += (bits >> j) & 1;
            }
        } else {
            for (j, c) in region.chunks_exact_mut(E::BYTES).enumerate() {
                if act >> j & 1 != 0 {
                    E::st(c, count + add);
                    count += (bits >> j) & 1;
                }
            }
        }
    }
    count
}

/// `viota.m vd, vs2[, v0.t]`.
pub(super) fn viota_exec<E: Elem>(m: &mut Machine, vd: VReg, vs2: VReg, vm: bool) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    m.check_group(vd, t.lmul)?;
    if Machine::groups_overlap(vd, t.lmul.regs(), vs2, 1) {
        return Err(SimError::OverlapConstraint {
            what: "viota vd overlaps vs2",
        });
    }
    if !vm && Machine::groups_overlap(vd, t.lmul.regs(), VReg::V0, 1) {
        return Err(SimError::OverlapConstraint {
            what: "masked viota writing v0",
        });
    }
    let (d_off, mask_off) = (reg_off(m, vd), reg_off(m, vs2));
    iota_region::<E>(m.vreg_store_mut(), d_off, mask_off, vl, vm, 0);
    Ok(())
}

/// `vid.v vd[, v0.t]`.
pub(super) fn vid_exec<E: Elem>(m: &mut Machine, vd: VReg, vm: bool) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    m.check_group(vd, t.lmul)?;
    if !vm && Machine::groups_overlap(vd, t.lmul.regs(), VReg::V0, 1) {
        return Err(SimError::OverlapConstraint {
            what: "masked vid writing v0",
        });
    }
    let off = reg_off(m, vd);
    let vregs = m.vreg_store_mut();
    for w in 0..vl.div_ceil(64) as usize {
        let act = active_word(vregs, vm, vl, w);
        let start = off + 64 * w * E::BYTES;
        let n = (vl as usize - 64 * w).min(64);
        for (j, c) in vregs[start..start + n * E::BYTES]
            .chunks_exact_mut(E::BYTES)
            .enumerate()
        {
            if act >> j & 1 != 0 {
                E::st(c, (64 * w + j) as u64);
            }
        }
    }
    Ok(())
}

/// `vmv.s.x vd, rs1`: element 0 only, nothing when `vl == 0`; `vd` need
/// not be group-aligned.
pub(super) fn vmv_sx_exec<E: Elem>(m: &mut Machine, vd: VReg, rs1: XReg) -> SimResult<()> {
    let (_, vl) = m.vcfg()?;
    if vl > 0 {
        let v = m.xreg(rs1);
        E::set(m, vd, 0, v);
    }
    Ok(())
}

/// `vmv.x.s rd, vs2`: element 0, sign-extended.
pub(super) fn vmv_xs_exec<E: Elem>(m: &mut Machine, rd: XReg, vs2: VReg) -> SimResult<()> {
    m.vcfg()?;
    let v = E::sext(E::get(m, vs2, 0)) as u64;
    m.set_xreg(rd, v);
    Ok(())
}

/// Index of the first active set bit of the mask at `off`, if any.
fn first_active(vregs: &[u8], off: usize, vm: bool, vl: u32) -> Option<u64> {
    (0..vl.div_ceil(64) as usize)
        .map(|w| (w, mask_word(vregs, off, w) & active_word(vregs, vm, vl, w)))
        .find(|&(_, b)| b != 0)
        .map(|(w, b)| 64 * w as u64 + b.trailing_zeros() as u64)
}

/// `vcpop.m` (`first == false`) or `vfirst.m` (`first == true`).
pub(super) fn mask_count(
    m: &mut Machine,
    first: bool,
    rd: XReg,
    vs2: VReg,
    vm: bool,
) -> SimResult<()> {
    let (_, vl) = m.vcfg()?;
    let off = reg_off(m, vs2);
    let vregs = m.vreg_store();
    let v = if first {
        first_active(vregs, off, vm, vl).unwrap_or(u64::MAX)
    } else {
        (0..vl.div_ceil(64) as usize)
            .map(|w| (mask_word(vregs, off, w) & active_word(vregs, vm, vl, w)).count_ones() as u64)
            .sum()
    };
    m.set_xreg(rd, v);
    Ok(())
}

/// Which of `vmsbf`/`vmsif`/`vmsof` a [`mask_first`] op performs.
#[derive(Debug, Clone, Copy)]
pub(super) enum FirstKind {
    Before,
    Including,
    Only,
}

/// `vmsbf.m`/`vmsif.m`/`vmsof.m`: locate the first active set bit `p` of
/// `vs2` (`vl` when there is none), then write each active element's bit
/// from its position relative to `p`. `p` is found before anything is
/// written, so `vd` may alias `vs2` or `v0`.
pub(super) fn mask_first(
    m: &mut Machine,
    kind: FirstKind,
    vd: VReg,
    vs2: VReg,
    vm: bool,
) -> SimResult<()> {
    let (_, vl) = m.vcfg()?;
    let (d_off, s_off) = (reg_off(m, vd), reg_off(m, vs2));
    let vregs = m.vreg_store_mut();
    let p = first_active(vregs, s_off, vm, vl).unwrap_or(vl as u64);
    for w in 0..vl.div_ceil(64) as usize {
        let bits = match kind {
            FirstKind::Before => below(p, w),
            FirstKind::Including => below(p + 1, w),
            FirstKind::Only => below(p + 1, w) & !below(p, w),
        };
        let valid = active_word(vregs, vm, vl, w);
        merge_word(vregs, d_off, w, bits, valid);
    }
    Ok(())
}

/// The word function of a mask-register logical op.
pub(super) fn mask_logic_fn(op: MaskOp) -> fn(u64, u64) -> u64 {
    match op {
        MaskOp::Andn => |a, b| a & !b,
        MaskOp::And => |a, b| a & b,
        MaskOp::Or => |a, b| a | b,
        MaskOp::Xor => |a, b| a ^ b,
        MaskOp::Orn => |a, b| a | !b,
        MaskOp::Nand => |a, b| !(a & b),
        MaskOp::Nor => |a, b| !(a | b),
        MaskOp::Xnor => |a, b| !(a ^ b),
    }
}

/// `vm<op>.mm vd, vs2, vs1` over the body bits. Each result bit depends
/// only on the same bit of the sources, so a word at a time is exact even
/// when `vd` aliases a source.
pub(super) fn mask_logic(
    m: &mut Machine,
    f: fn(u64, u64) -> u64,
    vd: VReg,
    vs2: VReg,
    vs1: VReg,
) -> SimResult<()> {
    let (_, vl) = m.vcfg()?;
    let (d, a, b) = (reg_off(m, vd), reg_off(m, vs2), reg_off(m, vs1));
    let vregs = m.vreg_store_mut();
    for w in 0..vl.div_ceil(64) as usize {
        let r = f(mask_word(vregs, a, w), mask_word(vregs, b, w));
        merge_word(vregs, d, w, r, below(vl as u64, w));
    }
    Ok(())
}
