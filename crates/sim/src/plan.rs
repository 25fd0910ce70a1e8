//! Pre-decoded execution plans: the canonical executable form.
//!
//! [`CompiledPlan::compile`] lowers a [`Program`] once — classifying every
//! instruction, pre-resolving operation selectors to function pointers,
//! pre-extending immediates, and turning branch/jump byte targets into
//! instruction indices — so the run loop does none of that work per retire.
//! Vector ops additionally get SEW-monomorphized inner-loop kernels
//! (generic over `u8`/`u16`/`u32`/`u64`) selected at `vsetvli` boundaries
//! through a per-op *vtype specialization cache* instead of matching on the
//! element width per element.
//!
//! ## Dispatch-independence invariant
//!
//! The plan engine is an implementation detail: architectural results,
//! [`crate::Counters`] totals and per-class histograms, trace events, and
//! trap behaviour are bit-identical to the legacy single-step interpreter
//! ([`Machine::run_legacy`]). The differential fuzz suite
//! (`tests/fuzz_exec.rs`) enforces this on random programs.
//!
//! ## Why the cache key is the SEW alone
//!
//! Kernels are monomorphized over the element type only; `vl`, LMUL, and the
//! mask are read at execution time through the same `Machine` accessors the
//! legacy interpreter uses. A `vsetvli` that changes LMUL but not SEW
//! therefore hits the cache; the cache is one once-initialized slot per SEW
//! per micro-op (`vill`, key 0, errors before any slot is touched), which
//! is exact for the paper's kernels (each static vector instruction runs
//! under one vtype per strip-mined loop) and lock-free on the hit path.
//!
//! ## Thread safety
//!
//! `CompiledPlan` is `Send + Sync` (asserted below): the ops are immutable
//! after compilation and the specialization caches are [`OnceLock`] slots,
//! so one plan instance compiled into a shared registry can be executed
//! concurrently by many machines. All *mutable* state lives in the
//! `Machine` executing the plan, never in the plan itself.

use crate::error::{SimError, SimResult};
use crate::exec::{alu_fn, branch_fn, Control};
use crate::fault::FaultAction;
use crate::machine::Machine;
use crate::observe::Observer;
use crate::program::{Program, RunReport};
use rvv_isa::{Instr, InstrClass, MemWidth, Sew, VAluOp, VCmp, VCsr, VReg, XReg};
use std::sync::OnceLock;

// ------------------------------------------------------------------ types --

/// A program lowered to pre-decoded micro-ops, ready to execute.
///
/// Compiling is cheap (one pass over the instructions) and the plan is
/// immutable architectural-wise; the embedded specialization caches use
/// interior mutability, so repeated runs of a cached plan (e.g. through
/// `scanvec`'s kernel cache) keep their resolved kernels warm.
#[derive(Debug)]
pub struct CompiledPlan {
    source: Program,
    ops: Vec<MicroOp>,
    /// Fusion window index, built lazily on the first fused-tier run (the
    /// other two engines never pay for it).
    fused: OnceLock<fused::FusionTable>,
}

// Compile-time proof that a plan can be shared read-only across worker
// threads (the `scanvec` plan registry hands out `Arc<CompiledPlan>`).
// Breaking this — e.g. by reintroducing `Cell`/`Rc` state — is a build
// error here rather than a failure at every downstream use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledPlan>();
};

impl CompiledPlan {
    /// Lower `program` into a plan. Never fails: instructions that cannot be
    /// specialized fall back to the legacy dispatcher, and control flow to
    /// invalid targets is materialized as a pre-resolved bad jump that traps
    /// exactly like the legacy run loop.
    pub fn compile(program: Program) -> CompiledPlan {
        let len = program.instrs.len();
        let ops = program
            .instrs
            .iter()
            .enumerate()
            .map(|(i, ins)| MicroOp {
                class: InstrClass::of(ins),
                kind: lower(i, ins, len),
            })
            .collect();
        CompiledPlan {
            source: program,
            ops,
            fused: OnceLock::new(),
        }
    }

    /// The fusion window index for the fused tier, built on first use and
    /// cached for the plan's lifetime (plans are immutable).
    pub(crate) fn fusion(&self) -> &fused::FusionTable {
        self.fused.get_or_init(|| fused::FusionTable::build(self))
    }

    /// Number of *static* fusion windows the fused tier recognized in this
    /// plan. Diagnostic: coverage goldens pin it so a refactor that
    /// silently de-fuses a hot loop fails loudly.
    pub fn fused_window_count(&self) -> usize {
        self.fusion().window_count()
    }

    /// The source program (instructions, name, symbol marks).
    pub fn program(&self) -> &Program {
        &self.source
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.source.name
    }

    /// Length in instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// One pre-decoded instruction: its class (pre-computed for retire
/// accounting and tracing) plus the executable form.
#[derive(Debug)]
struct MicroOp {
    class: InstrClass,
    kind: OpKind,
}

/// A branch/jump target resolved at compile time.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// A valid instruction index (index == len is representable: it traps at
    /// the driver's bounds check with the correct byte target).
    Idx(u32),
    /// A target that can never be valid (misaligned or out of range).
    Bad(u64),
}

impl Target {
    #[inline(always)]
    fn flow(self) -> Flow {
        match self {
            Target::Idx(i) => Flow::To(i as usize),
            Target::Bad(t) => Flow::BadJump(t),
        }
    }
}

/// Control-flow outcome of one micro-op.
#[derive(Debug, Clone, Copy)]
enum Flow {
    /// Fall through.
    Seq,
    /// Transfer to an instruction index.
    To(usize),
    /// A vector-configuration op retired: refresh the vtype key.
    Cfg,
    /// The op retired but its jump target is invalid; the *next* loop
    /// iteration traps (after the fuel check, exactly like the legacy loop).
    BadJump(u64),
    /// `ecall`.
    Halt,
}

/// The `vs1`/`rs1`/`imm` operand of a vector op, with immediates already
/// sign- or zero-extended per the instruction's rules.
#[derive(Debug, Clone, Copy)]
enum VSrc {
    V(VReg),
    X(XReg),
    I(u64),
}

/// Which slide variant a `VSlide` micro-op performs.
#[derive(Debug, Clone, Copy)]
enum SlideKind {
    Up,
    Down,
    Up1,
    Down1,
}

/// Slide offset (or, for `vslide1up`/`vslide1down`, the inserted scalar).
#[derive(Debug, Clone, Copy)]
enum SlideOff {
    X(XReg),
    I(u64),
}

impl SlideOff {
    #[inline(always)]
    fn value(self, m: &Machine) -> u64 {
        match self {
            SlideOff::X(r) => m.xreg(r),
            SlideOff::I(v) => v,
        }
    }
}

/// Right-hand side of a scalar ALU micro-op.
#[derive(Debug, Clone, Copy)]
enum AluRhs {
    Reg(XReg),
    Imm(u64),
}

/// Per-op vtype specialization cache: one [`OnceLock`] kernel slot per SEW
/// key (the key is [`vtype_key`]: 0 = `vill`, 1..=4 = SEW). A hit is one
/// acquire load; a miss resolves the kernel for that SEW exactly once, even
/// under concurrent lookups — which is what makes a [`CompiledPlan`]
/// `Sync`: a plan cached in a shared registry can be executed by many
/// worker threads at once, each warming or reusing the same resolved
/// kernels. Resolution is a pure function of `(op, SEW)`, so racing
/// initializers compute identical pointers.
struct KCache<F> {
    slots: [OnceLock<F>; 4],
}

impl<F> std::fmt::Debug for KCache<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<u8> = (0..4u8)
            .filter(|&k| self.slots[k as usize].get().is_some())
            .map(|k| k + 1)
            .collect();
        write!(f, "KCache(resolved={keys:?})")
    }
}

impl<F: Copy> KCache<F> {
    fn new() -> KCache<F> {
        KCache {
            slots: [const { OnceLock::new() }; 4],
        }
    }

    /// Return the kernel for `key`, resolving on first use. Key 0 (`vill`)
    /// errors with [`SimError::Vill`] — the same first check every
    /// specialized vector family performs in the legacy interpreter.
    #[inline(always)]
    fn lookup(&self, key: u8, resolve: impl FnOnce(Sew) -> F) -> SimResult<F> {
        let sew = sew_of_key(key)?;
        Ok(*self.slots[(key - 1) as usize].get_or_init(|| resolve(sew)))
    }
}

/// Current vtype as a cache key: 0 when `vill`, else 1..=4 by SEW.
#[inline(always)]
fn vtype_key(m: &Machine) -> u8 {
    match m.vtype() {
        None => 0,
        Some(t) => match t.sew {
            Sew::E8 => 1,
            Sew::E16 => 2,
            Sew::E32 => 3,
            Sew::E64 => 4,
        },
    }
}

#[inline(always)]
fn sew_of_key(key: u8) -> SimResult<Sew> {
    match key {
        1 => Ok(Sew::E8),
        2 => Ok(Sew::E16),
        3 => Ok(Sew::E32),
        4 => Ok(Sew::E64),
        _ => Err(SimError::Vill),
    }
}

/// Resolve a dynamic (jalr / legacy-dispatched) jump target.
#[inline(always)]
fn resolve_dynamic(byte: u64, len: usize) -> Flow {
    if byte.is_multiple_of(4) && byte / 4 <= len as u64 {
        Flow::To((byte / 4) as usize)
    } else {
        Flow::BadJump(byte)
    }
}

/// The flow of an instruction that ran through [`Machine::exec`].
#[inline(always)]
fn flow_of(ctl: Control, len: usize) -> Flow {
    match ctl {
        Control::Next => Flow::Seq,
        Control::Jump(t) => resolve_dynamic(t, len),
        Control::Halt => Flow::Halt,
    }
}

/// Resolve a static (jal / branch) byte target at compile time.
fn resolve_target(byte: u64, len: usize) -> Target {
    if byte.is_multiple_of(4) && byte / 4 <= len as u64 {
        Target::Idx((byte / 4) as u32)
    } else {
        Target::Bad(byte)
    }
}

// ---------------------------------------------- SEW element monomorphism --

/// A fixed-width vector element type. The four implementations (`u8`,
/// `u16`, `u32`, `u64`) give each kernel a compile-time element size, so
/// register-file accesses are fixed-size `from_le_bytes`/`to_le_bytes`
/// instead of the legacy per-byte loops.
trait Elem: Copy {
    const SEW: Sew;
    const BYTES: usize;
    const BITS: u32;
    const MAX: u64;
    /// Read element `i` of the group at `base`, zero-extended.
    fn get(m: &Machine, base: VReg, i: u32) -> u64;
    /// Write element `i` of the group at `base` (truncating).
    fn set(m: &mut Machine, base: VReg, i: u32, v: u64);
    /// Sign-extend a SEW-truncated value to `i64`.
    fn sext(v: u64) -> i64;
    /// Read one element from a `BYTES`-long little-endian chunk — the
    /// slice-iterator counterpart of [`Elem::get`] for fused kernels.
    fn ld(b: &[u8]) -> u64;
    /// Write one element into a `BYTES`-long little-endian chunk
    /// (truncating).
    fn st(b: &mut [u8], v: u64);
}

macro_rules! elem {
    ($u:ty, $s:ty, $sew:expr) => {
        impl Elem for $u {
            const SEW: Sew = $sew;
            const BYTES: usize = std::mem::size_of::<$u>();
            const BITS: u32 = <$u>::BITS;
            const MAX: u64 = <$u>::MAX as u64;

            #[inline(always)]
            fn get(m: &Machine, base: VReg, i: u32) -> u64 {
                let off = base.num() as usize * m.vlenb() as usize + i as usize * Self::BYTES;
                let mut b = [0u8; std::mem::size_of::<$u>()];
                b.copy_from_slice(&m.vreg_store()[off..off + Self::BYTES]);
                <$u>::from_le_bytes(b) as u64
            }

            #[inline(always)]
            fn set(m: &mut Machine, base: VReg, i: u32, v: u64) {
                let off = base.num() as usize * m.vlenb() as usize + i as usize * Self::BYTES;
                m.vreg_store_mut()[off..off + Self::BYTES]
                    .copy_from_slice(&(v as $u).to_le_bytes());
            }

            #[inline(always)]
            fn sext(v: u64) -> i64 {
                v as $u as $s as i64
            }

            #[inline(always)]
            fn ld(b: &[u8]) -> u64 {
                <$u>::from_le_bytes(b.try_into().expect("chunk is BYTES long")) as u64
            }

            #[inline(always)]
            fn st(b: &mut [u8], v: u64) {
                b.copy_from_slice(&(v as $u).to_le_bytes());
            }
        }
    };
}

elem!(u8, i8, Sew::E8);
elem!(u16, i16, Sew::E16);
elem!(u32, i32, Sew::E32);
elem!(u64, i64, Sew::E64);

/// An element-wise binary operation, monomorphized per [`Elem`]. Formulas
/// mirror `velem_op` in `exec/varith.rs` exactly; operands arrive
/// zero-extended at SEW and results are truncated by `Elem::set`.
trait BinOp {
    fn apply<E: Elem>(a: u64, b: u64) -> u64;
}

macro_rules! binop {
    ($name:ident, |$a:ident, $b:ident| $body:expr) => {
        struct $name;
        impl BinOp for $name {
            #[inline(always)]
            fn apply<E: Elem>($a: u64, $b: u64) -> u64 {
                $body
            }
        }
    };
}

binop!(BAdd, |a, b| a.wrapping_add(b));
binop!(BSub, |a, b| a.wrapping_sub(b));
binop!(BRsub, |a, b| b.wrapping_sub(a));
binop!(BMinu, |a, b| a.min(b));
binop!(BMin, |a, b| E::sext(a).min(E::sext(b)) as u64);
binop!(BMaxu, |a, b| a.max(b));
binop!(BMax, |a, b| E::sext(a).max(E::sext(b)) as u64);
binop!(BAnd, |a, b| a & b);
binop!(BOr, |a, b| a | b);
binop!(BXor, |a, b| a ^ b);
binop!(BSll, |a, b| a
    .wrapping_shl((b & (E::BITS as u64 - 1)) as u32));
binop!(BSrl, |a, b| a
    .wrapping_shr((b & (E::BITS as u64 - 1)) as u32));
binop!(
    BSra,
    |a, b| (E::sext(a) >> ((b & (E::BITS as u64 - 1)) as u32)) as u64
);
binop!(BMul, |a, b| a.wrapping_mul(b));
binop!(
    BMulh,
    |a, b| (((E::sext(a) as i128) * (E::sext(b) as i128)) >> E::BITS) as u64
);
binop!(BMulhu, |a, b| (((a as u128) * (b as u128)) >> E::BITS)
    as u64);
binop!(BDivu, |a, b| a.checked_div(b).unwrap_or(E::MAX));
binop!(BDiv, |a, b| {
    let (sa, sb) = (E::sext(a), E::sext(b));
    if sb == 0 {
        E::MAX
    } else {
        sa.wrapping_div(sb) as u64
    }
});
binop!(BRemu, |a, b| if b == 0 { a } else { a % b });
binop!(BRem, |a, b| {
    let (sa, sb) = (E::sext(a), E::sext(b));
    if sb == 0 {
        a
    } else {
        sa.wrapping_rem(sb) as u64
    }
});

/// A compare condition, monomorphized per [`Elem`]. Mirrors `cmp` in
/// `exec/vmask.rs`.
trait CmpOp {
    fn cmp<E: Elem>(a: u64, b: u64) -> bool;
}

macro_rules! cmpop {
    ($name:ident, |$a:ident, $b:ident| $body:expr) => {
        struct $name;
        impl CmpOp for $name {
            #[inline(always)]
            fn cmp<E: Elem>($a: u64, $b: u64) -> bool {
                $body
            }
        }
    };
}

cmpop!(CEq, |a, b| a == b);
cmpop!(CNe, |a, b| a != b);
cmpop!(CLtu, |a, b| a < b);
cmpop!(CLt, |a, b| E::sext(a) < E::sext(b));
cmpop!(CLeu, |a, b| a <= b);
cmpop!(CLe, |a, b| E::sext(a) <= E::sext(b));
cmpop!(CGtu, |a, b| a > b);
cmpop!(CGt, |a, b| E::sext(a) > E::sext(b));

// ----------------------------------------------------------------- kernels --

type VAluFn = fn(&mut Machine, VReg, VReg, VSrc, bool) -> SimResult<()>;
type VMoveFn = fn(&mut Machine, VReg, VSrc) -> SimResult<()>;
type VMergeFn = fn(&mut Machine, VReg, VReg, VSrc) -> SimResult<()>;
type VCmpFn = fn(&mut Machine, VReg, VReg, VSrc, bool) -> SimResult<()>;
type VSlideFn = fn(&mut Machine, SlideKind, VReg, VReg, SlideOff, bool) -> SimResult<()>;
type VMemFn = fn(&mut Machine, VReg, XReg, bool) -> SimResult<()>;
type VMemStrideFn = fn(&mut Machine, VReg, XReg, XReg, bool) -> SimResult<()>;
type IdxMemFn = fn(&mut Machine, VReg, XReg, VReg, bool) -> SimResult<()>;
type VIotaFn = fn(&mut Machine, VReg, VReg, bool) -> SimResult<()>;
type VIdFn = fn(&mut Machine, VReg, bool) -> SimResult<()>;
type VMvSxFn = fn(&mut Machine, VReg, XReg) -> SimResult<()>;
type VMvXsFn = fn(&mut Machine, XReg, VReg) -> SimResult<()>;

fn valu_exec<E: Elem, O: BinOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    src: VSrc,
    vm: bool,
) -> SimResult<()> {
    match src {
        VSrc::V(vs1) => {
            m.check_data_op(vd, &[vs2, vs1], vm)?;
            let (_, vl) = m.vcfg()?;
            if vm {
                for i in 0..vl {
                    let a = E::get(m, vs2, i);
                    let b = E::get(m, vs1, i);
                    E::set(m, vd, i, O::apply::<E>(a, b));
                }
            } else {
                for i in 0..vl {
                    if m.active(false, i) {
                        let a = E::get(m, vs2, i);
                        let b = E::get(m, vs1, i);
                        E::set(m, vd, i, O::apply::<E>(a, b));
                    }
                }
            }
            Ok(())
        }
        VSrc::X(rs1) => {
            let b = m.xreg(rs1);
            valu_scalar::<E, O>(m, vd, vs2, b, vm)
        }
        VSrc::I(b) => valu_scalar::<E, O>(m, vd, vs2, b, vm),
    }
}

fn valu_scalar<E: Elem, O: BinOp>(
    m: &mut Machine,
    vd: VReg,
    vs2: VReg,
    b: u64,
    vm: bool,
) -> SimResult<()> {
    m.check_data_op(vd, &[vs2], vm)?;
    let (_, vl) = m.vcfg()?;
    let b = b & E::MAX;
    if vm {
        for i in 0..vl {
            let a = E::get(m, vs2, i);
            E::set(m, vd, i, O::apply::<E>(a, b));
        }
    } else {
        for i in 0..vl {
            if m.active(false, i) {
                let a = E::get(m, vs2, i);
                E::set(m, vd, i, O::apply::<E>(a, b));
            }
        }
    }
    Ok(())
}

fn vmove_exec<E: Elem>(m: &mut Machine, vd: VReg, src: VSrc) -> SimResult<()> {
    match src {
        VSrc::V(vs1) => {
            m.check_data_op(vd, &[vs1], true)?;
            let (_, vl) = m.vcfg()?;
            for i in 0..vl {
                let v = E::get(m, vs1, i);
                E::set(m, vd, i, v);
            }
        }
        VSrc::X(rs1) => {
            m.check_data_op(vd, &[], true)?;
            let (_, vl) = m.vcfg()?;
            let v = m.xreg(rs1) & E::MAX;
            for i in 0..vl {
                E::set(m, vd, i, v);
            }
        }
        VSrc::I(imm) => {
            m.check_data_op(vd, &[], true)?;
            let (_, vl) = m.vcfg()?;
            let v = imm & E::MAX;
            for i in 0..vl {
                E::set(m, vd, i, v);
            }
        }
    }
    Ok(())
}

fn vmerge_exec<E: Elem>(m: &mut Machine, vd: VReg, vs2: VReg, src: VSrc) -> SimResult<()> {
    match src {
        VSrc::V(vs1) => {
            m.check_data_op(vd, &[vs2, vs1], true)?;
            let (t, vl) = m.vcfg()?;
            if Machine::groups_overlap(vd, t.lmul.regs(), VReg::V0, 1) {
                return Err(SimError::OverlapConstraint {
                    what: "vmerge writing v0 group",
                });
            }
            for i in 0..vl {
                let v = if m.mask_bit(VReg::V0, i) {
                    E::get(m, vs1, i)
                } else {
                    E::get(m, vs2, i)
                };
                E::set(m, vd, i, v);
            }
            Ok(())
        }
        VSrc::X(rs1) => {
            let x = m.xreg(rs1);
            vmerge_scalar::<E>(m, vd, vs2, x)
        }
        VSrc::I(x) => vmerge_scalar::<E>(m, vd, vs2, x),
    }
}

fn vmerge_scalar<E: Elem>(m: &mut Machine, vd: VReg, vs2: VReg, x: u64) -> SimResult<()> {
    m.check_data_op(vd, &[vs2], true)?;
    let (t, vl) = m.vcfg()?;
    if Machine::groups_overlap(vd, t.lmul.regs(), VReg::V0, 1) {
        return Err(SimError::OverlapConstraint {
            what: "vmerge writing v0 group",
        });
    }
    let x = x & E::MAX;
    for i in 0..vl {
        let v = if m.mask_bit(VReg::V0, i) {
            x
        } else {
            E::get(m, vs2, i)
        };
        E::set(m, vd, i, v);
    }
    Ok(())
}

fn vslide_exec<E: Elem>(
    m: &mut Machine,
    kind: SlideKind,
    vd: VReg,
    vs2: VReg,
    off: SlideOff,
    vm: bool,
) -> SimResult<()> {
    match kind {
        SlideKind::Up => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (t, vl) = m.vcfg()?;
            if Machine::groups_overlap(vd, t.lmul.regs(), vs2, t.lmul.regs()) {
                return Err(SimError::OverlapConstraint {
                    what: "vslideup vd overlaps vs2",
                });
            }
            let start = off.value(m).min(vl as u64) as u32;
            // vd/vs2 overlap is forbidden above, so no snapshot is needed.
            for i in start..vl {
                if m.active(vm, i) {
                    let v = E::get(m, vs2, i - start);
                    E::set(m, vd, i, v);
                }
            }
        }
        SlideKind::Down => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (t, vl) = m.vcfg()?;
            let vlmax = t.vlmax(m.vlen()) as u64;
            let offset = off.value(m);
            // Reads run ahead of writes (j = i + offset ≥ i, ascending i),
            // so even the ISA-legal vd == vs2 case needs no snapshot.
            // checked_add: an offset near u64::MAX is architecturally past
            // VLMAX (reads as 0), not a wrap back into range.
            for i in 0..vl {
                if m.active(vm, i) {
                    let v = match (i as u64).checked_add(offset) {
                        Some(j) if j < vlmax => E::get(m, vs2, j as u32),
                        _ => 0,
                    };
                    E::set(m, vd, i, v);
                }
            }
        }
        SlideKind::Up1 => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (t, vl) = m.vcfg()?;
            if Machine::groups_overlap(vd, t.lmul.regs(), vs2, t.lmul.regs()) {
                return Err(SimError::OverlapConstraint {
                    what: "vslide1up vd overlaps vs2",
                });
            }
            let x = off.value(m) & E::MAX;
            if vl > 0 && m.active(vm, 0) {
                E::set(m, vd, 0, x);
            }
            for i in 1..vl {
                if m.active(vm, i) {
                    let v = E::get(m, vs2, i - 1);
                    E::set(m, vd, i, v);
                }
            }
        }
        SlideKind::Down1 => {
            m.check_data_op(vd, &[vs2], vm)?;
            let (_, vl) = m.vcfg()?;
            let x = off.value(m) & E::MAX;
            for i in 0..vl {
                if m.active(vm, i) {
                    let v = if i + 1 < vl { E::get(m, vs2, i + 1) } else { x };
                    E::set(m, vd, i, v);
                }
            }
        }
    }
    Ok(())
}

/// Unit-stride load. One bounds-and-guard check of the whole range
/// `[base, base + vl·EEW)` replaces the per-element ones; when it fails, the
/// per-element loop runs instead and raises the exact trap (faulting
/// element address, earlier elements already written). Inactive elements
/// never touch memory either way.
fn vload_unit<E: Elem>(m: &mut Machine, vd: VReg, rs1: XReg, vm: bool) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vd, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    let bytes = vl as usize * E::BYTES;
    let off = mask::reg_off(m, vd);
    let (mem, vregs) = m.mem_and_vregs();
    if let Ok(src) = mem.read_bytes(base, bytes as u64) {
        if vm {
            vregs[off..off + bytes].copy_from_slice(src);
        } else {
            // The mask is read live, element by element: with vd = v0 an
            // element write changes later mask bits, exactly as it does
            // per element.
            for (i, c) in src.chunks_exact(E::BYTES).enumerate() {
                if vregs[i / 8] & (1 << (i % 8)) != 0 {
                    vregs[off + i * E::BYTES..][..E::BYTES].copy_from_slice(c);
                }
            }
        }
        return Ok(());
    }
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add(i as u64 * E::BYTES as u64);
            let v = m.mem.load(addr, E::BYTES as u64)?;
            E::set(m, vd, i, v);
        }
    }
    Ok(())
}

/// Unit-stride store, with the one-check bulk path of [`vload_unit`]; a
/// masked store writes (and dirties the pages of) active elements only.
fn vstore_unit<E: Elem>(m: &mut Machine, vs3: VReg, rs1: XReg, vm: bool) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vs3, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    let bytes = vl as usize * E::BYTES;
    let off = mask::reg_off(m, vs3);
    let (mem, vregs) = m.mem_and_vregs();
    let vregs: &[u8] = vregs;
    let data = &vregs[off..off + bytes];
    let bulk = if vm {
        mem.write_bytes(base, data)
    } else {
        mem.write_chunks(base, data, E::BYTES, |i| vregs[i / 8] & (1 << (i % 8)) != 0)
    };
    if bulk.is_ok() {
        return Ok(());
    }
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add(i as u64 * E::BYTES as u64);
            let v = E::get(m, vs3, i);
            m.mem.store(addr, E::BYTES as u64, v)?;
        }
    }
    Ok(())
}

fn vload_strided<E: Elem>(
    m: &mut Machine,
    vd: VReg,
    rs1: XReg,
    rs2: XReg,
    vm: bool,
) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vd, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    let stride = m.xreg(rs2);
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add((i as u64).wrapping_mul(stride));
            let v = m.mem.load(addr, E::BYTES as u64)?;
            E::set(m, vd, i, v);
        }
    }
    Ok(())
}

fn vstore_strided<E: Elem>(
    m: &mut Machine,
    vs3: VReg,
    rs1: XReg,
    rs2: XReg,
    vm: bool,
) -> SimResult<()> {
    let regs = m.emul_regs(E::SEW)?;
    m.check_emul_group(vs3, regs)?;
    let (_, vl) = m.vcfg()?;
    let base = m.xreg(rs1);
    let stride = m.xreg(rs2);
    for i in 0..vl {
        if m.active(vm, i) {
            let addr = base.wrapping_add((i as u64).wrapping_mul(stride));
            let v = E::get(m, vs3, i);
            m.mem.store(addr, E::BYTES as u64, v)?;
        }
    }
    Ok(())
}

/// Indexed load: `ED` is the (vtype-cached) data SEW, `EI` the (static)
/// index EEW. The data element comes first so `by_sew!` can fill it.
fn vload_indexed<ED: Elem, EI: Elem>(
    m: &mut Machine,
    vd: VReg,
    rs1: XReg,
    vs2: VReg,
    vm: bool,
) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    m.check_group(vd, t.lmul)?;
    let idx_regs = m.emul_regs(EI::SEW)?;
    m.check_emul_group(vs2, idx_regs)?;
    let base = m.xreg(rs1);
    for i in 0..vl {
        if m.active(vm, i) {
            let off = EI::get(m, vs2, i);
            let v = m.mem.load(base.wrapping_add(off), ED::BYTES as u64)?;
            ED::set(m, vd, i, v);
        }
    }
    Ok(())
}

fn vstore_indexed<ED: Elem, EI: Elem>(
    m: &mut Machine,
    vs3: VReg,
    rs1: XReg,
    vs2: VReg,
    vm: bool,
) -> SimResult<()> {
    let (t, vl) = m.vcfg()?;
    m.check_group(vs3, t.lmul)?;
    let idx_regs = m.emul_regs(EI::SEW)?;
    m.check_emul_group(vs2, idx_regs)?;
    let base = m.xreg(rs1);
    for i in 0..vl {
        if m.active(vm, i) {
            let off = EI::get(m, vs2, i);
            let v = ED::get(m, vs3, i);
            m.mem.store(base.wrapping_add(off), ED::BYTES as u64, v)?;
        }
    }
    Ok(())
}

// --------------------------------------------------------------- resolvers --

macro_rules! by_sew {
    ($sew:expr, $f:ident $(, $g:ty)*) => {
        match $sew {
            Sew::E8 => $f::<u8 $(, $g)*>,
            Sew::E16 => $f::<u16 $(, $g)*>,
            Sew::E32 => $f::<u32 $(, $g)*>,
            Sew::E64 => $f::<u64 $(, $g)*>,
        }
    };
}

fn resolve_valu(op: VAluOp, sew: Sew) -> VAluFn {
    macro_rules! k {
        ($o:ty) => {
            match sew {
                Sew::E8 => valu_exec::<u8, $o>,
                Sew::E16 => valu_exec::<u16, $o>,
                Sew::E32 => valu_exec::<u32, $o>,
                Sew::E64 => valu_exec::<u64, $o>,
            }
        };
    }
    match op {
        VAluOp::Add => k!(BAdd),
        VAluOp::Sub => k!(BSub),
        VAluOp::Rsub => k!(BRsub),
        VAluOp::Minu => k!(BMinu),
        VAluOp::Min => k!(BMin),
        VAluOp::Maxu => k!(BMaxu),
        VAluOp::Max => k!(BMax),
        VAluOp::And => k!(BAnd),
        VAluOp::Or => k!(BOr),
        VAluOp::Xor => k!(BXor),
        VAluOp::Sll => k!(BSll),
        VAluOp::Srl => k!(BSrl),
        VAluOp::Sra => k!(BSra),
        VAluOp::Mul => k!(BMul),
        VAluOp::Mulh => k!(BMulh),
        VAluOp::Mulhu => k!(BMulhu),
        VAluOp::Divu => k!(BDivu),
        VAluOp::Div => k!(BDiv),
        VAluOp::Remu => k!(BRemu),
        VAluOp::Rem => k!(BRem),
    }
}

fn resolve_vcmp(cond: VCmp, sew: Sew) -> VCmpFn {
    macro_rules! k {
        ($c:ty) => {
            match sew {
                Sew::E8 => mask::vcmp_exec::<u8, $c>,
                Sew::E16 => mask::vcmp_exec::<u16, $c>,
                Sew::E32 => mask::vcmp_exec::<u32, $c>,
                Sew::E64 => mask::vcmp_exec::<u64, $c>,
            }
        };
    }
    match cond {
        VCmp::Eq => k!(CEq),
        VCmp::Ne => k!(CNe),
        VCmp::Ltu => k!(CLtu),
        VCmp::Lt => k!(CLt),
        VCmp::Leu => k!(CLeu),
        VCmp::Le => k!(CLe),
        VCmp::Gtu => k!(CGtu),
        VCmp::Gt => k!(CGt),
    }
}

fn resolve_vmove(sew: Sew) -> VMoveFn {
    by_sew!(sew, vmove_exec)
}

fn resolve_vmerge(sew: Sew) -> VMergeFn {
    by_sew!(sew, vmerge_exec)
}

fn resolve_vslide(sew: Sew) -> VSlideFn {
    by_sew!(sew, vslide_exec)
}

fn resolve_vload_unit(eew: Sew) -> VMemFn {
    by_sew!(eew, vload_unit)
}

fn resolve_vstore_unit(eew: Sew) -> VMemFn {
    by_sew!(eew, vstore_unit)
}

fn resolve_vload_strided(eew: Sew) -> VMemStrideFn {
    by_sew!(eew, vload_strided)
}

fn resolve_vstore_strided(eew: Sew) -> VMemStrideFn {
    by_sew!(eew, vstore_strided)
}

fn resolve_vload_indexed(eew: Sew, sew: Sew) -> IdxMemFn {
    macro_rules! inner {
        ($ei:ty) => {
            by_sew!(sew, vload_indexed, $ei)
        };
    }
    match eew {
        Sew::E8 => inner!(u8),
        Sew::E16 => inner!(u16),
        Sew::E32 => inner!(u32),
        Sew::E64 => inner!(u64),
    }
}

fn resolve_vstore_indexed(eew: Sew, sew: Sew) -> IdxMemFn {
    macro_rules! inner {
        ($ei:ty) => {
            by_sew!(sew, vstore_indexed, $ei)
        };
    }
    match eew {
        Sew::E8 => inner!(u8),
        Sew::E16 => inner!(u16),
        Sew::E32 => inner!(u32),
        Sew::E64 => inner!(u64),
    }
}

// ---------------------------------------------------------------- lowering --

/// The executable form of one instruction. Everything resolvable without
/// machine state is resolved here, the mask group included (its packed-word
/// kernels live in `plan/mask.rs`); `Generic` routes the remaining
/// families — reductions, gathers, compress, and mask loads/stores —
/// through the legacy dispatcher (with the class still pre-computed).
#[derive(Debug)]
enum OpKind {
    Lui {
        rd: XReg,
        value: u64,
    },
    Auipc {
        rd: XReg,
        value: u64,
    },
    Jal {
        rd: XReg,
        link: u64,
        to: Target,
    },
    Jalr {
        rd: XReg,
        rs1: XReg,
        offset: u64,
        link: u64,
    },
    Branch {
        taken: fn(u64, u64) -> bool,
        rs1: XReg,
        rs2: XReg,
        to: Target,
    },
    Load {
        width: MemWidth,
        signed: bool,
        rd: XReg,
        rs1: XReg,
        offset: u64,
    },
    Store {
        width: MemWidth,
        rs2: XReg,
        rs1: XReg,
        offset: u64,
    },
    Alu {
        f: fn(u64, u64) -> u64,
        rd: XReg,
        rs1: XReg,
        rhs: AluRhs,
    },
    Csrr {
        rd: XReg,
        csr: VCsr,
    },
    Ecall,
    Ebreak {
        pc: u64,
    },
    VCfg {
        idx: u32,
    },
    VAlu {
        f: KCache<VAluFn>,
        op: VAluOp,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
        vm: bool,
    },
    VMove {
        f: KCache<VMoveFn>,
        vd: VReg,
        src: VSrc,
    },
    VMerge {
        f: KCache<VMergeFn>,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
    },
    VCmp {
        f: KCache<VCmpFn>,
        cond: VCmp,
        vd: VReg,
        vs2: VReg,
        src: VSrc,
        vm: bool,
    },
    VSlide {
        f: KCache<VSlideFn>,
        kind: SlideKind,
        vd: VReg,
        vs2: VReg,
        off: SlideOff,
        vm: bool,
    },
    VLoadUnit {
        f: VMemFn,
        vd: VReg,
        rs1: XReg,
        vm: bool,
    },
    VStoreUnit {
        f: VMemFn,
        vs3: VReg,
        rs1: XReg,
        vm: bool,
    },
    VLoadStrided {
        f: VMemStrideFn,
        vd: VReg,
        rs1: XReg,
        rs2: XReg,
        vm: bool,
    },
    VStoreStrided {
        f: VMemStrideFn,
        vs3: VReg,
        rs1: XReg,
        rs2: XReg,
        vm: bool,
    },
    VLoadIndexed {
        f: KCache<IdxMemFn>,
        eew: Sew,
        vd: VReg,
        rs1: XReg,
        vs2: VReg,
        vm: bool,
    },
    VStoreIndexed {
        f: KCache<IdxMemFn>,
        eew: Sew,
        vs3: VReg,
        rs1: XReg,
        vs2: VReg,
        vm: bool,
    },
    VLoadWhole {
        nregs: u8,
        vd: VReg,
        rs1: XReg,
    },
    VStoreWhole {
        nregs: u8,
        vs3: VReg,
        rs1: XReg,
    },
    MaskLogic {
        f: fn(u64, u64) -> u64,
        vd: VReg,
        vs2: VReg,
        vs1: VReg,
    },
    /// `vcpop.m` (`first == false`) or `vfirst.m`.
    MaskCount {
        first: bool,
        rd: XReg,
        vs2: VReg,
        vm: bool,
    },
    MaskFirst {
        kind: mask::FirstKind,
        vd: VReg,
        vs2: VReg,
        vm: bool,
    },
    VIota {
        f: KCache<VIotaFn>,
        vd: VReg,
        vs2: VReg,
        vm: bool,
    },
    VId {
        f: KCache<VIdFn>,
        vd: VReg,
        vm: bool,
    },
    VMvSX {
        f: KCache<VMvSxFn>,
        vd: VReg,
        rs1: XReg,
    },
    VMvXS {
        f: KCache<VMvXsFn>,
        rd: XReg,
        vs2: VReg,
    },
    Generic {
        idx: u32,
    },
}

fn lower(idx: usize, ins: &Instr, len: usize) -> OpKind {
    use Instr::*;
    let pc = (idx * 4) as u64;
    match *ins {
        Lui { rd, imm20 } => OpKind::Lui {
            rd,
            value: ((imm20 as i64) << 12) as u64,
        },
        Auipc { rd, imm20 } => OpKind::Auipc {
            rd,
            value: pc.wrapping_add(((imm20 as i64) << 12) as u64),
        },
        Jal { rd, offset } => OpKind::Jal {
            rd,
            link: pc.wrapping_add(4),
            to: resolve_target(pc.wrapping_add(offset as i64 as u64), len),
        },
        Jalr { rd, rs1, offset } => OpKind::Jalr {
            rd,
            rs1,
            offset: offset as i64 as u64,
            link: pc.wrapping_add(4),
        },
        Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => OpKind::Branch {
            taken: branch_fn(cond),
            rs1,
            rs2,
            to: resolve_target(pc.wrapping_add(offset as i64 as u64), len),
        },
        Load {
            width,
            signed,
            rd,
            rs1,
            offset,
        } => OpKind::Load {
            width,
            signed,
            rd,
            rs1,
            offset: offset as i64 as u64,
        },
        Store {
            width,
            rs2,
            rs1,
            offset,
        } => OpKind::Store {
            width,
            rs2,
            rs1,
            offset: offset as i64 as u64,
        },
        OpImm { op, rd, rs1, imm } => OpKind::Alu {
            f: alu_fn(op),
            rd,
            rs1,
            rhs: AluRhs::Imm(imm as i64 as u64),
        },
        Op { op, rd, rs1, rs2 } => OpKind::Alu {
            f: alu_fn(op),
            rd,
            rs1,
            rhs: AluRhs::Reg(rs2),
        },
        Csrr { rd, csr } => OpKind::Csrr { rd, csr },
        Ecall => OpKind::Ecall,
        Ebreak => OpKind::Ebreak { pc },
        Vsetvli { .. } | Vsetivli { .. } | Vsetvl { .. } => OpKind::VCfg { idx: idx as u32 },
        VOpVV {
            op,
            vd,
            vs2,
            vs1,
            vm,
        } => OpKind::VAlu {
            f: KCache::new(),
            op,
            vd,
            vs2,
            src: VSrc::V(vs1),
            vm,
        },
        VOpVX {
            op,
            vd,
            vs2,
            rs1,
            vm,
        } => OpKind::VAlu {
            f: KCache::new(),
            op,
            vd,
            vs2,
            src: VSrc::X(rs1),
            vm,
        },
        VOpVI {
            op,
            vd,
            vs2,
            imm,
            vm,
        } => OpKind::VAlu {
            f: KCache::new(),
            op,
            vd,
            vs2,
            src: VSrc::I(if op.imm_is_unsigned() {
                imm as u8 as u64
            } else {
                imm as i64 as u64
            }),
            vm,
        },
        VMvVV { vd, vs1 } => OpKind::VMove {
            f: KCache::new(),
            vd,
            src: VSrc::V(vs1),
        },
        VMvVX { vd, rs1 } => OpKind::VMove {
            f: KCache::new(),
            vd,
            src: VSrc::X(rs1),
        },
        VMvVI { vd, imm } => OpKind::VMove {
            f: KCache::new(),
            vd,
            src: VSrc::I(imm as i64 as u64),
        },
        VMergeVVM { vd, vs2, vs1 } => OpKind::VMerge {
            f: KCache::new(),
            vd,
            vs2,
            src: VSrc::V(vs1),
        },
        VMergeVXM { vd, vs2, rs1 } => OpKind::VMerge {
            f: KCache::new(),
            vd,
            vs2,
            src: VSrc::X(rs1),
        },
        VMergeVIM { vd, vs2, imm } => OpKind::VMerge {
            f: KCache::new(),
            vd,
            vs2,
            src: VSrc::I(imm as i64 as u64),
        },
        VCmpVV {
            cond,
            vd,
            vs2,
            vs1,
            vm,
        } => OpKind::VCmp {
            f: KCache::new(),
            cond,
            vd,
            vs2,
            src: VSrc::V(vs1),
            vm,
        },
        VCmpVX {
            cond,
            vd,
            vs2,
            rs1,
            vm,
        } => OpKind::VCmp {
            f: KCache::new(),
            cond,
            vd,
            vs2,
            src: VSrc::X(rs1),
            vm,
        },
        VCmpVI {
            cond,
            vd,
            vs2,
            imm,
            vm,
        } => OpKind::VCmp {
            f: KCache::new(),
            cond,
            vd,
            vs2,
            src: VSrc::I(imm as i64 as u64),
            vm,
        },
        VSlideUpVX { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Up,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VSlideUpVI { vd, vs2, uimm, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Up,
            vd,
            vs2,
            off: SlideOff::I(uimm as u64),
            vm,
        },
        VSlideDownVX { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Down,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VSlideDownVI { vd, vs2, uimm, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Down,
            vd,
            vs2,
            off: SlideOff::I(uimm as u64),
            vm,
        },
        VSlide1Up { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Up1,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VSlide1Down { vd, vs2, rs1, vm } => OpKind::VSlide {
            f: KCache::new(),
            kind: SlideKind::Down1,
            vd,
            vs2,
            off: SlideOff::X(rs1),
            vm,
        },
        VLoad { eew, vd, rs1, vm } => OpKind::VLoadUnit {
            f: resolve_vload_unit(eew),
            vd,
            rs1,
            vm,
        },
        VStore { eew, vs3, rs1, vm } => OpKind::VStoreUnit {
            f: resolve_vstore_unit(eew),
            vs3,
            rs1,
            vm,
        },
        VLoadStrided {
            eew,
            vd,
            rs1,
            rs2,
            vm,
        } => OpKind::VLoadStrided {
            f: resolve_vload_strided(eew),
            vd,
            rs1,
            rs2,
            vm,
        },
        VStoreStrided {
            eew,
            vs3,
            rs1,
            rs2,
            vm,
        } => OpKind::VStoreStrided {
            f: resolve_vstore_strided(eew),
            vs3,
            rs1,
            rs2,
            vm,
        },
        VLoadIndexed {
            eew,
            ordered: _,
            vd,
            rs1,
            vs2,
            vm,
        } => OpKind::VLoadIndexed {
            f: KCache::new(),
            eew,
            vd,
            rs1,
            vs2,
            vm,
        },
        VStoreIndexed {
            eew,
            ordered: _,
            vs3,
            rs1,
            vs2,
            vm,
        } => OpKind::VStoreIndexed {
            f: KCache::new(),
            eew,
            vs3,
            rs1,
            vs2,
            vm,
        },
        VLoadWhole { nregs, vd, rs1 } => OpKind::VLoadWhole { nregs, vd, rs1 },
        VStoreWhole { nregs, vs3, rs1 } => OpKind::VStoreWhole { nregs, vs3, rs1 },
        VMaskLogic { op, vd, vs2, vs1 } => OpKind::MaskLogic {
            f: mask::mask_logic_fn(op),
            vd,
            vs2,
            vs1,
        },
        VCpop { rd, vs2, vm } => OpKind::MaskCount {
            first: false,
            rd,
            vs2,
            vm,
        },
        VFirst { rd, vs2, vm } => OpKind::MaskCount {
            first: true,
            rd,
            vs2,
            vm,
        },
        VMsbf { vd, vs2, vm } => OpKind::MaskFirst {
            kind: mask::FirstKind::Before,
            vd,
            vs2,
            vm,
        },
        VMsif { vd, vs2, vm } => OpKind::MaskFirst {
            kind: mask::FirstKind::Including,
            vd,
            vs2,
            vm,
        },
        VMsof { vd, vs2, vm } => OpKind::MaskFirst {
            kind: mask::FirstKind::Only,
            vd,
            vs2,
            vm,
        },
        VIota { vd, vs2, vm } => OpKind::VIota {
            f: KCache::new(),
            vd,
            vs2,
            vm,
        },
        VId { vd, vm } => OpKind::VId {
            f: KCache::new(),
            vd,
            vm,
        },
        VMvSX { vd, rs1 } => OpKind::VMvSX {
            f: KCache::new(),
            vd,
            rs1,
        },
        VMvXS { rd, vs2 } => OpKind::VMvXS {
            f: KCache::new(),
            rd,
            vs2,
        },
        // Reductions, gathers/compress, and mask loads/stores stay on the
        // legacy dispatcher.
        _ => OpKind::Generic { idx: idx as u32 },
    }
}

// --------------------------------------------------------------- execution --

impl OpKind {
    /// Execute one micro-op. `key` is the driver's current [`vtype_key`].
    #[inline(always)]
    fn execute(&self, m: &mut Machine, plan: &CompiledPlan, key: u8) -> SimResult<Flow> {
        match self {
            OpKind::Lui { rd, value } => {
                m.set_xreg(*rd, *value);
                Ok(Flow::Seq)
            }
            OpKind::Auipc { rd, value } => {
                m.set_xreg(*rd, *value);
                Ok(Flow::Seq)
            }
            OpKind::Jal { rd, link, to } => {
                m.set_xreg(*rd, *link);
                Ok(to.flow())
            }
            OpKind::Jalr {
                rd,
                rs1,
                offset,
                link,
            } => {
                // Target before link write: handles rd == rs1.
                let target = m.xreg(*rs1).wrapping_add(*offset) & !1;
                m.set_xreg(*rd, *link);
                Ok(resolve_dynamic(target, plan.ops.len()))
            }
            OpKind::Branch {
                taken,
                rs1,
                rs2,
                to,
            } => {
                if taken(m.xreg(*rs1), m.xreg(*rs2)) {
                    Ok(to.flow())
                } else {
                    Ok(Flow::Seq)
                }
            }
            OpKind::Load {
                width,
                signed,
                rd,
                rs1,
                offset,
            } => {
                let addr = m.xreg(*rs1).wrapping_add(*offset);
                let raw = m.mem.load(addr, width.bytes())?;
                let v = if *signed {
                    match width {
                        MemWidth::B => raw as u8 as i8 as i64 as u64,
                        MemWidth::H => raw as u16 as i16 as i64 as u64,
                        MemWidth::W => raw as u32 as i32 as i64 as u64,
                        MemWidth::D => raw,
                    }
                } else {
                    raw
                };
                m.set_xreg(*rd, v);
                Ok(Flow::Seq)
            }
            OpKind::Store {
                width,
                rs2,
                rs1,
                offset,
            } => {
                let addr = m.xreg(*rs1).wrapping_add(*offset);
                m.mem.store(addr, width.bytes(), m.xreg(*rs2))?;
                Ok(Flow::Seq)
            }
            OpKind::Alu { f, rd, rs1, rhs } => {
                let b = match rhs {
                    AluRhs::Reg(r) => m.xreg(*r),
                    AluRhs::Imm(v) => *v,
                };
                m.set_xreg(*rd, f(m.xreg(*rs1), b));
                Ok(Flow::Seq)
            }
            OpKind::Csrr { rd, csr } => {
                let v = match csr {
                    VCsr::Vl => m.vl() as u64,
                    VCsr::Vtype => match m.vtype() {
                        Some(t) => t.to_bits(),
                        None => 1 << 63, // vill
                    },
                    VCsr::Vlenb => m.vlenb() as u64,
                };
                m.set_xreg(*rd, v);
                Ok(Flow::Seq)
            }
            OpKind::Ecall => Ok(Flow::Halt),
            OpKind::Ebreak { pc } => Err(SimError::Breakpoint { pc: *pc }),
            OpKind::VCfg { idx } => {
                let i = *idx as usize;
                m.exec_inner((i as u64) * 4, &plan.source.instrs[i])?;
                Ok(Flow::Cfg)
            }
            OpKind::VAlu {
                f,
                op,
                vd,
                vs2,
                src,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_valu(*op, sew))?;
                k(m, *vd, *vs2, *src, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VMove { f, vd, src } => {
                let k = f.lookup(key, resolve_vmove)?;
                k(m, *vd, *src)?;
                Ok(Flow::Seq)
            }
            OpKind::VMerge { f, vd, vs2, src } => {
                let k = f.lookup(key, resolve_vmerge)?;
                k(m, *vd, *vs2, *src)?;
                Ok(Flow::Seq)
            }
            OpKind::VCmp {
                f,
                cond,
                vd,
                vs2,
                src,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_vcmp(*cond, sew))?;
                k(m, *vd, *vs2, *src, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VSlide {
                f,
                kind,
                vd,
                vs2,
                off,
                vm,
            } => {
                let k = f.lookup(key, resolve_vslide)?;
                k(m, *kind, *vd, *vs2, *off, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadUnit { f, vd, rs1, vm } => {
                f(m, *vd, *rs1, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreUnit { f, vs3, rs1, vm } => {
                f(m, *vs3, *rs1, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadStrided {
                f,
                vd,
                rs1,
                rs2,
                vm,
            } => {
                f(m, *vd, *rs1, *rs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreStrided {
                f,
                vs3,
                rs1,
                rs2,
                vm,
            } => {
                f(m, *vs3, *rs1, *rs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadIndexed {
                f,
                eew,
                vd,
                rs1,
                vs2,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_vload_indexed(*eew, sew))?;
                k(m, *vd, *rs1, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreIndexed {
                f,
                eew,
                vs3,
                rs1,
                vs2,
                vm,
            } => {
                let k = f.lookup(key, |sew| resolve_vstore_indexed(*eew, sew))?;
                k(m, *vs3, *rs1, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VLoadWhole { nregs, vd, rs1 } => {
                m.vload_whole_fast(*nregs, *vd, *rs1)?;
                Ok(Flow::Seq)
            }
            OpKind::VStoreWhole { nregs, vs3, rs1 } => {
                m.vstore_whole_fast(*nregs, *vs3, *rs1)?;
                Ok(Flow::Seq)
            }
            OpKind::MaskLogic { f, vd, vs2, vs1 } => {
                mask::mask_logic(m, *f, *vd, *vs2, *vs1)?;
                Ok(Flow::Seq)
            }
            OpKind::MaskCount { first, rd, vs2, vm } => {
                mask::mask_count(m, *first, *rd, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::MaskFirst { kind, vd, vs2, vm } => {
                mask::mask_first(m, *kind, *vd, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VIota { f, vd, vs2, vm } => {
                let k = f.lookup(key, |sew| by_sew!(sew, viota_exec))?;
                k(m, *vd, *vs2, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VId { f, vd, vm } => {
                let k = f.lookup(key, |sew| by_sew!(sew, vid_exec))?;
                k(m, *vd, *vm)?;
                Ok(Flow::Seq)
            }
            OpKind::VMvSX { f, vd, rs1 } => {
                let k = f.lookup(key, |sew| by_sew!(sew, vmv_sx_exec))?;
                k(m, *vd, *rs1)?;
                Ok(Flow::Seq)
            }
            OpKind::VMvXS { f, rd, vs2 } => {
                let k = f.lookup(key, |sew| by_sew!(sew, vmv_xs_exec))?;
                k(m, *rd, *vs2)?;
                Ok(Flow::Seq)
            }
            OpKind::Generic { idx } => {
                let i = *idx as usize;
                let ctl = m.exec_inner((i as u64) * 4, &plan.source.instrs[i])?;
                Ok(flow_of(ctl, plan.ops.len()))
            }
        }
    }
}

impl Machine {
    /// Run a compiled plan from byte address `start_pc` until `ecall`, a
    /// trap, or `fuel` retired instructions, reporting to `obs` (`&mut ()`
    /// for a plain run). Architecturally identical to
    /// [`Machine::run_legacy`] under the same [`Observer`].
    ///
    /// With `fuse` this is the **fused tier**: recognized instruction
    /// windows execute as single bulk kernels, tallied in
    /// [`Machine::fused_stats`] — unless the observer intercepts
    /// ([`Observer::INTERCEPTS`]): it must see every instruction boundary
    /// and a window has none inside it. A polling observer
    /// ([`Observer::POLLS`]) keeps windows on: it is only polled at
    /// control transfers, which never sit inside a window. Without `fuse`
    /// the plan's fusion table is never built.
    ///
    /// Resuming from [`Machine::stop_pc`] after a
    /// [`SimError::FuelExhausted`] pause, on any tier, retires exactly the
    /// instructions an uninterrupted run would have, including a pending
    /// bad-jump trap.
    pub fn run_plan<O: Observer>(
        &mut self,
        plan: &CompiledPlan,
        fuel: u64,
        start_pc: u64,
        fuse: bool,
        obs: &mut O,
    ) -> SimResult<RunReport> {
        obs.launch(&plan.source);
        if fuse && !O::INTERCEPTS {
            self.drive::<O, true>(plan, fuel, start_pc, obs)
        } else {
            self.drive::<O, false>(plan, fuel, start_pc, obs)
        }
    }

    /// The loop behind [`Machine::run_plan`]; `FUSE` makes the window fast
    /// path a compile-time property of each instantiation. Kept out of
    /// line: inlined, both loops of an observer land in one function
    /// (twice the size of either), and the fused tier measured slower.
    #[inline(never)]
    fn drive<O: Observer, const FUSE: bool>(
        &mut self,
        plan: &CompiledPlan,
        fuel: u64,
        start_pc: u64,
        obs: &mut O,
    ) -> SimResult<RunReport> {
        let table = if FUSE { Some(plan.fusion()) } else { None };
        let before = self.counters.total();
        let mut key = vtype_key(self);
        let mut at: usize = (start_pc / 4) as usize;
        // A retired jump to an invalid target traps on the *next* iteration,
        // after the fuel check — exactly the legacy loop's ordering.
        let mut bad: Option<u64> = (!start_pc.is_multiple_of(4)).then_some(start_pc);
        // A polling observer is asked at entry and after each taken jump.
        let mut poll = O::POLLS;
        loop {
            let seq = self.counters.total() - before;
            if seq >= fuel {
                self.stop_pc = bad.unwrap_or((at as u64) * 4);
                return Err(SimError::FuelExhausted { fuel });
            }
            if let Some(target) = bad {
                return Err(SimError::BadControlFlow { target });
            }
            if O::POLLS && poll {
                poll = false;
                if obs.stop() {
                    self.stop_pc = (at as u64) * 4;
                    return Err(SimError::Cancelled { seq: seq + 1 });
                }
            }
            // Window fast path: only with enough fuel for the whole window
            // (otherwise per-op execution exhausts fuel at the exact op the
            // plan tier would) and only when every precondition holds. Window
            // ops never touch `vl` or `vtype`, and write at most one xreg —
            // in the last op, never a memory op's base — and `mem_footprint`
            // reads only those and the base xregs, so their events can be
            // assembled after the bulk kernel without observable difference
            // (see the event contract in `plan/fused.rs`).
            if let Some(w) = table.and_then(|t| t.at(at)) {
                let len = w.len as usize;
                if fuel - seq >= len as u64 {
                    if w.try_execute(self, key) {
                        for (k, op) in plan.ops[at..at + len].iter().enumerate() {
                            self.counters.retire_class(op.class);
                            if O::TRACES {
                                let pc = ((at + k) as u64) * 4;
                                let instr = &plan.source.instrs[at + k];
                                obs.retire(&self.retire_event(pc, instr, op.class, seq + k as u64));
                            }
                        }
                        self.fused_stats.windows += 1;
                        self.fused_stats.ops += len as u64;
                        at += len;
                        continue;
                    }
                    self.fused_stats.declined += 1;
                }
            }
            let Some(op) = plan.ops.get(at) else {
                return Err(SimError::BadControlFlow {
                    target: (at as u64) * 4,
                });
            };
            let pc = (at as u64) * 4;
            // The source instruction is only fetched for an observer: the
            // plain loop runs on the micro-op alone.
            let replaced = if O::INTERCEPTS {
                let fetched = &plan.source.instrs[at];
                match obs.before(pc, fetched, self.mem_footprint(fetched).as_ref()) {
                    FaultAction::Pass => None,
                    FaultAction::Trap(e) => return Err(e),
                    FaultAction::Replace(r) => Some(r),
                }
            } else {
                None
            };
            let event = O::TRACES.then(|| match &replaced {
                None => self.retire_event(pc, &plan.source.instrs[at], op.class, seq),
                Some(r) => self.retire_event(pc, r, InstrClass::of(r), seq),
            });
            let flow = match &replaced {
                None => {
                    let flow = op.kind.execute(self, plan, key)?;
                    self.counters.retire_class(op.class);
                    flow
                }
                Some(r) => {
                    // A replacement goes through the generic exec path, which
                    // retires it under its own class — exactly what the legacy
                    // loop does. It may be a vsetvli, so the specialization
                    // key is refreshed unconditionally.
                    let ctl = self.exec(pc, r)?;
                    key = vtype_key(self);
                    flow_of(ctl, plan.ops.len())
                }
            };
            if let Some(event) = &event {
                obs.retire(event);
            }
            match flow {
                Flow::Seq => at += 1,
                Flow::To(i) => {
                    at = i;
                    poll = O::POLLS;
                }
                Flow::Cfg => {
                    key = vtype_key(self);
                    at += 1;
                }
                Flow::BadJump(t) => bad = Some(t),
                Flow::Halt => {
                    return Ok(RunReport {
                        retired: self.counters.total() - before,
                        halt_pc: pc,
                    })
                }
            }
        }
    }
}

// Declared *after* the `by_sew!`/`binop!` macro definitions so the child
// modules see them through textual macro scoping.
pub(crate) mod fused;
mod mask;
use mask::{vid_exec, viota_exec, vmv_sx_exec, vmv_xs_exec};

// PLAN_TESTS
