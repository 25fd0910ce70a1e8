//! The fused execution tier: superinstruction windows over a
//! [`CompiledPlan`].
//!
//! [`FusionTable::build`] runs a peephole pass over the plan's straight-line
//! instruction sequence and records *windows* — short runs of vector ops
//! that the paper's strip-mined kernels emit back-to-back — each compiled to
//! one SEW-monomorphized Rust kernel that performs the whole window as bulk
//! slice traffic (`copy_from_slice` / `copy_within` / `chunks_exact`
//! iterators, packed mask words) instead of per-element interpreter
//! dispatch. Seven shapes are recognized:
//!
//! * **Map** — an optional unit-stride load, up to [`MAP_MAX_ALUS`] in-place
//!   scalar-operand ALU ops, and an optional unit-stride store, all on one
//!   register group (`vle; vop.vx/vi…; vse` — the paper's elementwise
//!   primitive, Listing 4). Each ALU op is one bulk pass over the group.
//! * **MapVv** — two unit-stride loads, a combining `vop.vv`, and a store
//!   (`dst = a ⊕ b`).
//! * **ScanStep** — the scan ladder body: fill `ry` with a broadcast or
//!   copy, `vslideup` from `rx`, combine back into `rx` (§4.3, Listing 6).
//! * **MaskedScanStep** — one round of the segmented ladder (§5):
//!   `vmsCC.vi v0, f, imm` and then a ScanStep whose combine runs under
//!   `v0.t`. At LMUL 8 the spill reloads between these ops keep it from
//!   forming.
//! * **Enumerate** — `vle a; vmsCC.vx m, a, s; viota d, m; vadd.vx d, d,
//!   acc; vse d; vcpop rd, m`, the `enumerate` strip body (§4.4).
//! * **Select** — `vle f; vmsCC.vi v0, f, imm; vle d, (pb); vle d, (pa),
//!   v0.t; vse d`, the `select` strip body (§4.4).
//! * **WholeChain** — a run of whole-register loads/stores.
//!
//! ## The counter-exactness contract
//!
//! A fused kernel may run **only** when a set of pure `&self` preconditions
//! proves the per-op execution of every instruction in the window would be
//! trap-free; the checks are completed *before any byte of state changes*,
//! so a kernel that declines (returns `false`) has touched nothing and the
//! driver ([`Machine::run_plan`] with `fuse`) re-executes the window op by
//! op — which reproduces exact architectural behaviour including
//! per-element trap addresses and partial writes. Kernels also decline on
//! register-group overlaps their bulk passes would resolve differently
//! from per-op order, on a SEW that differs from the window's EEW, and on
//! `vill`; the run loop counts each decline in
//! [`crate::FusedStats::declined`]. A kernel writes all the architectural
//! state per-op execution would: loaded groups, mask bits (tail and
//! inactive bits undisturbed), `v0`, and `rd`.
//!
//! On the fast path the run loop retires each constituent op's class
//! individually, so [`crate::Counters`] totals, per-class histograms, fuel
//! metering, trace events, and `stop_pc` are bit-identical to the plan
//! tier's. The three-engine differential suites (`tests/fuzz_exec.rs`,
//! including its shaped soup of every window template, and
//! `rvv-algos/tests/differential.rs`) enforce this on instruction soup and
//! on every paper kernel.
//!
//! ## The trace-event contract
//!
//! The run loop assembles a window's retire events *after* its kernel ran,
//! from the post-window machine. That is exact because an event reads only
//! `vl`, `vtype`, and — through `mem_footprint`, which never reads masks
//! or vector data — the base xregs of memory ops. So a window may not
//! touch `vl` or `vtype`; it may write vector registers and `v0` freely;
//! and it may write one xreg only as its last op, and only one that no
//! memory op in the window uses as a base (Enumerate's `vcpop rd`; the
//! matcher rejects an `rd` equal to either base).

use super::*;

/// Upper bound on in-place ALU ops folded into one Map window.
pub(crate) const MAP_MAX_ALUS: usize = 4;

/// A fused kernel: returns `true` if it executed the whole window, `false`
/// if a precondition failed and the caller must fall back to per-op
/// execution. A kernel that returns `false` has not mutated any state.
type FusedFn = fn(&mut Machine, &WindowKind) -> bool;

/// One in-place ALU stage of a Map window over its element region,
/// resolved per (op, SEW) when the stages are only known at run time.
type StageFn = fn(&mut [u8], u64);

/// One fusable window: `len` consecutive instructions starting at the index
/// the [`FusionTable`] maps to it.
#[derive(Debug)]
pub(crate) struct Window {
    pub(super) len: u32,
    kind: WindowKind,
    kernels: KCache<FusedFn>,
}

/// The recognized shape of a window (see module docs).
#[derive(Debug)]
enum WindowKind {
    Map(MapWin),
    MapVv(MapVvWin),
    ScanStep(ScanStepWin),
    MaskedScanStep(MaskedScanStepWin),
    Enumerate(EnumerateWin),
    Select(SelectWin),
    WholeChain(Box<[WholeOp]>),
}

/// `vle v; vop.vx/vi v, v, s…; vse v` (each part optional, total ≥ 2 ops).
#[derive(Debug)]
struct MapWin {
    /// EEW of the load/store, when the window has one. Must equal the
    /// dynamic SEW for the fast path (the paper's kernels always load at
    /// SEW); otherwise the window falls back.
    eew: Option<Sew>,
    /// The register group every op reads and writes.
    v: VReg,
    /// Base-address register of the leading unit-stride load.
    load: Option<XReg>,
    /// Base-address register of the trailing unit-stride store.
    store: Option<XReg>,
    /// In-place ALU stages; the `VSrc` is always `X` or `I`.
    alus: Box<[(VAluOp, VSrc)]>,
}

/// `vle va, (pa); vle vb, (pb); vop.vv va, va, vb; vse va, (dst)`.
#[derive(Debug)]
struct MapVvWin {
    eew: Sew,
    va: VReg,
    vb: VReg,
    pa: XReg,
    pb: XReg,
    dst: XReg,
    op: VAluOp,
}

/// `vmv ry, <mv>; vslideup ry, rx, <off>; vop.vv rx, rx, ry`.
#[derive(Debug)]
struct ScanStepWin {
    ry: VReg,
    rx: VReg,
    mv: VSrc,
    off: SlideOff,
    op: VAluOp,
}

/// `vmsCC.vi v0, f, imm` followed by a scan step whose combine runs under
/// `v0.t` — one round of the segmented scan ladder (§5).
#[derive(Debug)]
struct MaskedScanStepWin {
    cond: VCmp,
    f: VReg,
    imm: u64,
    step: ScanStepWin,
}

/// `vle a, (pa); vmsCC.vx m, a, s; viota d, m; vadd.vx d, d, acc;
/// vse d, (pd); vcpop rd, m` — the `enumerate` strip body (§4.4).
#[derive(Debug)]
struct EnumerateWin {
    eew: Sew,
    a: VReg,
    pa: XReg,
    cond: VCmp,
    m: VReg,
    s: XReg,
    d: VReg,
    acc: XReg,
    pd: XReg,
    rd: XReg,
}

/// `vle f, (pf); vmsCC.vi v0, f, imm; vle d, (pb); vle d, (pa), v0.t;
/// vse d, (dst)` — the `select` strip body (§4.4).
#[derive(Debug)]
struct SelectWin {
    eew: Sew,
    f: VReg,
    pf: XReg,
    cond: VCmp,
    imm: u64,
    d: VReg,
    pb: XReg,
    pa: XReg,
    dst: XReg,
}

/// One whole-register move in a [`WindowKind::WholeChain`].
#[derive(Debug)]
struct WholeOp {
    load: bool,
    nregs: u8,
    vreg: VReg,
    rs1: XReg,
}

// --------------------------------------------------------------- detection --

/// The fusion index of one plan: windows plus a per-instruction map from
/// start index to window. Built once per plan (lazily, on the first fused
/// run) and shared read-only afterwards.
#[derive(Debug)]
pub(crate) struct FusionTable {
    windows: Vec<Window>,
    starts: Vec<Option<u32>>,
}

impl FusionTable {
    /// Scan the plan's instructions and claim non-overlapping windows
    /// greedily left-to-right, most specific shape first.
    pub(crate) fn build(plan: &CompiledPlan) -> FusionTable {
        let instrs = &plan.source.instrs;
        let mut windows = Vec::new();
        let mut starts = vec![None; instrs.len()];
        let mut i = 0;
        while i < instrs.len() {
            if let Some((kind, len)) = match_window(instrs, i) {
                starts[i] = Some(windows.len() as u32);
                windows.push(Window {
                    len,
                    kind,
                    kernels: KCache::new(),
                });
                i += len as usize;
            } else {
                i += 1;
            }
        }
        FusionTable { windows, starts }
    }

    /// Number of static windows.
    pub(crate) fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// The window starting exactly at instruction index `idx`, if any.
    /// Entering a window anywhere else (a jump into its interior) simply
    /// runs per-op — every window op is straight-line, so the semantics
    /// are position-independent.
    #[inline(always)]
    pub(super) fn at(&self, idx: usize) -> Option<&Window> {
        match self.starts.get(idx) {
            Some(Some(w)) => Some(&self.windows[*w as usize]),
            _ => None,
        }
    }
}

fn match_window(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    match_enumerate(instrs, i)
        .or_else(|| match_select(instrs, i))
        .or_else(|| match_masked_scan_step(instrs, i))
        .or_else(|| match_step(instrs, i, true).map(|w| (WindowKind::ScanStep(w), 3)))
        .or_else(|| match_map_vv(instrs, i))
        .or_else(|| match_map(instrs, i))
        .or_else(|| match_whole_chain(instrs, i))
}

/// `vmv ry, <mv>; vslideup ry, rx, <off>; vop.vv rx, rx, ry` at `i`, the
/// combine unmasked (`vm`) or under `v0.t`.
fn match_step(instrs: &[Instr], i: usize, vm: bool) -> Option<ScanStepWin> {
    // Immediate extension matches `lower` for VMvVI exactly.
    let (ry, mv) = match *instrs.get(i)? {
        Instr::VMvVV { vd, vs1 } => (vd, VSrc::V(vs1)),
        Instr::VMvVX { vd, rs1 } => (vd, VSrc::X(rs1)),
        Instr::VMvVI { vd, imm } => (vd, VSrc::I(imm as i64 as u64)),
        _ => return None,
    };
    let (rx, off) = match *instrs.get(i + 1)? {
        Instr::VSlideUpVX {
            vd,
            vs2,
            rs1,
            vm: true,
        } if vd == ry => (vs2, SlideOff::X(rs1)),
        Instr::VSlideUpVI {
            vd,
            vs2,
            uimm,
            vm: true,
        } if vd == ry => (vs2, SlideOff::I(uimm as u64)),
        _ => return None,
    };
    match *instrs.get(i + 2)? {
        Instr::VOpVV {
            op,
            vd,
            vs2,
            vs1,
            vm: m,
        } if m == vm && vd == rx && vs2 == rx && vs1 == ry && rx != ry => Some(ScanStepWin {
            ry,
            rx,
            mv,
            off,
            op,
        }),
        _ => None,
    }
}

fn match_masked_scan_step(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    let (cond, f, imm) = match *instrs.get(i)? {
        Instr::VCmpVI {
            cond,
            vd,
            vs2,
            imm,
            vm: true,
        } if vd == VReg::V0 => (cond, vs2, imm as i64 as u64),
        _ => return None,
    };
    let step = match_step(instrs, i + 1, false)?;
    Some((
        WindowKind::MaskedScanStep(MaskedScanStepWin { cond, f, imm, step }),
        4,
    ))
}

fn match_enumerate(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    let Some(&Instr::VLoad {
        eew,
        vd: a,
        rs1: pa,
        vm: true,
    }) = instrs.get(i)
    else {
        return None;
    };
    let (cond, m, s) = match *instrs.get(i + 1)? {
        Instr::VCmpVX {
            cond,
            vd,
            vs2,
            rs1,
            vm: true,
        } if vs2 == a => (cond, vd, rs1),
        _ => return None,
    };
    let d = match *instrs.get(i + 2)? {
        Instr::VIota { vd, vs2, vm: true } if vs2 == m => vd,
        _ => return None,
    };
    let acc = match *instrs.get(i + 3)? {
        Instr::VOpVX {
            op: VAluOp::Add,
            vd,
            vs2,
            rs1,
            vm: true,
        } if vd == d && vs2 == d => rs1,
        _ => return None,
    };
    let pd = match *instrs.get(i + 4)? {
        Instr::VStore {
            eew: e,
            vs3,
            rs1,
            vm: true,
        } if e == eew && vs3 == d => rs1,
        _ => return None,
    };
    // The count is the window's one xreg write, so no memory op of the
    // window may use it as a base (see the module docs).
    match *instrs.get(i + 5)? {
        Instr::VCpop { rd, vs2, vm: true } if vs2 == m && rd != pa && rd != pd => Some((
            WindowKind::Enumerate(EnumerateWin {
                eew,
                a,
                pa,
                cond,
                m,
                s,
                d,
                acc,
                pd,
                rd,
            }),
            6,
        )),
        _ => None,
    }
}

fn match_select(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    let Some(&Instr::VLoad {
        eew,
        vd: f,
        rs1: pf,
        vm: true,
    }) = instrs.get(i)
    else {
        return None;
    };
    let (cond, imm) = match *instrs.get(i + 1)? {
        Instr::VCmpVI {
            cond,
            vd,
            vs2,
            imm,
            vm: true,
        } if vd == VReg::V0 && vs2 == f => (cond, imm as i64 as u64),
        _ => return None,
    };
    let (d, pb) = match *instrs.get(i + 2)? {
        Instr::VLoad {
            eew: e,
            vd,
            rs1,
            vm: true,
        } if e == eew => (vd, rs1),
        _ => return None,
    };
    let pa = match *instrs.get(i + 3)? {
        Instr::VLoad {
            eew: e,
            vd,
            rs1,
            vm: false,
        } if e == eew && vd == d => rs1,
        _ => return None,
    };
    match *instrs.get(i + 4)? {
        Instr::VStore {
            eew: e,
            vs3,
            rs1,
            vm: true,
        } if e == eew && vs3 == d => Some((
            WindowKind::Select(SelectWin {
                eew,
                f,
                pf,
                cond,
                imm,
                d,
                pb,
                pa,
                dst: rs1,
            }),
            5,
        )),
        _ => None,
    }
}

fn match_map_vv(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    let (eew, va, pa) = match *instrs.get(i)? {
        Instr::VLoad {
            eew,
            vd,
            rs1,
            vm: true,
        } => (eew, vd, rs1),
        _ => return None,
    };
    let (vb, pb) = match *instrs.get(i + 1)? {
        Instr::VLoad {
            eew: e,
            vd,
            rs1,
            vm: true,
        } if e == eew && vd != va => (vd, rs1),
        _ => return None,
    };
    let op = match *instrs.get(i + 2)? {
        Instr::VOpVV {
            op,
            vd,
            vs2,
            vs1,
            vm: true,
        } if vd == va && vs2 == va && vs1 == vb => op,
        _ => return None,
    };
    match *instrs.get(i + 3)? {
        Instr::VStore {
            eew: e,
            vs3,
            rs1,
            vm: true,
        } if e == eew && vs3 == va => Some((
            WindowKind::MapVv(MapVvWin {
                eew,
                va,
                vb,
                pa,
                pb,
                dst: rs1,
                op,
            }),
            4,
        )),
        _ => None,
    }
}

fn match_map(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    let mut at = i;
    let mut v: Option<VReg> = None;
    let mut eew: Option<Sew> = None;
    let mut load: Option<XReg> = None;
    if let Some(&Instr::VLoad {
        eew: e,
        vd,
        rs1,
        vm: true,
    }) = instrs.get(at)
    {
        v = Some(vd);
        eew = Some(e);
        load = Some(rs1);
        at += 1;
    }
    let mut alus: Vec<(VAluOp, VSrc)> = Vec::new();
    while alus.len() < MAP_MAX_ALUS {
        // Immediate extension matches `lower` for VOpVI exactly.
        let (op, vd, vs2, src) = match instrs.get(at) {
            Some(&Instr::VOpVX {
                op,
                vd,
                vs2,
                rs1,
                vm: true,
            }) => (op, vd, vs2, VSrc::X(rs1)),
            Some(&Instr::VOpVI {
                op,
                vd,
                vs2,
                imm,
                vm: true,
            }) => (
                op,
                vd,
                vs2,
                VSrc::I(if op.imm_is_unsigned() {
                    imm as u8 as u64
                } else {
                    imm as i64 as u64
                }),
            ),
            _ => break,
        };
        if vd != vs2 || v.is_some_and(|r| r != vd) {
            break;
        }
        v = Some(vd);
        alus.push((op, src));
        at += 1;
    }
    let v = v?;
    let mut store: Option<XReg> = None;
    if let Some(&Instr::VStore {
        eew: e,
        vs3,
        rs1,
        vm: true,
    }) = instrs.get(at)
    {
        if vs3 == v && (eew.is_none() || eew == Some(e)) {
            store = Some(rs1);
            eew.get_or_insert(e);
            at += 1;
        }
    }
    let len = at - i;
    if len < 2 {
        return None;
    }
    Some((
        WindowKind::Map(MapWin {
            eew,
            v,
            load,
            store,
            alus: alus.into_boxed_slice(),
        }),
        len as u32,
    ))
}

fn match_whole_chain(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
    let mut ops = Vec::new();
    let mut at = i;
    loop {
        // Misaligned register groups trap per-op; exclude them statically so
        // a formed chain never has to re-check alignment at run time.
        let op = match instrs.get(at) {
            Some(&Instr::VLoadWhole { nregs, vd, rs1 })
                if (vd.num() as u32).is_multiple_of(nregs as u32) =>
            {
                WholeOp {
                    load: true,
                    nregs,
                    vreg: vd,
                    rs1,
                }
            }
            Some(&Instr::VStoreWhole { nregs, vs3, rs1 })
                if (vs3.num() as u32).is_multiple_of(nregs as u32) =>
            {
                WholeOp {
                    load: false,
                    nregs,
                    vreg: vs3,
                    rs1,
                }
            }
            _ => break,
        };
        ops.push(op);
        at += 1;
    }
    if ops.len() < 2 {
        return None;
    }
    let len = (at - i) as u32;
    Some((WindowKind::WholeChain(ops.into_boxed_slice()), len))
}

// ----------------------------------------------------------------- kernels --

impl Window {
    /// Attempt the fused fast path. `key` is the driver's current
    /// [`vtype_key`]; `vill` (key 0) declines, so the per-op fallback
    /// raises the architectural trap.
    #[inline(always)]
    pub(super) fn try_execute(&self, m: &mut Machine, key: u8) -> bool {
        if let WindowKind::WholeChain(ops) = &self.kind {
            // Whole-register moves are vtype-independent: no SEW kernel.
            return exec_whole_chain(m, ops);
        }
        match self
            .kernels
            .lookup(key, |sew| resolve_window(&self.kind, sew))
        {
            Ok(f) => f(m, &self.kind),
            Err(_) => false,
        }
    }
}

fn resolve_window(kind: &WindowKind, sew: Sew) -> FusedFn {
    match kind {
        WindowKind::Map(w) => match w.alus.len() {
            0 => by_sew!(sew, exec_map0),
            1 => resolve_map1(w.alus[0].0, sew),
            _ => by_sew!(sew, exec_mapn),
        },
        WindowKind::MapVv(w) => resolve_mapvv(w.op, sew),
        WindowKind::ScanStep(w) => resolve_scanstep(w.op, sew),
        WindowKind::MaskedScanStep(w) => resolve_masked_scanstep(w.step.op, sew),
        WindowKind::Enumerate(_) => by_sew!(sew, exec_enumerate),
        WindowKind::Select(_) => by_sew!(sew, exec_select),
        WindowKind::WholeChain(_) => exec_never,
    }
}

/// Unreachable kernel slot ([`WindowKind::WholeChain`] never resolves).
fn exec_never(_: &mut Machine, _: &WindowKind) -> bool {
    false
}

macro_rules! resolve_alu_kernel {
    ($name:ident, $f:ident) => {
        resolve_alu_kernel!($name, $f, FusedFn);
    };
    ($name:ident, $f:ident, $t:ty) => {
        fn $name(op: VAluOp, sew: Sew) -> $t {
            macro_rules! k {
                ($o:ty) => {
                    match sew {
                        Sew::E8 => $f::<u8, $o>,
                        Sew::E16 => $f::<u16, $o>,
                        Sew::E32 => $f::<u32, $o>,
                        Sew::E64 => $f::<u64, $o>,
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
    };
}

resolve_alu_kernel!(resolve_map1, exec_map1);
resolve_alu_kernel!(resolve_mapvv, exec_mapvv);
resolve_alu_kernel!(resolve_scanstep, exec_scanstep);
resolve_alu_kernel!(resolve_masked_scanstep, exec_masked_scanstep);
resolve_alu_kernel!(resolve_stage, stage_pass, StageFn);

/// One in-place ALU stage over an element region, truncating each result
/// to SEW exactly as the per-op stage's register write does.
#[inline(always)]
fn stage_pass<E: Elem, O: BinOp>(region: &mut [u8], b: u64) {
    for c in region.chunks_exact_mut(E::BYTES) {
        E::st(c, O::apply::<E>(E::ld(c), b));
    }
}

/// The pre-truncated scalar operand of an in-place ALU stage (`None` only
/// for the detection-excluded `V` source).
#[inline(always)]
fn scalar_operand<E: Elem>(m: &Machine, src: VSrc) -> Option<u64> {
    match src {
        VSrc::X(r) => Some(m.xreg(r) & E::MAX),
        VSrc::I(v) => Some(v & E::MAX),
        VSrc::V(_) => None,
    }
}

/// Disjoint element regions of the register file: mutable at `offa`,
/// shared at `offb` (the caller has proven the ranges don't overlap).
#[inline(always)]
fn disjoint_regions(
    vregs: &mut [u8],
    offa: usize,
    offb: usize,
    bytes: usize,
) -> (&mut [u8], &[u8]) {
    if offa < offb {
        let (lo, hi) = vregs.split_at_mut(offb);
        (&mut lo[offa..offa + bytes], &hi[..bytes])
    } else {
        let (lo, hi) = vregs.split_at_mut(offa);
        (&mut hi[..bytes], &lo[offb..offb + bytes])
    }
}

/// Shared body of the Map kernels: prove every per-op check would pass,
/// bulk-load, run `pass` over the element region, bulk-store. Returns
/// `false` — having mutated nothing — on any failed precondition.
#[inline(always)]
fn map_region<E: Elem>(m: &mut Machine, w: &MapWin, pass: impl FnOnce(&mut [u8])) -> bool {
    if let Some(eew) = w.eew {
        if eew != E::SEW {
            return false;
        }
    }
    let Ok((_, vl)) = m.vcfg() else {
        return false;
    };
    if w.load.is_some() || w.store.is_some() {
        let Ok(regs) = m.emul_regs(E::SEW) else {
            return false;
        };
        if m.check_emul_group(w.v, regs).is_err() {
            return false;
        }
    }
    if !w.alus.is_empty() && m.check_data_op(w.v, &[w.v], true).is_err() {
        return false;
    }
    let bytes = vl as usize * E::BYTES;
    let lbase = w.load.map(|r| m.xreg(r));
    let sbase = w.store.map(|r| m.xreg(r));
    if bytes > 0 {
        // One range check per direction covers every per-element access
        // (`vl > 0` accesses are contiguous in `[base, base + bytes)`, and
        // `Memory::check` is direction-symmetric).
        for base in [lbase, sbase].into_iter().flatten() {
            if m.mem.read_bytes(base, bytes as u64).is_err() {
                return false;
            }
        }
    }
    let vlenb = m.vlenb() as usize;
    let off = w.v.num() as usize * vlenb;
    let (mem, vregs) = m.mem_and_vregs();
    let region = &mut vregs[off..off + bytes];
    if bytes > 0 {
        if let Some(base) = lbase {
            let src = mem.read_bytes(base, bytes as u64).expect("prechecked");
            region.copy_from_slice(src);
        }
    }
    pass(region);
    if bytes > 0 {
        if let Some(base) = sbase {
            mem.write_bytes(base, region).expect("prechecked");
        }
    }
    true
}

/// Map window with no ALU stages: a pure load/store copy through the
/// register group.
fn exec_map0<E: Elem>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::Map(w) = kind else {
        return false;
    };
    map_region::<E>(m, w, |_region| {})
}

/// Map window with exactly one ALU stage, monomorphized over the operation
/// so the element loop compiles to a straight (auto-vectorizable) pass.
fn exec_map1<E: Elem, O: BinOp>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::Map(w) = kind else {
        return false;
    };
    let Some(b) = scalar_operand::<E>(m, w.alus[0].1) else {
        return false;
    };
    map_region::<E>(m, w, |region| stage_pass::<E, O>(region, b))
}

/// Map window with 2..=[`MAP_MAX_ALUS`] stages: one monomorphized bulk
/// pass per stage, each resolved per (op, SEW).
fn exec_mapn<E: Elem>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::Map(w) = kind else {
        return false;
    };
    let mut stages = [(stage_pass::<E, BAdd> as StageFn, 0u64); MAP_MAX_ALUS];
    let n = w.alus.len().min(MAP_MAX_ALUS);
    for (stage, &(op, src)) in stages.iter_mut().zip(w.alus.iter()) {
        let Some(b) = scalar_operand::<E>(m, src) else {
            return false;
        };
        *stage = (resolve_stage(op, E::SEW), b);
    }
    map_region::<E>(m, w, |region| {
        for (pass, b) in &stages[..n] {
            pass(region, *b);
        }
    })
}

/// `dst = a ⊕ b` over two loaded groups.
fn exec_mapvv<E: Elem, O: BinOp>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::MapVv(w) = kind else {
        return false;
    };
    if w.eew != E::SEW {
        return false;
    }
    let Ok((t, vl)) = m.vcfg() else {
        return false;
    };
    let Ok(regs) = m.emul_regs(E::SEW) else {
        return false;
    };
    if m.check_emul_group(w.va, regs).is_err() || m.check_emul_group(w.vb, regs).is_err() {
        return false;
    }
    if m.check_data_op(w.va, &[w.va, w.vb], true).is_err() {
        return false;
    }
    // Overlapping operand groups are architecturally legal for `vop.vv`,
    // but the bulk zip needs disjoint regions — rare, so just fall back.
    if Machine::groups_overlap(w.va, t.lmul.regs(), w.vb, t.lmul.regs()) {
        return false;
    }
    let bytes = vl as usize * E::BYTES;
    let (pa, pb, dst) = (m.xreg(w.pa), m.xreg(w.pb), m.xreg(w.dst));
    if bytes == 0 {
        return true;
    }
    for base in [pa, pb, dst] {
        if m.mem.read_bytes(base, bytes as u64).is_err() {
            return false;
        }
    }
    let vlenb = m.vlenb() as usize;
    let (offa, offb) = (w.va.num() as usize * vlenb, w.vb.num() as usize * vlenb);
    let (mem, vregs) = m.mem_and_vregs();
    vregs[offa..offa + bytes]
        .copy_from_slice(mem.read_bytes(pa, bytes as u64).expect("prechecked"));
    vregs[offb..offb + bytes]
        .copy_from_slice(mem.read_bytes(pb, bytes as u64).expect("prechecked"));
    let (ra, rb) = disjoint_regions(vregs, offa, offb, bytes);
    for (ca, cb) in ra.chunks_exact_mut(E::BYTES).zip(rb.chunks_exact(E::BYTES)) {
        E::st(ca, O::apply::<E>(E::ld(ca), E::ld(cb)));
    }
    mem.write_bytes(dst, &vregs[offa..offa + bytes])
        .expect("prechecked");
    true
}

/// A scan step whose per-op checks all passed: byte offsets of `ry`/`rx`,
/// the fill (a value, or the offset of a source group), the slide offset
/// in bytes, and the element region's length.
struct StepPlan {
    offy: usize,
    offx: usize,
    fill: Result<u64, usize>,
    sb: usize,
    bytes: usize,
}

/// Run the per-op checks of a scan step's three ops (the combine under
/// `v0.t` when `masked`) without touching state. `None` declines.
fn step_plan<E: Elem>(m: &Machine, w: &ScanStepWin, masked: bool) -> Option<StepPlan> {
    let (t, vl) = m.vcfg().ok()?;
    let regs = t.lmul.regs();
    let vlenb = m.vlenb() as usize;
    // Move-op checks, plus bulk disjointness for a register-source fill.
    let fill = match w.mv {
        VSrc::V(src) => {
            m.check_data_op(w.ry, &[src], true).ok()?;
            // Per-op copies elementwise ascending; with an overlapping
            // source that differs from memmove semantics, so fall back.
            // Under `v0.t` the source must not read the new `v0` either.
            if Machine::groups_overlap(w.ry, regs, src, regs)
                || (masked && Machine::groups_overlap(src, regs, VReg::V0, 1))
            {
                return None;
            }
            Err(src.num() as usize * vlenb)
        }
        VSrc::X(r) => {
            m.check_data_op(w.ry, &[], true).ok()?;
            Ok(m.xreg(r) & E::MAX)
        }
        VSrc::I(v) => {
            m.check_data_op(w.ry, &[], true).ok()?;
            Ok(v & E::MAX)
        }
    };
    // Slide checks: an overlapping vd/vs2 traps per-op — fall back so the
    // ordinary kernel raises the exact OverlapConstraint error.
    m.check_data_op(w.ry, &[w.rx], true).ok()?;
    if Machine::groups_overlap(w.ry, regs, w.rx, regs) {
        return None;
    }
    // Combine checks (a masked combine into the `v0` group traps). Under
    // `v0.t`, `ry` must not clobber the mask the combine reads.
    m.check_data_op(w.rx, &[w.rx, w.ry], !masked).ok()?;
    if masked && Machine::groups_overlap(w.ry, regs, VReg::V0, 1) {
        return None;
    }
    Some(StepPlan {
        offy: w.ry.num() as usize * vlenb,
        offx: w.rx.num() as usize * vlenb,
        fill,
        sb: (w.off.value(m).min(vl as u64) as usize) * E::BYTES,
        bytes: vl as usize * E::BYTES,
    })
}

/// Pass 1 of a scan step: `ry = [fill(start) | rx[0 .. vl-start)]`. A
/// single ascending pass would read `rx[i - start]` after modifying it;
/// materializing all of `ry` first (the slide's vd/vs2 overlap prohibition
/// keeps the groups disjoint) leaves pass 2 a plain zip.
#[inline(always)]
fn step_fill<E: Elem>(vregs: &mut [u8], p: &StepPlan) {
    match p.fill {
        Ok(v) => {
            for c in vregs[p.offy..p.offy + p.sb].chunks_exact_mut(E::BYTES) {
                E::st(c, v);
            }
        }
        Err(offs) => vregs.copy_within(offs..offs + p.sb, p.offy),
    }
    vregs.copy_within(p.offx..p.offx + (p.bytes - p.sb), p.offy + p.sb);
}

/// The scan ladder body, in two bulk passes: [`step_fill`], then
/// `rx[i] ⊕= ry[i]`.
fn exec_scanstep<E: Elem, O: BinOp>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::ScanStep(w) = kind else {
        return false;
    };
    let Some(p) = step_plan::<E>(m, w, false) else {
        return false;
    };
    let vregs = m.vreg_store_mut();
    step_fill::<E>(vregs, &p);
    let (rx, ry) = disjoint_regions(vregs, p.offx, p.offy, p.bytes);
    for (cx, cy) in rx.chunks_exact_mut(E::BYTES).zip(ry.chunks_exact(E::BYTES)) {
        E::st(cx, O::apply::<E>(E::ld(cx), E::ld(cy)));
    }
    true
}

/// One segmented-ladder round: the compare writes `v0` (tail bits
/// undisturbed), then the scan step runs with `rx[i] ⊕= ry[i]` only where
/// the new `v0` is set. `f` may not overlap `v0`; every other overlap the
/// per-op run would resolve differently declines in [`step_plan`].
fn exec_masked_scanstep<E: Elem, O: BinOp>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::MaskedScanStep(w) = kind else {
        return false;
    };
    let Ok((t, vl)) = m.vcfg() else {
        return false;
    };
    if m.check_group(w.f, t.lmul).is_err()
        || Machine::groups_overlap(w.f, t.lmul.regs(), VReg::V0, 1)
    {
        return false;
    }
    let Some(p) = step_plan::<E>(m, &w.step, true) else {
        return false;
    };
    let offf = mask::reg_off(m, w.f);
    let mut set = mask::staging(m, vl);
    let vregs = m.vreg_store_mut();
    mask::cmp_words_dyn::<E>(
        w.cond,
        &vregs[offf..offf + p.bytes],
        w.imm & E::MAX,
        &mut set,
    );
    mask::merge_staged(vregs, 0, vl, true, &set);
    step_fill::<E>(vregs, &p);
    let (rx, ry) = disjoint_regions(vregs, p.offx, p.offy, p.bytes);
    let blocks = rx.chunks_mut(64 * E::BYTES).zip(ry.chunks(64 * E::BYTES));
    for ((bx, by), &bits) in blocks.zip(set.iter()) {
        let pairs = bx.chunks_exact_mut(E::BYTES).zip(by.chunks_exact(E::BYTES));
        for (j, (cx, cy)) in pairs.enumerate() {
            if bits >> j & 1 != 0 {
                E::st(cx, O::apply::<E>(E::ld(cx), E::ld(cy)));
            }
        }
    }
    m.cmp_scratch = set;
    true
}

/// `enumerate`: load `a`, compare it against `s` into the mask `m`, write
/// `d[i] = acc + |{ j < i : m[j] }|`, store `d`, and leave the count in
/// `rd` (the window's last op, so its one xreg write).
fn exec_enumerate<E: Elem>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::Enumerate(w) = kind else {
        return false;
    };
    if w.eew != E::SEW {
        return false;
    }
    let Ok((t, vl)) = m.vcfg() else {
        return false;
    };
    let Ok(regs) = m.emul_regs(E::SEW) else {
        return false;
    };
    if m.check_emul_group(w.a, regs).is_err()
        || m.check_emul_group(w.d, regs).is_err()
        || m.check_group(w.a, t.lmul).is_err()
        || m.check_group(w.d, t.lmul).is_err()
    {
        return false;
    }
    // `viota` traps on d ∩ m; the other two would need staging.
    let lregs = t.lmul.regs();
    if Machine::groups_overlap(w.m, 1, w.a, lregs)
        || Machine::groups_overlap(w.d, lregs, w.m, 1)
        || Machine::groups_overlap(w.a, lregs, w.d, lregs)
    {
        return false;
    }
    let bytes = vl as usize * E::BYTES;
    let (pa, pd) = (m.xreg(w.pa), m.xreg(w.pd));
    if bytes > 0
        && (m.mem.read_bytes(pa, bytes as u64).is_err()
            || m.mem.read_bytes(pd, bytes as u64).is_err())
    {
        return false;
    }
    let (s, acc) = (m.xreg(w.s) & E::MAX, m.xreg(w.acc));
    let (offa, offm, offd) = (
        mask::reg_off(m, w.a),
        mask::reg_off(m, w.m),
        mask::reg_off(m, w.d),
    );
    let mut set = mask::staging(m, vl);
    let (mem, vregs) = m.mem_and_vregs();
    if bytes > 0 {
        vregs[offa..offa + bytes]
            .copy_from_slice(mem.read_bytes(pa, bytes as u64).expect("prechecked"));
    }
    mask::cmp_words_dyn::<E>(w.cond, &vregs[offa..offa + bytes], s, &mut set);
    mask::merge_staged(vregs, offm, vl, true, &set);
    let count = mask::iota_region::<E>(vregs, offd, offm, vl, true, acc);
    if bytes > 0 {
        mem.write_bytes(pd, &vregs[offd..offd + bytes])
            .expect("prechecked");
    }
    m.cmp_scratch = set;
    m.set_xreg(w.rd, count);
    true
}

/// `select`: load the flags `f`, compare them into `v0`, load `d` from
/// `pb`, overwrite the elements `v0` selects from `pa`, store `d`.
fn exec_select<E: Elem>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::Select(w) = kind else {
        return false;
    };
    if w.eew != E::SEW {
        return false;
    }
    let Ok((t, vl)) = m.vcfg() else {
        return false;
    };
    let Ok(regs) = m.emul_regs(E::SEW) else {
        return false;
    };
    if m.check_emul_group(w.f, regs).is_err()
        || m.check_emul_group(w.d, regs).is_err()
        || m.check_group(w.f, t.lmul).is_err()
    {
        return false;
    }
    let lregs = t.lmul.regs();
    if Machine::groups_overlap(w.f, lregs, VReg::V0, 1)
        || Machine::groups_overlap(w.d, lregs, VReg::V0, 1)
        || Machine::groups_overlap(w.f, lregs, w.d, lregs)
    {
        return false;
    }
    let bytes = vl as usize * E::BYTES;
    let (pf, pb, pa, dst) = (m.xreg(w.pf), m.xreg(w.pb), m.xreg(w.pa), m.xreg(w.dst));
    if bytes > 0 {
        for base in [pf, pb, pa, dst] {
            if m.mem.read_bytes(base, bytes as u64).is_err() {
                return false;
            }
        }
    }
    let (offf, offd) = (mask::reg_off(m, w.f), mask::reg_off(m, w.d));
    let mut set = mask::staging(m, vl);
    let (mem, vregs) = m.mem_and_vregs();
    if bytes > 0 {
        vregs[offf..offf + bytes]
            .copy_from_slice(mem.read_bytes(pf, bytes as u64).expect("prechecked"));
        vregs[offd..offd + bytes]
            .copy_from_slice(mem.read_bytes(pb, bytes as u64).expect("prechecked"));
    }
    mask::cmp_words_dyn::<E>(w.cond, &vregs[offf..offf + bytes], w.imm & E::MAX, &mut set);
    mask::merge_staged(vregs, 0, vl, true, &set);
    if bytes > 0 {
        let src = mem.read_bytes(pa, bytes as u64).expect("prechecked");
        for (wi, &word) in set.iter().enumerate() {
            let mut bits = word & mask::below(vl as u64, wi);
            while bits != 0 {
                let at = (64 * wi + bits.trailing_zeros() as usize) * E::BYTES;
                vregs[offd + at..offd + at + E::BYTES].copy_from_slice(&src[at..at + E::BYTES]);
                bits &= bits - 1;
            }
        }
        mem.write_bytes(dst, &vregs[offd..offd + bytes])
            .expect("prechecked");
    }
    m.cmp_scratch = set;
    true
}

/// A chain of whole-register moves: alignment was proven statically at
/// detection, so the only runtime precondition is that every memory range
/// is accessible. The moves then reuse the plan tier's bulk kernels.
fn exec_whole_chain(m: &mut Machine, ops: &[WholeOp]) -> bool {
    let vlenb = m.vlenb() as u64;
    for op in ops {
        let base = m.xreg(op.rs1);
        if m.mem.read_bytes(base, op.nregs as u64 * vlenb).is_err() {
            return false;
        }
    }
    for op in ops {
        if op.load {
            m.vload_whole_fast(op.nregs, op.vreg, op.rs1)
                .expect("prechecked");
        } else {
            m.vstore_whole_fast(op.nregs, op.vreg, op.rs1)
                .expect("prechecked");
        }
    }
    true
}
