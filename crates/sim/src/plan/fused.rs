//! The fused execution tier: superinstruction windows over a
//! [`CompiledPlan`].
//!
//! [`FusionTable::build`] runs a peephole pass over the plan's straight-line
//! instruction sequence and records *windows* — short runs of vector ops
//! that the paper's strip-mined kernels emit back-to-back — each compiled to
//! one SEW-monomorphized Rust kernel that performs the whole window as bulk
//! slice traffic (`copy_from_slice` / `copy_within` / `chunks_exact`
//! iterators) instead of per-element interpreter dispatch. Four shapes are
//! recognized:
//!
//! * **Map** — an optional unit-stride load, up to [`MAP_MAX_ALUS`] in-place
//!   scalar-operand ALU ops, and an optional unit-stride store, all on one
//!   register group (`vle; vop.vx/vi…; vse` — the paper's elementwise
//!   primitive, Listing 4).
//! * **MapVv** — two unit-stride loads, a combining `vop.vv`, and a store
//!   (`dst = a ⊕ b`).
//! * **ScanStep** — the scan ladder body: fill `ry` with a broadcast or
//!   copy, `vslideup` from `rx`, combine back into `rx` (§4.3, Listing 6).
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
//! per-element trap addresses and partial writes. On the fast path the
//! driver retires each constituent op's class individually, so
//! [`crate::Counters`] totals, per-class histograms, fuel metering, trace
//! events, and `stop_pc` are bit-identical to the plan tier's. The
//! three-engine differential suites (`tests/fuzz_exec.rs`,
//! `rvv-algos/tests/differential.rs`) enforce this on instruction soup and
//! on every paper kernel.

use super::*;

/// Upper bound on in-place ALU ops folded into one Map window.
pub(crate) const MAP_MAX_ALUS: usize = 4;

/// A fused kernel: returns `true` if it executed the whole window, `false`
/// if a precondition failed and the caller must fall back to per-op
/// execution. A kernel that returns `false` has not mutated any state.
type FusedFn = fn(&mut Machine, &WindowKind) -> bool;

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
    match_scan_step(instrs, i)
        .or_else(|| match_map_vv(instrs, i))
        .or_else(|| match_map(instrs, i))
        .or_else(|| match_whole_chain(instrs, i))
}

fn match_scan_step(instrs: &[Instr], i: usize) -> Option<(WindowKind, u32)> {
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
            vm: true,
        } if vd == rx && vs2 == rx && vs1 == ry && rx != ry => Some((
            WindowKind::ScanStep(ScanStepWin {
                ry,
                rx,
                mv,
                off,
                op,
            }),
            3,
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
        WindowKind::WholeChain(_) => exec_never,
    }
}

/// Unreachable kernel slot ([`WindowKind::WholeChain`] never resolves).
fn exec_never(_: &mut Machine, _: &WindowKind) -> bool {
    false
}

macro_rules! resolve_alu_kernel {
    ($name:ident, $f:ident) => {
        fn $name(op: VAluOp, sew: Sew) -> FusedFn {
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

/// One ALU stage applied at scalar width: truncated like a register
/// write/read round-trip so chained stages match per-op execution exactly.
fn sapply<E: Elem, O: BinOp>(a: u64, b: u64) -> u64 {
    O::apply::<E>(a, b) & E::MAX
}

fn scalar_fn<E: Elem>(op: VAluOp) -> fn(u64, u64) -> u64 {
    match op {
        VAluOp::Add => sapply::<E, BAdd>,
        VAluOp::Sub => sapply::<E, BSub>,
        VAluOp::Rsub => sapply::<E, BRsub>,
        VAluOp::Minu => sapply::<E, BMinu>,
        VAluOp::Min => sapply::<E, BMin>,
        VAluOp::Maxu => sapply::<E, BMaxu>,
        VAluOp::Max => sapply::<E, BMax>,
        VAluOp::And => sapply::<E, BAnd>,
        VAluOp::Or => sapply::<E, BOr>,
        VAluOp::Xor => sapply::<E, BXor>,
        VAluOp::Sll => sapply::<E, BSll>,
        VAluOp::Srl => sapply::<E, BSrl>,
        VAluOp::Sra => sapply::<E, BSra>,
        VAluOp::Mul => sapply::<E, BMul>,
        VAluOp::Mulh => sapply::<E, BMulh>,
        VAluOp::Mulhu => sapply::<E, BMulhu>,
        VAluOp::Divu => sapply::<E, BDivu>,
        VAluOp::Div => sapply::<E, BDiv>,
        VAluOp::Remu => sapply::<E, BRemu>,
        VAluOp::Rem => sapply::<E, BRem>,
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
    map_region::<E>(m, w, |region| {
        for c in region.chunks_exact_mut(E::BYTES) {
            E::st(c, O::apply::<E>(E::ld(c), b));
        }
    })
}

/// Map window with 2..=[`MAP_MAX_ALUS`] stages, chained through resolved
/// scalar function pointers with per-stage SEW truncation.
fn exec_mapn<E: Elem>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::Map(w) = kind else {
        return false;
    };
    let mut stages = [(sapply::<E, BAdd> as fn(u64, u64) -> u64, 0u64); MAP_MAX_ALUS];
    let n = w.alus.len().min(MAP_MAX_ALUS);
    for (stage, &(op, src)) in stages.iter_mut().zip(w.alus.iter()) {
        let Some(b) = scalar_operand::<E>(m, src) else {
            return false;
        };
        *stage = (scalar_fn::<E>(op), b);
    }
    map_region::<E>(m, w, |region| {
        for c in region.chunks_exact_mut(E::BYTES) {
            let mut a = E::ld(c);
            for (f, b) in &stages[..n] {
                a = f(a, *b);
            }
            E::st(c, a);
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

/// The scan ladder body, in two bulk passes.
///
/// A single ascending pass would read `rx[i - start]` after modifying it;
/// instead pass 1 materializes all of `ry` (fill value below the slide
/// offset, a `copy_within` of the still-unmodified `rx` above it — the
/// slide's vd/vs2 overlap prohibition guarantees the groups are disjoint),
/// and pass 2 combines `rx[i] ⊕= ry[i]`.
fn exec_scanstep<E: Elem, O: BinOp>(m: &mut Machine, kind: &WindowKind) -> bool {
    let WindowKind::ScanStep(w) = kind else {
        return false;
    };
    let Ok((t, vl)) = m.vcfg() else {
        return false;
    };
    let regs = t.lmul.regs();
    let vlenb = m.vlenb() as usize;
    // Move-op checks, plus bulk disjointness for a register-source fill.
    let (mval, offs) = match w.mv {
        VSrc::V(src) => {
            if m.check_data_op(w.ry, &[src], true).is_err() {
                return false;
            }
            // Per-op copies elementwise ascending; with an overlapping
            // source that differs from memmove semantics, so fall back.
            if Machine::groups_overlap(w.ry, regs, src, regs) {
                return false;
            }
            (None, Some(src.num() as usize * vlenb))
        }
        VSrc::X(r) => {
            if m.check_data_op(w.ry, &[], true).is_err() {
                return false;
            }
            (Some(m.xreg(r) & E::MAX), None)
        }
        VSrc::I(v) => {
            if m.check_data_op(w.ry, &[], true).is_err() {
                return false;
            }
            (Some(v & E::MAX), None)
        }
    };
    // Slide checks: an overlapping vd/vs2 traps per-op — fall back so the
    // ordinary kernel raises the exact OverlapConstraint error.
    if m.check_data_op(w.ry, &[w.rx], true).is_err() {
        return false;
    }
    if Machine::groups_overlap(w.ry, regs, w.rx, regs) {
        return false;
    }
    // Combine checks.
    if m.check_data_op(w.rx, &[w.rx, w.ry], true).is_err() {
        return false;
    }
    let bytes = vl as usize * E::BYTES;
    let sb = (w.off.value(m).min(vl as u64) as usize) * E::BYTES;
    let (offy, offx) = (w.ry.num() as usize * vlenb, w.rx.num() as usize * vlenb);
    let vregs = m.vreg_store_mut();
    // Pass 1: ry = [fill(start) | rx[0 .. vl-start)].
    match (mval, offs) {
        (Some(v), _) => {
            for c in vregs[offy..offy + sb].chunks_exact_mut(E::BYTES) {
                E::st(c, v);
            }
        }
        (None, Some(offs)) => vregs.copy_within(offs..offs + sb, offy),
        (None, None) => return false,
    }
    vregs.copy_within(offx..offx + (bytes - sb), offy + sb);
    // Pass 2: rx[i] ⊕= ry[i].
    let (rx, ry) = disjoint_regions(vregs, offx, offy, bytes);
    for (cx, cy) in rx.chunks_exact_mut(E::BYTES).zip(ry.chunks_exact(E::BYTES)) {
        E::st(cx, O::apply::<E>(E::ld(cx), E::ld(cy)));
    }
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
