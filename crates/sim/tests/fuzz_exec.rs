//! Robustness fuzz: the simulator must never panic, whatever instructions
//! it executes — traps must surface as typed `SimError`s.
//!
//! Instruction soup is produced by *decoding random 32-bit words*: anything
//! `rvv_isa::decode` accepts is by construction a well-formed instruction
//! of the modelled subset, so this sweeps the whole decode→execute surface
//! (including misaligned groups, vill configurations, wild memory
//! addresses, and overlap constraints) without hand-writing generators.
//!
//! Decoded words almost never line up into a fusion window, so the
//! *shaped soup* below emits random instances of every window template and
//! of the mask-group ops instead, with registers, vtype, `avl`, `v0`, base
//! addresses (near the end of memory, inside guard regions) and fuel all
//! varied — the differential then covers both the fused kernels and their
//! decline paths.

use proptest::prelude::*;
use rvv_isa::{decode, Instr, Lmul, MaskOp, Sew, VAluOp, VCmp, VReg, VType, XReg};
use rvv_sim::{CompiledPlan, FusedStats, Machine, MachineConfig, Program};

fn soup(words: &[u32]) -> Vec<Instr> {
    words.iter().filter_map(|&w| decode(w).ok()).collect()
}

/// Assert two machines are architecturally indistinguishable: registers,
/// vector state, configuration, counters, and every byte of memory.
fn assert_same_state(plan: &Machine, legacy: &Machine) {
    for i in 0..32 {
        assert_eq!(
            plan.xreg(XReg::new(i)),
            legacy.xreg(XReg::new(i)),
            "x{i} diverged"
        );
    }
    for v in 0..32 {
        assert_eq!(
            plan.vreg_bytes(VReg::new(v)),
            legacy.vreg_bytes(VReg::new(v)),
            "v{v} diverged"
        );
    }
    assert_eq!(plan.vl(), legacy.vl(), "vl diverged");
    assert_eq!(plan.vtype(), legacy.vtype(), "vtype diverged");
    assert_eq!(plan.counters, legacy.counters, "counters diverged");
    let size = plan.mem.size();
    assert_eq!(size, legacy.mem.size());
    assert_eq!(
        plan.mem.read_bytes(0, size).unwrap(),
        legacy.mem.read_bytes(0, size).unwrap(),
        "memory diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoded_soup_never_panics(
        words in prop::collection::vec(any::<u32>(), 0..200),
        vlen_shift in 7u32..11, // 128..1024
        seed_regs in prop::collection::vec(any::<u64>(), 8),
    ) {
        let mut m = Machine::new(MachineConfig {
            vlen: 1 << vlen_shift,
            mem_bytes: 1 << 16,
        });
        // Point the argument registers somewhere interesting (mostly in
        // bounds) so loads/stores sometimes succeed.
        for (i, &s) in seed_regs.iter().enumerate() {
            m.set_xreg(rvv_isa::XReg::arg(i as u8), s % (1 << 16));
        }
        let mut instrs = soup(&words);
        instrs.push(Instr::Ecall); // give straight-line runs a clean exit
        let p = Program::new("soup", instrs);
        // Traps are fine; panics are not. Fuel bounds runaway loops.
        let _ = m.run(&p, 50_000);
    }

    #[test]
    fn soup_with_vector_config_first(
        words in prop::collection::vec(any::<u32>(), 0..200),
        avl in 1u64..64,
    ) {
        // Prime a legal vtype so vector instructions actually execute
        // instead of tripping on vill immediately.
        let mut m = Machine::new(MachineConfig { vlen: 256, mem_bytes: 1 << 16 });
        m.set_xreg(rvv_isa::XReg::new(10), avl);
        let mut instrs = vec![Instr::Vsetvli {
            rd: rvv_isa::XReg::ZERO,
            rs1: rvv_isa::XReg::new(10),
            vtype: rvv_isa::VType::new(rvv_isa::Sew::E32, rvv_isa::Lmul::M2),
        }];
        instrs.extend(soup(&words));
        instrs.push(Instr::Ecall);
        let p = Program::new("vsoup", instrs);
        let _ = m.run(&p, 50_000);
        // The machine stays usable after any trap.
        let ok = Program::new("ok", vec![Instr::Ecall]);
        prop_assert!(m.run(&ok, 10).is_ok());
    }

    /// Three-engine differential: the plan engine *and* the fused engine
    /// must be architecturally indistinguishable from the legacy
    /// single-step interpreter on arbitrary decoded soup — same result
    /// (report or trap, including trap byte addresses), same final
    /// registers, vector state, counters, and memory.
    #[test]
    fn plan_and_fused_match_legacy_on_soup(
        words in prop::collection::vec(any::<u32>(), 0..200),
        vlen_shift in 7u32..11,
        seed_regs in prop::collection::vec(any::<u64>(), 8),
    ) {
        let cfg = MachineConfig {
            vlen: 1 << vlen_shift,
            mem_bytes: 1 << 16,
        };
        let mut instrs = soup(&words);
        instrs.push(Instr::Ecall);
        let p = Program::new("soup", instrs);
        let plan = CompiledPlan::compile(p.clone());
        let mut m1 = Machine::new(cfg);
        let mut m2 = Machine::new(cfg);
        let mut m3 = Machine::new(cfg);
        for (i, &s) in seed_regs.iter().enumerate() {
            m1.set_xreg(XReg::arg(i as u8), s % (1 << 16));
            m2.set_xreg(XReg::arg(i as u8), s % (1 << 16));
            m3.set_xreg(XReg::arg(i as u8), s % (1 << 16));
        }
        let r1 = m1.run_plan(&plan, 50_000, 0, false, &mut ());
        let r2 = m2.run_legacy(&p, 50_000, 0, &mut ());
        let r3 = m3.run_plan(&plan, 50_000, 0, true, &mut ());
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(&r3, &r2);
        assert_same_state(&m1, &m2);
        assert_same_state(&m3, &m2);
    }

    /// Differential soup with a legal vtype primed first, so the vector
    /// kernels (the SEW-specialized fast paths and the fused windows)
    /// actually execute.
    #[test]
    fn plan_and_fused_match_legacy_on_vector_soup(
        words in prop::collection::vec(any::<u32>(), 0..200),
        avl in 1u64..64,
        sew_pick in 0u8..4,
        lmul_pick in 0u8..4,
    ) {
        let cfg = MachineConfig { vlen: 256, mem_bytes: 1 << 16 };
        let sew = [rvv_isa::Sew::E8, rvv_isa::Sew::E16, rvv_isa::Sew::E32, rvv_isa::Sew::E64][sew_pick as usize];
        let lmul = [rvv_isa::Lmul::M1, rvv_isa::Lmul::M2, rvv_isa::Lmul::M4, rvv_isa::Lmul::M8][lmul_pick as usize];
        let mut instrs = vec![Instr::Vsetvli {
            rd: XReg::ZERO,
            rs1: XReg::new(10),
            vtype: rvv_isa::VType::new(sew, lmul),
        }];
        instrs.extend(soup(&words));
        instrs.push(Instr::Ecall);
        let p = Program::new("vsoup", instrs);
        let plan = CompiledPlan::compile(p.clone());
        let mut m1 = Machine::new(cfg);
        let mut m2 = Machine::new(cfg);
        let mut m3 = Machine::new(cfg);
        m1.set_xreg(XReg::new(10), avl);
        m2.set_xreg(XReg::new(10), avl);
        m3.set_xreg(XReg::new(10), avl);
        let r1 = m1.run_plan(&plan, 50_000, 0, false, &mut ());
        let r2 = m2.run_legacy(&p, 50_000, 0, &mut ());
        let r3 = m3.run_plan(&plan, 50_000, 0, true, &mut ());
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(&r3, &r2);
        assert_same_state(&m1, &m2);
        assert_same_state(&m3, &m2);
    }
}

// ------------------------------------------------------------ shaped soup --

/// Memory of a shaped-soup machine: small, so bases near its end and
/// guard regions are common.
const SHAPED_MEM: u64 = 1 << 14;

/// splitmix64, seeded from one proptest-drawn `u64`.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// One template family of the shaped soup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Map,
    MapVv,
    ScanStep,
    WholeChain,
    MaskedScanStep,
    Enumerate,
    Select,
    /// Single mask-group ops, compares, and masked unit-stride accesses.
    MaskOps,
}

const SHAPES: [Shape; 8] = [
    Shape::Map,
    Shape::MapVv,
    Shape::ScanStep,
    Shape::WholeChain,
    Shape::MaskedScanStep,
    Shape::Enumerate,
    Shape::Select,
    Shape::MaskOps,
];

const ALU_OPS: [VAluOp; 20] = [
    VAluOp::Add,
    VAluOp::Sub,
    VAluOp::Rsub,
    VAluOp::Minu,
    VAluOp::Min,
    VAluOp::Maxu,
    VAluOp::Max,
    VAluOp::And,
    VAluOp::Or,
    VAluOp::Xor,
    VAluOp::Sll,
    VAluOp::Srl,
    VAluOp::Sra,
    VAluOp::Mul,
    VAluOp::Mulh,
    VAluOp::Mulhu,
    VAluOp::Divu,
    VAluOp::Div,
    VAluOp::Remu,
    VAluOp::Rem,
];

const CMPS: [VCmp; 8] = [
    VCmp::Eq,
    VCmp::Ne,
    VCmp::Ltu,
    VCmp::Lt,
    VCmp::Leu,
    VCmp::Le,
    VCmp::Gtu,
    VCmp::Gt,
];

const MASK_OPS: [MaskOp; 8] = [
    MaskOp::Andn,
    MaskOp::And,
    MaskOp::Or,
    MaskOp::Xor,
    MaskOp::Orn,
    MaskOp::Nand,
    MaskOp::Nor,
    MaskOp::Xnor,
];

/// Base-address registers (`x11..=x15`), scalar operands (`x5..=x9`), and
/// result registers (`x20..=x23`) of the shaped soup.
const BASES: [u8; 5] = [11, 12, 13, 14, 15];
const SCALARS: [u8; 5] = [5, 6, 7, 8, 9];
const RESULTS: [u8; 4] = [20, 21, 22, 23];

/// Emits templates under one vtype: mostly well-formed register groups,
/// sometimes overlapping or misaligned ones.
struct Emitter<'a> {
    g: &'a mut Gen,
    /// Registers per group at the primed LMUL.
    regs: u8,
    sew: Sew,
    out: Vec<Instr>,
}

impl Emitter<'_> {
    /// An LMUL-aligned group other than `v0` (85%), else any register.
    fn group(&mut self) -> VReg {
        if self.g.chance(85) {
            let slots = 32 / self.regs as u64;
            VReg::new(self.regs * (1 + self.g.below(slots - 1) as u8))
        } else {
            VReg::new(self.g.below(32) as u8)
        }
    }

    /// A group disjoint from `others` (85%), else [`Emitter::group`].
    fn distinct(&mut self, others: &[VReg]) -> VReg {
        let want_disjoint = self.g.chance(85);
        for _ in 0..16 {
            let r = self.group();
            let r0 = r.num();
            let clash = others.iter().any(|o| {
                let o0 = o.num();
                r0 < o0 + self.regs && o0 < r0 + self.regs
            });
            if !want_disjoint || !clash {
                return r;
            }
        }
        self.group()
    }

    /// A single mask register: `v1..v3` (80%), else any.
    fn mask(&mut self) -> VReg {
        if self.g.chance(80) {
            VReg::new(1 + self.g.below(3) as u8)
        } else {
            VReg::new(self.g.below(32) as u8)
        }
    }

    fn base(&mut self) -> XReg {
        XReg::new(self.g.pick(&BASES))
    }

    fn scalar(&mut self) -> XReg {
        XReg::new(self.g.pick(&SCALARS))
    }

    /// The element width of a unit-stride access: SEW (90%), else any.
    fn eew(&mut self) -> Sew {
        if self.g.chance(90) {
            self.sew
        } else {
            self.g.pick(&Sew::ALL)
        }
    }

    fn imm(&mut self) -> i8 {
        self.g.below(32) as i8 - 16
    }

    fn push(&mut self, i: Instr) {
        self.out.push(i);
    }

    fn scan_step(&mut self, masked: bool) {
        let rx = self.group();
        let ry = self.distinct(&[rx]);
        let mv = match self.g.below(3) {
            0 => {
                let src = self.distinct(&[rx, ry]);
                Instr::VMvVV { vd: ry, vs1: src }
            }
            1 => Instr::VMvVX {
                vd: ry,
                rs1: self.scalar(),
            },
            _ => Instr::VMvVI {
                vd: ry,
                imm: self.imm(),
            },
        };
        self.push(mv);
        let slide = if self.g.chance(50) {
            Instr::VSlideUpVX {
                vd: ry,
                vs2: rx,
                rs1: XReg::new(6),
                vm: true,
            }
        } else {
            Instr::VSlideUpVI {
                vd: ry,
                vs2: rx,
                uimm: self.g.below(32) as u8,
                vm: true,
            }
        };
        self.push(slide);
        let op = self.g.pick(&ALU_OPS);
        self.push(Instr::VOpVV {
            op,
            vd: rx,
            vs2: rx,
            vs1: ry,
            vm: !masked,
        });
    }

    fn emit(&mut self, shape: Shape) {
        match shape {
            Shape::Map => {
                let v = self.group();
                let eew = self.eew();
                if self.g.chance(80) {
                    let rs1 = self.base();
                    self.push(Instr::VLoad {
                        eew,
                        vd: v,
                        rs1,
                        vm: true,
                    });
                }
                for _ in 0..self.g.below(5) {
                    let op = self.g.pick(&ALU_OPS);
                    let alu = if self.g.chance(50) {
                        Instr::VOpVX {
                            op,
                            vd: v,
                            vs2: v,
                            rs1: self.scalar(),
                            vm: true,
                        }
                    } else {
                        Instr::VOpVI {
                            op,
                            vd: v,
                            vs2: v,
                            imm: self.imm(),
                            vm: true,
                        }
                    };
                    self.push(alu);
                }
                if self.g.chance(80) {
                    let rs1 = self.base();
                    self.push(Instr::VStore {
                        eew,
                        vs3: v,
                        rs1,
                        vm: true,
                    });
                }
            }
            Shape::MapVv => {
                let eew = self.eew();
                let va = self.group();
                let vb = self.distinct(&[va]);
                let (pa, pb, dst) = (self.base(), self.base(), self.base());
                self.push(Instr::VLoad {
                    eew,
                    vd: va,
                    rs1: pa,
                    vm: true,
                });
                self.push(Instr::VLoad {
                    eew,
                    vd: vb,
                    rs1: pb,
                    vm: true,
                });
                let op = self.g.pick(&ALU_OPS);
                self.push(Instr::VOpVV {
                    op,
                    vd: va,
                    vs2: va,
                    vs1: vb,
                    vm: true,
                });
                self.push(Instr::VStore {
                    eew,
                    vs3: va,
                    rs1: dst,
                    vm: true,
                });
            }
            Shape::ScanStep => self.scan_step(false),
            Shape::MaskedScanStep => {
                let f = self.group();
                let vd = if self.g.chance(90) {
                    VReg::V0
                } else {
                    self.mask()
                };
                let (cond, imm) = (self.g.pick(&CMPS), self.imm());
                self.push(Instr::VCmpVI {
                    cond,
                    vd,
                    vs2: f,
                    imm,
                    vm: true,
                });
                self.scan_step(true);
            }
            Shape::WholeChain => {
                for _ in 0..2 + self.g.below(3) {
                    let nregs = self.g.pick(&[1u8, 2, 4, 8]);
                    let reg = if self.g.chance(85) {
                        VReg::new(nregs * self.g.below(32 / nregs as u64) as u8)
                    } else {
                        VReg::new(self.g.below(32) as u8)
                    };
                    let rs1 = self.base();
                    let op = if self.g.chance(50) {
                        Instr::VLoadWhole {
                            nregs,
                            vd: reg,
                            rs1,
                        }
                    } else {
                        Instr::VStoreWhole {
                            nregs,
                            vs3: reg,
                            rs1,
                        }
                    };
                    self.push(op);
                }
            }
            Shape::Enumerate => {
                let eew = self.eew();
                let a = self.group();
                let m = self.mask();
                let d = self.distinct(&[a, m]);
                let (pa, pd) = (self.base(), self.base());
                let rd = if self.g.chance(85) {
                    XReg::new(self.g.pick(&RESULTS))
                } else {
                    self.base()
                };
                let cond = self.g.pick(&CMPS);
                let (s, acc) = (self.scalar(), self.scalar());
                self.push(Instr::VLoad {
                    eew,
                    vd: a,
                    rs1: pa,
                    vm: true,
                });
                self.push(Instr::VCmpVX {
                    cond,
                    vd: m,
                    vs2: a,
                    rs1: s,
                    vm: true,
                });
                self.push(Instr::VIota {
                    vd: d,
                    vs2: m,
                    vm: true,
                });
                self.push(Instr::VOpVX {
                    op: VAluOp::Add,
                    vd: d,
                    vs2: d,
                    rs1: acc,
                    vm: true,
                });
                self.push(Instr::VStore {
                    eew,
                    vs3: d,
                    rs1: pd,
                    vm: true,
                });
                self.push(Instr::VCpop {
                    rd,
                    vs2: m,
                    vm: true,
                });
            }
            Shape::Select => {
                let eew = self.eew();
                let f = self.group();
                let d = self.distinct(&[f]);
                let (pf, pb, pa, dst) = (self.base(), self.base(), self.base(), self.base());
                let (cond, imm) = (self.g.pick(&CMPS), self.imm());
                self.push(Instr::VLoad {
                    eew,
                    vd: f,
                    rs1: pf,
                    vm: true,
                });
                self.push(Instr::VCmpVI {
                    cond,
                    vd: VReg::V0,
                    vs2: f,
                    imm,
                    vm: true,
                });
                self.push(Instr::VLoad {
                    eew,
                    vd: d,
                    rs1: pb,
                    vm: true,
                });
                self.push(Instr::VLoad {
                    eew,
                    vd: d,
                    rs1: pa,
                    vm: false,
                });
                self.push(Instr::VStore {
                    eew,
                    vs3: d,
                    rs1: dst,
                    vm: true,
                });
            }
            Shape::MaskOps => {
                for _ in 0..1 + self.g.below(3) {
                    self.mask_op();
                }
            }
        }
    }

    /// One random mask-group op, compare, or masked unit-stride access.
    fn mask_op(&mut self) {
        let vm = self.g.chance(60);
        let (vd, vs2, vs1) = (self.mask(), self.mask(), self.mask());
        let rd = XReg::new(self.g.pick(&RESULTS));
        let i = match self.g.below(14) {
            0 => Instr::VIota {
                vd: self.group(),
                vs2,
                vm,
            },
            1 => Instr::VCpop { rd, vs2, vm },
            2 => Instr::VFirst { rd, vs2, vm },
            3 => Instr::VMsbf { vd, vs2, vm },
            4 => Instr::VMsif { vd, vs2, vm },
            5 => Instr::VMsof { vd, vs2, vm },
            6 => Instr::VMaskLogic {
                op: self.g.pick(&MASK_OPS),
                vd,
                vs2,
                vs1,
            },
            7 => Instr::VId {
                vd: self.group(),
                vm,
            },
            8 => Instr::VMvSX {
                vd: VReg::new(self.g.below(32) as u8),
                rs1: self.scalar(),
            },
            9 => Instr::VMvXS {
                rd,
                vs2: VReg::new(self.g.below(32) as u8),
            },
            10 => Instr::VCmpVV {
                cond: self.g.pick(&CMPS),
                vd,
                vs2: self.group(),
                vs1: self.group(),
                vm,
            },
            11 => Instr::VCmpVX {
                cond: self.g.pick(&CMPS),
                vd,
                vs2: self.group(),
                rs1: self.scalar(),
                vm,
            },
            12 => Instr::VLoad {
                eew: self.eew(),
                vd: self.group(),
                rs1: self.base(),
                vm,
            },
            _ => Instr::VStore {
                eew: self.eew(),
                vs3: self.group(),
                rs1: self.base(),
                vm,
            },
        };
        self.push(i);
    }
}

/// One generated shaped-soup case: the program plus the machine set-up
/// every engine starts from.
struct ShapedCase {
    program: Program,
    /// Templates emitted that form a fusion window when well-formed.
    windows: u64,
    vlen: u32,
    xregs: Vec<(u8, u64)>,
    vregs: Vec<u8>,
    mem: Vec<u64>,
    guard: Option<std::ops::Range<u64>>,
    fuel: u64,
}

impl ShapedCase {
    /// Draw a case from `seed`: templates of `shape`, or of every shape
    /// when `shape` is `None`.
    fn new(seed: u64, shape: Option<Shape>) -> ShapedCase {
        let mut g = Gen(seed);
        let vlen = if g.chance(50) { 128 } else { 256 };
        let sew = g.pick(&Sew::ALL);
        let lmul = g.pick(&Lmul::ALL);
        let regs = match lmul {
            Lmul::M2 => 2,
            Lmul::M4 => 4,
            Lmul::M8 => 8,
            _ => 1,
        };
        let vlmax = (regs as u64 * vlen as u64) / sew.bits() as u64;
        let mut e = Emitter {
            g: &mut g,
            regs,
            sew,
            out: Vec::new(),
        };
        // 5% of cases keep `vill`, so every vector op traps.
        if e.g.chance(95) {
            e.push(Instr::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                vtype: VType::new(sew, lmul),
            });
        }
        let mut windows = 0;
        let mut prev = None;
        for _ in 0..1 + e.g.below(4) {
            let s = shape.unwrap_or_else(|| e.g.pick(&SHAPES));
            e.emit(s);
            // Adjacent whole-register chains join into one window.
            let joins = s == Shape::WholeChain && prev == Some(s);
            windows += u64::from(s != Shape::MaskOps && !joins);
            prev = Some(s);
        }
        let mut instrs = std::mem::take(&mut e.out);
        instrs.push(Instr::Ecall);
        let len = instrs.len() as u64;
        // Bases: mostly inside memory, some straddling its end, some
        // inside or just below the guard region.
        let guard = g.chance(50).then(|| {
            let at = g.below(SHAPED_MEM - 64) & !7;
            at..at + 1 + g.below(64)
        });
        let mut xregs = vec![(10, g.below(vlmax + 4))];
        for r in BASES {
            let addr = match g.below(10) {
                0 => SHAPED_MEM - g.below(300),
                1 => guard
                    .clone()
                    .map_or(0, |gr| gr.start.saturating_sub(g.below(256))),
                _ => g.below(SHAPED_MEM - 2048) & !7,
            };
            xregs.push((r, addr));
        }
        for r in SCALARS {
            let v = if g.chance(50) { g.below(40) } else { g.next() };
            xregs.push((r, v));
        }
        let vregs = (0..32 * vlen / 8).map(|_| g.next() as u8).collect();
        let mem = (0..SHAPED_MEM / 8).map(|_| g.next()).collect();
        let fuel = if g.chance(30) {
            1 + g.below(len + 1)
        } else {
            10_000
        };
        ShapedCase {
            program: Program::new("shaped", instrs),
            windows,
            vlen,
            xregs,
            vregs,
            mem,
            guard,
            fuel,
        }
    }

    fn machine(&self) -> Machine {
        let mut m = Machine::new(MachineConfig {
            vlen: self.vlen,
            mem_bytes: SHAPED_MEM as usize,
        });
        for &(r, v) in &self.xregs {
            m.set_xreg(XReg::new(r), v);
        }
        let vlenb = self.vlen as usize / 8;
        for (r, bytes) in self.vregs.chunks_exact(vlenb).enumerate() {
            m.set_vreg_bytes(VReg::new(r as u8), bytes);
        }
        m.mem.write_u64_slice(0, &self.mem);
        if let Some(g) = &self.guard {
            m.mem.add_guard(g.clone());
        }
        m
    }

    /// Run legacy, plan, and fused; assert all three agree on the result,
    /// the resume PC, and every byte of state. Returns the fused tally.
    fn check(&self) -> FusedStats {
        let plan = CompiledPlan::compile(self.program.clone());
        let (mut ml, mut mp, mut mf) = (self.machine(), self.machine(), self.machine());
        let rl = ml.run_legacy(&self.program, self.fuel, 0, &mut ());
        let rp = mp.run_plan(&plan, self.fuel, 0, false, &mut ());
        let rf = mf.run_plan(&plan, self.fuel, 0, true, &mut ());
        assert_eq!(rp, rl, "plan vs legacy result");
        assert_eq!(rf, rl, "fused vs legacy result");
        assert_eq!(mp.stop_pc(), ml.stop_pc(), "plan vs legacy stop_pc");
        assert_eq!(mf.stop_pc(), ml.stop_pc(), "fused vs legacy stop_pc");
        for m in [&mut ml, &mut mp, &mut mf] {
            m.mem.clear_guards();
        }
        assert_same_state(&mp, &ml);
        assert_same_state(&mf, &ml);
        mf.fused_stats
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Three-engine differential on shaped soup: every window template
    /// and mask-group op, well-formed or not, under random vtype, `v0`,
    /// bases, guards, and fuel.
    #[test]
    fn plan_and_fused_match_legacy_on_shaped_soup(
        seed in any::<u64>(),
        shape in 0usize..=SHAPES.len(),
    ) {
        ShapedCase::new(seed, SHAPES.get(shape).copied()).check();
    }
}

/// The shaped soup is not vacuous: for every window template, a
/// substantial share of the instances emitted actually runs fused (the
/// rest decline on a malformed draw or run out of fuel), and the declines
/// are tallied.
#[test]
fn shaped_soup_windows_really_fuse() {
    for shape in SHAPES.into_iter().filter(|&s| s != Shape::MaskOps) {
        let (mut emitted, mut fused, mut declined) = (0, 0, 0);
        for seed in 0..200u64 {
            let case = ShapedCase::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d), Some(shape));
            let stats = case.check();
            emitted += case.windows;
            fused += stats.windows;
            declined += stats.declined;
        }
        eprintln!("{shape:?}: emitted {emitted}, fused {fused}, declined {declined}");
        assert!(
            fused * 3 >= emitted,
            "{shape:?}: only {fused} of {emitted} emitted windows fused"
        );
        assert!(declined > 0, "{shape:?}: no window ever declined");
    }
}
