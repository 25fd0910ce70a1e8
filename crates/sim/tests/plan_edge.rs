//! Edge cases of plan compilation and the plan driver's control flow:
//! branches to the program boundary, falling off the end, dynamic jumps,
//! vtype flips re-resolving the per-op specialization cache, and fuel
//! exhaustion — every case checked against the legacy interpreter.

use rvv_isa::{AluOp, BranchCond, Instr, Lmul, Sew, VAluOp, VReg, VType, XReg};
use rvv_sim::{CompiledPlan, Machine, MachineConfig, Program, SimError, Traced};

fn machine() -> Machine {
    Machine::new(MachineConfig {
        vlen: 128,
        mem_bytes: 1 << 16,
    })
}

/// Run `p` through both engines and assert identical results and counters.
fn both(p: &Program, fuel: u64) -> Result<rvv_sim::RunReport, SimError> {
    let plan = CompiledPlan::compile(p.clone());
    let mut m1 = machine();
    let mut m2 = machine();
    let r1 = m1.run_plan(&plan, fuel, 0, false, &mut ());
    let r2 = m2.run_legacy(p, fuel, 0, &mut ());
    assert_eq!(r1, r2, "engines disagree on {}", p.name);
    assert_eq!(m1.counters, m2.counters, "counters disagree on {}", p.name);
    r1
}

fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
    Instr::OpImm {
        op: AluOp::Add,
        rd: XReg::new(rd),
        rs1: XReg::new(rs1),
        imm,
    }
}

#[test]
fn branch_to_last_instruction() {
    // beq x0, x0, +8 skips the addi and lands exactly on the final ecall.
    let p = Program::new(
        "to-last",
        vec![
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1: XReg::ZERO,
                rs2: XReg::ZERO,
                offset: 8,
            },
            addi(5, 0, 99),
            Instr::Ecall,
        ],
    );
    let r = both(&p, 100).unwrap();
    assert_eq!(r.retired, 2);
    assert_eq!(r.halt_pc, 8);
}

#[test]
fn branch_one_past_the_end_traps_with_boundary_target() {
    // A taken branch to index == len is a *valid jump* that then falls off
    // the end: the branch itself retires, the trap reports the boundary PC.
    let p = Program::new(
        "past-end",
        vec![Instr::Branch {
            cond: BranchCond::Eq,
            rs1: XReg::ZERO,
            rs2: XReg::ZERO,
            offset: 4,
        }],
    );
    let r = both(&p, 100);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 4 }));
}

#[test]
fn fall_off_the_end_after_straight_line() {
    let p = Program::new("fall-off", vec![addi(5, 0, 1), addi(6, 0, 2)]);
    let r = both(&p, 100);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 8 }));
}

#[test]
fn misaligned_jump_target_reports_the_byte_address() {
    // jal +6: misaligned. The jal retires (it counts!) and the trap carries
    // the exact byte target.
    let p = Program::new(
        "misaligned",
        vec![Instr::Jal {
            rd: XReg::ZERO,
            offset: 6,
        }],
    );
    let r = both(&p, 100);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 6 }));
}

#[test]
fn dynamic_jalr_in_and_out_of_range() {
    // jalr through x5: first to the ecall (valid), then re-run with a wild
    // address seeded.
    let p = Program::new(
        "jalr",
        vec![
            Instr::Jalr {
                rd: XReg::new(1),
                rs1: XReg::new(5),
                offset: 0,
            },
            addi(6, 0, 1),
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    for target in [8u64, 0x1000, 10, 5] {
        let mut m1 = machine();
        let mut m2 = machine();
        m1.set_xreg(XReg::new(5), target);
        m2.set_xreg(XReg::new(5), target);
        let r1 = m1.run_plan(&plan, 100, 0, false, &mut ());
        let r2 = m2.run_legacy(&p, 100, 0, &mut ());
        assert_eq!(r1, r2, "jalr to {target:#x}");
        if target == 8 {
            assert_eq!(r1.unwrap().halt_pc, 8);
            assert_eq!(m1.xreg(XReg::new(1)), 4, "link register");
            assert_eq!(m1.xreg(XReg::new(6)), 0, "skipped instruction ran");
        } else {
            // jalr clears bit 0 before the bounds check (5 → 4 is valid!).
            let expect = target & !1;
            if expect == 4 {
                assert!(r1.is_ok());
            } else {
                assert_eq!(r1, Err(SimError::BadControlFlow { target: expect }));
            }
        }
    }
}

#[test]
fn vsetvl_flipping_vtype_re_resolves_the_kernel_cache() {
    // One vadd.vi micro-op executed under alternating SEW/LMUL: the loop
    // carries the vtype bits in x11 and xors them each iteration, so the
    // same cached kernel slot must be re-resolved e32m1 → e8m2 → e32m1 → …
    let a = VType::new(Sew::E32, Lmul::M1).to_bits();
    let b = VType::new(Sew::E8, Lmul::M2).to_bits();
    let p = Program::new(
        "flip",
        vec![
            addi(5, 0, 6),  // x5 = iterations
            addi(10, 0, 4), // x10 = avl
            addi(11, 0, a as i32),
            addi(12, 0, (a ^ b) as i32),
            // loop:
            Instr::Vsetvl {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                rs2: XReg::new(11),
            },
            Instr::VOpVI {
                op: VAluOp::Add,
                vd: VReg::new(2),
                vs2: VReg::new(2),
                imm: 1,
                vm: true,
            },
            Instr::Op {
                op: AluOp::Xor,
                rd: XReg::new(11),
                rs1: XReg::new(11),
                rs2: XReg::new(12),
            },
            addi(5, 5, -1),
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: XReg::new(5),
                rs2: XReg::ZERO,
                offset: -16,
            },
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    let mut m1 = machine();
    let mut m2 = machine();
    let r1 = m1.run_plan(&plan, 1000, 0, false, &mut ()).unwrap();
    let r2 = m2.run_legacy(&p, 1000, 0, &mut ()).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(m1.counters, m2.counters);
    for v in 0..32 {
        assert_eq!(
            m1.vreg_bytes(VReg::new(v)),
            m2.vreg_bytes(VReg::new(v)),
            "v{v} diverged"
        );
    }
    // Three iterations each way actually touched both element widths.
    assert_ne!(m1.vreg_bytes(VReg::new(2)), &vec![0u8; 16][..]);
}

#[test]
fn fuel_exhaustion_mid_block() {
    // Straight-line code long enough that fuel runs out in the middle:
    // both engines must stop at exactly the same retired count.
    let mut instrs: Vec<Instr> = (0..20).map(|i| addi(5, 5, i)).collect();
    instrs.push(Instr::Ecall);
    let p = Program::new("mid-block", instrs);
    let plan = CompiledPlan::compile(p.clone());
    for fuel in [1u64, 7, 19, 20] {
        let mut m1 = machine();
        let mut m2 = machine();
        let r1 = m1.run_plan(&plan, fuel, 0, false, &mut ());
        let r2 = m2.run_legacy(&p, fuel, 0, &mut ());
        assert_eq!(r1, r2, "fuel {fuel}");
        assert_eq!(r1, Err(SimError::FuelExhausted { fuel }));
        assert_eq!(m1.counters.total(), m2.counters.total());
        assert_eq!(m1.xreg(XReg::new(5)), m2.xreg(XReg::new(5)));
    }
    // With just enough fuel the run completes.
    let mut m = machine();
    assert!(m.run_plan(&plan, 21, 0, false, &mut ()).is_ok());
}

#[test]
fn empty_program_traps_immediately() {
    let p = Program::new("empty", vec![]);
    let r = both(&p, 10);
    assert_eq!(r, Err(SimError::BadControlFlow { target: 0 }));
}

#[test]
fn traced_runs_produce_identical_event_streams() {
    use rvv_sim::{RetireEvent, TraceSink};
    #[derive(Default)]
    struct Rec(Vec<(u64, u64, String, u32)>);
    impl TraceSink for Rec {
        fn retire(&mut self, e: &RetireEvent<'_>) {
            self.0.push((e.seq, e.pc, e.instr.to_string(), e.vl));
        }
    }
    let p = Program::new(
        "traced",
        vec![
            addi(10, 0, 8),
            Instr::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                vtype: VType::new(Sew::E16, Lmul::M1),
            },
            Instr::VOpVI {
                op: VAluOp::Add,
                vd: VReg::new(2),
                vs2: VReg::new(2),
                imm: 3,
                vm: true,
            },
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    let mut s1 = Rec::default();
    let mut s2 = Rec::default();
    let mut m1 = machine();
    let mut m2 = machine();
    let r1 = m1
        .run_plan(&plan, 100, 0, false, &mut Traced(&mut s1))
        .unwrap();
    let r2 = m2.run_legacy(&p, 100, 0, &mut Traced(&mut s2)).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(s1.0, s2.0, "trace event streams diverged");
    assert_eq!(s1.0.len() as u64, r1.retired);
}

#[test]
fn masked_unit_store_dirties_only_the_pages_it_writes() {
    // e8 m8 at VLEN=128: 128 one-byte elements from 4032 straddle the
    // 4 KiB page boundary at 4096, but only elements 0..64 (all below it)
    // are active. The plan tier's one-check bulk store must leave page 1
    // clean, as the per-element stores do, so snapshots stay identical.
    let p = Program::new(
        "masked-vse",
        vec![
            Instr::Vsetvli {
                rd: XReg::ZERO,
                rs1: XReg::new(10),
                vtype: VType::new(Sew::E8, Lmul::M8),
            },
            Instr::VStore {
                eew: Sew::E8,
                vs3: VReg::new(8),
                rs1: XReg::new(11),
                vm: false,
            },
            Instr::Ecall,
        ],
    );
    let plan = CompiledPlan::compile(p.clone());
    let setup = |m: &mut Machine| {
        m.set_xreg(XReg::new(10), 128);
        m.set_xreg(XReg::new(11), 4032);
        let mut v0 = [0u8; 16];
        v0[..8].fill(0xff);
        m.set_vreg_bytes(VReg::V0, &v0);
    };
    let (mut ml, mut mp) = (machine(), machine());
    setup(&mut ml);
    setup(&mut mp);
    let rl = ml.run_legacy(&p, 100, 0, &mut ());
    let rp = mp.run_plan(&plan, 100, 0, false, &mut ());
    assert_eq!(rp, rl);
    assert_eq!(
        ml.mem.dirty_pages(),
        1,
        "the legacy store dirties page 0 only"
    );
    assert_eq!(mp.mem.dirty_pages(), ml.mem.dirty_pages());
    assert_eq!(mp.mem.snapshot(), ml.mem.snapshot());
}
