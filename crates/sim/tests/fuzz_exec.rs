//! Robustness fuzz: the simulator must never panic, whatever instructions
//! it executes — traps must surface as typed `SimError`s.
//!
//! Instruction soup is produced by *decoding random 32-bit words*: anything
//! `rvv_isa::decode` accepts is by construction a well-formed instruction
//! of the modelled subset, so this sweeps the whole decode→execute surface
//! (including misaligned groups, vill configurations, wild memory
//! addresses, and overlap constraints) without hand-writing generators.

use proptest::prelude::*;
use rvv_isa::{decode, Instr, VReg, XReg};
use rvv_sim::{CompiledPlan, Machine, MachineConfig, Program};

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
