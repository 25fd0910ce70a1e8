//! Fault-injection hooks.
//!
//! A [`FaultHook`] observes execution the way a [`crate::TraceSink`] does,
//! but *before* each instruction executes, and it can intervene: let the
//! instruction through, force a trap, or substitute another instruction
//! (modelling a corrupted fetch). A run consults a hook through the
//! [`Hooked`](crate::Hooked) [`Observer`](crate::Observer); an unfaulted
//! run's instantiation compiles the consultation away, so it stays
//! zero-cost.
//!
//! The contract that makes injection *deterministic* (and therefore
//! differential-testable across engines): the hook is consulted exactly
//! once per instruction the run loop attempts, in retirement order, with
//! the same pre-execution memory footprint both engines would compute. A
//! hook that decides from `(call count, instruction, footprint)` alone —
//! like `rvv-fault`'s seeded plans — fires at the same point on the plan
//! engine and the legacy interpreter, which is what lets the chaos suite
//! assert the two engines fail identically.

use crate::error::SimError;
use crate::trace::MemAccess;
use rvv_isa::Instr;

/// What a [`FaultHook`] decided for one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute the fetched instruction normally.
    Pass,
    /// Do not execute; raise this trap instead. The instruction is not
    /// retired and not counted — exactly like an architectural trap.
    Trap(SimError),
    /// Execute this instruction in place of the fetched one (a corrupted
    /// fetch that still decodes). It retires and is counted under the
    /// *replacement*'s class on both engines.
    Replace(Instr),
}

/// Pre-execution observer/interceptor of a faulted run.
///
/// Implementors are typically seeded plans (see `rvv-fault`): pure
/// functions of their own counters, never of wall-clock or host state, so
/// a faulted run is exactly as reproducible as an unfaulted one.
pub trait FaultHook {
    /// Called once per instruction the run loop is about to execute.
    ///
    /// `pc` is the byte PC, `instr` the fetched instruction, and `mem` its
    /// pre-execution memory footprint (`None` for non-memory
    /// instructions) — enough to count reads/writes and fire at the Nth
    /// access without the hook re-deriving addressing.
    fn before(&mut self, pc: u64, instr: &Instr, mem: Option<&MemAccess>) -> FaultAction;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::observe::Hooked;
    use crate::program::Program;
    use rvv_isa::{AluOp, XReg};

    /// Trap unconditionally at the Nth consulted instruction.
    struct TrapAt {
        n: u64,
        seen: u64,
    }

    impl FaultHook for TrapAt {
        fn before(&mut self, _pc: u64, _instr: &Instr, _mem: Option<&MemAccess>) -> FaultAction {
            self.seen += 1;
            if self.seen == self.n {
                FaultAction::Trap(SimError::InjectedFault {
                    what: "test",
                    seq: self.n,
                })
            } else {
                FaultAction::Pass
            }
        }
    }

    fn program() -> Program {
        Program::new(
            "p",
            vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::ZERO,
                    imm: 1,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::new(5),
                    imm: 2,
                },
                Instr::Ecall,
            ],
        )
    }

    #[test]
    fn engines_fault_identically() {
        let cfg = MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        };
        for n in 1..=4u64 {
            let plan = crate::plan::CompiledPlan::compile(program());
            let mut a = Machine::new(cfg);
            let mut b = Machine::new(cfg);
            let ra = a.run_plan(
                &plan,
                1000,
                0,
                false,
                &mut Hooked(&mut TrapAt { n, seen: 0 }),
            );
            let rb = b.run_legacy(&program(), 1000, 0, &mut Hooked(&mut TrapAt { n, seen: 0 }));
            assert_eq!(ra, rb, "fault at instruction {n}");
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.xreg(XReg::new(5)), b.xreg(XReg::new(5)));
            if n <= 3 {
                assert!(matches!(
                    ra,
                    Err(SimError::InjectedFault { what: "test", seq }) if seq == n
                ));
            } else {
                // The hook never fired: same result as an unfaulted run.
                assert_eq!(ra.unwrap().retired, 3);
            }
        }
    }

    /// A replaced instruction executes (and is counted) on both engines.
    struct ReplaceFirst {
        done: bool,
    }

    impl FaultHook for ReplaceFirst {
        fn before(&mut self, _pc: u64, _instr: &Instr, _mem: Option<&MemAccess>) -> FaultAction {
            if self.done {
                FaultAction::Pass
            } else {
                self.done = true;
                FaultAction::Replace(Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::ZERO,
                    imm: 40,
                })
            }
        }
    }

    #[test]
    fn replacement_executes_on_both_engines() {
        let cfg = MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        };
        let plan = crate::plan::CompiledPlan::compile(program());
        let mut a = Machine::new(cfg);
        let mut b = Machine::new(cfg);
        let ra = a
            .run_plan(
                &plan,
                1000,
                0,
                false,
                &mut Hooked(&mut ReplaceFirst { done: false }),
            )
            .unwrap();
        let rb = b
            .run_legacy(
                &program(),
                1000,
                0,
                &mut Hooked(&mut ReplaceFirst { done: false }),
            )
            .unwrap();
        assert_eq!(ra, rb);
        // x5 = 40 (replacement), then += 2 from the untouched second instr.
        assert_eq!(a.xreg(XReg::new(5)), 42);
        assert_eq!(b.xreg(XReg::new(5)), 42);
        assert_eq!(a.counters, b.counters);
    }
}
