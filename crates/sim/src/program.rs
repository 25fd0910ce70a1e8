//! Programs and the reference run loop.
//!
//! A [`Program`] is a flat sequence of instructions; the program counter is
//! a byte address (`index × 4`) so that branch offsets behave exactly like
//! the binary encoding. Instructions live outside simulated data memory
//! (a Harvard-style split): the paper's experiments never use self-modifying
//! code, and the split keeps kernels from trampling their own text.

use crate::error::{SimError, SimResult};
use crate::exec::Control;
use crate::fault::FaultAction;
use crate::machine::Machine;
use crate::observe::Observer;
use rvv_isa::{encode, Instr, InstrClass};
use std::fmt;

/// Default fuel for [`Machine::run`]: generous enough for the paper's
/// largest experiment (N = 10⁶ split radix sort ≈ 2×10⁸ instructions) with
/// an order of magnitude to spare.
pub const DEFAULT_FUEL: u64 = 4_000_000_000;

/// An executable program.
#[derive(Debug, Clone)]
pub struct Program {
    /// A label for traces and error messages.
    pub name: String,
    /// The instructions; instruction `i` sits at byte address `4·i`.
    pub instrs: Vec<Instr>,
    /// Symbol marks: `(byte address, label)` pairs sorted by address, used
    /// by profilers to attribute PCs to regions of the generated code
    /// (strip loop, spill prologue, …). Purely advisory — execution ignores
    /// them.
    pub marks: Vec<(u64, String)>,
}

impl Program {
    /// Wrap an instruction sequence.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Program {
        Program {
            name: name.into(),
            instrs,
            marks: Vec::new(),
        }
    }

    /// Attach a symbol mark at byte address `pc`. Marks must be added in
    /// ascending address order (debug-asserted) so lookups can bisect.
    pub fn add_mark(&mut self, pc: u64, label: impl Into<String>) {
        debug_assert!(
            self.marks.last().is_none_or(|(p, _)| *p <= pc),
            "marks must be added in ascending PC order"
        );
        self.marks.push((pc, label.into()));
    }

    /// The innermost mark covering `pc`: the last mark at or before it.
    pub fn symbol_for(&self, pc: u64) -> Option<&str> {
        let i = self.marks.partition_point(|(p, _)| *p <= pc);
        i.checked_sub(1).map(|i| self.marks[i].1.as_str())
    }

    /// Length in instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Assemble to machine code: the true 32-bit little-endian encodings.
    /// The simulator executes the typed form, but this is byte-for-byte what
    /// a real RV64GCV target would fetch, and tests decode it back.
    pub fn assemble(&self) -> Result<Vec<u8>, rvv_isa::EncodeError> {
        let mut out = Vec::with_capacity(self.instrs.len() * 4);
        for i in &self.instrs {
            out.extend_from_slice(&encode(i)?.to_le_bytes());
        }
        Ok(out)
    }

    /// Load a program from raw RISC-V machine code (32-bit little-endian
    /// words) — the inverse of [`Program::assemble`], and what the
    /// `sim-run` CLI feeds the simulator.
    ///
    /// # Errors
    /// Reports the word index and decode failure for the first instruction
    /// outside the modelled subset; trailing bytes that do not form a whole
    /// word are rejected.
    pub fn from_machine_code(name: impl Into<String>, bytes: &[u8]) -> Result<Program, String> {
        if !bytes.len().is_multiple_of(4) {
            return Err(format!(
                "{} bytes is not a whole number of instructions",
                bytes.len()
            ));
        }
        let mut instrs = Vec::with_capacity(bytes.len() / 4);
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let w = u32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
            let instr = rvv_isa::decode(w)
                .map_err(|e| format!("instruction {i} (byte offset {:#x}): {e}", i * 4))?;
            instrs.push(instr);
        }
        Ok(Program::new(name, instrs))
    }
}

impl fmt::Display for Program {
    /// Disassembly listing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        let mut next_mark = 0;
        for (i, instr) in self.instrs.iter().enumerate() {
            while next_mark < self.marks.len() && self.marks[next_mark].0 <= (i * 4) as u64 {
                writeln!(f, "<{}>:", self.marks[next_mark].1)?;
                next_mark += 1;
            }
            writeln!(f, "{:6x}:  {instr}", i * 4)?;
        }
        Ok(())
    }
}

/// Outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Dynamic instructions retired by this run (not cumulative machine
    /// counters).
    pub retired: u64,
    /// PC of the halting `ecall`.
    pub halt_pc: u64,
}

impl Machine {
    /// Run `program` from its first instruction until `ecall`, a trap, or
    /// `fuel` retired instructions.
    ///
    /// This compiles the program to a [`crate::CompiledPlan`] and drives it
    /// on the plan tier ([`Machine::run_plan`]). Callers that run the same
    /// program repeatedly should compile once and call `run_plan` directly
    /// to amortise the decode cost.
    pub fn run(&mut self, program: &Program, fuel: u64) -> SimResult<RunReport> {
        let plan = crate::plan::CompiledPlan::compile(program.clone());
        self.run_plan(&plan, fuel, 0, false, &mut ())
    }

    /// [`Machine::run`] with [`DEFAULT_FUEL`].
    pub fn run_default(&mut self, program: &Program) -> SimResult<RunReport> {
        self.run(program, DEFAULT_FUEL)
    }

    /// The reference interpreter: decode-classify-dispatch every step
    /// through [`Machine::exec`], no pre-compiled plan. Kept as the
    /// semantic baseline — the differential tests assert that
    /// [`Machine::run_plan`] on either tier is architecturally
    /// indistinguishable from this loop under the same [`Observer`], and
    /// the host-throughput harness measures both in one process.
    /// `start_pc` resumes a paused run exactly as in `run_plan`.
    pub fn run_legacy<O: Observer>(
        &mut self,
        program: &Program,
        fuel: u64,
        start_pc: u64,
        obs: &mut O,
    ) -> SimResult<RunReport> {
        obs.launch(program);
        let before = self.counters.total();
        let len = program.instrs.len() as u64;
        let mut pc: u64 = start_pc;
        let mut poll = O::POLLS;
        loop {
            let seq = self.counters.total() - before;
            if seq >= fuel {
                self.stop_pc = pc;
                return Err(SimError::FuelExhausted { fuel });
            }
            if !pc.is_multiple_of(4) || pc / 4 >= len {
                return Err(SimError::BadControlFlow { target: pc });
            }
            if O::POLLS && poll {
                poll = false;
                if obs.stop() {
                    self.stop_pc = pc;
                    return Err(SimError::Cancelled { seq: seq + 1 });
                }
            }
            let fetched = &program.instrs[(pc / 4) as usize];
            let replaced = if O::INTERCEPTS {
                match obs.before(pc, fetched, self.mem_footprint(fetched).as_ref()) {
                    FaultAction::Pass => None,
                    FaultAction::Trap(e) => return Err(e),
                    FaultAction::Replace(r) => Some(r),
                }
            } else {
                None
            };
            let instr = replaced.as_ref().unwrap_or(fetched);
            let event = O::TRACES.then(|| self.retire_event(pc, instr, InstrClass::of(instr), seq));
            let ctl = self.exec(pc, instr)?;
            if let Some(event) = &event {
                obs.retire(event);
            }
            match ctl {
                Control::Next => pc += 4,
                Control::Jump(target) => {
                    pc = target;
                    poll = O::POLLS;
                }
                Control::Halt => {
                    return Ok(RunReport {
                        retired: self.counters.total() - before,
                        halt_pc: pc,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use rvv_isa::{AluOp, BranchCond, XReg};

    fn m() -> Machine {
        Machine::new(MachineConfig {
            vlen: 128,
            mem_bytes: 4096,
        })
    }

    /// A hand-assembled countdown loop:
    ///   li t0, 5        (addi x5, x0, 5)
    /// loop:
    ///   addi x5, x5, -1
    ///   bne x5, x0, loop
    ///   ecall
    fn countdown() -> Program {
        Program::new(
            "countdown",
            vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::ZERO,
                    imm: 5,
                },
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::new(5),
                    imm: -1,
                },
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: XReg::new(5),
                    rs2: XReg::ZERO,
                    offset: -4,
                },
                Instr::Ecall,
            ],
        )
    }

    #[test]
    fn loop_runs_and_counts() {
        let mut m = m();
        let r = m.run_default(&countdown()).unwrap();
        // 1 init + 5 × (addi + bne) + ecall = 12.
        assert_eq!(r.retired, 12);
        assert_eq!(m.xreg(XReg::new(5)), 0);
        assert_eq!(r.halt_pc, 12);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut m = m();
        // Infinite loop: jal x0, 0.
        let p = Program::new(
            "spin",
            vec![Instr::Jal {
                rd: XReg::ZERO,
                offset: 0,
            }],
        );
        let r = m.run(&p, 1000);
        assert!(matches!(r, Err(SimError::FuelExhausted { fuel: 1000 })));
    }

    #[test]
    fn falling_off_the_end_is_bad_control_flow() {
        let mut m = m();
        let p = Program::new(
            "no-halt",
            vec![Instr::OpImm {
                op: AluOp::Add,
                rd: XReg::new(5),
                rs1: XReg::ZERO,
                imm: 1,
            }],
        );
        assert!(matches!(
            m.run_default(&p),
            Err(SimError::BadControlFlow { .. })
        ));
    }

    #[test]
    fn wild_jump_is_bad_control_flow() {
        let mut m = m();
        let p = Program::new(
            "wild",
            vec![Instr::Jal {
                rd: XReg::ZERO,
                offset: 0x1000,
            }],
        );
        assert!(matches!(
            m.run_default(&p),
            Err(SimError::BadControlFlow { target: 0x1000 })
        ));
    }

    #[test]
    fn ebreak_traps_with_pc() {
        let mut m = m();
        let p = Program::new(
            "brk",
            vec![
                Instr::OpImm {
                    op: AluOp::Add,
                    rd: XReg::new(5),
                    rs1: XReg::ZERO,
                    imm: 1,
                },
                Instr::Ebreak,
            ],
        );
        assert!(matches!(
            m.run_default(&p),
            Err(SimError::Breakpoint { pc: 4 })
        ));
    }

    #[test]
    fn assemble_then_decode_matches() {
        let p = countdown();
        let bytes = p.assemble().unwrap();
        assert_eq!(bytes.len(), p.len() * 4);
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let w = u32::from_le_bytes(chunk.try_into().unwrap());
            assert_eq!(rvv_isa::decode(w).unwrap(), p.instrs[i]);
        }
    }

    #[test]
    fn hooked_run_sees_every_retired_instruction() {
        /// Records every consulted instruction and lets it through.
        struct Recorder(Vec<(u64, String)>);
        impl Observer for Recorder {
            const INTERCEPTS: bool = true;
            fn before(
                &mut self,
                pc: u64,
                instr: &Instr,
                _mem: Option<&crate::MemAccess>,
            ) -> FaultAction {
                self.0.push((pc, instr.to_string()));
                FaultAction::Pass
            }
        }
        let mut m = m();
        let mut rec = Recorder(Vec::new());
        let plan = crate::plan::CompiledPlan::compile(countdown());
        let r = m.run_plan(&plan, 1000, 0, false, &mut rec).unwrap();
        let trace = rec.0;
        assert_eq!(trace.len() as u64, r.retired);
        assert_eq!(trace[0].1, "addi x5, x0, 5");
        assert_eq!(trace.last().unwrap().1, "ecall");
        // The loop body repeats five times.
        assert_eq!(trace.iter().filter(|(pc, _)| *pc == 4).count(), 5);
    }

    #[test]
    fn traced_run_reports_every_retire_and_matches_untraced() {
        use crate::trace::{RetireEvent, TraceSink};
        struct Recorder {
            events: Vec<(u64, u64, String)>,
            launches: Vec<String>,
        }
        impl TraceSink for Recorder {
            fn retire(&mut self, e: &RetireEvent<'_>) {
                self.events.push((e.seq, e.pc, e.instr.to_string()));
            }
            fn launch(&mut self, p: &Program) {
                self.launches.push(p.name.clone());
            }
        }
        let mut sink = Recorder {
            events: Vec::new(),
            launches: Vec::new(),
        };
        let mut traced = m();
        let plan = crate::plan::CompiledPlan::compile(countdown());
        let r = traced
            .run_plan(&plan, 1000, 0, false, &mut crate::Traced(&mut sink))
            .unwrap();
        let mut plain = m();
        let r2 = plain.run_default(&countdown()).unwrap();
        // Same report, same architectural outcome, same counters.
        assert_eq!(r, r2);
        assert_eq!(traced.xreg(XReg::new(5)), plain.xreg(XReg::new(5)));
        assert_eq!(traced.counters, plain.counters);
        // Every retired instruction was reported, in order.
        assert_eq!(sink.launches, vec!["countdown".to_string()]);
        assert_eq!(sink.events.len() as u64, r.retired);
        for (i, (seq, _, _)) in sink.events.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        assert_eq!(sink.events[0].2, "addi x5, x0, 5");
        assert_eq!(sink.events.last().unwrap().2, "ecall");
    }

    #[test]
    fn marks_symbolicate_and_display() {
        let mut p = countdown();
        p.add_mark(0, "init");
        p.add_mark(4, "loop");
        p.add_mark(12, "exit");
        assert_eq!(p.symbol_for(0), Some("init"));
        assert_eq!(p.symbol_for(4), Some("loop"));
        assert_eq!(p.symbol_for(8), Some("loop"));
        assert_eq!(p.symbol_for(12), Some("exit"));
        assert_eq!(p.symbol_for(100), Some("exit"));
        assert_eq!(Program::new("bare", vec![]).symbol_for(0), None);
        let text = p.to_string();
        assert!(text.contains("<loop>:"), "{text}");
    }

    #[test]
    fn machine_code_loader_roundtrips() {
        let p = countdown();
        let bytes = p.assemble().unwrap();
        let back = Program::from_machine_code("reloaded", &bytes).unwrap();
        assert_eq!(back.instrs, p.instrs);
        // A ragged byte count is rejected.
        assert!(Program::from_machine_code("bad", &bytes[..6]).is_err());
        // Undecodable words report their position.
        let mut corrupt = bytes.clone();
        corrupt[4..8].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
        let err = Program::from_machine_code("bad", &corrupt).unwrap_err();
        assert!(err.contains("instruction 1"), "{err}");
    }

    #[test]
    fn plan_and_legacy_loops_agree() {
        let mut planned = m();
        let mut legacy = m();
        let r1 = planned.run_default(&countdown()).unwrap();
        let r2 = legacy
            .run_legacy(&countdown(), DEFAULT_FUEL, 0, &mut ())
            .unwrap();
        assert_eq!(r1, r2);
        assert_eq!(planned.xreg(XReg::new(5)), legacy.xreg(XReg::new(5)));
        assert_eq!(planned.counters, legacy.counters);
    }

    #[test]
    fn polls_happen_at_entry_and_taken_jumps_on_every_loop() {
        /// Stops at its `n`th poll (1-based), counting every poll.
        struct StopAt {
            n: u64,
            polls: u64,
        }
        impl Observer for StopAt {
            const POLLS: bool = true;
            fn stop(&mut self) -> bool {
                self.polls += 1;
                self.polls == self.n
            }
        }
        let plan = crate::plan::CompiledPlan::compile(countdown());
        // Plan tier, fused tier, reference loop.
        let run = |tier: usize, m: &mut Machine, o: &mut StopAt| match tier {
            0 => m.run_plan(&plan, 1000, 0, false, o),
            1 => m.run_plan(&plan, 1000, 0, true, o),
            _ => m.run_legacy(plan.program(), 1000, 0, o),
        };
        for tier in 0..3 {
            // One poll at entry and one after each of the four taken `bne`s.
            let mut obs = StopAt { n: 0, polls: 0 };
            assert_eq!(run(tier, &mut m(), &mut obs).unwrap().retired, 12);
            assert_eq!(obs.polls, 5);
            let mut m = m();
            let mut obs = StopAt { n: 1, polls: 0 };
            let r = run(tier, &mut m, &mut obs);
            assert!(matches!(r, Err(SimError::Cancelled { seq: 1 })), "{r:?}");
            assert_eq!(m.counters.total(), 0);
            // The second poll follows `li`, `addi` and the first taken `bne`.
            let mut obs = StopAt { n: 2, polls: 0 };
            let r = run(tier, &mut m, &mut obs);
            assert!(matches!(r, Err(SimError::Cancelled { seq: 4 })), "{r:?}");
            assert_eq!((m.counters.total(), m.stop_pc()), (3, 4));
            // Resuming at the stop PC finishes the run.
            let rest = m
                .run_plan(&plan, 1000, m.stop_pc(), false, &mut ())
                .unwrap();
            assert_eq!((rest.retired, m.xreg(XReg::new(5))), (9, 0));
        }
    }

    #[test]
    fn display_disassembles() {
        let text = countdown().to_string();
        assert!(text.contains("countdown:"));
        assert!(text.contains("bne x5, x0, -4"));
    }
}
