//! Simulator error type.
//!
//! Everything the machine can trap on is an explicit, testable error — the
//! failure-injection integration tests drive each of these paths.

use rvv_isa::{Lmul, VReg};
use std::fmt;

/// A trap raised while executing an instruction or running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A vector instruction executed while `vtype` is ill-formed (no
    /// successful `vsetvli` yet, or an illegal configuration was requested).
    Vill,
    /// A vector operand register is not aligned to the current LMUL group
    /// size (e.g. `v3` used as a group base at LMUL=4).
    MisalignedGroup {
        /// The offending register.
        reg: VReg,
        /// The LMUL in effect.
        lmul: Lmul,
    },
    /// A destination group overlaps a source group in a way the ISA forbids
    /// (`vslideup`, `vrgather`, `vcompress`, `viota`).
    OverlapConstraint {
        /// Which instruction family raised it.
        what: &'static str,
    },
    /// A memory access fell outside the machine's memory.
    MemOutOfBounds {
        /// Byte address of the start of the access.
        addr: u64,
        /// Access length in bytes.
        len: u64,
        /// Memory size in bytes.
        size: u64,
    },
    /// A branch or jump targeted an address that is not a valid instruction
    /// boundary within the running program.
    BadControlFlow {
        /// The target byte address.
        target: u64,
    },
    /// `ebreak` executed.
    Breakpoint {
        /// PC of the `ebreak`.
        pc: u64,
    },
    /// The run loop's instruction budget was exhausted — almost always an
    /// infinite loop in a generated kernel.
    FuelExhausted {
        /// The budget that was exceeded.
        fuel: u64,
    },
    /// A vector memory op used an element width whose EMUL would exceed 8
    /// registers or otherwise cannot be realized.
    UnsupportedEmul {
        /// Description of the violation.
        what: &'static str,
    },
    /// The program wrote to a guard region (buffer under/overrun detection
    /// used by tests).
    GuardHit {
        /// Byte address of the faulting access.
        addr: u64,
    },
    /// A fetched word does not decode to an instruction in the modelled
    /// subset — a reserved opcode, or an encoding corrupted in flight
    /// (see `rvv-fault`). Real hardware raises an illegal-instruction
    /// exception here; we trap with the exact word so the failure is
    /// reproducible.
    IllegalInstruction {
        /// PC of the undecodable fetch.
        pc: u64,
        /// The 32-bit word that failed to decode.
        encoding: u32,
    },
    /// A fault-injection hook forced this trap (see `rvv-fault`). Never
    /// raised by ordinary execution — only when a `FaultHook` is attached.
    InjectedFault {
        /// Which injection point fired (e.g. `"read"`, `"write"`,
        /// `"fuel"`).
        what: &'static str,
        /// The 1-based ordinal of the access/instruction the plan armed
        /// (for `"fuel"`, the injected instruction budget).
        seq: u64,
    },
    /// A cooperative [`CancelToken`](crate::CancelToken) tripped at an
    /// instruction boundary — the run was asked to stop (deadline expired,
    /// client went away, shutdown in progress). Like `InjectedFault`, never
    /// raised by ordinary execution. The token is polled at the same
    /// boundaries in every engine tier, and a deterministic trip point is
    /// a fuel cap, so the boundary ordinal `seq` is identical across Plan,
    /// Legacy, and Fused for the same deterministic trip point.
    Cancelled {
        /// The 1-based ordinal, within the launch, of the instruction
        /// boundary where the run stopped: its retired count plus one.
        seq: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Vill => write!(f, "vector instruction executed with vill set"),
            SimError::MisalignedGroup { reg, lmul } => {
                write!(f, "register {reg} is not aligned for LMUL {lmul}")
            }
            SimError::OverlapConstraint { what } => {
                write!(f, "illegal destination/source overlap in {what}")
            }
            // `addr + len` can exceed u64::MAX for wild pointers (that is
            // exactly why the access trapped) — saturate rather than
            // overflow inside the error formatter.
            SimError::MemOutOfBounds { addr, len, size } => write!(
                f,
                "memory access [{addr:#x}, {:#x}) outside memory of {size:#x} bytes",
                addr.saturating_add(*len)
            ),
            SimError::BadControlFlow { target } => {
                write!(f, "control flow to invalid target {target:#x}")
            }
            SimError::Breakpoint { pc } => write!(f, "ebreak at pc {pc:#x}"),
            SimError::FuelExhausted { fuel } => {
                write!(f, "instruction budget of {fuel} exhausted")
            }
            SimError::UnsupportedEmul { what } => write!(f, "unsupported EMUL: {what}"),
            SimError::GuardHit { addr } => write!(f, "guard region hit at {addr:#x}"),
            SimError::IllegalInstruction { pc, encoding } => {
                write!(f, "illegal instruction {encoding:#010x} at pc {pc:#x}")
            }
            SimError::InjectedFault { what, seq } => {
                write!(f, "injected {what} fault at access {seq}")
            }
            SimError::Cancelled { seq } => {
                write!(f, "cancelled at instruction boundary {seq}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Simulator result alias.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every variant. The match in [`display_is_lossless`]
    /// is intentionally exhaustive (no wildcard arm): adding a `SimError`
    /// variant without extending this list is a compile error, which is
    /// what keeps the display/round-trip coverage honest.
    fn samples() -> Vec<SimError> {
        vec![
            SimError::Vill,
            SimError::MisalignedGroup {
                reg: VReg::new(3),
                lmul: Lmul::M4,
            },
            SimError::OverlapConstraint { what: "vslideup" },
            SimError::MemOutOfBounds {
                addr: 0xdead_beef,
                len: 8,
                size: 0x1000,
            },
            SimError::BadControlFlow { target: 0xfeed },
            SimError::Breakpoint { pc: 0x44 },
            SimError::FuelExhausted { fuel: 123_456 },
            SimError::UnsupportedEmul { what: "emul > 8" },
            SimError::GuardHit { addr: 0xabcd },
            SimError::IllegalInstruction {
                pc: 0x10,
                encoding: 0xffff_ffff,
            },
            SimError::InjectedFault {
                what: "read",
                seq: 42,
            },
            SimError::Cancelled { seq: 7 },
        ]
    }

    #[test]
    fn display_is_lossless() {
        for e in samples() {
            let text = e.to_string();
            // Each variant's distinguishing payload must survive into the
            // message — batch failure manifests are built from these.
            match &e {
                SimError::Vill => assert!(text.contains("vill")),
                SimError::MisalignedGroup { reg, lmul } => {
                    assert!(text.contains(&reg.to_string()), "{text}");
                    assert!(text.contains(&lmul.to_string()), "{text}");
                }
                SimError::OverlapConstraint { what } | SimError::UnsupportedEmul { what } => {
                    assert!(text.contains(what), "{text}")
                }
                SimError::MemOutOfBounds { addr, .. } => {
                    assert!(text.contains(&format!("{addr:#x}")), "{text}")
                }
                SimError::BadControlFlow { target } => {
                    assert!(text.contains(&format!("{target:#x}")), "{text}")
                }
                SimError::Breakpoint { pc } => {
                    assert!(text.contains(&format!("{pc:#x}")), "{text}")
                }
                SimError::FuelExhausted { fuel } => {
                    assert!(text.contains(&fuel.to_string()), "{text}")
                }
                SimError::GuardHit { addr } => {
                    assert!(text.contains(&format!("{addr:#x}")), "{text}")
                }
                SimError::IllegalInstruction { pc, encoding } => {
                    assert!(text.contains(&format!("{encoding:#010x}")), "{text}");
                    assert!(text.contains(&format!("{pc:#x}")), "{text}");
                }
                SimError::InjectedFault { what, seq } => {
                    assert!(text.contains(what), "{text}");
                    assert!(text.contains(&seq.to_string()), "{text}");
                }
                SimError::Cancelled { seq } => {
                    assert!(text.contains("cancelled"), "{text}");
                    assert!(text.contains(&seq.to_string()), "{text}");
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_display_never_overflows() {
        // A wild pointer near u64::MAX used to overflow `addr + len` inside
        // the formatter (a panic in debug builds) — the report must render.
        let e = SimError::MemOutOfBounds {
            addr: u64::MAX - 3,
            len: 8,
            size: 0x1000,
        };
        let text = e.to_string();
        assert!(text.contains(&format!("{:#x}", u64::MAX - 3)), "{text}");
        assert!(text.contains(&format!("{:#x}", u64::MAX)), "{text}");
    }
}
