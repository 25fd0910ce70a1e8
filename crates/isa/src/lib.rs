//! # rvv-isa — ISA data model for the scan-vector-model reproduction
//!
//! This crate defines the instruction-set architecture layer that the rest of
//! the workspace builds on: a typed model of the **RV64IM scalar subset** and
//! the **RISC-V Vector extension (RVV 1.0) subset** needed to implement
//! Blelloch's scan vector model the way the paper does (strip-mined kernels
//! using `vsetvli`, unit-stride and indexed vector memory operations, slides,
//! mask manipulation including `viota`/`vcpop`/`vmsbf`, and integer
//! arithmetic with masking).
//!
//! The crate deliberately contains **no execution semantics** — those live in
//! [`rvv-sim`](../rvv_sim/index.html). What lives here:
//!
//! * [`Sew`], [`Lmul`], [`VType`] — the vector configuration state model,
//!   including the `vtype` CSR bit layout.
//! * [`XReg`], [`VReg`] — checked register newtypes.
//! * [`Instr`] and its operand enums — one variant per instruction *family*
//!   (e.g. all of `vadd.vv`/`vsub.vv`/… are `Instr::VOpVV` with a
//!   [`VAluOp`]), which keeps the simulator's dispatch compact while still
//!   modelling every instruction the kernels emit.
//! * [`table`] — the instruction table: one [`table::Row`] per mnemonic form, with
//!   its fixed match bits and an ordered list of operand [`table::Field`]s that
//!   each know their bit position, assembly syntax and range. Every codec
//!   below is a walk over these rows, so each instruction's facts are
//!   written once.
//! * [`encode`]/[`decode`] — the 32-bit binary instruction encoding for the
//!   whole subset, round-trip tested; `decode` accepts only canonical words
//!   (no don't-care bit set). The simulator executes the typed form, but the
//!   encoder exists so that generated kernels are *real* RISC-V machine
//!   code, byte for byte, and so tests can assert against hand-assembled
//!   reference encodings from the specifications.
//! * `Display for Instr` and [`parse_asm`] — standard assembly text, written
//!   and read from the same rows (the assembler in `rvv-asm` adds labels and
//!   comments on top).
//! * [`InstrClass`] — the classification used by the simulator's dynamic
//!   instruction histogram (the paper's metric is Spike's dynamic instruction
//!   count; the histogram lets the benches break that count down).
//!
//! ## Scope of the subset
//!
//! Scalar: `RV64I` ALU/branch/load/store/jal/jalr plus `M` multiply/divide.
//! Vector: integer OPIVV/OPIVX/OPIVI arithmetic, compares-to-mask, merges and
//! moves, slides, gather/compress, the mask-register instruction group, the
//! single-width reductions, unit-stride/strided/indexed loads and stores, and
//! whole-register loads/stores (used by spill code). Fixed-point, floating
//! point, widening/narrowing and segment memory ops are out of scope: the
//! paper's kernels never touch them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod config;
mod decode;
mod encode;
mod instr;
mod reg;
pub mod table;
mod text;

pub use class::InstrClass;
pub use config::{KernelConfig, Lmul, Sew, VType};
pub use decode::{decode, DecodeError};
pub use encode::{encode, EncodeError};
pub use instr::{AluOp, BranchCond, Instr, MaskOp, MemWidth, VAluOp, VCmp, VCsr, VRedOp};
pub use reg::{VReg, XReg};
pub use text::parse_asm;

/// Convenience result alias for encoding.
pub type EncodeResult = Result<u32, EncodeError>;
