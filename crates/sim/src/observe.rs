//! Run-loop observers ([`Observer`]) and the adapters for trace sinks and
//! fault hooks.

#[cfg(doc)]
use crate::error::SimError;
use crate::fault::{FaultAction, FaultHook};
#[cfg(doc)]
use crate::machine::Machine;
use crate::program::Program;
use crate::trace::{MemAccess, RetireEvent, TraceSink};
use rvv_isa::Instr;

/// Observer of one run: the one extension point of both run loops,
/// [`Machine::run_plan`] (plan and fused tiers) and [`Machine::run_legacy`].
///
/// It hears about each launch, may intercept each instruction before it
/// executes (fault injection), may ask the run to stop at control
/// transfers (cancellation), and is told about each one that retired
/// (tracing). The loops test the associated consts as constants, so the
/// `()` instantiation compiles every hook call, poll, [`RetireEvent`]
/// assembly and [`Machine::mem_footprint`] call away.
///
/// Both loops call [`Observer::before`] once per attempted instruction in
/// retirement order, with the pre-execution memory footprint, and
/// [`Observer::retire`] once per retired instruction, with an event
/// assembled from the state it executed under. A trapping instruction is
/// neither counted nor reported. [`Observer::stop`] is polled far less
/// often: before the first instruction of a launch and before the first
/// instruction after each taken jump or branch — the same boundaries on
/// every tier, since fused windows never contain a control transfer.
pub trait Observer {
    /// Whether [`Observer::before`] must be consulted. While it is, the
    /// fused tier runs op by op: a fused window has no interior
    /// instruction boundaries to consult it at.
    const INTERCEPTS: bool = false;
    /// Whether [`Observer::retire`] wants events.
    const TRACES: bool = false;
    /// Whether [`Observer::stop`] must be polled. Polling needs no
    /// interior instruction boundaries, so it keeps fused windows on.
    const POLLS: bool = false;

    /// A program is about to run.
    fn launch(&mut self, _program: &Program) {}

    /// Decide what happens to the instruction at byte PC `pc`. Only called
    /// when [`Observer::INTERCEPTS`] is set; see [`FaultHook::before`].
    fn before(&mut self, _pc: u64, _instr: &Instr, _mem: Option<&MemAccess>) -> FaultAction {
        FaultAction::Pass
    }

    /// One instruction retired. Only called when [`Observer::TRACES`] is
    /// set.
    fn retire(&mut self, _event: &RetireEvent<'_>) {}

    /// Should the run stop here? Only called when [`Observer::POLLS`] is
    /// set, at launch entry and after each taken control transfer, after
    /// the fuel check and before the next instruction is intercepted or
    /// executed. A stop traps with [`SimError::Cancelled`] whose `seq` is
    /// the launch's retired count plus one: the ordinal of the
    /// instruction that did not run, whose PC becomes
    /// [`Machine::stop_pc`].
    fn stop(&mut self) -> bool {
        false
    }
}

/// The plain run: nothing observed, nothing intercepted.
impl Observer for () {}

/// A [`TraceSink`] as an observer: every retired instruction is reported
/// to the sink, fused-window constituents included.
pub struct Traced<'a, S: ?Sized>(pub &'a mut S);

impl<S: TraceSink + ?Sized> Observer for Traced<'_, S> {
    const TRACES: bool = true;

    fn launch(&mut self, program: &Program) {
        self.0.launch(program);
    }

    fn retire(&mut self, event: &RetireEvent<'_>) {
        self.0.retire(event);
    }
}

/// A [`FaultHook`] as an observer, consulted before every instruction.
pub struct Hooked<'a, H: ?Sized>(pub &'a mut H);

impl<H: FaultHook + ?Sized> Observer for Hooked<'_, H> {
    const INTERCEPTS: bool = true;

    fn before(&mut self, pc: u64, instr: &Instr, mem: Option<&MemAccess>) -> FaultAction {
        self.0.before(pc, instr, mem)
    }
}
