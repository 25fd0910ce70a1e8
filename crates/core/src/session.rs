//! The per-run execution environment: a simulated RVV machine plus
//! device-memory management, created from a shared [`Engine`].
//!
//! [`Session`] plays the role the C runtime plays in the paper: it owns the
//! simulated machine, stages input vectors into simulated memory, launches
//! compiled kernels with a simple calling convention, and reads results
//! back. Kernels are generated per `(name, SEW, LMUL)` under the
//! session's fixed `(VLEN, spill profile)` — exactly like compiling a C
//! file per target configuration — and cached as pre-decoded
//! [`CompiledPlan`]s in the engine's [`crate::PlanCache`], so repeated
//! launches (from this session or any sibling of the same engine) skip
//! instruction classification entirely (see [`ExecEngine`]).
//!
//! [`ScanEnv`] is the historical name for [`Session`] and remains a type
//! alias: `ScanEnv::new(cfg)` builds a session over a private default
//! engine, which is exactly the old behavior.
//!
//! ## Calling convention
//!
//! * `a0..a7` (`x10..x17`) carry kernel arguments (element count, buffer
//!   addresses, broadcast scalars).
//! * The kernel's scalar result (if any) returns in `a0`.
//! * `sp` enters pointing at the top of the stack region; kernels with
//!   spill frames push/pop below it.
//! * Kernels end with `ecall`.

use crate::engine::Engine;
use crate::error::{ScanError, ScanResult};
use crate::plan_cache::PlanCache;
use crate::snapshot::EnvSnapshot;
use rvv_asm::SpillProfile;
use rvv_isa::Instr;
use rvv_isa::{KernelConfig, Lmul, Sew, XReg};
use rvv_sim::{
    CancelToken, CompiledPlan, FaultAction, FaultHook, Hooked, Machine, MachineConfig, MemAccess,
    Observer, Program, RetireEvent, RunReport, SimError, SimResult, TraceSink, Traced,
    DEFAULT_FUEL,
};
use std::ops::Range;
use std::sync::Arc;

/// Stack reservation at the top of device memory.
pub(crate) const STACK_BYTES: u64 = 1 << 20;
/// The device heap base: the first page is never allocated, so null-ish
/// pointers trap. Public so fault plans and tests can compute guard
/// offsets relative to the heap without re-declaring the constant.
pub const HEAP_BASE: u64 = 4096;

/// Environment configuration.
///
/// `Hash` so batch workers can pool one reusable environment per distinct
/// configuration (see `rvv-batch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnvConfig {
    /// Vector register length in bits (the paper sweeps 128..1024).
    pub vlen: u32,
    /// Register-group multiplier kernels are compiled for.
    pub lmul: Lmul,
    /// Spill cost model (see [`rvv_asm::SpillProfile`]).
    pub spill_profile: SpillProfile,
    /// Device memory size in bytes.
    pub mem_bytes: usize,
}

impl EnvConfig {
    /// The paper's headline configuration: VLEN=1024, LMUL=1.
    pub fn paper_default() -> EnvConfig {
        EnvConfig {
            vlen: 1024,
            lmul: Lmul::M1,
            spill_profile: SpillProfile::llvm14(),
            mem_bytes: 192 << 20,
        }
    }

    /// Headline config with a different VLEN.
    pub fn with_vlen(vlen: u32) -> EnvConfig {
        EnvConfig {
            vlen,
            ..EnvConfig::paper_default()
        }
    }

    /// Headline config with a different LMUL.
    pub fn with_lmul(lmul: Lmul) -> EnvConfig {
        EnvConfig {
            lmul,
            ..EnvConfig::paper_default()
        }
    }

    /// The architectural kernel-compilation key this environment generates
    /// code under, at element width `sew` (device memory size does not
    /// affect generated code, so it is not part of the key).
    pub fn kernel_config(&self, sew: Sew) -> KernelConfig {
        KernelConfig {
            vlen: self.vlen,
            sew,
            lmul: self.lmul,
        }
    }
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig::paper_default()
    }
}

/// A device vector: a typed view of a buffer in simulated memory.
#[derive(Debug, Clone)]
pub struct SvVector {
    addr: u64,
    len: usize,
    sew: Sew,
}

impl SvVector {
    /// Device byte address of element 0.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the vector empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element width.
    pub fn sew(&self) -> Sew {
        self.sew
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.len as u64 * self.sew.bytes() as u64
    }
}

/// A heap mark for stack-disciplined temporary allocation
/// (see [`Session::heap_mark`] / [`Session::release_to`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapMark(u64);

/// Which run loop kernel launches go through.
///
/// All engines are architecturally indistinguishable — same results, same
/// counters, same trace events — so switching engines is purely a host
/// performance choice. `Legacy` exists for differential testing and for
/// honest before/after host-throughput measurement; `Fused`, the default,
/// is the fastest tier when programs contain the recognized kernel-shaped
/// windows and never slower than `Plan` otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Pre-decoded execution plan with SEW-specialized dispatch
    /// ([`Machine::run_plan`] without `fuse`).
    Plan,
    /// The reference decode-classify-dispatch interpreter
    /// ([`Machine::run_legacy`]).
    Legacy,
    /// The plan engine plus peephole-fused superinstruction windows
    /// ([`Machine::run_plan`] with `fuse`): strip-mine bodies, `vv` maps,
    /// scan steps, and whole-register chains execute as single bulk
    /// kernels. The default.
    #[default]
    Fused,
}

impl ExecEngine {
    /// Parse the CLI/CI spelling (`plan`, `legacy`, `fused`),
    /// case-insensitively — `PLAN`, `Fused`, … all resolve, so shell
    /// variables and config files don't need exact casing.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "plan" => Some(ExecEngine::Plan),
            "legacy" => Some(ExecEngine::Legacy),
            "fused" => Some(ExecEngine::Fused),
            _ => None,
        }
    }

    /// Every engine tier, in canonical order — the valid set CLI error
    /// messages list.
    pub const ALL: [ExecEngine; 3] = [ExecEngine::Plan, ExecEngine::Legacy, ExecEngine::Fused];

    /// The canonical lower-case name, inverse of [`ExecEngine::parse`].
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Plan => "plan",
            ExecEngine::Legacy => "legacy",
            ExecEngine::Fused => "fused",
        }
    }

    /// Launch `plan` on this tier's run loop under observer `obs`.
    fn launch<O: Observer>(
        self,
        m: &mut Machine,
        plan: &CompiledPlan,
        fuel: u64,
        obs: &mut O,
    ) -> SimResult<RunReport> {
        match self {
            ExecEngine::Plan => m.run_plan(plan, fuel, 0, false, obs),
            ExecEngine::Fused => m.run_plan(plan, fuel, 0, true, obs),
            ExecEngine::Legacy => m.run_legacy(plan.program(), fuel, 0, obs),
        }
    }
}

/// The scan-vector-model execution session: per-run state over a shared
/// [`Engine`].
///
/// A session owns what one run needs in isolation — the simulated machine,
/// the device-heap cursor, any attached tracer or fault hook, the armed
/// fuel budget, and the poison flag — while everything shareable (the plan
/// registry, the default run-loop tier, cost-model and fault-policy
/// defaults) lives on the engine it was created from
/// ([`Engine::session`]).
pub struct Session {
    engine: Engine,
    machine: Machine,
    cfg: EnvConfig,
    heap: u64,
    heap_limit: u64,
    tracer: Option<Box<dyn TraceSink>>,
    exec: ExecEngine,
    fault: Option<Box<dyn FaultHook + Send>>,
    /// Cooperative cancellation flag polled at control transfers while
    /// attached (see [`Session::attach_cancel_token`]).
    cancel: Option<CancelToken>,
    /// `(budget, retired-at-arming)`: a deterministic watchdog. While armed,
    /// kernel launches get `min(DEFAULT_FUEL, budget - spent)` fuel, so a
    /// job cannot retire more than `budget` instructions across all its
    /// launches (see [`Session::set_fuel_budget`]).
    fuel_budget: Option<(u64, u64)>,
    poisoned: bool,
}

/// The historical name for [`Session`], kept so the whole pre-split API
/// surface (`ScanEnv::new`, every consumer signature) continues to
/// compile unchanged.
pub type ScanEnv = Session;

/// The observer [`Session::run`] launches with while a [`CancelToken`] is
/// attached: polls the token's flag at control transfers and forwards
/// everything else to `inner` — `()`, or [`Hooked`] when a fault hook is
/// attached, which stays the only per-instruction path. Over `()` it does
/// not intercept, so fused windows stay on.
struct CancelPoll<'a, O> {
    token: &'a CancelToken,
    inner: O,
}

impl<O: Observer> Observer for CancelPoll<'_, O> {
    const INTERCEPTS: bool = O::INTERCEPTS;
    const TRACES: bool = O::TRACES;
    const POLLS: bool = true;

    fn launch(&mut self, program: &Program) {
        self.inner.launch(program);
    }

    fn before(&mut self, pc: u64, instr: &Instr, mem: Option<&MemAccess>) -> FaultAction {
        self.inner.before(pc, instr, mem)
    }

    fn retire(&mut self, event: &RetireEvent<'_>) {
        self.inner.retire(event);
    }

    fn stop(&mut self) -> bool {
        self.token.is_cancelled()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("cfg", &self.cfg)
            .field("heap", &self.heap)
            .field("exec", &self.exec)
            .field("tracer", &self.tracer.is_some())
            .field("fault", &self.fault.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("fuel_budget", &self.fuel_budget)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Build a session over a private default engine (fresh plan registry,
    /// default run-loop tier, no cost model, no fuel budget). This is the
    /// pre-split `ScanEnv::new` behavior, kept as a compatibility shim;
    /// code that shares compiled plans or policy should build an
    /// [`Engine`] and call [`Engine::session`] instead.
    ///
    /// # Panics
    ///
    /// On an invalid configuration ([`Engine::validate`]) — exactly where
    /// the machine constructor asserted before the split. Fallible
    /// construction goes through [`Engine::session`].
    pub fn new(cfg: EnvConfig) -> Session {
        Engine::new()
            .session(cfg)
            .expect("invalid EnvConfig (see Engine::validate)")
    }

    /// Construct the per-run half after the engine validated `cfg`
    /// ([`Engine::session`] is the public entry point).
    pub(crate) fn from_engine(engine: Engine, cfg: EnvConfig) -> Session {
        let machine = Machine::new(MachineConfig {
            vlen: cfg.vlen,
            mem_bytes: cfg.mem_bytes,
        });
        let heap_limit = cfg.mem_bytes as u64 - STACK_BYTES;
        let exec = engine.default_exec_engine();
        let default_fuel = engine.default_fuel_budget();
        let mut session = Session {
            engine,
            machine,
            cfg,
            heap: HEAP_BASE,
            heap_limit,
            tracer: None,
            exec,
            fault: None,
            cancel: None,
            fuel_budget: None,
            poisoned: false,
        };
        session.set_fuel_budget(default_fuel);
        session
    }

    /// Session with the paper's headline configuration (over a private
    /// default engine).
    pub fn paper_default() -> Session {
        Session::new(EnvConfig::paper_default())
    }

    /// The engine this session was created from: the shared context
    /// holding the plan registry and policy defaults.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The plan registry this session compiles into (the engine's).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        self.engine.plan_cache()
    }

    /// Reset the session for reuse: zero the CPU (scalar/vector
    /// registers, `vtype`, counters), release every heap allocation, disarm
    /// all memory guards, detach any tracer and fault hook, and restore
    /// the engine's defaults (run-loop tier and fuel budget — for a
    /// default engine that means [`ExecEngine::Fused`] and no budget).
    /// Cached plans are **not** dropped — they live
    /// in the engine's (possibly shared) registry — so a pooled worker
    /// that resets between jobs relaunches kernels with zero
    /// recompilation. Memory contents are not scrubbed; [`Session::alloc`]
    /// zeroes every allocation it hands out, so a reset session is
    /// observationally identical to a fresh [`Engine::session`] — *including
    /// after a trap*: a kernel aborted mid-flight leaves
    /// `vl`/`vtype`/registers dirty, and `reset` restores all of it (the
    /// reset-after-trap regression test pins this).
    ///
    /// The poison flag ([`Session::poison`]) is deliberately **not**
    /// cleared: a panic may have interrupted host-side bookkeeping at an
    /// arbitrary point, so a poisoned session must be discarded, not
    /// reset.
    pub fn reset(&mut self) {
        self.machine.reset_cpu();
        self.machine.mem.clear_guards();
        self.heap = HEAP_BASE;
        self.tracer = None;
        self.fault = None;
        self.cancel = None;
        self.exec = self.engine.default_exec_engine();
        self.set_fuel_budget(self.engine.default_fuel_budget());
    }

    // ---------------------------------------------------------- snapshots --

    /// Capture a complete, restorable checkpoint of this session: the
    /// full architectural machine state (registers, `vtype`/`vl`,
    /// counters, dirty memory pages, guards — see
    /// [`rvv_sim::MachineSnapshot`]) plus the host-side state the machine
    /// cannot see (configuration, allocator position, run-loop tier
    /// selection, poison flag, and the plan-cache key inventory).
    ///
    /// Snapshot cost is `O(state actually written)`, not `O(mem_bytes)`:
    /// the machine tracks dirty pages, so a session with a 192 MiB
    /// device memory that has touched three pages snapshots three pages.
    ///
    /// Tracers, fault hooks, and the fuel budget are **not** captured
    /// (they hold host-side resources that cannot survive a process
    /// boundary); [`Session::restore`] leaves the first two detached and
    /// re-arms the engine's default budget.
    pub fn snapshot(&self) -> EnvSnapshot {
        EnvSnapshot {
            cfg: self.cfg,
            heap: self.heap,
            engine: self.exec,
            poisoned: self.poisoned,
            plan_keys: self.engine.plan_cache().keys(),
            machine: self.machine.snapshot(),
        }
    }

    /// Restore this session to a [`Session::snapshot`]ed state.
    ///
    /// The snapshot's configuration must equal this session's — a
    /// snapshot taken at one `(VLEN, LMUL, spill profile, mem_bytes)` is
    /// meaningless under another, so a mismatch is refused with
    /// [`ScanError::Snapshot`] before anything is modified. On success the
    /// machine, heap position, run-loop tier selection, and poison flag
    /// are exactly as captured; tracer and fault hook are detached and
    /// the fuel budget is re-armed to the engine's default — disarmed for
    /// a default engine (see [`Session::snapshot`]). Cached plans are
    /// untouched — they are keyed by configuration and recompile on
    /// demand, so a fresh process restoring a snapshot simply warms its
    /// cache as the resumed run launches kernels.
    pub fn restore(&mut self, snap: &EnvSnapshot) -> ScanResult<()> {
        if snap.cfg != self.cfg {
            return Err(ScanError::Snapshot(format!(
                "config mismatch: snapshot {:?}, session {:?}",
                snap.cfg, self.cfg
            )));
        }
        self.machine.restore(&snap.machine);
        self.heap = snap.heap;
        self.exec = snap.engine;
        self.poisoned = snap.poisoned;
        self.tracer = None;
        self.fault = None;
        self.cancel = None;
        self.set_fuel_budget(self.engine.default_fuel_budget());
        Ok(())
    }

    /// Mark this session as unusable. The batch runner poisons a
    /// session when a job body panics inside it — the unwind may have
    /// left host-side state (allocator bookkeeping, partially staged
    /// buffers) inconsistent in ways [`Session::reset`] cannot see, so the
    /// pool rebuilds a fresh session instead of reusing this one.
    pub fn poison(&mut self) {
        if !self.poisoned {
            self.engine.health().note_session_poisoned();
        }
        self.poisoned = true;
    }

    /// Has this session been [`Session::poison`]ed?
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arm a deterministic per-job watchdog: across all subsequent kernel
    /// launches, at most `budget` further instructions may retire; the
    /// launch that crosses the line traps with
    /// [`SimError::FuelExhausted`]`{ fuel: budget }`. This is the
    /// deterministic stand-in for a wall-clock timeout — it fires at the
    /// same instruction on every run, on every engine, at every thread
    /// count. `None` disarms.
    pub fn set_fuel_budget(&mut self, budget: Option<u64>) {
        self.fuel_budget = budget.map(|b| (b, self.machine.counters.total()));
    }

    /// The armed watchdog budget, if any.
    pub fn fuel_budget(&self) -> Option<u64> {
        self.fuel_budget.map(|(b, _)| b)
    }

    /// Attach a [`FaultHook`]: every subsequent kernel launch consults it
    /// before each instruction (the [`Hooked`] observer; fused launches
    /// run op by op). Replaces (and returns) any previously attached hook.
    /// While a hook is attached, launches are *not* traced (fault injection
    /// and trace capture are separate experiments).
    pub fn attach_fault_hook(
        &mut self,
        hook: Box<dyn FaultHook + Send>,
    ) -> Option<Box<dyn FaultHook + Send>> {
        self.fault.replace(hook)
    }

    /// Detach and return the current fault hook. Subsequent launches go
    /// back to the unfaulted fast path.
    pub fn detach_fault_hook(&mut self) -> Option<Box<dyn FaultHook + Send>> {
        self.fault.take()
    }

    /// Is a fault hook attached?
    pub fn has_fault_hook(&self) -> bool {
        self.fault.is_some()
    }

    /// Attach a [`CancelToken`]: every subsequent kernel launch polls the
    /// token's flag at entry and after each taken jump or branch, in every
    /// [`ExecEngine`] tier, with no per-instruction work (fused windows
    /// stay on). A launch that observes the flag raised traps with
    /// [`SimError::Cancelled`] carrying the boundary ordinal and retires
    /// nothing past it. A deterministic trip point
    /// ([`CancelToken::after_checks`]) meters the launch as a fuel cap, so
    /// it stops at the exact boundary with the same partial counters on
    /// every tier. Composes with an attached fault hook (a boundary the
    /// token stops at is not shown to the hook) and with the fuel watchdog
    /// (whichever line is crossed first wins; on a tie the watchdog).
    /// Like a fault hook, an attached token suppresses tracing, and
    /// [`Session::reset`] / [`Session::restore`] detach it. Replaces (and
    /// returns) any previously attached token.
    pub fn attach_cancel_token(&mut self, token: CancelToken) -> Option<CancelToken> {
        self.cancel.replace(token)
    }

    /// Detach and return the current cancel token. Subsequent launches no
    /// longer poll it.
    pub fn detach_cancel_token(&mut self) -> Option<CancelToken> {
        self.cancel.take()
    }

    /// The attached cancel token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> EnvConfig {
        self.cfg
    }

    /// The run loop kernel launches use (see [`ExecEngine`]). Not to be
    /// confused with [`Session::engine`], the shared context this session
    /// was created from.
    pub fn exec_engine(&self) -> ExecEngine {
        self.exec
    }

    /// Select the run loop for subsequent launches. Cached kernels stay
    /// valid — a plan carries its source program, so either run loop can
    /// execute it. [`Session::reset`] reverts to the engine's default.
    pub fn set_exec_engine(&mut self, exec: ExecEngine) {
        self.exec = exec;
    }

    /// Fusion activity (windows committed, ops retired through fused
    /// kernels) accumulated by [`ExecEngine::Fused`] launches on this
    /// session's machine. Diagnostic only — never part of
    /// [`rvv_sim::Counters`] or
    /// snapshots, so it cannot perturb cross-engine equality.
    pub fn fused_stats(&self) -> rvv_sim::FusedStats {
        self.machine.fused_stats
    }

    /// Borrow the machine (counters, memory inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutably borrow the machine (tests poke state directly).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Total dynamic instructions retired in this session so far.
    pub fn retired(&self) -> u64 {
        self.machine.counters.total()
    }

    /// The device stack region (`[heap_limit, mem_bytes)`): the address
    /// range spill frames live in. Profilers classify memory traffic into
    /// this region as spill/stack traffic.
    pub fn stack_region(&self) -> Range<u64> {
        self.heap_limit..self.cfg.mem_bytes as u64
    }

    // ------------------------------------------------------------- tracing --

    /// Attach a [`TraceSink`]: every subsequent kernel launch without a
    /// fault hook or cancel token runs under the [`Traced`] observer and
    /// every phase entered via [`Session::phase`] is forwarded to the sink.
    /// Replaces (and returns) any previously attached sink.
    pub fn attach_tracer(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.tracer.replace(sink)
    }

    /// Detach and return the current sink (typically to read its report).
    /// Subsequent launches go back to the untraced fast path.
    pub fn detach_tracer(&mut self) -> Option<Box<dyn TraceSink>> {
        self.tracer.take()
    }

    /// Is a sink attached?
    pub fn has_tracer(&self) -> bool {
        self.tracer.is_some()
    }

    /// Run `f` inside a named phase. With a sink attached, the sink sees
    /// `phase_begin(name)` / `phase_end(name)` around everything `f`
    /// launches; phases nest. Without a sink this is a plain call — the
    /// primitives wrap their bodies in phases unconditionally and rely on
    /// this being free.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut ScanEnv) -> T) -> T {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.phase_begin(name);
        }
        let out = f(self);
        if let Some(t) = self.tracer.as_deref_mut() {
            t.phase_end(name);
        }
        out
    }

    // ---------------------------------------------------------- allocation --

    /// Allocate a zero-initialized device vector of `len` elements.
    pub fn alloc(&mut self, sew: Sew, len: usize) -> ScanResult<SvVector> {
        let bytes = len as u64 * sew.bytes() as u64;
        // 64-byte align every allocation.
        let addr = (self.heap + 63) & !63;
        let end = addr
            .checked_add(bytes)
            .ok_or(ScanError::OutOfDeviceMemory {
                requested: bytes,
                available: 0,
            })?;
        if end > self.heap_limit {
            return Err(ScanError::OutOfDeviceMemory {
                requested: bytes,
                available: self.heap_limit.saturating_sub(addr),
            });
        }
        self.heap = end;
        // Fresh allocations are zeroed (bump region starts zeroed, but the
        // space may be reused after release_to). Guard-exempt: arming a
        // guard inside the heap must fail the kernel that overruns into it,
        // not the allocator.
        self.machine.mem.fill(addr, bytes, 0)?;
        Ok(SvVector { addr, len, sew })
    }

    /// Allocate with guard regions armed on both sides: any kernel that
    /// under- or overruns the buffer traps with
    /// [`rvv_sim::SimError::GuardHit`] instead of corrupting a neighbour.
    /// Returns the vector and the two guard handles (disarm with
    /// [`rvv_sim::Memory::remove_guard`] via [`Session::machine_mut`]).
    pub fn alloc_guarded(&mut self, sew: Sew, len: usize) -> ScanResult<(SvVector, usize, usize)> {
        const GUARD: usize = 64;
        let lo = self.alloc(Sew::E8, GUARD)?;
        let v = self.alloc(sew, len)?;
        let hi = self.alloc(Sew::E8, GUARD)?;
        let g1 = self
            .machine
            .mem
            .add_guard(lo.addr()..lo.addr() + GUARD as u64);
        let g2 = self
            .machine
            .mem
            .add_guard(hi.addr()..hi.addr() + GUARD as u64);
        Ok((v, g1, g2))
    }

    /// Current heap position, for stack-disciplined temporaries.
    pub fn heap_mark(&self) -> HeapMark {
        HeapMark(self.heap)
    }

    /// Release every allocation made after `mark`. Vectors allocated after
    /// the mark become dangling; dropping them is the caller's contract
    /// (exactly like a region allocator).
    pub fn release_to(&mut self, mark: HeapMark) {
        debug_assert!(mark.0 <= self.heap);
        self.heap = mark.0;
    }

    /// Allocate and fill from host `u32` data (e32).
    pub fn from_u32(&mut self, data: &[u32]) -> ScanResult<SvVector> {
        let v = self.alloc(Sew::E32, data.len())?;
        self.machine.mem.write_u32_slice(v.addr, data);
        Ok(v)
    }

    /// Allocate and fill from host `u64` data (e64).
    pub fn from_u64(&mut self, data: &[u64]) -> ScanResult<SvVector> {
        let v = self.alloc(Sew::E64, data.len())?;
        self.machine.mem.write_u64_slice(v.addr, data);
        Ok(v)
    }

    /// Allocate and fill from width-truncated `u64` element values at any
    /// SEW.
    pub fn from_elems(&mut self, sew: Sew, data: &[u64]) -> ScanResult<SvVector> {
        let v = self.alloc(sew, data.len())?;
        for (i, &x) in data.iter().enumerate() {
            self.machine.mem.store(
                v.addr + i as u64 * sew.bytes() as u64,
                sew.bytes() as u64,
                x,
            )?;
        }
        Ok(v)
    }

    /// Read back as `u32` (must be e32).
    pub fn to_u32(&self, v: &SvVector) -> Vec<u32> {
        assert_eq!(v.sew, Sew::E32, "to_u32 requires an e32 vector");
        self.machine.mem.read_u32_slice(v.addr, v.len)
    }

    /// Read back element values (zero-extended) at the vector's SEW.
    /// Guard-exempt ([`rvv_sim::Memory::peek`]): reading results back is
    /// host staging, not simulated execution, and must work even while
    /// guards are armed over the buffer.
    pub fn to_elems(&self, v: &SvVector) -> Vec<u64> {
        (0..v.len)
            .map(|i| {
                self.machine
                    .mem
                    .peek(
                        v.addr + i as u64 * v.sew.bytes() as u64,
                        v.sew.bytes() as u64,
                    )
                    .expect("vector within bounds by construction")
            })
            .collect()
    }

    /// A typed sub-view of a device vector: elements `[start, start+len)`.
    pub fn slice(&self, v: &SvVector, start: usize, len: usize) -> ScanResult<SvVector> {
        let end = start.checked_add(len).ok_or(ScanError::LengthMismatch {
            what: "slice",
            a: usize::MAX,
            b: v.len,
        })?;
        if end > v.len {
            return Err(ScanError::LengthMismatch {
                what: "slice",
                a: end,
                b: v.len,
            });
        }
        Ok(SvVector {
            addr: v.addr + (start as u64) * v.sew.bytes() as u64,
            len,
            sew: v.sew,
        })
    }

    /// Host-side single-element store (staging/glue, not simulated
    /// execution — costs no instructions and is guard-exempt).
    pub fn store_elem(&mut self, v: &SvVector, i: usize, value: u64) -> ScanResult<()> {
        assert!(i < v.len, "element index out of range");
        let e = v.sew.bytes() as u64;
        self.machine.mem.poke(v.addr + i as u64 * e, e, value)?;
        Ok(())
    }

    /// Host-side single-element load (zero-extended, guard-exempt).
    pub fn load_elem(&self, v: &SvVector, i: usize) -> u64 {
        assert!(i < v.len, "element index out of range");
        let e = v.sew.bytes() as u64;
        self.machine
            .mem
            .peek(v.addr + i as u64 * e, e)
            .expect("vector in bounds")
    }

    /// Overwrite an existing device vector from host data (e32).
    pub fn write_u32(&mut self, v: &SvVector, data: &[u32]) -> ScanResult<()> {
        if data.len() != v.len {
            return Err(ScanError::LengthMismatch {
                what: "write_u32",
                a: data.len(),
                b: v.len,
            });
        }
        self.machine.mem.write_u32_slice(v.addr, data);
        Ok(())
    }

    // ------------------------------------------------------------- kernels --

    /// Fetch or build a kernel, pre-compiled to a [`CompiledPlan`]. `name`
    /// must uniquely identify the generated code together with the
    /// session's full architectural configuration — the registry key is
    /// `(name, VLEN, SEW, LMUL, spill profile)` ([`EnvConfig::kernel_config`]
    /// plus the profile), so kernels built under one configuration are never
    /// served to a session with another, even when many sessions
    /// share one registry.
    pub fn kernel(
        &mut self,
        name: &str,
        sew: Sew,
        build: impl FnOnce(&EnvConfig, Sew) -> ScanResult<Program>,
    ) -> ScanResult<Arc<CompiledPlan>> {
        self.engine.plan_cache().get_or_compile(
            name,
            self.cfg.kernel_config(sew),
            self.cfg.spill_profile,
            || build(&self.cfg, sew),
        )
    }

    /// Launch a compiled kernel with arguments in `a0..`, returning the run
    /// report and the kernel's `a0` result. Dispatches through the selected
    /// [`ExecEngine`].
    pub fn run(&mut self, plan: &CompiledPlan, args: &[u64]) -> ScanResult<(RunReport, u64)> {
        assert!(args.len() <= 8, "at most 8 kernel arguments");
        for (i, &a) in args.iter().enumerate() {
            self.machine.set_xreg(XReg::arg(i as u8), a);
        }
        self.machine
            .set_xreg(XReg::SP, self.cfg.mem_bytes as u64 - 64);
        // An armed watchdog caps this launch at whatever is left of the
        // job's budget; exhausting it reports the *budget*, not the
        // remainder, so the trap message is the same wherever in the job
        // the line is crossed. The budget line lies inside this launch
        // only when the metered allocation IS the remaining budget — a
        // launch capped at `DEFAULT_FUEL` below the line can exhaust its
        // own fuel without crossing it.
        let (fuel, watchdog) = match self.fuel_budget {
            Some((budget, base)) => {
                let spent = self.machine.counters.total() - base;
                let remaining = budget.saturating_sub(spent);
                (
                    DEFAULT_FUEL.min(remaining),
                    (remaining <= DEFAULT_FUEL).then_some(budget),
                )
            }
            None => (DEFAULT_FUEL, None),
        };
        // A deterministic cancel trip point is a fuel cap: the launch may
        // pass `passes` more boundaries, and the next one trips. Fuel lands
        // on the same op boundary in every tier, so the trip cancels at the
        // same ordinal with the same partial counters on Plan, Legacy and
        // Fused alike. A token or hook suppresses tracing.
        let token = self.cancel.as_ref();
        let passes = token.and_then(CancelToken::passes_left);
        let cap = passes.map_or(fuel, |p| p.min(fuel));
        let start = self.machine.counters.total();
        let (exec, m) = (self.exec, &mut self.machine);
        let report = match (token, self.fault.as_deref_mut(), self.tracer.as_deref_mut()) {
            (Some(token), Some(hook), _) => {
                let inner = Hooked(hook);
                exec.launch(m, plan, cap, &mut CancelPoll { token, inner })
            }
            (Some(token), None, _) => {
                exec.launch(m, plan, cap, &mut CancelPoll { token, inner: () })
            }
            (None, Some(hook), _) => exec.launch(m, plan, cap, &mut Hooked(hook)),
            (None, None, Some(sink)) => exec.launch(m, plan, cap, &mut Traced(sink)),
            (None, None, None) => exec.launch(m, plan, cap, &mut ()),
        };
        // The run loop is the only source of `FuelExhausted`, and it always
        // carries the launch's metered fuel (injected fuel faults trap as
        // `SimError::InjectedFault` — see `rvv-fault` — and pass through
        // unrewritten). Exhausting a trip cap strictly below the fuel line
        // is the token tripping; on a tie the fuel line is reported, since
        // fuel is checked before a boundary is consulted. And when the
        // budget line lies inside this launch, exhausting the metered
        // allocation *is* the watchdog firing: report the budget.
        let report = report.map_err(|e| match (e, watchdog) {
            (SimError::FuelExhausted { fuel: f }, _) if f == cap && cap < fuel => {
                SimError::Cancelled { seq: cap + 1 }
            }
            (SimError::FuelExhausted { fuel: f }, Some(b)) if f == fuel => {
                SimError::FuelExhausted { fuel: b }
            }
            (e, _) => e,
        });
        // Record the boundaries this launch passed: one per retired
        // instruction, plus the one it stopped at when an instruction was
        // refused or trapped (fuel and bad-jump traps stop before it).
        if let Some(token) = &self.cancel {
            let retired = self.machine.counters.total() - start;
            let stopped_at = match &report {
                Ok(_) | Err(SimError::FuelExhausted { .. } | SimError::BadControlFlow { .. }) => 0,
                Err(_) => 1,
            };
            token.advance(retired + stopped_at);
        }
        let report = report?;
        Ok((report, self.machine.xreg(XReg::arg(0))))
    }

    /// [`Session::run`], but transactional: on a trap the machine state
    /// and heap position are rolled back to what they were at entry, so
    /// the failed launch leaves no trace — no dirty `vl`/`vtype`, no
    /// half-written output buffer, no leaked temporaries. The error is
    /// still returned; only the *state damage* is undone.
    ///
    /// This is the checkpoint-grade alternative to
    /// [`Session::reset`]-after-trap: reset wipes everything (all staged
    /// vectors included), while `run_atomic` surgically reverts just the
    /// failed launch, so a caller holding live device vectors can handle
    /// the error and continue. Costs one machine snapshot (`O(dirty
    /// pages)`) per launch; hot loops that never expect traps should keep
    /// using [`Session::run`].
    ///
    /// Retired-instruction counters are part of the rollback: a rolled
    /// back launch retires nothing, keeping [`Session::retired`]
    /// deterministic across trap-and-retry schedules.
    pub fn run_atomic(
        &mut self,
        plan: &CompiledPlan,
        args: &[u64],
    ) -> ScanResult<(RunReport, u64)> {
        let before = self.machine.snapshot();
        let heap = self.heap;
        match self.run(plan, args) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.machine.restore(&before);
                self.heap = heap;
                Err(e)
            }
        }
    }

    /// [`Session::run`] for an ad-hoc [`Program`]: compiles a throwaway
    /// plan and launches it. Tests and one-shot glue use this; hot paths
    /// should go through the [`Session::kernel`] cache.
    pub fn run_program(&mut self, program: &Program, args: &[u64]) -> ScanResult<(RunReport, u64)> {
        let plan = CompiledPlan::compile(program.clone());
        self.run(&plan, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut env = ScanEnv::new(EnvConfig {
            vlen: 128,
            lmul: Lmul::M1,
            spill_profile: SpillProfile::llvm14(),
            mem_bytes: 1 << 22,
        });
        let v = env.from_u32(&[1, 2, 3, 4]).unwrap();
        assert_eq!(env.to_u32(&v), vec![1, 2, 3, 4]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.bytes(), 16);
        let w = env.from_u64(&[u64::MAX, 5]).unwrap();
        assert_eq!(env.to_elems(&w), vec![u64::MAX, 5]);
        // Distinct allocations don't overlap.
        assert!(w.addr() >= v.addr() + v.bytes());
    }

    #[test]
    fn alloc_is_zeroed_even_after_release() {
        let mut env = ScanEnv::new(EnvConfig {
            vlen: 128,
            lmul: Lmul::M1,
            spill_profile: SpillProfile::llvm14(),
            mem_bytes: 1 << 22,
        });
        let mark = env.heap_mark();
        let v = env.from_u32(&[7, 7, 7]).unwrap();
        let addr = v.addr();
        env.release_to(mark);
        let w = env.alloc(Sew::E32, 3).unwrap();
        assert_eq!(w.addr(), addr, "region reuse");
        assert_eq!(env.to_u32(&w), vec![0, 0, 0]);
    }

    #[test]
    fn guarded_alloc_catches_kernel_overrun() {
        use crate::primitives::p_add;
        let mut env = ScanEnv::paper_default();
        let (v, g1, g2) = env.alloc_guarded(Sew::E32, 10).unwrap();
        // In-bounds use is fine.
        p_add(&mut env, &v, 1).unwrap();
        // A kernel told the buffer is much longer than it is crosses the
        // alignment slack and hits the high guard. (The guard begins at the
        // next 64-byte boundary, so small overruns land in the slack — the
        // guard catches buffer-sized mistakes, not off-by-one elements.)
        let p = env
            .kernel("elem_vx_Add", Sew::E32, |_, _| unreachable!("cached"))
            .unwrap();
        let r = env.run(&p, &[40, v.addr(), 1]);
        assert!(
            matches!(
                r,
                Err(crate::ScanError::Sim(rvv_sim::SimError::GuardHit { .. }))
            ),
            "overrun must trap: {r:?}"
        );
        // Disarmed guards stop trapping.
        env.machine_mut().mem.remove_guard(g1);
        env.machine_mut().mem.remove_guard(g2);
        env.run(&p, &[40, v.addr(), 1]).unwrap();
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut env = ScanEnv::new(EnvConfig {
            vlen: 128,
            lmul: Lmul::M1,
            spill_profile: SpillProfile::llvm14(),
            mem_bytes: 1 << 21, // 2 MiB: 1 MiB stack + ~1 MiB heap
        });
        let r = env.alloc(Sew::E32, 1 << 20); // 4 MiB request
        assert!(matches!(r, Err(ScanError::OutOfDeviceMemory { .. })));
    }

    #[test]
    fn kernel_cache_reuses_programs() {
        let mut env = ScanEnv::paper_default();
        let mut builds = 0;
        for _ in 0..3 {
            let b = &mut builds;
            let _ = env
                .kernel("nop", Sew::E32, |_, _| {
                    *b += 1;
                    Ok(Program::new("nop", vec![rvv_isa::Instr::Ecall]))
                })
                .unwrap();
        }
        assert_eq!(builds, 1);
    }

    #[test]
    fn run_sets_args_and_returns_a0() {
        let mut env = ScanEnv::paper_default();
        // Kernel: a0 = a0 + a1; ecall.
        let p = Program::new(
            "sum",
            vec![
                rvv_isa::Instr::Op {
                    op: rvv_isa::AluOp::Add,
                    rd: XReg::arg(0),
                    rs1: XReg::arg(0),
                    rs2: XReg::arg(1),
                },
                rvv_isa::Instr::Ecall,
            ],
        );
        let (report, a0) = env.run_program(&p, &[40, 2]).unwrap();
        assert_eq!(a0, 42);
        assert_eq!(report.retired, 2);
    }

    #[test]
    fn engines_agree_and_share_the_kernel_cache() {
        use crate::primitives::p_add;
        let mut plan_env = ScanEnv::paper_default();
        plan_env.set_exec_engine(ExecEngine::Plan);
        let mut legacy_env = ScanEnv::paper_default();
        legacy_env.set_exec_engine(ExecEngine::Legacy);
        assert_eq!(ScanEnv::paper_default().exec_engine(), ExecEngine::Fused);
        assert_eq!(plan_env.exec_engine(), ExecEngine::Plan);
        assert_eq!(legacy_env.exec_engine(), ExecEngine::Legacy);
        let data: Vec<u32> = (0..137).map(|i| i * 3 + 1).collect();
        let a = plan_env.from_u32(&data).unwrap();
        let b = legacy_env.from_u32(&data).unwrap();
        p_add(&mut plan_env, &a, 9).unwrap();
        p_add(&mut legacy_env, &b, 9).unwrap();
        assert_eq!(plan_env.to_u32(&a), legacy_env.to_u32(&b));
        assert_eq!(plan_env.retired(), legacy_env.retired());
        // Switching engines reuses the cached plan (its source rides along).
        legacy_env.set_exec_engine(ExecEngine::Plan);
        p_add(&mut legacy_env, &b, 1).unwrap();
    }
}
