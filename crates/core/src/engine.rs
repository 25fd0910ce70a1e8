//! The long-lived execution context: shared compilation artifacts and
//! policy defaults, split off from per-run state.
//!
//! [`Engine`] is the process-wide half of the engine/session split
//! (compare wasmtime's `Engine`/`Store`): it owns the [`PlanCache`] every
//! session compiles into, the default [`ExecEngine`] run-loop tier, an
//! optional [`CostModel`] applied to every run, and the default fuel
//! budget (the deterministic watchdog policy). It is immutable after
//! [`EngineBuilder::build`], `Send + Sync`, and cheap to clone — clones
//! share the same plan registry — so one `Arc<Engine>` can back a whole
//! worker pool, a chaos harness, and a bench binary at once.
//!
//! [`Session`]s are created from an engine with [`Engine::session`] and
//! own only per-run state: the simulated machine, the heap cursor, any
//! attached tracer or fault hook, the armed fuel budget, and the poison
//! flag. Sessions sharing an engine never recompile a kernel another one
//! already built for the same `(name, VLEN, SEW, LMUL, spill profile)`.

use crate::error::{ScanError, ScanResult};
use crate::plan_cache::PlanCache;
use crate::session::{EnvConfig, ExecEngine, Session, HEAP_BASE, STACK_BYTES};
use rvv_cost::CostModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The immutable, shareable execution context (see the module docs).
///
/// Build one with [`Engine::builder`] (or [`Engine::new`] for the
/// defaults: a fresh plan registry, the [`ExecEngine::Fused`] tier, no
/// cost model, no fuel budget), wrap it in an [`Arc`], and create
/// [`Session`]s from it on any thread. Cloning an engine is cheap and
/// preserves sharing: the clone compiles into the same [`PlanCache`].
#[derive(Debug, Clone)]
pub struct Engine {
    plans: Arc<PlanCache>,
    default_exec: ExecEngine,
    cost: Option<CostModel>,
    default_fuel_budget: Option<u64>,
    health: Arc<EngineHealth>,
}

/// Engine-lifetime health counters, shared by every clone of an
/// [`Engine`] and bumped by the sessions created from it. Monitoring
/// surfaces (the serve layer's `/stats`, ops dashboards) read these;
/// nothing in the execution path ever branches on them, so they cannot
/// perturb results.
#[derive(Debug, Default)]
pub struct EngineHealth {
    sessions_created: AtomicU64,
    sessions_poisoned: AtomicU64,
}

impl EngineHealth {
    /// Sessions ever created from this engine (or any clone of it).
    pub fn sessions_created(&self) -> u64 {
        self.sessions_created.load(Ordering::Relaxed)
    }

    /// Sessions ever [`Session::poison`]ed — each poisoning means a job
    /// body panicked inside it and the session was discarded.
    pub fn sessions_poisoned(&self) -> u64 {
        self.sessions_poisoned.load(Ordering::Relaxed)
    }

    pub(crate) fn note_session_created(&self) {
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_session_poisoned(&self) {
        self.sessions_poisoned.fetch_add(1, Ordering::Relaxed);
    }
}

impl Engine {
    /// An engine with the default policy: fresh plan registry,
    /// [`ExecEngine::Fused`] run loop, no cost model, no fuel budget.
    pub fn new() -> Engine {
        Engine::builder().build()
    }

    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            plans: None,
            default_exec: ExecEngine::default(),
            cost: None,
            default_fuel_budget: None,
        }
    }

    /// The plan registry every session of this engine compiles into.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// The run-loop tier new (and [`Session::reset`]) sessions select.
    pub fn default_exec_engine(&self) -> ExecEngine {
        self.default_exec
    }

    /// The cost model applied to every run under this engine, if any.
    /// Consumers that attach their own estimator sinks (e.g. a per-job
    /// `costed` builder in the batch layer) take precedence over this
    /// default.
    pub fn cost_model(&self) -> Option<&CostModel> {
        self.cost.as_ref()
    }

    /// The deterministic watchdog budget armed on every new (and reset)
    /// session, if any (see [`Session::set_fuel_budget`]).
    pub fn default_fuel_budget(&self) -> Option<u64> {
        self.default_fuel_budget
    }

    /// Validate a configuration against the limits sessions are built
    /// under: VLEN must be a power of two in `64..=65536` (the simulated
    /// machine's architectural range) and `mem_bytes` must leave heap room
    /// beyond the reserved device stack. Surfaced as
    /// [`ScanError::Config`] instead of the machine's assertion so service
    /// layers can reject bad tenant configurations gracefully.
    pub fn validate(&self, cfg: &EnvConfig) -> ScanResult<()> {
        if !cfg.vlen.is_power_of_two() || !(64..=65536).contains(&cfg.vlen) {
            return Err(ScanError::Config(format!(
                "vlen must be a power of two in 64..=65536, got {}",
                cfg.vlen
            )));
        }
        let floor = STACK_BYTES + HEAP_BASE;
        if cfg.mem_bytes as u64 <= floor {
            return Err(ScanError::Config(format!(
                "mem_bytes must exceed the reserved stack + heap base ({floor} bytes), got {}",
                cfg.mem_bytes
            )));
        }
        Ok(())
    }

    /// Create a [`Session`] of this engine: a fresh simulated machine and
    /// heap under `cfg`, compiling into the shared plan registry, with the
    /// engine's default run-loop tier selected and default fuel budget
    /// (if any) armed. Fails with [`ScanError::Config`] when `cfg` is
    /// invalid ([`Engine::validate`]).
    pub fn session(&self, cfg: EnvConfig) -> ScanResult<Session> {
        self.validate(&cfg)?;
        self.health.note_session_created();
        Ok(Session::from_engine(self.clone(), cfg))
    }

    /// The health counters shared by every clone of this engine (see
    /// [`EngineHealth`]).
    pub fn health(&self) -> &Arc<EngineHealth> {
        &self.health
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

/// Builder for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug)]
pub struct EngineBuilder {
    plans: Option<Arc<PlanCache>>,
    default_exec: ExecEngine,
    cost: Option<CostModel>,
    default_fuel_budget: Option<u64>,
}

impl EngineBuilder {
    /// Compile into an existing registry instead of a fresh one — share
    /// one across engines and a configuration is compiled once
    /// process-wide.
    pub fn plan_cache(mut self, plans: Arc<PlanCache>) -> EngineBuilder {
        self.plans = Some(plans);
        self
    }

    /// The run-loop tier sessions start on (default: [`ExecEngine::Fused`]).
    pub fn default_exec_engine(mut self, exec: ExecEngine) -> EngineBuilder {
        self.default_exec = exec;
        self
    }

    /// Estimate cycles for every run under `model`. The estimate rides the
    /// retire-event stream, so it is deterministic at any thread count and
    /// identical across run-loop tiers.
    pub fn cost_model(mut self, model: CostModel) -> EngineBuilder {
        self.cost = Some(model);
        self
    }

    /// Arm the deterministic instruction-budget watchdog on every session
    /// (see [`Session::set_fuel_budget`]). Per-job watchdogs still take
    /// precedence in the batch layer.
    pub fn default_fuel_budget(mut self, fuel: u64) -> EngineBuilder {
        self.default_fuel_budget = Some(fuel);
        self
    }

    /// Finish: the engine is immutable from here on.
    pub fn build(self) -> Engine {
        Engine {
            plans: self.plans.unwrap_or_else(PlanCache::shared),
            default_exec: self.default_exec,
            cost: self.cost,
            default_fuel_budget: self.default_fuel_budget,
            health: Arc::new(EngineHealth::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::p_add;

    #[test]
    fn engine_is_send_sync_and_clone_shares_the_registry() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        let engine = Engine::new();
        let clone = engine.clone();
        assert!(Arc::ptr_eq(engine.plan_cache(), clone.plan_cache()));
    }

    #[test]
    fn sessions_share_one_compile_per_config() {
        let engine = Arc::new(Engine::new());
        let cfg = EnvConfig::paper_default();
        let data: Vec<u32> = (0..100).collect();
        for _ in 0..3 {
            let mut s = engine.session(cfg).unwrap();
            let v = s.from_u32(&data).unwrap();
            p_add(&mut s, &v, 1).unwrap();
        }
        assert_eq!(
            engine.plan_cache().compiles(),
            engine.plan_cache().len() as u64,
            "every cached kernel compiled exactly once across sessions"
        );
    }

    #[test]
    fn invalid_configs_are_rejected_not_asserted() {
        let engine = Engine::new();
        for vlen in [0, 63, 100, 1 << 17] {
            let r = engine.session(EnvConfig::with_vlen(vlen));
            assert!(matches!(r, Err(ScanError::Config(_))), "vlen {vlen}: {r:?}");
        }
        let r = engine.session(EnvConfig {
            mem_bytes: 4096,
            ..EnvConfig::paper_default()
        });
        assert!(matches!(r, Err(ScanError::Config(_))), "{r:?}");
    }

    #[test]
    fn engine_defaults_flow_into_sessions() {
        let engine = Engine::builder()
            .default_exec_engine(ExecEngine::Legacy)
            .default_fuel_budget(1234)
            .build();
        let mut s = engine.session(EnvConfig::paper_default()).unwrap();
        assert_eq!(s.exec_engine(), ExecEngine::Legacy);
        assert_eq!(s.fuel_budget(), Some(1234));
        // A run-time override is undone by reset, which restores the
        // engine's defaults — not the global ones.
        s.set_exec_engine(ExecEngine::Plan);
        s.set_fuel_budget(None);
        s.reset();
        assert_eq!(s.exec_engine(), ExecEngine::Legacy);
        assert_eq!(s.fuel_budget(), Some(1234));
    }
}
