//! The shared kernel-plan registry.
//!
//! [`PlanCache`] maps `(kernel name, KernelConfig, SpillProfile)` to a
//! pre-compiled [`CompiledPlan`] behind an `Arc`, so a kernel is generated
//! and lowered **exactly once per configuration** no matter how many
//! environments — or how many worker threads — launch it. `CompiledPlan`
//! is `Send + Sync` (its specialization caches are `OnceLock` slots), so
//! sharing the compiled form read-only across a thread pool is sound; all
//! mutable execution state lives in each worker's own `Machine`.
//!
//! The registry holds its map behind a [`Mutex`] and compiles *inside* the
//! lock: concurrent requests for the same key serialize, the first one
//! compiles, the rest get the same `Arc`. Kernel generation is one pass
//! over a few hundred instructions, so the critical section is short; the
//! launch hot path touches the lock only for a clone-out lookup.
//!
//! The compile counter exists for tests and observability: the batch
//! engine's one-compile-per-config invariant is asserted against it.

use crate::error::ScanResult;
use rvv_asm::SpillProfile;
use rvv_isa::KernelConfig;
use rvv_sim::{CompiledPlan, Program};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

type PlanKey = (String, KernelConfig, SpillProfile);

/// A thread-safe registry of compiled kernel plans, keyed
/// `(name, KernelConfig, SpillProfile)`.
///
/// Create one per process (or per sweep) and share it through the engines
/// that hand out sessions ([`crate::EngineBuilder::plan_cache`]); sessions
/// built with [`crate::Session::new`] get a private registry and behave
/// exactly as before.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<CompiledPlan>>>,
    compiles: AtomicU64,
}

impl PlanCache {
    /// An empty registry.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// An empty registry already wrapped for sharing.
    pub fn shared() -> Arc<PlanCache> {
        Arc::new(PlanCache::new())
    }

    /// Fetch the plan for `(name, config, profile)`, building and compiling
    /// it on first request. The build closure runs at most once per key
    /// across all threads — concurrent first requests serialize on the
    /// registry lock and every caller receives the same `Arc`.
    pub fn get_or_compile(
        &self,
        name: &str,
        config: KernelConfig,
        profile: SpillProfile,
        build: impl FnOnce() -> ScanResult<Program>,
    ) -> ScanResult<Arc<CompiledPlan>> {
        let mut plans = self.plans.lock().expect("plan cache poisoned");
        if let Some(p) = plans.get(&(name.to_string(), config, profile)) {
            return Ok(Arc::clone(p));
        }
        let plan = Arc::new(CompiledPlan::compile(build()?));
        self.compiles.fetch_add(1, Ordering::Relaxed);
        plans.insert((name.to_string(), config, profile), Arc::clone(&plan));
        Ok(plan)
    }

    /// How many plans have been compiled into this registry (monotonic;
    /// unaffected by [`PlanCache::clear`]). With correct sharing this equals
    /// the number of distinct `(name, config, profile)` keys ever requested.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// The cached plan keys, formatted
    /// `name@vlen<V>/<SEW>/<LMUL>/<profile>` and sorted — a deterministic,
    /// human-readable inventory of what has been compiled. Environment
    /// snapshots embed this list so a resumed run can see (and log) which
    /// kernels the interrupted process had built; plans themselves are
    /// never serialized — they are pure functions of the kernel source and
    /// recompile on demand.
    pub fn keys(&self) -> Vec<String> {
        let plans = self.plans.lock().expect("plan cache poisoned");
        let mut keys: Vec<String> = plans
            .keys()
            .map(|(name, cfg, profile)| {
                format!(
                    "{name}@vlen{}/{:?}/{:?}/{}",
                    cfg.vlen,
                    cfg.sew,
                    cfg.lmul,
                    if profile.conservative_frame {
                        "llvm14"
                    } else {
                        "ideal"
                    }
                )
            })
            .collect();
        keys.sort();
        keys
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (outstanding `Arc`s stay valid). The compile
    /// counter is *not* reset, so post-clear recompiles remain visible.
    pub fn clear(&self) {
        self.plans.lock().expect("plan cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvv_isa::{Instr, Lmul, Sew};

    fn key(vlen: u32) -> KernelConfig {
        KernelConfig {
            vlen,
            sew: Sew::E32,
            lmul: Lmul::M1,
        }
    }

    fn nop_program() -> ScanResult<Program> {
        Ok(Program::new("nop", vec![Instr::Ecall]))
    }

    #[test]
    fn compiles_once_per_key() {
        let cache = PlanCache::new();
        let a = cache
            .get_or_compile("nop", key(1024), SpillProfile::llvm14(), nop_program)
            .unwrap();
        let b = cache
            .get_or_compile("nop", key(1024), SpillProfile::llvm14(), || {
                panic!("must not rebuild a cached key")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.compiles(), 1);
        // Any key component change is a distinct plan.
        cache
            .get_or_compile("nop", key(512), SpillProfile::llvm14(), nop_program)
            .unwrap();
        cache
            .get_or_compile("nop", key(1024), SpillProfile::ideal(), nop_program)
            .unwrap();
        cache
            .get_or_compile("nop2", key(1024), SpillProfile::llvm14(), nop_program)
            .unwrap();
        assert_eq!(cache.compiles(), 4);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = PlanCache::new();
        let r = cache.get_or_compile("bad", key(1024), SpillProfile::llvm14(), || {
            Err(crate::ScanError::LengthMismatch {
                what: "test",
                a: 1,
                b: 2,
            })
        });
        assert!(r.is_err());
        assert_eq!(cache.compiles(), 0);
        // The key stays available for a later successful build.
        cache
            .get_or_compile("bad", key(1024), SpillProfile::llvm14(), nop_program)
            .unwrap();
        assert_eq!(cache.compiles(), 1);
    }

    #[test]
    fn concurrent_requests_compile_once() {
        let cache = PlanCache::shared();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for _ in 0..100 {
                        cache
                            .get_or_compile("nop", key(1024), SpillProfile::llvm14(), nop_program)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.compiles(), 1);
    }
}
