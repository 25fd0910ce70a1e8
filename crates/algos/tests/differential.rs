//! Engine differential tests: every algorithm in this crate, end-to-end,
//! on `ExecEngine::Plan` vs `ExecEngine::Legacy` vs `ExecEngine::Fused`.
//!
//! The three run loops are required to be architecturally
//! indistinguishable — same outputs, same dynamic instruction counts, same
//! traps, and (with a cost model listening) same modeled cycles. The plan
//! engine is the default everywhere and the fused tier is the fast path
//! for exactly these kernel shapes, so any divergence the unit tests miss
//! would silently corrupt the paper's tables; these tests pin the
//! equivalence at the full-algorithm level where every kernel, every
//! strip-mined loop shape, and every host-glue path gets exercised.

use rand::prelude::*;
use rvv_cost::{CostModel, CycleEstimator};
use rvv_isa::Sew;
use scanvec::{ExecEngine, ScanEnv};
use scanvec::{ScanError, ScanResult};
use scanvec_algos as algos;

/// Run the same measurement on a fresh environment per engine and require
/// identical results (outputs *or* errors), identical retired counts, and —
/// with a cost model listening on both retire streams — identical modeled
/// cycle totals. The cycle estimate is a pure function of the retire
/// stream, so any engine divergence in instruction *sequence* (not just
/// count) shows up here as a cycle mismatch.
/// Returns the (shared) result for further reference checks.
fn differential<T: PartialEq + std::fmt::Debug>(
    name: &str,
    run: impl Fn(&mut ScanEnv) -> ScanResult<T>,
) -> ScanResult<T> {
    assert_eq!(
        ScanEnv::paper_default().exec_engine(),
        ExecEngine::Fused,
        "Fused is the default"
    );
    let mut plan_env = ScanEnv::paper_default();
    plan_env.set_exec_engine(ExecEngine::Plan);
    let mut legacy_env = ScanEnv::paper_default();
    legacy_env.set_exec_engine(ExecEngine::Legacy);
    let mut fused_env = ScanEnv::paper_default();
    fused_env.set_exec_engine(ExecEngine::Fused);
    let attach = |env: &mut ScanEnv| {
        let est = CycleEstimator::new(CostModel::ara_like(), env.stack_region());
        env.attach_tracer(Box::new(est));
    };
    attach(&mut plan_env);
    attach(&mut legacy_env);
    attach(&mut fused_env);
    let a = run(&mut plan_env);
    let b = run(&mut legacy_env);
    let c = run(&mut fused_env);
    assert_eq!(a, b, "{name}: plan vs legacy disagree");
    assert_eq!(c, b, "{name}: fused vs legacy disagree");
    assert_eq!(
        plan_env.retired(),
        legacy_env.retired(),
        "{name}: engines retired different dynamic instruction counts"
    );
    assert_eq!(
        fused_env.retired(),
        legacy_env.retired(),
        "{name}: fused tier retired a different dynamic instruction count"
    );
    let cycles = |env: &mut ScanEnv| {
        CycleEstimator::from_sink(env.detach_tracer().expect("sink attached"))
            .expect("sink is a CycleEstimator")
            .counters()
    };
    let (ca, cb, cc) = (
        cycles(&mut plan_env),
        cycles(&mut legacy_env),
        cycles(&mut fused_env),
    );
    assert_eq!(ca, cb, "{name}: plan vs legacy disagree on modeled cycles");
    assert_eq!(cc, cb, "{name}: fused vs legacy disagree on modeled cycles");
    assert!(
        ca.total() >= plan_env.retired(),
        "{name}: ara-like cycles below dynamic instruction count"
    );
    a
}

fn random_u32s(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random()).collect()
}

#[test]
fn bitonic_sort_differential() {
    // 300 exercises the power-of-two padding path.
    let data = random_u32s(300, 1);
    let out = differential("bitonic_sort", |env| {
        let v = env.from_u32(&data)?;
        let retired = algos::bitonic_sort(env, &v)?;
        Ok((env.to_u32(&v), retired))
    })
    .unwrap();
    let mut expect = data.clone();
    expect.sort_unstable();
    assert_eq!(out.0, expect);
}

#[test]
fn quickhull_differential() {
    let mut rng = StdRng::seed_from_u64(2);
    let points: Vec<(u32, u32)> = (0..200)
        .map(|_| (rng.random_range(0..10_000), rng.random_range(0..10_000)))
        .collect();
    let out = differential("quickhull", |env| algos::quickhull(env, &points)).unwrap();
    assert_eq!(out.0, algos::convex_hull_reference(&points));
}

#[test]
fn spmv_differential() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = algos::random_csr(&mut rng, 40, 64, 6);
    let x: Vec<u32> = (0..64).map(|_| rng.random_range(0..1000)).collect();
    let out = differential("spmv", |env| algos::spmv(env, &a, &x)).unwrap();
    assert_eq!(out.0, a.spmv_reference(&x));
}

#[test]
fn rle_differential() {
    // Runs of random length: a workload with both long runs and singletons.
    let mut rng = StdRng::seed_from_u64(4);
    let mut data = Vec::new();
    while data.len() < 500 {
        let v: u32 = rng.random_range(0..8);
        for _ in 0..rng.random_range(1..20u32) {
            data.push(v);
        }
    }
    let out = differential("rle", |env| {
        let v = env.from_u32(&data)?;
        let (rle, enc) = algos::rle_encode(env, &v)?;
        let d = env.alloc(Sew::E32, rle.decoded_len())?;
        let dec = algos::rle_decode(env, &rle, &d)?;
        Ok((rle, env.to_u32(&d), enc, dec))
    })
    .unwrap();
    assert_eq!(out.0, algos::Rle::encode_reference(&data));
    assert_eq!(out.1, data);
}

#[test]
fn histogram_differential() {
    let mut rng = StdRng::seed_from_u64(5);
    let data: Vec<u32> = (0..700).map(|_| rng.random_range(0..64)).collect();
    let out = differential("histogram", |env| algos::histogram(env, &data, 64)).unwrap();
    let mut expect = vec![0u32; 64];
    for &d in &data {
        expect[d as usize] += 1;
    }
    assert_eq!(out.0, expect);
}

#[test]
fn line_of_sight_differential() {
    let mut rng = StdRng::seed_from_u64(6);
    let alt: Vec<u32> = (0..400).map(|_| rng.random_range(900..1100)).collect();
    let out = differential("line_of_sight", |env| algos::line_of_sight(env, &alt, 1000)).unwrap();
    assert_eq!(out.0, algos::line_of_sight_reference(&alt, 1000));
}

#[test]
fn seg_quicksort_differential() {
    let data = random_u32s(257, 7);
    let out = differential("seg_quicksort", |env| {
        let v = env.from_u32(&data)?;
        let retired = algos::seg_quicksort(env, &v)?;
        Ok((env.to_u32(&v), retired))
    })
    .unwrap();
    let mut expect = data.clone();
    expect.sort_unstable();
    assert_eq!(out.0, expect);
}

#[test]
fn radix_sort_differential() {
    let data = random_u32s(301, 8);
    let out = differential("split_radix_sort", |env| {
        let v = env.from_u32(&data)?;
        let retired = algos::split_radix_sort(env, &v, 32)?;
        Ok((env.to_u32(&v), retired))
    })
    .unwrap();
    let mut expect = data.clone();
    expect.sort_unstable();
    assert_eq!(out.0, expect);
}

#[test]
fn trap_behaviour_differential() {
    // Both engines must trap identically — same error, same retired count
    // up to the trap. A kernel told its buffer is longer than it is runs
    // into an armed guard region.
    let trap = differential("guard trap", |env| {
        let (v, _, _) = env.alloc_guarded(Sew::E32, 10)?;
        let p = env.kernel("difftest_elem_vx_add", Sew::E32, |cfg, sew| {
            scanvec::kernels::build_elem_vx(cfg, sew, rvv_isa::VAluOp::Add)
        })?;
        // Lie about the length: 4096 elements crosses the guard.
        Ok(env.run(&p, &[4096, v.addr(), 1]).map(|_| ()).err())
    })
    .unwrap();
    assert!(
        matches!(
            trap,
            Some(ScanError::Sim(rvv_sim::SimError::GuardHit { .. }))
        ),
        "expected a guard trap on both engines: {trap:?}"
    );
}
