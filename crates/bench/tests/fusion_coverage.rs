//! Fusion-coverage golden: for each primitive and algorithm, the exact
//! number of superinstruction windows the fused tier commits, the exact
//! number of instructions retired through fused kernels, and the number of
//! window attempts whose kernel declined (fell back to per-op execution),
//! pinned against a checked-in fixture.
//!
//! Coverage is a *static-plus-dynamic* property of the generated code: a
//! codegen change that breaks a window shape (say, reordering the scan
//! ladder) silently drops the fused tier back to per-op speed while every
//! architectural test keeps passing. This fixture turns that regression
//! into a diff. Totals retired are pinned alongside so the fused fraction
//! is reviewable in place.
//!
//! To regenerate after an intentional codegen or matcher change:
//! `GOLDEN_REGEN=1 cargo test -p scanvec-bench --test fusion_coverage` —
//! then review the fixture diff like any other code change.

use rand::prelude::*;
use rvv_isa::Sew;
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::{ExecEngine, ScanEnv, ScanResult};
use scanvec_algos as algos;
use scanvec_bench::{paper_env, random_head_flags};
use std::fmt::Write;

const N: usize = 1_000;

fn fused_env() -> ScanEnv {
    let mut env = paper_env();
    env.set_exec_engine(ExecEngine::Fused);
    env
}

/// Run one workload on a fresh fused-tier environment and format its
/// coverage line: windows committed, ops retired through fused kernels,
/// declined window attempts, and total retired.
fn coverage(name: &str, run: impl FnOnce(&mut ScanEnv) -> ScanResult<()>) -> String {
    let mut env = fused_env();
    run(&mut env).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let stats = env.fused_stats();
    format!(
        "{name}: windows = {}, fused_ops = {}, declined = {}, retired = {}\n",
        stats.windows,
        stats.ops,
        stats.declined,
        env.retired()
    )
}

fn measured() -> String {
    let mut s = String::new();
    writeln!(
        s,
        "# Fused-tier coverage at VLEN=1024, LMUL=1 (llvm14 spill profile), N = {N}."
    )
    .unwrap();
    writeln!(
        s,
        "# Regenerate with: GOLDEN_REGEN=1 cargo test -p scanvec-bench --test fusion_coverage"
    )
    .unwrap();
    let data: Vec<u32> = (0..N as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let flags = random_head_flags(N, 42);

    s += &coverage("plus_scan", |env| {
        let v = env.from_u32(&data)?;
        plus_scan(env, &v).map(|_| ())
    });
    s += &coverage("seg_plus_scan", |env| {
        let v = env.from_u32(&data)?;
        let f = env.from_u32(&flags)?;
        seg_plus_scan(env, &v, &f).map(|_| ())
    });
    s += &coverage("bitonic_sort", |env| {
        let v = env.from_u32(&data[..300])?;
        algos::bitonic_sort(env, &v).map(|_| ())
    });
    s += &coverage("quickhull", |env| {
        let mut rng = StdRng::seed_from_u64(2);
        let points: Vec<(u32, u32)> = (0..200)
            .map(|_| (rng.random_range(0..10_000), rng.random_range(0..10_000)))
            .collect();
        algos::quickhull(env, &points).map(|_| ())
    });
    s += &coverage("spmv", |env| {
        let mut rng = StdRng::seed_from_u64(3);
        let a = algos::random_csr(&mut rng, 40, 64, 6);
        let x: Vec<u32> = (0..64).map(|_| rng.random_range(0..1000)).collect();
        algos::spmv(env, &a, &x).map(|_| ())
    });
    s += &coverage("rle", |env| {
        let v = env.from_u32(&data)?;
        let (rle, _) = algos::rle_encode(env, &v)?;
        let d = env.alloc(Sew::E32, rle.decoded_len())?;
        algos::rle_decode(env, &rle, &d).map(|_| ())
    });
    s += &coverage("histogram", |env| {
        let small: Vec<u32> = data.iter().map(|d| d % 64).collect();
        algos::histogram(env, &small, 64).map(|_| ())
    });
    s += &coverage("line_of_sight", |env| {
        let alt: Vec<u32> = data.iter().map(|d| 900 + d % 200).collect();
        algos::line_of_sight(env, &alt, 1000).map(|_| ())
    });
    s += &coverage("seg_quicksort", |env| {
        let v = env.from_u32(&data[..257])?;
        algos::seg_quicksort(env, &v).map(|_| ())
    });
    s += &coverage("split_radix_sort", |env| {
        let v = env.from_u32(&data[..301])?;
        algos::split_radix_sort(env, &v, 32).map(|_| ())
    });
    s
}

#[test]
fn golden_fusion_coverage() {
    let got = measured();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fusion_coverage.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(path, &got).expect("write fixture");
        eprintln!("fixture regenerated at {path}");
        return;
    }
    let want =
        std::fs::read_to_string(path).expect("fixture missing — regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        got, want,
        "fusion coverage drifted from the checked-in fixture; if the \
         codegen or matcher change is intentional, regenerate with \
         GOLDEN_REGEN=1 and review the diff"
    );
}

#[test]
fn scan_kernels_actually_fuse() {
    // Fixture-independent floor: the workloads the paper's tables hinge on
    // must run a meaningful share of their instructions through fused
    // kernels — losing the scan-ladder or strip-loop shapes is a
    // performance bug even when every count above is regenerated.
    for name in ["plus_scan", "seg_plus_scan"] {
        let mut env = fused_env();
        let data: Vec<u32> = (0..N as u32).collect();
        let v = env.from_u32(&data).unwrap();
        if name == "plus_scan" {
            plus_scan(&mut env, &v).unwrap();
        } else {
            let flags = env.from_u32(&random_head_flags(N, 42)).unwrap();
            seg_plus_scan(&mut env, &v, &flags).unwrap();
        }
        let stats = env.fused_stats();
        assert!(stats.windows > 0, "{name}: no fused windows committed");
        assert!(
            stats.ops * 5 >= env.retired(),
            "{name}: fused coverage below 20% ({} of {})",
            stats.ops,
            env.retired()
        );
    }
}
