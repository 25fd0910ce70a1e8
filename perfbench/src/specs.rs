//! Seeded tenant inputs for the serve workloads: pure functions of
//! `(seed, tenant, sweep index)`, so a run can be repeated exactly and its
//! reference results computed before the timed region.

use rvv_fault::XorShift64;
use rvv_isa::Lmul;
use rvv_serve::{JobSpec, Workload};

const WORKLOADS: [Workload; 4] = [
    Workload::PAdd,
    Workload::PlusScan,
    Workload::SegScan,
    Workload::RadixSort,
];
const VLENS: [u32; 4] = [128, 256, 512, 1024];
/// VLEN × LMUL pairs with VLEN × LMUL = 1024.
const DIAGONAL: [(u32, Lmul); 4] = [
    (128, Lmul::M8),
    (256, Lmul::M4),
    (512, Lmul::M2),
    (1024, Lmul::M1),
];

/// The kind of sweep a tenant submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 64 tiny specs (n = 16..=256), one per workload × VLEN × LMUL.
    Small,
    /// 4 specs, two seg_scans and two radix sorts, n log-uniform in
    /// 10⁴..=10⁵, each on a different VLEN × LMUL = 1024 configuration.
    Large,
}

/// One tenant's sweep number `index`.
pub fn sweep(mix: Mix, seed: u64, tenant: u64, index: u64) -> Vec<JobSpec> {
    let mut rng = XorShift64::from_pair(seed, (tenant << 32) ^ index);
    match mix {
        Mix::Small => grid()
            .map(|(workload, vlen, lmul)| JobSpec {
                workload,
                n: 16 + rng.below(241) as usize,
                vlen,
                lmul,
                seed: rng.next_u64(),
            })
            .collect(),
        Mix::Large => {
            // Every sweep costs about the same, so a run's figures do not
            // hinge on which heavy specs its seed happened to draw: two
            // seg_scans and two radix sorts, each pair with one n from
            // the lower and one from the upper half-decade, on the four
            // configurations whose vector length is 32 elements (VLEN ×
            // LMUL = 1024; host cost per element varies ~64× across the
            // full grid), assigned at random.
            let mut configs = DIAGONAL;
            shuffle(&mut rng, &mut configs);
            let mut halves = [0u64, 1];
            shuffle(&mut rng, &mut halves);
            (0..4)
                .map(|i| {
                    let half = halves[i / 2] ^ (i as u64 % 2);
                    let u = (half as f64 + rng.below(1000) as f64 / 1000.0) / 2.0;
                    JobSpec {
                        workload: [Workload::SegScan, Workload::RadixSort][i / 2],
                        n: 10f64.powf(4.0 + u).round() as usize,
                        vlen: configs[i].0,
                        lmul: configs[i].1,
                        seed: rng.next_u64(),
                    }
                })
                .collect()
        }
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut XorShift64, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The warm-up sweep: every workload at every VLEN × LMUL the workloads
/// use, small inputs, so set-up compiles every plan a timed sweep needs.
pub fn warmup(seed: u64) -> Vec<JobSpec> {
    let mut rng = XorShift64::from_pair(seed, u64::MAX);
    grid()
        .map(|(workload, vlen, lmul)| JobSpec {
            workload,
            n: 64,
            vlen,
            lmul,
            seed: rng.next_u64(),
        })
        .collect()
}

fn grid() -> impl Iterator<Item = (Workload, u32, Lmul)> {
    WORKLOADS.into_iter().flat_map(|w| {
        VLENS
            .into_iter()
            .flat_map(move |v| Lmul::ALL.into_iter().map(move |l| (w, v, l)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(specs: &[JobSpec]) -> Vec<String> {
        specs.iter().map(JobSpec::to_string).collect()
    }

    #[test]
    fn same_seed_same_specs() {
        for mix in [Mix::Small, Mix::Large] {
            for (t, i) in [(0, 0), (1, 0), (0, 7)] {
                assert_eq!(text(&sweep(mix, 42, t, i)), text(&sweep(mix, 42, t, i)));
            }
        }
        assert_eq!(text(&warmup(9)), text(&warmup(9)));
    }

    #[test]
    fn different_seeds_tenants_and_sweeps_differ() {
        for mix in [Mix::Small, Mix::Large] {
            let base = text(&sweep(mix, 1, 0, 0));
            assert_ne!(base, text(&sweep(mix, 2, 0, 0)), "{mix:?} seed");
            assert_ne!(base, text(&sweep(mix, 1, 1, 0)), "{mix:?} tenant");
            assert_ne!(base, text(&sweep(mix, 1, 0, 1)), "{mix:?} index");
        }
        assert_ne!(text(&warmup(1)), text(&warmup(2)));
    }

    #[test]
    fn specs_stay_in_their_ranges_and_round_trip() {
        for i in 0..50 {
            let small = sweep(Mix::Small, 3, 0, i);
            assert_eq!(small.len(), 64);
            assert!(small.iter().all(|s| (16..=256).contains(&s.n)));
            let large = sweep(Mix::Large, 3, 1, i);
            assert_eq!(large.len(), 4);
            assert!(large.iter().all(|s| (10_000..=100_000).contains(&s.n)));
            assert!(large.iter().all(|s| s.vlen * s.lmul.regs() == 1024));
            let small_n = large.iter().filter(|s| s.n < 31_623).count();
            assert_eq!(small_n, 2, "one lower-half n per workload pair");
            for s in small.iter().chain(&large) {
                assert_eq!(s.to_string().parse::<JobSpec>().unwrap(), *s);
            }
        }
        let w = warmup(5);
        assert_eq!(w.len(), 64);
        let mut cfgs: Vec<_> = w.iter().map(|s| (s.vlen, s.lmul.regs())).collect();
        cfgs.sort_unstable();
        cfgs.dedup();
        assert_eq!(cfgs.len(), 16, "warm-up covers every VLEN × LMUL");
    }
}
