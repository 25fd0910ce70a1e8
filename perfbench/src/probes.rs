//! Layer probes that do not depend on the workload: execution tiers,
//! plan cache, data staging, costing, and journal appends, each timed
//! around the layer's public call on fixed inputs.

use crate::stats::median;
use crate::trace::Tracer;
use rvv_batch::{execute_job, BackoffPolicy, CostModel, SessionPool};
use rvv_ckpt::fs_backend;
use rvv_ckpt::queue::QueueJournal;
use rvv_isa::Sew;
use rvv_serve::{JobSpec, Workload};
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::{CancelToken, Engine, EnvConfig, ExecEngine, ScanOp, ScanResult, Session};
use scanvec_algos::radix_sort::split_radix_sort;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements per probe kernel run.
pub const PROBE_N: usize = 100_000;

/// Time budget per probe; each runs at least [`MIN_REPS`] times.
const PROBE_BUDGET: Duration = Duration::from_millis(150);
const MIN_REPS: usize = 3;

/// The kernels the tier probes run, by metric suffix.
pub const KERNELS: [&str; 3] = ["scan", "seg_scan", "radix"];

/// One kernel on one tier.
#[derive(Debug, Clone, Copy)]
pub struct KernelTiming {
    /// Median host nanoseconds per retired instruction.
    pub ns_per_instr: f64,
    /// Share of retired instructions that ran inside fused windows.
    pub op_share: f64,
}

/// Run `f` until the budget is spent (at least [`MIN_REPS`] times), or
/// until it fails.
fn reps<E>(mut f: impl FnMut() -> Result<(), E>) -> Result<(), E> {
    let until = Instant::now() + PROBE_BUDGET;
    let mut n = 0;
    while n < MIN_REPS || Instant::now() < until {
        f()?;
        n += 1;
    }
    Ok(())
}

fn data(n: usize, limit: u32, salt: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2_654_435_761).wrapping_add(salt) % limit)
        .collect()
}

/// Stage fresh inputs into `s`, run `kernel` on them, and check its
/// output against the host. Returns the retired count and the time of
/// the kernel call alone.
fn run_kernel(s: &mut Session, kernel: &str) -> ScanResult<(u64, Duration)> {
    let timed = |s: &mut Session, f: &dyn Fn(&mut Session) -> ScanResult<u64>| {
        let start = Instant::now();
        let retired = f(s)?;
        Ok::<_, scanvec::ScanError>((retired, start.elapsed()))
    };
    match kernel {
        "scan" => {
            let input = data(PROBE_N, 1 << 20, 1);
            let v = s.from_u32(&input)?;
            let out = timed(s, &|s| plus_scan(s, &v))?;
            let mut acc = 0u32;
            let want: Vec<u32> = input
                .iter()
                .map(|&x| {
                    acc = acc.wrapping_add(x);
                    acc
                })
                .collect();
            assert_eq!(s.to_u32(&v), want, "plus_scan probe result");
            Ok(out)
        }
        "seg_scan" => {
            let input = data(PROBE_N, 1 << 20, 2);
            let flags: Vec<u32> = (0..PROBE_N).map(|i| u32::from(i % 8 == 0)).collect();
            let v = s.from_u32(&input)?;
            let f = s.from_u32(&flags)?;
            let out = timed(s, &|s| seg_plus_scan(s, &v, &f))?;
            let mut acc = 0u32;
            let want: Vec<u32> = input
                .iter()
                .zip(&flags)
                .map(|(&x, &head)| {
                    acc = if head == 1 { x } else { acc.wrapping_add(x) };
                    acc
                })
                .collect();
            assert_eq!(s.to_u32(&v), want, "seg_plus_scan probe result");
            Ok(out)
        }
        "radix" => {
            let input = data(PROBE_N, 256, 3);
            let v = s.from_u32(&input)?;
            let out = timed(s, &|s| split_radix_sort(s, &v, 8))?;
            let mut want = input;
            want.sort_unstable();
            assert_eq!(s.to_u32(&v), want, "radix sort probe result");
            Ok(out)
        }
        other => unreachable!("unknown probe kernel {other}"),
    }
}

/// Time every probe kernel on `tier`, optionally with an untripped
/// [`CancelToken`] attached. Also returns the retired count per kernel.
pub fn tier(
    tier: ExecEngine,
    cancel: bool,
    tracer: &Tracer,
) -> ScanResult<Vec<(KernelTiming, u64)>> {
    let engine = Engine::builder().default_exec_engine(tier).build();
    let mut s = engine.session(EnvConfig::paper_default())?;
    let span = match (tier, cancel) {
        (_, true) => "sim.cancel.kernel",
        (ExecEngine::Fused, _) => "sim.fused.kernel",
        _ => "sim.plan.kernel",
    };
    let mut out = Vec::new();
    for kernel in KERNELS {
        let mut ns = Vec::new();
        let mut share = 0.0;
        let mut retired = 0;
        reps(|| -> ScanResult<()> {
            s.reset();
            if cancel {
                s.attach_cancel_token(CancelToken::new());
            }
            let before = s.fused_stats().ops;
            let (r, dur) = run_kernel(&mut s, kernel)?;
            tracer.record("probe", span, Instant::now() - dur, dur);
            retired = r;
            ns.push(dur.as_nanos() as f64 / r as f64);
            share = (s.fused_stats().ops - before) as f64 / r as f64;
            Ok(())
        })?;
        out.push((
            KernelTiming {
                ns_per_instr: median(&ns),
                op_share: share,
            },
            retired,
        ));
    }
    Ok(out)
}

/// Plan-cache costs: (median cold compile ms, median warm hit µs).
pub fn plan_cache(tracer: &Tracer) -> ScanResult<(f64, f64)> {
    let cfg = EnvConfig::paper_default();
    let build =
        |cfg: &EnvConfig, sew: Sew| scanvec::kernels::build_seg_scan(cfg, sew, ScanOp::Plus);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    reps(|| -> ScanResult<()> {
        let engine = Engine::new();
        let mut s = engine.session(cfg)?;
        let (r, dur) = tracer.time("probe", "core.plan_cache.miss", || {
            s.kernel("seg_scan_plus", Sew::E32, build)
        });
        r?;
        cold.push(dur.as_secs_f64() * 1e3);
        const HITS: u32 = 1000;
        let start = Instant::now();
        for _ in 0..HITS {
            s.kernel("seg_scan_plus", Sew::E32, build)?;
        }
        let dur = start.elapsed();
        tracer.record("probe", "core.plan_cache.hit_x1000", start, dur);
        warm.push(dur.as_secs_f64() * 1e6 / f64::from(HITS));
        assert_eq!(engine.plan_cache().compiles(), 1, "one compile per key");
        Ok(())
    })?;
    Ok((median(&cold), median(&warm)))
}

/// Staging costs on a serve-sized session: (stage-in ns/elem, `to_u32`
/// ns/elem, `reset` µs after a kernel dirtied the session).
pub fn staging(tracer: &Tracer) -> ScanResult<(f64, f64, f64)> {
    let spec = JobSpec {
        n: PROBE_N,
        ..JobSpec::default()
    };
    let engine = Engine::new();
    let mut s = engine.session(spec.config())?;
    let input = data(PROBE_N, 1 << 20, 4);
    let (mut stage, mut read, mut reset) = (Vec::new(), Vec::new(), Vec::new());
    reps(|| -> ScanResult<()> {
        let (v, dur) = tracer.time("probe", "core.from_u32", || s.from_u32(&input));
        let v = v?;
        stage.push(dur.as_nanos() as f64 / PROBE_N as f64);
        plus_scan(&mut s, &v)?;
        let (out, dur) = tracer.time("probe", "core.to_u32", || s.to_u32(&v));
        assert_eq!(out.len(), PROBE_N);
        read.push(dur.as_nanos() as f64 / PROBE_N as f64);
        let (_, dur) = tracer.time("probe", "core.reset", || s.reset());
        reset.push(dur.as_secs_f64() * 1e6);
        Ok(())
    })?;
    Ok((median(&stage), median(&read), median(&reset)))
}

/// Costing overhead: (median costed − median uncosted job wall) ÷ retired,
/// in ns per instruction, on a seg_scan job with the ara-like model.
pub fn cost(tracer: &Tracer) -> f64 {
    let spec = JobSpec {
        workload: Workload::SegScan,
        n: PROBE_N,
        vlen: 1024,
        ..JobSpec::default()
    };
    let engine = Arc::new(Engine::new());
    let mut pool = SessionPool::new(&engine);
    let backoff = BackoffPolicy::new(0);
    let plain = spec.to_job("cost-probe");
    let costed = spec.to_job("cost-probe").costed(CostModel::ara_like());
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let mut retired = 1;
    reps(|| -> Result<(), std::convert::Infallible> {
        let (r, dur) = tracer.time("probe", "cost.uncosted_job", || {
            execute_job(&plain, 0, &mut pool, 0, &backoff)
        });
        assert!(r.outcome.is_ok(), "uncosted probe job failed");
        retired = r.retired;
        without.push(dur.as_secs_f64());
        let (r, dur) = tracer.time("probe", "cost.costed_job", || {
            execute_job(&costed, 0, &mut pool, 0, &backoff)
        });
        assert!(
            r.outcome.is_ok() && r.cycles.is_some(),
            "costed probe job failed"
        );
        assert_eq!(r.retired, retired, "costing changed the retired count");
        with.push(dur.as_secs_f64());
        Ok(())
    })
    .expect("infallible");
    (median(&with) - median(&without)) * 1e9 / retired as f64
}

/// Mean µs per `QueueJournal::submit`/`complete` at fsync-every 1, with
/// payloads shaped like the service's.
pub fn journal_append(dir: &Path, tracer: &Tracer) -> io::Result<f64> {
    let path = dir.join("probe.journal");
    let mut journal = QueueJournal::create_on(&fs_backend(), &path, "perfbench/probe", 1)?;
    let submit = b"sweep=1 seg_scan n=54321 vlen=512 lmul=m2 seed=1234567890123";
    let done = format!(
        "sweep=1 job-1 cfg=vlen512/M2/Llvm14 retired=123456 counters={} output=ok 123456",
        "x".repeat(160)
    );
    let mut us = Vec::new();
    let mut id = 0;
    let result = reps(|| -> io::Result<()> {
        id += 1;
        let (r, dur) = tracer.time("probe", "ckpt.submit", || journal.submit(id, submit));
        r?;
        us.push(dur.as_secs_f64() * 1e6);
        let (r, dur) = tracer.time("probe", "ckpt.complete", || {
            journal.complete(id, done.as_bytes())
        });
        r?;
        us.push(dur.as_secs_f64() * 1e6);
        Ok(())
    });
    let _ = std::fs::remove_file(&path);
    result.map(|()| crate::stats::mean(&us))
}
