//! The paper-sweep workload: the paper's full evaluation grid through
//! `BatchRunner` on 2 workers, fused tier, a fresh `Engine` (cold plan
//! cache) per sweep, exactly as `run_all --exec-engine fused` runs it.

use crate::trace::Tracer;
use rvv_batch::{BatchResult, BatchRunner, Engine};
use rvv_ckpt::fnv1a;
use scanvec::ExecEngine;
use scanvec_bench::sweep::{sweep_jobs, Measurement, SweepShape};
use scanvec_bench::PAPER_SIZES;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workers, as a researcher's `run_all --threads 2` on this class of box.
pub const WORKERS: usize = 2;

/// Simulated instructions one sweep of the grid retires.
pub const RETIRED: u64 = 295_522_998;

/// FNV-1a of the grid's `BatchResult::stable_digest` (every table point's
/// counts and checksums).
pub const DIGEST: u64 = 0x6ce7_2271_92c1_7981;

/// Engine and job-list builds timed before each sweep for the set-up
/// figure. One build takes microseconds, so the figure is the mean over
/// every build of the run, not one sample.
const SETUP_REPS: usize = 512;

/// The grid's shape: sizes 10²..10⁶, fixed-N experiments at 10⁴.
pub fn shape() -> SweepShape {
    SweepShape {
        sizes: PAPER_SIZES.to_vec(),
        n7: 10_000,
    }
}

/// One sweep of the grid.
pub struct Sweep {
    /// Wall time of `BatchRunner::run`, seconds.
    pub secs: f64,
    /// Time of each engine + job-list build before the sweep, seconds.
    pub setup: Vec<f64>,
    /// The batch result.
    pub result: BatchResult<Measurement>,
    /// Plans the sweep's fresh engine compiled.
    pub compiles: u64,
    /// Sessions the sweep's engine created.
    pub sessions: u64,
    /// Whether every job was ok and the digest and retired count match.
    pub correct: bool,
    /// Jobs not ok, or all jobs when the digest mismatches.
    pub failed: u64,
    /// Whether the sweep ran with a tracer.
    pub traced: bool,
}

/// Build, run, and check one sweep. With a tracer, each job is recorded
/// as a span on its worker's lane, from the moment its worker starts it.
pub fn sweep(tracer: Option<&Tracer>) -> Sweep {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut build = || {
        let start = Instant::now();
        let engine = Arc::new(
            Engine::builder()
                .default_exec_engine(ExecEngine::Fused)
                .build(),
        );
        let jobs = sweep_jobs(&shape());
        setup.push(start.elapsed().as_secs_f64());
        (engine, jobs)
    };
    for _ in 1..SETUP_REPS {
        drop(build());
    }
    let (engine, mut jobs) = build();
    let starts: Arc<Mutex<HashMap<String, Instant>>> = Arc::default();
    if tracer.is_some() {
        jobs = jobs
            .into_iter()
            .map(|job| {
                let (name, starts) = (job.name.clone(), Arc::clone(&starts));
                job.with_setup(move |_| {
                    starts
                        .lock()
                        .expect("span table poisoned")
                        .insert(name.clone(), Instant::now());
                })
            })
            .collect();
    }
    let start = Instant::now();
    let result = BatchRunner::with_engine(WORKERS, Arc::clone(&engine)).run(jobs);
    let secs = start.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.record("bench", "batch.run", start, result.wall);
        let starts = starts.lock().expect("span table poisoned");
        for r in &result.reports {
            if let Some(&at) = starts.get(&r.name) {
                t.record(&format!("worker-{}", r.worker), "batch.job", at, r.wall);
            }
        }
    }
    let not_ok = result.reports.iter().filter(|r| !r.outcome.is_ok()).count() as u64;
    let digest = fnv1a(result.stable_digest().as_bytes());
    let correct = not_ok == 0 && digest == DIGEST && result.retired() == RETIRED;
    if !correct {
        eprintln!(
            "paper-sweep: WRONG OUTPUT: {not_ok} jobs not ok, digest {digest:#018x} (want {DIGEST:#018x}), \
             retired {} (want {RETIRED})",
            result.retired()
        );
    }
    let failed = if correct {
        0
    } else if digest != DIGEST {
        result.reports.len() as u64
    } else {
        not_ok
    };
    Sweep {
        secs,
        setup,
        compiles: engine.plan_cache().compiles(),
        sessions: engine.health().sessions_created(),
        result,
        correct,
        failed,
        traced: tracer.is_some(),
    }
}

/// The sweeps of one run and the host speed measured around them.
pub struct Run {
    /// Every sweep, in the order run.
    pub sweeps: Vec<Sweep>,
    /// Host CPU speeds (see [`crate::calib`]): one before the first
    /// sweep and one after each.
    pub speeds: Vec<f64>,
}

/// Run sweeps until `seconds` have passed (at least one), calibrating the
/// host before the first and after each, in a child process so that this
/// process's peak RSS stays the program's. With a tracer, every other
/// sweep is traced, so drift of the host over the run falls alike on the
/// traced and the untraced ones.
pub fn run(seconds: f64, tracer: Option<&Tracer>) -> std::io::Result<Run> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let mut run = Run {
        sweeps: Vec::new(),
        speeds: vec![crate::calib::cpu_speed_in_child(WORKERS)?],
    };
    while run.sweeps.len() < 1 + usize::from(tracer.is_some()) || Instant::now() < until {
        let traced = run.sweeps.len() % 2 == 1;
        run.sweeps.push(sweep(tracer.filter(|_| traced)));
        run.speeds.push(crate::calib::cpu_speed_in_child(WORKERS)?);
    }
    Ok(run)
}

/// Σ job wall ÷ (workers × makespan), and makespan − mean worker busy
/// time in seconds, for one sweep.
pub fn balance(result: &BatchResult<Measurement>) -> (f64, f64) {
    let mut busy = [0.0f64; WORKERS];
    for r in &result.reports {
        busy[r.worker % WORKERS] += r.wall.as_secs_f64();
    }
    let makespan = result.wall.as_secs_f64();
    let total: f64 = busy.iter().sum();
    (
        total / (WORKERS as f64 * makespan),
        makespan - total / WORKERS as f64,
    )
}
