//! The serve layers HTTP hides, replayed in-process: the workload's own
//! sweeps driven through `ServeState::submit`/`next_job`/`finish`,
//! `SessionPool::session_for`, `JobSpec::to_job` + `execute_job` and
//! `JobReport::stable_line`, with the server's options and a journal on
//! disk, each call timed as a span.

use crate::http_load::PreparedSweep;
use crate::trace::Tracer;
use rvv_batch::{execute_job, BackoffPolicy, JobOutcome, SessionPool};
use rvv_ckpt::{fs_backend, StorageBackend, StorageFile};
use rvv_serve::{ServeOptions, ServeState};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The real filesystem, counting every `fsync` of a file or directory.
#[derive(Debug, Default)]
pub struct CountingFs {
    fsyncs: Arc<AtomicU64>,
}

impl CountingFs {
    /// Fsyncs so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn StorageFile>,
    fsyncs: Arc<AtomicU64>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_all()
    }
}

impl CountingFs {
    fn wrap(&self, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(CountingFile {
            inner,
            fsyncs: Arc::clone(&self.fsyncs),
        })
    }
}

impl StorageBackend for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs_backend().read(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(fs_backend().create(path)?))
    }
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(fs_backend().open_append(path, truncate_to)?))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs_backend().rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs_backend().remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs_backend().create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        fs_backend().sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        fs_backend().exists(path)
    }
}

/// What the replay measured (spans are in the tracer).
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Jobs run.
    pub jobs: u64,
    /// Sweeps whose digest differed from the reference.
    pub mismatched: u64,
    /// Jobs that did not finish ok.
    pub not_ok: u64,
    /// Fsyncs per job, set-up excluded.
    pub fsyncs_per_job: f64,
    /// Sessions the engine created per `session_for` call.
    pub pool_miss_ratio: f64,
    /// Plans compiled by the service engine, warm-up included.
    pub compiles: u64,
    /// Σ execute time ÷ (workers × replay wall).
    pub worker_busy_frac: f64,
    /// Replay wall minus the mean worker's execute time, seconds.
    pub straggler_s: f64,
}

/// Replay `warmup`, then each tenant's pool in a closed loop for
/// `seconds`, against a service state configured like the child server
/// (2 workers, journal in `dir`, `deadline`).
pub fn run(
    warmup: &PreparedSweep,
    pools: &[Vec<PreparedSweep>],
    deadline: Option<Duration>,
    dir: &Path,
    seconds: f64,
    tracer: &Tracer,
) -> io::Result<ReplayStats> {
    const WORKERS: usize = 2;
    let fs = Arc::new(CountingFs::default());
    let opts = ServeOptions {
        threads: WORKERS,
        journal: Some(dir.join("replay.journal")),
        deadline,
        storage: Some(fs.clone()),
        ..ServeOptions::default()
    };
    let state = ServeState::new(opts)?;
    let fsyncs_at_start = fs.fsyncs();
    let created_at_start = state.engine.health().sessions_created();
    let stop_supervisor = AtomicBool::new(false);
    let acquires = AtomicU64::new(0);
    let mismatched = AtomicU64::new(0);
    let started = Instant::now();
    let (busy, not_ok) = thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let state = &state;
                let acquires = &acquires;
                s.spawn(move || worker(state, w, tracer, acquires))
            })
            .collect();
        let supervisor = deadline.map(|_| {
            let state = &state;
            let stop = &stop_supervisor;
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    state.cancel_overdue(Instant::now());
                    thread::sleep(Duration::from_millis(5));
                }
            })
        });
        submit_and_check(&state, warmup, "replay.tenant-0", tracer, &mismatched);
        let until = Instant::now() + Duration::from_secs_f64(seconds);
        thread::scope(|t| {
            for (i, pool) in pools.iter().enumerate() {
                let (state, mismatched) = (&state, &mismatched);
                t.spawn(move || {
                    let lane = format!("replay.tenant-{i}");
                    for sweep in pool.iter().cycle() {
                        if Instant::now() >= until {
                            break;
                        }
                        submit_and_check(state, sweep, &lane, tracer, mismatched);
                    }
                });
            }
        });
        state.begin_drain();
        let mut busy = Vec::new();
        let mut not_ok = 0;
        for w in workers {
            let (b, n) = w.join().expect("replay worker panicked");
            busy.push(b);
            not_ok += n;
        }
        stop_supervisor.store(true, Ordering::SeqCst);
        if let Some(h) = supervisor {
            h.join().expect("deadline supervisor panicked");
        }
        (busy, not_ok)
    });
    let wall = started.elapsed().as_secs_f64();
    let jobs = state.counters.completed.load(Ordering::Relaxed);
    let acquires = acquires.load(Ordering::Relaxed).max(1);
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    Ok(ReplayStats {
        jobs,
        mismatched: mismatched.load(Ordering::Relaxed),
        not_ok,
        fsyncs_per_job: (fs.fsyncs() - fsyncs_at_start) as f64 / jobs.max(1) as f64,
        pool_miss_ratio: (state.engine.health().sessions_created() - created_at_start) as f64
            / acquires as f64,
        compiles: state.engine.plan_cache().compiles(),
        worker_busy_frac: busy.iter().sum::<f64>() / (WORKERS as f64 * wall),
        straggler_s: wall - mean_busy,
    })
}

/// Submit one sweep through `ServeState::submit`, wait for it, and check
/// its digest against the reference.
fn submit_and_check(
    state: &ServeState,
    sweep: &PreparedSweep,
    lane: &str,
    tracer: &Tracer,
    mismatched: &AtomicU64,
) {
    let (result, _) = tracer.time(lane, "serve.submit", || state.submit(&sweep.specs));
    let (id, ids) = result.expect("replay submission refused");
    let served = loop {
        match state.sweep_text(id) {
            Some(text) if text.starts_with("complete") => break text,
            _ => thread::sleep(Duration::from_micros(200)),
        }
    };
    if served != sweep.expected(ids[0]) {
        eprintln!("replay: DIGEST MISMATCH on sweep {id}");
        mismatched.fetch_add(1, Ordering::Relaxed);
    }
}

/// One worker, as the server's worker loop runs it, with every layer call
/// timed. Returns the worker's execute time in seconds and how many of
/// its jobs did not finish ok.
fn worker(state: &ServeState, w: usize, tracer: &Tracer, acquires: &AtomicU64) -> (f64, u64) {
    let lane = format!("replay.worker-{w}");
    let mut pool = SessionPool::new(&state.engine);
    let backoff = BackoffPolicy::new(0);
    let mut busy = 0.0;
    let mut not_ok = 0;
    loop {
        // The wait that ends in the drain is not queue wait.
        let start = Instant::now();
        let Some(job) = state.next_job() else { break };
        tracer.record(&lane, "serve.next_job", start, start.elapsed());
        let cfg = job.spec.config();
        if state.breaker_open(&cfg) {
            let line = state.quarantine_line(&job);
            state.finish(&job, line, 0, false, false);
            not_ok += 1;
            continue;
        }
        tracer.time(&lane, "batch.session_for", || {
            pool.session_for(&cfg);
        });
        acquires.fetch_add(1, Ordering::Relaxed);
        let mut batch_job = job
            .spec
            .to_job(format!("job-{}", job.id))
            .retries(state.opts.retries);
        if let Some(token) = state.arm_deadline(job.id) {
            batch_job = batch_job.cancel_token(token);
        }
        let (report, dur) = tracer.time(&lane, "batch.execute_job", || {
            execute_job(&batch_job, job.id, &mut pool, w, &backoff)
        });
        busy += dur.as_secs_f64();
        let (line, _) = tracer.time(&lane, "batch.stable_line", || report.stable_line());
        let cancelled = matches!(report.outcome, JobOutcome::Cancelled { .. });
        if !report.outcome.is_ok() {
            not_ok += 1;
        }
        tracer.time(&lane, "serve.finish", || {
            state.finish(&job, line, report.attempts, report.poisoned > 0, cancelled)
        });
    }
    (busy, not_ok)
}
