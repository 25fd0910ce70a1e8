//! Shared service state: the durable queue, admission control, breakers,
//! deadline registry, and the job/sweep tables every connection handler
//! and worker thread reads through one `Arc`.

use crate::spec::JobSpec;
use rvv_batch::AdmissionGate;
use rvv_ckpt::queue::{QueueJournal, QueueRecovery};
use rvv_ckpt::{fnv1a, fs_backend, write_atomic_on, StorageBackend};
use rvv_fault::ServeFault;
use scanvec::{CancelToken, Engine, EnvConfig, ExecEngine};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The journal tag binding a queue file to this service (see
/// [`QueueJournal::create`]): a resume against a journal some other tool
/// wrote is refused instead of misinterpreted.
pub const JOURNAL_TAG: &str = "rvv-serve/v1";

/// Everything the service is configured with at startup. Immutable once
/// the server is running — tenants share one policy.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads draining the queue.
    pub threads: usize,
    /// Admission-control queue depth: submissions beyond this many
    /// outstanding jobs are shed with 429 + Retry-After.
    pub queue_depth: usize,
    /// Durable queue journal path (`None` = in-memory only: no crash
    /// survival, used by throughput tests).
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Per-job wall-clock deadline, measured from the moment a worker
    /// starts the job; the deadline supervisor cancels overdue jobs
    /// cooperatively.
    pub deadline: Option<Duration>,
    /// Retries per failed job (attempts = retries + 1), spaced by the
    /// deterministic backoff schedule.
    pub retries: u32,
    /// Chaos seed: derive a [`ServeFault`] per submission/job (shed,
    /// latency, machine faults). `None` = no injected chaos.
    pub inject_seed: Option<u64>,
    /// Crash harness: `std::process::abort()` once this many *done*
    /// records have been journaled — a deterministic stand-in for
    /// `kill -9` mid-drain that the recovery tests drive.
    pub crash_after: Option<u64>,
    /// Execution tier sessions run on (default [`ExecEngine::Fused`]).
    pub exec: ExecEngine,
    /// Consecutive poisoned (panicked) jobs on one configuration before
    /// its circuit breaker opens and further jobs are quarantined.
    pub breaker_threshold: u32,
    /// Engine-default instruction watchdog per attempt.
    pub watchdog: Option<u64>,
    /// Storage backend the journal runs on. `None` = the real filesystem;
    /// tests hand in a chaos backend to drive the degradation ladder
    /// deterministically.
    pub storage: Option<Arc<dyn StorageBackend>>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 2,
            queue_depth: 256,
            journal: None,
            resume: false,
            deadline: None,
            retries: 1,
            inject_seed: None,
            crash_after: None,
            exec: ExecEngine::default(),
            breaker_threshold: 3,
            watchdog: Some(1_000_000_000),
            storage: None,
        }
    }
}

/// One job sitting in (or recovered into) the run queue.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Queue-assigned id (monotonic, journal-stable).
    pub id: u64,
    /// The sweep this job belongs to.
    pub sweep: u64,
    /// What to run.
    pub spec: JobSpec,
}

/// Where a job is in its lifecycle. `Done` holds the stable report line —
/// the only result form the service keeps (and journals).
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Accepted and journaled, waiting for a worker.
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; the stable line is final.
    Done(String),
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The service is shutting down; nothing new is accepted.
    Draining,
    /// Admission control shed the submission (genuine overload or
    /// injected chaos): 429 + Retry-After.
    Overloaded,
    /// The spec failed validation; the message names the field.
    Invalid(String),
    /// Storage is degraded (a journal append failed now or earlier): the
    /// job is NOT accepted — the durability contract is
    /// journal-before-acknowledge, and acknowledging without a journal
    /// would be a silent lie. Clients see 503 and should retry elsewhere
    /// or later; in-flight jobs keep draining.
    Storage(String),
}

#[derive(Debug, Default)]
struct Breaker {
    consecutive_poisoned: u32,
    open: bool,
}

/// Monotonic service counters, all quarantined from job results: they
/// describe the service's behavior, not the sweeps'.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Jobs accepted (journaled and queued).
    pub submitted: AtomicU64,
    /// Jobs finished, any outcome.
    pub completed: AtomicU64,
    /// Jobs whose outcome was `Cancelled` (deadline or shutdown).
    pub cancelled: AtomicU64,
    /// Jobs refused by an open circuit breaker.
    pub quarantined: AtomicU64,
    /// Submissions shed by injected chaos (a subset of the gate's total
    /// shed count, which also counts genuine overload).
    pub injected_shed: AtomicU64,
    /// Retry attempts consumed across all jobs.
    pub retries: AtomicU64,
    /// Done records journaled (the crash harness counts these).
    pub done_records: AtomicU64,
    /// Journal appends that failed (each one trips or re-confirms the
    /// storage breaker).
    pub journal_errors: AtomicU64,
    /// Times a poisoned lock was recovered instead of propagating the
    /// panic to the next caller.
    pub lock_poisoned: AtomicU64,
    /// Journal records quarantined by salvage during the last resume.
    pub salvaged: AtomicU64,
}

/// The shared state behind one service instance.
pub struct ServeState {
    /// The engine every worker session comes from.
    pub engine: Arc<Engine>,
    /// Startup configuration.
    pub opts: ServeOptions,
    /// Admission control (bounded queue depth, shed counters).
    pub gate: AdmissionGate,
    /// Service counters.
    pub counters: ServeCounters,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    journal: Option<Mutex<QueueJournal>>,
    jobs: Mutex<BTreeMap<u64, JobStatus>>,
    sweeps: Mutex<BTreeMap<u64, Vec<u64>>>,
    breakers: Mutex<HashMap<EnvConfig, Breaker>>,
    deadlines: Mutex<Vec<(Instant, u64, CancelToken)>>,
    next_job_id: AtomicU64,
    next_sweep_id: AtomicU64,
    submissions: AtomicU64,
    draining: AtomicBool,
    storage: Arc<dyn StorageBackend>,
    storage_degraded: AtomicBool,
}

fn encode_payload(sweep: u64, text: &str) -> Vec<u8> {
    format!("sweep={sweep} {text}").into_bytes()
}

fn decode_payload(payload: &[u8]) -> io::Result<(u64, String)> {
    let bad = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "queue payload missing sweep= prefix",
        )
    };
    let text = std::str::from_utf8(payload).map_err(|_| bad())?;
    let rest = text.strip_prefix("sweep=").ok_or_else(bad)?;
    let (sid, body) = rest.split_once(' ').ok_or_else(bad)?;
    let sid: u64 = sid.parse().map_err(|_| bad())?;
    Ok((sid, body.to_string()))
}

impl ServeState {
    /// Build the state: construct the engine, open (or resume) the
    /// journal, and re-enqueue any pending work a crash left behind.
    pub fn new(opts: ServeOptions) -> io::Result<Arc<ServeState>> {
        let mut builder = Engine::builder().default_exec_engine(opts.exec);
        if let Some(fuel) = opts.watchdog {
            builder = builder.default_fuel_budget(fuel);
        }
        let engine = Arc::new(builder.build());
        let storage = opts.storage.clone().unwrap_or_else(fs_backend);
        let mut journal = None;
        let mut recovery = QueueRecovery::default();
        if let Some(path) = &opts.journal {
            if opts.resume && storage.exists(path) {
                let (j, r) = QueueJournal::resume_on(&storage, path, JOURNAL_TAG, 1)?;
                journal = Some(Mutex::new(j));
                recovery = r;
            } else {
                journal = Some(Mutex::new(QueueJournal::create_on(
                    &storage,
                    path,
                    JOURNAL_TAG,
                    1,
                )?));
            }
        }
        let state = ServeState {
            engine,
            gate: AdmissionGate::new(opts.queue_depth),
            counters: ServeCounters::default(),
            opts,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            journal,
            jobs: Mutex::new(BTreeMap::new()),
            sweeps: Mutex::new(BTreeMap::new()),
            breakers: Mutex::new(HashMap::new()),
            deadlines: Mutex::new(Vec::new()),
            next_job_id: AtomicU64::new(1),
            next_sweep_id: AtomicU64::new(1),
            submissions: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            storage,
            storage_degraded: AtomicBool::new(false),
        };
        state.restore(recovery)?;
        Ok(Arc::new(state))
    }

    /// Lock one of the state's mutexes, recovering from poison instead of
    /// propagating it: one panicking handler thread must not brick every
    /// subsequent request. The tables a panicked holder may have left
    /// half-updated describe *job bookkeeping*, not results — recovered
    /// state is at worst missing one status transition, which the
    /// counters surface via `lock_poisoned` in `/stats`.
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|poisoned| {
            self.counters.lock_poisoned.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Fold a journal replay back into live state: completed jobs keep
    /// their recorded lines verbatim (this is what makes post-crash
    /// digests byte-identical), pending jobs re-enter the queue.
    /// Quarantined (salvaged) ranges are surfaced — counted in `/stats`,
    /// logged, and written to a `<journal>.salvage.txt` manifest — and
    /// their lost work is already accounted for by the queue replay: a
    /// lost done re-pends its job for deterministic re-execution, a lost
    /// submit is reconstructed from its surviving done.
    fn restore(&self, recovery: QueueRecovery) -> io::Result<()> {
        if !recovery.salvage.is_empty() {
            self.counters
                .salvaged
                .fetch_add(recovery.salvage.len() as u64, Ordering::Relaxed);
            let mut manifest = String::new();
            for entry in &recovery.salvage {
                eprintln!("serve: journal salvage: {entry}");
                manifest.push_str(&entry.to_string());
                manifest.push('\n');
            }
            if let Some(path) = &self.opts.journal {
                let mut name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                name.push_str(".salvage.txt");
                let manifest_path = path.with_file_name(name);
                if let Err(e) = write_atomic_on(&self.storage, &manifest_path, manifest.as_bytes())
                {
                    eprintln!(
                        "serve: could not write salvage manifest {}: {e}",
                        manifest_path.display()
                    );
                }
            }
        }
        if recovery.max_id == 0 {
            return Ok(());
        }
        let mut jobs = self.lock(&self.jobs);
        let mut sweeps = self.lock(&self.sweeps);
        let mut queue = self.lock(&self.queue);
        let mut max_sweep = 0u64;
        for item in &recovery.completed {
            let (sid, line) = decode_payload(&item.payload)?;
            jobs.insert(item.id, JobStatus::Done(line));
            sweeps.entry(sid).or_default().push(item.id);
            max_sweep = max_sweep.max(sid);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        let pending = recovery.pending.len();
        if pending > 0 && !self.gate.try_admit(pending) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "journal has {pending} pending jobs but --queue-depth is {}; restart with a deeper queue",
                    self.gate.capacity()
                ),
            ));
        }
        for item in &recovery.pending {
            let (sid, text) = decode_payload(&item.payload)?;
            let spec: JobSpec = text.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journaled spec `{text}`: {e}"),
                )
            })?;
            jobs.insert(item.id, JobStatus::Queued);
            sweeps.entry(sid).or_default().push(item.id);
            max_sweep = max_sweep.max(sid);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            queue.push_back(QueuedJob {
                id: item.id,
                sweep: sid,
                spec,
            });
        }
        // Job ids inside a sweep are assigned in submit order; the maps
        // above were folded from (completed, pending) partitions, so
        // re-sort for stable digest ordering.
        for ids in sweeps.values_mut() {
            ids.sort_unstable();
        }
        self.next_job_id
            .store(recovery.max_id + 1, Ordering::SeqCst);
        self.next_sweep_id.store(max_sweep + 1, Ordering::SeqCst);
        self.available.notify_all();
        Ok(())
    }

    /// Admit one sweep of `specs` all-or-nothing: validate, (maybe) shed,
    /// journal every submit record durably, then queue. The acknowledged
    /// ids are durable before this returns.
    pub fn submit(&self, specs: &[JobSpec]) -> Result<(u64, Vec<u64>), SubmitError> {
        if specs.is_empty() {
            return Err(SubmitError::Invalid("empty submission".to_string()));
        }
        if self.draining.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        if self.storage_degraded.load(Ordering::SeqCst) {
            // The storage breaker is open: new work cannot be made
            // durable, so it is shed *before* admission — no slot, no
            // journal attempt, no false acknowledgment.
            return Err(SubmitError::Storage(
                "storage degraded: journal unavailable".to_string(),
            ));
        }
        for spec in specs {
            self.engine
                .validate(&spec.config())
                .map_err(|e| SubmitError::Invalid(e.to_string()))?;
        }
        // Injected chaos sheds whole submissions by ordinal — the
        // deterministic stand-in for overload (see `ServeFault`).
        let ordinal = self.submissions.fetch_add(1, Ordering::SeqCst);
        if let Some(seed) = self.opts.inject_seed {
            if ServeFault::derive(seed, ordinal).shed {
                self.counters.injected_shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Overloaded);
            }
        }
        if !self.gate.try_admit(specs.len()) {
            return Err(SubmitError::Overloaded);
        }
        let sweep = self.next_sweep_id.fetch_add(1, Ordering::SeqCst);
        let first = self
            .next_job_id
            .fetch_add(specs.len() as u64, Ordering::SeqCst);
        let ids: Vec<u64> = (first..first + specs.len() as u64).collect();
        // Journal-before-acknowledge: all submit records are on disk
        // before the client hears "accepted". A failed append un-admits
        // the whole sweep and trips the storage breaker.
        if let Some(journal) = &self.journal {
            let mut j = self.lock(journal);
            for (id, spec) in ids.iter().zip(specs) {
                let payload = encode_payload(sweep, &spec.to_string());
                if let Err(e) = j.submit(*id, &payload) {
                    self.gate.release(specs.len());
                    self.trip_storage(&e);
                    return Err(SubmitError::Storage(e.to_string()));
                }
            }
        }
        {
            let mut jobs = self.lock(&self.jobs);
            for id in &ids {
                jobs.insert(*id, JobStatus::Queued);
            }
        }
        self.lock(&self.sweeps).insert(sweep, ids.clone());
        {
            let mut queue = self.lock(&self.queue);
            for (id, spec) in ids.iter().zip(specs) {
                queue.push_back(QueuedJob {
                    id: *id,
                    sweep,
                    spec: *spec,
                });
            }
        }
        self.counters
            .submitted
            .fetch_add(specs.len() as u64, Ordering::Relaxed);
        self.available.notify_all();
        Ok((sweep, ids))
    }

    /// Block until a job is available or the service is draining with an
    /// empty queue (then `None`: the worker exits).
    pub fn next_job(&self) -> Option<QueuedJob> {
        let mut queue = self.lock(&self.queue);
        loop {
            if let Some(job) = queue.pop_front() {
                self.lock(&self.jobs).insert(job.id, JobStatus::Running);
                return Some(job);
            }
            if self.draining.load(Ordering::SeqCst) {
                return None;
            }
            queue = match self
                .available
                .wait_timeout(queue, Duration::from_millis(50))
            {
                Ok((q, _)) => q,
                Err(poisoned) => {
                    self.counters.lock_poisoned.fetch_add(1, Ordering::Relaxed);
                    poisoned.into_inner().0
                }
            };
        }
    }

    /// Open the storage circuit breaker: note the failure, flip
    /// `/healthz` to degraded, and start shedding new submissions while
    /// in-flight jobs drain.
    fn trip_storage(&self, err: &io::Error) {
        self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
        if !self.storage_degraded.swap(true, Ordering::SeqCst) {
            eprintln!("serve: storage degraded (journal append failed): {err}");
        }
    }

    /// Is the storage breaker open?
    pub fn storage_is_degraded(&self) -> bool {
        self.storage_degraded.load(Ordering::SeqCst)
    }

    /// The per-job chaos decisions (latency, machine faults), or quiet.
    pub fn chaos_for(&self, job_id: u64) -> ServeFault {
        match self.opts.inject_seed {
            Some(seed) => ServeFault::derive(seed, job_id),
            None => ServeFault::none(),
        }
    }

    /// Register a running job with the deadline supervisor; returns the
    /// token the job must run under (or `None` when no deadline is set).
    pub fn arm_deadline(&self, job_id: u64) -> Option<CancelToken> {
        let deadline = self.opts.deadline?;
        let token = CancelToken::new();
        self.lock(&self.deadlines)
            .push((Instant::now() + deadline, job_id, token.clone()));
        Some(token)
    }

    /// Supervisor tick: cancel every registered token whose deadline has
    /// passed. Cancellation is cooperative — the worker observes the token
    /// at its next taken jump or branch and reports `Cancelled`.
    pub fn cancel_overdue(&self, now: Instant) -> usize {
        let mut deadlines = self.lock(&self.deadlines);
        let mut fired = 0;
        deadlines.retain(|(at, _, token)| {
            if *at <= now {
                token.cancel();
                fired += 1;
                false
            } else {
                true
            }
        });
        fired
    }

    fn disarm_deadline(&self, job_id: u64) {
        self.lock(&self.deadlines)
            .retain(|(_, id, _)| *id != job_id);
    }

    /// Record a finished job: journal the done record (durably), update
    /// the tables and counters, release its admission slot — and, when the
    /// crash harness is armed, abort the process once the configured done
    /// record is on disk.
    ///
    /// Infallible by design: a failed done-record append trips the
    /// storage breaker (new submissions shed with 503) but the in-memory
    /// completion still lands, so in-flight work drains to clients
    /// instead of wedging. The un-journaled completion is the safe loss:
    /// after a crash the job replays as pending and re-runs
    /// deterministically.
    pub fn finish(
        &self,
        job: &QueuedJob,
        line: String,
        attempts: u32,
        poisoned: bool,
        cancelled: bool,
    ) {
        self.disarm_deadline(job.id);
        if let Some(journal) = &self.journal {
            let mut j = self.lock(journal);
            match j.complete(job.id, &encode_payload(job.sweep, &line)) {
                Ok(()) => {
                    let done = self.counters.done_records.fetch_add(1, Ordering::SeqCst) + 1;
                    if self.opts.crash_after == Some(done) {
                        // The crash harness: die as unceremoniously as
                        // `kill -9` (no unwinding, no drop glue, no drain)
                        // the instant the configured done record is durable.
                        std::process::abort();
                    }
                }
                Err(e) => self.trip_storage(&e),
            }
        } else {
            self.counters.done_records.fetch_add(1, Ordering::SeqCst);
        }
        self.lock(&self.jobs).insert(job.id, JobStatus::Done(line));
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        self.counters
            .retries
            .fetch_add(u64::from(attempts.saturating_sub(1)), Ordering::Relaxed);
        if cancelled {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        self.note_breaker(&job.spec.config(), poisoned);
        self.gate.release(1);
    }

    /// Is the breaker for `cfg` open (jobs on it quarantined)?
    pub fn breaker_open(&self, cfg: &EnvConfig) -> bool {
        self.lock(&self.breakers).get(cfg).is_some_and(|b| b.open)
    }

    fn note_breaker(&self, cfg: &EnvConfig, poisoned: bool) {
        let mut breakers = self.lock(&self.breakers);
        let b = breakers.entry(*cfg).or_default();
        if poisoned {
            b.consecutive_poisoned += 1;
            if b.consecutive_poisoned >= self.opts.breaker_threshold {
                b.open = true;
            }
        } else {
            b.consecutive_poisoned = 0;
        }
    }

    /// The quarantine line for a breaker-refused job: stable (pure
    /// function of the spec) so quarantined sweeps still digest
    /// deterministically when the poisons themselves are deterministic.
    pub fn quarantine_line(&self, job: &QueuedJob) -> String {
        let cfg = job.spec.config();
        self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
        format!(
            "job-{} cfg=vlen{}/{:?}/{:?} quarantined=breaker-open",
            job.id, cfg.vlen, cfg.lmul, cfg.spill_profile
        )
    }

    /// Close every breaker and zero its failure count (the operator's
    /// `POST /breakers/reset`). The storage breaker resets too — if the
    /// journal is still broken, the next append re-trips it. Returns how
    /// many were open (counting storage).
    pub fn reset_breakers(&self) -> usize {
        let mut breakers = self.lock(&self.breakers);
        let mut open = breakers.values().filter(|b| b.open).count();
        breakers.clear();
        if self.storage_degraded.swap(false, Ordering::SeqCst) {
            open += 1;
        }
        open
    }

    /// Stop accepting work; wake every worker so the drain can finish.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Is the service draining?
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Force the journal to disk (graceful-shutdown path).
    pub fn sync_journal(&self) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            if let Err(e) = self.lock(journal).sync() {
                self.trip_storage(&e);
                return Err(e);
            }
        }
        Ok(())
    }

    /// One job's status line, or `None` for an unknown id.
    pub fn job_text(&self, id: u64) -> Option<String> {
        let jobs = self.lock(&self.jobs);
        Some(match jobs.get(&id)? {
            JobStatus::Queued => format!("job {id} queued\n"),
            JobStatus::Running => format!("job {id} running\n"),
            JobStatus::Done(line) => format!("job {id} done\n{line}\n"),
        })
    }

    /// One sweep's status: progress while running; on completion the
    /// stable lines in job-id order plus their FNV-1a digest — the bytes
    /// the crash-recovery contract compares.
    pub fn sweep_text(&self, id: u64) -> Option<String> {
        let ids = self.lock(&self.sweeps).get(&id)?.clone();
        let jobs = self.lock(&self.jobs);
        let mut lines = Vec::with_capacity(ids.len());
        for job_id in &ids {
            match jobs.get(job_id) {
                Some(JobStatus::Done(line)) => lines.push(line.clone()),
                _ => {
                    return Some(format!("pending {}/{} jobs done\n", lines.len(), ids.len()));
                }
            }
        }
        let mut body = String::new();
        for line in &lines {
            body.push_str(line);
            body.push('\n');
        }
        Some(format!(
            "complete jobs={}\ndigest={:#018x}\n{body}",
            ids.len(),
            fnv1a(body.as_bytes())
        ))
    }

    /// The `/stats` body: service counters, queue state, engine health.
    pub fn stats_text(&self) -> String {
        let breakers_open = self
            .lock(&self.breakers)
            .values()
            .filter(|b| b.open)
            .count();
        let health = self.engine.health();
        format!(
            "submitted={}\ncompleted={}\ncancelled={}\nquarantined={}\nretries={}\n\
             queue_depth={}\nqueue_capacity={}\nqueue_high_water={}\n\
             shed={}\ninjected_shed={}\nadmitted={}\n\
             sessions_created={}\nsessions_poisoned={}\nbreakers_open={}\ndraining={}\n\
             storage_degraded={}\njournal_errors={}\nsalvaged_records={}\nlock_poisoned={}\n",
            self.counters.submitted.load(Ordering::Relaxed),
            self.counters.completed.load(Ordering::Relaxed),
            self.counters.cancelled.load(Ordering::Relaxed),
            self.counters.quarantined.load(Ordering::Relaxed),
            self.counters.retries.load(Ordering::Relaxed),
            self.gate.depth(),
            self.gate.capacity(),
            self.gate.high_water(),
            self.gate.shed(),
            self.counters.injected_shed.load(Ordering::Relaxed),
            self.gate.admitted(),
            health.sessions_created(),
            health.sessions_poisoned(),
            breakers_open,
            self.is_draining(),
            self.storage_is_degraded(),
            self.counters.journal_errors.load(Ordering::Relaxed),
            self.counters.salvaged.load(Ordering::Relaxed),
            self.counters.lock_poisoned.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(texts: &[&str]) -> Vec<JobSpec> {
        texts.iter().map(|t| t.parse().unwrap()).collect()
    }

    #[test]
    fn submit_assigns_monotonic_ids_and_tracks_status() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        let (s1, ids1) = state
            .submit(&specs(&["plus_scan n=64", "p_add n=32"]))
            .unwrap();
        let (s2, ids2) = state.submit(&specs(&["radix_sort n=16"])).unwrap();
        assert_eq!(ids1, vec![1, 2]);
        assert_eq!(ids2, vec![3]);
        assert_ne!(s1, s2);
        assert_eq!(state.gate.depth(), 3);
        assert!(state.job_text(1).unwrap().contains("queued"));
        assert!(state.job_text(99).is_none());
        assert!(state.sweep_text(s1).unwrap().starts_with("pending 0/2"));
    }

    #[test]
    fn overload_and_drain_refuse_submissions() {
        let state = ServeState::new(ServeOptions {
            queue_depth: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        assert!(state.submit(&specs(&["p_add n=8", "p_add n=8"])).is_ok());
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Overloaded)
        ));
        assert_eq!(state.gate.shed(), 1);
        state.begin_drain();
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Draining)
        ));
    }

    #[test]
    fn invalid_specs_are_refused_before_admission() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        let bad = JobSpec {
            vlen: 48, // not a power of two: Engine::validate refuses
            ..JobSpec::default()
        };
        assert!(matches!(state.submit(&[bad]), Err(SubmitError::Invalid(_))));
        assert_eq!(state.gate.depth(), 0, "nothing admitted");
    }

    #[test]
    fn breakers_open_after_consecutive_poisons_and_reset() {
        let state = ServeState::new(ServeOptions {
            breaker_threshold: 2,
            ..ServeOptions::default()
        })
        .unwrap();
        let cfg = JobSpec::default().config();
        state.note_breaker(&cfg, true);
        assert!(!state.breaker_open(&cfg));
        state.note_breaker(&cfg, true);
        assert!(state.breaker_open(&cfg));
        // A success on a *different* config does not close it.
        let other = JobSpec {
            vlen: 128,
            ..JobSpec::default()
        }
        .config();
        state.note_breaker(&other, false);
        assert!(state.breaker_open(&cfg));
        assert_eq!(state.reset_breakers(), 1);
        assert!(!state.breaker_open(&cfg));
    }

    #[test]
    fn deadline_supervisor_cancels_only_overdue_tokens() {
        let state = ServeState::new(ServeOptions {
            deadline: Some(Duration::from_secs(3600)),
            ..ServeOptions::default()
        })
        .unwrap();
        let token = state.arm_deadline(7).unwrap();
        assert_eq!(state.cancel_overdue(Instant::now()), 0);
        assert!(!token.is_cancelled());
        assert_eq!(
            state.cancel_overdue(Instant::now() + Duration::from_secs(7200)),
            1
        );
        assert!(token.is_cancelled());
        // Disarmed on finish: a second tick has nothing left.
        assert_eq!(
            state.cancel_overdue(Instant::now() + Duration::from_secs(7200)),
            0
        );
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_service() {
        let state = ServeState::new(ServeOptions::default()).unwrap();
        state.submit(&specs(&["p_add n=8"])).unwrap();
        // Poison the jobs mutex: a handler thread panics while holding it.
        let s = Arc::clone(&state);
        std::thread::spawn(move || {
            let _guard = s.jobs.lock().unwrap();
            panic!("injected handler panic");
        })
        .join()
        .unwrap_err();
        assert!(state.jobs.is_poisoned());
        // Every subsequent request still works, and the recovery is
        // surfaced in the counters + /stats.
        assert!(state.job_text(1).unwrap().contains("queued"));
        assert!(state.sweep_text(1).is_some());
        assert!(state.submit(&specs(&["p_add n=8"])).is_ok());
        assert!(state.counters.lock_poisoned.load(Ordering::Relaxed) >= 1);
        let stats = state.stats_text();
        assert!(stats.contains("lock_poisoned="), "{stats}");
        assert!(!stats.contains("lock_poisoned=0"), "{stats}");
    }

    #[test]
    fn journal_failure_trips_the_storage_breaker_and_sheds() {
        use rvv_ckpt::{ChaosBackend, ChaosPlan};
        // Write op 0 is the journal header; op 1 is the first submit
        // record; everything after fails hard (the disk went away).
        let chaos = Arc::new(ChaosBackend::new(ChaosPlan {
            fail_writes_after: Some(2),
            ..ChaosPlan::quiet()
        }));
        let state = ServeState::new(ServeOptions {
            journal: Some(PathBuf::from("/j/q.journal")),
            storage: Some(chaos as Arc<dyn StorageBackend>),
            queue_depth: 16,
            ..ServeOptions::default()
        })
        .unwrap();
        let (_sweep, ids) = state.submit(&specs(&["p_add n=8"])).unwrap();
        assert!(!state.storage_is_degraded());
        // The second submit's journal append fails: un-admitted, breaker
        // trips, the client hears Storage (503), never a false "accepted".
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Storage(_))
        ));
        assert!(state.storage_is_degraded());
        assert_eq!(state.gate.depth(), 1, "failed sweep released its slot");
        // While degraded, submissions are shed before admission…
        assert!(matches!(
            state.submit(&specs(&["p_add n=8"])),
            Err(SubmitError::Storage(_))
        ));
        // …but the accepted in-flight job still drains: its done-record
        // append fails too, yet the completion lands in memory.
        let job = QueuedJob {
            id: ids[0],
            sweep: 1,
            spec: "p_add n=8".parse().unwrap(),
        };
        state.finish(&job, "job-1 ok".to_string(), 1, false, false);
        assert!(state.job_text(ids[0]).unwrap().contains("done"));
        assert_eq!(state.gate.depth(), 0, "drained");
        let stats = state.stats_text();
        assert!(stats.contains("storage_degraded=true"), "{stats}");
        assert!(state.counters.journal_errors.load(Ordering::Relaxed) >= 2);
        // The operator reset closes the storage breaker too.
        assert!(state.reset_breakers() >= 1);
        assert!(!state.storage_is_degraded());
    }

    #[test]
    fn chaos_sheds_are_deterministic_per_seed() {
        let run = || {
            let state = ServeState::new(ServeOptions {
                inject_seed: Some(42),
                queue_depth: 4096,
                ..ServeOptions::default()
            })
            .unwrap();
            let spec = specs(&["p_add n=8"]);
            (0..64)
                .map(|_| matches!(state.submit(&spec), Err(SubmitError::Overloaded)))
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same shed pattern");
        assert!(a.iter().any(|&s| s), "seed 42 sheds at least once in 64");
        assert!(!a.iter().all(|&s| s), "and accepts at least once");
    }
}
