//! The serve workloads' HTTP side: the `rvv-serve` child process, the
//! reference results tenants check against, and the closed-loop tenants.

use crate::trace::Tracer;
use rvv_batch::{BatchRunner, Engine};
use rvv_ckpt::fnv1a;
use rvv_serve::http::request;
use rvv_serve::{JobSpec, ServeOptions};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Bounds on the pause between two polls of a sweep's status. Within
/// them a tenant polls 16 times per latency of its previous sweep, so a
/// poll's rounding is a small share of the latency while polls of long
/// sweeps do not take CPU from the workers.
const POLL_MIN: Duration = Duration::from_millis(1);
const POLL_MAX: Duration = Duration::from_millis(20);

/// How long set-up waits for the child to listen and report healthy.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// An `rvv-serve` child process. Dropping it kills the child and reaps
/// it, so no exit path of the benchmark (a panic included) leaves the
/// server running.
pub struct ServeChild {
    child: Option<Child>,
    drain: Option<JoinHandle<()>>,
    /// The address parsed from the child's `listening on` line.
    pub addr: String,
}

impl ServeChild {
    /// Start `bin` on an ephemeral loopback port with 2 workers, the
    /// default tier, and a fresh journal at `journal`; return once it has
    /// printed its address and `/healthz` answers 200.
    pub fn start(bin: &Path, journal: &Path, deadline_ms: Option<u64>) -> io::Result<ServeChild> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--threads", "2", "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(ms) = deadline_ms {
            cmd.args(["--deadline-ms", &ms.to_string()]);
        }
        die_with_parent(&mut cmd);
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut me = ServeChild {
            child: Some(child),
            drain: None,
            addr: String::new(),
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::other("rvv-serve exited before listening"));
            }
            if let Some(addr) = line.trim().strip_prefix("rvv-serve listening on ") {
                me.addr = addr.to_string();
                break;
            }
        }
        // Keep the pipe drained so the child never blocks on a write.
        me.drain = Some(thread::spawn(move || {
            let _ = io::copy(&mut reader, &mut io::sink());
        }));
        let until = Instant::now() + START_TIMEOUT;
        loop {
            match request(&me.addr, "GET", "/healthz", "") {
                Ok((200, _)) => return Ok(me),
                _ if Instant::now() > until => {
                    return Err(io::Error::other("rvv-serve never reported healthy"))
                }
                _ => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Process id of the child.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("child running").id()
    }

    /// Calibrate the host's CPU on `threads` threads and the file system
    /// in `dir` (see [`crate::calib`]) with the child stopped, so that
    /// nothing of the server runs meanwhile. Call it only while no request
    /// is in flight.
    pub fn calibrate(&self, threads: usize, dir: &Path) -> io::Result<(f64, f64)> {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGCONT: i32 = 18;
        const SIGSTOP: i32 = 19;
        let pid = self.pid();
        let signal = |sig| {
            // SAFETY: kill(2) only sends a signal to our own child, which
            // is alive (or a zombie) until this guard reaps it.
            if unsafe { kill(pid as i32, sig) } == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        };
        signal(SIGSTOP)?;
        let until = Instant::now() + Duration::from_secs(1);
        while process_state(pid)? != 'T' {
            if Instant::now() > until {
                let _ = signal(SIGCONT);
                return Err(io::Error::other("rvv-serve did not stop"));
            }
            thread::sleep(Duration::from_micros(200));
        }
        let cpu = crate::calib::cpu_speed(threads);
        let fsync = crate::calib::fsync_speed(dir);
        signal(SIGCONT)?;
        Ok((cpu, fsync?))
    }

    /// Ask the child to drain and exit, and reap it; kill it if it has not
    /// exited within 30 s. Returns whether it exited with status 0.
    pub fn shutdown(mut self) -> io::Result<bool> {
        let _ = request(&self.addr, "POST", "/shutdown", "");
        let mut child = self.child.take().expect("child running");
        let until = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break Some(status);
            }
            if Instant::now() > until {
                let _ = child.kill();
                child.wait()?;
                break None;
            }
            thread::sleep(Duration::from_millis(2));
        };
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        Ok(status.is_some_and(|s| s.success()))
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// Ask the kernel to SIGKILL the child when this process dies, so even a
/// benchmark killed from outside leaves no server behind.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and calls
    // only prctl(2), which is async-signal-safe and touches no memory of
    // the parent; its failure is harmless (the Drop guard still reaps).
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

/// The state letter of process `pid` (`R`, `S`, `T`, ...).
fn process_state(pid: u32) -> io::Result<char> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    stat.rsplit_once(") ")
        .and_then(|(_, rest)| rest.chars().next())
        .ok_or_else(|| io::Error::other("unparseable /proc/<pid>/stat"))
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line"))?;
    Ok(kib / 1024.0)
}

/// One sweep a tenant submits, with everything needed to check it
/// prepared before the timed region.
pub struct PreparedSweep {
    /// The specs, in submission order.
    pub specs: Vec<JobSpec>,
    /// The `POST /sweeps` body.
    body: String,
    /// Each job's reference stable line with the job name left out
    /// (`" cfg=... output=..."`): served lines are `job-<id>` plus this.
    suffixes: Vec<String>,
    /// Simulated instructions the sweep retires.
    pub retired: u64,
}

impl PreparedSweep {
    /// The `GET /sweeps/<id>` body the server must return once the sweep
    /// has been acknowledged as jobs `first..`.
    pub fn expected(&self, first: u64) -> String {
        let mut body = String::new();
        for (id, suffix) in (first..).zip(&self.suffixes) {
            body.push_str(&format!("job-{id}{suffix}\n"));
        }
        format!(
            "complete jobs={}\ndigest={:#018x}\n{body}",
            self.suffixes.len(),
            fnv1a(body.as_bytes())
        )
    }
}

/// Run every distinct spec of `sweeps` once in-process, on 2 workers
/// under the options the server runs with, and prepare each sweep for
/// checking. Panics if a reference job fails: the inputs are chosen so
/// that none does.
pub fn prepare(sweeps: &[Vec<JobSpec>]) -> Vec<PreparedSweep> {
    let mut distinct: Vec<JobSpec> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for s in sweeps.iter().flatten() {
        index.entry(s.to_string()).or_insert_with(|| {
            distinct.push(*s);
            distinct.len() - 1
        });
    }
    let opts = ServeOptions::default();
    let mut builder = Engine::builder().default_exec_engine(opts.exec);
    if let Some(fuel) = opts.watchdog {
        builder = builder.default_fuel_budget(fuel);
    }
    let jobs = distinct.iter().map(|s| s.to_job(String::new())).collect();
    let result = BatchRunner::with_engine(2, Arc::new(builder.build())).run(jobs);
    for (spec, report) in distinct.iter().zip(&result.reports) {
        assert!(report.outcome.is_ok(), "reference job {spec} failed");
    }
    sweeps
        .iter()
        .map(|specs| {
            let reports: Vec<_> = specs
                .iter()
                .map(|s| &result.reports[index[&s.to_string()]])
                .collect();
            PreparedSweep {
                specs: specs.clone(),
                body: specs.iter().map(|s| format!("{s}\n")).collect(),
                suffixes: reports.iter().map(|r| r.stable_line()).collect(),
                retired: reports.iter().map(|r| r.retired).sum(),
            }
        })
        .collect()
}

/// One completed sweep.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// POST to `complete` poll, seconds.
    pub latency: f64,
    /// Simulated instructions its jobs retired (0 when it mismatched).
    pub retired: u64,
}

/// What the tenants saw.
#[derive(Debug, Default, Clone)]
pub struct LoadStats {
    /// Every completed sweep.
    pub done: Vec<Done>,
    /// Jobs submitted, refused ones included.
    pub attempted: u64,
    /// Jobs in refused submissions, in mismatched sweeps, or not ok.
    pub failed: u64,
    /// Jobs in sweeps that completed.
    pub completed: u64,
    /// Submissions sent.
    pub submissions: u64,
    /// Refused submissions (429/503).
    pub refused: u64,
    /// Completed sweeps whose body differed from the reference.
    pub mismatched: u64,
    /// Served job lines that report a cancellation.
    pub cancelled: u64,
    /// Served job lines that report a breaker quarantine.
    pub quarantined: u64,
    /// Wall time from the first submission to the last completion.
    pub wall: f64,
    /// Peak RSS of the server once every tenant had been through its pool
    /// once, MiB (0 when not asked for).
    pub rss_mib: f64,
}

impl LoadStats {
    /// Fold `o`'s counts into `self` (sweeps, wall and RSS excluded).
    pub fn add_counts(&mut self, o: &LoadStats) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.submissions += o.submissions;
        self.refused += o.refused;
        self.mismatched += o.mismatched;
        self.cancelled += o.cancelled;
        self.quarantined += o.quarantined;
    }

    /// Latencies of every completed sweep, seconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency).collect()
    }
}

/// Submit one sweep and poll it to completion, checking the served body
/// against the reference built from the acknowledged job ids.
pub fn run_sweep(
    addr: &str,
    sweep: &PreparedSweep,
    stats: &mut LoadStats,
    trace: Option<(&Tracer, &str)>,
) -> io::Result<()> {
    let timed = |name: &'static str, path: &str, body: &str| {
        let start = Instant::now();
        let method = if body.is_empty() { "GET" } else { "POST" };
        let reply = request(addr, method, path, body);
        if let Some((t, lane)) = trace {
            t.record(lane, name, start, start.elapsed());
        }
        reply
    };
    let jobs = sweep.specs.len() as u64;
    let started = Instant::now();
    stats.submissions += 1;
    stats.attempted += jobs;
    let (status, reply) = timed("http.post_sweeps", "/sweeps", &sweep.body)?;
    if status == 429 || status == 503 {
        stats.refused += 1;
        stats.failed += jobs;
        return Ok(());
    }
    if status != 202 {
        return Err(io::Error::other(format!(
            "submission refused ({status}): {reply}"
        )));
    }
    let (id, first) = parse_ack(&reply, jobs)
        .ok_or_else(|| io::Error::other(format!("unparseable acknowledgment: {reply}")))?;
    let path = format!("/sweeps/{id}");
    let interval = stats
        .done
        .last()
        .map_or(POLL_MIN, |d| Duration::from_secs_f64(d.latency / 16.0))
        .clamp(POLL_MIN, POLL_MAX);
    let served = loop {
        thread::sleep(interval);
        match timed("http.get_sweep", &path, "")? {
            (200, body) if body.starts_with("complete") => break body,
            (200, _) => {}
            (status, body) => {
                return Err(io::Error::other(format!("poll failed ({status}): {body}")))
            }
        }
    };
    let latency = started.elapsed();
    if let Some((t, lane)) = trace {
        t.record(lane, "tenant.sweep", started, latency);
    }
    stats.completed += jobs;
    for line in served.lines().skip(2) {
        if line.contains("quarantined=breaker-open") {
            stats.quarantined += 1;
        } else if line.contains(" output=cancelled") {
            stats.cancelled += 1;
        }
    }
    let expected = sweep.expected(first);
    let retired = if served == expected {
        sweep.retired
    } else {
        eprintln!(
            "DIGEST MISMATCH on sweep {id}\n--- served ---\n{served}--- expected ---\n{expected}"
        );
        stats.mismatched += 1;
        stats.failed += jobs;
        0
    };
    stats.done.push(Done {
        latency: latency.as_secs_f64(),
        retired,
    });
    Ok(())
}

/// `sweep <id>\njobs <first>..=<last>\n` with `last - first + 1 == jobs`.
fn parse_ack(reply: &str, jobs: u64) -> Option<(u64, u64)> {
    let mut lines = reply.lines();
    let sweep = lines.next()?.strip_prefix("sweep ")?.parse().ok()?;
    let (first, last) = lines.next()?.strip_prefix("jobs ")?.split_once("..=")?;
    let (first, last): (u64, u64) = (first.parse().ok()?, last.parse().ok()?);
    (last.checked_sub(first)? + 1 == jobs).then_some((sweep, first))
}

/// The closed loop: one thread per tenant, each submitting its pool's
/// sweeps in turn (cycling) and waiting for each to complete, until
/// `seconds` have passed. A sweep in flight at the deadline completes and
/// counts. `next[t]` is how many sweeps tenant `t` has submitted in
/// earlier calls; it picks up its pool there and `next` is advanced.
/// With `rss_pid`, each tenant samples the server's peak RSS when it
/// finishes its first pass over its pool: the server keeps every result,
/// so its footprint at the end of a run would grow with the throughput;
/// after a fixed amount of work it compares across runs.
pub fn run_tenants(
    addr: &str,
    pools: &[Vec<PreparedSweep>],
    next: &mut [usize],
    seconds: f64,
    rss_pid: Option<u32>,
    tracer: Option<&Tracer>,
) -> io::Result<LoadStats> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_tenant: Vec<io::Result<LoadStats>> = thread::scope(|s| {
        let handles: Vec<_> = pools
            .iter()
            .zip(next.iter_mut())
            .enumerate()
            .map(|(t, (pool, next))| {
                s.spawn(move || {
                    let lane = format!("tenant-{t}");
                    let mut stats = LoadStats::default();
                    while Instant::now() < deadline {
                        let trace = tracer.map(|t| (t, lane.as_str()));
                        run_sweep(addr, &pool[*next % pool.len()], &mut stats, trace)?;
                        *next += 1;
                        if let (Some(pid), true) = (rss_pid, *next == pool.len()) {
                            stats.rss_mib = peak_rss_mib(&pid.to_string())?;
                        }
                    }
                    Ok(stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let mut total = LoadStats::default();
    for s in per_tenant {
        let s = s?;
        total.add_counts(&s);
        total.done.extend_from_slice(&s.done);
        total.rss_mib = total.rss_mib.max(s.rss_mib);
    }
    total.wall = started.elapsed().as_secs_f64();
    Ok(total)
}

/// The server's `/stats` counters as `name -> value`.
pub fn server_stats(addr: &str) -> io::Result<HashMap<String, u64>> {
    let (status, body) = request(addr, "GET", "/stats", "")?;
    if status != 200 {
        return Err(io::Error::other(format!("/stats answered {status}")));
    }
    Ok(body
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// A fresh, empty directory for journals under `base`, removed by
/// [`TempDir`]'s drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Create `base/<name>-<pid>`, emptying it first if it exists.
    pub fn new(base: &Path, name: &str) -> io::Result<TempDir> {
        let dir = base.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acknowledgments_parse_and_must_match_the_job_count() {
        assert_eq!(parse_ack("sweep 3\njobs 65..=128\n", 64), Some((3, 65)));
        assert_eq!(parse_ack("sweep 3\njobs 65..=128\n", 63), None);
        assert_eq!(parse_ack("sweep x\njobs 1..=1\n", 1), None);
        assert_eq!(parse_ack("sweep 1\n", 1), None);
    }

    #[test]
    fn expected_body_names_jobs_by_their_acknowledged_ids() {
        let specs: Vec<JobSpec> = ["p_add n=20 vlen=128 lmul=m1 seed=1", "plus_scan n=30"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let prepared = prepare(&[specs.clone(), specs]);
        assert_eq!(prepared[0].retired, prepared[1].retired);
        assert!(prepared[0].retired > 0);
        let first = prepared[0].expected(1);
        let later = prepared[1].expected(101);
        assert!(
            first.contains("\njob-1 cfg=") && first.contains("\njob-2 cfg="),
            "{first}"
        );
        assert!(
            later.contains("\njob-101 cfg=") && later.contains("\njob-102 cfg="),
            "{later}"
        );
        assert_ne!(
            first.lines().nth(1),
            later.lines().nth(1),
            "digest covers the ids"
        );
    }
}
