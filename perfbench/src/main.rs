//! The repository benchmark. One command runs one workload for a fixed
//! time against the release build, checks every output, and prints each
//! metric by name with its unit and sample count, then one JSON result
//! line:
//!
//! ```text
//! bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` traces every other sweep or window of the same timed
//! region, adds the in-process serve replay and the layer probes, prints
//! the per-layer metrics and the tracing overhead, and writes every span
//! as a Chrome trace. Times and rates are scaled to a reference host speed
//! (see `calib`). See `README.md` for the workloads and metrics.

mod calib;
mod http_load;
mod paper;
mod probes;
mod replay;
mod specs;
mod stats;
mod trace;

use http_load::{LoadStats, PreparedSweep, ServeChild, TempDir};
use scanvec::ExecEngine;
use specs::Mix;
use stats::{mean, median, percentile, Metrics};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["paper-sweep", "serve-small", "serve-large-deadline"];

/// The end-to-end metrics, as `BENCHMARK.json` lists them: every run
/// with `--trace 0` reports exactly these.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "sweep_s",
    "sim_minstr_per_s",
    "jobs_per_s",
    "sweep_p50_ms",
    "sweep_p90_ms",
    "peak_rss_mib",
];

/// The per-layer metrics, as `BENCHMARK.json` lists them: every run with
/// `--trace 1` reports exactly these.
const PER_LAYER: [&str; 35] = [
    "serve.submit_rtt_ms",
    "serve.poll_rtt_ms",
    "serve.submit_us_per_job",
    "serve.finish_us",
    "serve.queue_wait_ms",
    "serve.shed_frac",
    "ckpt.append_us",
    "ckpt.fsyncs_per_job",
    "batch.session_acquire_us",
    "batch.session_pool_miss_ratio",
    "batch.execute_job_ms",
    "batch.stable_line_us",
    "batch.worker_busy_frac",
    "batch.straggler_s",
    "core.plan_cache.miss_ms",
    "core.plan_cache.hit_us",
    "core.plan_cache.compiles",
    "core.stage_in_ns_per_elem",
    "core.to_u32_ns_per_elem",
    "core.reset_us",
    "sim.plan.ns_per_instr.scan",
    "sim.plan.ns_per_instr.seg_scan",
    "sim.plan.ns_per_instr.radix",
    "sim.fused.ns_per_instr.scan",
    "sim.fused.ns_per_instr.seg_scan",
    "sim.fused.ns_per_instr.radix",
    "sim.fused.op_share.scan",
    "sim.fused.op_share.seg_scan",
    "sim.fused.op_share.radix",
    "sim.cancel.ns_per_instr.scan",
    "sim.cancel.ns_per_instr.seg_scan",
    "sim.cancel.ns_per_instr.radix",
    "sim.retired",
    "cost.ns_per_instr",
    "bench.trace_overhead_frac",
];

/// Closed-loop tenants on the serve workloads.
const TENANTS: u64 = 2;

/// Distinct sweeps generated per tenant; a tenant cycles through them.
const POOL: u64 = 32;

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Worker threads of the server, and threads of its host calibration.
const WORKERS: usize = 2;

/// Per-job deadline on serve-large-deadline: far above any job's time, so
/// a cancellation means something went wrong.
const DEADLINE_MS: u64 = 60_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
    commit: String,
    rustc: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\n\
         usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20                --serve-bin <path> --out-dir <dir> [--commit <id>] [--rustc <version>]",
        WORKLOADS.join("|")
    );
    exit(2)
}

impl Args {
    fn parse() -> Args {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            serve_bin: PathBuf::new(),
            out_dir: PathBuf::new(),
            commit: "unknown".to_string(),
            rustc: "unknown".to_string(),
        };
        let mut seen = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let Some(value) = it.next() else {
                usage(&format!("{flag} needs a value"))
            };
            let bad = || -> ! { usage(&format!("bad {flag} value `{value}`")) };
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value.clone(),
                "--seed" => a.seed = value.parse().unwrap_or_else(|_| bad()),
                "--seconds" => {
                    a.seconds = value.parse().unwrap_or_else(|_| bad());
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        bad()
                    }
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => bad(),
                    }
                }
                "--serve-bin" => a.serve_bin = PathBuf::from(&value),
                "--out-dir" => a.out_dir = PathBuf::from(&value),
                "--commit" => a.commit = value.clone(),
                "--rustc" => a.rustc = value.clone(),
                _ => bad(),
            }
            seen.push(flag);
        }
        for required in [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--serve-bin",
            "--out-dir",
        ] {
            if !seen.iter().any(|f| f == required) {
                usage(&format!("missing {required}"))
            }
        }
        a
    }

    fn stamp(&self) -> Vec<(&'static str, String)> {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        vec![
            ("workload", self.workload.clone()),
            ("seed", self.seed.to_string()),
            ("seconds", self.seconds.to_string()),
            ("trace", u8::from(self.trace).to_string()),
            ("commit", self.commit.clone()),
            ("nproc", nproc.to_string()),
            ("rustc", self.rustc.clone()),
        ]
    }
}

/// Everything one run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Metrics,
    per_layer: Metrics,
}

type RunResult = Result<Outcome, Box<dyn std::error::Error>>;

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(calib::CHILD_FLAG) {
        let threads = argv.get(2).and_then(|t| t.parse().ok()).unwrap_or(WORKERS);
        println!("{}", calib::cpu_speed(threads));
        return;
    }
    let args = Args::parse();
    let stamp = args.stamp();
    println!(
        "perfbench {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        exit(1)
    }
    let tracer = Tracer::default();
    let outcome = match args.workload.as_str() {
        "paper-sweep" => paper_sweep(&args, &tracer),
        "serve-small" => serve(&args, Mix::Small, None, &tracer),
        _ => serve(&args, Mix::Large, Some(DEADLINE_MS), &tracer),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            exit(1)
        }
    };
    println!("end-to-end (tracing off):\n{}", out.end_to_end.table());
    out.end_to_end.expect_names(&END_TO_END);
    if args.trace {
        out.per_layer.expect_names(&PER_LAYER);
    }
    let reported = if args.trace {
        println!("per-layer (traced run):\n{}", out.per_layer.table());
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, tracer.chrome_json(&stamp)) {
            Ok(()) => println!("spans -> {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                exit(1)
            }
        }
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "correct={} attempted={} failed={} failed_frac={:.6}",
        out.correct,
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!(
        "{}",
        stats::result_json(out.correct, out.attempted, out.failed, reported)
    );
}

/// What a run measured for the end-to-end metrics, as measured on the
/// run's host; [`Figures::metrics`] scales them to the reference speed.
struct Figures {
    /// Set-up time as measured and scaled to the reference host, seconds,
    /// and the samples it summarizes.
    setup: (f64, f64, usize),
    /// Mean sweep latency, seconds.
    sweep: f64,
    /// Median and 90th-percentile sweep latency, seconds.
    p50: f64,
    p90: f64,
    /// Simulated instructions per second, millions.
    minstr_per_s: f64,
    /// Completed jobs per second.
    jobs_per_s: f64,
    /// Sweeps the figures summarize.
    sweeps: usize,
    /// Peak RSS, MiB.
    rss_mib: f64,
    /// The run's host CPU speed relative to the reference
    /// ([`calib::factor`]).
    speed: f64,
}

impl Figures {
    /// The end-to-end metrics: times multiplied and rates divided by the
    /// host speed, each noted with its value as measured.
    fn metrics(&self) -> Metrics {
        let (n, k) = (self.sweeps, self.speed);
        let mut m = Metrics::default();
        let mut push = |name, raw: f64, scaled, unit, samples, extra: &str| {
            let note = format!("{raw:.6} {unit} as measured{extra}");
            m.push_note(name, scaled, unit, samples, &note);
        };
        let (setup, setup_scaled, setup_samples) = self.setup;
        push("setup_s", setup, setup_scaled, "s", setup_samples, "");
        push("sweep_s", self.sweep, self.sweep * k, "s", n, "");
        let p50 = self.p50 * 1e3;
        push("sweep_p50_ms", p50, p50 * k, "ms", n, "");
        let thin = match stats::highest_percentile(n, 10) {
            Some(p) if p >= 90.0 => String::new(),
            _ => format!("; only {n} sweeps: fewer than 10 beyond p90"),
        };
        let p90 = self.p90 * 1e3;
        push("sweep_p90_ms", p90, p90 * k, "ms", n, &thin);
        let minstr = self.minstr_per_s;
        push("sim_minstr_per_s", minstr, minstr / k, "Minstr/s", n, "");
        let jobs = self.jobs_per_s;
        push("jobs_per_s", jobs, jobs / k, "jobs/s", n, "");
        m.push("peak_rss_mib", self.rss_mib, "MiB", 1);
        m
    }
}

/// Windows a serve run's timed region is cut into. The tenants drain at
/// the end of each and the host is calibrated between them. Throughput
/// and mean latency are computed per window and the median across
/// windows is reported, so a seconds-long slowdown from outside the
/// benchmark moves a window or two, not the figure; the latency
/// percentiles pool every sweep. With `--trace 1` every other window is
/// traced.
const WINDOWS: usize = 8;

/// The end-to-end figures of a serve run from its (untraced) windows.
fn serve_figures(
    windows: &[&LoadStats],
    setup: (f64, f64, usize),
    rss_mib: f64,
    speed: f64,
) -> Figures {
    let per_window = |f: &dyn Fn(&LoadStats) -> f64| -> f64 {
        median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    // Percentiles over every sweep of the windows, so p90 has the run's
    // full tail (more than 10 sweeps) beyond it.
    let all: Vec<f64> = windows.iter().flat_map(|w| w.latencies()).collect();
    let rates: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.1}", w.completed as f64 / w.wall))
        .collect();
    println!("jobs/s per window, as measured: {}", rates.join(" "));
    Figures {
        setup,
        sweep: per_window(&|w| mean(&w.latencies())),
        p50: percentile(&all, 50.0),
        p90: percentile(&all, 90.0),
        minstr_per_s: per_window(&|w| {
            w.done.iter().map(|d| d.retired).sum::<u64>() as f64 / w.wall / 1e6
        }),
        jobs_per_s: per_window(&|w| w.completed as f64 / w.wall),
        sweeps: all.len(),
        rss_mib,
        speed,
    }
}

/// Per-layer metrics a workload does not exercise: reported as 0 with the
/// reason, so every run prints the full set.
fn not_exercised(m: &mut Metrics, names: &[(&'static str, &'static str)], why: &str) {
    for &(name, unit) in names {
        m.push_note(name, 0.0, unit, 0, why);
    }
}

/// The workload-independent probes: execution tiers, plan cache, staging,
/// costing.
fn probe_layers(m: &mut Metrics, tracer: &Tracer) -> Result<(), scanvec::ScanError> {
    let (miss, hit) = probes::plan_cache(tracer)?;
    m.push("core.plan_cache.miss_ms", miss, "ms", 1);
    m.push("core.plan_cache.hit_us", hit, "us", 1);
    let (stage, read, reset) = probes::staging(tracer)?;
    m.push("core.stage_in_ns_per_elem", stage, "ns/elem", 1);
    m.push("core.to_u32_ns_per_elem", read, "ns/elem", 1);
    m.push("core.reset_us", reset, "us", 1);
    let plan = probes::tier(ExecEngine::Plan, false, tracer)?;
    let fused = probes::tier(ExecEngine::Fused, false, tracer)?;
    let cancel = probes::tier(ExecEngine::Plan, true, tracer)?;
    const PLAN: [&str; 3] = [
        "sim.plan.ns_per_instr.scan",
        "sim.plan.ns_per_instr.seg_scan",
        "sim.plan.ns_per_instr.radix",
    ];
    const FUSED: [&str; 3] = [
        "sim.fused.ns_per_instr.scan",
        "sim.fused.ns_per_instr.seg_scan",
        "sim.fused.ns_per_instr.radix",
    ];
    const SHARE: [&str; 3] = [
        "sim.fused.op_share.scan",
        "sim.fused.op_share.seg_scan",
        "sim.fused.op_share.radix",
    ];
    const CANCEL: [&str; 3] = [
        "sim.cancel.ns_per_instr.scan",
        "sim.cancel.ns_per_instr.seg_scan",
        "sim.cancel.ns_per_instr.radix",
    ];
    for i in 0..probes::KERNELS.len() {
        let (p, retired) = plan[i];
        assert_eq!(retired, fused[i].1, "tiers disagree on retired count");
        assert_eq!(retired, cancel[i].1, "cancel token changed retired count");
        m.push(PLAN[i], p.ns_per_instr, "ns/instr", 1);
        m.push(FUSED[i], fused[i].0.ns_per_instr, "ns/instr", 1);
        m.push(SHARE[i], fused[i].0.op_share, "ratio", 1);
        m.push(CANCEL[i], cancel[i].0.ns_per_instr, "ns/instr", 1);
    }
    m.push("cost.ns_per_instr", probes::cost(tracer), "ns/instr", 1);
    Ok(())
}

fn paper_sweep(args: &Args, tracer: &Tracer) -> RunResult {
    let run = paper::run(args.seconds, args.trace.then_some(tracer))?;
    let correct = run.sweeps.iter().all(|s| s.correct);
    let attempted = run
        .sweeps
        .iter()
        .map(|s| s.result.reports.len() as u64)
        .sum();
    let failed = run.sweeps.iter().map(|s| s.failed).sum();
    let (traced, untraced): (Vec<&paper::Sweep>, Vec<&paper::Sweep>) =
        run.sweeps.iter().partition(|s| s.traced);
    // Each sweep is one sample of the grid's wall time. The grid's jobs
    // and instructions are fixed, so throughput is those over the mean.
    let times: Vec<f64> = untraced.iter().map(|s| s.secs).collect();
    let setup: Vec<f64> = untraced.iter().flat_map(|s| s.setup.clone()).collect();
    let jobs = untraced[0].result.reports.len() as f64;
    let speed = calib::factor(&run.speeds);
    println!(
        "host speed: CPU {speed:.3} (median of {})",
        run.speeds.len()
    );
    let figures = Figures {
        setup: (mean(&setup), mean(&setup) * speed, setup.len()),
        sweep: mean(&times),
        p50: median(&times),
        p90: percentile(&times, 90.0),
        minstr_per_s: paper::RETIRED as f64 / mean(&times) / 1e6,
        jobs_per_s: jobs / mean(&times),
        sweeps: times.len(),
        rss_mib: http_load::peak_rss_mib("self")?,
        speed,
    };
    let end_to_end = figures.metrics();

    let mut m = Metrics::default();
    if args.trace {
        let no_serve = "paper-sweep runs in-process: no HTTP, no serve state";
        not_exercised(
            &mut m,
            &[
                ("serve.submit_rtt_ms", "ms"),
                ("serve.poll_rtt_ms", "ms"),
                ("serve.submit_us_per_job", "us/job"),
                ("serve.finish_us", "us"),
                ("serve.queue_wait_ms", "ms"),
                ("serve.shed_frac", "ratio"),
            ],
            no_serve,
        );
        not_exercised(
            &mut m,
            &[("ckpt.append_us", "us")],
            "paper-sweep has no journal",
        );
        m.push_note(
            "ckpt.fsyncs_per_job",
            0.0,
            "count",
            traced.len(),
            "no journal",
        );
        not_exercised(
            &mut m,
            &[("batch.session_acquire_us", "us")],
            "BatchRunner acquires sessions internally",
        );
        let jobs: usize = traced.iter().map(|s| s.result.reports.len()).sum();
        let sessions: u64 = traced.iter().map(|s| s.sessions).sum();
        m.push(
            "batch.session_pool_miss_ratio",
            sessions as f64 / jobs as f64,
            "ratio",
            jobs,
        );
        let walls: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.result.reports.iter().map(|r| r.wall.as_secs_f64() * 1e3))
            .collect();
        m.push("batch.execute_job_ms", mean(&walls), "ms", walls.len());
        let mut lines = Vec::new();
        for s in &traced {
            for r in &s.result.reports {
                let (_, d) = tracer.time("bench", "batch.stable_line", || r.stable_line());
                lines.push(d.as_secs_f64() * 1e6);
            }
        }
        m.push("batch.stable_line_us", mean(&lines), "us", lines.len());
        let (busy, straggle): (Vec<f64>, Vec<f64>) =
            traced.iter().map(|s| paper::balance(&s.result)).unzip();
        m.push("batch.worker_busy_frac", median(&busy), "ratio", busy.len());
        m.push("batch.straggler_s", median(&straggle), "s", straggle.len());
        let compiles: Vec<f64> = traced.iter().map(|s| s.compiles as f64).collect();
        m.push(
            "core.plan_cache.compiles",
            median(&compiles),
            "count",
            compiles.len(),
        );
        probe_layers(&mut m, tracer)?;
        m.push("sim.retired", paper::RETIRED as f64, "count", 1);
        let traced_times: Vec<f64> = traced.iter().map(|s| s.secs).collect();
        m.push(
            "bench.trace_overhead_frac",
            median(&traced_times) / median(&times) - 1.0,
            "ratio",
            traced_times.len(),
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer: m,
    })
}

fn serve(args: &Args, mix: Mix, deadline_ms: Option<u64>, tracer: &Tracer) -> RunResult {
    let tmp = TempDir::new(&args.out_dir, "journals")?;
    // Inputs and their reference results, before anything is timed.
    let mut sweeps = vec![specs::warmup(args.seed)];
    for t in 0..TENANTS {
        sweeps.extend((0..POOL).map(|i| specs::sweep(mix, args.seed, t, i)));
    }
    let started = Instant::now();
    let mut prepared = http_load::prepare(&sweeps);
    let pool_retired: u64 = prepared.iter().map(|s| s.retired).sum();
    println!(
        "reference: {} sweeps, {} jobs, {pool_retired} instructions in {:.2} s",
        prepared.len(),
        sweeps.iter().map(Vec::len).sum::<usize>(),
        started.elapsed().as_secs_f64()
    );
    let warmup = prepared.remove(0);
    let mut pools: Vec<Vec<PreparedSweep>> = Vec::new();
    for _ in 0..TENANTS {
        pools.push(prepared.drain(..POOL as usize).collect());
    }

    // Set-up: a fresh server and journal, healthy, one warm-up sweep.
    // Repeated, each after a file-system calibration; the last server is
    // the one measured.
    let (mut setups, mut starts, mut warmups) = (Vec::new(), Vec::new(), Vec::new());
    let mut fsync_speeds = Vec::new();
    let mut clean_exits = true;
    let mut warm = LoadStats::default();
    let mut server = None;
    for i in 0..SETUP_REPS {
        fsync_speeds.push(calib::fsync_speed(&tmp.0)?);
        warm = LoadStats::default();
        let start = Instant::now();
        let child = ServeChild::start(
            &args.serve_bin,
            &tmp.0.join(format!("serve-{i}.journal")),
            deadline_ms,
        )?;
        let healthy = start.elapsed().as_secs_f64();
        http_load::run_sweep(&child.addr, &warmup, &mut warm, None)?;
        setups.push(start.elapsed().as_secs_f64());
        starts.push(healthy);
        warmups.push(setups[i] - healthy);
        if i + 1 < SETUP_REPS {
            clean_exits &= child.shutdown()?;
        } else {
            server = Some(child);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.clone();

    // The timed region: windows with the tenants drained and the host
    // calibrated between them; with tracing, every other window traced.
    let len = args.seconds / WINDOWS as f64;
    let mut next = vec![0; TENANTS as usize];
    let mut speeds = Vec::new();
    let mut calibrate = || -> std::io::Result<()> {
        let (cpu, fsync) = server.calibrate(WORKERS, &tmp.0)?;
        speeds.push(cpu);
        fsync_speeds.push(fsync);
        Ok(())
    };
    calibrate()?;
    let mut windows = Vec::new();
    for w in 0..WINDOWS {
        let traced = args.trace && w % 2 == 1;
        let tracer = traced.then_some(tracer);
        let load =
            http_load::run_tenants(&addr, &pools, &mut next, len, Some(server.pid()), tracer)?;
        windows.push((traced, load));
        calibrate()?;
    }
    let mut rss_mib = windows.iter().map(|(_, l)| l.rss_mib).fold(0.0, f64::max);
    if rss_mib == 0.0 {
        // No tenant got through its pool: take the peak so far.
        rss_mib = http_load::peak_rss_mib(&server.pid().to_string())?;
    }
    let counters = http_load::server_stats(&addr)?;
    clean_exits &= server.shutdown()?;

    // Cross-check what the client saw against the server's own counters.
    let mut seen = warm.clone();
    let mut timed = LoadStats::default();
    for (_, load) in &windows {
        seen.add_counts(load);
        timed.add_counts(load);
    }
    let count = |k: &str| counters.get(k).copied().unwrap_or(u64::MAX);
    let consistent = count("completed") == seen.completed
        && count("shed") + count("injected_shed") == seen.refused
        && count("cancelled") == seen.cancelled
        && count("quarantined") == seen.quarantined;
    if !consistent {
        eprintln!(
            "perfbench: client counts disagree with /stats: client {seen:?}\nserver {counters:?}"
        );
    }
    if !clean_exits {
        eprintln!("perfbench: rvv-serve did not exit cleanly on shutdown");
    }
    let mut correct = consistent && clean_exits && seen.mismatched == 0;
    let (traced, untraced): (Vec<_>, Vec<_>) = windows.iter().partition(|(t, _)| *t);
    let untraced: Vec<&LoadStats> = untraced.into_iter().map(|(_, l)| l).collect();
    let traced: Vec<&LoadStats> = traced.into_iter().map(|(_, l)| l).collect();
    // Start-up is CPU work; the warm-up sweep, when the disk is busy, is
    // bound by its 128 fsyncs.
    let (cpu, fsync) = (calib::factor(&speeds), calib::factor(&fsync_speeds));
    let (start, warm_up) = (median(&starts), median(&warmups));
    println!(
        "set-up, as measured: start to healthy {start:.6} s, warm-up sweep {warm_up:.6} s \
         (medians of {SETUP_REPS}); host speed: CPU {cpu:.3}, fsync {fsync:.3}"
    );
    let setup = (median(&setups), start * cpu + warm_up * fsync, SETUP_REPS);
    let end_to_end = serve_figures(&untraced, setup, rss_mib, cpu).metrics();

    let mut m = Metrics::default();
    if args.trace {
        let ms = |name: &str| mean(&tracer.durations(name)) * 1e3;
        let n = |name: &str| tracer.durations(name).len();
        m.push(
            "serve.submit_rtt_ms",
            ms("http.post_sweeps"),
            "ms",
            n("http.post_sweeps"),
        );
        m.push(
            "serve.poll_rtt_ms",
            ms("http.get_sweep"),
            "ms",
            n("http.get_sweep"),
        );
        m.push(
            "serve.shed_frac",
            timed.refused as f64 / timed.submissions as f64,
            "ratio",
            timed.submissions as usize,
        );
        let r = replay::run(
            &warmup,
            &pools,
            deadline_ms.map(Duration::from_millis),
            &tmp.0,
            args.seconds / 4.0,
            tracer,
        )?;
        correct &= r.mismatched == 0 && r.not_ok == 0;
        let submit_total: f64 = tracer.durations("serve.submit").iter().sum();
        m.push(
            "serve.submit_us_per_job",
            submit_total * 1e6 / r.jobs as f64,
            "us/job",
            r.jobs as usize,
        );
        m.push(
            "serve.finish_us",
            ms("serve.finish") * 1e3,
            "us",
            n("serve.finish"),
        );
        m.push(
            "serve.queue_wait_ms",
            ms("serve.next_job"),
            "ms",
            n("serve.next_job"),
        );
        m.push(
            "ckpt.append_us",
            probes::journal_append(&tmp.0, tracer)?,
            "us",
            1,
        );
        m.push(
            "ckpt.fsyncs_per_job",
            r.fsyncs_per_job,
            "count",
            r.jobs as usize,
        );
        m.push(
            "batch.session_acquire_us",
            ms("batch.session_for") * 1e3,
            "us",
            n("batch.session_for"),
        );
        m.push(
            "batch.session_pool_miss_ratio",
            r.pool_miss_ratio,
            "ratio",
            r.jobs as usize,
        );
        m.push(
            "batch.execute_job_ms",
            ms("batch.execute_job"),
            "ms",
            n("batch.execute_job"),
        );
        m.push(
            "batch.stable_line_us",
            ms("batch.stable_line") * 1e3,
            "us",
            n("batch.stable_line"),
        );
        m.push("batch.worker_busy_frac", r.worker_busy_frac, "ratio", 1);
        m.push("batch.straggler_s", r.straggler_s, "s", 1);
        m.push("core.plan_cache.compiles", r.compiles as f64, "count", 1);
        probe_layers(&mut m, tracer)?;
        m.push("sim.retired", pool_retired as f64, "count", 1);
        let latencies =
            |ws: &[&LoadStats]| -> Vec<f64> { ws.iter().flat_map(|w| w.latencies()).collect() };
        let traced = latencies(&traced);
        m.push(
            "bench.trace_overhead_frac",
            median(&traced) / median(&latencies(&untraced)) - 1.0,
            "ratio",
            traced.len(),
        );
    }
    Ok(Outcome {
        correct,
        attempted: timed.attempted,
        failed: timed.failed,
        end_to_end,
        per_layer: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn host_speed_scales_times_up_and_rates_down() {
        let figures = Figures {
            setup: (2.0, 1.0, 3),
            sweep: 4.0,
            p50: 3.0,
            p90: 5.0,
            minstr_per_s: 100.0,
            jobs_per_s: 10.0,
            sweeps: 120,
            rss_mib: 64.0,
            speed: 0.5,
        };
        let m = figures.metrics();
        let value = |name: &str| m.0.iter().find(|x| x.name == name).expect(name).value;
        assert_eq!(value("setup_s"), 1.0);
        assert_eq!(value("sweep_s"), 2.0);
        assert_eq!(value("sweep_p50_ms"), 1500.0);
        assert_eq!(value("sweep_p90_ms"), 2500.0);
        assert_eq!(value("sim_minstr_per_s"), 200.0);
        assert_eq!(value("jobs_per_s"), 20.0);
        assert_eq!(value("peak_rss_mib"), 64.0);
        m.expect_names(&END_TO_END);
    }

    #[test]
    fn reported_names_match_benchmark_json_and_are_valid() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        assert_eq!(listed(&json, "end_to_end"), END_TO_END);
        assert_eq!(listed(&json, "per_layer"), PER_LAYER);
        for w in listed(&json, "workloads") {
            assert!(WORKLOADS.contains(&w.as_str()), "{w} is not a workload");
        }
        for name in END_TO_END.iter().chain(&PER_LAYER).chain(&WORKLOADS) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
    }
}
