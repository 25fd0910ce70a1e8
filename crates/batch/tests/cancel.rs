//! Cross-tier cancellation parity: a deterministically-tripped
//! [`CancelToken`] must stop a job at the *same* instruction boundary on
//! every execution tier, reporting `JobOutcome::Cancelled` with identical
//! partial counters — the contract that makes deadline supervision
//! tier-agnostic.

use rvv_batch::{BatchJob, BatchRunner};
use rvv_isa::Instr;
use rvv_sim::{
    Counters, FaultAction, FaultHook, MemAccess, Program, RetireEvent, SimError, TraceSink,
};
use scanvec::primitives::{plus_scan, seg_plus_scan};
use scanvec::{CancelToken, Engine, EnvConfig, ExecEngine, ScanError, ScanResult, Session};
use scanvec_algos::radix_sort::split_radix_sort;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn cancelled_report(exec: ExecEngine, trip_at: u64) -> (String, u64) {
    let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
    let token = CancelToken::after_checks(trip_at);
    let job = BatchJob::new("cancel-parity", EnvConfig::paper_default(), |env| {
        let v = env.from_u32(&[7u32; 512])?;
        plus_scan(env, &v)
    })
    .cancel_token(token);
    let result = BatchRunner::with_engine(1, engine).run(vec![job]);
    let report = &result.reports[0];
    (report.stable_line(), report.retired)
}

#[test]
fn cancellation_trips_at_the_same_boundary_on_every_tier() {
    let reports: Vec<(String, u64)> = ExecEngine::ALL
        .iter()
        .map(|&exec| cancelled_report(exec, 50))
        .collect();
    let (line, retired) = &reports[0];
    assert!(line.contains("cancelled at=50"), "{line}");
    // 49 boundaries passed the check before the 50th tripped it.
    assert_eq!(*retired, 49, "{line}");
    for (other, _) in &reports[1..] {
        assert_eq!(line, other, "tiers disagree on the cancelled report");
    }
}

#[test]
fn a_pre_cancelled_token_retires_nothing_on_any_tier() {
    for &exec in &ExecEngine::ALL {
        let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
        let token = CancelToken::new();
        token.cancel();
        let job = BatchJob::new("pre-cancelled", EnvConfig::paper_default(), |env| {
            let v = env.from_u32(&[1u32; 64])?;
            plus_scan(env, &v)
        })
        .cancel_token(token);
        let result = BatchRunner::with_engine(1, engine).run(vec![job]);
        let report = &result.reports[0];
        assert!(
            report.stable_line().contains("cancelled at=1"),
            "{exec:?}: {}",
            report.stable_line()
        );
        assert_eq!(report.retired, 0, "{exec:?} retired work after cancel");
    }
}

// ------------------------------------------------ multi-launch trip parity --

/// Radix-sort input: small enough for a dense trip-point sweep, large
/// enough that every pass is several launches with fused windows.
const SORT_N: usize = 96;
const SORT_BITS: u32 = 4;

fn sort_job(env: &mut Session) -> ScanResult<u64> {
    let data: Vec<u32> = (0..SORT_N as u32).map(|i| (i * 37 + 11) % 16).collect();
    let v = env.from_u32(&data)?;
    split_radix_sort(env, &v, SORT_BITS)
}

/// A fault hook that never intervenes: attaching it routes every tier
/// through the per-instruction interception path without changing what
/// runs.
struct PassThrough;

impl FaultHook for PassThrough {
    fn before(&mut self, _pc: u64, _instr: &Instr, _mem: Option<&MemAccess>) -> FaultAction {
        FaultAction::Pass
    }
}

/// Records the job-wide retired count at the start of every launch.
struct LaunchMarks {
    retired: u64,
    starts: Arc<Mutex<Vec<u64>>>,
}

impl TraceSink for LaunchMarks {
    fn retire(&mut self, _event: &RetireEvent<'_>) {
        self.retired += 1;
    }

    fn launch(&mut self, _program: &Program) {
        self.starts.lock().unwrap().push(self.retired);
    }
}

/// Job-wide retired counts at which the second and later launches start.
fn launch_boundaries() -> Vec<u64> {
    let mut env = Engine::new().session(EnvConfig::paper_default()).unwrap();
    let starts = Arc::new(Mutex::new(Vec::new()));
    env.attach_tracer(Box::new(LaunchMarks {
        retired: 0,
        starts: starts.clone(),
    }));
    sort_job(&mut env).unwrap();
    let starts = starts.lock().unwrap().clone();
    starts.into_iter().filter(|&b| b > 0).collect()
}

/// Fused ops the job commits when a watchdog stops it after `budget`
/// instructions: a window counts only when it ends at or before the line.
fn fused_ops_within(budget: u64) -> u64 {
    let engine = Engine::builder()
        .default_exec_engine(ExecEngine::Fused)
        .build();
    let mut env = engine.session(EnvConfig::paper_default()).unwrap();
    env.set_fuel_budget(Some(budget));
    let _ = sort_job(&mut env);
    env.fused_stats().ops
}

/// `(first, last)` job-wide ordinals of the first fused window that starts
/// after `from` retired instructions.
fn first_window_after(from: u64) -> (u64, u64) {
    let mut prev = fused_ops_within(from);
    for end in from + 1..from + 2_000 {
        let ops = fused_ops_within(end);
        if ops > prev {
            return (end - (ops - prev) + 1, end);
        }
        prev = ops;
    }
    panic!("no fused window within 2000 instructions of {from}");
}

fn tripped_sort(exec: ExecEngine, trip_at: u64, hooked: bool) -> (String, u64, Counters) {
    let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
    let job = BatchJob::new("cancel-sort", EnvConfig::paper_default(), move |env| {
        if hooked {
            env.attach_fault_hook(Box::new(PassThrough));
        }
        let out = sort_job(env);
        env.detach_fault_hook();
        out
    })
    .cancel_token(CancelToken::after_checks(trip_at));
    let result = BatchRunner::with_engine(1, engine).run(vec![job]);
    let report = &result.reports[0];
    (
        report.stable_line(),
        report.retired,
        report.counters.clone(),
    )
}

#[test]
fn multi_launch_trips_agree_on_every_tier_with_and_without_a_hook() {
    let bounds = launch_boundaries();
    assert!(bounds.len() >= 4, "expected a multi-launch job: {bounds:?}");
    let mut trips: Vec<u64> = bounds.iter().flat_map(|&b| [b, b + 1, b + 2]).collect();
    // Inside a fused window: at its second op and at its last op.
    let (first, last) = first_window_after(bounds[1]);
    assert!(last > first, "a window spans at least two ops");
    trips.extend([first + 1, last]);
    trips.sort_unstable();
    trips.dedup();
    for n in trips {
        let base = tripped_sort(ExecEngine::Legacy, n, false);
        assert!(base.0.contains("cancelled at="), "trip {n}: {}", base.0);
        assert_eq!(base.1, n - 1, "trip {n}: {}", base.0);
        for exec in ExecEngine::ALL {
            for hooked in [false, true] {
                let got = tripped_sort(exec, n, hooked);
                assert_eq!(got, base, "trip {n} on {exec:?} (hooked: {hooked})");
            }
        }
    }
}

/// Traps the first time it is consulted for the `at`th time; passes
/// everything once `fired` is set.
struct TrapOnce {
    at: u64,
    seen: u64,
    fired: Arc<AtomicBool>,
}

impl FaultHook for TrapOnce {
    fn before(&mut self, _pc: u64, _instr: &Instr, _mem: Option<&MemAccess>) -> FaultAction {
        self.seen += 1;
        if self.seen == self.at && !self.fired.swap(true, Ordering::Relaxed) {
            FaultAction::Trap(SimError::InjectedFault {
                what: "test",
                seq: self.at,
            })
        } else {
            FaultAction::Pass
        }
    }
}

#[test]
fn a_trapped_attempt_counts_the_boundary_it_stopped_at() {
    // The first attempt traps at its 10th boundary (9 retired), so the
    // retry starts 10 boundaries into the token's budget and trips at the
    // first instruction of its third launch.
    let bounds = launch_boundaries();
    let trip_at = 10 + bounds[1] + 1;
    let runs: Vec<(String, u64)> = ExecEngine::ALL
        .iter()
        .map(|&exec| {
            let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
            let fired = Arc::new(AtomicBool::new(false));
            let job = BatchJob::new("trap-then-cancel", EnvConfig::paper_default(), move |env| {
                env.attach_fault_hook(Box::new(TrapOnce {
                    at: 10,
                    seen: 0,
                    fired: fired.clone(),
                }));
                let out = sort_job(env);
                env.detach_fault_hook();
                out
            })
            .retries(1)
            .cancel_token(CancelToken::after_checks(trip_at));
            let result = BatchRunner::with_engine(1, engine).run(vec![job]);
            let report = &result.reports[0];
            assert_eq!(report.attempts, 2, "{exec:?}: {}", report.stable_line());
            (report.stable_line(), report.retired)
        })
        .collect();
    assert!(runs[0].0.contains("cancelled at=1"), "{}", runs[0].0);
    assert_eq!(runs[0].1, bounds[1]);
    for other in &runs[1..] {
        assert_eq!(other, &runs[0], "tiers disagree after a trapped attempt");
    }
}

#[test]
fn the_watchdog_wins_a_tie_with_a_trip_point() {
    // A watchdog of `budget` stops the job before boundary `budget + 1`;
    // a trip point there too is a tie, one boundary earlier is not.
    let budget = launch_boundaries()[1] + 5;
    for exec in ExecEngine::ALL {
        for (trip_at, want) in [
            (budget + 1, format!("timed-out budget={budget}")),
            (budget, "cancelled at=".to_string()),
        ] {
            let engine = Arc::new(Engine::builder().default_exec_engine(exec).build());
            let job = BatchJob::new("tie", EnvConfig::paper_default(), sort_job)
                .watchdog(budget)
                .cancel_token(CancelToken::after_checks(trip_at));
            let result = BatchRunner::with_engine(1, engine).run(vec![job]);
            let line = result.reports[0].stable_line();
            assert!(line.contains(&want), "{exec:?}, trip {trip_at}: {line}");
        }
    }
}

// ------------------------------------------------- fusion under a deadline --

fn seg_job(env: &mut Session) -> ScanResult<u64> {
    let data: Vec<u32> = (0..1_000u32).map(|i| i * 3 + 1).collect();
    let flags: Vec<u32> = (0..1_000u32).map(|i| u32::from(i % 37 == 0)).collect();
    let v = env.from_u32(&data)?;
    let f = env.from_u32(&flags)?;
    seg_plus_scan(env, &v, &f)
}

/// `(windows, fused ops, counters)` of one fused run, armed or not.
fn fused_run(job: fn(&mut Session) -> ScanResult<u64>, armed: bool) -> (u64, u64, Counters) {
    let engine = Engine::builder()
        .default_exec_engine(ExecEngine::Fused)
        .build();
    let mut env = engine.session(EnvConfig::paper_default()).unwrap();
    if armed {
        env.attach_cancel_token(CancelToken::new());
    }
    job(&mut env).unwrap();
    let stats = env.fused_stats();
    (stats.windows, stats.ops, env.machine().counters.clone())
}

#[test]
fn an_untripped_token_keeps_fused_windows() {
    for (name, job) in [
        (
            "seg_plus_scan",
            seg_job as fn(&mut Session) -> ScanResult<u64>,
        ),
        ("split_radix_sort", sort_job),
    ] {
        let plain = fused_run(job, false);
        assert!(plain.0 > 0, "{name}: no fused windows to compare");
        assert_eq!(
            fused_run(job, true),
            plain,
            "{name}: a token changed the run"
        );
    }
}

#[test]
fn another_thread_cancels_a_long_fused_run() {
    let engine = Engine::builder()
        .default_exec_engine(ExecEngine::Fused)
        .build();
    let mut env = engine.session(EnvConfig::paper_default()).unwrap();
    let token = CancelToken::new();
    env.attach_cancel_token(token.clone());
    let v = env.from_u32(&vec![1u32; 1 << 18]).unwrap();
    let (started, go) = std::sync::mpsc::channel();
    let canceller = std::thread::spawn(move || {
        go.recv().unwrap();
        token.cancel();
    });
    // The cancel is raised once the first launch is done, while later ones
    // run. The token is sticky, so it stops the launch in flight or, at the
    // latest, the next one at entry.
    plus_scan(&mut env, &v).unwrap();
    started.send(()).unwrap();
    let err = loop {
        if let Err(e) = plus_scan(&mut env, &v) {
            break e;
        }
    };
    canceller.join().unwrap();
    assert!(
        matches!(err, ScanError::Sim(SimError::Cancelled { seq }) if seq >= 1),
        "{err:?}"
    );

    // Reset detaches the token; the session runs correctly again.
    env.reset();
    let data: Vec<u32> = (0..4_096u32).map(|i| i % 5).collect();
    let v = env.from_u32(&data).unwrap();
    plus_scan(&mut env, &v).unwrap();
    let want: Vec<u32> = data
        .iter()
        .scan(0u32, |acc, &x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    assert_eq!(env.to_u32(&v), want);
    assert!(
        env.fused_stats().windows > 0,
        "the reset session fuses again"
    );
}
