//! Host-speed calibration.
//!
//! On a shared virtual machine the speed of a vCPU drifts with what its
//! neighbours run: a fixed CPU-bound loop measured anywhere from 5 to
//! 12 M iterations/s from one second to the next, and whole runs shift
//! together, by up to 1.9× over minutes. Every time-based figure moves
//! with it. So between the measured intervals the benchmark times fixed
//! loops — code of its own, which no change to the repository's crates
//! can speed up or slow down — on as many threads as the workload has
//! workers, and scales the run's figures to the speed the loops run at
//! on a reference host. A change that makes the program faster moves the
//! scaled figures exactly as it moves the raw ones; a host that is 20%
//! slower for a minute moves neither.
//!
//! The loop runs twice, on a 1 MiB working set per thread (cache
//! resident) and on an 8 MiB one (the size of a shared last-level cache,
//! where a neighbour's cache use shows), because the simulator's working
//! sets span both; the host speed is the geometric mean of the two. The
//! serve workloads' set-up is bound by the journal's fsyncs, so their
//! calibration also times a fixed run of small appends, each fsynced, on
//! the journal's file system.
//!
//! Nothing of the program runs while a calibration does: paper-sweep
//! calibrates between sweeps, and the serve workloads between windows,
//! with the drained server stopped (`SIGSTOP`) so no background work of
//! its own can slow the loops and flatter the scaled figures.

use std::hint::black_box;
use std::io::{self, Write as _};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Words in each thread's working set for the two loops (1 MiB and
/// 8 MiB), and the loop's speed at the reference host on 2 threads, in
/// M iterations per second summed over the threads: about what a 2-vCPU
/// x86-64 virtual machine gives when its neighbours are quiet.
const LOOPS: [(usize, f64); 2] = [(1 << 18, 400.0), (1 << 21, 200.0)];

/// How long each loop of one calibration runs.
const SLICE: Duration = Duration::from_millis(150);

/// Iterations between two reads of the clock.
const CHUNK: u64 = 1 << 12;

/// Appends, each followed by an fsync, in one file-system calibration.
const FSYNCS: usize = 32;

/// Median append + fsync latency at the reference host, seconds.
const FSYNC_REFERENCE: f64 = 100e-6;

/// One thread's loop: xorshift-driven read-modify-writes at random
/// places in `buf` with a data-dependent branch. Returns iterations run.
fn spin(buf: &mut [u32], until: Instant) -> u64 {
    let mask = buf.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u32;
    let mut n = 0;
    while Instant::now() < until {
        for _ in 0..CHUNK {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = buf[i];
            if v & 1 == 0 {
                buf[i] = v.wrapping_add(x as u32);
            } else {
                acc = acc.wrapping_add(v.rotate_left(5));
            }
        }
        n += CHUNK;
    }
    black_box(acc);
    n
}

/// M iterations per second of the loop over `words`-word working sets,
/// summed over `threads` threads running it at once for [`SLICE`].
fn loop_speed(threads: usize, words: usize) -> f64 {
    thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut buf: Vec<u32> = (0..words as u32).map(|i| i ^ t as u32).collect();
                    let start = Instant::now();
                    let n = spin(&mut buf, start + SLICE);
                    n as f64 / start.elapsed().as_secs_f64() / 1e6
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum()
    })
}

/// The host's CPU speed relative to the reference: the geometric mean of
/// both loops' speeds on `threads` threads, each over its reference.
pub fn cpu_speed(threads: usize) -> f64 {
    let product: f64 = LOOPS
        .iter()
        .map(|&(words, reference)| loop_speed(threads, words) / reference)
        .product();
    product.powf(1.0 / LOOPS.len() as f64)
}

/// The flag under which the benchmark binary runs [`cpu_speed`] alone and
/// prints the result (see [`cpu_speed_in_child`]).
pub const CHILD_FLAG: &str = "--calibrate-cpu";

/// [`cpu_speed`] in a child process (this binary run with
/// [`CHILD_FLAG`]), so that the loops' 18 MiB of buffers never count
/// towards the peak RSS of a process that runs the program.
pub fn cpu_speed_in_child(threads: usize) -> io::Result<f64> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .args([CHILD_FLAG, &threads.to_string()])
        .stdin(std::process::Stdio::null())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(speed) if out.status.success() => Ok(speed),
        _ => Err(io::Error::other(format!(
            "calibration child failed ({}): {text}",
            out.status
        ))),
    }
}

/// The file system's speed relative to the reference: the reference
/// fsync latency over the median of [`FSYNCS`] appends of 64 bytes to a
/// fresh file in `dir`, each followed by `sync_all` as the journal does.
pub fn fsync_speed(dir: &Path) -> io::Result<f64> {
    let path = dir.join("calibration.probe");
    let mut file = std::fs::File::create(&path)?;
    let mut latencies = Vec::with_capacity(FSYNCS);
    for _ in 0..FSYNCS {
        let start = Instant::now();
        file.write_all(&[b'x'; 64])?;
        file.sync_all()?;
        latencies.push(start.elapsed().as_secs_f64());
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(FSYNC_REFERENCE / crate::stats::median(&latencies))
}

/// A run's speed from its calibrations: their median. A time measured on
/// the run's host times this factor is the time at the reference speed;
/// a rate is divided by it. The median over the run, not each interval's
/// neighbours, because one calibration is noisier than the drift it
/// corrects.
pub fn factor(speeds: &[f64]) -> f64 {
    crate::stats::median(speeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_speed() {
        assert_eq!(factor(&[1.0, 2.0, 0.5]), 1.0);
        assert_eq!(factor(&[0.5, 0.5]), 0.5);
    }

    #[test]
    fn the_probes_report_positive_speeds() {
        assert!(cpu_speed(2) > 0.0);
        let dir = std::env::temp_dir().join(format!("perfbench-calib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let speed = fsync_speed(&dir).expect("fsync probe");
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
        assert!(speed > 0.0);
    }
}
