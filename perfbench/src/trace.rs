//! Spans recorded by the traced run, kept in memory and written out once
//! as a Chrome-trace JSON (`chrome://tracing`, Perfetto), one lane per
//! tenant, worker, or probe.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The lane the call ran on (`tenant-0`, `worker-1`, `probe`, ...).
    pub lane: String,
    /// The layer function called, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// Duration of the call.
    pub dur: Duration,
}

/// An in-memory span recorder shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Record a span that started at `start` and lasted `dur`.
    pub fn record(&self, lane: &str, name: &'static str, start: Instant, dur: Duration) {
        let span = Span {
            lane: lane.to_string(),
            name,
            start: start.saturating_duration_since(self.origin),
            dur,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Time `f`, record it as a span, and return its result with its
    /// duration.
    pub fn time<T>(&self, lane: &str, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(lane, name, start, dur);
        (out, dur)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .collect()
    }

    /// The Chrome-trace JSON for every span: complete (`X`) events, one
    /// thread id per lane with its name as metadata, and `stamp` pairs in
    /// `otherData`.
    pub fn chrome_json(&self, stamp: &[(&str, String)]) -> String {
        let spans = self.spans();
        let mut lanes: Vec<&str> = spans.iter().map(|s| s.lane.as_str()).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let tid = |lane: &str| lanes.binary_search(&lane).expect("lane listed");
        let mut events = Vec::with_capacity(spans.len() + lanes.len());
        for (i, lane) in lanes.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{}\"}}}}",
                escape(lane)
            ));
        }
        for s in &spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                tid(&s.lane),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6
            ));
        }
        let mut other = String::new();
        for (i, (k, v)) in stamp.iter().enumerate() {
            if i > 0 {
                other.push(',');
            }
            let _ = write!(other, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{{other}}}}}\n",
            events.join(",\n")
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_has_one_lane_per_name_and_every_span() {
        let t = Tracer::default();
        t.time("tenant-1", "serve.submit", || ());
        t.time("tenant-0", "serve.poll", || ());
        t.time("tenant-1", "serve.poll", || ());
        let json = t.chrome_json(&[("commit", "abc\"1".to_string())]);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"commit\":\"abc\\\"1\""), "{json}");
        assert_eq!(t.durations("serve.poll").len(), 2);
    }
}
