//! Summary statistics, metric-name rules, and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`th percentile of `xs` by linear interpolation between closest
/// ranks (the same rule as Python's `statistics.quantiles(method="inclusive")`);
/// 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The percentiles a timing may be reported at, in permille, lowest first.
const PERCENTILES_PERMILLE: [usize; 4] = [500, 900, 990, 999];

/// The highest of p50/p90/p99/p99.9 that still has at least `tail`
/// samples beyond it in a run of `n` samples, or `None` when even the
/// median has fewer. A percentile with fewer samples beyond it is one
/// outlier away from a different value, so it is not reported as a
/// latency figure.
pub fn highest_percentile(n: usize, tail: usize) -> Option<f64> {
    PERCENTILES_PERMILLE
        .into_iter()
        .rev()
        .find(|&pm| n - (n * pm).div_ceil(1000) >= tail)
        .map(|pm| pm as f64 / 10.0)
}

/// Is `name` a valid metric name: starts with a letter or digit, at most
/// 64 characters, only letters, digits, `_`, `.` and `-`?
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Is `unit` a valid unit: 1 to 16 letters, digits, `_ / % . -`?
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (checked by [`valid_metric_name`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (checked by [`valid_unit`]).
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// A note printed next to the value (how it was measured, or why the
    /// workload does not exercise it).
    pub note: String,
}

/// A run's metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric. Panics on an invalid name or unit, a duplicate name,
    /// or a non-finite value: those are bugs in the benchmark.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.push_note(name, value, unit, samples, "");
    }

    /// [`Metrics::push`] with a note.
    pub fn push_note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// Panics unless exactly `names` were reported (in any order): the
    /// result line must carry the metrics `BENCHMARK.json` lists.
    pub fn expect_names(&self, names: &[&str]) {
        let mut got: Vec<&str> = self.0.iter().map(|m| m.name).collect();
        let mut want = names.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(
            got, want,
            "reported metrics differ from the benchmark's list"
        );
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = write!(
                out,
                "  {:<34} {:>16.6} {:<9} samples={}",
                m.name, m.value, m.unit, m.samples
            );
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        out
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:e}` keeps every digit the f64 holds; JSON accepts exponents.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19, 10), None);
        assert_eq!(highest_percentile(20, 10), Some(50.0));
        assert_eq!(highest_percentile(99, 10), Some(50.0));
        assert_eq!(highest_percentile(100, 10), Some(90.0));
        assert_eq!(highest_percentile(999, 10), Some(90.0));
        assert_eq!(highest_percentile(1000, 10), Some(99.0));
        assert_eq!(highest_percentile(10_000, 10), Some(99.9));
        assert_eq!(highest_percentile(1_000_000, 10), Some(99.9));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&xs), 6.0);
        assert_eq!(percentile(&xs, 90.0), 10.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn metric_names_allow_only_letters_digits_and_three_marks() {
        for ok in ["setup_s", "sim.plan.ns_per_instr.seg_scan", "p-50", "0x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/ed",
            "é",
            "q\"",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(valid_unit("Minstr/s") && valid_unit("%") && valid_unit("ns/elem"));
        assert!(!valid_unit("") && !valid_unit("M instr/s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn pushing_an_invalid_name_panics() {
        Metrics::default().push("bad name", 1.0, "s", 1);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s", 3);
        m.push("jobs_per_s", 1234.5, "jobs/s", 1);
        let line = result_json(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 8.127e-1, \"unit\": \"s\"}, \
             \"jobs_per_s\": {\"value\": 1.2345e3, \"unit\": \"jobs/s\"}}}"
        );
    }
}
