//! Sample sets and the report ledger every workload fills.

use std::collections::BTreeMap;
use std::time::Instant;

/// A set of timing (or other) observations.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.0.len().max(1) as f64
    }

    /// Quantile `q` in `0..=1`, linearly interpolated between the two
    /// nearest order statistics; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Everything one invocation reports: named metric values, the timing
/// samples behind them, the operations attempted and failed, and the
/// outcome of every output check.
#[derive(Default)]
pub struct Ledger {
    metrics: BTreeMap<String, (f64, &'static str)>,
    timings: BTreeMap<String, (Samples, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
}

impl Ledger {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a timing sample set (printed with median, quartiles and
    /// count) under `name`.
    pub fn timing(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        let entry = self.timings.entry(name.to_string()).or_insert((Samples::default(), unit));
        entry.0.extend(samples);
    }

    /// Records an output check; a failed check makes the run incorrect
    /// and counts as a failed operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        if !ok {
            eprintln!("perfbench: CHECK FAILED: {what}");
            self.failed += 1;
        }
        self.attempted += 1;
        self.checks.push((what, ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Human-readable report: every timing with its median, quartiles,
    /// named tail percentile and sample count, then every check.
    pub fn print_details(&self) {
        for (name, (s, unit)) in &self.timings {
            let mut line = format!(
                "timing {name}: median {:.6} {unit} (q1 {:.6}, q3 {:.6}, n={})",
                s.median(),
                s.quantile(0.25),
                s.quantile(0.75),
                s.len()
            );
            // The highest percentile with at least ten samples beyond it.
            for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)] {
                if (s.len() as f64) * (1.0 - q) >= 10.0 {
                    line.push_str(&format!(", {label} {:.6} {unit}", s.quantile(q)));
                    break;
                }
            }
            println!("{line}");
        }
        for (what, ok) in &self.checks {
            println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
    }

    /// The final result line: exactly the metrics named in `names`
    /// (metrics a workload does not define read 0 and are listed on a
    /// line of their own first).
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let mut undefined = Vec::new();
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some((v, u)) => {
                    assert_eq!(*u, unit, "metric {name} recorded with unit {u}, declared {unit}");
                    *v
                }
                None => {
                    undefined.push(name);
                    0.0
                }
            };
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        if !undefined.is_empty() {
            println!("not defined on this workload (reported as 0): {}", undefined.join(", "));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}
