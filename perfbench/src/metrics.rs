//! The metric registry, the summary statistics behind it, and the result
//! line the benchmark ends with.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; the
//! self-test keeps the two in step.

use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn m(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// Metrics of an untraced run (`--trace 0`), reported for every workload.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("jobs_per_s", "1/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("job_s_tail", "s", "lower"),
    ("hit_s_p50", "s", "lower"),
    ("qor_cost_geo", "cost", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Layers timed by spans in a traced run; each gives `<layer>_s` (self
/// seconds) and `<layer>_calls`.
pub const SPAN_LAYERS: &[&str] = &[
    "core.synth",
    "core.evaluate",
    "power.traces",
    "power.simulate",
    "power.estimate",
    "rtl.build",
    "rtl.fingerprint",
    "rtl.area",
    "sched.schedule",
    "dfg.flatten",
    "rtl.cosim",
    "lint.verify",
    "serve.rtt",
    "serve.store_load",
    "serve.store_write",
    "util.frame_rt",
];

/// Per-layer metrics of a traced run (`--trace 1`) beyond the span pairs.
const LAYER_EXTRA: &[(&str, &str, &str)] = &[
    ("core.eval_incr_s", "s", "lower"),
    ("core.apply_s", "s", "lower"),
    ("core.lns_s", "s", "lower"),
    ("core.evaluated", "count", "lower"),
    ("core.rejected", "count", "lower"),
    ("core.eval_hit_ratio", "ratio", "higher"),
    ("core.configs_skipped", "count", "lower"),
    ("core.rolled_back", "count", "lower"),
    ("core.undo_bytes_peak", "bytes", "lower"),
    ("core.lns_ruins", "count", "lower"),
    ("core.lns_accept_ratio", "ratio", "higher"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.exec_s", "s", "lower"),
    ("serve.transport_s", "s", "lower"),
    ("serve.transport_s_p50", "s", "lower"),
    ("serve.job_cache_hit_ratio", "ratio", "higher"),
    ("serve.warm_area_hits", "count", "higher"),
    ("serve.queue_rejected", "count", "lower"),
    ("serve.cache_discards", "count", "lower"),
    ("trace.jobs_per_s", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
];

/// Every end-to-end metric, in output order.
pub fn end_to_end() -> Vec<MetricDef> {
    END_TO_END.iter().map(|&(n, u, b)| m(n, u, b)).collect()
}

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for layer in SPAN_LAYERS {
        v.push(m(&format!("{layer}_s"), "s", "lower"));
        v.push(m(&format!("{layer}_calls"), "count", "lower"));
    }
    v.extend(LAYER_EXTRA.iter().map(|&(n, u, b)| m(n, u, b)));
    v
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Harrell–Davis estimate of quantile `p` of `v`: the mean of the order
/// statistics weighted by a Beta((n + 1)p, (n + 1)(1 − p)) density. Unlike
/// a single order statistic it does not move when two neighbouring samples
/// swap ranks, which is most of the run-to-run noise when jobs of distinct
/// cost sit near the quantile.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let (a, b) = ((n + 1.0) * p, (n + 1.0) * (1.0 - p));
    let mut below = 0.0;
    let mut acc = 0.0;
    for (i, x) in s.iter().enumerate() {
        let upto = beta_inc(a, b, (i + 1) as f64 / n);
        acc += (upto - below) * x;
        below = upto;
    }
    acc
}

/// The tail of `v`: the highest percentile with at least ten samples
/// beyond it, as a [`quantile`]. Returns `(value, percentile, samples)`;
/// with fewer than eleven samples there is no such percentile and the
/// maximum stands in (percentile 100).
pub fn tail(v: &[f64]) -> (f64, u32, usize) {
    assert!(!v.is_empty(), "tail of no samples");
    let n = v.len();
    if n < 11 {
        return (v.iter().copied().fold(f64::MIN, f64::max), 100, n);
    }
    let p = (n - 10) as f64 / n as f64;
    (quantile(v, p), (100 * (n - 10) / n) as u32, n)
}

/// The regularized incomplete beta function `I_x(a, b)`.
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + aa / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no samples");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The outcome of one benchmark run.
#[derive(Default)]
pub struct Outcome {
    /// Jobs attempted in the timed phase.
    pub attempted: u64,
    /// Attempts that failed: synthesis errors, refused submits, and every
    /// correctness-gate failure.
    pub failed: u64,
    /// Reasons for the first few failures, for the log.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Extra human-readable lines (tail percentile, sample counts, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_owned()).or_insert(0.0) += value;
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The closing JSON line over `defs`. Missing metrics read 0.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.values.get(&d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_num(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=54).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((pct, n), (81, 54));
        // Ten samples lie above the 44th of 54.
        assert!((value - 44.0).abs() < 0.6, "{value}");
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100, 2));
    }

    #[test]
    fn quantile_is_harrell_davis() {
        assert!((beta_inc(2.0, 3.0, 0.5) - 0.6875).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 50.0).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        // Weights sum to one: a constant sample is its own quantile.
        assert!((quantile(&[2.0; 34], 0.7) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
