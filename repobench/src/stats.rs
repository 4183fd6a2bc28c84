//! Sample summaries and the result record every workload returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The median of `values` (mean of the middle two for an even count);
/// NaN for no samples.
pub(crate) fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail: the highest percentile that still has at least ten samples
/// above it, i.e. the 11th-largest value. Runs with fewer than eleven
/// samples have no such percentile; for them this is the maximum. NaN
/// for no samples.
pub(crate) fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n >= 11 => v[n - 11],
        n => v[n - 1],
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Milliseconds elapsed since `t`.
pub(crate) fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A metric as `BENCHMARK.json` lists it.
pub struct MetricSpec {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// The end-to-end metrics. Each workload times two arms of one
/// operation, `a` and `b` (see `README.md` for what they are per
/// workload).
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", "lower"),
    spec("a_ms.p50", "ms", "lower"),
    spec("a_ms.tail", "ms", "lower"),
    spec("b_ms.p50", "ms", "lower"),
    spec("b_ms.tail", "ms", "lower"),
    spec("ops_per_s", "1/s", "higher"),
];

/// The per-layer metrics every traced run reports. A workload reports 0
/// for the layers it makes no calls into.
pub const PER_LAYER: &[MetricSpec] = &[
    spec("nn.forward_ms", "ms", "lower"),
    spec("nn.backward_ms", "ms", "lower"),
    spec("dropback.update_ms.dense", "ms", "lower"),
    spec("dropback.update_ms.procrustes", "ms", "lower"),
    spec("dropback.wr_regen_ms", "ms", "lower"),
    spec("dropback.admitted", "count", "lower"),
    spec("dropback.evicted", "count", "lower"),
    spec("dropback.weight_sparsity", "share", "higher"),
    spec("dropback.step_share.procrustes", "share", "lower"),
    spec("tensor.im2col_ms", "ms", "lower"),
    spec("tensor.conv_fw_ms", "ms", "lower"),
    spec("tensor.conv_bw_ms", "ms", "lower"),
    spec("tensor.conv_wu_ms", "ms", "lower"),
    spec("core.resolve_workloads_ms.dense", "ms", "lower"),
    spec("core.resolve_workloads_ms.sparse", "ms", "lower"),
    spec("core.run_workloads_ms.cold", "ms", "lower"),
    spec("core.run_workloads_ms.warm", "ms", "lower"),
    spec("core.memo_hit_ratio", "share", "higher"),
    spec("core.resolve_share.cold", "share", "lower"),
    spec("core.resolve_share.warm", "share", "lower"),
    spec("core.to_json_us", "us", "lower"),
    spec("sim.evaluate_layer_us.analytic", "us", "lower"),
    spec("sim.evaluate_layer_us.tile_timed", "us", "lower"),
    spec("serve.eval_ms.memo", "ms", "lower"),
    spec("serve.eval_ms.disk", "ms", "lower"),
    spec("serve.eval_ms.computed", "ms", "lower"),
    spec("serve.memo_one_write_ms", "ms", "lower"),
    spec("serve.daemon_eval_p50_ms", "ms", "lower"),
    spec("serve.memo_hits", "count", "higher"),
    spec("serve.disk_hits", "count", "higher"),
    spec("serve.computed", "count", "lower"),
    spec("serve.shed", "count", "lower"),
    spec("serve.hit_rate", "share", "higher"),
    spec("failed_share", "share", "lower"),
    spec("trace.overhead_pct", "%", "lower"),
];

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (steps, scenario evaluations, requests).
    pub attempted: u64,
    /// Operations that failed, were shed, or produced a wrong output.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the timed metrics, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    /// Records a metric value. A value that is not finite is a broken
    /// measurement: it is not recorded and counts as a failed
    /// operation, so that it cannot read as a good figure.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.check(false);
        }
    }

    /// Records the median and tail of `values` under `<prefix>.p50` and
    /// `<prefix>.tail`, with the sample count. No samples is a failed
    /// operation.
    pub(crate) fn set_dist(&mut self, p50: &'static str, tail_name: &'static str, values: &[f64]) {
        if values.is_empty() {
            self.check(false);
            return;
        }
        self.set(p50, median(values));
        self.set(tail_name, tail(values));
        self.samples.insert(p50, values.len());
        self.samples.insert(tail_name, values.len());
    }

    /// Records the median of `values` with its sample count. No samples
    /// is a failed operation.
    pub(crate) fn set_median(&mut self, name: &'static str, values: &[f64]) {
        if values.is_empty() {
            self.check(false);
            return;
        }
        self.set(name, median(values));
        self.samples.insert(name, values.len());
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub(crate) fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub(crate) fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: exactly the metrics of `specs`, in order. A
    /// metric the workload did not record is reported as 0: the
    /// workload makes no calls into that layer, or the measurement
    /// broke, which `set` has already counted as a failure.
    pub fn result_line(&self, specs: &[MetricSpec]) -> String {
        let mut metrics = String::new();
        for (i, s) in specs.iter().enumerate() {
            let value = self.metrics.get(s.name).copied().unwrap_or(0.0);
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                s.name, s.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A run's result from its phases: the untraced phase's end-to-end
/// metrics with the median of `setup_s`, or, for a traced run, the
/// traced phase's per-layer metrics with `failed_share` and the tracing
/// overhead — how much lower the traced phase's `ops_per_s` came out.
/// The operations of every phase count either way.
pub(crate) fn combine(setup_s: &[f64], plain: Outcome, traced: Option<Outcome>) -> Outcome {
    let Some(mut traced) = traced else {
        let mut out = plain;
        out.set("setup_s", median(setup_s));
        return out;
    };
    let ops_per_s = |o: &Outcome| o.metrics.get("ops_per_s").copied().unwrap_or(0.0);
    let overhead = (ops_per_s(&plain) / ops_per_s(&traced) - 1.0) * 100.0;
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.set("trace.overhead_pct", overhead);
    traced.set("failed_share", traced.failed_share());
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn broken_measurements_count_as_failures() {
        let mut out = Outcome::default();
        out.set("a", 1.0);
        out.set("b", f64::NAN);
        out.set("c", f64::INFINITY);
        out.set_median("d", &[]);
        out.set_dist("e", "f", &[]);
        assert_eq!((out.attempted, out.failed), (4, 4));
        assert_eq!(out.metrics.keys().copied().collect::<Vec<_>>(), ["a"]);
    }
}
