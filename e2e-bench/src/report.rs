//! Result bookkeeping shared by the workloads: operation counts, metric
//! lists, summary statistics and the process's peak memory.

use std::fmt::Write as _;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked, aborted or returned a wrong
    /// output.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// First few failure descriptions, for stderr.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one operation, failing it when `outcome` is an error.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    /// Orders the metrics as `names` lists them. Per-layer names the
    /// workload did not measure are added as 0 and returned; an
    /// end-to-end metric is never missing.
    pub fn select(&mut self, trace: bool) -> Vec<&'static str> {
        let mut missing = Vec::new();
        let names: Vec<(&str, &'static str)> = if trace {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.iter().map(|n| (*n, "")).collect()
        };
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            match self.metrics.iter().find(|m| m.0 == name) {
                Some(m) => out.push(m.clone()),
                None => {
                    assert!(trace, "end-to-end metric {name} was not measured");
                    missing.push(name);
                    out.push((name.to_string(), 0.0, unit));
                }
            }
        }
        self.metrics = out;
        missing
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// The end-to-end metrics, in print order: every workload reports all of
/// them with `--trace 0`.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "peak_rss_mb",
    "op_cpu_p90_ms",
    "capstan_hbm_cycles_gmean",
];

/// The per-layer metrics and their units, in print order. Every workload
/// reports all of them with `--trace 1`; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("datasets.gen_s", "s"),
    ("tensor.from_coo_s", "s"),
    ("datasets.input_nnz", "count"),
    ("warmup.first_call_us", "us"),
    ("warmup.steady_us", "us"),
    ("kernels.schedule_us", "us"),
    ("kernels.hints_us", "us"),
    ("core.memory_us", "us"),
    ("core.lower_us", "us"),
    ("spatial.validate_us", "us"),
    ("spatial.print_us", "us"),
    ("spatial.bytecode_us", "us"),
    ("spatial.verify_us", "us"),
    ("core.compile_us", "us"),
    ("core.compile_layers_us", "us"),
    ("spatial.ops", "count"),
    ("spatial.loc", "count"),
    ("spatial.vec_tagged_ops", "count"),
    ("spatial.elide_tagged_ops", "count"),
    ("spatial.shardable_stages", "count"),
    ("core.image_build_ms", "ms"),
    ("core.image_mb", "MB"),
    ("core.bind_ms", "ms"),
    ("core.readback_ms", "ms"),
    ("spatial.run_ms", "ms"),
    ("spatial.run_ns_per_event", "ns"),
    ("spatial.events", "count"),
    ("capstan.cycles_hbm", "cycles"),
    ("capstan.sim_us", "us"),
    ("spatial.program_cache_hit_ratio", "ratio"),
    ("spatial.program_cache_lookups", "count"),
    ("spatial.pool_checkout_us", "us"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.server_latency_p50_ms", "ms"),
    ("serve.client_overhead_p50_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.pool_reuse_ratio", "ratio"),
    ("serve.pool_checkouts", "count"),
    ("serve.image_hit_ratio", "ratio"),
    ("serve.stage_runs", "count"),
    ("serve.rejected", "count"),
    ("serve.retried", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.ops", "count"),
];

/// Groups `(case, value)` samples by case `0..n`.
pub fn per_case(samples: &[(usize, f64)], n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for &(i, v) in samples {
        out[i].push(v);
    }
    out
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// CPU time this thread has run, in seconds. Time it spends
/// descheduled, or that the host takes from its CPU (steal), does not
/// count: a single-threaded operation's CPU time is its wall time on a
/// core of its own.
pub fn thread_cpu_s() -> f64 {
    cpu_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has run, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_s(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report::default();
        r.op("a", Ok(()));
        r.op("b", Err("wrong".into()));
        r.metric("setup_s", 0.5, "s");
        let j = r.to_json();
        assert!(
            j.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
