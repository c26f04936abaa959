//! The row workloads: `compile`, `sweep-matrix` and `sweep-union`.
//!
//! Each operation is one row of [`pipeline::run_row`]. Its output is
//! checked against the independent reference, and its output bits,
//! interpreter events and simulated cycles against the shipped serial run
//! made during setup.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use stardust_spatial::ProgramCache;

use crate::cases::{self, Scale, Suite};
use crate::pipeline::{self, Row};
use crate::report::{self, Report};
use crate::trace::{OpKind, Tracer};
use crate::{Args, Prepared};

/// One row workload.
pub struct RowWorkload {
    /// Dataset sizes.
    scale: fn() -> Scale,
    /// The cases.
    build: fn(&Scale, u64, &mut Tracer) -> Suite,
    /// Whether rows compile through a `ProgramCache`, as the repository's
    /// sweep harness does. The compile workload compiles from scratch.
    cached: bool,
}

/// All ten Table-3 kernels at CI scale, compiled from scratch every row:
/// compile time dominates and run, image and bind are small.
pub const COMPILE: RowWorkload = RowWorkload {
    scale: Scale::ci,
    build: cases::table3,
    cached: false,
};

/// The gather-reduce kernels on the SuiteSparse stand-ins and `facebook`.
pub const SWEEP_MATRIX: RowWorkload = RowWorkload {
    scale: || Scale::divisor(4),
    build: cases::matrix_sweep,
    cached: true,
};

/// The union and intersection kernels on random operands.
pub const SWEEP_UNION: RowWorkload = RowWorkload {
    scale: || Scale::divisor(24),
    build: cases::union_sweep,
    cached: true,
};

/// Checks one row against the reference and the serial run.
fn verify(p: &Prepared, i: usize, row: &Row) -> Result<(), String> {
    crate::reference::check(&row.output, &p.expected[i])?;
    let s = &p.serial[i];
    if !pipeline::same_bits(&row.output, &s.output) {
        return Err("output bits differ from the serial run".into());
    }
    if row.events != s.events {
        return Err(format!(
            "{} events, serial run had {}",
            row.events, s.events
        ));
    }
    let bits = |x: &[(f64, f64); 3]| x.map(|(c, s)| (c.to_bits(), s.to_bits()));
    if bits(&row.sim) != bits(&s.sim) {
        return Err("simulated cycles differ from the serial run".into());
    }
    Ok(())
}

/// Runs `op` over cases `0..n` in whole passes until `budget` is spent,
/// and at least `min_passes` times.
fn passes(n: usize, min_passes: usize, budget: Duration, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    for pass in 0.. {
        if pass >= min_passes && start.elapsed() >= budget {
            return;
        }
        (0..n).for_each(&mut op);
    }
}

/// One measured row.
struct RowTime {
    case: usize,
    /// Wall time, which the tracer's spans also measure.
    wall_s: f64,
    /// The row's CPU time ([`report::thread_cpu_s`]): what the
    /// end-to-end metrics use, since a shared host's steal and
    /// descheduling move wall time but not this.
    cpu_s: f64,
    traced: bool,
}

/// The rows of one measurement.
struct Phase {
    /// Every row, in order.
    rows: Vec<RowTime>,
    /// Interpreter events of the traced rows.
    traced_events: u64,
    /// Image words of one pass over the cases.
    image_words: usize,
}

/// Measures rows for `budget`. With tracing on, passes alternate between
/// untraced and traced, so host drift affects both alike; every traced
/// row is followed by a compile probe on the same hints, outside the
/// row's own time.
fn phase(
    p: &mut Prepared,
    cache: Option<&ProgramCache>,
    budget: Duration,
    t: &mut Tracer,
    r: &mut Report,
) -> Phase {
    let tracing = t.enabled();
    let n = p.suite.cases.len();
    let mut out = Phase {
        rows: Vec::new(),
        traced_events: 0,
        image_words: 0,
    };
    let mut op = 0u64;
    // A traced run needs an untraced and a traced pass.
    let min_passes = if tracing { 2 } else { 1 };
    passes(n, min_passes, budget, |i| {
        let traced = tracing && !(op / n as u64).is_multiple_of(2);
        op += 1;
        t.set_enabled(traced);
        let case = p.suite.cases[i];
        let root = t.begin_op(OpKind::Row, op, "row");
        let start = Instant::now();
        let cpu_start = report::thread_cpu_s();
        let run = catch_unwind(AssertUnwindSafe(|| {
            pipeline::run_row(case.spec, &mut p.suite.sets[case.set], cache, t)
        }));
        let cpu_s = report::thread_cpu_s() - cpu_start;
        let wall_s = start.elapsed().as_secs_f64();
        t.close_all();
        drop(root);
        out.rows.push(RowTime {
            case: i,
            wall_s,
            cpu_s,
            traced,
        });
        let label = p.suite.label(i);
        match run {
            Ok(Ok(row)) => {
                r.op(&label, verify(p, i, &row));
                if op <= n as u64 {
                    out.image_words += row.image_words;
                }
                if traced {
                    out.traced_events += row.events;
                    let probe = t.begin_op(OpKind::Probe, op, "probe");
                    let ok = catch_unwind(AssertUnwindSafe(|| {
                        pipeline::probe_compile(case.spec, &row.hints, t)
                    }));
                    t.close_all();
                    drop(probe);
                    r.op(
                        &format!("{label} (compile probe)"),
                        ok.unwrap_or_else(|_| Err("panicked".into())),
                    );
                }
            }
            Ok(Err(e)) => r.op(&label, Err(e)),
            Err(_) => r.op(&label, Err("panicked".into())),
        }
    });
    t.set_enabled(tracing);
    out
}

/// Runs a row workload.
pub fn run(w: &RowWorkload, args: &Args, epoch: Instant) -> (Report, Tracer) {
    let mut r = Report::default();
    let scale = (w.scale)();
    let (suite, mut t, setup_s) =
        crate::timed_setups(args, epoch, |t| (w.build)(&scale, args.seed, t));
    let cache = w.cached.then(ProgramCache::new);
    let mut p = crate::prepare(suite, setup_s, cache.as_ref(), &mut t, &mut r);
    crate::print_static(&p);
    let n = p.suite.cases.len();
    let budget = Duration::from_secs_f64(args.seconds);
    let lookups_before = cache.as_ref().map_or((0, 0), ProgramCache::stats);
    let ph = phase(&mut p, cache.as_ref(), budget, &mut t, &mut r);
    let lookups_after = cache.as_ref().map_or((0, 0), ProgramCache::stats);
    // `(case, CPU seconds)` of the rows whose tracing was `traced`.
    let samples = |traced: bool| -> Vec<(usize, f64)> {
        ph.rows
            .iter()
            .filter(|row| row.traced == traced)
            .map(|row| (row.case, row.cpu_s))
            .collect()
    };
    if !args.trace {
        crate::common_metrics(&p, &mut r);
        // The 90th percentile, not the median: a shared host alternates
        // between a faster and a slower speed over seconds, and a run's
        // median falls on either; every run holds enough of the slower
        // speed for its 90th percentile (README.md).
        let cpu = samples(false);
        r.metric(
            "op_cpu_p90_ms",
            crate::case_quantile_gmean_ms(&cpu, n, 0.9),
            "ms",
        );
        crate::print_times("CPU time", &cpu, n);
        let wall: Vec<(usize, f64)> = ph.rows.iter().map(|row| (row.case, row.wall_s)).collect();
        crate::print_times("wall time", &wall, n);
        return (r, t);
    }
    let traced = samples(true);
    let rows = traced.len() as f64;
    let st = t.self_times();
    let total = |kind, name| st.get(&(kind, name)).map_or(0.0, |v| v.0 as f64);
    let per_row = |name| total(OpKind::Row, name) / rows.max(1.0);
    let probes = t.op_durations(OpKind::Probe).len().max(1) as f64;
    let per_probe = |name| total(OpKind::Probe, name) / probes;

    crate::setup_metrics(&p, &t, &mut r);
    r.metric(
        "kernels.schedule_us",
        per_row("kernels.schedule") / 1e3,
        "us",
    );
    r.metric("kernels.hints_us", per_row("kernels.hints") / 1e3, "us");
    let layers = [
        "core.memory",
        "core.lower",
        "spatial.validate",
        "spatial.print",
        "spatial.bytecode",
        "spatial.verify",
    ];
    for name in layers {
        r.metric(&format!("{name}_us"), per_probe(name) / 1e3, "us");
    }
    r.metric("core.compile_us", per_probe("core.compile") / 1e3, "us");
    let layer_sum: f64 = layers.iter().map(|n| per_probe(n)).sum();
    r.metric("core.compile_layers_us", layer_sum / 1e3, "us");
    crate::static_metrics(&p, &mut r);
    r.metric(
        "core.image_build_ms",
        per_row("core.image_build") / 1e6,
        "ms",
    );
    r.metric("core.image_mb", ph.image_words as f64 * 8.0 / 1e6, "MB");
    r.metric("core.bind_ms", per_row("core.bind") / 1e6, "ms");
    r.metric("core.readback_ms", per_row("core.readback") / 1e6, "ms");
    let run_ns = total(OpKind::Row, "spatial.run");
    r.metric("spatial.run_ms", run_ns / rows.max(1.0) / 1e6, "ms");
    let per_event = run_ns / ph.traced_events.max(1) as f64;
    r.metric("spatial.run_ns_per_event", per_event, "ns");
    r.metric("capstan.sim_us", per_row("capstan.sim") / 1e3, "us");
    let hits = (lookups_after.0 - lookups_before.0) as f64;
    let lookups = hits + (lookups_after.1 - lookups_before.1) as f64;
    let hit_ratio = if lookups > 0.0 { hits / lookups } else { 0.0 };
    r.metric("spatial.program_cache_hit_ratio", hit_ratio, "ratio");
    r.metric("spatial.program_cache_lookups", lookups, "count");
    crate::trace_metrics(&samples(false), &traced, n, &mut r);
    let row_ns: f64 = ph
        .rows
        .iter()
        .filter(|row| row.traced)
        .map(|row| row.wall_s * 1e9)
        .sum();
    let unattributed = 100.0 * total(OpKind::Row, "row") / row_ns.max(1.0);
    r.metric("trace.unattributed_pct", unattributed, "%");
    (r, t)
}
