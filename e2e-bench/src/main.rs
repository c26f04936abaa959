//! End-to-end and per-layer benchmark of the compiled Table-3 pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <compile|sweep-matrix|sweep-union|serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints its
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! operations, prints the per-layer metrics, and writes
//! every span to `e2e-bench/traces/<workload>.jsonl`. Either way
//! the last line of standard output is one JSON object, every output is
//! checked against an independent reference, and the exit code is
//! non-zero when any operation failed. `e2e-bench/README.md` lists the
//! metrics and what each one should move.

mod cases;
mod pipeline;
mod reference;
mod report;
mod rows;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use stardust_core::memory;
use stardust_core::pipeline::KernelOutput;
use stardust_spatial::{ExecStats, ProgramCache};

use cases::Suite;
use pipeline::StageInfo;
use reference::Expected;
use report::{median, Report};
use trace::{OpKind, Tracer};

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have taken
/// less than `SETUP_SECONDS` in all, so a fast set-up's median rests on
/// many samples. `setup_s` is their median, each set-up timed in CPU
/// seconds of the whole process ([`report::process_cpu_s`]): work a
/// set-up hands to other threads still counts, and a shared host's steal
/// does not.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_SECONDS: f64 = 1.0;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// The shipped serial result of one case, made during setup: what every
/// measured output must reproduce bit for bit.
pub struct Serial {
    /// `input_content_id` of the first stage's inputs.
    content_id: u64,
    output: KernelOutput,
    stats: ExecStats,
    events: u64,
    sim: [(f64, f64); 3],
    infos: Vec<StageInfo>,
    stages: Vec<stardust_core::CompiledKernel>,
}

/// A workload after setup and warm-up.
pub struct Prepared {
    suite: Suite,
    expected: Vec<Expected>,
    serial: Vec<Serial>,
    input_nnz: usize,
    setup_s: Vec<f64>,
    /// First-call and steady-state time of the warm-up layer, in µs.
    warmup: (f64, f64),
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), timing each, and keeps
/// the last result and its tracer. Earlier results are dropped outside
/// the timed region.
pub fn timed_setups<S>(
    args: &Args,
    epoch: Instant,
    mut setup: impl FnMut(&mut Tracer) -> S,
) -> (S, Tracer, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(last.take());
        let mut t = Tracer::new(args.trace, epoch);
        let root = t.begin_op(OpKind::Setup, 0, "setup");
        let start = report::process_cpu_s();
        let s = setup(&mut t);
        times.push(report::process_cpu_s() - start);
        t.end(root);
        last = Some((s, t));
    }
    let (s, t) = last.expect("at least one setup");
    (s, t, times)
}

/// Finishes setup: computes the independent reference of every case,
/// releases the COO copies, warms up, and runs each case once through the
/// shipped `Kernel::run` (or `run_cached` when `cache` is given). The
/// serial results are checked against the reference and counted as
/// operations.
pub fn prepare(
    mut suite: Suite,
    setup_s: Vec<f64>,
    cache: Option<&ProgramCache>,
    t: &mut Tracer,
    report: &mut Report,
) -> Prepared {
    let expected: Vec<Expected> = suite
        .cases
        .iter()
        .map(|c| reference::expected(c.spec, &suite.sets[c.set]))
        .collect();
    let input_nnz = suite.sets.iter().map(cases::InputSet::nnz).sum();
    for set in &mut suite.sets {
        set.coo.clear();
    }
    let warmup = warm_up(&suite, t);
    let mut serial = Vec::with_capacity(suite.cases.len());
    for (i, case) in suite.cases.iter().enumerate() {
        let set = &suite.sets[case.set];
        let kernel = case.spec.build();
        // Without a serial result nothing can be checked: a failure here
        // ends the run.
        let result = match cache {
            Some(c) => kernel.run_cached(&set.inputs, c),
            None => kernel.run(&set.inputs),
        }
        .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", suite.label(i)));
        report.op(
            &suite.label(i),
            reference::check(&result.output, &expected[i]),
        );
        let pairs: Vec<_> = result
            .stages
            .iter()
            .map(|s| (&s.compiled, &s.stats))
            .collect();
        let sim = pipeline::simulate(&pairs);
        let stats = result.total_stats();
        let infos: Vec<StageInfo> = result
            .stages
            .iter()
            .map(|s| StageInfo::of(&s.compiled))
            .collect();
        let content_id = result.stages[0]
            .compiled
            .input_content_id(&set.inputs)
            .expect("first-stage inputs are present");
        t.note(format!(
            "{{\"case\":\"{}\",\"input_content_id\":\"{content_id:016x}\"}}",
            suite.label(i)
        ));
        for (k, info) in infos.iter().enumerate() {
            t.note(info.to_json(&suite.label(i), k));
        }
        serial.push(Serial {
            content_id,
            events: pipeline::events(&stats),
            output: result.output,
            stats,
            sim,
            infos,
            stages: result.stages.into_iter().map(|s| s.compiled).collect(),
        });
    }
    Prepared {
        suite,
        expected,
        serial,
        input_nnz,
        setup_s,
        warmup,
    }
}

/// The untimed warm-up between setup and the first timed layer. Dataset
/// generation leaves allocator debt that the next allocations pay for;
/// the first call of the first compiler layer is timed on its own so that
/// stall shows as a separate number, next to the same call's steady
/// state.
fn warm_up(suite: &Suite, t: &mut Tracer) -> (f64, f64) {
    let kernel = suite.cases[0].spec.build();
    let stage = &kernel.stages[0];
    let call = || {
        let start = Instant::now();
        let plan = memory::analyze(&stage.program, &stage.stmt);
        std::hint::black_box(plan).ok();
        start.elapsed().as_secs_f64() * 1e6
    };
    let first = call();
    let steady: Vec<f64> = (0..5).map(|_| call()).collect();
    let steady = median(&steady);
    t.note(format!(
        "{{\"warmup\":\"core.memory\",\"first_call_us\":{first},\"steady_us\":{steady}}}"
    ));
    (first, steady)
}

/// Sums of the static tables over every stage of every case.
pub fn static_metrics(p: &Prepared, r: &mut Report) {
    let infos = p.serial.iter().flat_map(|s| &s.infos);
    let (mut ops, mut loc, mut vec, mut elide, mut shard) = (0, 0, 0, 0, 0);
    for i in infos {
        ops += i.ops;
        loc += i.loc;
        vec += i.vec_tagged;
        elide += i.elide_tagged;
        shard += usize::from(i.not_shardable.is_none());
    }
    r.metric("spatial.ops", ops as f64, "count");
    r.metric("spatial.loc", loc as f64, "count");
    r.metric("spatial.vec_tagged_ops", vec as f64, "count");
    r.metric("spatial.elide_tagged_ops", elide as f64, "count");
    r.metric("spatial.shardable_stages", shard as f64, "count");
    let events: u64 = p.serial.iter().map(|s| s.events).sum();
    let cycles: f64 = p.serial.iter().map(|s| s.sim[1].0).sum();
    r.metric("spatial.events", events as f64, "count");
    r.metric("capstan.cycles_hbm", cycles, "cycles");
}

/// Prints the per-stage tier yield and shard eligibility to stderr.
pub fn print_static(p: &Prepared) {
    eprintln!("stage                                   ops  loc  vec elide shard  op mix");
    for (i, s) in p.serial.iter().enumerate() {
        eprintln!(
            "{}: input content id {:016x}",
            p.suite.label(i),
            s.content_id
        );
        for (k, info) in s.infos.iter().enumerate() {
            let mix: Vec<String> = info.mix.iter().map(|(n, c)| format!("{n}:{c}")).collect();
            eprintln!(
                "{:<38} {:>4} {:>4} {:>4} {:>5}  {}  {}",
                format!("{} [{k}]", p.suite.label(i)),
                info.ops,
                info.loc,
                info.vec_tagged,
                info.elide_tagged,
                info.not_shardable.as_deref().unwrap_or("yes"),
                mix.join(" ")
            );
        }
    }
}

/// Setup-layer metrics from the last setup's spans.
pub fn setup_metrics(p: &Prepared, t: &Tracer, r: &mut Report) {
    let st = t.self_times();
    let secs = |name| {
        st.get(&(OpKind::Setup, name))
            .map_or(0.0, |v| v.0 as f64 / 1e9)
    };
    r.metric("datasets.gen_s", secs("datasets.gen"), "s");
    r.metric("tensor.from_coo_s", secs("tensor.from_coo"), "s");
    r.metric("datasets.input_nnz", p.input_nnz as f64, "count");
    let (first, steady) = p.warmup;
    r.metric("warmup.first_call_us", first, "us");
    r.metric("warmup.steady_us", steady, "us");
}

/// The end-to-end metrics every workload shares.
pub fn common_metrics(p: &Prepared, r: &mut Report) {
    r.metric("setup_s", median(&p.setup_s), "s");
    r.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    // Simulated time is deterministic, and on the fixed-structure
    // stand-ins identical for every seed: it is reported in cycles, a
    // count, not as a time.
    let hbm: Vec<f64> = p.serial.iter().map(|s| s.sim[1].0).collect();
    r.metric("capstan_hbm_cycles_gmean", report::gmean(&hbm), "cycles");
}

/// The geometric mean over cases `0..n` of each case's `q`-quantile of
/// `(case, seconds)` samples, in ms. Per-case quantiles keep the value
/// off the boundaries between kernels of very different cost, where a
/// quantile of the pooled samples would jump.
pub fn case_quantile_gmean_ms(samples: &[(usize, f64)], n: usize, q: f64) -> f64 {
    let per_case = report::per_case(samples, n);
    let qs: Vec<f64> = per_case.iter().map(|v| report::quantile(v, q)).collect();
    report::gmean(&qs) * 1e3
}

/// Prints the sample count and the per-case median and 90th percentile
/// of `(case, seconds)` samples to stderr, for reading alongside the
/// result line.
pub fn print_times(what: &str, samples: &[(usize, f64)], n: usize) {
    let fewest = report::per_case(samples, n)
        .iter()
        .map(Vec::len)
        .min()
        .unwrap_or(0);
    eprintln!(
        "{what}: {} operations, at least {fewest} per case; per-case p50 {:.4} ms, p90 {:.4} ms (gmean)",
        samples.len(),
        case_quantile_gmean_ms(samples, n, 0.5),
        case_quantile_gmean_ms(samples, n, 0.9),
    );
}

/// `trace.overhead_pct` and `trace.ops` from the untraced and traced
/// `(case, seconds)` samples of one interleaved measurement: the geometric
/// mean over cases of the ratio of traced to untraced median time.
pub fn trace_metrics(untraced: &[(usize, f64)], traced: &[(usize, f64)], n: usize, r: &mut Report) {
    let (on, off) = (report::per_case(traced, n), report::per_case(untraced, n));
    let ratios: Vec<f64> = on
        .iter()
        .zip(&off)
        .map(|(a, b)| median(a) / median(b))
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    r.metric(
        "trace.overhead_pct",
        (report::gmean(&ratios) - 1.0) * 100.0,
        "%",
    );
    r.metric("trace.ops", traced.len() as f64, "count");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <compile|sweep-matrix|sweep-union|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let (mut report, tracer) = match args.workload.as_str() {
        "compile" => rows::run(&rows::COMPILE, &args, epoch),
        "sweep-matrix" => rows::run(&rows::SWEEP_MATRIX, &args, epoch),
        "sweep-union" => rows::run(&rows::SWEEP_UNION, &args, epoch),
        "serve" => serve::run(&args, epoch),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let dir = std::path::Path::new("e2e-bench/traces");
        // One file per workload, replaced by each traced run, so repeated
        // runs do not pile up in the checkout.
        let path = dir.join(format!("{}.jsonl", args.workload));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{}}}\n",
            args.workload, args.seed, args.seconds
        );
        let body = header + &tracer.to_jsonl();
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("could not write trace {}: {e}", path.display()),
        }
    }
    let missing = report.select(args.trace);
    if !missing.is_empty() {
        eprintln!(
            "not exercised by this workload, reported as 0: {}",
            missing.join(", ")
        );
    }
    for e in &report.errors {
        eprintln!("FAILED {e}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>24} {unit}");
    }
    println!("{}", report.to_json());
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cases::Scale;

    fn prepared(build: fn(&Scale, u64, &mut Tracer) -> Suite, seed: u64) -> Prepared {
        let mut t = Tracer::new(false, Instant::now());
        let mut r = Report::default();
        let suite = build(&Scale::ci(), seed, &mut t);
        let p = prepare(suite, vec![0.0], None, &mut t, &mut r);
        assert_eq!(r.failed, 0, "{:?}", r.errors);
        p
    }

    #[test]
    fn seeded_inputs_repeat_exactly_and_change_with_the_seed() {
        for build in [
            cases::table3 as fn(&Scale, u64, &mut Tracer) -> Suite,
            cases::serve_mix,
        ] {
            let a = prepared(build, 11);
            let b = prepared(build, 11);
            let c = prepared(build, 12);
            for (i, ((x, y), z)) in a.serial.iter().zip(&b.serial).zip(&c.serial).enumerate() {
                let label = a.suite.label(i);
                assert_eq!(
                    x.content_id, y.content_id,
                    "{label}: same seed, same content"
                );
                assert_ne!(
                    x.content_id, z.content_id,
                    "{label}: another seed, other content"
                );
                assert_eq!(x.events, y.events, "{label}");
                assert_eq!(x.stats, y.stats, "{label}");
                let bits = |s: &Serial| s.sim.map(|(c, t)| (c.to_bits(), t.to_bits()));
                assert_eq!(bits(x), bits(y), "{label}");
                assert!(pipeline::same_bits(&x.output, &y.output), "{label}");
                for (p, q) in x.infos.iter().zip(&y.infos) {
                    let key = |s: &StageInfo| {
                        (
                            s.ops,
                            s.loc,
                            s.vec_tagged,
                            s.elide_tagged,
                            s.not_shardable.clone(),
                            s.mix.clone(),
                        )
                    };
                    assert_eq!(key(p), key(q), "{label}");
                }
            }
            let (mut ra, mut rb) = (Report::default(), Report::default());
            common_metrics(&a, &mut ra);
            common_metrics(&b, &mut rb);
            let gm = |r: &Report| {
                r.metrics
                    .iter()
                    .find(|m| m.0 == "capstan_hbm_cycles_gmean")
                    .map(|m| m.1.to_bits())
            };
            assert_eq!(gm(&ra), gm(&rb));
            let (mut sa, mut sb) = (Report::default(), Report::default());
            static_metrics(&a, &mut sa);
            static_metrics(&b, &mut sb);
            assert_eq!(sa.metrics, sb.metrics);
        }
    }
}
