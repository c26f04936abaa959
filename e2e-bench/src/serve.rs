//! The `serve` workload: a closed loop through `stardust-serve`.
//!
//! Two client threads each submit one job, wait for it, check it, and
//! submit the next, picking each case with their own seeded generator. Two
//! workers serve them. Every (program, dataset) pair is registered and
//! warmed during setup, so the measured loop never compiles or builds an
//! image: its time goes to the queue, batching, pool checkout,
//! output-sized bind and run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use stardust_core::pipeline::TensorData;
use stardust_serve::{DatasetId, ProgramId, ServeConfig, ServeStats, Server};
use stardust_spatial::{DramImage, MachinePool, RunBudget};

use crate::cases::{self, splitmix, sub_seed, Scale};
use crate::pipeline::{err, events, same_bits};
use crate::report::{self, mean, median, Report};
use crate::trace::{OpKind, Tracer};
use crate::{Args, Prepared};

/// Client threads of the closed loop.
const CLIENTS: u64 = 2;

/// Span of one CPU-per-job sample of the closed loop.
const WINDOW: Duration = Duration::from_millis(100);

/// Standalone pooled executions per case in the traced run.
const EXEC_PASSES: usize = 5;

struct Served {
    server: Server,
    /// Program and dataset id of each case.
    ids: Vec<(ProgramId, DatasetId)>,
}

fn start(p_suite: &cases::Suite) -> Served {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_depth: 64,
        tenant_inflight: 16,
        batch_max: 8,
        budget: RunBudget::unlimited(),
        shards: 1,
    });
    let datasets: Vec<DatasetId> = p_suite
        .sets
        .iter()
        .map(|s| server.register_dataset(s.inputs.clone()))
        .collect();
    let ids: Vec<_> = p_suite
        .cases
        .iter()
        .map(|c| (server.register_program(c.spec.build()), datasets[c.set]))
        .collect();
    // Warm every pair: compile, image build and pinning happen here.
    for &(prog, ds) in &ids {
        if let Ok(ticket) = server.submit(0, prog, ds) {
            let _ = ticket.wait();
        }
    }
    Served { server, ids }
}

#[derive(Default)]
struct Client {
    /// Case of each completed job, parallel to `round_trip`.
    case: Vec<usize>,
    /// Whether each completed job was traced, parallel to `round_trip`.
    traced: Vec<bool>,
    round_trip: Vec<f64>,
    server_latency: Vec<f64>,
    batch: Vec<f64>,
    stage_runs: u64,
    outcomes: Vec<(usize, Result<(), String>)>,
}

/// Checks a served job against the reference and the serial run.
fn verify(p: &Prepared, i: usize, job: &stardust_serve::JobOutput) -> Result<(), String> {
    crate::reference::check(&job.output, &p.expected[i])?;
    let s = &p.serial[i];
    if !same_bits(&job.output, &s.output) {
        return Err("output bits differ from the serial run".into());
    }
    if job.stats != s.stats {
        return Err("interpreter statistics differ from the serial run".into());
    }
    Ok(())
}

fn client(
    c: u64,
    p: &Prepared,
    s: &Served,
    (start, budget): (Instant, Duration),
    seed: u64,
    done: &AtomicU64,
    t: &mut Tracer,
) -> Client {
    let mut out = Client::default();
    let tracing = t.enabled();
    let mut rng = sub_seed(seed, &format!("client{c}"));
    let n = p.suite.cases.len() as u64;
    let mut k = 0u64;
    while start.elapsed() < budget {
        rng = splitmix(rng);
        let i = (rng % n) as usize;
        let (prog, ds) = s.ids[i];
        k += 1;
        // With tracing on, every other job is traced, so host drift
        // affects traced and untraced jobs alike.
        let traced = tracing && k.is_multiple_of(2);
        t.set_enabled(traced);
        let root = t.begin_op(OpKind::Job, (c << 40) | k, "serve.job");
        let t0 = Instant::now();
        let result = match t.span("serve.submit", || s.server.submit(c, prog, ds)) {
            Ok(ticket) => t.span("serve.wait", || ticket.wait()).map_err(err),
            Err(e) => Err(err(e)),
        };
        let rt = t0.elapsed().as_secs_f64();
        t.end(root);
        let outcome = result.and_then(|job| {
            verify(p, i, &job)?;
            out.case.push(i);
            out.traced.push(traced);
            out.round_trip.push(rt);
            out.server_latency.push(job.latency.as_secs_f64());
            out.batch.push(job.batch_size as f64);
            out.stage_runs += p.serial[i].stages.len() as u64;
            done.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        out.outcomes.push((i, outcome));
    }
    t.set_enabled(tracing);
    out
}

struct Loop {
    clients: Vec<Client>,
    /// Process CPU seconds per completed job, one value per
    /// [`WINDOW`] of the loop.
    cpu_per_job: Vec<f64>,
    before: ServeStats,
    after: ServeStats,
}

impl Loop {
    /// `(case, round trip)` of the jobs whose tracing was `traced`.
    fn samples(&self, traced: bool) -> Vec<(usize, f64)> {
        self.clients
            .iter()
            .flat_map(|c| (0..c.case.len()).map(move |j| (c, j)))
            .filter(|(c, j)| c.traced[*j] == traced)
            .map(|(c, j)| (c.case[j], c.round_trip[j]))
            .collect()
    }

    fn all(&self, f: impl Fn(&Client) -> &Vec<f64>) -> Vec<f64> {
        self.clients
            .iter()
            .flat_map(|c| f(c).iter().copied())
            .collect()
    }
}

/// Runs the closed loop for `budget`, recording each client's spans into
/// a tracer that is merged into `t`. Meanwhile this thread samples the
/// process's CPU time and the completed jobs every [`WINDOW`]: the loop
/// keeps both cores busy, so CPU time per job is its cost, and unlike the
/// round trip it does not count the time a shared host takes the cores
/// away.
fn closed_loop(
    p: &Prepared,
    s: &Served,
    budget: Duration,
    seed: u64,
    t: &mut Tracer,
    r: &mut Report,
) -> Loop {
    let before = s.server.stats();
    let start = Instant::now();
    let done = AtomicU64::new(0);
    let mut cpu_per_job = Vec::new();
    let results: Vec<(Client, Tracer)> = std::thread::scope(|scope| {
        let done = &done;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut ct = Tracer::new(t.enabled(), t.epoch());
                scope.spawn(move || (client(c, p, s, (start, budget), seed, done, &mut ct), ct))
            })
            .collect();
        let (mut cpu0, mut jobs0) = (report::process_cpu_s(), 0);
        while start.elapsed() < budget {
            std::thread::sleep(WINDOW);
            let (cpu1, jobs1) = (report::process_cpu_s(), done.load(Ordering::Relaxed));
            if jobs1 > jobs0 {
                cpu_per_job.push((cpu1 - cpu0) / (jobs1 - jobs0) as f64);
            }
            (cpu0, jobs0) = (cpu1, jobs1);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = s.server.stats();
    let mut clients = Vec::new();
    for (c, ct) in results {
        t.absorb(ct);
        for (i, outcome) in &c.outcomes {
            r.op(&p.suite.label(*i), outcome.clone());
        }
        clients.push(c);
    }
    Loop {
        clients,
        cpu_per_job,
        before,
        after,
    }
}

/// Standalone pooled executions of the served cases: checkout (reset and
/// image bind), run and readback on a private pool, from images built
/// here. Returns the runs' interpreter events and the images' words.
fn exec_probe(p: &mut Prepared, t: &mut Tracer, r: &mut Report) -> (u64, usize) {
    let mut images: Vec<Vec<DramImage>> = Vec::new();
    let mut words = 0;
    for (i, case) in p.suite.cases.iter().enumerate() {
        let inputs = &mut p.suite.sets[case.set].inputs;
        let stages = &p.serial[i].stages;
        let mut added = Vec::new();
        let mut imgs = Vec::new();
        for (k, compiled) in stages.iter().enumerate() {
            let image = compiled
                .build_image(inputs)
                .expect("image of a served case");
            words += image.input_words().len();
            if k + 1 < stages.len() {
                let run = compiled
                    .execute_image(&image)
                    .expect("intermediate stage runs");
                if let stardust_core::pipeline::KernelOutput::Tensor(out) = run.output {
                    let name = compiled.program().output().to_string();
                    inputs.insert(name.clone(), TensorData::Sparse(out));
                    added.push(name);
                }
            }
            imgs.push(image);
        }
        for name in added {
            inputs.remove(&name);
        }
        images.push(imgs);
    }
    let pool = MachinePool::new();
    let mut total_events = 0;
    let mut op = 1u64 << 60;
    for _ in 0..EXEC_PASSES {
        for (i, imgs) in images.iter().enumerate() {
            op += 1;
            let root = t.begin_op(OpKind::Exec, op, "serve.exec");
            let mut last = None;
            let mut outcome = Ok(());
            for (compiled, image) in p.serial[i].stages.iter().zip(imgs) {
                let step = (|| {
                    let mut m = t
                        .span("spatial.pool_checkout", || {
                            compiled.bind_image_pooled(image, &pool)
                        })
                        .map_err(err)?;
                    let stats = t
                        .span("spatial.run", || m.run(compiled.spatial()))
                        .map_err(err)?;
                    total_events += events(&stats);
                    t.span("core.readback", || compiled.read_output(&m))
                        .map_err(err)
                })();
                match step {
                    Ok(out) => last = Some(out),
                    Err(e) => {
                        outcome = Err(e);
                        break;
                    }
                }
            }
            t.end(root);
            let outcome = outcome.and_then(|()| match &last {
                Some(out) if same_bits(out, &p.serial[i].output) => Ok(()),
                _ => Err("pooled execution differs from the serial run".into()),
            });
            r.op(&format!("{} (pooled exec)", p.suite.label(i)), outcome);
        }
    }
    (total_events, words)
}

/// Runs the serve workload.
pub fn run(args: &Args, epoch: Instant) -> (Report, Tracer) {
    let mut r = Report::default();
    let scale = Scale::ci();
    let ((suite, served), mut t, setup_s) = crate::timed_setups(args, epoch, |t| {
        let suite = cases::serve_mix(&scale, args.seed, t);
        let served = t.span("serve.start", || start(&suite));
        (suite, served)
    });
    let mut p = crate::prepare(suite, setup_s, None, &mut t, &mut r);
    crate::print_static(&p);
    let budget = Duration::from_secs_f64(args.seconds);
    let l = closed_loop(&p, &served, budget, args.seed, &mut t, &mut r);
    let _ = served.server.shutdown();
    let n = p.suite.cases.len();
    if !args.trace {
        crate::common_metrics(&p, &mut r);
        // The 90th percentile over windows, as for the rows.
        let p90 = report::quantile(&l.cpu_per_job, 0.9);
        r.metric("op_cpu_p90_ms", p90 * 1e3, "ms");
        let jobs = l.samples(false);
        eprintln!(
            "{:.1} jobs/s; process CPU per job over {} windows: p50 {:.4} ms, p90 {:.4} ms",
            jobs.len() as f64 / budget.as_secs_f64(),
            l.cpu_per_job.len(),
            report::median(&l.cpu_per_job) * 1e3,
            p90 * 1e3
        );
        crate::print_times("round trip", &jobs, n);
        return (r, t);
    }
    let (exec_events, image_words) = exec_probe(&mut p, &mut t, &mut r);

    crate::setup_metrics(&p, &t, &mut r);
    crate::static_metrics(&p, &mut r);
    let st = t.self_times();
    let exec_ops = t.op_durations(OpKind::Exec);
    let per_exec = |name| {
        st.get(&(OpKind::Exec, name)).map_or(0.0, |v| v.0 as f64) / exec_ops.len().max(1) as f64
    };
    r.metric("core.image_mb", image_words as f64 * 8.0 / 1e6, "MB");
    r.metric("core.readback_ms", per_exec("core.readback") / 1e6, "ms");
    let run_ns = per_exec("spatial.run");
    r.metric("spatial.run_ms", run_ns / 1e6, "ms");
    r.metric(
        "spatial.run_ns_per_event",
        run_ns * exec_ops.len() as f64 / exec_events.max(1) as f64,
        "ns",
    );
    let checkout = st
        .get(&(OpKind::Exec, "spatial.pool_checkout"))
        .copied()
        .unwrap_or_default();
    r.metric(
        "spatial.pool_checkout_us",
        checkout.0 as f64 / checkout.1.max(1) as f64 / 1e3,
        "us",
    );
    let exec_ms: Vec<f64> = exec_ops.iter().map(|&ns| ns as f64 / 1e6).collect();
    r.metric("serve.exec_p50_ms", median(&exec_ms), "ms");
    let lat = l.all(|c| &c.server_latency);
    let rt = l.all(|c| &c.round_trip);
    r.metric("serve.server_latency_p50_ms", median(&lat) * 1e3, "ms");
    let overhead: Vec<f64> = rt.iter().zip(&lat).map(|(a, b)| a - b).collect();
    r.metric(
        "serve.client_overhead_p50_ms",
        median(&overhead) * 1e3,
        "ms",
    );
    r.metric("serve.batch_size_mean", mean(&l.all(|c| &c.batch)), "count");
    let (s0, s1) = (&l.before, &l.after);
    let created = (s1.pool.stats.created - s0.pool.stats.created) as f64;
    let reused = (s1.pool.stats.reused - s0.pool.stats.reused) as f64;
    r.metric(
        "serve.pool_reuse_ratio",
        reused / (created + reused).max(1.0),
        "ratio",
    );
    r.metric("serve.pool_checkouts", created + reused, "count");
    let stage_runs = l.clients.iter().map(|c| c.stage_runs).sum::<u64>() as f64;
    let builds = (s1.image_builds - s0.image_builds) as f64;
    r.metric(
        "serve.image_hit_ratio",
        1.0 - builds / stage_runs.max(1.0),
        "ratio",
    );
    r.metric("serve.stage_runs", stage_runs, "count");
    let rejected = |s: &ServeStats| s.rejected_queue_full + s.rejected_tenant_cap;
    r.metric(
        "serve.rejected",
        (rejected(s1) - rejected(s0)) as f64,
        "count",
    );
    r.metric("serve.retried", (s1.retried - s0.retried) as f64, "count");
    crate::trace_metrics(&l.samples(false), &l.samples(true), n, &mut r);
    let root = st
        .get(&(OpKind::Job, "serve.job"))
        .map_or(0.0, |v| v.0 as f64);
    let jobs: f64 = t.op_durations(OpKind::Job).iter().map(|&d| d as f64).sum();
    r.metric("trace.unattributed_pct", 100.0 * root / jobs.max(1.0), "%");
    (r, t)
}
