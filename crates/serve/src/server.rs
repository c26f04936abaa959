//! The multi-tenant kernel-serving executor.
//!
//! A [`Server`] accepts (program, dataset) jobs from many concurrent
//! clients and runs them on the shared pooled interpreter stack. The
//! life of a job:
//!
//! 1. **Submit** — [`Server::submit`] validates the ids and performs
//!    admission control under the queue lock: a full queue or a tenant
//!    at its in-flight cap is rejected *immediately* with a typed
//!    [`SubmitError`] (backpressure the client can act on), never
//!    silently dropped or blocked.
//! 2. **Batch** — a worker drains up to [`ServeConfig::batch_max`]
//!    queued jobs with the *same* (program, dataset) key into one
//!    batch, so the per-key work below is paid once per batch.
//! 3. **Working set** — the batch resolves its pinned stage plans:
//!    per-stage [`CompiledKernel`]s plus `Arc`-shared
//!    [`stardust_spatial::DramImage`]s, built on first sight (with
//!    size hints derived from the *actual* intermediate tensors, so
//!    the compiled programs are byte-for-byte the ones
//!    [`Kernel::run`] would produce) and pinned thereafter — the hot
//!    path never re-hashes input words or rebuilds images.
//! 4. **Run** — each stage executes on a machine checked out of the
//!    shared [`MachinePool`] under the configured [`RunBudget`], with
//!    panic containment; transient failures (contained panic,
//!    injected fault) quarantine the machine and retry once on a
//!    fresh one. Consecutive batch jobs keep checking the same warm
//!    machine back out of the shard's LIFO free list.
//! 5. **Respond** — the client's [`Ticket`] resolves to the output,
//!    merged [`ExecStats`], and measured latency; completion feeds
//!    the wait-free latency histogram behind [`ServeStats`].

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stardust_core::pipeline::{
    CompiledKernel, Compiler, Dataset, ImageCache, KernelOutput, TensorData,
};
use stardust_core::CompileError;
use stardust_kernels::{merge_stats, stage_hints, Kernel};
use stardust_spatial::{
    CompiledShards, DramImage, ExecStats, MachinePool, ProgramCache, RunBudget,
};

use crate::stats::{LatencyHistogram, ServeStats};

/// Serving configuration. [`ServeConfig::default`] is sized for tests;
/// the load generator overrides every knob explicitly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads consuming the queue. `0` means **inline mode**:
    /// nothing consumes the queue until [`Server::drain`] (or
    /// shutdown) runs jobs on the calling thread — deterministic for
    /// admission-control tests and required for thread-local fault
    /// injection.
    pub workers: usize,
    /// Maximum queued (admitted, not yet started) jobs before
    /// [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// Maximum in-flight (queued + running) jobs per tenant before
    /// [`SubmitError::TenantAtCapacity`].
    pub tenant_inflight: usize,
    /// Maximum jobs drained into one same-key batch.
    pub batch_max: usize,
    /// Budget applied to every stage run.
    pub budget: RunBudget,
    /// Intra-kernel parallelism: stages whose outer loop proves
    /// shardable run as up to this many contiguous slices on pooled
    /// machines (merged bitwise identically to serial); `NotShardable`
    /// stages — and everything at the default `1` — run the serial
    /// pooled path. `0` means **auto**: the count is chosen per stage
    /// from the proven outer-loop trip count and the pool's occupancy
    /// at plan time ([`stardust_spatial::auto_shard_count`]).
    /// Tiny loops stay serial and wide ones split up to the machines
    /// actually available. Sharded stages cap their machine checkouts
    /// at [`ServeConfig::tenant_inflight`], so one tenant's wide job
    /// degrades to fewer round-robin workers instead of draining the
    /// pool for everyone.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            tenant_inflight: 16,
            batch_max: 8,
            budget: RunBudget::unlimited(),
            shards: 1,
        }
    }
}

/// Handle to a registered kernel. Only [`Server::register_program`]
/// mints these, and only for the server that returned them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramId(usize);

/// Handle to a registered dataset (see [`ProgramId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetId(usize);

/// A typed admission rejection: every variant tells the client what to
/// do (back off, shed load, fix the id). Submission never blocks and
/// never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at [`ServeConfig::queue_depth`]; retry after
    /// completions drain it.
    QueueFull {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// The tenant has [`ServeConfig::tenant_inflight`] jobs in flight;
    /// one tenant cannot starve the rest of the queue.
    TenantAtCapacity {
        /// The rejected tenant.
        tenant: u64,
        /// Its in-flight jobs at rejection.
        in_flight: usize,
    },
    /// Shutdown has begun; no new work is admitted (accepted work
    /// still completes).
    ShuttingDown,
    /// The program id was not minted by this server.
    UnknownProgram(ProgramId),
    /// The dataset id was not minted by this server.
    UnknownDataset(DatasetId),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "queue full at depth {depth}; back off and retry")
            }
            SubmitError::TenantAtCapacity { tenant, in_flight } => {
                write!(f, "tenant {tenant} already has {in_flight} jobs in flight")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::UnknownProgram(id) => write!(f, "unknown program id {:?}", id.0),
            SubmitError::UnknownDataset(id) => write!(f, "unknown dataset id {:?}", id.0),
        }
    }
}

impl Error for SubmitError {}

/// Why an *accepted* job failed.
#[derive(Debug)]
pub enum ServeError {
    /// Compilation or execution failed after the retry policy was
    /// exhausted (deterministic errors — budget exhaustion, bind
    /// mismatch — are never retried).
    Execution(CompileError),
    /// The server vanished without responding. Graceful drain makes
    /// this unreachable in normal operation; it is typed so a client
    /// never blocks forever on a lost ticket.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Execution(e) => write!(f, "job failed: {e}"),
            ServeError::Disconnected => write!(f, "server dropped the job without responding"),
        }
    }
}

impl Error for ServeError {}

/// A completed job: the kernel output, the merged per-stage
/// interpreter statistics (identical to
/// [`stardust_kernels::KernelResult::total_stats`] for the same
/// (program, dataset)), and serving metadata.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Final stage output.
    pub output: KernelOutput,
    /// Statistics merged across stages.
    pub stats: ExecStats,
    /// Submit-to-completion latency (queue wait + execution).
    pub latency: Duration,
    /// Size of the batch this job rode in.
    pub batch_size: usize,
}

/// The client's handle to one accepted job.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<JobOutput, ServeError>>,
}

impl Ticket {
    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the job failed or the server vanished.
    pub fn wait(self) -> Result<JobOutput, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// One admitted job.
struct Job {
    program: ProgramId,
    dataset: DatasetId,
    tenant: u64,
    enqueued: Instant,
    tx: mpsc::Sender<Result<JobOutput, ServeError>>,
}

/// One pinned stage of a working set: the compiled stage and its
/// `Arc`-shared DRAM image. Holding these is what makes the hot path
/// O(outputs) per run — no content hashing, no image building, no
/// re-linking.
struct StagePlan {
    compiled: CompiledKernel,
    image: Arc<DramImage>,
    /// Pinned shard partition when [`ServeConfig::shards`] > 1 and the
    /// stage's outer loop proved shardable — analyzed once at plan
    /// build, not per run. `None` runs the serial pooled path.
    shards: Option<CompiledShards>,
}

/// Queue state guarded by one mutex: the job queue, per-tenant
/// in-flight counts (queued + running), and the shutdown flag — one
/// lock so admission decisions are atomic.
struct QueueState {
    jobs: VecDeque<Job>,
    tenant_inflight: HashMap<u64, usize>,
    shutting_down: bool,
}

type PlanSlot = Arc<Mutex<Option<Arc<Vec<StagePlan>>>>>;

/// Shared server state (behind `Arc`, touched by clients and workers).
struct Inner {
    cfg: ServeConfig,
    programs: Mutex<Vec<Arc<Kernel>>>,
    datasets: Mutex<Vec<Arc<Dataset>>>,
    queue: Mutex<QueueState>,
    available: Condvar,
    spatial_cache: ProgramCache,
    images: ImageCache,
    pool: MachinePool,
    plans: Mutex<HashMap<(usize, usize), PlanSlot>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_tenant_cap: AtomicU64,
    retried: AtomicU64,
    batches: AtomicU64,
    batch_peak: AtomicU64,
    latency: LatencyHistogram,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    fn new(cfg: ServeConfig) -> Inner {
        Inner {
            cfg,
            programs: Mutex::new(Vec::new()),
            datasets: Mutex::new(Vec::new()),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                tenant_inflight: HashMap::new(),
                shutting_down: false,
            }),
            available: Condvar::new(),
            spatial_cache: ProgramCache::new(),
            images: ImageCache::new(),
            pool: MachinePool::new(),
            plans: Mutex::new(HashMap::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_tenant_cap: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_peak: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        }
    }

    /// Worker loop: wait for work, drain a same-key batch, execute,
    /// repeat. On shutdown the queue is fully drained before exit —
    /// accepted jobs always complete.
    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut q = lock(&self.queue);
                loop {
                    if !q.jobs.is_empty() {
                        break;
                    }
                    if q.shutting_down {
                        return;
                    }
                    q = self.available.wait(q).unwrap_or_else(|e| e.into_inner());
                }
                self.take_batch(&mut q)
            };
            self.run_batch(batch);
        }
    }

    /// Pops the head job plus up to `batch_max - 1` queued jobs with
    /// the same (program, dataset) key. Non-matching jobs keep their
    /// queue order.
    fn take_batch(&self, q: &mut QueueState) -> Vec<Job> {
        let first = match q.jobs.pop_front() {
            Some(j) => j,
            None => return Vec::new(),
        };
        let key = (first.program, first.dataset);
        let mut batch = vec![first];
        let mut i = 0;
        while i < q.jobs.len() && batch.len() < self.cfg.batch_max.max(1) {
            if (q.jobs[i].program, q.jobs[i].dataset) == key {
                if let Some(job) = q.jobs.remove(i) {
                    batch.push(job);
                }
            } else {
                i += 1;
            }
        }
        batch
    }

    fn run_batch(&self, batch: Vec<Job>) {
        if batch.is_empty() {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_peak
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        let size = batch.len();
        for job in batch {
            let result = self
                .plans_for(job.program, job.dataset)
                .and_then(|plans| self.run_job(&plans));
            self.complete(job, result, size);
        }
    }

    /// Sends the job's response, releasing its tenant in-flight slot
    /// and recording completion latency.
    fn complete(
        &self,
        job: Job,
        result: Result<(KernelOutput, ExecStats), CompileError>,
        batch_size: usize,
    ) {
        let latency = job.enqueued.elapsed();
        {
            let mut q = lock(&self.queue);
            if let Some(n) = q.tenant_inflight.get_mut(&job.tenant) {
                *n = n.saturating_sub(1);
            }
        }
        let response = match result {
            Ok((output, stats)) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.latency.record(latency);
                Ok(JobOutput {
                    output,
                    stats,
                    latency,
                    batch_size,
                })
            }
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Execution(e))
            }
        };
        // A client that dropped its ticket is not an error.
        let _ = job.tx.send(response);
    }

    /// The pinned working set for (program, dataset), built on first
    /// sight under a per-key lock (racing batches build once, the
    /// loser waits for the winner's `Arc`). Failures are not cached:
    /// the slot stays empty and the next batch retries the build.
    fn plans_for(
        &self,
        program: ProgramId,
        dataset: DatasetId,
    ) -> Result<Arc<Vec<StagePlan>>, CompileError> {
        let entry = Arc::clone(lock(&self.plans).entry((program.0, dataset.0)).or_default());
        let mut slot = lock(&entry);
        if let Some(hit) = slot.as_ref() {
            return Ok(Arc::clone(hit));
        }
        let kernel = Arc::clone(&lock(&self.programs)[program.0]);
        let dataset = Arc::clone(&lock(&self.datasets)[dataset.0]);
        let plans = Arc::new(self.build_plans(&kernel, &dataset)?);
        *slot = Some(Arc::clone(&plans));
        Ok(plans)
    }

    /// Compiles and pins every stage of `kernel` against `dataset`,
    /// mirroring [`Kernel::run`]'s stage loop: size hints for stage
    /// `n+1` come from stage `n`'s **actual** output tensor (obtained
    /// by running the stage once here), because hints derived from
    /// placeholders would compile *different* programs with different
    /// DRAM sizing — and the serving path must stay bitwise identical
    /// to the serial baseline. Stage 0 resolves its image through the
    /// dataset's memoized content id; later stages key on the real
    /// intermediates.
    fn build_plans(
        &self,
        kernel: &Kernel,
        dataset: &Dataset,
    ) -> Result<Vec<StagePlan>, CompileError> {
        let mut plans = Vec::with_capacity(kernel.stages.len());
        let mut available = dataset.inputs().clone();
        for (i, stage) in kernel.stages.iter().enumerate() {
            let hints = stage_hints(stage, &available)?;
            let compiled =
                Compiler::compile_cached(&stage.program, &stage.stmt, hints, &self.spatial_cache)?;
            let image = if i == 0 {
                self.images.get_or_build_dataset(&compiled, dataset)?
            } else {
                self.images.get_or_build(&compiled, &available)?
            };
            if i + 1 < kernel.stages.len() {
                // Materialize the real intermediate for the next
                // stage's hints and image (deterministic per dataset).
                let run = self.run_stage(&compiled, &image, None)?;
                if let KernelOutput::Tensor(t) = run.output {
                    available.insert(stage.program.output().to_string(), TensorData::Sparse(t));
                }
            }
            // Pin the shard partition with the plan: the analysis runs
            // once per (program, dataset), never on the hot path. A
            // one-slice partition is serial with extra steps — skip it.
            let shards = if self.cfg.shards == 0 {
                compiled.shard_auto(&self.pool)
            } else if self.cfg.shards > 1 {
                compiled
                    .shard(self.cfg.shards)
                    .ok()
                    .filter(|sh| sh.shard_count() > 1)
            } else {
                None
            };
            plans.push(StagePlan {
                compiled,
                image,
                shards,
            });
        }
        Ok(plans)
    }

    /// Runs every pinned stage, merging statistics. The fast path: per
    /// stage this is one warm pool checkout (reset + O(outputs) image
    /// bind), one budgeted run, one output read.
    fn run_job(&self, plans: &[StagePlan]) -> Result<(KernelOutput, ExecStats), CompileError> {
        let mut total = ExecStats::default();
        let mut output = None;
        for plan in plans {
            let run = self.run_stage(&plan.compiled, &plan.image, plan.shards.as_ref())?;
            merge_stats(&mut total, &run.stats);
            output = Some(run.output);
        }
        let output =
            output.ok_or_else(|| CompileError::Schedule("kernel has no stages to run".into()))?;
        Ok((output, total))
    }

    /// One budgeted stage run under the recovery policy: transient
    /// failures (contained panic, one-shot injected fault) leave the
    /// faulted machine quarantined by the pool and retry exactly once
    /// on a fresh checkout; deterministic failures abort immediately.
    /// With a pinned shard partition the stage runs through the
    /// intra-kernel sharded executor (bitwise identical to serial,
    /// checkouts capped at the tenant in-flight limit); otherwise the
    /// serial pooled path.
    fn run_stage(
        &self,
        compiled: &CompiledKernel,
        image: &DramImage,
        shards: Option<&CompiledShards>,
    ) -> Result<stardust_core::pipeline::KernelRun, CompileError> {
        let once = || match shards {
            Some(sh) => compiled
                .execute_image_sharded_budgeted(
                    sh,
                    image,
                    &self.pool,
                    &self.cfg.budget,
                    Some(self.cfg.tenant_inflight as u64),
                )
                .map(|(run, _workers)| run),
            None => compiled.execute_image_pooled_budgeted(image, &self.pool, &self.cfg.budget),
        };
        match once() {
            Ok(run) => Ok(run),
            Err(e) if e.is_transient() => {
                self.retried.fetch_add(1, Ordering::Relaxed);
                once()
            }
            Err(e) => Err(e),
        }
    }

    fn snapshot(&self) -> ServeStats {
        let queue_depth = lock(&self.queue).jobs.len();
        let working_sets = lock(&self.plans)
            .values()
            .filter(|slot| lock(slot).is_some())
            .count();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_tenant_cap: self.rejected_tenant_cap.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_peak: self.batch_peak.load(Ordering::Relaxed),
            queue_depth,
            working_sets,
            image_builds: self.images.builds(),
            images_cached: self.images.len(),
            pool: self.pool.occupancy(),
            latency: self.latency.snapshot(),
        }
    }
}

/// The serving front end. See the [module docs](self) for the job
/// lifecycle. `&Server` is shareable across client threads; dropping
/// the server performs a graceful drain (every accepted job completes
/// and responds).
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server with `cfg.workers` consumer threads (zero means
    /// inline mode — see [`ServeConfig::workers`]).
    pub fn start(cfg: ServeConfig) -> Server {
        let inner = Arc::new(Inner::new(cfg));
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Registers a kernel, returning its handle. Compilation is
    /// deferred to the first job per (program, dataset) pair.
    pub fn register_program(&self, kernel: Kernel) -> ProgramId {
        let mut programs = lock(&self.inner.programs);
        programs.push(Arc::new(kernel));
        ProgramId(programs.len() - 1)
    }

    /// Registers a dataset. Its content-addressed identity is hashed
    /// once per compiled program ([`Dataset`] memoization) no matter
    /// how many jobs reference it.
    pub fn register_dataset(&self, inputs: HashMap<String, TensorData>) -> DatasetId {
        let mut datasets = lock(&self.inner.datasets);
        datasets.push(Arc::new(Dataset::new(inputs)));
        DatasetId(datasets.len() - 1)
    }

    /// Submits a job for `tenant`. Never blocks: admission is decided
    /// under one short lock hold and rejections are typed.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] on invalid ids, a full queue, a tenant at its
    /// in-flight cap, or a server past [`Server::begin_shutdown`].
    pub fn submit(
        &self,
        tenant: u64,
        program: ProgramId,
        dataset: DatasetId,
    ) -> Result<Ticket, SubmitError> {
        if program.0 >= lock(&self.inner.programs).len() {
            return Err(SubmitError::UnknownProgram(program));
        }
        if dataset.0 >= lock(&self.inner.datasets).len() {
            return Err(SubmitError::UnknownDataset(dataset));
        }
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.inner.queue);
            if q.shutting_down {
                return Err(SubmitError::ShuttingDown);
            }
            if q.jobs.len() >= self.inner.cfg.queue_depth {
                self.inner
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull {
                    depth: q.jobs.len(),
                });
            }
            let in_flight = q.tenant_inflight.entry(tenant).or_default();
            if *in_flight >= self.inner.cfg.tenant_inflight {
                let in_flight = *in_flight;
                self.inner
                    .rejected_tenant_cap
                    .fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::TenantAtCapacity { tenant, in_flight });
            }
            *in_flight += 1;
            q.jobs.push_back(Job {
                program,
                dataset,
                tenant,
                enqueued: Instant::now(),
                tx,
            });
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.available.notify_one();
        Ok(Ticket { rx })
    }

    /// Runs queued jobs on the calling thread until the queue is
    /// empty. This is how inline mode (`workers == 0`) consumes work —
    /// and why the fault-injection tests can install a thread-local
    /// [`stardust_spatial::FaultPlan`] and have the serving path see
    /// it.
    pub fn drain(&self) {
        loop {
            let batch = {
                let mut q = lock(&self.inner.queue);
                if q.jobs.is_empty() {
                    return;
                }
                self.inner.take_batch(&mut q)
            };
            self.inner.run_batch(batch);
        }
    }

    /// Stops admitting new jobs. Already-accepted jobs still run to
    /// completion (by workers, or by [`Server::drain`]/shutdown in
    /// inline mode).
    pub fn begin_shutdown(&self) {
        lock(&self.inner.queue).shutting_down = true;
        self.inner.available.notify_all();
    }

    /// Graceful shutdown: stops admission, drains every accepted job,
    /// joins the workers, and returns the final statistics snapshot.
    pub fn shutdown(mut self) -> ServeStats {
        self.finish();
        self.inner.snapshot()
    }

    /// A point-in-time [`ServeStats`] snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.snapshot()
    }

    fn finish(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Inline mode (and the empty-queue common case for workers).
        self.drain();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.finish();
    }
}
