//! Resolved-slot interpreter for the Spatial IR.
//!
//! Executes a [`SpatialProgram`] against DRAM contents. This provides the
//! executable semantics that the authors obtained from the Spatial/SARA
//! toolchain: compiled kernels are checked for correctness against the CIN
//! oracle by running them here, and the [`ExecStats`] event trace (elements
//! processed per pattern, DRAM words moved, scanner bits examined, shuffle
//! accesses, ALU operations) feeds the Capstan cycle simulator.
//!
//! # Execution engines
//!
//! [`Machine::new`] runs the two-stage compilation pipeline: the
//! [`crate::resolve`] link pass interns every memory, register, FIFO,
//! and variable name into dense `u32` slots and flattens every
//! expression tree into one arena, and the [`crate::bytecode`] pass
//! lowers the resolved tree into a flat op vector with explicit jump
//! targets. [`Machine::run`] executes that bytecode with a program
//! counter and a dense frame stack — no statement recursion, no
//! per-iteration closures — over `Vec`-indexed state, so the hot path
//! never hashes a string or chases a statement tree. Dense counters are
//! folded back into the string-keyed [`ExecStats`] shape when
//! [`Machine::run`] finishes.
//!
//! The original name-keyed tree walker survives as
//! [`crate::ReferenceMachine`], an independent oracle that shares no
//! state or compiled artifact with [`Machine`]. Differential tests
//! assert both engines produce byte-identical DRAM contents and
//! identical [`ExecStats`], and `cargo bench --bench interp` measures
//! the speedup.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bytecode::{CompiledProgram, EOp, FusedOp, GatherRef, Op, OpId, Operand};
use crate::faults;
use crate::ir::{BinSOp, MemKind, ScanOp, SpatialProgram};
use crate::resolve::{bit_words_for, Slot, SymbolTable};

/// Errors raised while executing a Spatial program.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A memory name was referenced but never declared/allocated.
    UnknownMemory(String),
    /// An access fell outside a memory's capacity.
    OutOfBounds {
        /// Memory name.
        mem: String,
        /// Offending word index.
        index: i64,
        /// Memory capacity in words.
        len: usize,
    },
    /// A FIFO was dequeued while empty.
    FifoUnderflow(String),
    /// A variable was read before being bound.
    UnboundVar(String),
    /// A negative or NaN index or length was computed.
    NegativeIndex {
        /// Where the negative (or NaN) value appeared.
        context: String,
        /// The value.
        value: f64,
    },
    /// A [`DramImage`] built for one compiled program was bound to a
    /// machine running an incompatible one.
    ImageMismatch,
    /// A [`RunBudget`] resource was exhausted mid-run. The machine's
    /// state is abandoned partway through the program — callers must
    /// treat it as poisoned (the [`crate::MachinePool`] quarantines it
    /// automatically).
    BudgetExceeded {
        /// Which budgeted resource ran out.
        resource: BudgetResource,
        /// The configured limit (steps, words, or deadline millis;
        /// `0` for cancellation, which has no numeric limit).
        limit: u64,
    },
    /// A fault injected by the [`crate::faults`] harness fired. Only
    /// produced when a [`crate::faults::FaultPlan`] is installed —
    /// production runs never see this variant.
    InjectedFault {
        /// Where the injected fault fired (step count or alloc site).
        site: String,
    },
}

/// The resource that a [`RunError::BudgetExceeded`] ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetResource {
    /// Interpreter steps (loop-body executions / "fuel").
    Steps,
    /// DRAM words touched (bulk + random reads and writes).
    DramWords,
    /// The wall-clock deadline passed.
    Deadline,
    /// The run's [`CancelFlag`] was raised.
    Cancelled,
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetResource::Steps => write!(f, "step budget"),
            BudgetResource::DramWords => write!(f, "DRAM word budget"),
            BudgetResource::Deadline => write!(f, "deadline"),
            BudgetResource::Cancelled => write!(f, "cancellation"),
        }
    }
}

/// A shared cancellation flag: one cheap atomic, checked on loop
/// back-edges (amortized — every [`INTERRUPT_MASK`]+1 steps on the hot
/// paths), so an external controller can stop a runaway run without
/// killing the thread. Clone freely; all clones observe one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag: every machine running under a [`RunBudget`]
    /// carrying this flag aborts with
    /// [`RunError::BudgetExceeded`]`{resource: Cancelled, ..}` at its
    /// next back-edge check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource limits for one run, turning runaway kernels into structured
/// [`RunError::BudgetExceeded`] results instead of hangs. The default
/// is unlimited on every axis, and an unlimited budget costs nothing
/// measurable on the interpreter hot paths (fuel lives in a register,
/// interrupt checks amortize over [`INTERRUPT_MASK`]+1 steps).
///
/// A "step" is one loop-body execution — exactly what
/// [`ExecStats::node_trips`] counts, summed over nodes — so the
/// completes-or-aborts predicate is identical across both execution
/// engines: a run finishes iff its total trip count fits the fuel.
/// Budgets are armed at [`Machine::run`] entry and persist on the
/// machine until [`Machine::reset`] (pool check-in clears them, so
/// recycled machines never inherit limits).
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Maximum loop-body executions ("fuel"); `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Maximum DRAM words touched (bulk + random, reads + writes).
    pub max_dram_words: Option<u64>,
    /// Wall-clock deadline, measured from run entry.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked on loop back-edges.
    pub cancel: Option<CancelFlag>,
}

impl RunBudget {
    /// An explicitly unlimited budget (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder: cap interpreter steps.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = Some(steps);
        self
    }

    /// Builder: cap DRAM words touched.
    pub fn with_max_dram_words(mut self, words: u64) -> Self {
        self.max_dram_words = Some(words);
        self
    }

    /// Builder: set a wall-clock deadline from run entry.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: attach a cancellation flag.
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Whether any axis is limited (used to skip arming entirely).
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some()
            || self.max_dram_words.is_some()
            || self.deadline.is_some()
            || self.cancel.is_some()
    }
}

/// Deadline/cancel checks amortize: they run when `fuel & INTERRUPT_MASK
/// == 0`, i.e. every 4096 steps, keeping `Instant::now()` and the shared
/// atomic off the per-iteration path.
pub(crate) const INTERRUPT_MASK: u64 = 0xFFF;

/// What hitting zero fuel means: the step budget, or a one-shot
/// injected fault from the [`crate::faults`] harness min-folded into
/// the same countdown (zero extra hot-path cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuelCause {
    Budget,
    InjectedError,
    InjectedPanic,
}

/// Builds the out-of-fuel outcome. `#[cold]` keeps the construction
/// (and the injected-fault consumption) off the hot loops.
#[cold]
pub(crate) fn exhausted_fuel(cause: FuelCause, limit: u64) -> RunError {
    match cause {
        FuelCause::Budget => RunError::BudgetExceeded {
            resource: BudgetResource::Steps,
            limit,
        },
        FuelCause::InjectedError => {
            faults::consume_error();
            RunError::InjectedFault {
                site: format!("step {limit}"),
            }
        }
        FuelCause::InjectedPanic => {
            faults::consume_panic();
            panic!("injected fault: forced panic at step {limit}")
        }
    }
}

/// The amortized deadline/cancel check shared by every engine.
#[cold]
pub(crate) fn check_interrupts(
    deadline_at: Option<Instant>,
    deadline_ms: u64,
    cancel: Option<&CancelFlag>,
) -> Result<(), RunError> {
    if let Some(c) = cancel {
        if c.is_cancelled() {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::Cancelled,
                limit: 0,
            });
        }
    }
    if let Some(d) = deadline_at {
        if Instant::now() >= d {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                limit: deadline_ms,
            });
        }
    }
    Ok(())
}

/// [`Machine::charge_step`] over already-destructured machine fields,
/// for call sites (the frame advancer) that hold the machine split into
/// disjoint borrows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn charge_step_parts(
    fuel: &mut u64,
    cause: FuelCause,
    limit: u64,
    interrupts: bool,
    deadline_at: Option<Instant>,
    deadline_ms: u64,
    cancel: Option<&CancelFlag>,
) -> Result<(), RunError> {
    if *fuel == 0 {
        return Err(exhausted_fuel(cause, limit));
    }
    *fuel -= 1;
    if interrupts && *fuel & INTERRUPT_MASK == 0 {
        check_interrupts(deadline_at, deadline_ms, cancel)?;
    }
    Ok(())
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownMemory(m) => write!(f, "unknown memory {m}"),
            RunError::OutOfBounds { mem, index, len } => {
                write!(f, "index {index} out of bounds for {mem} of {len} words")
            }
            RunError::FifoUnderflow(m) => write!(f, "dequeue from empty FIFO {m}"),
            RunError::UnboundVar(v) => write!(f, "unbound variable {v}"),
            RunError::NegativeIndex { context, value } => {
                write!(f, "negative or NaN index {value} in {context}")
            }
            RunError::ImageMismatch => {
                write!(
                    f,
                    "DRAM image does not match the machine's compiled program"
                )
            }
            RunError::BudgetExceeded { resource, limit } => match resource {
                BudgetResource::Steps => write!(f, "run exceeded its step budget of {limit}"),
                BudgetResource::DramWords => {
                    write!(f, "run exceeded its DRAM budget of {limit} words")
                }
                BudgetResource::Deadline => {
                    write!(f, "run exceeded its deadline of {limit} ms")
                }
                BudgetResource::Cancelled => write!(f, "run was cancelled"),
            },
            RunError::InjectedFault { site } => {
                write!(f, "injected fault fired at {site}")
            }
        }
    }
}

impl Error for RunError {}

/// Bytes per simulated DRAM word. The paper's accelerator model (and
/// its bandwidth math) moves 32-bit words — indices and values alike —
/// so every word of traffic counts four bytes, even though the
/// interpreter stores words as `f64` for convenience.
pub const DRAM_WORD_BYTES: u64 = 4;

/// Event counts collected during execution, the input to cycle modeling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Words bulk-read per DRAM array.
    pub dram_reads: HashMap<String, u64>,
    /// Words bulk-written per DRAM array.
    pub dram_writes: HashMap<String, u64>,
    /// Single-element (random) DRAM reads.
    pub dram_random_reads: u64,
    /// Single-element (random) DRAM writes.
    pub dram_random_writes: u64,
    /// Iterations executed per pattern node id, dense (index = node id,
    /// trailing zeros trimmed so the representation is canonical).
    pub node_trips: Vec<u64>,
    /// DRAM words read by loads under each pattern node id (dense,
    /// trailing zeros trimmed).
    pub node_dram_read_words: Vec<u64>,
    /// DRAM words written by stores under each pattern node id (dense,
    /// trailing zeros trimmed).
    pub node_dram_write_words: Vec<u64>,
    /// Scalar ALU operations evaluated.
    pub alu_ops: u64,
    /// On-chip affine memory reads.
    pub sram_reads: u64,
    /// On-chip memory writes.
    pub sram_writes: u64,
    /// Random (data-dependent) on-chip accesses — served by the shuffle
    /// network when crossing lanes.
    pub shuffle_accesses: u64,
    /// FIFO enqueues.
    pub fifo_enqs: u64,
    /// FIFO dequeues.
    pub fifo_deqs: u64,
    /// Bits examined by scanners.
    pub scan_bits: u64,
    /// Iterations emitted by scanners (set bits / combined set bits).
    pub scan_emits: u64,
    /// Bits written while generating bit vectors.
    pub bv_gen_bits: u64,
    /// Elements folded by `Reduce` patterns.
    pub reduce_elems: u64,
}

impl ExecStats {
    /// Total words bulk-read from DRAM.
    pub fn total_dram_read_words(&self) -> u64 {
        self.dram_reads.values().sum()
    }

    /// Total words bulk-written to DRAM.
    pub fn total_dram_write_words(&self) -> u64 {
        self.dram_writes.values().sum()
    }

    /// Total DRAM traffic in bytes ([`DRAM_WORD_BYTES`]-sized words,
    /// plus random accesses).
    pub fn total_dram_bytes(&self) -> u64 {
        DRAM_WORD_BYTES
            * (self.total_dram_read_words()
                + self.total_dram_write_words()
                + self.dram_random_reads
                + self.dram_random_writes)
    }

    /// Iterations of a given pattern node.
    pub fn trips(&self, node: usize) -> u64 {
        self.node_trips.get(node).copied().unwrap_or(0)
    }

    /// Adds `delta` to a dense node-indexed counter, growing the vector
    /// on demand while keeping the no-trailing-zeros canonical form
    /// (a zero delta never creates entries).
    pub fn bump_node(counts: &mut Vec<u64>, node: usize, delta: u64) {
        if delta == 0 && node >= counts.len() {
            return;
        }
        if counts.len() <= node {
            counts.resize(node + 1, 0);
        }
        counts[node] += delta;
    }

    /// Elementwise-adds a dense node-indexed counter into another
    /// (merging stage statistics).
    pub fn merge_node(into: &mut Vec<u64>, from: &[u64]) {
        if into.len() < from.len() {
            into.resize(from.len(), 0);
        }
        for (d, s) in into.iter_mut().zip(from) {
            *d += s;
        }
    }
}

/// Allocation state of one on-chip slot: what the slot currently is.
/// This is the only discriminant left on the memory hot path — the
/// storage itself lives in the machine's flat arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChipTag {
    /// Never allocated (touching it reproduces `UnknownMemory`).
    None,
    /// Addressable words (SRAM / SparseSRAM).
    Words,
    /// A FIFO ring over the slot's word region.
    Fifo,
    /// A single register word.
    Reg,
    /// A packed bit vector in the bitset arena.
    Bits,
}

/// Flat per-slot on-chip state: the current allocation tag/kind plus
/// the slot's region inside the word and bitset arenas. Regions start
/// at the static [`crate::resolve::ArenaLayout`] homes and move to the
/// end of an arena only on dynamic growth (FIFO overflow, bit-vector
/// regeneration past the declared dimension, re-linking).
///
/// Field roles by tag: `len` is the logical word length for `Words`,
/// the element count for `Fifo`, and the logical bit length for
/// `Bits`; `head` is the ring read position for `Fifo`.
#[derive(Debug, Clone, Copy)]
struct ChipState {
    tag: ChipTag,
    kind: MemKind,
    woff: usize,
    wcap: usize,
    boff: usize,
    bcap: usize,
    len: usize,
    head: usize,
}

impl ChipState {
    const UNMAPPED: ChipState = ChipState {
        tag: ChipTag::None,
        kind: MemKind::Dram,
        woff: 0,
        wcap: 0,
        boff: 0,
        bcap: 0,
        len: 0,
        head: 0,
    };
}

/// Per-slot DRAM state: where the slot's words live inside the
/// machine's flat DRAM arena. The arena is two segments — the shared
/// copy-on-write input segment (arrays the program never writes) and
/// the machine-owned output segment — and a slot's segment residency is
/// decided statically by the [`crate::resolve::DramLayout`].
#[derive(Debug, Clone, Copy)]
struct DramState {
    /// Whether the slot is backed by storage at all (`false` reproduces
    /// `UnknownMemory` at touch time).
    mapped: bool,
    /// `true` → input segment (shared, CoW); `false` → output segment.
    input: bool,
    kind: MemKind,
    /// First word within the slot's segment.
    off: usize,
    /// Declared capacity in words.
    len: usize,
}

impl DramState {
    const UNMAPPED: DramState = DramState {
        mapped: false,
        input: false,
        kind: MemKind::Dram,
        off: 0,
        len: 0,
    };
}

/// The words of a DRAM slot, read-only. Free function (not a method) so
/// callers can split-borrow the segments against other machine fields.
#[inline(always)]
fn dram_words<'a>(input: &'a [f64], out: &'a [f64], st: DramState) -> Option<&'a [f64]> {
    if !st.mapped {
        return None;
    }
    let seg = if st.input { input } else { out };
    Some(&seg[st.off..st.off + st.len])
}

/// The words of a DRAM slot, writable. A write targeting the shared
/// input segment privatizes it first (`Arc::make_mut`): one segment
/// memcpy on the first such write, nothing afterwards — the
/// copy-on-write half of [`DramImage`] sharing.
#[inline(always)]
fn dram_words_mut<'a>(
    input: &'a mut Arc<Vec<f64>>,
    out: &'a mut Vec<f64>,
    st: DramState,
) -> Option<&'a mut [f64]> {
    if !st.mapped {
        return None;
    }
    let seg: &mut Vec<f64> = if st.input { Arc::make_mut(input) } else { out };
    Some(&mut seg[st.off..st.off + st.len])
}

/// An immutable, fully converted DRAM input image for one compiled
/// program: every input (never-written) array's words laid out per the
/// program's [`crate::resolve::DramLayout`], shared behind an `Arc`.
///
/// Build one per (program, dataset) pair with [`DramImage::builder`] —
/// the `usize → f64` conversion of `pos`/`crd` arrays happens exactly
/// once, here — then bind it to as many machines as needed with
/// [`Machine::bind_image`]: each bind is an `Arc` clone of the input
/// segment plus a zero-fill of the output segment, O(outputs) instead
/// of O(nnz). Machines copy the shared segment only if something
/// actually writes it (rare; most kernels write only their outputs).
#[derive(Debug, Clone)]
pub struct DramImage {
    compiled: Arc<CompiledProgram>,
    input: Arc<Vec<f64>>,
    /// Initial contents bound into written (output-segment) arrays,
    /// as (segment offset, words). Rare — an in-place-updated operand —
    /// and re-applied per bind, so the cost stays O(outputs).
    output_init: Vec<(usize, Vec<f64>)>,
    /// Word-mix hash of the built image (input-segment word bits plus
    /// the output-init records), computed once at
    /// [`DramImageBuilder::finish`]: a content-addressed identity for
    /// the dataset as this program lays it out.
    content_hash: u64,
}

/// Mixes one 64-bit word into a running content hash (splitmix64-style
/// finalizer, a few ALU ops per word) — the shared content-hash
/// primitive behind [`DramImage::content_hash`] and the pipeline's
/// content-addressed image-cache keys, kept in one place so the two
/// identities can never drift apart.
#[inline]
pub fn mix64(h: &mut u64, v: u64) {
    let mut x = h.wrapping_add(0x9e3779b97f4a7c15).wrapping_add(v);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    *h = x ^ (x >> 31);
}

impl DramImage {
    /// Starts building an image for `compiled`.
    pub fn builder(compiled: Arc<CompiledProgram>) -> DramImageBuilder {
        let input = vec![0.0; compiled.resolved().dram_layout.input_words];
        DramImageBuilder {
            compiled,
            input,
            output_init: Vec::new(),
        }
    }

    /// The shared input segment (pristine; machines never mutate it
    /// through the copy-on-write path).
    pub fn input_words(&self) -> &[f64] {
        &self.input
    }

    /// Content-addressed identity of the built image: a word-mix hash
    /// of every input-segment word's bits plus the output-init
    /// records. Two images of one program hash equal iff they bind
    /// machines to identical DRAM. This is an **audit handle**, not
    /// the cache key — the pipeline's image cache derives its keys
    /// from the raw inputs *before* building (so a lookup never pays a
    /// build), and regression tests cross-check the two identities.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Whether this image can bind to a machine running `compiled`:
    /// the identical artifact, or an equal program compiled
    /// separately.
    fn matches(&self, compiled: &Arc<CompiledProgram>) -> bool {
        Arc::ptr_eq(&self.compiled, compiled)
            || (self.compiled.source() == compiled.source()
                && self.compiled.resolved().dram_layout == compiled.resolved().dram_layout)
    }

    /// Whether this image's *DRAM story* matches `compiled` even if
    /// the program bodies differ: equal DRAM declarations interned in
    /// declaration order give identical slot numbering, and an equal
    /// computed [`crate::resolve::DramLayout`] places every slot's
    /// words at the same segment offsets, so the image's words mean
    /// the same thing to both programs. Shard sub-programs rewrite
    /// loop bounds (and rename) but keep the DRAM story intact, and
    /// bind the parent's image through exactly this clause.
    pub(crate) fn layout_matches(&self, compiled: &Arc<CompiledProgram>) -> bool {
        self.matches(compiled)
            || (self.compiled.source().drams == compiled.source().drams
                && self.compiled.resolved().dram_layout == compiled.resolved().dram_layout)
    }
}

/// Writes input tensors into a [`DramImage`] under construction.
/// Arrays are addressed by DRAM slot (see [`SymbolTable::dram_slot`]) —
/// resolve names once at compile time, not per bind.
#[derive(Debug, Clone)]
pub struct DramImageBuilder {
    compiled: Arc<CompiledProgram>,
    input: Vec<f64>,
    output_init: Vec<(usize, Vec<f64>)>,
}

impl DramImageBuilder {
    fn region(&self, slot: Slot, len: usize) -> Result<DramState, RunError> {
        let layout = &self.compiled.resolved().dram_layout;
        let r = layout
            .drams
            .get(slot as usize)
            .filter(|r| r.mapped)
            .ok_or_else(|| {
                RunError::UnknownMemory(self.compiled.syms().dram_name(slot).to_string())
            })?;
        if len > r.size {
            return Err(RunError::OutOfBounds {
                mem: self.compiled.syms().dram_name(slot).to_string(),
                index: len as i64,
                len: r.size,
            });
        }
        Ok(DramState {
            mapped: true,
            input: !r.written,
            kind: r.kind,
            off: r.offset,
            len: r.size,
        })
    }

    /// Writes `data` to the head of the slot's array, exactly like
    /// [`Machine::write_dram`].
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownMemory`] / [`RunError::OutOfBounds`] as
    /// [`Machine::write_dram`] raises them.
    pub fn write(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError> {
        let st = self.region(slot, data.len())?;
        if st.input {
            self.input[st.off..st.off + data.len()].copy_from_slice(data);
        } else {
            self.output_init.push((st.off, data.to_vec()));
        }
        Ok(())
    }

    /// Writes an integer array (`pos`/`crd`), converting `usize → f64`
    /// once — the only place a dataset's index arrays are converted.
    ///
    /// # Errors
    ///
    /// Same as [`DramImageBuilder::write`].
    pub fn write_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError> {
        let st = self.region(slot, data.len())?;
        if st.input {
            for (dst, &x) in self.input[st.off..].iter_mut().zip(data) {
                *dst = x as f64;
            }
        } else {
            self.output_init
                .push((st.off, data.iter().map(|&x| x as f64).collect()));
        }
        Ok(())
    }

    /// Freezes the image. The input segment becomes immutable and
    /// shareable, and the content hash is computed — the only pass
    /// over the built words.
    pub fn finish(self) -> DramImage {
        let mut h: u64 = 0x9e3779b97f4a7c15;
        for v in &self.input {
            mix64(&mut h, v.to_bits());
        }
        for (off, data) in &self.output_init {
            mix64(&mut h, *off as u64);
            mix64(&mut h, data.len() as u64);
            for v in data {
                mix64(&mut h, v.to_bits());
            }
        }
        DramImage {
            compiled: self.compiled,
            input: Arc::new(self.input),
            output_init: self.output_init,
            content_hash: h,
        }
    }
}

/// A gather operand pre-resolved for the scatter superinstruction: the
/// source slot's region, logical length, and shuffle attribution are
/// hoisted out of the loop (the loop body provably cannot change them).
#[derive(Debug, Clone, Copy)]
struct HotGather {
    /// Chip slot (for error naming).
    chip: Slot,
    /// Index variable slot.
    var: Slot,
    /// Hoisted word-arena offset.
    woff: usize,
    /// Hoisted logical length.
    len: usize,
    /// Whether each read counts a shuffle access.
    shuffle: bool,
}

/// Operand shapes the scatter superinstruction can evaluate without the
/// generic dispatch: literals, variables, single gathers, the
/// scale-by-gathered-value shape, and the `var op const` two-op
/// expression program.
#[derive(Debug, Clone, Copy)]
enum HotValue {
    Const(f64),
    Var(Slot),
    Gather(HotGather),
    BinGather { a: Slot, op: BinSOp, g: HotGather },
    VarConstBin { var: Slot, c: f64, op: BinSOp },
}

/// Register-batched statistics for the scatter superinstruction,
/// flushed to the dense counters on every loop exit path.
#[derive(Debug, Default, Clone, Copy)]
struct HotCounters {
    sram_reads: u64,
    shuffles: u64,
    alu_ops: u64,
}

// --- FIFO ring primitives over a word-arena region -------------------
//
// A FIFO occupies `st.wcap` words at `st.woff`; `st.head` is the read
// position and `st.len` the element count. The queue itself is
// unbounded (matching the reference engine's `VecDeque`): when an
// enqueue would exceed the region, the ring relocates to a larger
// region at the end of the arena. Free functions (not methods) so
// callers can split-borrow `words` against other machine fields.

/// Makes room for `additional` more elements, relocating and
/// linearizing the ring at the end of the arena when the current
/// region is too small.
fn fifo_reserve(words: &mut Vec<f64>, st: &mut ChipState, additional: usize) {
    let need = st.len + additional;
    if need <= st.wcap {
        return;
    }
    let new_cap = need.next_power_of_two().max(4);
    let new_off = words.len();
    words.resize(new_off + new_cap, 0.0);
    for i in 0..st.len {
        words[new_off + i] = words[st.woff + (st.head + i) % st.wcap];
    }
    st.woff = new_off;
    st.wcap = new_cap;
    st.head = 0;
}

/// Appends one element. Capacity must have been reserved.
#[inline(always)]
fn fifo_push(words: &mut [f64], st: &mut ChipState, v: f64) {
    debug_assert!(st.len < st.wcap, "fifo_push without reserve");
    words[st.woff + (st.head + st.len) % st.wcap] = v;
    st.len += 1;
}

/// Pops the front element, or `None` when empty.
#[inline(always)]
fn fifo_pop(words: &[f64], st: &mut ChipState) -> Option<f64> {
    if st.len == 0 {
        return None;
    }
    let v = words[st.woff + st.head];
    st.head = (st.head + 1) % st.wcap;
    st.len -= 1;
    Some(v)
}

/// Drops all elements (the reference engine's drained-on-error state).
#[inline(always)]
fn fifo_clear(st: &mut ChipState) {
    st.head = 0;
    st.len = 0;
}

/// A scan snapshot: the packed bit-vector words memcpy'd out of the
/// bitset arena at loop entry, so the active scan keeps iterating its
/// entry-time image even if the body regenerates the bit vector.
/// `aw`/`bw` bound the words valid for this entry (the buffers are
/// pooled and may be longer from a previous, larger snapshot).
#[derive(Debug, Clone, Default)]
struct ScanBuf {
    a: Vec<u64>,
    b: Vec<u64>,
    aw: usize,
    bw: usize,
}

impl ScanBuf {
    fn copy_into(dst: &mut Vec<u64>, src: &[u64]) -> usize {
        if dst.len() < src.len() {
            dst.resize(src.len(), 0);
        }
        dst[..src.len()].copy_from_slice(src);
        src.len()
    }

    #[inline(always)]
    fn bit(words: &[u64], valid: usize, idx: usize) -> bool {
        let w = idx >> 6;
        w < valid && (words[w] >> (idx & 63)) & 1 == 1
    }

    #[inline(always)]
    fn a_set(&self, idx: usize) -> bool {
        Self::bit(&self.a, self.aw, idx)
    }

    #[inline(always)]
    fn b_set(&self, idx: usize) -> bool {
        Self::bit(&self.b, self.bw, idx)
    }

    /// One packed word of the `a` snapshot (all-zero past its extent).
    #[inline(always)]
    fn word_a(&self, w: usize) -> u64 {
        if w < self.aw {
            self.a[w]
        } else {
            0
        }
    }

    /// One packed word of the `b` snapshot (all-zero past its extent).
    #[inline(always)]
    fn word_b(&self, w: usize) -> u64 {
        if w < self.bw {
            self.b[w]
        } else {
            0
        }
    }

    /// Fast-forward for the `Scan1Simple` superinstruction: the next set
    /// bit of `a` at or after `from`, skipping zero words whole and
    /// locating set bits with `trailing_zeros` instead of a per-bit
    /// probe. Purely a lookup — non-set positions have no observable
    /// effect in a `Scan1` loop, so the emit sequence is identical to
    /// the linear probe.
    fn next_a_set(&self, from: usize, dim: usize) -> Option<usize> {
        let mut idx = from;
        while idx < dim {
            let w = idx >> 6;
            let rem = dim - (w << 6);
            let hi_mask = if rem >= 64 { !0u64 } else { (1u64 << rem) - 1 };
            let word = self.word_a(w) & hi_mask & (!0u64 << (idx & 63));
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            idx = (w + 1) << 6;
        }
        None
    }

    /// Fast-forward for the `Scan2Simple` superinstruction: returns the
    /// index of the next *combined* bit at or after `from` (or `dim`
    /// when none remains) plus the number of `a` and `b` bits passed over in
    /// `[from, next)` — the position-counter advances the linear probe
    /// would have made one bit at a time, batched with `count_ones`
    /// per word.
    fn scan2_skip(&self, op: ScanOp, from: usize, dim: usize) -> (usize, u64, u64) {
        let (mut askip, mut bskip) = (0u64, 0u64);
        let mut idx = from;
        while idx < dim {
            let w = idx >> 6;
            let rem = dim - (w << 6);
            let hi_mask = if rem >= 64 { !0u64 } else { (1u64 << rem) - 1 };
            let live = hi_mask & (!0u64 << (idx & 63));
            let aw = self.word_a(w) & live;
            let bw = self.word_b(w) & live;
            let comb = match op {
                ScanOp::And => aw & bw,
                ScanOp::Or => aw | bw,
            };
            if comb != 0 {
                let b = comb.trailing_zeros();
                let below = (1u64 << b) - 1;
                askip += (aw & below).count_ones() as u64;
                bskip += (bw & below).count_ones() as u64;
                return ((w << 6) + b as usize, askip, bskip);
            }
            askip += aw.count_ones() as u64;
            bskip += bw.count_ones() as u64;
            idx = (w + 1) << 6;
        }
        (dim, askip, bskip)
    }
}

/// Iteration state of one active loop in the bytecode engine.
#[derive(Debug, Clone)]
enum FrameState {
    /// Dense `Range` loop.
    Range {
        var: Slot,
        saved: Option<f64>,
        v: f64,
        hi: f64,
        step: f64,
    },
    /// Single bit-vector scan.
    Scan1 {
        depth: usize,
        dim: usize,
        idx: usize,
        pos: u64,
        pos_var: Slot,
        idx_var: Slot,
        saved: [Option<f64>; 2],
    },
    /// Two-input co-iteration scan.
    Scan2 {
        depth: usize,
        dim: usize,
        idx: usize,
        ap: u64,
        bp: u64,
        emitted: u64,
        op: ScanOp,
        vars: [Slot; 4],
        saved: [Option<f64>; 4],
    },
}

/// One active loop of the bytecode dispatch loop: the pattern node id
/// (for trip/DRAM attribution), the reduction accumulator when the loop
/// is a `Reduce`, and the counter state.
#[derive(Debug, Clone)]
struct Frame {
    node: usize,
    reduce: Option<Slot>,
    acc: f64,
    state: FrameState,
}

/// Dense statistics counters, indexed by slot / node id. `Option` on
/// the DRAM-name counters distinguishes "never touched" from "touched
/// with zero words" so the fold reproduces the reference engine's
/// map-entry creation exactly; the node-indexed counters are plain
/// vectors (their public form is dense too).
#[derive(Debug, Clone, Default)]
struct DenseStats {
    dram_reads: Vec<Option<u64>>,
    dram_writes: Vec<Option<u64>>,
    node_trips: Vec<u64>,
    node_dram_read_words: Vec<u64>,
    node_dram_write_words: Vec<u64>,
    dram_random_reads: u64,
    dram_random_writes: u64,
    alu_ops: u64,
    sram_reads: u64,
    sram_writes: u64,
    shuffle_accesses: u64,
    fifo_enqs: u64,
    fifo_deqs: u64,
    scan_bits: u64,
    scan_emits: u64,
    bv_gen_bits: u64,
    reduce_elems: u64,
}

impl DenseStats {
    /// Zeroes every counter while keeping the dense vectors' lengths
    /// (and hence their slot/node indexing) intact.
    fn clear(&mut self) {
        let DenseStats {
            dram_reads,
            dram_writes,
            node_trips,
            node_dram_read_words,
            node_dram_write_words,
            dram_random_reads,
            dram_random_writes,
            alu_ops,
            sram_reads,
            sram_writes,
            shuffle_accesses,
            fifo_enqs,
            fifo_deqs,
            scan_bits,
            scan_emits,
            bv_gen_bits,
            reduce_elems,
        } = self;
        dram_reads.fill(None);
        dram_writes.fill(None);
        node_trips.fill(0);
        node_dram_read_words.fill(0);
        node_dram_write_words.fill(0);
        *dram_random_reads = 0;
        *dram_random_writes = 0;
        *alu_ops = 0;
        *sram_reads = 0;
        *sram_writes = 0;
        *shuffle_accesses = 0;
        *fifo_enqs = 0;
        *fifo_deqs = 0;
        *scan_bits = 0;
        *scan_emits = 0;
        *bv_gen_bits = 0;
        *reduce_elems = 0;
    }

    fn note_dram_read(&mut self, slot: Slot, words: u64, node: Option<usize>) {
        *self.dram_reads[slot as usize].get_or_insert(0) += words;
        if let Some(n) = node {
            self.node_dram_read_words[n] += words;
        }
    }

    fn note_dram_write(&mut self, slot: Slot, words: u64, node: Option<usize>) {
        *self.dram_writes[slot as usize].get_or_insert(0) += words;
        if let Some(n) = node {
            self.node_dram_write_words[n] += words;
        }
    }

    fn fold(&self, syms: &SymbolTable) -> ExecStats {
        let mut out = ExecStats {
            dram_random_reads: self.dram_random_reads,
            dram_random_writes: self.dram_random_writes,
            alu_ops: self.alu_ops,
            sram_reads: self.sram_reads,
            sram_writes: self.sram_writes,
            shuffle_accesses: self.shuffle_accesses,
            fifo_enqs: self.fifo_enqs,
            fifo_deqs: self.fifo_deqs,
            scan_bits: self.scan_bits,
            scan_emits: self.scan_emits,
            bv_gen_bits: self.bv_gen_bits,
            reduce_elems: self.reduce_elems,
            ..ExecStats::default()
        };
        for (slot, words) in self.dram_reads.iter().enumerate() {
            if let Some(w) = words {
                out.dram_reads
                    .insert(syms.dram_name(slot as Slot).to_string(), *w);
            }
        }
        for (slot, words) in self.dram_writes.iter().enumerate() {
            if let Some(w) = words {
                out.dram_writes
                    .insert(syms.dram_name(slot as Slot).to_string(), *w);
            }
        }
        out.node_trips = trimmed(&self.node_trips);
        out.node_dram_read_words = trimmed(&self.node_dram_read_words);
        out.node_dram_write_words = trimmed(&self.node_dram_write_words);
        out
    }
}

/// Copy of a dense counter vector with trailing zeros removed — the
/// canonical public form ([`ExecStats`] node counters compare by
/// value across engines that size their vectors differently).
fn trimmed(counts: &[u64]) -> Vec<u64> {
    let end = counts
        .iter()
        .rposition(|&c| c != 0)
        .map_or(0, |last| last + 1);
    counts[..end].to_vec()
}

#[inline]
fn index_of(v: f64, context: impl FnOnce() -> String) -> Result<usize, RunError> {
    // NaN fails too: `NaN as usize` is 0, which would silently
    // address element 0.
    if v.is_nan() || v < 0.0 {
        return Err(RunError::NegativeIndex {
            context: context(),
            value: v,
        });
    }
    // Exact-integer fast path: the cast round-trips iff `v` is a
    // non-negative integer below 2^64, where `round` is the identity.
    // This keeps `f64::round` (a libm call on baseline x86-64) off the
    // hot path without changing a single result.
    let t = v as usize;
    if t as f64 == v {
        return Ok(t);
    }
    Ok(v.round() as usize)
}

/// The machine state a program executes against: DRAM plus on-chip
/// memories, variable bindings, and statistics — all held in dense,
/// slot-indexed vectors produced by the [`crate::resolve`] link pass.
///
/// # Example
///
/// ```
/// use stardust_spatial::{Machine, SpatialProgram, SpatialStmt, SExpr, Counter, MemKind};
/// use stardust_spatial::ir::MemDecl;
///
/// // y[i] = x[i] * 2 over a 4-element DRAM vector.
/// let mut p = SpatialProgram::new("double");
/// p.add_dram("x", 4);
/// p.add_dram("y", 4);
/// p.accel.push(SpatialStmt::Alloc(MemDecl::new("xs", MemKind::Sram, 4)));
/// p.accel.push(SpatialStmt::Load {
///     dst: "xs".into(), src: "x".into(),
///     start: SExpr::Const(0.0), end: SExpr::Const(4.0), par: 1,
/// });
/// p.accel.push(SpatialStmt::Foreach {
///     id: 0,
///     counter: Counter::range_to("i", SExpr::Const(4.0)),
///     par: 1,
///     body: vec![SpatialStmt::StoreScalar {
///         dst: "y".into(),
///         index: SExpr::var("i"),
///         value: SExpr::mul(SExpr::read("xs", SExpr::var("i")), SExpr::Const(2.0)),
///     }],
/// });
/// p.assign_ids();
///
/// let mut m = Machine::new(&p);
/// m.write_dram("x", &[1.0, 2.0, 3.0, 4.0]).unwrap();
/// m.run(&p).unwrap();
/// assert_eq!(m.dram("y").unwrap(), &[2.0, 4.0, 6.0, 8.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    compiled: Arc<CompiledProgram>,
    /// Machine-local copy of the compiled program's symbol table.
    /// Kept as a field (not read through `compiled`) so error paths can
    /// name memories while other fields are mutably borrowed.
    syms: SymbolTable,
    /// The compiled program whose [`crate::resolve::DramLayout`] the
    /// machine's DRAM placement was built from — fixed at construction.
    /// Re-linking ([`Machine::run`] with a different program) re-homes
    /// on-chip slots but never remaps DRAM, so images must match this
    /// artifact, not the possibly-relinked `compiled`.
    dram_source: Arc<CompiledProgram>,
    /// Per-slot DRAM placement; the storage behind it lives in
    /// `dram_input`/`dram_out`.
    dram_state: Vec<DramState>,
    /// The read-only input segment of the DRAM arena, shared with the
    /// compiled program's pristine zero image or a bound [`DramImage`].
    /// Copy-on-write: privatized on the machine's first write into it.
    dram_input: Arc<Vec<f64>>,
    /// The machine-owned output segment of the DRAM arena.
    dram_out: Vec<f64>,
    /// Per-slot on-chip allocation state; the storage behind it lives
    /// in `words`/`bits`.
    chip: Vec<ChipState>,
    /// The flat word arena: SRAM contents, FIFO rings, and registers,
    /// at the offsets recorded in `chip`.
    words: Vec<f64>,
    /// The flat bitset arena: packed bit vectors (64 bits per word).
    bits: Vec<u64>,
    env: Vec<Option<f64>>,
    dense: DenseStats,
    stats: ExecStats,
    node_stack: Vec<usize>,
    scratch: Vec<usize>,
    frames: Vec<Frame>,
    vstack: Vec<f64>,
    scan_pool: Vec<ScanBuf>,
    scan_depth: usize,
    /// Configured resource limits ([`Machine::set_budget`]); armed into
    /// the countdown fields below at each run entry. Cleared by
    /// [`Machine::reset`] / pool check-in.
    budget: RunBudget,
    /// Armed step countdown (`u64::MAX` = unlimited). Hot loops mirror
    /// this in a register and flush it on exit, like the trip counters.
    fuel: u64,
    /// What hitting zero fuel means (budget vs. min-folded injected
    /// fault from the [`crate::faults`] harness).
    fuel_cause: FuelCause,
    /// The step count at which the armed fuel event fires (for error
    /// messages).
    step_limit: u64,
    /// Armed DRAM-word countdown (`u64::MAX` = unlimited).
    dram_fuel: u64,
    /// Armed injected-allocation-failure countdown (`u64::MAX` = none).
    alloc_fuel: u64,
    /// Armed absolute deadline, from `budget.deadline` at run entry.
    deadline_at: Option<Instant>,
    /// Whether any amortized back-edge check (deadline/cancel) is armed.
    interrupts: bool,
    /// Set at run entry, cleared only when the run returns `Ok` — so a
    /// structured error *or* a panic leaves it set, and the pool's
    /// check-in quarantines the machine instead of recycling it.
    poisoned: bool,
    /// Armed only for sharded runs (see [`crate::shard`]): a bitset
    /// over the output-segment words recording exactly which words the
    /// program stored, so the merge can replay a shard's writes in
    /// shard order. `None` (the default) costs one untaken branch per
    /// DRAM store.
    write_log: Option<Vec<u64>>,
}

/// A copy of a [`Machine`]'s execution state — DRAM images, the flat
/// on-chip arenas, variable bindings, and statistics — taken with
/// [`Machine::snapshot`] and reinstated with [`Machine::restore`].
/// Because machine state is a handful of flat vectors, both directions
/// are slice memcpys.
///
/// Snapshots are valid at statement boundaries: between [`Machine::run`]
/// calls (multi-phase programs split across several `run`s checkpoint
/// between phases). Transient in-flight state (loop frames, the value
/// stack) is not captured — it is empty whenever `run` is not on the
/// call stack. The snapshot carries the machine's program binding, so
/// restoring also rewinds any re-linking done after the checkpoint.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    /// The program binding at snapshot time (an `Arc` clone, so this is
    /// a pointer copy): restoring rewinds any re-linking that happened
    /// after the checkpoint, keeping slot-indexed state and symbol
    /// table in lockstep with the data vectors.
    compiled: Arc<CompiledProgram>,
    syms: SymbolTable,
    dram_source: Arc<CompiledProgram>,
    dram_state: Vec<DramState>,
    /// `Arc` clone of the machine's input segment at snapshot time — a
    /// pointer copy, never a word copy; copy-on-write keeps it pristine
    /// if the machine writes inputs after the checkpoint.
    dram_input: Arc<Vec<f64>>,
    dram_out: Vec<f64>,
    chip: Vec<ChipState>,
    words: Vec<f64>,
    bits: Vec<u64>,
    env: Vec<Option<f64>>,
    dense: DenseStats,
    stats: ExecStats,
}

impl Machine {
    /// Creates a machine with zeroed DRAM arrays sized per the program's
    /// declarations. The program is linked and lowered to bytecode here;
    /// [`Machine::run`] re-links only when handed a different program.
    pub fn new(program: &SpatialProgram) -> Self {
        Machine::from_compiled(Arc::new(CompiledProgram::compile(program)))
    }

    /// Creates a machine bound to an already-compiled program, sharing
    /// the artifact with every other machine holding the same `Arc` —
    /// the re-bind path for dataset sweeps (see
    /// [`crate::bytecode::ProgramCache`]). Machine *state* (DRAM,
    /// on-chip memories, statistics) is per-machine; only the immutable
    /// compiled form is shared.
    pub fn from_compiled(compiled: Arc<CompiledProgram>) -> Self {
        let syms = compiled.syms().clone();
        let dram_input = Arc::clone(compiled.zero_dram_input());
        let dram_source = Arc::clone(&compiled);
        let mut m = Machine {
            compiled,
            syms,
            dram_source,
            dram_state: Vec::new(),
            dram_input,
            dram_out: Vec::new(),
            chip: Vec::new(),
            words: Vec::new(),
            bits: Vec::new(),
            env: Vec::new(),
            dense: DenseStats::default(),
            stats: ExecStats::default(),
            node_stack: Vec::new(),
            scratch: Vec::new(),
            frames: Vec::new(),
            vstack: Vec::new(),
            scan_pool: Vec::new(),
            scan_depth: 0,
            budget: RunBudget::default(),
            fuel: u64::MAX,
            fuel_cause: FuelCause::Budget,
            step_limit: u64::MAX,
            dram_fuel: u64::MAX,
            alloc_fuel: u64::MAX,
            deadline_at: None,
            interrupts: false,
            poisoned: false,
            write_log: None,
        };
        m.grow_state();
        let compiled = Arc::clone(&m.compiled);
        let layout = &compiled.resolved().dram_layout;
        for (slot, r) in layout.drams.iter().enumerate() {
            if r.mapped {
                m.dram_state[slot] = DramState {
                    mapped: true,
                    input: !r.written,
                    kind: r.kind,
                    off: r.offset,
                    len: r.size,
                };
            }
        }
        m.dram_out = vec![0.0; layout.output_words];
        m
    }

    /// Re-binds the machine's DRAM to a prebuilt [`DramImage`]: an
    /// `Arc` clone of the shared input segment plus a zero-fill (and
    /// rare init copies) of the output segment — O(outputs), no
    /// per-element input conversion or copy. On-chip state, variable
    /// bindings, and statistics are untouched; pair with a fresh
    /// [`Machine::from_compiled`] for a clean run.
    ///
    /// # Errors
    ///
    /// [`RunError::ImageMismatch`] when the image was built for an
    /// incompatible compiled program — including the program a machine
    /// was merely *re-linked* to: DRAM placement is fixed at
    /// construction, so only images for the construction-time program
    /// can bind.
    pub fn bind_image(&mut self, image: &DramImage) -> Result<(), RunError> {
        if !image.matches(&self.dram_source) {
            return Err(RunError::ImageMismatch);
        }
        self.bind_image_segments(image);
        Ok(())
    }

    /// Shard-only image bind (see [`crate::shard`]): accepts any
    /// program whose DRAM story equals the image's
    /// ([`DramImage::layout_matches`]), bodies aside, so shard
    /// sub-programs share the parent's input segment.
    pub(crate) fn shard_bind_image(&mut self, image: &DramImage) -> Result<(), RunError> {
        if !image.layout_matches(&self.dram_source) {
            return Err(RunError::ImageMismatch);
        }
        self.bind_image_segments(image);
        Ok(())
    }

    fn bind_image_segments(&mut self, image: &DramImage) {
        self.dram_input = Arc::clone(&image.input);
        self.dram_out.fill(0.0);
        for (off, data) in &image.output_init {
            self.dram_out[*off..*off + data.len()].copy_from_slice(data);
        }
    }

    /// Copies the machine's execution state (DRAM, the flat on-chip
    /// arenas, variable bindings, statistics). See [`MachineSnapshot`]
    /// for validity rules.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            compiled: Arc::clone(&self.compiled),
            syms: self.syms.clone(),
            dram_source: Arc::clone(&self.dram_source),
            dram_state: self.dram_state.clone(),
            dram_input: Arc::clone(&self.dram_input),
            dram_out: self.dram_out.clone(),
            chip: self.chip.clone(),
            words: self.words.clone(),
            bits: self.bits.clone(),
            env: self.env.clone(),
            dense: self.dense.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Reinstates a state previously captured with [`Machine::snapshot`],
    /// reusing this machine's buffers where possible.
    pub fn restore(&mut self, snapshot: &MachineSnapshot) {
        self.compiled = Arc::clone(&snapshot.compiled);
        self.syms.clone_from(&snapshot.syms);
        self.dram_source = Arc::clone(&snapshot.dram_source);
        self.dram_state.clone_from(&snapshot.dram_state);
        self.dram_input = Arc::clone(&snapshot.dram_input);
        self.dram_out.clone_from(&snapshot.dram_out);
        self.chip.clone_from(&snapshot.chip);
        self.words.clone_from(&snapshot.words);
        self.bits.clone_from(&snapshot.bits);
        self.env.clone_from(&snapshot.env);
        self.dense.clone_from(&snapshot.dense);
        self.stats.clone_from(&snapshot.stats);
    }

    /// The compiled program this machine is bound to.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// Clears execution state — on-chip allocations, variable bindings,
    /// statistics, and the DRAM output segment — without reallocating
    /// or zeroing the on-chip arenas: every on-chip slot returns to its
    /// unallocated state (regions keep their homes; `Alloc` fills them
    /// before any use), so a reused machine behaves exactly like a
    /// fresh [`Machine::from_compiled`] at O(slots + outputs), not
    /// O(arena).
    ///
    /// The DRAM *input* segment is left bound; follow with
    /// [`Machine::bind_image`] (or `write_dram`) to (re)bind a dataset.
    /// `reset` + `bind_image` is the O(outputs) re-bind loop for
    /// serving repeated runs of one kernel.
    pub fn reset(&mut self) {
        self.clear_outputs();
        self.clear_exec_state();
    }

    /// The DRAM-output half of [`Machine::reset`]: zero-fills the
    /// output segment. Crate-internal so the machine pool can skip it
    /// when a [`Machine::bind_image`] (which refills the segment)
    /// immediately follows.
    pub(crate) fn clear_outputs(&mut self) {
        self.dram_out.fill(0.0);
    }

    /// The execution-state half of [`Machine::reset`]: on-chip
    /// allocations, variable bindings, statistics, and in-flight loop
    /// state — everything except the DRAM output segment.
    pub(crate) fn clear_exec_state(&mut self) {
        for st in &mut self.chip {
            st.tag = ChipTag::None;
            st.len = 0;
            st.head = 0;
        }
        self.env.fill(None);
        self.dense.clear();
        self.stats = ExecStats::default();
        self.node_stack.clear();
        self.frames.clear();
        self.vstack.clear();
        self.scan_depth = 0;
        self.budget = RunBudget::default();
        self.fuel = u64::MAX;
        self.fuel_cause = FuelCause::Budget;
        self.step_limit = u64::MAX;
        self.dram_fuel = u64::MAX;
        self.alloc_fuel = u64::MAX;
        self.deadline_at = None;
        self.interrupts = false;
        self.poisoned = false;
        self.write_log = None;
    }

    /// Rebinds the DRAM input segment to the pristine all-zero image
    /// the machine was constructed with — an `Arc` pointer copy that
    /// drops any bound [`DramImage`] (and any copy-on-write private
    /// segment). [`Machine::reset`] + `unbind_inputs` is the
    /// machine-pool checkout invariant: a recycled machine becomes
    /// indistinguishable from a fresh [`Machine::from_compiled`].
    pub fn unbind_inputs(&mut self) {
        self.dram_input = Arc::clone(self.dram_source.zero_dram_input());
    }

    /// Sets the resource budget for subsequent runs. The budget is
    /// armed at each [`Machine::run`] entry and
    /// survives across runs until [`Machine::reset`] (or pool
    /// check-in) clears it back to unlimited.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The configured resource budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Whether the last run aborted — with a structured error or a
    /// panic — leaving the machine's state partway through a program.
    /// A poisoned machine must not be recycled; the
    /// [`crate::MachinePool`] quarantines it at check-in.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arms the sharded-run write log (see [`crate::shard`]): from here
    /// until [`Machine::shard_take_write_log`], every successful DRAM
    /// store records the output-segment words it touched in a bitset.
    pub(crate) fn shard_arm_write_log(&mut self) {
        self.write_log = Some(vec![0u64; bit_words_for(self.dram_out.len())]);
    }

    /// Takes the write log (disarming logging). Empty if never armed.
    pub(crate) fn shard_take_write_log(&mut self) -> Vec<u64> {
        self.write_log.take().unwrap_or_default()
    }

    /// The machine-owned DRAM output segment — the sharded merge reads
    /// each shard's segment through this.
    pub(crate) fn shard_output_words(&self) -> &[f64] {
        &self.dram_out
    }

    /// Applies a shard's logged writes into this machine: `values`
    /// holds the written words in ascending output-segment index order
    /// (one per bit set in `mask`, the shard's write log). Replaying
    /// shards in shard order makes the merged segment word-identical to
    /// the serial run: every runtime DRAM store is a pure overwrite, so
    /// last-write-wins in iteration order *is* the serial result.
    pub(crate) fn shard_apply_output(&mut self, values: &[f64], mask: &[u64]) {
        let mut vi = 0usize;
        for (w, &m) in mask.iter().enumerate() {
            let mut rem = m;
            let base = w * 64;
            while rem != 0 {
                let ix = base + rem.trailing_zeros() as usize;
                debug_assert!(ix < self.dram_out.len() && vi < values.len());
                self.dram_out[ix] = values[vi];
                vi += 1;
                rem &= rem - 1;
            }
        }
        debug_assert_eq!(vi, values.len());
    }

    /// Overwrites the folded statistics with the sharded-merge result,
    /// so downstream readers ([`Machine::stats`]) see the merged run.
    pub(crate) fn shard_set_stats(&mut self, stats: ExecStats) {
        self.stats = stats;
    }

    /// Records `n` words written at `off` within DRAM slot `dst` into
    /// the armed write log. Only output-segment words are logged (the
    /// layout places every program-written slot there; input-segment
    /// writes only happen through host `write_dram`, outside a run).
    #[inline(always)]
    fn log_dram_write(&mut self, dst: Slot, off: usize, n: usize) {
        if let Some(log) = &mut self.write_log {
            let st = self.dram_state[dst as usize];
            if st.input {
                return;
            }
            for ix in st.off + off..st.off + off + n {
                log[ix / 64] |= 1u64 << (ix % 64);
            }
        }
    }

    /// Arms the countdown fields from the configured budget and any
    /// installed [`crate::faults`] plan. One-shot injected step faults
    /// are min-folded into the fuel countdown so the hot loops pay for
    /// exactly one compare-and-decrement regardless of what is armed.
    fn arm_budget(&mut self) {
        let plan = faults::active();
        let mut fuel = self.budget.max_steps.unwrap_or(u64::MAX);
        let mut cause = FuelCause::Budget;
        if let Some(p) = &plan {
            if let Some(n) = p.max_steps {
                fuel = fuel.min(n);
            }
            if let Some(n) = p.error_at_step {
                if n <= fuel {
                    fuel = n;
                    cause = FuelCause::InjectedError;
                }
            }
            if let Some(n) = p.panic_at_step {
                if n <= fuel {
                    fuel = n;
                    cause = FuelCause::InjectedPanic;
                }
            }
        }
        self.fuel = fuel;
        self.fuel_cause = cause;
        self.step_limit = fuel;
        self.dram_fuel = self.budget.max_dram_words.unwrap_or(u64::MAX);
        self.alloc_fuel = plan.as_ref().and_then(|p| p.fail_alloc).unwrap_or(u64::MAX);
        self.deadline_at = self.budget.deadline.map(|d| Instant::now() + d);
        self.interrupts = self.deadline_at.is_some() || self.budget.cancel.is_some();
    }

    /// Charges one interpreter step ("fuel") and runs the amortized
    /// deadline/cancel check. Called once per loop-body execution —
    /// exactly the [`ExecStats::node_trips`] sites — so the
    /// completes-or-aborts predicate is engine-identical.
    #[inline(always)]
    fn charge_step(&mut self) -> Result<(), RunError> {
        if self.fuel == 0 {
            return Err(exhausted_fuel(self.fuel_cause, self.step_limit));
        }
        self.fuel -= 1;
        if self.interrupts && self.fuel & INTERRUPT_MASK == 0 {
            check_interrupts(
                self.deadline_at,
                self.deadline_ms(),
                self.budget.cancel.as_ref(),
            )?;
        }
        Ok(())
    }

    /// The configured deadline in milliseconds (for error messages).
    fn deadline_ms(&self) -> u64 {
        self.budget
            .deadline
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// Charges `words` against the DRAM-word budget.
    #[inline(always)]
    fn charge_dram(&mut self, words: u64) -> Result<(), RunError> {
        match self.dram_fuel.checked_sub(words) {
            Some(rest) => {
                self.dram_fuel = rest;
                Ok(())
            }
            None => Err(RunError::BudgetExceeded {
                resource: BudgetResource::DramWords,
                limit: self.budget.max_dram_words.unwrap_or(0),
            }),
        }
    }

    /// Re-links and re-lowers when handed a program other than the one
    /// the machine is bound to. The new program is resolved against the
    /// existing symbol table, so slots (and machine state) survive.
    fn relink(&mut self, program: &SpatialProgram) {
        if *program != *self.compiled.source() {
            let syms = std::mem::take(&mut self.syms);
            self.compiled = Arc::new(CompiledProgram::compile_with(program, syms));
            self.syms = self.compiled.syms().clone();
            self.grow_state();
        }
    }

    /// Grows slot-indexed state to match the symbol table after a
    /// resolution pass. Existing slots keep their contents: allocated
    /// on-chip slots keep their current arena regions, and
    /// still-unallocated slots whose reserved extent is smaller than
    /// the newly linked layout's are re-homed into a fresh stretch at
    /// the end of the arenas. Only the re-homed regions are appended —
    /// slots that already satisfy the layout cost nothing, so
    /// alternating `run` calls between two programs reaches a fixed
    /// point instead of growing the arenas per relink.
    fn grow_state(&mut self) {
        let drams = self.syms.dram_count();
        let chips = self.syms.chip_count();
        let vars = self.syms.var_count();
        let nodes = self
            .compiled
            .resolved()
            .node_limit
            .max(self.dense.node_trips.len());
        if self.dram_state.len() < drams {
            self.dram_state.resize(drams, DramState::UNMAPPED);
            self.dense.dram_reads.resize(drams, None);
            self.dense.dram_writes.resize(drams, None);
        }
        if self.chip.len() < chips {
            self.chip.resize(chips, ChipState::UNMAPPED);
        }
        let layout = &self.compiled.resolved().layout;
        let mut woff = self.words.len();
        let mut boff = self.bits.len();
        for (slot, region) in layout.chips.iter().enumerate() {
            let st = &mut self.chip[slot];
            if st.tag != ChipTag::None {
                continue;
            }
            if st.wcap < region.word_cap {
                st.woff = woff;
                st.wcap = region.word_cap;
                woff += region.word_cap;
            }
            if st.bcap < region.bit_words {
                st.boff = boff;
                st.bcap = region.bit_words;
                boff += region.bit_words;
            }
        }
        // From-empty growth (machine construction) goes through the
        // zeroed allocator — one calloc of untouched pages — instead of
        // `resize`'s element-wise fill; at large arena sizes this keeps
        // fresh-machine creation (the re-bind path) off the O(arena)
        // memset.
        if self.words.is_empty() {
            self.words = vec![0.0; woff];
        } else {
            self.words.resize(woff, 0.0);
        }
        if self.bits.is_empty() {
            self.bits = vec![0; boff];
        } else {
            self.bits.resize(boff, 0);
        }
        if self.env.len() < vars {
            self.env.resize(vars, None);
        }
        if self.dense.node_trips.len() < nodes {
            self.dense.node_trips.resize(nodes, 0);
            self.dense.node_dram_read_words.resize(nodes, 0);
            self.dense.node_dram_write_words.resize(nodes, 0);
        }
    }

    /// Ensures the slot's word region holds at least `need` words,
    /// relocating it to the end of the word arena when it does not.
    /// The region contents are NOT carried over — callers reset them.
    fn reserve_words(&mut self, slot: Slot, need: usize) {
        let st = &mut self.chip[slot as usize];
        if st.wcap < need {
            st.woff = self.words.len();
            st.wcap = need;
            self.words.resize(st.woff + need, 0.0);
        }
    }

    /// Ensures the slot's bitset region holds at least `need` packed
    /// words, relocating to the end of the bitset arena when it does
    /// not. Contents are NOT carried over — callers reset them.
    fn reserve_bits(&mut self, slot: Slot, need: usize) {
        let st = &mut self.chip[slot as usize];
        if st.bcap < need {
            st.boff = self.bits.len();
            st.bcap = need;
            self.bits.resize(st.boff + need, 0);
        }
    }

    fn unknown_dram(&self, slot: Slot) -> RunError {
        RunError::UnknownMemory(self.syms.dram_name(slot).to_string())
    }

    fn unknown_chip(&self, slot: Slot) -> RunError {
        RunError::UnknownMemory(self.syms.chip_name(slot).to_string())
    }

    fn dram_slot_of(&self, name: &str) -> Result<Slot, RunError> {
        self.syms
            .dram_slot(name)
            .filter(|&s| self.dram_state[s as usize].mapped)
            .ok_or_else(|| RunError::UnknownMemory(name.to_string()))
    }

    /// The words of a mapped DRAM slot.
    #[inline(always)]
    fn dram_words_of(&self, slot: Slot) -> Option<&[f64]> {
        dram_words(
            &self.dram_input,
            &self.dram_out,
            self.dram_state[slot as usize],
        )
    }

    /// The words of a mapped DRAM slot, writable (copy-on-write for
    /// input-segment slots).
    #[inline(always)]
    fn dram_words_of_mut(&mut self, slot: Slot) -> Option<&mut [f64]> {
        dram_words_mut(
            &mut self.dram_input,
            &mut self.dram_out,
            self.dram_state[slot as usize],
        )
    }

    /// Overwrites the head of a DRAM array with `data`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::UnknownMemory`] or [`RunError::OutOfBounds`] when
    /// the array is missing or too small.
    pub fn write_dram(&mut self, name: &str, data: &[f64]) -> Result<(), RunError> {
        let slot = self.dram_slot_of(name)?;
        self.write_dram_slot(slot, data)
    }

    /// [`Machine::write_dram`] addressed by DRAM slot — the bind path
    /// for callers that resolved names to slots at compile time.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::write_dram`].
    pub fn write_dram_slot(&mut self, slot: Slot, data: &[f64]) -> Result<(), RunError> {
        let st = self.dram_state_of(slot)?;
        if data.len() > st.len {
            return Err(RunError::OutOfBounds {
                mem: self.syms.dram_name(slot).to_string(),
                index: data.len() as i64,
                len: st.len,
            });
        }
        let arr = self.dram_words_of_mut(slot).expect("checked");
        arr[..data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Writes an integer array (e.g. a `pos`/`crd` sub-array) into DRAM,
    /// converting in place — no intermediate allocation.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::write_dram`].
    pub fn write_dram_usize(&mut self, name: &str, data: &[usize]) -> Result<(), RunError> {
        let slot = self.dram_slot_of(name)?;
        self.write_dram_slot_usize(slot, data)
    }

    /// [`Machine::write_dram_usize`] addressed by DRAM slot.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::write_dram`].
    pub fn write_dram_slot_usize(&mut self, slot: Slot, data: &[usize]) -> Result<(), RunError> {
        let st = self.dram_state_of(slot)?;
        if data.len() > st.len {
            return Err(RunError::OutOfBounds {
                mem: self.syms.dram_name(slot).to_string(),
                index: data.len() as i64,
                len: st.len,
            });
        }
        let arr = self.dram_words_of_mut(slot).expect("checked");
        for (dst, &x) in arr.iter_mut().zip(data) {
            *dst = x as f64;
        }
        Ok(())
    }

    fn dram_state_of(&self, slot: Slot) -> Result<DramState, RunError> {
        match self.dram_state.get(slot as usize) {
            Some(st) if st.mapped => Ok(*st),
            Some(_) => Err(self.unknown_dram(slot)),
            None => Err(RunError::UnknownMemory(format!("dram slot {slot}"))),
        }
    }

    /// Reads a DRAM array.
    pub fn dram(&self, name: &str) -> Option<&[f64]> {
        let slot = self.syms.dram_slot(name)?;
        self.dram_words_of(slot)
    }

    /// The declared kind of a DRAM array.
    pub fn dram_kind(&self, name: &str) -> Option<MemKind> {
        let slot = self.syms.dram_slot(name)?;
        let st = self.dram_state[slot as usize];
        st.mapped.then_some(st.kind)
    }

    /// Reads a DRAM array as integers (rounding).
    pub fn dram_usize(&self, name: &str) -> Option<Vec<usize>> {
        let arr = self.dram(name)?;
        let mut out = Vec::with_capacity(arr.len());
        self.read_dram_usize_into(name, arr.len(), &mut out).ok()?;
        Some(out)
    }

    /// Streams the first `len` words of a DRAM array into `out` as
    /// integers (rounding), clearing `out` first.
    ///
    /// # Errors
    ///
    /// [`RunError::UnknownMemory`] when the array is missing,
    /// [`RunError::OutOfBounds`] when it is shorter than `len`; `out` is
    /// left empty in both cases.
    pub fn read_dram_usize_into(
        &self,
        name: &str,
        len: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), RunError> {
        out.clear();
        let arr = self
            .dram(name)
            .ok_or_else(|| RunError::UnknownMemory(name.to_string()))?;
        if arr.len() < len {
            return Err(RunError::OutOfBounds {
                mem: name.to_string(),
                index: len as i64,
                len: arr.len(),
            });
        }
        out.extend(arr[..len].iter().map(|&x| x.round() as usize));
        Ok(())
    }

    /// The statistics gathered so far (updated when [`Machine::run`]
    /// returns).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Executes the program's Accel block on the flat bytecode engine
    /// (a program counter over the op vector, loop state in a dense
    /// frame stack — no recursion).
    ///
    /// The compiled form produced at construction is reused when
    /// `program` equals the program the machine was built from;
    /// otherwise the new program is linked against the machine's
    /// existing slot space first.
    ///
    /// # Errors
    ///
    /// Returns the first [`RunError`] encountered.
    pub fn run(&mut self, program: &SpatialProgram) -> Result<ExecStats, RunError> {
        self.relink(program);
        let prog = Arc::clone(&self.compiled);
        self.arm_budget();
        self.poisoned = true;
        let result = self.run_ops(&prog);
        self.stats = self.dense.fold(&self.syms);
        result?;
        self.poisoned = false;
        Ok(self.stats.clone())
    }

    fn current_node(&self) -> Option<usize> {
        // `node_stack` wins over `frames`: only superinstructions push
        // it — always after (inside) any framed loop, and nested
        // superinstructions push in nesting order — so the last entry
        // is the innermost active loop.
        self.node_stack
            .last()
            .copied()
            .or_else(|| self.frames.last().map(|f| f.node))
    }

    /// Reads a register slot.
    #[inline(always)]
    fn reg_value(&self, reg: Slot) -> Result<f64, RunError> {
        let st = &self.chip[reg as usize];
        if st.tag == ChipTag::Reg {
            Ok(self.words[st.woff])
        } else {
            Err(self.unknown_chip(reg))
        }
    }

    /// Dequeues one element, counting the dequeue before the slot check
    /// exactly as the reference engine does.
    #[inline(always)]
    fn deq_value(&mut self, fifo: Slot) -> Result<f64, RunError> {
        self.dense.fifo_deqs += 1;
        let st = &mut self.chip[fifo as usize];
        if st.tag != ChipTag::Fifo {
            return Err(self.unknown_chip(fifo));
        }
        match fifo_pop(&self.words, st) {
            Some(v) => Ok(v),
            None => Err(RunError::FifoUnderflow(
                self.syms.chip_name(fifo).to_string(),
            )),
        }
    }

    /// Shared `mem[index]` read used by the expression interpreter and
    /// the fused operand shapes: on-chip first, then the SparseDRAM
    /// random-read fallback. `ix` is the already-evaluated (f64) index.
    /// The on-chip fast path is a bounds check plus one arena load.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn read_mem_value(
        &mut self,
        chip: Slot,
        dram: Slot,
        ix: f64,
        random: bool,
    ) -> Result<f64, RunError> {
        let ix = index_of(ix, || self.syms.chip_name(chip).to_string())?;
        let st = &self.chip[chip as usize];
        match st.tag {
            ChipTag::Words => {
                if ix >= st.len {
                    return Err(RunError::OutOfBounds {
                        mem: self.syms.chip_name(chip).to_string(),
                        index: ix as i64,
                        len: st.len,
                    });
                }
                let v = self.words[st.woff + ix];
                self.dense.sram_reads += 1;
                if random && st.kind == MemKind::SparseSram {
                    self.dense.shuffle_accesses += 1;
                }
                Ok(v)
            }
            ChipTag::None => {
                if let Some(arr) = self.dram_words_of(dram) {
                    let len = arr.len();
                    let v = match arr.get(ix) {
                        Some(v) => *v,
                        None => {
                            return Err(RunError::OutOfBounds {
                                mem: self.syms.dram_name(dram).to_string(),
                                index: ix as i64,
                                len,
                            })
                        }
                    };
                    self.charge_dram(1)?;
                    self.dense.dram_random_reads += 1;
                    Ok(v)
                } else {
                    Err(self.unknown_chip(chip))
                }
            }
            _ => Err(self.unknown_chip(chip)),
        }
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn write_on_chip(
        &mut self,
        mem: Slot,
        ix: usize,
        value: f64,
        random: bool,
        accumulate: bool,
    ) -> Result<(), RunError> {
        let st = self.chip[mem as usize];
        if st.tag != ChipTag::Words {
            return Err(self.unknown_chip(mem));
        }
        if ix >= st.len {
            return Err(RunError::OutOfBounds {
                mem: self.syms.chip_name(mem).to_string(),
                index: ix as i64,
                len: st.len,
            });
        }
        let slot = &mut self.words[st.woff + ix];
        if accumulate {
            *slot += value;
        } else {
            *slot = value;
        }
        self.dense.sram_writes += 1;
        if (random || accumulate) && st.kind == MemKind::SparseSram {
            self.dense.shuffle_accesses += 1;
        }
        Ok(())
    }

    // --- Statement executors shared by the dispatch loop and the
    // --- superinstructions. Operands are already evaluated.

    fn do_alloc(&mut self, slot: Slot, kind: MemKind, size: usize) -> Result<(), RunError> {
        if self.alloc_fuel == 0 {
            self.alloc_fuel = u64::MAX;
            faults::consume_alloc();
            return Err(RunError::InjectedFault {
                site: format!("alloc {}", self.syms.chip_name(slot)),
            });
        }
        self.alloc_fuel -= 1;
        match kind {
            MemKind::Sram | MemKind::SparseSram => {
                self.reserve_words(slot, size);
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Words;
                st.kind = kind;
                st.len = size;
                let off = st.woff;
                self.words[off..off + size].fill(0.0);
            }
            MemKind::Fifo => {
                self.reserve_words(slot, size.max(1));
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Fifo;
                st.kind = kind;
                fifo_clear(st);
            }
            MemKind::Reg => {
                self.reserve_words(slot, 1);
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Reg;
                st.kind = kind;
                let off = st.woff;
                self.words[off] = 0.0;
            }
            MemKind::BitVector => {
                let nw = bit_words_for(size);
                self.reserve_bits(slot, nw);
                let st = &mut self.chip[slot as usize];
                st.tag = ChipTag::Bits;
                st.kind = kind;
                st.len = size;
                let off = st.boff;
                self.bits[off..off + nw].fill(0);
            }
            MemKind::Dram | MemKind::SparseDram => {
                // DRAM is declared at program level, not allocated in
                // Accel.
                return Err(self.unknown_chip(slot));
            }
        }
        Ok(())
    }

    fn do_load(&mut self, dst: Slot, src: Slot, s: f64, e: f64) -> Result<(), RunError> {
        let s = index_of(s, || "load start".to_string())?;
        let e = index_of(e, || "load end".to_string())?;
        let src_st = self.dram_state[src as usize];
        if !src_st.mapped {
            return Err(self.unknown_dram(src));
        }
        let alen = src_st.len;
        if e > alen {
            return Err(RunError::OutOfBounds {
                mem: self.syms.dram_name(src).to_string(),
                index: e as i64,
                len: alen,
            });
        }
        let n = match e.checked_sub(s) {
            Some(n) => n,
            None => {
                return Err(RunError::NegativeIndex {
                    context: format!("load length (start {s} beyond end {e})"),
                    value: e as f64 - s as f64,
                })
            }
        };
        self.charge_dram(n as u64)?;
        self.dense
            .note_dram_read(src, n as u64, self.current_node());
        match self.chip[dst as usize].tag {
            ChipTag::Words => {
                let st = self.chip[dst as usize];
                if n > st.len {
                    return Err(RunError::OutOfBounds {
                        mem: self.syms.chip_name(dst).to_string(),
                        index: n as i64,
                        len: st.len,
                    });
                }
                {
                    let Machine {
                        dram_input,
                        dram_out,
                        words,
                        ..
                    } = self;
                    let src_arr = dram_words(dram_input, dram_out, src_st).expect("checked");
                    words[st.woff..st.woff + n].copy_from_slice(&src_arr[s..e]);
                }
                self.dense.sram_writes += n as u64;
                Ok(())
            }
            ChipTag::Fifo => {
                self.dense.fifo_enqs += n as u64;
                let Machine {
                    dram_input,
                    dram_out,
                    words,
                    chip,
                    ..
                } = self;
                let st = &mut chip[dst as usize];
                fifo_reserve(words, st, n);
                let src_arr = dram_words(dram_input, dram_out, src_st).expect("checked");
                for &v in &src_arr[s..e] {
                    fifo_push(words, st, v);
                }
                Ok(())
            }
            _ => Err(RunError::UnknownMemory(
                self.syms.chip_name(dst).to_string(),
            )),
        }
    }

    fn do_store(&mut self, dst: Slot, off: usize, src: Slot, n: usize) -> Result<(), RunError> {
        let st = self.chip[src as usize];
        if st.tag != ChipTag::Words {
            return Err(self.unknown_chip(src));
        }
        if n > st.len {
            return Err(RunError::OutOfBounds {
                mem: self.syms.chip_name(src).to_string(),
                index: n as i64,
                len: st.len,
            });
        }
        self.dense.sram_reads += n as u64;
        self.charge_dram(n as u64)?;
        {
            let Machine {
                dram_input,
                dram_out,
                dram_state,
                words,
                syms,
                ..
            } = self;
            let arr = match dram_words_mut(dram_input, dram_out, dram_state[dst as usize]) {
                Some(arr) => arr,
                None => return Err(RunError::UnknownMemory(syms.dram_name(dst).to_string())),
            };
            if off + n > arr.len() {
                return Err(RunError::OutOfBounds {
                    mem: syms.dram_name(dst).to_string(),
                    index: (off + n) as i64,
                    len: arr.len(),
                });
            }
            arr[off..off + n].copy_from_slice(&words[st.woff..st.woff + n]);
        }
        self.log_dram_write(dst, off, n);
        self.dense
            .note_dram_write(dst, n as u64, self.current_node());
        Ok(())
    }

    fn do_stream_store(
        &mut self,
        dst: Slot,
        off: usize,
        fifo: Slot,
        n: usize,
    ) -> Result<(), RunError> {
        if self.chip[fifo as usize].tag != ChipTag::Fifo {
            return Err(RunError::UnknownMemory(
                self.syms.chip_name(fifo).to_string(),
            ));
        }
        if self.chip[fifo as usize].len < n {
            // The reference engine pops one element at a time and fails
            // on the first missing one — the FIFO ends up drained and
            // the dequeues uncounted.
            fifo_clear(&mut self.chip[fifo as usize]);
            return Err(RunError::FifoUnderflow(
                self.syms.chip_name(fifo).to_string(),
            ));
        }
        self.dense.fifo_deqs += n as u64;
        self.charge_dram(n as u64)?;
        {
            let Machine {
                dram_input,
                dram_out,
                dram_state,
                words,
                chip,
                syms,
                ..
            } = self;
            let st = &mut chip[fifo as usize];
            let arr = match dram_words_mut(dram_input, dram_out, dram_state[dst as usize]) {
                Some(arr) => arr,
                None => {
                    for _ in 0..n {
                        fifo_pop(words, st);
                    }
                    return Err(RunError::UnknownMemory(syms.dram_name(dst).to_string()));
                }
            };
            if off + n > arr.len() {
                let len = arr.len();
                for _ in 0..n {
                    fifo_pop(words, st);
                }
                return Err(RunError::OutOfBounds {
                    mem: syms.dram_name(dst).to_string(),
                    index: (off + n) as i64,
                    len,
                });
            }
            for slot in &mut arr[off..off + n] {
                *slot = fifo_pop(words, st).expect("length checked");
            }
        }
        self.log_dram_write(dst, off, n);
        self.dense
            .note_dram_write(dst, n as u64, self.current_node());
        Ok(())
    }

    fn do_store_scalar(&mut self, dst: Slot, ix: usize, v: f64) -> Result<(), RunError> {
        let st = self.dram_state[dst as usize];
        if !st.mapped {
            return Err(RunError::UnknownMemory(
                self.syms.dram_name(dst).to_string(),
            ));
        }
        if ix >= st.len {
            return Err(RunError::OutOfBounds {
                mem: self.syms.dram_name(dst).to_string(),
                index: ix as i64,
                len: st.len,
            });
        }
        self.charge_dram(1)?;
        let arr = self.dram_words_of_mut(dst).expect("checked");
        arr[ix] = v;
        self.log_dram_write(dst, ix, 1);
        self.dense.dram_random_writes += 1;
        Ok(())
    }

    fn do_set_reg(&mut self, reg: Slot, v: f64) -> Result<(), RunError> {
        let st = self.chip[reg as usize];
        if st.tag != ChipTag::Reg {
            return Err(self.unknown_chip(reg));
        }
        self.words[st.woff] = v;
        Ok(())
    }

    fn do_enq(&mut self, fifo: Slot, v: f64) -> Result<(), RunError> {
        if self.chip[fifo as usize].tag != ChipTag::Fifo {
            return Err(self.unknown_chip(fifo));
        }
        let Machine { words, chip, .. } = self;
        let st = &mut chip[fifo as usize];
        fifo_reserve(words, st, 1);
        fifo_push(words, st, v);
        self.dense.fifo_enqs += 1;
        Ok(())
    }

    fn do_gen_bit_vector(
        &mut self,
        dst: Slot,
        src: Slot,
        s: usize,
        n: usize,
        d: usize,
    ) -> Result<(), RunError> {
        // Gather coordinates from the source memory into the reusable
        // scratch buffer.
        let mut coords = std::mem::take(&mut self.scratch);
        coords.clear();
        match self.chip[src as usize].tag {
            ChipTag::Fifo => {
                if self.chip[src as usize].len < n {
                    // Reference semantics: pop until empty, fail.
                    fifo_clear(&mut self.chip[src as usize]);
                    self.scratch = coords;
                    return Err(RunError::FifoUnderflow(
                        self.syms.chip_name(src).to_string(),
                    ));
                }
                let Machine { words, chip, .. } = self;
                let st = &mut chip[src as usize];
                for _ in 0..n {
                    let v = fifo_pop(words, st).expect("length checked");
                    coords.push(v.round() as usize);
                }
                self.dense.fifo_deqs += n as u64;
            }
            ChipTag::Words => {
                let st = self.chip[src as usize];
                if s + n > st.len {
                    self.scratch = coords;
                    return Err(RunError::OutOfBounds {
                        mem: self.syms.chip_name(src).to_string(),
                        index: (s + n) as i64,
                        len: st.len,
                    });
                }
                self.dense.sram_reads += n as u64;
                coords.extend(
                    self.words[st.woff + s..st.woff + s + n]
                        .iter()
                        .map(|&v| v.round() as usize),
                );
            }
            _ => {
                self.scratch = coords;
                return Err(RunError::UnknownMemory(
                    self.syms.chip_name(src).to_string(),
                ));
            }
        }
        let result = if self.chip[dst as usize].tag == ChipTag::Bits {
            // The logical bit length only grows (matching the old
            // `Vec<bool>` resize); regeneration clears every word up
            // to the new length before setting the coordinate bits.
            let new_len = self.chip[dst as usize].len.max(d);
            let nw = bit_words_for(new_len);
            self.reserve_bits(dst, nw);
            let st = &mut self.chip[dst as usize];
            st.len = new_len;
            let off = st.boff;
            self.bits[off..off + nw].fill(0);
            let mut failed = None;
            for &c in &coords {
                if c >= new_len {
                    failed = Some(RunError::OutOfBounds {
                        mem: self.syms.chip_name(dst).to_string(),
                        index: c as i64,
                        len: new_len,
                    });
                    break;
                }
                self.bits[off + (c >> 6)] |= 1u64 << (c & 63);
            }
            match failed {
                Some(e) => Err(e),
                None => {
                    self.dense.bv_gen_bits += d as u64;
                    Ok(())
                }
            }
        } else {
            Err(RunError::UnknownMemory(
                self.syms.chip_name(dst).to_string(),
            ))
        };
        self.scratch = coords;
        result
    }

    /// Snapshots one bit vector into the scan pool slot at the current
    /// depth (a slice memcpy of the packed words), returning the scan
    /// dimension. Counts the entry's `scan_bits`.
    fn scan_snapshot1(&mut self, bv: Slot) -> Result<usize, RunError> {
        let depth = self.scan_depth;
        if self.scan_pool.len() <= depth {
            self.scan_pool.resize_with(depth + 1, ScanBuf::default);
        }
        let st = self.chip[bv as usize];
        if st.tag != ChipTag::Bits {
            return Err(self.unknown_chip(bv));
        }
        let nw = bit_words_for(st.len);
        let buf = &mut self.scan_pool[depth];
        buf.aw = ScanBuf::copy_into(&mut buf.a, &self.bits[st.boff..st.boff + nw]);
        self.dense.scan_bits += st.len as u64;
        Ok(st.len)
    }

    /// Snapshots both bit vectors of a `Scan2` into the scan pool slot
    /// at the current depth, returning the scan dimension (the longer
    /// of the two). Counts the entry's `scan_bits`.
    fn scan_snapshot2(&mut self, bv_a: Slot, bv_b: Slot) -> Result<usize, RunError> {
        let depth = self.scan_depth;
        if self.scan_pool.len() <= depth {
            self.scan_pool.resize_with(depth + 1, ScanBuf::default);
        }
        // Error order matches the reference engine: `a` is examined first.
        let sa = self.chip[bv_a as usize];
        if sa.tag != ChipTag::Bits {
            return Err(self.unknown_chip(bv_a));
        }
        let sb = self.chip[bv_b as usize];
        if sb.tag != ChipTag::Bits {
            return Err(self.unknown_chip(bv_b));
        }
        let dim = sa.len.max(sb.len);
        let buf = &mut self.scan_pool[depth];
        let naw = bit_words_for(sa.len);
        let nbw = bit_words_for(sb.len);
        buf.aw = ScanBuf::copy_into(&mut buf.a, &self.bits[sa.boff..sa.boff + naw]);
        buf.bw = ScanBuf::copy_into(&mut buf.b, &self.bits[sb.boff..sb.boff + nbw]);
        self.dense.scan_bits += 2 * dim as u64;
        Ok(dim)
    }
}

/// The bytecode dispatch engine: a program counter over the compiled
/// op vector, loop state in a dense frame stack, expressions evaluated
/// postfix on a value stack with the top cached in a register. No
/// recursion anywhere on the hot path (nested `RangeSimple`
/// superinstructions recurse to a constant depth bounded by
/// [`crate::bytecode::MAX_SIMPLE_RANK`]).
impl Machine {
    /// Executes the compiled op vector from the top.
    fn run_ops(&mut self, prog: &CompiledProgram) -> Result<(), RunError> {
        self.frames.clear();
        self.vstack.clear();
        self.node_stack.clear();
        self.scan_depth = 0;
        let ops = prog.ops();
        let mut pc = 0usize;
        loop {
            match &ops[pc] {
                Op::Halt => return Ok(()),
                Op::RangeSimple {
                    id,
                    var,
                    min,
                    max,
                    step,
                    body,
                    body_len,
                    reduce,
                } => {
                    pc = self.run_range_simple(
                        prog, *id, *var, *min, *max, *step, *body, *body_len, *reduce,
                    )?;
                }
                Op::Scan1Simple {
                    id,
                    bv,
                    pos_var,
                    idx_var,
                    body,
                    body_len,
                    reduce,
                } => {
                    pc = self.run_scan1_simple(
                        prog, *id, *bv, *pos_var, *idx_var, *body, *body_len, *reduce,
                    )?;
                }
                Op::Scan2Simple {
                    id,
                    op,
                    bv_a,
                    bv_b,
                    vars,
                    body,
                    body_len,
                    reduce,
                } => {
                    pc = self.run_scan2_simple(
                        prog, *id, *op, *bv_a, *bv_b, *vars, *body, *body_len, *reduce,
                    )?;
                }
                Op::EnterRange {
                    id,
                    var,
                    min,
                    max,
                    step,
                    reduce,
                    exit,
                } => {
                    pc =
                        self.enter_range(prog, pc, *id, *var, *min, *max, *step, *reduce, *exit)?;
                }
                Op::EnterScan1 {
                    id,
                    bv,
                    pos_var,
                    idx_var,
                    reduce,
                    exit,
                } => {
                    pc = self.enter_scan1(pc, *id, *bv, *pos_var, *idx_var, *reduce, *exit)?;
                }
                Op::EnterScan2 {
                    id,
                    op,
                    bv_a,
                    bv_b,
                    vars,
                    reduce,
                    exit,
                } => {
                    pc = self.enter_scan2(pc, *id, *op, *bv_a, *bv_b, *vars, *reduce, *exit)?;
                }
                Op::ReduceTail { expr } => {
                    let v = self.operand_value(prog, *expr)?;
                    self.dense.reduce_elems += 1;
                    self.dense.alu_ops += 1; // the tree-add
                    self.frames.last_mut().expect("reduce frame").acc += v;
                    pc += 1;
                }
                Op::Next { body } => {
                    pc = self.loop_next(*body, pc)?;
                }
                op => {
                    self.exec_simple_op(prog, op)?;
                    pc += 1;
                }
            }
        }
    }

    /// Executes one straight-line op (everything except loop control).
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn exec_simple_op(&mut self, prog: &CompiledProgram, op: &Op) -> Result<(), RunError> {
        match op {
            Op::Alloc { slot, kind, size } => self.do_alloc(*slot, *kind, *size),
            Op::Bind { var, value } => {
                let v = self.operand_value(prog, *value)?;
                self.env[*var as usize] = Some(v);
                Ok(())
            }
            Op::Load {
                dst,
                src,
                start,
                end,
            } => {
                let s = self.operand_value(prog, *start)?;
                let e = self.operand_value(prog, *end)?;
                self.do_load(*dst, *src, s, e)
            }
            Op::Store {
                dst,
                offset,
                src,
                len,
            } => {
                let off = self.operand_value(prog, *offset)?;
                let off = index_of(off, || "store offset".to_string())?;
                let n = self.operand_value(prog, *len)?;
                let n = index_of(n, || "store len".to_string())?;
                self.do_store(*dst, off, *src, n)
            }
            Op::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                let off = self.operand_value(prog, *offset)?;
                let off = index_of(off, || "stream store offset".to_string())?;
                let n = self.operand_value(prog, *len)?;
                let n = index_of(n, || "stream store len".to_string())?;
                self.do_stream_store(*dst, off, *fifo, n)
            }
            Op::StoreScalar { dst, index, value } => {
                let ix = self.operand_value(prog, *index)?;
                let ix = index_of(ix, || "scalar store index".to_string())?;
                let v = self.operand_value(prog, *value)?;
                self.do_store_scalar(*dst, ix, v)
            }
            Op::WriteMem {
                mem,
                index,
                value,
                random,
            } => {
                let ix = self.operand_value(prog, *index)?;
                let ix = index_of(ix, || self.syms.chip_name(*mem).to_string())?;
                let v = self.operand_value(prog, *value)?;
                self.write_on_chip(*mem, ix, v, *random, false)
            }
            Op::RmwAdd { mem, index, value } => {
                let ix = self.operand_value(prog, *index)?;
                let ix = index_of(ix, || self.syms.chip_name(*mem).to_string())?;
                let v = self.operand_value(prog, *value)?;
                self.write_on_chip(*mem, ix, v, true, true)
            }
            Op::SetReg { reg, value } => {
                let v = self.operand_value(prog, *value)?;
                self.do_set_reg(*reg, v)
            }
            Op::Enq { fifo, value } => {
                let v = self.operand_value(prog, *value)?;
                self.do_enq(*fifo, v)
            }
            Op::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                let n = self.operand_value(prog, *count)?;
                let n = index_of(n, || "genbv count".to_string())?;
                let d = self.operand_value(prog, *dim)?;
                let d = index_of(d, || "genbv dim".to_string())?;
                let s = self.operand_value(prog, *src_start)?;
                let s = index_of(s, || "genbv start".to_string())?;
                self.do_gen_bit_vector(*dst, *src, s, n, d)
            }
            _ => unreachable!("loop-control op in straight-line position"),
        }
    }

    /// Runs a straight-line-body `Range` loop natively: bounds evaluated
    /// once, the body ops stepped per iteration, the optional reduction
    /// folded — no frame, no per-iteration dispatch of loop control.
    #[allow(clippy::too_many_arguments)]
    fn run_range_simple(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        var: Slot,
        min: Operand,
        max: Operand,
        step: i64,
        body: OpId,
        body_len: u32,
        reduce: Option<(Slot, Operand)>,
    ) -> Result<usize, RunError> {
        let mut acc = self.read_reduce_acc(reduce.map(|(reg, _)| reg))?;
        let lo = self.operand_value(prog, min)?;
        let hi = self.operand_value(prog, max)?;
        debug_assert!(step > 0, "non-positive loop step");
        let var = var as usize;
        let saved = self.env[var];
        let ops = prog.ops();
        let end = (body + body_len) as usize;
        let fstep = step as f64;
        let mut v = lo;
        // Trip/fold counts accumulate in registers and flush to the
        // dense counters on every exit path — including errors — so the
        // observable statistics are identical to per-iteration bumping.
        let mut trips = 0u64;
        let mut folds = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        // Single-statement bodies (the scatter-accumulate shape) get a
        // dedicated loop: the body op is loop-invariant, so its
        // dispatch is hoisted out of the iteration entirely.
        if body_len == 1 && reduce.is_none() {
            let op = &ops[body as usize];
            // The scatter superinstruction: a lone on-chip write whose
            // operands are hot-shape gathers. The arena makes every
            // referenced slot's region provably loop-invariant (the
            // body cannot allocate, enqueue, or regenerate), so slot
            // states hoist out of the loop and statistics batch in
            // registers.
            match *op {
                Op::RmwAdd { mem, index, value } => {
                    if let Some(r) = self.try_scatter_loop(
                        prog, id, var, saved, v, hi, fstep, mem, index, value, true, true, end,
                    ) {
                        return r;
                    }
                }
                Op::WriteMem {
                    mem,
                    index,
                    value,
                    random,
                } => {
                    if let Some(r) = self.try_scatter_loop(
                        prog, id, var, saved, v, hi, fstep, mem, index, value, random, false, end,
                    ) {
                        return r;
                    }
                }
                _ => {}
            }
            if !matches!(
                op,
                Op::RangeSimple { .. } | Op::Scan1Simple { .. } | Op::Scan2Simple { .. }
            ) {
                if v < hi {
                    self.node_stack.push(id);
                    // Fuel mirrors in a register like the trip counter
                    // and flushes on every exit path; the single-op
                    // body cannot consume fuel itself (no nested loop).
                    let mut fuel = self.fuel;
                    let interrupts = self.interrupts;
                    while v < hi {
                        if fuel == 0 {
                            result = Err(exhausted_fuel(self.fuel_cause, self.step_limit));
                            break;
                        }
                        fuel -= 1;
                        if interrupts && fuel & INTERRUPT_MASK == 0 {
                            if let Err(e) = check_interrupts(
                                self.deadline_at,
                                self.deadline_ms(),
                                self.budget.cancel.as_ref(),
                            ) {
                                result = Err(e);
                                break;
                            }
                        }
                        self.env[var] = Some(v);
                        trips += 1;
                        if let Err(e) = self.exec_simple_op(prog, op) {
                            result = Err(e);
                            break;
                        }
                        v += fstep;
                    }
                    self.fuel = fuel;
                    if result.is_ok() {
                        self.node_stack.pop();
                    }
                }
                self.dense.node_trips[id] += trips;
                result?;
                self.env[var] = saved;
                return Ok(end);
            }
        }
        if v < hi {
            self.node_stack.push(id);
            // Field-based fuel here: the body can contain nested
            // `RangeSimple` superinstructions that consume fuel
            // themselves, so a register mirror would go stale.
            'iters: while v < hi {
                if let Err(e) = self.charge_step() {
                    result = Err(e);
                    break 'iters;
                }
                self.env[var] = Some(v);
                trips += 1;
                if let Err(e) = self.run_simple_body(prog, body, end) {
                    result = Err(e);
                    break 'iters;
                }
                if let Some((_, expr)) = reduce {
                    match self.operand_value(prog, expr) {
                        Ok(x) => {
                            folds += 1; // reduce_elems and the tree-add
                            acc += x;
                        }
                        Err(e) => {
                            result = Err(e);
                            break 'iters;
                        }
                    }
                }
                v += fstep;
            }
            if result.is_ok() {
                self.node_stack.pop();
            }
        }
        self.dense.node_trips[id] += trips;
        if folds > 0 {
            self.dense.reduce_elems += folds;
            self.dense.alu_ops += folds;
        }
        result?;
        self.env[var] = saved;
        self.write_reduce_acc(reduce.map(|(reg, _)| reg), acc);
        Ok(end)
    }

    /// Steps one iteration's worth of superinstruction body ops:
    /// straight-line ops dispatch directly, nested superinstructions
    /// run their own loops (constant recursion depth, capped by
    /// [`crate::bytecode::MAX_SIMPLE_RANK`]) and their body spans are
    /// skipped here.
    fn run_simple_body(
        &mut self,
        prog: &CompiledProgram,
        body: OpId,
        end: usize,
    ) -> Result<(), RunError> {
        let ops = prog.ops();
        let mut i = body as usize;
        while i < end {
            match &ops[i] {
                Op::RangeSimple {
                    id,
                    var,
                    min,
                    max,
                    step,
                    body,
                    body_len,
                    reduce,
                } => {
                    i = self.run_range_simple(
                        prog, *id, *var, *min, *max, *step, *body, *body_len, *reduce,
                    )?;
                }
                Op::Scan1Simple {
                    id,
                    bv,
                    pos_var,
                    idx_var,
                    body,
                    body_len,
                    reduce,
                } => {
                    i = self.run_scan1_simple(
                        prog, *id, *bv, *pos_var, *idx_var, *body, *body_len, *reduce,
                    )?;
                }
                Op::Scan2Simple {
                    id,
                    op,
                    bv_a,
                    bv_b,
                    vars,
                    body,
                    body_len,
                    reduce,
                } => {
                    i = self.run_scan2_simple(
                        prog, *id, *op, *bv_a, *bv_b, *vars, *body, *body_len, *reduce,
                    )?;
                }
                op => {
                    self.exec_simple_op(prog, op)?;
                    i += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs a straight-line-body single bit-vector `Scan` loop
    /// natively: the vector is snapshotted once, then its set bits
    /// iterate without a frame or per-emit `Next` dispatch.
    /// Statistics, environment effects, and error order match the
    /// framed [`Op::EnterScan1`]/[`Op::Next`] protocol exactly.
    #[allow(clippy::too_many_arguments)]
    fn run_scan1_simple(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        bv: Slot,
        pos_var: Slot,
        idx_var: Slot,
        body: OpId,
        body_len: u32,
        reduce: Option<(Slot, Operand)>,
    ) -> Result<usize, RunError> {
        let mut acc = self.read_reduce_acc(reduce.map(|(reg, _)| reg))?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot1(bv)?;
        let pos_var = pos_var as usize;
        let idx_var = idx_var as usize;
        let saved = [self.env[pos_var], self.env[idx_var]];
        let end = (body + body_len) as usize;
        // Emit/fold counts accumulate in registers and flush to the
        // dense counters on every exit path — including errors — so
        // the observable statistics are identical to per-emit bumping.
        // Fuel stays field-based: the body can nest superinstructions
        // that consume fuel themselves. `emits` counts emit positions
        // *reached* (bumped before the step charge, like the reference
        // engine); `trips` counts charged steps.
        let mut emits = 0u64;
        let mut trips = 0u64;
        let mut folds = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        let mut entered = false;
        let mut pos = 0u64;
        let mut idx = 0usize;
        // Non-emitting bits consume no fuel and no statistics, so
        // jumping whole zero words at a time (one trailing_zeros per 64
        // positions) is observably identical to probing them one by one.
        'emits: while idx < dim {
            match self.scan_pool[depth].next_a_set(idx, dim) {
                Some(i) => idx = i,
                None => break 'emits,
            }
            emits += 1;
            if let Err(e) = self.charge_step() {
                result = Err(e);
                break 'emits;
            }
            if !entered {
                entered = true;
                self.node_stack.push(id);
                self.scan_depth = depth + 1;
            }
            self.env[pos_var] = Some(pos as f64);
            self.env[idx_var] = Some(idx as f64);
            trips += 1;
            if let Err(e) = self.run_simple_body(prog, body, end) {
                result = Err(e);
                break 'emits;
            }
            if let Some((_, expr)) = reduce {
                match self.operand_value(prog, expr) {
                    Ok(x) => {
                        folds += 1; // reduce_elems and the tree-add
                        acc += x;
                    }
                    Err(e) => {
                        result = Err(e);
                        break 'emits;
                    }
                }
            }
            pos += 1;
            idx += 1;
        }
        if entered && result.is_ok() {
            self.node_stack.pop();
            self.scan_depth = depth;
        }
        self.dense.scan_emits += emits;
        self.dense.node_trips[id] += trips;
        if folds > 0 {
            self.dense.reduce_elems += folds;
            self.dense.alu_ops += folds;
        }
        result?;
        self.env[pos_var] = saved[0];
        self.env[idx_var] = saved[1];
        self.write_reduce_acc(reduce.map(|(reg, _)| reg), acc);
        Ok(end)
    }

    /// Runs a straight-line-body two-input co-iteration `Scan` loop
    /// natively (see [`Machine::run_scan1_simple`]): both vectors are
    /// snapshotted once, the combined bits emit, and the per-side
    /// position counters advance exactly as the framed
    /// [`Op::EnterScan2`]/[`Op::Next`] protocol does — the emitting
    /// index advances its positions after the body.
    #[allow(clippy::too_many_arguments)]
    fn run_scan2_simple(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        op: ScanOp,
        bv_a: Slot,
        bv_b: Slot,
        vars: [Slot; 4],
        body: OpId,
        body_len: u32,
        reduce: Option<(Slot, Operand)>,
    ) -> Result<usize, RunError> {
        let mut acc = self.read_reduce_acc(reduce.map(|(reg, _)| reg))?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot2(bv_a, bv_b)?;
        let vars = vars.map(|v| v as usize);
        let saved = vars.map(|v| self.env[v]);
        let end = (body + body_len) as usize;
        // `emits` counts emit positions *reached* (bumped before the
        // step charge, like the reference engine); `trips`
        // counts charged steps.
        let mut emits = 0u64;
        let mut trips = 0u64;
        let mut folds = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        let mut entered = false;
        let (mut idx, mut ap, mut bp, mut emitted) = (0usize, 0u64, 0u64, 0u64);
        // Skipped (non-combined) positions consume no fuel and no
        // statistics — only the side position counters advance — so
        // batching whole words with popcounts is observably identical
        // to probing one position at a time.
        'emits: while idx < dim {
            let (next, askip, bskip) = self.scan_pool[depth].scan2_skip(op, idx, dim);
            ap += askip;
            bp += bskip;
            idx = next;
            if idx >= dim {
                break 'emits;
            }
            let has_a = self.scan_pool[depth].a_set(idx);
            let has_b = self.scan_pool[depth].b_set(idx);
            emits += 1;
            if let Err(e) = self.charge_step() {
                result = Err(e);
                break 'emits;
            }
            if !entered {
                entered = true;
                self.node_stack.push(id);
                self.scan_depth = depth + 1;
            }
            self.env[vars[0]] = Some(if has_a { ap as f64 } else { -1.0 });
            self.env[vars[1]] = Some(if has_b { bp as f64 } else { -1.0 });
            self.env[vars[2]] = Some(emitted as f64);
            self.env[vars[3]] = Some(idx as f64);
            trips += 1;
            if let Err(e) = self.run_simple_body(prog, body, end) {
                result = Err(e);
                break 'emits;
            }
            if let Some((_, expr)) = reduce {
                match self.operand_value(prog, expr) {
                    Ok(x) => {
                        folds += 1; // reduce_elems and the tree-add
                        acc += x;
                    }
                    Err(e) => {
                        result = Err(e);
                        break 'emits;
                    }
                }
            }
            // The emitting index advances its positions after the
            // body, exactly as the framed protocol does.
            if has_a {
                ap += 1;
            }
            if has_b {
                bp += 1;
            }
            emitted += 1;
            idx += 1;
        }
        if entered && result.is_ok() {
            self.node_stack.pop();
            self.scan_depth = depth;
        }
        self.dense.scan_emits += emits;
        self.dense.node_trips[id] += trips;
        if folds > 0 {
            self.dense.reduce_elems += folds;
            self.dense.alu_ops += folds;
        }
        result?;
        for (v, old) in vars.iter().zip(saved) {
            self.env[*v] = old;
        }
        self.write_reduce_acc(reduce.map(|(reg, _)| reg), acc);
        Ok(end)
    }

    /// Resolves an operand into a hot-loop form whose referenced slot
    /// states are loop-invariant, or `None` when the shape (or a slot's
    /// current allocation) is not eligible.
    fn hot_value(&self, prog: &CompiledProgram, o: Operand) -> Option<HotValue> {
        match o {
            Operand::Const(c) => Some(HotValue::Const(c)),
            Operand::Var(v) => Some(HotValue::Var(v)),
            Operand::Gather {
                chip, random, var, ..
            } => Some(HotValue::Gather(self.hot_gather(chip, random, var)?)),
            Operand::Fused(i) => match prog.fused()[i as usize] {
                FusedOp::BinGather { a, op, mem } => Some(HotValue::BinGather {
                    a,
                    op,
                    g: self.hot_gather(mem.chip, mem.random, mem.var)?,
                }),
                _ => None,
            },
            // The two-op `[VarConstBin, End]` expression program — the
            // lowering of `v op const` bodies like `s[j] = j * 2` —
            // evaluates without the postfix stack machine.
            Operand::Expr(e) => {
                let eops = prog.eops();
                match (eops.get(e as usize), eops.get(e as usize + 1)) {
                    (Some(&EOp::VarConstBin { var, c, op }), Some(&EOp::End)) => {
                        Some(HotValue::VarConstBin { var, c, op })
                    }
                    _ => None,
                }
            }
        }
    }

    /// A gather whose source slot is currently plain words: its region
    /// and shuffle attribution hoist out of the loop.
    fn hot_gather(&self, chip: Slot, random: bool, var: Slot) -> Option<HotGather> {
        let st = &self.chip[chip as usize];
        if st.tag != ChipTag::Words {
            return None;
        }
        Some(HotGather {
            chip,
            var,
            woff: st.woff,
            len: st.len,
            shuffle: random && st.kind == MemKind::SparseSram,
        })
    }

    /// Evaluates a hot operand, batching statistics into `c`.
    /// Evaluation order, statistics, and errors are identical to the
    /// generic [`Machine::operand_value`] path.
    #[inline(always)]
    fn hot_eval(&mut self, hv: HotValue, c: &mut HotCounters) -> Result<f64, RunError> {
        match hv {
            HotValue::Const(k) => Ok(k),
            HotValue::Var(v) => match self.env[v as usize] {
                Some(x) => Ok(x),
                None => Err(RunError::UnboundVar(self.syms.var_name(v).to_string())),
            },
            HotValue::Gather(g) => self.hot_gather_read(g, c),
            HotValue::BinGather { a, op, g } => {
                let x = match self.env[a as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(self.syms.var_name(a).to_string()));
                    }
                };
                let r = self.hot_gather_read(g, c)?;
                c.alu_ops += 1;
                Ok(op.apply(x, r))
            }
            HotValue::VarConstBin { var, c: k, op } => {
                let a = match self.env[var as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(self.syms.var_name(var).to_string()));
                    }
                };
                c.alu_ops += 1;
                Ok(op.apply(a, k))
            }
        }
    }

    #[inline(always)]
    fn hot_gather_read(&mut self, g: HotGather, c: &mut HotCounters) -> Result<f64, RunError> {
        let ixf = match self.env[g.var as usize] {
            Some(x) => x,
            None => {
                return Err(RunError::UnboundVar(self.syms.var_name(g.var).to_string()));
            }
        };
        let ix = index_of(ixf, || self.syms.chip_name(g.chip).to_string())?;
        if ix >= g.len {
            return Err(RunError::OutOfBounds {
                mem: self.syms.chip_name(g.chip).to_string(),
                index: ix as i64,
                len: g.len,
            });
        }
        c.sram_reads += 1;
        if g.shuffle {
            c.shuffles += 1;
        }
        Ok(self.words[g.woff + ix])
    }

    /// The scatter superinstruction executor: a whole `Range` loop whose
    /// body is one on-chip write (`WriteMem`/`RmwAdd`) with hot-shape
    /// operands — the Gustavson scatter-accumulate inner loop of SpMSpM.
    /// Destination and gather slot states are hoisted (the body cannot
    /// change any slot's allocation or region) and all statistics
    /// accumulate in registers, flushed on every exit path so the
    /// observable counts equal per-iteration bumping exactly.
    ///
    /// Returns `None` (having executed nothing) when an operand shape or
    /// a slot's current allocation is not eligible.
    #[allow(clippy::too_many_arguments)]
    fn try_scatter_loop(
        &mut self,
        prog: &CompiledProgram,
        id: usize,
        var: usize,
        saved: Option<f64>,
        v0: f64,
        hi: f64,
        fstep: f64,
        dst: Slot,
        index: Operand,
        value: Operand,
        random: bool,
        accumulate: bool,
        end: usize,
    ) -> Option<Result<usize, RunError>> {
        let dst_st = self.chip[dst as usize];
        if dst_st.tag != ChipTag::Words {
            return None;
        }
        let hindex = self.hot_value(prog, index)?;
        let hvalue = self.hot_value(prog, value)?;
        let dst_shuffle = (random || accumulate) && dst_st.kind == MemKind::SparseSram;
        let mut c = HotCounters::default();
        let mut swrites = 0u64;
        let mut trips = 0u64;
        let mut result: Result<(), RunError> = Ok(());
        let mut v = v0;
        if v < hi {
            self.node_stack.push(id);
            // Fuel mirrors in a register like every other counter here,
            // flushed on all exit paths (the body is a single on-chip
            // write — it cannot consume fuel itself).
            let mut fuel = self.fuel;
            let interrupts = self.interrupts;
            'iters: while v < hi {
                if fuel == 0 {
                    result = Err(exhausted_fuel(self.fuel_cause, self.step_limit));
                    break 'iters;
                }
                fuel -= 1;
                if interrupts && fuel & INTERRUPT_MASK == 0 {
                    if let Err(e) = check_interrupts(
                        self.deadline_at,
                        self.deadline_ms(),
                        self.budget.cancel.as_ref(),
                    ) {
                        result = Err(e);
                        break 'iters;
                    }
                }
                self.env[var] = Some(v);
                trips += 1;
                // Same order as the generic RmwAdd/WriteMem op: index
                // operand, index conversion, value operand, then the
                // bounds-checked write.
                let ixf = match self.hot_eval(hindex, &mut c) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'iters;
                    }
                };
                let ix = match index_of(ixf, || self.syms.chip_name(dst).to_string()) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'iters;
                    }
                };
                let val = match self.hot_eval(hvalue, &mut c) {
                    Ok(x) => x,
                    Err(e) => {
                        result = Err(e);
                        break 'iters;
                    }
                };
                if ix >= dst_st.len {
                    result = Err(RunError::OutOfBounds {
                        mem: self.syms.chip_name(dst).to_string(),
                        index: ix as i64,
                        len: dst_st.len,
                    });
                    break 'iters;
                }
                let slot = &mut self.words[dst_st.woff + ix];
                if accumulate {
                    *slot += val;
                } else {
                    *slot = val;
                }
                swrites += 1;
                if dst_shuffle {
                    c.shuffles += 1;
                }
                v += fstep;
            }
            self.fuel = fuel;
            if result.is_ok() {
                self.node_stack.pop();
            }
        }
        self.dense.node_trips[id] += trips;
        self.dense.sram_reads += c.sram_reads;
        self.dense.sram_writes += swrites;
        self.dense.shuffle_accesses += c.shuffles;
        self.dense.alu_ops += c.alu_ops;
        if let Err(e) = result {
            return Some(Err(e));
        }
        self.env[var] = saved;
        Some(Ok(end))
    }

    /// Fetches a statement operand: immediates inline, fused compound
    /// shapes from the side table, expression programs through the
    /// postfix interpreter.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn operand_value(&mut self, prog: &CompiledProgram, o: Operand) -> Result<f64, RunError> {
        match o {
            Operand::Const(c) => Ok(c),
            Operand::Var(v) => match self.env[v as usize] {
                Some(x) => Ok(x),
                None => Err(RunError::UnboundVar(self.syms.var_name(v).to_string())),
            },
            Operand::Gather {
                chip,
                dram,
                random,
                var,
            } => {
                let ix = match self.env[var as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(self.syms.var_name(var).to_string()));
                    }
                };
                self.read_mem_value(chip, dram, ix, random)
            }
            Operand::Fused(i) => self.fused_value(&prog.fused()[i as usize]),
            Operand::Expr(e) => self.eval_ops(prog, e),
        }
    }

    /// Reads one `mem[env[var]]` reference of a fused shape.
    #[inline(always)]
    fn gather_value(&mut self, g: GatherRef) -> Result<f64, RunError> {
        let ix = match self.env[g.var as usize] {
            Some(x) => x,
            None => {
                return Err(RunError::UnboundVar(self.syms.var_name(g.var).to_string()));
            }
        };
        self.read_mem_value(g.chip, g.dram, ix, g.random)
    }

    /// Evaluates a fused compound operand, reproducing the unfused
    /// evaluation order (stats and error identity included) exactly.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn fused_value(&mut self, f: &FusedOp) -> Result<f64, RunError> {
        match *f {
            FusedOp::GatherOffset { mem, c, op } => {
                let x = match self.env[mem.var as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(
                            self.syms.var_name(mem.var).to_string(),
                        ));
                    }
                };
                self.dense.alu_ops += 1;
                self.read_mem_value(mem.chip, mem.dram, op.apply(x, c), mem.random)
            }
            FusedOp::BinGather { a, op, mem } => {
                let x = match self.env[a as usize] {
                    Some(x) => x,
                    None => {
                        return Err(RunError::UnboundVar(self.syms.var_name(a).to_string()));
                    }
                };
                let v = self.gather_value(mem)?;
                self.dense.alu_ops += 1;
                Ok(op.apply(x, v))
            }
            FusedOp::BinGatherInd {
                lhs,
                op,
                inner,
                outer,
            } => {
                let l = self.gather_value(lhs)?;
                let ix = self.gather_value(inner)?;
                let r = self.read_mem_value(outer.chip, outer.dram, ix, outer.random)?;
                self.dense.alu_ops += 1;
                Ok(op.apply(l, r))
            }
        }
    }

    /// Evaluates one postfix expression program starting at `start`.
    ///
    /// ALU-op counts are accumulated in a register and flushed to the
    /// dense counters on every exit path (including errors), so the
    /// observable statistics are identical to per-op bumping.
    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn eval_ops(&mut self, prog: &CompiledProgram, start: u32) -> Result<f64, RunError> {
        let mut alu = 0u64;
        let r = self.eval_ops_inner(prog, start, &mut alu);
        self.dense.alu_ops += alu;
        r
    }

    #[cfg_attr(not(debug_assertions), inline(always))]
    #[cfg_attr(debug_assertions, inline(never))]
    fn eval_ops_inner(
        &mut self,
        prog: &CompiledProgram,
        start: u32,
        alu: &mut u64,
    ) -> Result<f64, RunError> {
        // Top-of-stack caching: the logical stack top lives in `tos`;
        // `vstack` holds everything below it (plus one junk word from
        // the first push, discarded by the truncate at `End`). Ops with
        // one input and one output never touch the memory stack.
        let base = self.vstack.len();
        let mut tos = 0.0f64;
        let eops = prog.eops();
        let mut pc = start as usize;
        loop {
            match eops[pc] {
                EOp::Const(c) => {
                    self.vstack.push(tos);
                    tos = c;
                    pc += 1;
                }
                EOp::Var(v) => match self.env[v as usize] {
                    Some(x) => {
                        self.vstack.push(tos);
                        tos = x;
                        pc += 1;
                    }
                    None => {
                        return Err(RunError::UnboundVar(self.syms.var_name(v).to_string()));
                    }
                },
                EOp::RegRead(r) => {
                    let v = self.reg_value(r)?;
                    self.vstack.push(tos);
                    tos = v;
                    pc += 1;
                }
                EOp::Deq(f) => {
                    let v = self.deq_value(f)?;
                    self.vstack.push(tos);
                    tos = v;
                    pc += 1;
                }
                EOp::ReadMem { chip, dram, random } => {
                    tos = self.read_mem_value(chip, dram, tos, random)?;
                    pc += 1;
                }
                EOp::Neg => {
                    *alu += 1;
                    tos = -tos;
                    pc += 1;
                }
                EOp::Binary(op) => {
                    let a = self.vstack.pop().expect("lhs on stack");
                    *alu += 1;
                    tos = op.apply(a, tos);
                    pc += 1;
                }
                EOp::VarReadMem {
                    chip,
                    dram,
                    random,
                    var,
                } => {
                    let ix = match self.env[var as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(self.syms.var_name(var).to_string()));
                        }
                    };
                    let v = self.read_mem_value(chip, dram, ix, random)?;
                    self.vstack.push(tos);
                    tos = v;
                    pc += 1;
                }
                EOp::VarBinGather {
                    a,
                    op,
                    chip,
                    dram,
                    random,
                    ivar,
                } => {
                    let x = match self.env[a as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(self.syms.var_name(a).to_string()));
                        }
                    };
                    let ix = match self.env[ivar as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(self.syms.var_name(ivar).to_string()));
                        }
                    };
                    let v = self.read_mem_value(chip, dram, ix, random)?;
                    *alu += 1;
                    self.vstack.push(tos);
                    tos = op.apply(x, v);
                    pc += 1;
                }
                EOp::VarConstBin { var, c, op } => {
                    let a = match self.env[var as usize] {
                        Some(x) => x,
                        None => {
                            return Err(RunError::UnboundVar(self.syms.var_name(var).to_string()));
                        }
                    };
                    *alu += 1;
                    self.vstack.push(tos);
                    tos = op.apply(a, c);
                    pc += 1;
                }
                EOp::BranchFalse { target } => {
                    let c = tos;
                    tos = self.vstack.pop().expect("stack below condition");
                    *alu += 1;
                    // Both sides are wires in hardware; evaluating only
                    // the taken side mirrors the reference engine's mux and
                    // avoids spurious OOB on the masked side.
                    pc = if c != 0.0 { pc + 1 } else { target as usize };
                }
                EOp::Jump { target } => pc = target as usize,
                EOp::End => {
                    self.vstack.truncate(base);
                    return Ok(tos);
                }
            }
        }
    }

    /// Reads the accumulator register at loop entry when the loop is a
    /// `Reduce` (the error ordering the reference engine has: a missing
    /// register is reported before the counter bounds are evaluated).
    fn read_reduce_acc(&self, reduce: Option<Slot>) -> Result<f64, RunError> {
        match reduce {
            None => Ok(0.0),
            Some(reg) => self.reg_value(reg),
        }
    }

    /// Writes the accumulator back at loop exit. Silently skips a slot
    /// that is no longer a register, as the reference engine does.
    fn write_reduce_acc(&mut self, reduce: Option<Slot>, acc: f64) {
        if let Some(reg) = reduce {
            let st = self.chip[reg as usize];
            if st.tag == ChipTag::Reg {
                self.words[st.woff] = acc;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_range(
        &mut self,
        prog: &CompiledProgram,
        pc: usize,
        id: usize,
        var: Slot,
        min: Operand,
        max: Operand,
        step: i64,
        reduce: Option<Slot>,
        exit: OpId,
    ) -> Result<usize, RunError> {
        let acc = self.read_reduce_acc(reduce)?;
        let lo = self.operand_value(prog, min)?;
        let hi = self.operand_value(prog, max)?;
        debug_assert!(step > 0, "non-positive loop step");
        let saved = self.env[var as usize];
        if lo < hi {
            self.charge_step()?;
            self.env[var as usize] = Some(lo);
            self.dense.node_trips[id] += 1;
            self.frames.push(Frame {
                node: id,
                reduce,
                acc,
                state: FrameState::Range {
                    var,
                    saved,
                    v: lo,
                    hi,
                    step: step as f64,
                },
            });
            Ok(pc + 1)
        } else {
            self.write_reduce_acc(reduce, acc);
            Ok(exit as usize)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_scan1(
        &mut self,
        pc: usize,
        id: usize,
        bv: Slot,
        pos_var: Slot,
        idx_var: Slot,
        reduce: Option<Slot>,
        exit: OpId,
    ) -> Result<usize, RunError> {
        let acc = self.read_reduce_acc(reduce)?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot1(bv)?;
        let saved = [self.env[pos_var as usize], self.env[idx_var as usize]];
        let mut idx = 0usize;
        while idx < dim && !self.scan_pool[depth].a_set(idx) {
            idx += 1;
        }
        if idx < dim {
            // `scan_emits` counts the emit position being *reached* —
            // even when the step charge then aborts — while
            // `node_trips` counts charged steps, matching the reference
            // engine exactly.
            self.dense.scan_emits += 1;
            self.charge_step()?;
            self.scan_depth = depth + 1;
            self.env[pos_var as usize] = Some(0.0);
            self.env[idx_var as usize] = Some(idx as f64);
            self.dense.node_trips[id] += 1;
            self.frames.push(Frame {
                node: id,
                reduce,
                acc,
                state: FrameState::Scan1 {
                    depth,
                    dim,
                    idx,
                    pos: 0,
                    pos_var,
                    idx_var,
                    saved,
                },
            });
            Ok(pc + 1)
        } else {
            self.write_reduce_acc(reduce, acc);
            Ok(exit as usize)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enter_scan2(
        &mut self,
        pc: usize,
        id: usize,
        op: ScanOp,
        bv_a: Slot,
        bv_b: Slot,
        vars: [Slot; 4],
        reduce: Option<Slot>,
        exit: OpId,
    ) -> Result<usize, RunError> {
        let acc = self.read_reduce_acc(reduce)?;
        let depth = self.scan_depth;
        let dim = self.scan_snapshot2(bv_a, bv_b)?;
        let saved = vars.map(|v| self.env[v as usize]);
        let (mut idx, mut ap, mut bp) = (0usize, 0u64, 0u64);
        while idx < dim {
            let has_a = self.scan_pool[depth].a_set(idx);
            let has_b = self.scan_pool[depth].b_set(idx);
            let combined = match op {
                ScanOp::And => has_a && has_b,
                ScanOp::Or => has_a || has_b,
            };
            if combined {
                // Emit reached before the charge; trip after (see
                // [`Machine::enter_scan1`]).
                self.dense.scan_emits += 1;
                self.charge_step()?;
                self.scan_depth = depth + 1;
                self.env[vars[0] as usize] = Some(if has_a { ap as f64 } else { -1.0 });
                self.env[vars[1] as usize] = Some(if has_b { bp as f64 } else { -1.0 });
                self.env[vars[2] as usize] = Some(0.0);
                self.env[vars[3] as usize] = Some(idx as f64);
                self.dense.node_trips[id] += 1;
                self.frames.push(Frame {
                    node: id,
                    reduce,
                    acc,
                    state: FrameState::Scan2 {
                        depth,
                        dim,
                        idx,
                        ap,
                        bp,
                        emitted: 0,
                        op,
                        vars,
                        saved,
                    },
                });
                return Ok(pc + 1);
            }
            if has_a {
                ap += 1;
            }
            if has_b {
                bp += 1;
            }
            idx += 1;
        }
        self.write_reduce_acc(reduce, acc);
        Ok(exit as usize)
    }

    /// Advances the innermost loop frame: returns the body pc for the
    /// next iteration (charging one fuel step per continuation), or
    /// pops the frame (restoring loop variables and writing back a
    /// reduction) and returns the fall-through pc.
    fn loop_next(&mut self, body: OpId, pc: usize) -> Result<usize, RunError> {
        let deadline_ms = self.deadline_ms();
        let Machine {
            frames,
            env,
            dense,
            scan_pool,
            scan_depth,
            chip,
            words,
            fuel,
            fuel_cause,
            step_limit,
            interrupts,
            deadline_at,
            budget,
            ..
        } = self;
        let (cause, limit, intr, dl) = (*fuel_cause, *step_limit, *interrupts, *deadline_at);
        let cancel = budget.cancel.as_ref();
        let frame = frames.last_mut().expect("active frame");
        match &mut frame.state {
            FrameState::Range {
                var, v, hi, step, ..
            } => {
                *v += *step;
                if *v < *hi {
                    charge_step_parts(fuel, cause, limit, intr, dl, deadline_ms, cancel)?;
                    env[*var as usize] = Some(*v);
                    dense.node_trips[frame.node] += 1;
                    return Ok(body as usize);
                }
            }
            FrameState::Scan1 {
                depth,
                dim,
                idx,
                pos,
                pos_var,
                idx_var,
                ..
            } => {
                let buf = &scan_pool[*depth];
                *pos += 1;
                *idx += 1;
                while *idx < *dim && !buf.a_set(*idx) {
                    *idx += 1;
                }
                if *idx < *dim {
                    // Emit reached before the charge; trip after (see
                    // [`Machine::enter_scan1`]).
                    dense.scan_emits += 1;
                    charge_step_parts(fuel, cause, limit, intr, dl, deadline_ms, cancel)?;
                    env[*pos_var as usize] = Some(*pos as f64);
                    env[*idx_var as usize] = Some(*idx as f64);
                    dense.node_trips[frame.node] += 1;
                    return Ok(body as usize);
                }
            }
            FrameState::Scan2 {
                depth,
                dim,
                idx,
                ap,
                bp,
                emitted,
                op,
                vars,
                ..
            } => {
                let buf = &scan_pool[*depth];
                // The emitting index advances its positions after the
                // body, exactly as the reference engine does.
                if buf.a_set(*idx) {
                    *ap += 1;
                }
                if buf.b_set(*idx) {
                    *bp += 1;
                }
                *emitted += 1;
                *idx += 1;
                while *idx < *dim {
                    let has_a = buf.a_set(*idx);
                    let has_b = buf.b_set(*idx);
                    let combined = match op {
                        ScanOp::And => has_a && has_b,
                        ScanOp::Or => has_a || has_b,
                    };
                    if combined {
                        // Emit reached before the charge; trip after
                        // (see [`Machine::enter_scan1`]).
                        dense.scan_emits += 1;
                        charge_step_parts(fuel, cause, limit, intr, dl, deadline_ms, cancel)?;
                        env[vars[0] as usize] = Some(if has_a { *ap as f64 } else { -1.0 });
                        env[vars[1] as usize] = Some(if has_b { *bp as f64 } else { -1.0 });
                        env[vars[2] as usize] = Some(*emitted as f64);
                        env[vars[3] as usize] = Some(*idx as f64);
                        dense.node_trips[frame.node] += 1;
                        return Ok(body as usize);
                    }
                    if has_a {
                        *ap += 1;
                    }
                    if has_b {
                        *bp += 1;
                    }
                    *idx += 1;
                }
            }
        }
        // Loop finished: restore the counter-bound variables, release
        // the scan snapshot depth, write back a reduction accumulator.
        let frame = frames.pop().expect("active frame");
        match frame.state {
            FrameState::Range { var, saved, .. } => env[var as usize] = saved,
            FrameState::Scan1 {
                depth,
                pos_var,
                idx_var,
                saved,
                ..
            } => {
                *scan_depth = depth;
                env[pos_var as usize] = saved[0];
                env[idx_var as usize] = saved[1];
            }
            FrameState::Scan2 {
                depth, vars, saved, ..
            } => {
                *scan_depth = depth;
                for (v, old) in vars.iter().zip(saved) {
                    env[*v as usize] = old;
                }
            }
        }
        if let Some(reg) = frame.reduce {
            let st = chip[reg as usize];
            if st.tag == ChipTag::Reg {
                words[st.woff] = frame.acc;
            }
        }
        Ok(pc + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Counter, MemDecl, SExpr, SpatialStmt};
    use crate::reference::ReferenceMachine;

    /// Runs `program` on the bytecode engine and the string-keyed
    /// reference with the given DRAM inputs and asserts byte-identical
    /// DRAM contents plus identical statistics (or identical errors).
    fn assert_engines_agree(program: &SpatialProgram, writes: &[(&str, Vec<f64>)]) -> ExecStats {
        let mut fast = Machine::new(program);
        let mut reference = ReferenceMachine::new(program);
        for (name, data) in writes {
            fast.write_dram(name, data).unwrap();
            reference.write_dram(name, data).unwrap();
        }
        let fast_result = fast.run(program);
        let ref_result = reference.run(program);
        assert_eq!(fast_result, ref_result, "run results diverge");
        for d in &program.drams {
            let a = fast.dram(&d.name).unwrap();
            let b = reference.dram(&d.name).unwrap();
            let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "DRAM {} diverges", d.name);
        }
        assert_eq!(fast.stats(), reference.stats(), "stats diverge");
        fast_result.unwrap_or_else(|_| fast.stats().clone())
    }

    #[test]
    fn doc_example_doubles_vector() {
        let mut p = SpatialProgram::new("double");
        p.add_dram("x", 4);
        p.add_dram("y", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("xs", MemKind::Sram, 4)));
        p.accel.push(SpatialStmt::Load {
            dst: "xs".into(),
            src: "x".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(4.0),
            par: 1,
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(4.0)),
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "y".into(),
                index: SExpr::var("i"),
                value: SExpr::mul(SExpr::read("xs", SExpr::var("i")), SExpr::Const(2.0)),
            }],
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        m.write_dram("x", &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let stats = m.run(&p).unwrap();
        assert_eq!(m.dram("y").unwrap(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(stats.trips(0), 4);
        assert_eq!(stats.dram_reads["x"], 4);
        assert_eq!(stats.dram_random_writes, 4);
        assert_engines_agree(&p, &[("x", vec![1.0, 2.0, 3.0, 4.0])]);
    }

    #[test]
    fn reduce_accumulates() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("i", SExpr::Const(5.0)),
            par: 1,
            body: vec![],
            expr: SExpr::var("i"),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 10.0);
        assert_eq!(m.stats().reduce_elems, 5);
        assert_eq!(m.stats().trips(0), 5);
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn load_to_sram_and_fifo() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("d", 4);
        p.add_dram("out", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 16)));
        p.accel.push(SpatialStmt::Load {
            dst: "s".into(),
            src: "d".into(),
            start: SExpr::Const(1.0),
            end: SExpr::Const(3.0),
            par: 1,
        });
        p.accel.push(SpatialStmt::Load {
            dst: "f".into(),
            src: "d".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(2.0),
            par: 1,
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read("s", SExpr::Const(0.0)),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(1.0),
            value: SExpr::Deq("f".into()),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(2.0),
            value: SExpr::Deq("f".into()),
        });
        let mut m = Machine::new(&p);
        m.write_dram("d", &[1.0, 2.0, 3.0, 4.0]).unwrap();
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..3], &[2.0, 1.0, 2.0]);
        assert_eq!(m.stats().dram_reads["d"], 4);
        assert_eq!(m.stats().fifo_deqs, 2);
        assert_engines_agree(&p, &[("d", vec![1.0, 2.0, 3.0, 4.0])]);
    }

    #[test]
    fn fifo_underflow_detected() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Deq("f".into()),
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.run(&p), Err(RunError::FifoUnderflow("f".into())));
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn scan1_visits_set_bits() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 8);
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv",
            MemKind::BitVector,
            8,
        )));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
        for c in [1.0, 4.0, 6.0] {
            p.accel.push(SpatialStmt::Enq {
                fifo: "crd".into(),
                value: SExpr::Const(c),
            });
        }
        p.accel.push(SpatialStmt::GenBitVector {
            dst: "bv".into(),
            src: "crd".into(),
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(3.0),
            dim: SExpr::Const(8.0),
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan1 {
                bv: "bv".into(),
                pos_var: "p".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("p"),
                value: SExpr::var("i"),
            }],
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..3], &[1.0, 4.0, 6.0]);
        assert_eq!(m.stats().scan_emits, 3);
        assert_eq!(m.stats().scan_bits, 8);
        assert_engines_agree(&p, &[]);
    }

    /// The worked example of Fig. 7: A crd {1,2,5}, B crd {0,2,3,8},
    /// union produces out crd {0,1,2,3,5,8} with the pattern indices
    /// shown in the figure (X rendered as -1).
    #[test]
    fn scan2_union_matches_fig7() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out_crd", 9);
        p.add_dram("out_tuples", 16);
        for (bv, coords) in [
            ("bvA", vec![1.0, 2.0, 5.0]),
            ("bvB", vec![0.0, 2.0, 3.0, 8.0]),
        ] {
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 9)));
            let fifo = format!("{bv}_crd");
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 9)));
            for c in &coords {
                p.accel.push(SpatialStmt::Enq {
                    fifo: fifo.clone(),
                    value: SExpr::Const(*c),
                });
            }
            p.accel.push(SpatialStmt::GenBitVector {
                dst: bv.into(),
                src: fifo,
                src_start: SExpr::Const(0.0),
                count: SExpr::Const(coords.len() as f64),
                dim: SExpr::Const(9.0),
            });
        }
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan2 {
                op: ScanOp::Or,
                bv_a: "bvA".into(),
                bv_b: "bvB".into(),
                a_pos_var: "pA".into(),
                b_pos_var: "pB".into(),
                out_pos_var: "pO".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![
                SpatialStmt::StoreScalar {
                    dst: "out_crd".into(),
                    index: SExpr::var("pO"),
                    value: SExpr::var("i"),
                },
                SpatialStmt::StoreScalar {
                    dst: "out_tuples".into(),
                    index: SExpr::mul(SExpr::var("pO"), SExpr::Const(2.0)),
                    value: SExpr::var("pA"),
                },
                SpatialStmt::StoreScalar {
                    dst: "out_tuples".into(),
                    index: SExpr::add(
                        SExpr::mul(SExpr::var("pO"), SExpr::Const(2.0)),
                        SExpr::Const(1.0),
                    ),
                    value: SExpr::var("pB"),
                },
            ],
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(
            &m.dram("out_crd").unwrap()[..6],
            &[0.0, 1.0, 2.0, 3.0, 5.0, 8.0]
        );
        assert_eq!(
            &m.dram("out_tuples").unwrap()[..12],
            &[
                -1.0, 0.0, // i=0: only B
                0.0, -1.0, // i=1: only A
                1.0, 1.0, // i=2: both
                -1.0, 2.0, // i=3: only B
                2.0, -1.0, // i=5: only A
                -1.0, 3.0, // i=8: only B
            ]
        );
        assert_eq!(m.stats().scan_emits, 6);
        assert_engines_agree(&p, &[]);
    }

    /// Regression for the per-loop-entry bit-vector clone: a scan nested
    /// inside a `Foreach` re-enters once per outer iteration over a
    /// large dimension. The epoch-stamped snapshot pool must reproduce
    /// the reference engine's clone semantics (and stats) exactly.
    #[test]
    fn scan_reentry_over_large_dimension_matches_reference() {
        const DIM: usize = 1 << 14;
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv",
            MemKind::BitVector,
            DIM,
        )));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
        let coords = [1.0, 7.0, (DIM - 2) as f64];
        for c in coords {
            p.accel.push(SpatialStmt::Enq {
                fifo: "crd".into(),
                value: SExpr::Const(c),
            });
        }
        p.accel.push(SpatialStmt::GenBitVector {
            dst: "bv".into(),
            src: "crd".into(),
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(coords.len() as f64),
            dim: SExpr::Const(DIM as f64),
        });
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("r", SExpr::Const(3.0)),
            par: 1,
            body: vec![SpatialStmt::Reduce {
                id: 1,
                reg: "acc".into(),
                counter: Counter::Scan1 {
                    bv: "bv".into(),
                    pos_var: "p".into(),
                    idx_var: "i".into(),
                },
                par: 1,
                body: vec![],
                expr: SExpr::var("i"),
            }],
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.scan_bits, 3 * DIM as u64, "three re-entries");
        assert_eq!(stats.scan_emits, 9);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        let per_entry: f64 = coords.iter().sum();
        assert_eq!(m.dram("out").unwrap()[0], 3.0 * per_entry);
    }

    /// The scanned bit vector is regenerated inside the loop body; the
    /// active scan must keep iterating its entry-time snapshot, exactly
    /// like the engines that cloned the bits at entry.
    #[test]
    fn scan_snapshot_survives_mid_loop_regeneration() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 8);
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv",
            MemKind::BitVector,
            8,
        )));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
        for c in [1.0, 4.0, 6.0] {
            p.accel.push(SpatialStmt::Enq {
                fifo: "crd".into(),
                value: SExpr::Const(c),
            });
        }
        p.accel.push(SpatialStmt::GenBitVector {
            dst: "bv".into(),
            src: "crd".into(),
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(3.0),
            dim: SExpr::Const(8.0),
        });
        // Each iteration records its index, then clobbers the scanned
        // bit vector with {0}.
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan1 {
                bv: "bv".into(),
                pos_var: "p".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![
                SpatialStmt::StoreScalar {
                    dst: "out".into(),
                    index: SExpr::var("p"),
                    value: SExpr::var("i"),
                },
                SpatialStmt::Enq {
                    fifo: "crd".into(),
                    value: SExpr::Const(0.0),
                },
                SpatialStmt::GenBitVector {
                    dst: "bv".into(),
                    src: "crd".into(),
                    src_start: SExpr::Const(0.0),
                    count: SExpr::Const(1.0),
                    dim: SExpr::Const(8.0),
                },
            ],
        });
        // A second scan sees the regenerated {0}.
        p.accel.push(SpatialStmt::Foreach {
            id: 1,
            counter: Counter::Scan1 {
                bv: "bv".into(),
                pos_var: "q".into(),
                idx_var: "j".into(),
            },
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::add(SExpr::var("q"), SExpr::Const(4.0)),
                value: SExpr::add(SExpr::var("j"), SExpr::Const(100.0)),
            }],
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.trips(0), 3, "first scan iterates its snapshot");
        assert_eq!(stats.trips(1), 1, "second scan sees the new bits");
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..5], &[1.0, 4.0, 6.0, 0.0, 100.0]);
    }

    /// Nested scans allocate distinct snapshot-pool depths.
    #[test]
    fn nested_scans_use_distinct_pool_depths() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 64);
        for (bv, coords) in [("bvA", vec![2.0, 5.0]), ("bvB", vec![1.0, 3.0, 4.0])] {
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new(bv, MemKind::BitVector, 8)));
            let fifo = format!("{bv}_crd");
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, 8)));
            for c in &coords {
                p.accel.push(SpatialStmt::Enq {
                    fifo: fifo.clone(),
                    value: SExpr::Const(*c),
                });
            }
            p.accel.push(SpatialStmt::GenBitVector {
                dst: bv.into(),
                src: fifo,
                src_start: SExpr::Const(0.0),
                count: SExpr::Const(coords.len() as f64),
                dim: SExpr::Const(8.0),
            });
        }
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan1 {
                bv: "bvA".into(),
                pos_var: "pa".into(),
                idx_var: "ia".into(),
            },
            par: 1,
            body: vec![SpatialStmt::Foreach {
                id: 1,
                counter: Counter::Scan1 {
                    bv: "bvB".into(),
                    pos_var: "pb".into(),
                    idx_var: "ib".into(),
                },
                par: 1,
                body: vec![SpatialStmt::StoreScalar {
                    dst: "out".into(),
                    index: SExpr::add(
                        SExpr::mul(SExpr::var("ia"), SExpr::Const(8.0)),
                        SExpr::var("ib"),
                    ),
                    value: SExpr::add(SExpr::var("pa"), SExpr::var("pb")),
                }],
            }],
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.trips(0), 2);
        assert_eq!(stats.trips(1), 6);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        // Outer idx 5 (pos 1), inner idx 4 (pos 2) -> out[5*8+4] = 3.
        assert_eq!(m.dram("out").unwrap()[5 * 8 + 4], 3.0);
    }

    #[test]
    fn rmw_add_into_sparse_sram_counts_shuffle() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "acc",
            MemKind::SparseSram,
            4,
        )));
        for v in [1.5, 1.0] {
            p.accel.push(SpatialStmt::RmwAdd {
                mem: "acc".into(),
                index: SExpr::Const(2.0),
                value: SExpr::Const(v),
            });
        }
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read("acc", SExpr::Const(2.0)),
        });
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 2.5);
        assert_eq!(m.stats().shuffle_accesses, 2);
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn sparse_dram_random_read() {
        let mut p = SpatialProgram::new("t");
        p.add_sparse_dram("x", 8);
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read_random("x", SExpr::Const(2.0)),
        });
        let mut m = Machine::new(&p);
        m.write_dram("x", &[0.0, 10.0, 20.0]).unwrap();
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 20.0);
        assert_eq!(m.stats().dram_random_reads, 1);
        assert_eq!(m.dram_kind("x"), Some(MemKind::SparseDram));
        assert_engines_agree(&p, &[("x", vec![0.0, 10.0, 20.0])]);
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("d", 2);
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read("d", SExpr::Const(5.0)),
        });
        let mut m = Machine::new(&p);
        let err = m.run(&p).unwrap_err();
        assert!(matches!(err, RunError::OutOfBounds { .. }));
        assert_engines_agree(&p, &[]);
    }

    /// `NaN as usize` is 0, so a NaN index once silently addressed
    /// element 0. Both engines must reject it with the same typed error
    /// — a load bound, an SRAM read, and a DRAM store alike — and leave
    /// the output untouched.
    #[test]
    fn nan_index_is_rejected_on_both_engines() {
        let nan_ix = || SExpr::read("ix", SExpr::Const(0.0));
        let cases = [
            (
                "load start",
                SpatialStmt::Load {
                    dst: "xs".into(),
                    src: "x".into(),
                    start: nan_ix(),
                    end: SExpr::Const(4.0),
                    par: 1,
                },
            ),
            (
                "xs",
                SpatialStmt::StoreScalar {
                    dst: "y".into(),
                    index: SExpr::Const(0.0),
                    value: SExpr::read("xs", nan_ix()),
                },
            ),
            (
                "scalar store index",
                SpatialStmt::StoreScalar {
                    dst: "y".into(),
                    index: nan_ix(),
                    value: SExpr::Const(7.0),
                },
            ),
        ];
        for (context, stmt) in cases {
            let mut p = SpatialProgram::new("nan_index");
            p.add_dram("ix", 1);
            p.add_dram("x", 4);
            p.add_dram("y", 4);
            p.accel
                .push(SpatialStmt::Alloc(MemDecl::new("xs", MemKind::Sram, 4)));
            p.accel.push(stmt);
            let mut fast = Machine::new(&p);
            let mut reference = ReferenceMachine::new(&p);
            for (name, data) in [("ix", vec![f64::NAN]), ("x", vec![1.0, 2.0, 3.0, 4.0])] {
                fast.write_dram(name, &data).unwrap();
                reference.write_dram(name, &data).unwrap();
            }
            for err in [fast.run(&p).unwrap_err(), reference.run(&p).unwrap_err()] {
                match err {
                    RunError::NegativeIndex { context: c, value } => {
                        assert_eq!(c, context);
                        assert!(value.is_nan(), "{context}: value {value}");
                    }
                    other => panic!("{context}: expected NegativeIndex, got {other:?}"),
                }
            }
            assert_eq!(fast.dram("y").unwrap(), &[0.0; 4], "{context}");
            assert_eq!(reference.dram("y").unwrap(), &[0.0; 4], "{context}");
        }
    }

    #[test]
    fn stream_store_drains_fifo() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 8);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 8)));
        for v in [5.0, 6.0, 7.0] {
            p.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(v),
            });
        }
        p.accel.push(SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(2.0),
            fifo: "f".into(),
            len: SExpr::Const(3.0),
        });
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[2..5], &[5.0, 6.0, 7.0]);
        assert_eq!(m.stats().dram_writes["out"], 3);
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn nested_foreach_trips_recorded() {
        let mut p = SpatialProgram::new("t");
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(3.0)),
            par: 2,
            body: vec![SpatialStmt::Foreach {
                id: 1,
                counter: Counter::range_to("j", SExpr::Const(4.0)),
                par: 1,
                body: vec![],
            }],
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.trips(0), 3);
        assert_eq!(stats.trips(1), 12);
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn alloc_in_loop_resets() {
        // A register allocated inside a loop body starts at zero each
        // iteration.
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(3.0)),
            par: 1,
            body: vec![
                SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)),
                SpatialStmt::SetReg {
                    reg: "r".into(),
                    value: SExpr::add(SExpr::RegRead("r".into()), SExpr::var("i")),
                },
                SpatialStmt::StoreScalar {
                    dst: "out".into(),
                    index: SExpr::var("i"),
                    value: SExpr::RegRead("r".into()),
                },
            ],
        });
        p.assign_ids();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..3], &[0.0, 1.0, 2.0]);
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn unbound_var_reported() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::var("ghost"),
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.run(&p), Err(RunError::UnboundVar("ghost".into())));
        assert_engines_agree(&p, &[]);
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::add(SExpr::Const(1.0), SExpr::Const(2.0)),
        });
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.stats().alu_ops, 1);
        let stats = m.run(&p).unwrap();
        assert_eq!(stats.alu_ops, 2);
        assert_eq!(stats.dram_random_writes, 2);
    }

    #[test]
    fn run_relinks_a_different_program() {
        let mut p1 = SpatialProgram::new("a");
        p1.add_dram("x", 2);
        p1.accel.push(SpatialStmt::StoreScalar {
            dst: "x".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(7.0),
        });
        // Same DRAM, different statement — and a reference to a DRAM the
        // machine never allocated.
        let mut p2 = SpatialProgram::new("b");
        p2.add_dram("x", 2);
        p2.accel.push(SpatialStmt::StoreScalar {
            dst: "x".into(),
            index: SExpr::Const(1.0),
            value: SExpr::Const(9.0),
        });
        let mut m = Machine::new(&p1);
        m.run(&p1).unwrap();
        m.run(&p2).unwrap();
        assert_eq!(m.dram("x").unwrap(), &[7.0, 9.0]);

        let mut p3 = SpatialProgram::new("c");
        p3.add_dram("ghost", 2);
        p3.accel.push(SpatialStmt::StoreScalar {
            dst: "ghost".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
        });
        // `ghost` was not declared when the machine was built: its slots
        // exist after re-linking but carry no storage, like the
        // reference engine's behavior.
        assert_eq!(m.run(&p3), Err(RunError::UnknownMemory("ghost".into())));
    }

    #[test]
    fn write_dram_usize_converts_in_place() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("pos", 4);
        let mut m = Machine::new(&p);
        m.write_dram_usize("pos", &[0, 2, 5]).unwrap();
        assert_eq!(&m.dram("pos").unwrap()[..3], &[0.0, 2.0, 5.0]);
        assert_eq!(m.dram_usize("pos").unwrap(), vec![0, 2, 5, 0]);
        let mut buf = Vec::new();
        m.read_dram_usize_into("pos", 2, &mut buf).unwrap();
        assert_eq!(buf, vec![0, 2]);
        assert_eq!(
            m.read_dram_usize_into("pos", 9, &mut buf),
            Err(RunError::OutOfBounds {
                mem: "pos".into(),
                index: 9,
                len: 4,
            })
        );
        assert!(buf.is_empty(), "failed read leaves the buffer empty");
        assert!(m.write_dram_usize("ghost", &[1]).is_err());
    }

    #[test]
    fn zero_length_load_still_creates_stats_entry() {
        // The reference engine creates a dram_reads entry even for a
        // zero-word load; the fold must reproduce that.
        let mut p = SpatialProgram::new("t");
        p.add_dram("d", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
        p.accel.push(SpatialStmt::Load {
            dst: "s".into(),
            src: "d".into(),
            start: SExpr::Const(2.0),
            end: SExpr::Const(2.0),
            par: 1,
        });
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.dram_reads.get("d"), Some(&0));
    }

    // --- FIFO ring-buffer representation -----------------------------

    /// Interleaved enqueues and dequeues force the ring's read/write
    /// positions to wrap around its region several times; ordering and
    /// statistics must match the unbounded reference queue exactly.
    #[test]
    fn fifo_ring_wraparound_preserves_order() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 16);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
        let mut out_ix = 0.0;
        // Three rounds of (enq 3, deq 2) leave one element behind per
        // round; with capacity 4 the write position wraps every round.
        for round in 0..3 {
            for k in 0..3 {
                p.accel.push(SpatialStmt::Enq {
                    fifo: "f".into(),
                    value: SExpr::Const((10 * round + k) as f64),
                });
            }
            for _ in 0..2 {
                p.accel.push(SpatialStmt::StoreScalar {
                    dst: "out".into(),
                    index: SExpr::Const(out_ix),
                    value: SExpr::Deq("f".into()),
                });
                out_ix += 1.0;
            }
        }
        // Drain the three leftovers.
        p.accel.push(SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(out_ix),
            fifo: "f".into(),
            len: SExpr::Const(3.0),
        });
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.fifo_enqs, 9);
        assert_eq!(stats.fifo_deqs, 9);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(
            &m.dram("out").unwrap()[..9],
            &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 20.0, 21.0, 22.0],
            "FIFO order across wraparounds"
        );
    }

    /// Enqueuing past the declared capacity must not fail: the queue is
    /// unbounded (like the reference `VecDeque`) and the ring grows by
    /// relocating to a larger arena region, carrying its contents.
    #[test]
    fn fifo_enqueue_past_declared_capacity_grows() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 16);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 2)));
        // Wrap first so the relocation has to linearize a split ring.
        p.accel.push(SpatialStmt::Enq {
            fifo: "f".into(),
            value: SExpr::Const(99.0),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(15.0),
            value: SExpr::Deq("f".into()),
        });
        for v in 0..9 {
            p.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(v as f64),
            });
        }
        p.accel.push(SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(0.0),
            fifo: "f".into(),
            len: SExpr::Const(9.0),
        });
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.fifo_enqs, 10);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        let expect: Vec<f64> = (0..9).map(f64::from).collect();
        assert_eq!(&m.dram("out").unwrap()[..9], &expect[..]);
    }

    /// Dequeue-from-empty after the ring has wrapped reports the same
    /// `FifoUnderflow` (and drained state) as the reference engine.
    #[test]
    fn fifo_underflow_after_wraparound() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 8);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 2)));
        for round in 0..2 {
            p.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(round as f64),
            });
            p.accel.push(SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::Const(round as f64),
                value: SExpr::Deq("f".into()),
            });
        }
        // Queue is now empty; one more dequeue underflows.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(7.0),
            value: SExpr::Deq("f".into()),
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.run(&p), Err(RunError::FifoUnderflow("f".into())));
        assert_engines_agree(&p, &[]);
    }

    /// Draining more than the queue holds underflows and leaves the
    /// FIFO drained, exactly like the reference engine's pop-until-
    /// empty failure.
    #[test]
    fn fifo_stream_store_underflow_drains() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 8);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
        p.accel.push(SpatialStmt::Enq {
            fifo: "f".into(),
            value: SExpr::Const(1.0),
        });
        p.accel.push(SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(0.0),
            fifo: "f".into(),
            len: SExpr::Const(3.0),
        });
        let mut m = Machine::new(&p);
        assert_eq!(m.run(&p), Err(RunError::FifoUnderflow("f".into())));
        assert_engines_agree(&p, &[]);
    }

    // --- Bit-vector arena growth -------------------------------------

    /// `GenBitVector` with a dimension larger than the declared
    /// allocation grows the slot's bitset region; the following scan
    /// sees the full dimension, matching the old `Vec<bool>` resize.
    #[test]
    fn bitvector_grows_past_declared_dimension() {
        const DIM: usize = 200; // declared 8, grown to 200 (4 words)
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 8);
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv",
            MemKind::BitVector,
            8,
        )));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("crd", MemKind::Fifo, 8)));
        let coords = [1.0, 64.0, (DIM - 1) as f64];
        for c in coords {
            p.accel.push(SpatialStmt::Enq {
                fifo: "crd".into(),
                value: SExpr::Const(c),
            });
        }
        p.accel.push(SpatialStmt::GenBitVector {
            dst: "bv".into(),
            src: "crd".into(),
            src_start: SExpr::Const(0.0),
            count: SExpr::Const(coords.len() as f64),
            dim: SExpr::Const(DIM as f64),
        });
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Scan1 {
                bv: "bv".into(),
                pos_var: "p".into(),
                idx_var: "i".into(),
            },
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("p"),
                value: SExpr::var("i"),
            }],
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]);
        assert_eq!(stats.scan_bits, DIM as u64, "scan sees the grown dim");
        assert_eq!(stats.scan_emits, 3);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..3], &coords[..]);
    }

    // --- Re-linking over the arena -----------------------------------

    /// On-chip state written by one program survives re-linking to a
    /// second program that reads it without re-allocating — matching
    /// the reference engine's persistent name-keyed map.
    #[test]
    fn relink_preserves_on_chip_state() {
        let mut p1 = SpatialProgram::new("a");
        p1.add_dram("out", 4);
        p1.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 4)));
        p1.accel
            .push(SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)));
        p1.accel.push(SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::Const(2.0),
            value: SExpr::Const(7.0),
            random: false,
        });
        p1.accel.push(SpatialStmt::SetReg {
            reg: "r".into(),
            value: SExpr::Const(3.5),
        });
        // p2 reads both without allocating; it also allocates a *larger*
        // SRAM under a new name, forcing fresh arena regions.
        let mut p2 = SpatialProgram::new("b");
        p2.add_dram("out", 4);
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("big", MemKind::Sram, 64)));
        p2.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read("s", SExpr::Const(2.0)),
        });
        p2.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(1.0),
            value: SExpr::RegRead("r".into()),
        });
        let mut m = Machine::new(&p1);
        let mut reference = ReferenceMachine::new(&p1);
        m.run(&p1).unwrap();
        reference.run(&p1).unwrap();
        m.run(&p2).unwrap();
        reference.run(&p2).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..2], &[7.0, 3.5]);
        assert_eq!(m.dram("out").unwrap(), reference.dram("out").unwrap());
        assert_eq!(m.stats(), reference.stats());
    }

    /// Re-linking to a program that re-allocates an existing slot with
    /// a larger size than the original layout reserved grows the region
    /// at the end of the arena.
    #[test]
    fn relink_grows_slot_beyond_original_layout() {
        let mut p1 = SpatialProgram::new("a");
        p1.add_dram("out", 4);
        p1.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 2)));
        let mut p2 = SpatialProgram::new("b");
        p2.add_dram("out", 4);
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 32)));
        p2.accel.push(SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::Const(31.0),
            value: SExpr::Const(5.0),
            random: false,
        });
        p2.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read("s", SExpr::Const(31.0)),
        });
        let mut m = Machine::new(&p1);
        m.run(&p1).unwrap();
        m.run(&p2).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 5.0);
    }

    /// Alternating runs between two programs must not grow the arenas
    /// per relink: once every slot has a region satisfying both
    /// layouts, re-linking appends nothing.
    #[test]
    fn relink_alternation_reaches_arena_fixed_point() {
        let mut p1 = SpatialProgram::new("a");
        p1.add_dram("out", 4);
        p1.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s1", MemKind::Sram, 16)));
        p1.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv1",
            MemKind::BitVector,
            128,
        )));
        let mut p2 = SpatialProgram::new("b");
        p2.add_dram("out", 4);
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s2", MemKind::Sram, 32)));
        p2.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f2", MemKind::Fifo, 8)));
        let mut m = Machine::new(&p1);
        m.run(&p1).unwrap();
        m.run(&p2).unwrap();
        let words = m.words.len();
        let bits = m.bits.len();
        for _ in 0..4 {
            m.run(&p1).unwrap();
            m.run(&p2).unwrap();
        }
        assert_eq!(m.words.len(), words, "word arena grew across relinks");
        assert_eq!(m.bits.len(), bits, "bitset arena grew across relinks");
    }

    // --- Snapshot / restore ------------------------------------------

    /// Checkpoint regression: run a first phase, snapshot, finish, then
    /// restore and finish again — the replay must produce byte-identical
    /// DRAM images and identical statistics, proving the snapshot
    /// captures all mid-execution state (on-chip arenas, FIFO ring
    /// positions, bindings, and the dense counters).
    #[test]
    fn snapshot_restore_replays_identically() {
        // Phase 1: load, scatter into SparseSRAM, leave a FIFO with a
        // wrapped ring, a bound variable, and a register mid-flight.
        let mut p1 = SpatialProgram::new("phase1");
        p1.add_dram("in", 8);
        p1.add_dram("out", 16);
        p1.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "s",
            MemKind::SparseSram,
            8,
        )));
        p1.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 2)));
        p1.accel
            .push(SpatialStmt::Alloc(MemDecl::new("r", MemKind::Reg, 1)));
        p1.accel.push(SpatialStmt::Load {
            dst: "s".into(),
            src: "in".into(),
            start: SExpr::Const(0.0),
            end: SExpr::Const(8.0),
            par: 1,
        });
        for v in [4.0, 5.0, 6.0] {
            p1.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(v),
            });
        }
        p1.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(15.0),
            value: SExpr::Deq("f".into()),
        });
        p1.accel.push(SpatialStmt::SetReg {
            reg: "r".into(),
            value: SExpr::Const(2.5),
        });
        p1.accel.push(SpatialStmt::Bind {
            var: "v".into(),
            value: SExpr::Const(3.0),
        });
        // Phase 2: consume all of that state.
        let mut p2 = SpatialProgram::new("phase2");
        p2.add_dram("in", 8);
        p2.add_dram("out", 16);
        p2.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::range_to("i", SExpr::Const(4.0)),
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::mul(
                    SExpr::read("s", SExpr::var("i")),
                    SExpr::RegRead("r".into()),
                ),
            }],
        });
        p2.accel.push(SpatialStmt::StreamStore {
            dst: "out".into(),
            offset: SExpr::Const(4.0),
            fifo: "f".into(),
            len: SExpr::Const(2.0),
        });
        p2.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(6.0),
            value: SExpr::var("v"),
        });
        p2.assign_ids();

        let mut m = Machine::new(&p1);
        m.write_dram("in", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        m.run(&p1).unwrap();
        let checkpoint = m.snapshot();
        let stats1 = m.run(&p2).unwrap();
        let dram1: Vec<u64> = m.dram("out").unwrap().iter().map(|v| v.to_bits()).collect();
        // Finish again from the checkpoint: byte-identical replay.
        m.restore(&checkpoint);
        let stats2 = m.run(&p2).unwrap();
        let dram2: Vec<u64> = m.dram("out").unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(dram1, dram2, "replayed DRAM must be byte-identical");
        assert_eq!(stats1, stats2, "replayed statistics must be identical");
        // Sanity: phase 2 really consumed phase-1 state.
        assert_eq!(
            &m.dram("out").unwrap()[..7],
            &[
                2.5, 5.0, 7.5, 10.0, // s[i] * r
                5.0, 6.0, // FIFO leftovers
                3.0  // bound var
            ]
        );
    }

    /// The snapshot is a deep copy: mutations after `snapshot()` do not
    /// leak into it, and `restore` rewinds DRAM too.
    #[test]
    fn snapshot_is_isolated_from_later_mutation() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 2);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
        });
        let mut m = Machine::new(&p);
        let before = m.snapshot();
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 1.0);
        assert_eq!(m.stats().dram_random_writes, 1);
        m.restore(&before);
        assert_eq!(m.dram("out").unwrap()[0], 0.0, "DRAM rewound");
        assert_eq!(m.stats().dram_random_writes, 0, "stats rewound");
    }
}
