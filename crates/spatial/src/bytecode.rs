//! Stage two of the execution pipeline: flat bytecode over resolved slots.
//!
//! The [`crate::resolve`] pass removes string hashing from the hot path,
//! but the resolved form is still a statement *tree*: executing it means
//! a recursive `exec` call per statement and a closure invocation per
//! loop iteration, with `Vec<ResolvedStmt>` pointer chasing on every
//! level. This module lowers a [`ResolvedProgram`] into a dense
//! [`CompiledProgram`]:
//!
//! - every statement becomes one fixed-size [`Op`] in a flat `Vec<Op>`,
//!   with loops compiled to explicit enter/advance ops carrying jump
//!   targets (`Foreach`, `Reduce`, and the `Scan1`/`Scan2` co-iteration
//!   counters all share one frame-based protocol), and
//! - every expression tree becomes a postfix [`EOp`] program evaluated
//!   with a small value stack, with `Select` lowered to conditional
//!   jumps so the untaken side is skipped exactly as the reference
//!   engine skips it.
//!
//! [`crate::Machine::run`] then executes the op vector with a program
//! counter and a dense frame stack — no recursion, no per-iteration
//! closure, branch-predictable dispatch. The original string-keyed
//! engine survives as [`crate::ReferenceMachine`]; differential tests
//! hold both engines to byte-identical DRAM images and identical
//! [`crate::ExecStats`].
//!
//! Compilation is pure: a [`CompiledProgram`] depends only on the source
//! program, so it is shared behind `Arc` and cached by program identity
//! in a [`ProgramCache`]. Harnesses that sweep one kernel across many
//! datasets or memory models re-bind a fresh [`crate::Machine`] per run
//! without paying the link/lower cost again.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::interp::Machine;
use crate::ir::{BinSOp, MemKind, ScanOp, SpatialProgram};
use crate::resolve::{
    resolve, ExprId, ResolvedCounter, ResolvedExpr, ResolvedProgram, ResolvedStmt, Slot,
    SymbolTable,
};

/// Index of an [`Op`] in a compiled program (a program-counter value).
pub type OpId = u32;

/// Maximum nested-loop rank allowed inside one superinstruction
/// ([`Op::RangeSimple`], [`Op::Scan1Simple`], [`Op::Scan2Simple`]).
/// Caps the executor's recursion at a constant depth; deeper nests
/// fall back to the frame-stack protocol. Rank 2 keeps the dominant
/// sparse shapes — a dense row loop over a per-row scan or reduction —
/// entirely inside one superinstruction.
pub const MAX_SIMPLE_RANK: u32 = 2;

/// Index into the flat expression-op array where an expression program
/// starts; evaluation runs to the matching [`EOp::End`].
pub type ERef = u32;

/// One postfix expression op. Evaluation pushes/pops a value stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EOp {
    /// Push a literal.
    Const(f64),
    /// Push a bound variable.
    Var(Slot),
    /// Push a register's value.
    RegRead(Slot),
    /// Dequeue from a FIFO and push the element.
    Deq(Slot),
    /// Pop an index, read `mem[index]`, push the value. Carries both
    /// resolutions of the name (on-chip checked first, then the
    /// SparseDRAM random-read fallback), like
    /// [`ResolvedExpr::ReadMem`].
    ReadMem {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// Pop, negate, push.
    Neg,
    /// Pop rhs then lhs, apply, push.
    Binary(BinSOp),
    /// Fused `Var` + `ReadMem`: read `mem[env[var]]` and push, saving a
    /// dispatch and a stack round-trip on the commonest gather shape.
    VarReadMem {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
        /// Index variable slot.
        var: Slot,
    },
    /// Fused `Var` + `VarReadMem` + `Binary`: push
    /// `env[a] op mem[env[ivar]]` — the scale-by-gathered-value shape
    /// at the heart of scatter-accumulate kernels.
    VarBinGather {
        /// Left operand variable slot.
        a: Slot,
        /// Operator.
        op: BinSOp,
        /// On-chip slot of the gathered name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
        /// Gather index variable slot.
        ivar: Slot,
    },
    /// Fused `Var` + `Const` + `Binary`: push `env[var] op c` (the
    /// ubiquitous `i + 1` position arithmetic).
    VarConstBin {
        /// Left operand variable slot.
        var: Slot,
        /// Right operand constant.
        c: f64,
        /// Operator.
        op: BinSOp,
    },
    /// Pop the mux condition (counting its ALU op); fall through to the
    /// true side when nonzero, jump to `target` (the false side)
    /// otherwise.
    BranchFalse {
        /// First op of the false side.
        target: ERef,
    },
    /// Unconditional jump (ends the true side of a `Select`).
    Jump {
        /// Jump destination.
        target: ERef,
    },
    /// End of this expression program; the result is the top of stack.
    End,
}

/// A statement operand, resolved at compile time to an immediate form
/// whenever the expression is a leaf (or the ubiquitous single-gather
/// `mem[var]`), so the executor skips the expression interpreter for
/// the common cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A literal.
    Const(f64),
    /// A bound variable.
    Var(Slot),
    /// `mem[env[var]]` — the dominant sparse-access shape.
    Gather {
        /// On-chip slot of the name.
        chip: Slot,
        /// DRAM slot of the same name.
        dram: Slot,
        /// Whether the access is data-dependent.
        random: bool,
        /// Index variable slot.
        var: Slot,
    },
    /// A recognized multi-access shape, stored out of line in the
    /// program's [`FusedOp`] table to keep this enum small.
    Fused(u32),
    /// Anything else: a postfix expression program.
    Expr(ERef),
}

/// A memory reference inside a [`FusedOp`]: `mem[env[var]]` with both
/// name resolutions, exactly like [`EOp::VarReadMem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatherRef {
    /// On-chip slot of the name.
    pub chip: Slot,
    /// DRAM slot of the same name.
    pub dram: Slot,
    /// Whether the access is data-dependent.
    pub random: bool,
    /// Index variable slot.
    pub var: Slot,
}

/// Compile-time-recognized compound operand shapes, evaluated without
/// entering the expression interpreter. Each reproduces the unfused
/// evaluation order (and therefore statistics and error identity)
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedOp {
    /// `mem[env[var] op c]` — the compressed-level bound shape
    /// (`pos[i + 1]`).
    GatherOffset {
        /// The gathered memory; its `var` is the index variable.
        mem: GatherRef,
        /// Index offset constant.
        c: f64,
        /// Index operator.
        op: BinSOp,
    },
    /// `env[a] op mem[env[var]]` — the scale-by-gathered-value shape
    /// (`vb * C_vals[jj]`).
    BinGather {
        /// Left operand variable slot.
        a: Slot,
        /// Operator.
        op: BinSOp,
        /// The gathered memory.
        mem: GatherRef,
    },
    /// `lhs[env[v]] op outer[inner[env[w]]]` — the dot-product-gather
    /// shape of CSR SpMV (`vals[j] * x[crd[j]]`, the operand gathered
    /// through the shuffle network).
    BinGatherInd {
        /// Left-hand gathered memory.
        lhs: GatherRef,
        /// Operator.
        op: BinSOp,
        /// Inner (index-producing) gathered memory.
        inner: GatherRef,
        /// Outer memory indexed by the inner gather's result.
        outer: GatherRef,
    },
}

/// One statement op of the flat program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// On-chip allocation (or the runtime rejection of an off-chip kind).
    Alloc {
        /// Chip slot being allocated.
        slot: Slot,
        /// Declared kind.
        kind: MemKind,
        /// Capacity in words (bits for bit vectors).
        size: usize,
    },
    /// `val var = expr`.
    Bind {
        /// Bound variable slot.
        var: Slot,
        /// Value expression.
        value: Operand,
    },
    /// Bulk DRAM → on-chip load.
    Load {
        /// Destination chip slot.
        dst: Slot,
        /// Source DRAM slot.
        src: Slot,
        /// First word index.
        start: Operand,
        /// One-past-last word index.
        end: Operand,
    },
    /// Bulk on-chip → DRAM store.
    Store {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word offset into the destination.
        offset: Operand,
        /// Source chip slot.
        src: Slot,
        /// Number of words.
        len: Operand,
    },
    /// FIFO → DRAM drain.
    StreamStore {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word offset.
        offset: Operand,
        /// Source FIFO chip slot.
        fifo: Slot,
        /// Number of elements.
        len: Operand,
    },
    /// Single-element DRAM write.
    StoreScalar {
        /// Destination DRAM slot.
        dst: Slot,
        /// Word index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// On-chip write.
    WriteMem {
        /// Destination chip slot.
        mem: Slot,
        /// Word index.
        index: Operand,
        /// Stored value.
        value: Operand,
        /// Whether the access is data-dependent.
        random: bool,
    },
    /// On-chip atomic add.
    RmwAdd {
        /// Destination chip slot.
        mem: Slot,
        /// Word index.
        index: Operand,
        /// Added value.
        value: Operand,
    },
    /// Register write.
    SetReg {
        /// Register chip slot.
        reg: Slot,
        /// Stored value.
        value: Operand,
    },
    /// FIFO enqueue.
    Enq {
        /// Destination FIFO chip slot.
        fifo: Slot,
        /// Enqueued value.
        value: Operand,
    },
    /// Bit-vector generation from a coordinate stream.
    GenBitVector {
        /// Destination bit-vector chip slot.
        dst: Slot,
        /// Source chip slot (FIFO or SRAM).
        src: Slot,
        /// Starting word within `src`.
        src_start: Operand,
        /// Number of coordinates.
        count: Operand,
        /// Bit-vector length.
        dim: Operand,
    },
    /// A dense `Range` loop whose body is pure straight-line code (and
    /// whose optional reduction tail is one expression): the whole loop
    /// runs as a native loop inside a single dispatch — no frame, no
    /// per-iteration `Next`. This is the dominant inner-loop shape of
    /// sparse kernels (per-row reductions, scatter-accumulates).
    RangeSimple {
        /// Pattern node id (trip statistics).
        id: usize,
        /// Loop variable slot.
        var: Slot,
        /// Inclusive lower bound.
        min: Operand,
        /// Exclusive upper bound.
        max: Operand,
        /// Step (positive).
        step: i64,
        /// First body op (always this op's pc + 1).
        body: OpId,
        /// Number of body ops; execution resumes past them.
        body_len: u32,
        /// `(accumulator register, reduced expression)` when the loop
        /// is a `Reduce`.
        reduce: Option<(Slot, Operand)>,
    },
    /// A single bit-vector `Scan` loop whose body is straight-line
    /// (or nests only further superinstructions): the vector is
    /// snapshotted once and its set bits iterate natively — no frame,
    /// no per-emit `Next` dispatch. This is the inner-loop shape of
    /// Capstan-style declarative-sparse kernels.
    Scan1Simple {
        /// Pattern node id (trip statistics).
        id: usize,
        /// Scanned bit vector (chip slot).
        bv: Slot,
        /// Position variable slot.
        pos_var: Slot,
        /// Dense-index variable slot.
        idx_var: Slot,
        /// First body op (always this op's pc + 1).
        body: OpId,
        /// Number of body ops; execution resumes past them.
        body_len: u32,
        /// `(accumulator register, reduced expression)` when the loop
        /// is a `Reduce`.
        reduce: Option<(Slot, Operand)>,
    },
    /// A two-input co-iteration `Scan` loop in superinstruction form
    /// (see [`Op::Scan1Simple`]): the dominant shape of sparse-sparse
    /// union and intersection kernels.
    Scan2Simple {
        /// Pattern node id (trip statistics).
        id: usize,
        /// Combination operator.
        op: ScanOp,
        /// First bit vector (chip slot).
        bv_a: Slot,
        /// Second bit vector (chip slot).
        bv_b: Slot,
        /// `[a_pos, b_pos, out_pos, idx]` variable slots.
        vars: [Slot; 4],
        /// First body op (always this op's pc + 1).
        body: OpId,
        /// Number of body ops; execution resumes past them.
        body_len: u32,
        /// `(accumulator register, reduced expression)` when the loop
        /// is a `Reduce`.
        reduce: Option<(Slot, Operand)>,
    },
    /// Enter a dense `Range` loop: evaluate the bounds, push a frame,
    /// and either fall into the body or jump to `exit` on zero trips.
    EnterRange {
        /// Pattern node id (trip statistics).
        id: usize,
        /// Loop variable slot.
        var: Slot,
        /// Inclusive lower bound.
        min: Operand,
        /// Exclusive upper bound.
        max: Operand,
        /// Step (positive).
        step: i64,
        /// Reduction register when this loop is a `Reduce`.
        reduce: Option<Slot>,
        /// First op after the loop.
        exit: OpId,
    },
    /// Enter a single bit-vector scan loop.
    EnterScan1 {
        /// Pattern node id.
        id: usize,
        /// Scanned bit vector (chip slot).
        bv: Slot,
        /// Position variable slot.
        pos_var: Slot,
        /// Dense-index variable slot.
        idx_var: Slot,
        /// Reduction register when this loop is a `Reduce`.
        reduce: Option<Slot>,
        /// First op after the loop.
        exit: OpId,
    },
    /// Enter a two-input co-iteration scan loop.
    EnterScan2 {
        /// Pattern node id.
        id: usize,
        /// Combination operator.
        op: ScanOp,
        /// First bit vector (chip slot).
        bv_a: Slot,
        /// Second bit vector (chip slot).
        bv_b: Slot,
        /// `[a_pos, b_pos, out_pos, idx]` variable slots.
        vars: [Slot; 4],
        /// Reduction register when this loop is a `Reduce`.
        reduce: Option<Slot>,
        /// First op after the loop.
        exit: OpId,
    },
    /// Fold the per-iteration reduction expression into the innermost
    /// frame's accumulator (emitted between a `Reduce` body and its
    /// `Next`).
    ReduceTail {
        /// The reduced expression.
        expr: Operand,
    },
    /// Advance the innermost loop frame: jump back to `body` for the
    /// next iteration, or pop the frame and fall through when done.
    Next {
        /// First op of the loop body.
        body: OpId,
    },
    /// End of program.
    Halt,
}

/// A fully compiled Spatial program: the source, its symbol table, the
/// resolved form (whose arena and DRAM layouts size every machine),
/// and the flat bytecode. Immutable once built — share it behind
/// [`Arc`] and bind as many [`Machine`]s to it as needed.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    source: SpatialProgram,
    syms: SymbolTable,
    resolved: ResolvedProgram,
    ops: Vec<Op>,
    eops: Vec<EOp>,
    fused: Vec<FusedOp>,
    /// A pristine zeroed input segment sized per the DRAM layout.
    /// Freshly constructed machines share it behind this `Arc`
    /// (copy-on-write), so creating a machine never allocates or zeroes
    /// the input segment.
    zero_input: Arc<Vec<f64>>,
    /// Half-open `[start, end)` op spans of each top-level resolved
    /// statement, in statement order — the correspondence the effect
    /// analysis uses to reason about prefix/body/suffix regions of a
    /// program.
    stmt_spans: Vec<(OpId, OpId)>,
}

/// The vector tier an op may run on. The engine has no vector tier,
/// so [`CompiledProgram::vec_class`] always returns [`VecClass::None`];
/// the type stays so per-op tier counts keep compiling and read zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecClass {
    /// Runs on the scalar engine (the only tier).
    None,
}

impl CompiledProgram {
    /// Links and lowers a program against a fresh symbol table.
    pub fn compile(program: &SpatialProgram) -> Self {
        Self::compile_with(program, SymbolTable::default())
    }

    /// Links and lowers a program against (and extending) an existing
    /// symbol table, so slots from a previous compilation stay valid —
    /// the relink path when a [`Machine`] is handed a new program.
    pub fn compile_with(program: &SpatialProgram, mut syms: SymbolTable) -> Self {
        let resolved = resolve(program, &mut syms);
        let mut lowering = Lowering {
            resolved: &resolved,
            ops: Vec::new(),
            eops: Vec::new(),
            fused: Vec::new(),
            fuse_barrier: 0,
        };
        let mut stmt_spans = Vec::with_capacity(resolved.body.len());
        for stmt in &resolved.body {
            let start = lowering.ops.len() as OpId;
            lowering.stmt(stmt);
            stmt_spans.push((start, lowering.ops.len() as OpId));
        }
        lowering.ops.push(Op::Halt);
        let Lowering {
            ops, eops, fused, ..
        } = lowering;
        let zero_input = Arc::new(vec![0.0; resolved.dram_layout.input_words]);
        let compiled = CompiledProgram {
            source: program.clone(),
            syms,
            resolved,
            ops,
            eops,
            fused,
            zero_input,
            stmt_spans,
        };
        // Every compile is verified in debug builds: a lowering bug
        // surfaces as a typed VerifyError here, not as a differential
        // divergence (or an out-of-bounds dispatch) at run time.
        #[cfg(debug_assertions)]
        if let Err(e) = compiled.verify() {
            panic!("compiler produced an invalid program: {e}");
        }
        compiled
    }

    /// Verifies the structural validity of this program's bytecode
    /// (see [`crate::analysis::verify`]). The compiler asserts this on
    /// every compile in debug builds; release pipelines call it once
    /// per compile via [`stardust-core`'s `CompileError::Verify`
    /// gate](crate::analysis::VerifyError).
    pub fn verify(&self) -> Result<(), crate::analysis::VerifyError> {
        crate::analysis::verify(&crate::analysis::VerifyCtx {
            ops: &self.ops,
            eops: &self.eops,
            fused: &self.fused,
            syms: &self.syms,
            layout: &self.resolved.layout,
            dram_layout: &self.resolved.dram_layout,
        })
    }

    /// The source program this artifact was compiled from.
    pub fn source(&self) -> &SpatialProgram {
        &self.source
    }

    /// The symbol table the program was linked against.
    pub fn syms(&self) -> &SymbolTable {
        &self.syms
    }

    /// The resolved statement tree the bytecode was lowered from.
    pub fn resolved(&self) -> &ResolvedProgram {
        &self.resolved
    }

    /// The flat statement ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The flat expression ops.
    pub fn eops(&self) -> &[EOp] {
        &self.eops
    }

    /// The fused compound-operand table.
    pub fn fused(&self) -> &[FusedOp] {
        &self.fused
    }

    /// The vector tier the op at `pc` may run on: always
    /// [`VecClass::None`], because the engine has no vector tier. Kept
    /// so callers that count tier yield per op (the end-to-end
    /// benchmark's static counts) keep compiling and read zero.
    #[inline(always)]
    pub fn vec_class(&self, _pc: usize) -> VecClass {
        VecClass::None
    }

    /// Whether the op at `pc` runs without its bounds check: always
    /// `false`, because the engine checks every access. Kept for the
    /// same callers as [`CompiledProgram::vec_class`].
    #[inline(always)]
    pub fn elide_at(&self, _pc: usize) -> bool {
        false
    }

    /// Half-open `[start, end)` op spans of each top-level resolved
    /// statement, in statement order. `resolve` drops
    /// [`crate::ir::SpatialStmt::Comment`]s, so these index the
    /// *resolved* body, not the source `accel` block.
    pub fn stmt_spans(&self) -> &[(OpId, OpId)] {
        &self.stmt_spans
    }

    /// The shared pristine (all-zero) DRAM input segment machines are
    /// born bound to.
    pub fn zero_dram_input(&self) -> &Arc<Vec<f64>> {
        &self.zero_input
    }
}

/// A cache of compiled programs keyed by program identity (name fast
/// path, full structural equality on collision). Thread-safe; cheap to
/// share by reference across a benchmark harness or dataset sweep.
#[derive(Debug, Default)]
pub struct ProgramCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<String, Vec<Arc<CompiledProgram>>>,
    hits: u64,
    misses: u64,
}

impl ProgramCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared compiled form of `program`, compiling it on
    /// first sight.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned by a panicking thread.
    pub fn get_or_compile(&self, program: &SpatialProgram) -> Arc<CompiledProgram> {
        let mut inner = self.inner.lock().expect("cache lock");
        let bucket = inner.entries.entry(program.name.clone()).or_default();
        if let Some(hit) = bucket.iter().find(|c| c.source() == program) {
            let hit = Arc::clone(hit);
            inner.hits += 1;
            return hit;
        }
        let compiled = Arc::new(CompiledProgram::compile(program));
        bucket.push(Arc::clone(&compiled));
        inner.misses += 1;
        compiled
    }

    /// Builds a machine bound to the cached compiled form of `program`.
    pub fn machine(&self, program: &SpatialProgram) -> Machine {
        Machine::from_compiled(self.get_or_compile(program))
    }

    /// Number of distinct programs compiled so far.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("cache lock");
        inner.entries.values().map(Vec::len).sum()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters since construction.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock was poisoned.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("cache lock");
        (inner.hits, inner.misses)
    }
}

struct Lowering<'a> {
    resolved: &'a ResolvedProgram,
    ops: Vec<Op>,
    eops: Vec<EOp>,
    fused: Vec<FusedOp>,
    /// Ops below this index must not be consumed by peephole fusion: a
    /// jump target has been patched to land just past them, so folding
    /// them into a later superinstruction would skip real work on the
    /// jumping path.
    fuse_barrier: usize,
}

impl Lowering<'_> {
    /// Compiles one expression tree into the flat array, returning the
    /// index of its first op.
    fn expr(&mut self, id: ExprId) -> ERef {
        let start = self.eops.len() as ERef;
        self.expr_ops(id);
        self.eops.push(EOp::End);
        start
    }

    /// Whether the last `n` emitted ops may be rewritten by fusion.
    fn fusable(&self, n: usize) -> bool {
        self.eops.len() >= self.fuse_barrier + n
    }

    /// Lowers a statement operand: leaves, single gathers, and the
    /// recognized compound shapes become immediates; everything else
    /// becomes an expression program.
    fn operand(&mut self, id: ExprId) -> Operand {
        match self.resolved.expr(id) {
            ResolvedExpr::Const(c) => Operand::Const(c),
            ResolvedExpr::Var(v) => Operand::Var(v),
            ResolvedExpr::ReadMem {
                chip,
                dram,
                index,
                random,
            } => match self.resolved.expr(index) {
                ResolvedExpr::Var(var) => Operand::Gather {
                    chip,
                    dram,
                    random,
                    var,
                },
                ResolvedExpr::Binary { op, lhs, rhs } => {
                    if let (ResolvedExpr::Var(var), ResolvedExpr::Const(c)) =
                        (self.resolved.expr(lhs), self.resolved.expr(rhs))
                    {
                        self.fuse(FusedOp::GatherOffset {
                            mem: GatherRef {
                                chip,
                                dram,
                                random,
                                var,
                            },
                            c,
                            op,
                        })
                    } else {
                        Operand::Expr(self.expr(id))
                    }
                }
                _ => Operand::Expr(self.expr(id)),
            },
            ResolvedExpr::Binary { op, lhs, rhs } => {
                match (self.gather_ref(lhs), self.resolved.expr(lhs)) {
                    // lhs is a plain variable: vb * C_vals[jj].
                    (_, ResolvedExpr::Var(a)) => {
                        if let Some(mem) = self.gather_ref(rhs) {
                            return self.fuse(FusedOp::BinGather { a, op, mem });
                        }
                        Operand::Expr(self.expr(id))
                    }
                    // lhs is a gather: vals[j] * x[crd[j]].
                    (Some(l), _) => {
                        if let ResolvedExpr::ReadMem {
                            chip,
                            dram,
                            index,
                            random,
                        } = self.resolved.expr(rhs)
                        {
                            if let Some(inner) = self.gather_ref(index) {
                                let outer = GatherRef {
                                    chip,
                                    dram,
                                    random,
                                    // Unused: the index comes off the
                                    // inner gather's result.
                                    var: 0,
                                };
                                return self.fuse(FusedOp::BinGatherInd {
                                    lhs: l,
                                    op,
                                    inner,
                                    outer,
                                });
                            }
                        }
                        Operand::Expr(self.expr(id))
                    }
                    _ => Operand::Expr(self.expr(id)),
                }
            }
            _ => Operand::Expr(self.expr(id)),
        }
    }

    /// `mem[env[var]]` view of an expression, when it has that shape.
    fn gather_ref(&self, id: ExprId) -> Option<GatherRef> {
        if let ResolvedExpr::ReadMem {
            chip,
            dram,
            index,
            random,
        } = self.resolved.expr(id)
        {
            if let ResolvedExpr::Var(var) = self.resolved.expr(index) {
                return Some(GatherRef {
                    chip,
                    dram,
                    random,
                    var,
                });
            }
        }
        None
    }

    /// Interns a fused compound shape, returning its operand.
    fn fuse(&mut self, f: FusedOp) -> Operand {
        let ix = self.fused.len() as u32;
        self.fused.push(f);
        Operand::Fused(ix)
    }

    fn expr_ops(&mut self, id: ExprId) {
        match self.resolved.expr(id) {
            ResolvedExpr::Const(c) => self.eops.push(EOp::Const(c)),
            ResolvedExpr::Var(v) => self.eops.push(EOp::Var(v)),
            ResolvedExpr::RegRead(r) => self.eops.push(EOp::RegRead(r)),
            ResolvedExpr::Deq(f) => self.eops.push(EOp::Deq(f)),
            ResolvedExpr::ReadMem {
                chip,
                dram,
                index,
                random,
            } => {
                self.expr_ops(index);
                if self.fusable(1) {
                    if let Some(&EOp::Var(var)) = self.eops.last() {
                        self.eops.pop();
                        self.eops.push(EOp::VarReadMem {
                            chip,
                            dram,
                            random,
                            var,
                        });
                        return;
                    }
                }
                self.eops.push(EOp::ReadMem { chip, dram, random });
            }
            ResolvedExpr::Neg(inner) => {
                self.expr_ops(inner);
                self.eops.push(EOp::Neg);
            }
            ResolvedExpr::Binary { op, lhs, rhs } => {
                self.expr_ops(lhs);
                self.expr_ops(rhs);
                if self.fusable(2) {
                    if let [.., EOp::Var(var), EOp::Const(c)] = self.eops[..] {
                        self.eops.pop();
                        self.eops.pop();
                        self.eops.push(EOp::VarConstBin { var, c, op });
                        return;
                    }
                    if let [.., EOp::Var(a), EOp::VarReadMem {
                        chip,
                        dram,
                        random,
                        var,
                    }] = self.eops[..]
                    {
                        self.eops.pop();
                        self.eops.pop();
                        self.eops.push(EOp::VarBinGather {
                            a,
                            op,
                            chip,
                            dram,
                            random,
                            ivar: var,
                        });
                        return;
                    }
                }
                self.eops.push(EOp::Binary(op));
            }
            ResolvedExpr::Select {
                cond,
                if_true,
                if_false,
            } => {
                self.expr_ops(cond);
                let branch_at = self.eops.len();
                self.eops.push(EOp::BranchFalse { target: 0 });
                self.expr_ops(if_true);
                let jump_at = self.eops.len();
                self.eops.push(EOp::Jump { target: 0 });
                let false_start = self.eops.len() as ERef;
                self.eops[branch_at] = EOp::BranchFalse {
                    target: false_start,
                };
                self.expr_ops(if_false);
                let end = self.eops.len() as ERef;
                self.eops[jump_at] = EOp::Jump { target: end };
                // The true-path jump lands at `end`; nothing emitted so
                // far may be folded into an op that spans it.
                self.fuse_barrier = self.eops.len();
            }
        }
    }

    fn stmt(&mut self, s: &ResolvedStmt) {
        match s {
            ResolvedStmt::Alloc { slot, kind, size } => self.ops.push(Op::Alloc {
                slot: *slot,
                kind: *kind,
                size: *size,
            }),
            ResolvedStmt::Bind { var, value } => {
                let value = self.operand(*value);
                self.ops.push(Op::Bind { var: *var, value });
            }
            ResolvedStmt::Load {
                dst,
                src,
                start,
                end,
            } => {
                let start = self.operand(*start);
                let end = self.operand(*end);
                self.ops.push(Op::Load {
                    dst: *dst,
                    src: *src,
                    start,
                    end,
                });
            }
            ResolvedStmt::Store {
                dst,
                offset,
                src,
                len,
            } => {
                let offset = self.operand(*offset);
                let len = self.operand(*len);
                self.ops.push(Op::Store {
                    dst: *dst,
                    offset,
                    src: *src,
                    len,
                });
            }
            ResolvedStmt::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                let offset = self.operand(*offset);
                let len = self.operand(*len);
                self.ops.push(Op::StreamStore {
                    dst: *dst,
                    offset,
                    fifo: *fifo,
                    len,
                });
            }
            ResolvedStmt::StoreScalar { dst, index, value } => {
                let index = self.operand(*index);
                let value = self.operand(*value);
                self.ops.push(Op::StoreScalar {
                    dst: *dst,
                    index,
                    value,
                });
            }
            ResolvedStmt::WriteMem {
                mem,
                index,
                value,
                random,
            } => {
                let index = self.operand(*index);
                let value = self.operand(*value);
                self.ops.push(Op::WriteMem {
                    mem: *mem,
                    index,
                    value,
                    random: *random,
                });
            }
            ResolvedStmt::RmwAdd { mem, index, value } => {
                let index = self.operand(*index);
                let value = self.operand(*value);
                self.ops.push(Op::RmwAdd {
                    mem: *mem,
                    index,
                    value,
                });
            }
            ResolvedStmt::SetReg { reg, value } => {
                let value = self.operand(*value);
                self.ops.push(Op::SetReg { reg: *reg, value });
            }
            ResolvedStmt::Enq { fifo, value } => {
                let value = self.operand(*value);
                self.ops.push(Op::Enq { fifo: *fifo, value });
            }
            ResolvedStmt::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                let src_start = self.operand(*src_start);
                let count = self.operand(*count);
                let dim = self.operand(*dim);
                self.ops.push(Op::GenBitVector {
                    dst: *dst,
                    src: *src,
                    src_start,
                    count,
                    dim,
                });
            }
            ResolvedStmt::Foreach { id, counter, body } => {
                self.lower_loop(*id, counter, body, None);
            }
            ResolvedStmt::Reduce {
                id,
                reg,
                counter,
                body,
                expr,
            } => {
                self.lower_loop(*id, counter, body, Some((*reg, *expr)));
            }
        }
    }

    /// Nested-loop rank of a body under superinstruction lowering:
    /// `Some(0)` for pure straight-line code, `Some(n)` when every
    /// nested loop is itself superinstruction-eligible with rank
    /// `< n`, `None` when too-deep nesting forces the framed form.
    /// Every counter kind lowers to a superinstruction
    /// ([`Op::RangeSimple`], [`Op::Scan1Simple`], [`Op::Scan2Simple`]),
    /// so only depth disqualifies. The rank bounds the executor's
    /// constant recursion depth, so it is capped at
    /// [`MAX_SIMPLE_RANK`].
    fn simple_rank(body: &[ResolvedStmt]) -> Option<u32> {
        let mut rank = 0u32;
        for s in body {
            let inner = match s {
                ResolvedStmt::Foreach { body, .. } => body,
                ResolvedStmt::Reduce { body, .. } => body,
                _ => continue,
            };
            let r = Self::simple_rank(inner)?;
            if r >= MAX_SIMPLE_RANK {
                return None;
            }
            rank = rank.max(r + 1);
        }
        Some(rank)
    }

    /// Whether a loop body may live inside a [`Op::RangeSimple`]
    /// (`simple_rank` already rejects over-deep nesting).
    fn body_is_simple(body: &[ResolvedStmt]) -> bool {
        Self::simple_rank(body).is_some()
    }

    /// Emits `Enter* body... [ReduceTail] Next` and patches the enter
    /// op's exit target to the op after `Next` — or a single
    /// superinstruction ([`Op::RangeSimple`], [`Op::Scan1Simple`],
    /// [`Op::Scan2Simple`]) when the body is straight-line (or nests
    /// only further superinstructions within [`MAX_SIMPLE_RANK`]).
    fn lower_loop(
        &mut self,
        id: usize,
        counter: &ResolvedCounter,
        body: &[ResolvedStmt],
        reduce: Option<(Slot, ExprId)>,
    ) {
        if Self::body_is_simple(body) {
            // Bound operands intern before the body's (placeholder is
            // pushed first so `body` starts at `enter_at + 1`), the
            // reduce operand after — matching the framed emission
            // order below.
            let header = match counter {
                ResolvedCounter::Range {
                    var,
                    min,
                    max,
                    step,
                } => Some((*var, self.operand(*min), self.operand(*max), *step)),
                ResolvedCounter::Scan1 { .. } | ResolvedCounter::Scan2 { .. } => None,
            };
            let enter_at = self.ops.len();
            self.ops.push(Op::Halt); // placeholder, patched below
            for s in body {
                self.stmt(s);
            }
            let body_len = (self.ops.len() - enter_at - 1) as u32;
            let reduce = reduce.map(|(reg, expr)| (reg, self.operand(expr)));
            let body = (enter_at + 1) as OpId;
            self.ops[enter_at] = match counter {
                ResolvedCounter::Range { .. } => {
                    let (var, min, max, step) = header.expect("range header");
                    Op::RangeSimple {
                        id,
                        var,
                        min,
                        max,
                        step,
                        body,
                        body_len,
                        reduce,
                    }
                }
                ResolvedCounter::Scan1 {
                    bv,
                    pos_var,
                    idx_var,
                } => Op::Scan1Simple {
                    id,
                    bv: *bv,
                    pos_var: *pos_var,
                    idx_var: *idx_var,
                    body,
                    body_len,
                    reduce,
                },
                ResolvedCounter::Scan2 {
                    op,
                    bv_a,
                    bv_b,
                    a_pos_var,
                    b_pos_var,
                    out_pos_var,
                    idx_var,
                } => Op::Scan2Simple {
                    id,
                    op: *op,
                    bv_a: *bv_a,
                    bv_b: *bv_b,
                    vars: [*a_pos_var, *b_pos_var, *out_pos_var, *idx_var],
                    body,
                    body_len,
                    reduce,
                },
            };
            return;
        }
        let reduce_reg = reduce.map(|(reg, _)| reg);
        let enter_at = self.ops.len();
        match counter {
            ResolvedCounter::Range {
                var,
                min,
                max,
                step,
            } => {
                let min = self.operand(*min);
                let max = self.operand(*max);
                self.ops.push(Op::EnterRange {
                    id,
                    var: *var,
                    min,
                    max,
                    step: *step,
                    reduce: reduce_reg,
                    exit: 0,
                });
            }
            ResolvedCounter::Scan1 {
                bv,
                pos_var,
                idx_var,
            } => self.ops.push(Op::EnterScan1 {
                id,
                bv: *bv,
                pos_var: *pos_var,
                idx_var: *idx_var,
                reduce: reduce_reg,
                exit: 0,
            }),
            ResolvedCounter::Scan2 {
                op,
                bv_a,
                bv_b,
                a_pos_var,
                b_pos_var,
                out_pos_var,
                idx_var,
            } => self.ops.push(Op::EnterScan2 {
                id,
                op: *op,
                bv_a: *bv_a,
                bv_b: *bv_b,
                vars: [*a_pos_var, *b_pos_var, *out_pos_var, *idx_var],
                reduce: reduce_reg,
                exit: 0,
            }),
        }
        for s in body {
            self.stmt(s);
        }
        if let Some((_, expr)) = reduce {
            let expr = self.operand(expr);
            self.ops.push(Op::ReduceTail { expr });
        }
        let body_start = (enter_at + 1) as OpId;
        self.ops.push(Op::Next { body: body_start });
        let exit = self.ops.len() as OpId;
        match &mut self.ops[enter_at] {
            Op::EnterRange { exit: e, .. }
            | Op::EnterScan1 { exit: e, .. }
            | Op::EnterScan2 { exit: e, .. } => *e = exit,
            _ => unreachable!("loop lowering emitted a non-enter op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::RunError;
    use crate::ir::{Counter, MemDecl, SExpr, SpatialStmt};
    use crate::reference::ReferenceMachine;
    use crate::ExecStats;

    /// Runs a program on the bytecode engine and the string-keyed
    /// reference and asserts byte-identical DRAM plus identical stats
    /// or identical errors.
    fn assert_engines_agree(
        p: &SpatialProgram,
        writes: &[(&str, Vec<f64>)],
    ) -> Result<ExecStats, RunError> {
        let mut bytecode = Machine::new(p);
        let mut reference = ReferenceMachine::new(p);
        for (name, data) in writes {
            bytecode.write_dram(name, data).unwrap();
            reference.write_dram(name, data).unwrap();
        }
        let bc_result = bytecode.run(p);
        let ref_result = reference.run(p);
        assert_eq!(bc_result, ref_result, "bytecode vs reference result");
        for d in &p.drams {
            let bits = |m: &[f64]| -> Vec<u64> { m.iter().map(|v| v.to_bits()).collect() };
            assert_eq!(
                bits(bytecode.dram(&d.name).unwrap()),
                bits(reference.dram(&d.name).unwrap()),
                "DRAM {} bytecode vs reference",
                d.name
            );
        }
        assert_eq!(
            bytecode.stats(),
            reference.stats(),
            "stats bytecode vs reference"
        );
        bc_result
    }

    fn range_loop(id: usize, var: &str, trip: f64, body: Vec<SpatialStmt>) -> SpatialStmt {
        SpatialStmt::Foreach {
            id,
            counter: Counter::range_to(var, SExpr::Const(trip)),
            par: 1,
            body,
        }
    }

    #[test]
    fn straight_line_range_loop_lowers_to_superinstruction() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel.push(range_loop(
            0,
            "i",
            3.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::var("i"),
            }],
        ));
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        // RangeSimple, StoreScalar, Halt.
        assert_eq!(c.ops().len(), 3);
        let Op::RangeSimple {
            body,
            body_len,
            reduce,
            ..
        } = c.ops()[0]
        else {
            panic!("expected RangeSimple, got {:?}", c.ops()[0]);
        };
        assert_eq!((body, body_len), (1, 1));
        assert!(reduce.is_none());
        assert!(matches!(c.ops()[2], Op::Halt));
    }

    #[test]
    fn nested_loops_lower_to_enter_body_next_with_patched_exit() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        // Four levels: the outer body's nested rank (3) exceeds
        // MAX_SIMPLE_RANK, so the outer loop takes the framed
        // enter/next form while the three inner loops collapse
        // into nested superinstructions.
        p.accel.push(range_loop(
            0,
            "i",
            3.0,
            vec![range_loop(
                1,
                "j",
                2.0,
                vec![range_loop(
                    2,
                    "k",
                    2.0,
                    vec![range_loop(
                        3,
                        "l",
                        2.0,
                        vec![SpatialStmt::StoreScalar {
                            dst: "out".into(),
                            index: SExpr::var("l"),
                            value: SExpr::add(SExpr::var("i"), SExpr::var("j")),
                        }],
                    )],
                )],
            )],
        ));
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        // EnterRange, RangeSimple ×3, StoreScalar, Next, Halt.
        assert_eq!(c.ops().len(), 7);
        let Op::EnterRange { exit, .. } = c.ops()[0] else {
            panic!("expected EnterRange, got {:?}", c.ops()[0]);
        };
        assert_eq!(exit, 6, "exit lands on Halt");
        assert!(matches!(c.ops()[1], Op::RangeSimple { .. }));
        assert!(matches!(c.ops()[2], Op::RangeSimple { .. }));
        assert!(matches!(c.ops()[3], Op::RangeSimple { .. }));
        let Op::Next { body } = c.ops()[5] else {
            panic!("expected Next");
        };
        assert_eq!(body, 1, "Next jumps to the first body op");
        assert!(matches!(c.ops()[6], Op::Halt));
        assert_engines_agree(&p, &[]).unwrap();
    }

    #[test]
    fn fused_eops_cover_gather_and_position_arithmetic() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(range_loop(
            0,
            "i",
            3.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                // read(s, i) * (i + 1): a VarReadMem and a VarConstBin.
                value: SExpr::mul(
                    SExpr::read("s", SExpr::var("i")),
                    SExpr::add(SExpr::var("i"), SExpr::Const(1.0)),
                ),
            }],
        ));
        p.assign_ids();
        let c = CompiledProgram::compile(&p);
        assert!(c.eops().iter().any(|e| matches!(e, EOp::VarReadMem { .. })));
        assert!(c
            .eops()
            .iter()
            .any(|e| matches!(e, EOp::VarConstBin { .. })));
        assert_engines_agree(&p, &[]).unwrap();
    }

    /// Fusion must not consume ops a `Select` jump target lands past.
    #[test]
    fn select_result_feeding_a_read_is_not_fused_across_the_jump() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::Const(3.0),
            value: SExpr::Const(42.0),
            random: false,
        });
        p.accel.push(SpatialStmt::Bind {
            var: "c".into(),
            value: SExpr::Const(0.0),
        });
        p.accel.push(SpatialStmt::Bind {
            var: "f".into(),
            value: SExpr::Const(3.0),
        });
        // read(s, select(c, c, f)): the false side ends in a bare Var,
        // which must NOT be folded into the enclosing ReadMem — the
        // true path jumps to the op right after it.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::read(
                "s",
                SExpr::select(SExpr::var("c"), SExpr::var("c"), SExpr::var("f")),
            ),
        });
        p.assign_ids();
        assert_engines_agree(&p, &[]).unwrap();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 42.0);
    }

    #[test]
    fn select_lowers_to_branches_that_skip_the_untaken_side() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::select(SExpr::Const(1.0), SExpr::Const(7.0), SExpr::Const(9.0)),
        });
        let c = CompiledProgram::compile(&p);
        let branches = c
            .eops()
            .iter()
            .filter(|e| matches!(e, EOp::BranchFalse { .. }))
            .count();
        let jumps = c
            .eops()
            .iter()
            .filter(|e| matches!(e, EOp::Jump { .. }))
            .count();
        assert_eq!((branches, jumps), (1, 1));
        let stats = assert_engines_agree(&p, &[]).unwrap();
        // Only the mux itself is an ALU op; the untaken side is skipped.
        assert_eq!(stats.alu_ops, 1);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 7.0);
    }

    #[test]
    fn empty_loop_body_executes_and_counts_trips() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel.push(range_loop(0, "i", 5.0, vec![]));
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.trips(0), 5);
    }

    #[test]
    fn zero_trip_range_skips_the_body() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 2);
        // max == min: zero trips.
        p.accel.push(SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Range {
                var: "i".into(),
                min: SExpr::Const(3.0),
                max: SExpr::Const(3.0),
                step: 1,
            },
            par: 1,
            body: vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::Const(0.0),
                value: SExpr::Const(1.0),
            }],
        });
        // A sentinel write after the loop proves control flow continues.
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(1.0),
            value: SExpr::Const(2.0),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.trips(0), 0);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap(), &[0.0, 2.0]);
    }

    #[test]
    fn zero_trip_reduce_still_writes_back_the_accumulator() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel.push(SpatialStmt::SetReg {
            reg: "acc".into(),
            value: SExpr::Const(4.5),
        });
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("i", SExpr::Const(0.0)),
            par: 1,
            body: vec![],
            expr: SExpr::Const(1.0),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        assert_engines_agree(&p, &[]).unwrap();
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 4.5);
        assert_eq!(m.stats().reduce_elems, 0);
    }

    #[test]
    fn nested_parallel_foreach_inside_reduce() {
        // A Reduce whose body contains a par-annotated Foreach that
        // scatters into SRAM before the reduction expression reads it.
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, 8)));
        p.accel.push(SpatialStmt::Reduce {
            id: 0,
            reg: "acc".into(),
            counter: Counter::range_to("i", SExpr::Const(3.0)),
            par: 1,
            body: vec![SpatialStmt::Foreach {
                id: 1,
                counter: Counter::range_to("j", SExpr::Const(4.0)),
                par: 4,
                body: vec![SpatialStmt::WriteMem {
                    mem: "s".into(),
                    index: SExpr::var("j"),
                    value: SExpr::mul(SExpr::var("i"), SExpr::var("j")),
                    random: false,
                }],
            }],
            expr: SExpr::read("s", SExpr::Const(3.0)),
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.trips(0), 3);
        assert_eq!(stats.trips(1), 12);
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        // Σ_i i*3 for i in 0..3 = 0 + 3 + 6.
        assert_eq!(m.dram("out").unwrap()[0], 9.0);
    }

    #[test]
    fn deeply_nested_loops_grow_the_frame_stack() {
        const DEPTH: usize = 64;
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 1);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("acc", MemKind::Reg, 1)));
        let mut body = vec![SpatialStmt::SetReg {
            reg: "acc".into(),
            value: SExpr::add(SExpr::RegRead("acc".into()), SExpr::Const(1.0)),
        }];
        for d in (0..DEPTH).rev() {
            body = vec![SpatialStmt::Foreach {
                id: d,
                counter: Counter::range_to(format!("v{d}"), SExpr::Const(1.0)),
                par: 1,
                body,
            }];
        }
        p.accel.extend(body);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::RegRead("acc".into()),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        for d in 0..DEPTH {
            assert_eq!(stats.trips(d), 1, "depth {d}");
        }
        let mut m = Machine::new(&p);
        m.run(&p).unwrap();
        assert_eq!(m.dram("out").unwrap()[0], 1.0);
    }

    #[test]
    fn zero_trip_scan_over_empty_bit_vector() {
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 2);
        p.accel.push(SpatialStmt::Alloc(MemDecl::new(
            "bv",
            MemKind::BitVector,
            8,
        )));
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
                value: SExpr::Const(1.0),
            }],
        });
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(1.0),
            value: SExpr::Const(3.0),
        });
        p.assign_ids();
        let stats = assert_engines_agree(&p, &[]).unwrap();
        assert_eq!(stats.scan_emits, 0);
        assert_eq!(stats.scan_bits, 8);
    }

    #[test]
    fn errors_inside_loops_match_the_tree_engines() {
        // FIFO underflow on the third iteration.
        let mut p = SpatialProgram::new("t");
        p.add_dram("out", 4);
        p.accel
            .push(SpatialStmt::Alloc(MemDecl::new("f", MemKind::Fifo, 4)));
        for v in [1.0, 2.0] {
            p.accel.push(SpatialStmt::Enq {
                fifo: "f".into(),
                value: SExpr::Const(v),
            });
        }
        p.accel.push(range_loop(
            0,
            "i",
            4.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::Deq("f".into()),
            }],
        ));
        p.assign_ids();
        let err = assert_engines_agree(&p, &[]).unwrap_err();
        assert_eq!(err, RunError::FifoUnderflow("f".into()));
    }

    #[test]
    fn machine_recovers_after_an_errored_run() {
        // An error mid-loop abandons the frame stack; the next run on the
        // same machine must start clean.
        let mut fail = SpatialProgram::new("t");
        fail.add_dram("out", 4);
        fail.accel.push(range_loop(
            0,
            "i",
            4.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::add(SExpr::var("i"), SExpr::Const(2.0)),
                value: SExpr::Const(1.0),
            }],
        ));
        fail.assign_ids();
        let mut m = Machine::new(&fail);
        assert!(m.run(&fail).is_err());
        let mut ok = SpatialProgram::new("t");
        ok.add_dram("out", 4);
        ok.accel.push(range_loop(
            0,
            "i",
            2.0,
            vec![SpatialStmt::StoreScalar {
                dst: "out".into(),
                index: SExpr::var("i"),
                value: SExpr::Const(9.0),
            }],
        ));
        ok.assign_ids();
        m.run(&ok).unwrap();
        assert_eq!(&m.dram("out").unwrap()[..2], &[9.0, 9.0]);
    }

    #[test]
    fn cache_shares_compiled_programs_by_identity() {
        let mut p = SpatialProgram::new("k");
        p.add_dram("out", 1);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(1.0),
        });
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&p);
        let b = cache.get_or_compile(&p);
        assert!(Arc::ptr_eq(&a, &b), "same program shares one artifact");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (1, 1));

        // Same name, different body: identity check falls back to
        // structural equality and compiles a second artifact.
        let mut q = SpatialProgram::new("k");
        q.add_dram("out", 1);
        q.accel.push(SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::Const(0.0),
            value: SExpr::Const(2.0),
        });
        let c = cache.get_or_compile(&q);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);

        let mut m1 = cache.machine(&p);
        let mut m2 = cache.machine(&q);
        m1.run(&p).unwrap();
        m2.run(&q).unwrap();
        assert_eq!(m1.dram("out").unwrap()[0], 1.0);
        assert_eq!(m2.dram("out").unwrap()[0], 2.0);
    }

    #[test]
    fn machines_bound_to_one_artifact_do_not_share_state() {
        let mut p = SpatialProgram::new("k");
        p.add_dram("x", 2);
        p.accel.push(SpatialStmt::StoreScalar {
            dst: "x".into(),
            index: SExpr::Const(1.0),
            value: SExpr::add(
                SExpr::read_random("x", SExpr::Const(0.0)),
                SExpr::Const(1.0),
            ),
        });
        // `x` is plain DRAM, so the random-read fallback needs SparseDram
        // semantics — use add_sparse_dram instead for the read source.
        let mut p = {
            let mut q = SpatialProgram::new("k");
            q.add_sparse_dram("x", 2);
            q.accel = p.accel.clone();
            q
        };
        p.assign_ids();
        let compiled = Arc::new(CompiledProgram::compile(&p));
        let mut m1 = Machine::from_compiled(Arc::clone(&compiled));
        let mut m2 = Machine::from_compiled(compiled);
        m1.write_dram("x", &[10.0]).unwrap();
        m2.write_dram("x", &[20.0]).unwrap();
        m1.run(&p).unwrap();
        m2.run(&p).unwrap();
        assert_eq!(m1.dram("x").unwrap(), &[10.0, 11.0]);
        assert_eq!(m2.dram("x").unwrap(), &[20.0, 21.0]);
    }
}
