//! Static analysis over the lowered bytecode: one dataflow pass that
//! gates every compile.
//!
//! The shard planner ([`crate::shard`]) needs to *prove* properties of
//! a compiled program before running it differently from the serial
//! interpreter: that a loop's iterations are independent, that a
//! prefix only loads, that a suffix reads nothing the body defines.
//! This module reasons over the *lowered* `Vec<Op>` form, where every
//! name is a dense slot and every loop is an explicit jump structure:
//!
//! - [`verify`] — structural validity of a compiled program: every jump
//!   target in range, enter/advance frames balanced, every slot within
//!   its [`ArenaLayout`]/[`DramLayout`] extent, postfix expression
//!   programs stack-disciplined. The compiler runs it on every
//!   [`crate::CompiledProgram`] in debug builds (and CI runs it over
//!   the whole kernel suite + a mutation corpus), so a lowering bug
//!   becomes a typed [`VerifyError`] at compile time instead of a
//!   differential divergence at run time.
//! - [`effects_of_span`] — the effect summary of an op region: DRAM
//!   read/write sets, chip-slot def/use, variable def/use, as dense
//!   slot sets. [`crate::shard::ShardPlan::analyze`] is built on these
//!   summaries, which is what widens sharding to non-trailing outer
//!   loops: a prefix is safe to replay per shard iff its DRAM write
//!   set is disjoint from the candidate body's, a suffix is safe to
//!   run after iff it depends on nothing the body defines.
//!
//! The analyses are deliberately conservative: every set is an
//! over-approximation, every proof obligation that cannot be
//! discharged statically falls back to serial execution. Soundness
//! here means "never claim a property that could fail at run time",
//! not "accept every safe program".

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use crate::bytecode::{EOp, FusedOp, GatherRef, Op, Operand};
use crate::ir::MemKind;
use crate::resolve::{bit_words_for, ArenaLayout, DramLayout, Slot, SymbolTable};

/// A structural-validity violation found by [`verify`]. Each variant
/// carries the program counter (or expression-op index) of the
/// offending op, so a failure message pinpoints the lowering bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program is empty or its final op is not [`Op::Halt`].
    MissingHalt,
    /// A [`Op::Halt`] appears before the final position.
    StrayHalt {
        /// Offending program counter.
        pc: usize,
    },
    /// A frame op (`Enter*`/`Next`/`ReduceTail`) or `Halt` appears
    /// inside a superinstruction body, where the straight-line
    /// executor cannot dispatch it.
    MisplacedOp {
        /// Offending program counter.
        pc: usize,
    },
    /// A superinstruction's body span is malformed: `body != pc + 1`
    /// or the span overruns the program.
    BodyOutOfRange {
        /// Offending program counter.
        pc: usize,
    },
    /// A framed loop's structure is malformed: `exit` out of range or
    /// not past the loop head, the op before `exit` is not the
    /// matching [`Op::Next`], a `Next` advances a frame that was never
    /// entered, or a [`Op::ReduceTail`] sits outside a reducing frame.
    BadFrame {
        /// Offending program counter.
        pc: usize,
    },
    /// A chip slot is outside the symbol table / arena layout.
    ChipSlotOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range slot.
        slot: Slot,
    },
    /// A DRAM slot is outside the symbol table / DRAM layout.
    DramSlotOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range slot.
        slot: Slot,
    },
    /// A variable slot is outside the symbol table.
    VarSlotOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range slot.
        slot: Slot,
    },
    /// A fused-operand index is outside the program's fused table.
    FusedOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range index.
        index: u32,
    },
    /// An expression reference is outside the expression-op array.
    ExprOutOfRange {
        /// Offending program counter.
        pc: usize,
        /// The out-of-range reference.
        index: u32,
    },
    /// An on-chip allocation exceeds the extent the [`ArenaLayout`]
    /// reserved for its slot.
    AllocExceedsLayout {
        /// Offending program counter.
        pc: usize,
        /// The allocated slot.
        slot: Slot,
        /// The requested size (words, or bits for bit vectors).
        size: usize,
        /// The layout's reserved capacity for the slot.
        cap: usize,
    },
    /// An expression program pops more values than the stack holds.
    ExprUnderflow {
        /// The expression program's entry reference.
        eref: u32,
        /// The expression-op index where the stack underflows.
        at: usize,
    },
    /// An expression program runs past the op array without an
    /// [`EOp::End`].
    ExprNoEnd {
        /// The expression program's entry reference.
        eref: u32,
    },
    /// An expression jump is backward or out of range (expression
    /// control flow is forward-only).
    ExprBadJump {
        /// The expression program's entry reference.
        eref: u32,
        /// The expression-op index of the jump.
        at: usize,
        /// The bad target.
        target: u32,
    },
    /// An expression program reaches [`EOp::End`] with a stack depth
    /// other than one (no single result value).
    ExprBadResult {
        /// The expression program's entry reference.
        eref: u32,
        /// The stack depth at `End`.
        depth: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VerifyError::MissingHalt => {
                write!(f, "program does not end with Halt")
            }
            VerifyError::StrayHalt { pc } => {
                write!(f, "Halt before the final op at pc {pc}")
            }
            VerifyError::MisplacedOp { pc } => {
                write!(
                    f,
                    "frame op in straight-line position at pc {pc} \
                     (inside a superinstruction body)"
                )
            }
            VerifyError::BodyOutOfRange { pc } => {
                write!(f, "superinstruction body span malformed at pc {pc}")
            }
            VerifyError::BadFrame { pc } => {
                write!(f, "loop frame structure malformed at pc {pc}")
            }
            VerifyError::ChipSlotOutOfRange { pc, slot } => {
                write!(f, "chip slot {slot} out of range at pc {pc}")
            }
            VerifyError::DramSlotOutOfRange { pc, slot } => {
                write!(f, "DRAM slot {slot} out of range at pc {pc}")
            }
            VerifyError::VarSlotOutOfRange { pc, slot } => {
                write!(f, "variable slot {slot} out of range at pc {pc}")
            }
            VerifyError::FusedOutOfRange { pc, index } => {
                write!(f, "fused-operand index {index} out of range at pc {pc}")
            }
            VerifyError::ExprOutOfRange { pc, index } => {
                write!(f, "expression reference {index} out of range at pc {pc}")
            }
            VerifyError::AllocExceedsLayout {
                pc,
                slot,
                size,
                cap,
            } => {
                write!(
                    f,
                    "Alloc of chip slot {slot} at pc {pc} requests {size} \
                     but the arena layout reserves {cap}"
                )
            }
            VerifyError::ExprUnderflow { eref, at } => {
                write!(f, "expression {eref} underflows its stack at eop {at}")
            }
            VerifyError::ExprNoEnd { eref } => {
                write!(f, "expression {eref} runs off the op array without End")
            }
            VerifyError::ExprBadJump { eref, at, target } => {
                write!(
                    f,
                    "expression {eref} has a backward or out-of-range jump \
                     to {target} at eop {at}"
                )
            }
            VerifyError::ExprBadResult { eref, depth } => {
                write!(
                    f,
                    "expression {eref} ends with stack depth {depth} (want 1)"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Borrowed view of the parts of a compiled program the analyses need.
/// [`crate::CompiledProgram::verify`] builds one from its own fields;
/// tests build one over a *mutated* copy of the op array to exercise
/// the verifier without access to the program's private internals.
#[derive(Debug, Clone, Copy)]
pub struct VerifyCtx<'a> {
    /// The flat statement ops.
    pub ops: &'a [Op],
    /// The flat expression ops.
    pub eops: &'a [EOp],
    /// The fused compound-operand table.
    pub fused: &'a [FusedOp],
    /// The symbol table the program was linked against.
    pub syms: &'a SymbolTable,
    /// On-chip arena extents.
    pub layout: &'a ArenaLayout,
    /// DRAM arena extents.
    pub dram_layout: &'a DramLayout,
}

impl<'a> VerifyCtx<'a> {
    fn check_chip(&self, pc: usize, slot: Slot) -> Result<(), VerifyError> {
        if (slot as usize) < self.syms.chip_count() && (slot as usize) < self.layout.chips.len() {
            Ok(())
        } else {
            Err(VerifyError::ChipSlotOutOfRange { pc, slot })
        }
    }

    fn check_dram(&self, pc: usize, slot: Slot) -> Result<(), VerifyError> {
        if (slot as usize) < self.syms.dram_count()
            && (slot as usize) < self.dram_layout.drams.len()
        {
            Ok(())
        } else {
            Err(VerifyError::DramSlotOutOfRange { pc, slot })
        }
    }

    fn check_var(&self, pc: usize, slot: Slot) -> Result<(), VerifyError> {
        if (slot as usize) < self.syms.var_count() {
            Ok(())
        } else {
            Err(VerifyError::VarSlotOutOfRange { pc, slot })
        }
    }

    fn check_gather(&self, pc: usize, g: GatherRef) -> Result<(), VerifyError> {
        self.check_chip(pc, g.chip)?;
        self.check_dram(pc, g.dram)?;
        self.check_var(pc, g.var)
    }

    fn check_operand(&self, pc: usize, operand: Operand) -> Result<(), VerifyError> {
        match operand {
            Operand::Const(_) => Ok(()),
            Operand::Var(v) => self.check_var(pc, v),
            Operand::Gather {
                chip, dram, var, ..
            } => {
                self.check_chip(pc, chip)?;
                self.check_dram(pc, dram)?;
                self.check_var(pc, var)
            }
            Operand::Fused(i) => {
                let Some(fused) = self.fused.get(i as usize) else {
                    return Err(VerifyError::FusedOutOfRange { pc, index: i });
                };
                match *fused {
                    FusedOp::GatherOffset { mem, .. } => self.check_gather(pc, mem),
                    FusedOp::BinGather { a, mem, .. } => {
                        self.check_var(pc, a)?;
                        self.check_gather(pc, mem)
                    }
                    FusedOp::BinGatherInd {
                        lhs, inner, outer, ..
                    } => {
                        self.check_gather(pc, lhs)?;
                        self.check_gather(pc, inner)?;
                        self.check_gather(pc, outer)
                    }
                }
            }
            Operand::Expr(e) => self.check_expr(pc, e),
        }
    }

    /// Simulates the postfix expression program starting at `eref`:
    /// stack depths across both `Select` branches, forward-only jumps,
    /// exactly one result at `End`, every embedded slot in range.
    fn check_expr(&self, pc: usize, eref: u32) -> Result<(), VerifyError> {
        if (eref as usize) >= self.eops.len() {
            return Err(VerifyError::ExprOutOfRange { pc, index: eref });
        }
        // Worklist DFS over (eop index, stack depth). Jumps are
        // forward-only (checked), so the walk terminates; the visited
        // set keeps branchy expressions linear.
        let mut work = vec![(eref as usize, 0usize)];
        let mut visited = BTreeSet::new();
        while let Some((mut at, mut depth)) = work.pop() {
            loop {
                if !visited.insert((at, depth)) {
                    break;
                }
                let Some(eop) = self.eops.get(at) else {
                    return Err(VerifyError::ExprNoEnd { eref });
                };
                match *eop {
                    EOp::Const(_) => depth += 1,
                    EOp::Var(v) => {
                        self.check_var(at, v)?;
                        depth += 1;
                    }
                    EOp::RegRead(r) | EOp::Deq(r) => {
                        self.check_chip(at, r)?;
                        depth += 1;
                    }
                    EOp::ReadMem { chip, dram, .. } => {
                        self.check_chip(at, chip)?;
                        self.check_dram(at, dram)?;
                        if depth == 0 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                        // pops the index, pushes the value
                    }
                    EOp::Neg => {
                        if depth == 0 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                    }
                    EOp::Binary(_) => {
                        if depth < 2 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                        depth -= 1;
                    }
                    EOp::VarReadMem {
                        chip, dram, var, ..
                    } => {
                        self.check_chip(at, chip)?;
                        self.check_dram(at, dram)?;
                        self.check_var(at, var)?;
                        depth += 1;
                    }
                    EOp::VarBinGather {
                        a,
                        chip,
                        dram,
                        ivar,
                        ..
                    } => {
                        self.check_var(at, a)?;
                        self.check_chip(at, chip)?;
                        self.check_dram(at, dram)?;
                        self.check_var(at, ivar)?;
                        depth += 1;
                    }
                    EOp::VarConstBin { var, .. } => {
                        self.check_var(at, var)?;
                        depth += 1;
                    }
                    EOp::BranchFalse { target } => {
                        if depth == 0 {
                            return Err(VerifyError::ExprUnderflow { eref, at });
                        }
                        depth -= 1;
                        if (target as usize) <= at || (target as usize) >= self.eops.len() {
                            return Err(VerifyError::ExprBadJump { eref, at, target });
                        }
                        work.push((target as usize, depth));
                    }
                    EOp::Jump { target } => {
                        if (target as usize) <= at || (target as usize) >= self.eops.len() {
                            return Err(VerifyError::ExprBadJump { eref, at, target });
                        }
                        at = target as usize;
                        continue;
                    }
                    EOp::End => {
                        if depth != 1 {
                            return Err(VerifyError::ExprBadResult { eref, depth });
                        }
                        break;
                    }
                }
                at += 1;
            }
        }
        Ok(())
    }

    /// Per-op local checks: slot extents, operand validity, alloc
    /// sizes, superinstruction body spans.
    fn check_op(&self, pc: usize, op: &Op) -> Result<(), VerifyError> {
        let len = self.ops.len();
        let span_ok = |body: u32, body_len: u32| {
            body as usize == pc + 1 && (body as usize) + (body_len as usize) < len
        };
        match *op {
            Op::Alloc { slot, kind, size } => {
                self.check_chip(pc, slot)?;
                let region = &self.layout.chips[slot as usize];
                let (need, cap) = match kind {
                    MemKind::Sram | MemKind::SparseSram => (size, region.word_cap),
                    MemKind::Fifo => (size.max(1), region.word_cap),
                    MemKind::Reg => (1, region.word_cap),
                    MemKind::BitVector => (bit_words_for(size), region.bit_words),
                    // Rejected at runtime; no on-chip extent to check.
                    MemKind::Dram | MemKind::SparseDram => (0, 0),
                };
                if need > cap {
                    return Err(VerifyError::AllocExceedsLayout {
                        pc,
                        slot,
                        size,
                        cap,
                    });
                }
                Ok(())
            }
            Op::Bind { var, value } => {
                self.check_var(pc, var)?;
                self.check_operand(pc, value)
            }
            Op::Load {
                dst,
                src,
                start,
                end,
            } => {
                self.check_chip(pc, dst)?;
                self.check_dram(pc, src)?;
                self.check_operand(pc, start)?;
                self.check_operand(pc, end)
            }
            Op::Store {
                dst,
                offset,
                src,
                len,
            } => {
                self.check_dram(pc, dst)?;
                self.check_chip(pc, src)?;
                self.check_operand(pc, offset)?;
                self.check_operand(pc, len)
            }
            Op::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                self.check_dram(pc, dst)?;
                self.check_chip(pc, fifo)?;
                self.check_operand(pc, offset)?;
                self.check_operand(pc, len)
            }
            Op::StoreScalar { dst, index, value } => {
                self.check_dram(pc, dst)?;
                self.check_operand(pc, index)?;
                self.check_operand(pc, value)
            }
            Op::WriteMem {
                mem, index, value, ..
            } => {
                self.check_chip(pc, mem)?;
                self.check_operand(pc, index)?;
                self.check_operand(pc, value)
            }
            Op::RmwAdd { mem, index, value } => {
                self.check_chip(pc, mem)?;
                self.check_operand(pc, index)?;
                self.check_operand(pc, value)
            }
            Op::SetReg { reg, value } => {
                self.check_chip(pc, reg)?;
                self.check_operand(pc, value)
            }
            Op::Enq { fifo, value } => {
                self.check_chip(pc, fifo)?;
                self.check_operand(pc, value)
            }
            Op::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                self.check_chip(pc, dst)?;
                self.check_chip(pc, src)?;
                self.check_operand(pc, src_start)?;
                self.check_operand(pc, count)?;
                self.check_operand(pc, dim)
            }
            Op::RangeSimple {
                var,
                min,
                max,
                body,
                body_len,
                reduce,
                ..
            } => {
                self.check_var(pc, var)?;
                self.check_operand(pc, min)?;
                self.check_operand(pc, max)?;
                if !span_ok(body, body_len) {
                    return Err(VerifyError::BodyOutOfRange { pc });
                }
                if let Some((reg, expr)) = reduce {
                    self.check_chip(pc, reg)?;
                    self.check_operand(pc, expr)?;
                }
                Ok(())
            }
            Op::Scan1Simple {
                bv,
                pos_var,
                idx_var,
                body,
                body_len,
                reduce,
                ..
            } => {
                self.check_chip(pc, bv)?;
                self.check_var(pc, pos_var)?;
                self.check_var(pc, idx_var)?;
                if !span_ok(body, body_len) {
                    return Err(VerifyError::BodyOutOfRange { pc });
                }
                if let Some((reg, expr)) = reduce {
                    self.check_chip(pc, reg)?;
                    self.check_operand(pc, expr)?;
                }
                Ok(())
            }
            Op::Scan2Simple {
                bv_a,
                bv_b,
                vars,
                body,
                body_len,
                reduce,
                ..
            } => {
                self.check_chip(pc, bv_a)?;
                self.check_chip(pc, bv_b)?;
                for v in vars {
                    self.check_var(pc, v)?;
                }
                if !span_ok(body, body_len) {
                    return Err(VerifyError::BodyOutOfRange { pc });
                }
                if let Some((reg, expr)) = reduce {
                    self.check_chip(pc, reg)?;
                    self.check_operand(pc, expr)?;
                }
                Ok(())
            }
            Op::EnterRange {
                var,
                min,
                max,
                reduce,
                ..
            } => {
                self.check_var(pc, var)?;
                self.check_operand(pc, min)?;
                self.check_operand(pc, max)?;
                if let Some(reg) = reduce {
                    self.check_chip(pc, reg)?;
                }
                Ok(())
            }
            Op::EnterScan1 {
                bv,
                pos_var,
                idx_var,
                reduce,
                ..
            } => {
                self.check_chip(pc, bv)?;
                self.check_var(pc, pos_var)?;
                self.check_var(pc, idx_var)?;
                if let Some(reg) = reduce {
                    self.check_chip(pc, reg)?;
                }
                Ok(())
            }
            Op::EnterScan2 {
                bv_a,
                bv_b,
                vars,
                reduce,
                ..
            } => {
                self.check_chip(pc, bv_a)?;
                self.check_chip(pc, bv_b)?;
                for v in vars {
                    self.check_var(pc, v)?;
                }
                if let Some(reg) = reduce {
                    self.check_chip(pc, reg)?;
                }
                Ok(())
            }
            Op::ReduceTail { expr } => self.check_operand(pc, expr),
            Op::Next { .. } | Op::Halt => Ok(()),
        }
    }
}

/// Verifies the structural validity of a compiled program. `Ok(())`
/// means: every jump lands inside the program, every frame op pairs
/// with its enter, every slot index is within the layouts the program
/// was linked against, and every expression program is
/// stack-disciplined — i.e. the dispatch loop cannot step out of
/// bounds no matter what data it runs over. The compiler asserts this
/// on every program in debug builds; CI asserts it over the kernel
/// suite and a mutation corpus.
pub fn verify(ctx: &VerifyCtx<'_>) -> Result<(), VerifyError> {
    let ops = ctx.ops;
    if ops.last() != Some(&Op::Halt) {
        return Err(VerifyError::MissingHalt);
    }
    // Pass 1: per-op local checks, stray-Halt placement, and
    // superinstruction body hygiene (no frame ops in straight-line
    // position — the simple-body executor treats them as unreachable).
    for (pc, op) in ops.iter().enumerate() {
        ctx.check_op(pc, op)?;
        if matches!(op, Op::Halt) && pc != ops.len() - 1 {
            return Err(VerifyError::StrayHalt { pc });
        }
        if let Op::RangeSimple { body, body_len, .. }
        | Op::Scan1Simple { body, body_len, .. }
        | Op::Scan2Simple { body, body_len, .. } = *op
        {
            let span = body as usize..body as usize + body_len as usize;
            for bpc in span {
                if matches!(
                    ops[bpc],
                    Op::EnterRange { .. }
                        | Op::EnterScan1 { .. }
                        | Op::EnterScan2 { .. }
                        | Op::ReduceTail { .. }
                        | Op::Next { .. }
                        | Op::Halt
                ) {
                    return Err(VerifyError::MisplacedOp { pc: bpc });
                }
            }
        }
    }
    // Pass 2: frame balance. A linear scan with an explicit enter
    // stack mirrors the executor's frame stack: each Next must advance
    // the innermost open frame and sit exactly at its enter's
    // `exit - 1`; each ReduceTail must sit between a reducing frame's
    // body and its Next.
    let mut frames: Vec<usize> = Vec::new();
    for (pc, op) in ops.iter().enumerate() {
        match *op {
            Op::EnterRange { exit, .. }
            | Op::EnterScan1 { exit, .. }
            | Op::EnterScan2 { exit, .. } => {
                if (exit as usize) <= pc + 1 || (exit as usize) >= ops.len() {
                    return Err(VerifyError::BadFrame { pc });
                }
                frames.push(pc);
            }
            Op::Next { body } => {
                let Some(enter) = frames.pop() else {
                    return Err(VerifyError::BadFrame { pc });
                };
                if body as usize != enter + 1 {
                    return Err(VerifyError::BadFrame { pc });
                }
                let exit = match ops[enter] {
                    Op::EnterRange { exit, .. }
                    | Op::EnterScan1 { exit, .. }
                    | Op::EnterScan2 { exit, .. } => exit as usize,
                    _ => unreachable!("frame stack holds only enter pcs"),
                };
                if exit != pc + 1 {
                    return Err(VerifyError::BadFrame { pc });
                }
            }
            Op::ReduceTail { .. } => {
                let Some(&enter) = frames.last() else {
                    return Err(VerifyError::BadFrame { pc });
                };
                let reducing = match ops[enter] {
                    Op::EnterRange { reduce, .. }
                    | Op::EnterScan1 { reduce, .. }
                    | Op::EnterScan2 { reduce, .. } => reduce.is_some(),
                    _ => unreachable!("frame stack holds only enter pcs"),
                };
                if !reducing || !matches!(ops.get(pc + 1), Some(Op::Next { .. })) {
                    return Err(VerifyError::BadFrame { pc });
                }
            }
            _ => {}
        }
    }
    if let Some(&enter) = frames.last() {
        return Err(VerifyError::BadFrame { pc: enter });
    }
    Ok(())
}

/// The effect summary of an op region: which slots it reads, writes,
/// defines. Sets are over resolved slots (dense `u32`), so member
/// tests and intersections are cheap and the summary composes by
/// union. Everything is an over-approximation — a `ReadMem` whose name
/// resolves to both a chip and a DRAM slot charges both, a FIFO
/// dequeue counts as a write (it mutates the ring) — which keeps
/// clients sound when they reason "the region cannot touch X".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// DRAM slots the region may read.
    pub dram_reads: BTreeSet<Slot>,
    /// DRAM slots the region may write.
    pub dram_writes: BTreeSet<Slot>,
    /// Chip slots the region may read.
    pub chip_reads: BTreeSet<Slot>,
    /// Chip slots the region may write (including allocation zero-fill
    /// and FIFO-consuming reads).
    pub chip_writes: BTreeSet<Slot>,
    /// Chip slots the region allocates.
    pub chip_allocs: BTreeSet<Slot>,
    /// Variable slots the region binds (loop variables and `Bind`s).
    pub var_defs: BTreeSet<Slot>,
    /// Variable slots the region reads.
    pub var_uses: BTreeSet<Slot>,
}

impl Effects {
    fn operand(&mut self, eops: &[EOp], fused: &[FusedOp], operand: Operand) {
        match operand {
            Operand::Const(_) => {}
            Operand::Var(v) => {
                self.var_uses.insert(v);
            }
            Operand::Gather {
                chip, dram, var, ..
            } => {
                self.chip_reads.insert(chip);
                self.dram_reads.insert(dram);
                self.var_uses.insert(var);
            }
            Operand::Fused(i) => match fused[i as usize] {
                FusedOp::GatherOffset { mem, .. } => self.gather(mem),
                FusedOp::BinGather { a, mem, .. } => {
                    self.var_uses.insert(a);
                    self.gather(mem);
                }
                FusedOp::BinGatherInd {
                    lhs, inner, outer, ..
                } => {
                    self.gather(lhs);
                    self.gather(inner);
                    self.gather(outer);
                }
            },
            Operand::Expr(e) => self.expr(eops, e),
        }
    }

    fn gather(&mut self, g: GatherRef) {
        self.chip_reads.insert(g.chip);
        self.dram_reads.insert(g.dram);
        self.var_uses.insert(g.var);
    }

    /// Attributes every eop of the expression program starting at `e`.
    /// Expression control flow is forward-only with a single
    /// terminating [`EOp::End`], so a linear scan covers both `Select`
    /// branches (an over-approximation of any one dynamic path).
    fn expr(&mut self, eops: &[EOp], e: u32) {
        for eop in &eops[e as usize..] {
            match *eop {
                EOp::Const(_) | EOp::Neg | EOp::Binary(_) => {}
                EOp::Var(v) => {
                    self.var_uses.insert(v);
                }
                EOp::RegRead(r) => {
                    self.chip_reads.insert(r);
                }
                EOp::Deq(fifo) => {
                    // A dequeue consumes: the ring mutates.
                    self.chip_reads.insert(fifo);
                    self.chip_writes.insert(fifo);
                }
                EOp::ReadMem { chip, dram, .. } => {
                    self.chip_reads.insert(chip);
                    self.dram_reads.insert(dram);
                }
                EOp::VarReadMem {
                    chip, dram, var, ..
                } => {
                    self.chip_reads.insert(chip);
                    self.dram_reads.insert(dram);
                    self.var_uses.insert(var);
                }
                EOp::VarBinGather {
                    a,
                    chip,
                    dram,
                    ivar,
                    ..
                } => {
                    self.var_uses.insert(a);
                    self.var_uses.insert(ivar);
                    self.chip_reads.insert(chip);
                    self.dram_reads.insert(dram);
                }
                EOp::VarConstBin { var, .. } => {
                    self.var_uses.insert(var);
                }
                EOp::BranchFalse { .. } | EOp::Jump { .. } => {}
                EOp::End => break,
            }
        }
    }

    /// Folds one op's effects into the summary.
    fn op(&mut self, eops: &[EOp], fused: &[FusedOp], op: &Op) {
        match *op {
            Op::Alloc { slot, .. } => {
                self.chip_allocs.insert(slot);
                // Allocation zero-fills the region: a write.
                self.chip_writes.insert(slot);
            }
            Op::Bind { var, value } => {
                self.operand(eops, fused, value);
                self.var_defs.insert(var);
            }
            Op::Load {
                dst,
                src,
                start,
                end,
            } => {
                self.operand(eops, fused, start);
                self.operand(eops, fused, end);
                self.dram_reads.insert(src);
                self.chip_writes.insert(dst);
            }
            Op::Store {
                dst,
                offset,
                src,
                len,
            } => {
                self.operand(eops, fused, offset);
                self.operand(eops, fused, len);
                self.chip_reads.insert(src);
                self.dram_writes.insert(dst);
            }
            Op::StreamStore {
                dst,
                offset,
                fifo,
                len,
            } => {
                self.operand(eops, fused, offset);
                self.operand(eops, fused, len);
                // Draining consumes the FIFO: read and write.
                self.chip_reads.insert(fifo);
                self.chip_writes.insert(fifo);
                self.dram_writes.insert(dst);
            }
            Op::StoreScalar { dst, index, value } => {
                self.operand(eops, fused, index);
                self.operand(eops, fused, value);
                self.dram_writes.insert(dst);
            }
            Op::WriteMem {
                mem, index, value, ..
            } => {
                self.operand(eops, fused, index);
                self.operand(eops, fused, value);
                self.chip_writes.insert(mem);
            }
            Op::RmwAdd { mem, index, value } => {
                self.operand(eops, fused, index);
                self.operand(eops, fused, value);
                self.chip_reads.insert(mem);
                self.chip_writes.insert(mem);
            }
            Op::SetReg { reg, value } => {
                self.operand(eops, fused, value);
                self.chip_writes.insert(reg);
            }
            Op::Enq { fifo, value } => {
                self.operand(eops, fused, value);
                self.chip_writes.insert(fifo);
            }
            Op::GenBitVector {
                dst,
                src,
                src_start,
                count,
                dim,
            } => {
                self.operand(eops, fused, src_start);
                self.operand(eops, fused, count);
                self.operand(eops, fused, dim);
                // The coordinate source may be a FIFO (consumed) — be
                // conservative and charge a write too.
                self.chip_reads.insert(src);
                self.chip_writes.insert(src);
                self.chip_writes.insert(dst);
            }
            Op::RangeSimple {
                var,
                min,
                max,
                reduce,
                ..
            } => {
                self.operand(eops, fused, min);
                self.operand(eops, fused, max);
                self.var_defs.insert(var);
                if let Some((reg, expr)) = reduce {
                    self.operand(eops, fused, expr);
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::Scan1Simple {
                bv,
                pos_var,
                idx_var,
                reduce,
                ..
            } => {
                self.chip_reads.insert(bv);
                self.var_defs.insert(pos_var);
                self.var_defs.insert(idx_var);
                if let Some((reg, expr)) = reduce {
                    self.operand(eops, fused, expr);
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::Scan2Simple {
                bv_a,
                bv_b,
                vars,
                reduce,
                ..
            } => {
                self.chip_reads.insert(bv_a);
                self.chip_reads.insert(bv_b);
                for v in vars {
                    self.var_defs.insert(v);
                }
                if let Some((reg, expr)) = reduce {
                    self.operand(eops, fused, expr);
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::EnterRange {
                var,
                min,
                max,
                reduce,
                ..
            } => {
                self.operand(eops, fused, min);
                self.operand(eops, fused, max);
                self.var_defs.insert(var);
                if let Some(reg) = reduce {
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::EnterScan1 {
                bv,
                pos_var,
                idx_var,
                reduce,
                ..
            } => {
                self.chip_reads.insert(bv);
                self.var_defs.insert(pos_var);
                self.var_defs.insert(idx_var);
                if let Some(reg) = reduce {
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::EnterScan2 {
                bv_a,
                bv_b,
                vars,
                reduce,
                ..
            } => {
                self.chip_reads.insert(bv_a);
                self.chip_reads.insert(bv_b);
                for v in vars {
                    self.var_defs.insert(v);
                }
                if let Some(reg) = reduce {
                    self.chip_reads.insert(reg);
                    self.chip_writes.insert(reg);
                }
            }
            Op::ReduceTail { expr } => {
                self.operand(eops, fused, expr);
            }
            Op::Next { .. } | Op::Halt => {}
        }
    }
}

/// Computes the effect summary of the ops in `span` (including any
/// operand expressions they reference). Spans are half-open pc ranges;
/// the statement spans recorded by the compiler
/// ([`crate::CompiledProgram::stmt_spans`]) are the intended inputs.
pub fn effects_of_span(ops: &[Op], eops: &[EOp], fused: &[FusedOp], span: Range<usize>) -> Effects {
    let mut eff = Effects::default();
    for op in &ops[span] {
        eff.op(eops, fused, op);
    }
    eff
}
