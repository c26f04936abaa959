//! Differential tests for the bytecode superinstructions.
//!
//! The scatter loop (`RangeSimple` over a lone `WriteMem`/`RmwAdd`),
//! the empty-body gather reduction, multi-statement straight-line
//! bodies, and the `Scan1Simple`/`Scan2Simple` word skip must all be
//! *observably invisible*: for every program they run, the bytecode
//! engine must produce bitwise-identical DRAM, identical `ExecStats`,
//! and identical errors to the string-keyed reference engine. These
//! tests sweep loop lengths and misaligned starts around multiples of
//! [`W`], faulting indices in the middle of a loop, and step budgets
//! that exhaust on every iteration, where the abort point must land on
//! the identical iteration with the identical partial DRAM. Raise
//! `PROPTEST_CASES` for deeper sweeps (CI does).

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::bytecode::Op;
use stardust_spatial::ir::MemDecl;
use stardust_spatial::{
    CompiledProgram, Counter, Machine, MemKind, ReferenceMachine, RunBudget, SExpr, ScanOp,
    SpatialProgram, SpatialStmt,
};

/// Sweep period: loop lengths and starts are chosen around multiples
/// of it (0, 1, W-1, W, W+1, 2W-1, ...), so empty, single-trip, and
/// off-by-one remainders are all covered.
const W: usize = 8;

/// Runs `p` on the bytecode engine and the reference engine and
/// asserts identical results (or errors), bitwise-identical DRAM, and
/// identical statistics. An optional step budget applies to both.
fn assert_engines_agree(p: &SpatialProgram, writes: &[(&str, Vec<f64>)], fuel: Option<u64>) {
    let mut bytecode = Machine::new(p);
    let mut reference = ReferenceMachine::new(p);
    for (name, data) in writes {
        bytecode.write_dram(name, data).unwrap();
        reference.write_dram(name, data).unwrap();
    }
    if let Some(f) = fuel {
        bytecode.set_budget(RunBudget::unlimited().with_max_steps(f));
        reference.set_budget(RunBudget::unlimited().with_max_steps(f));
    }
    let rb = bytecode.run(p);
    let rr = reference.run(p);
    assert_eq!(rb, rr, "bytecode vs reference results diverge");
    for d in &p.drams {
        let bits =
            |m: Option<&[f64]>| -> Vec<u64> { m.unwrap().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(bytecode.dram(&d.name)),
            bits(reference.dram(&d.name)),
            "DRAM {} bytecode vs reference diverges",
            d.name
        );
    }
    assert_eq!(
        bytecode.stats(),
        reference.stats(),
        "bytecode vs reference stats diverge"
    );
}

/// Deterministic data generator (no RNG dependency on the hot loop).
fn series(seed: u64, len: usize, modulus: u64, offset: f64) -> Vec<f64> {
    let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as f64 % modulus as f64 + offset
        })
        .collect()
}

fn alloc(p: &mut SpatialProgram, name: &str, kind: MemKind, size: usize) {
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(name, kind, size)));
}

fn load_all(p: &mut SpatialProgram, dst: &str, src: &str, len: usize) {
    p.accel.push(SpatialStmt::Load {
        dst: dst.into(),
        src: src.into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(len as f64),
        par: 1,
    });
}

const XS: usize = 32;
const ACC: usize = 24;

/// The CSR SpMV inner loop over `j in [lo, lo+n)`:
/// `r += vals_s[j] * x_s[crd_s[j]]` with an empty body — a reducing
/// `RangeSimple`.
fn reduce_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("reduce");
    p.add_dram("vals", len);
    p.add_dram("crd", len);
    p.add_dram("x", XS);
    p.add_dram("out", 1);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "crd_s", MemKind::Sram, len);
    alloc(&mut p, "x_s", MemKind::SparseSram, XS);
    alloc(&mut p, "r", MemKind::Reg, 1);
    load_all(&mut p, "vals_s", "vals", len);
    load_all(&mut p, "crd_s", "crd", len);
    load_all(&mut p, "x_s", "x", XS);
    p.accel.push(SpatialStmt::Reduce {
        id: 0,
        reg: "r".into(),
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![],
        expr: SExpr::mul(
            SExpr::read("vals_s", SExpr::var("j")),
            SExpr::read_random("x_s", SExpr::read("crd_s", SExpr::var("j"))),
        ),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out".into(),
        index: SExpr::Const(0.0),
        value: SExpr::RegRead("r".into()),
    });
    p.assign_ids();
    p
}

/// The SpMSpM accumulation loop over `j in [lo, lo+n)`:
/// `acc_s[crd_s[j]] += vb * vals_s[j]` — the scatter loop with a
/// gathered index.
fn scatter_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("scatter");
    p.add_dram("vals", len);
    p.add_dram("crd", len);
    p.add_dram("out", ACC);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "crd_s", MemKind::Sram, len);
    alloc(&mut p, "acc_s", MemKind::SparseSram, ACC);
    load_all(&mut p, "vals_s", "vals", len);
    load_all(&mut p, "crd_s", "crd", len);
    p.accel.push(SpatialStmt::Bind {
        var: "vb".into(),
        value: SExpr::Const(1.5),
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::RmwAdd {
            mem: "acc_s".into(),
            index: SExpr::read("crd_s", SExpr::var("j")),
            value: SExpr::mul(SExpr::var("vb"), SExpr::read("vals_s", SExpr::var("j"))),
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "acc_s".into(),
        len: SExpr::Const(ACC as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// A dense fill over `j in [lo, lo+n)`: `s[j] = vals_s[j]` — the
/// scatter loop indexed by the loop variable itself.
fn dense_fill_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("fill");
    p.add_dram("vals", len);
    p.add_dram("out", len);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "s", MemKind::Sram, len);
    load_all(&mut p, "vals_s", "vals", len);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::var("j"),
            value: SExpr::read("vals_s", SExpr::var("j")),
            random: false,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// Valid scatter inputs for trip count `n` starting at `lo`.
fn scatter_inputs(n: usize, lo: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let len = (lo + n).max(1);
    vec![
        ("vals", series(seed, len, 16, 0.25)),
        ("crd", series(seed ^ 0xABCD, len, ACC as u64, 0.0)),
    ]
}

fn reduce_inputs(n: usize, lo: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let len = (lo + n).max(1);
    vec![
        ("vals", series(seed, len, 16, 0.5)),
        ("crd", series(seed ^ 0x1234, len, XS as u64, 0.0)),
        ("x", series(seed ^ 0x77, XS, 32, -8.0)),
    ]
}

/// Remainder sweep: every length around multiples of [`W`], crossed
/// with aligned and misaligned loop starts, on the reduce, scatter, and
/// fill shapes.
#[test]
fn remainder_lengths_and_offsets_are_bit_identical() {
    let lengths = [
        0,
        1,
        W - 1,
        W,
        W + 1,
        2 * W - 1,
        2 * W,
        2 * W + 1,
        5 * W + 3,
    ];
    for &n in &lengths {
        for lo in [0usize, 1, 3, W - 1] {
            let seed = (n * 31 + lo) as u64;
            assert_engines_agree(&reduce_program(n, lo), &reduce_inputs(n, lo, seed), None);
            assert_engines_agree(&scatter_program(n, lo), &scatter_inputs(n, lo, seed), None);
            let len = (lo + n).max(1);
            assert_engines_agree(
                &dense_fill_program(n, lo),
                &[("vals", series(seed, len, 64, 0.125))],
                None,
            );
        }
    }
}

/// A faulting index in the middle of a loop: the error position, the
/// partial DRAM before it, and the statistics must match the reference
/// exactly.
#[test]
fn faulting_index_mid_loop_matches_reference() {
    let n = 3 * W;
    // Out-of-bounds destination index mid-loop.
    let mut inputs = scatter_inputs(n, 0, 7);
    inputs[1].1[W + 3] = ACC as f64 + 5.0;
    assert_engines_agree(&scatter_program(n, 0), &inputs, None);
    // Negative index early in the loop.
    let mut inputs = scatter_inputs(n, 0, 8);
    inputs[1].1[3] = -2.0;
    assert_engines_agree(&scatter_program(n, 0), &inputs, None);
    // Out-of-bounds outer gather in the SpMV dot product.
    let mut inputs = reduce_inputs(n, 0, 9);
    inputs[1].1[2 * W + 1] = XS as f64;
    assert_engines_agree(&reduce_program(n, 0), &inputs, None);
    // Negative inner index in the SpMV dot product.
    let mut inputs = reduce_inputs(n, 0, 10);
    inputs[1].1[1] = -1.0;
    assert_engines_agree(&reduce_program(n, 0), &inputs, None);
}

/// Sweep step budgets so exhaustion lands on every iteration of the
/// superinstruction loops (whose fuel lives in a register). The abort
/// must come at the identical step with byte-identical partial DRAM on
/// both engines.
#[test]
fn budget_aborts_on_every_iteration_are_identical() {
    let n = 5 * W;
    let reduce = reduce_program(n, 0);
    let reduce_in = reduce_inputs(n, 0, 21);
    let scatter = scatter_program(n, 0);
    let scatter_in = scatter_inputs(n, 0, 22);
    let fill = dense_fill_program(n, 0);
    let fill_in = [("vals", series(23, n, 64, 0.125))];
    for fuel in 1..=(n as u64 + 24) {
        assert_engines_agree(&reduce, &reduce_in, Some(fuel));
        assert_engines_agree(&scatter, &scatter_in, Some(fuel));
        assert_engines_agree(&fill, &fill_in, Some(fuel));
    }
}

/// Builds a bit vector `name` over `dim` bits with the given set
/// coordinates (sorted, deduped by the caller).
fn bitvector(p: &mut SpatialProgram, name: &str, coords: &[usize], dim: usize) {
    let fifo = format!("{name}_crd");
    alloc(p, name, MemKind::BitVector, dim);
    alloc(p, &fifo, MemKind::Fifo, coords.len().max(1));
    for &c in coords {
        p.accel.push(SpatialStmt::Enq {
            fifo: fifo.clone(),
            value: SExpr::Const(c as f64),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: name.into(),
        src: fifo,
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(coords.len() as f64),
        dim: SExpr::Const(dim as f64),
    });
}

/// A two-vector union scan writing `idx + pa - pb` per emit: exercises
/// the whole-word skip paths (empty words, word-boundary bits, tails).
fn scan_union_program(coords_a: &[usize], coords_b: &[usize], dim: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("scan");
    p.add_dram("out", dim);
    bitvector(&mut p, "bva", coords_a, dim);
    bitvector(&mut p, "bvb", coords_b, dim);
    alloc(&mut p, "acc_s", MemKind::SparseSram, dim);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op: ScanOp::Or,
            bv_a: "bva".into(),
            bv_b: "bvb".into(),
            a_pos_var: "pa".into(),
            b_pos_var: "pb".into(),
            out_pos_var: "po".into(),
            idx_var: "ix".into(),
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "acc_s".into(),
            index: SExpr::var("po"),
            value: SExpr::add(
                SExpr::var("ix"),
                SExpr::sub(SExpr::var("pa"), SExpr::var("pb")),
            ),
            random: true,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "acc_s".into(),
        len: SExpr::Const(dim as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// A one-vector scan writing the dense coordinate per emit.
fn scan1_program(coords: &[usize], dim: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("scan1");
    p.add_dram("out", dim.max(1));
    bitvector(&mut p, "bv", coords, dim);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan1 {
            bv: "bv".into(),
            pos_var: "p".into(),
            idx_var: "x".into(),
        },
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out".into(),
            index: SExpr::var("p"),
            value: SExpr::var("x"),
        }],
    });
    p.assign_ids();
    p
}

/// The scan word-skip paths: empty vectors, single bits at word
/// boundaries, dense words, and ragged tails must all emit exactly as
/// the reference's bit-by-bit probe does.
#[test]
fn scan_word_skip_is_bit_identical() {
    let dim = 200;
    let cases: Vec<(Vec<usize>, Vec<usize>)> = vec![
        (vec![], vec![]),
        (vec![0], vec![199]),
        (vec![63, 64, 65], vec![64]),
        (vec![5, 70, 130, 199], vec![0, 1, 2, 3, 66, 131]),
        ((0..dim).step_by(2).collect(), (0..dim).step_by(3).collect()),
        ((64..128).collect(), vec![]),
    ];
    for (a, b) in &cases {
        assert_engines_agree(&scan_union_program(a, b, dim), &[], None);
        assert_engines_agree(&scan1_program(a, dim), &[], None);
    }
    // Budgeted scans: exhaustion must land on the identical emit.
    let (a, b): (Vec<usize>, Vec<usize>) =
        ((0..dim).step_by(5).collect(), (2..dim).step_by(7).collect());
    for fuel in 1..40 {
        assert_engines_agree(&scan_union_program(&a, &b, dim), &[], Some(fuel));
    }
}

/// Random (length, offset, data, fuel) sweeps over the reduce,
/// scatter, and fill shapes, with occasional faulting indices mixed in.
fn random_case(seed: u64) {
    let mut rng = TestRng::for_test(&format!("superinstruction-{seed}"));
    let n = rng.below(8 * W as u64) as usize;
    let lo = rng.below(2 * W as u64) as usize;
    let fuel = match rng.below(3) {
        0 => None,
        _ => Some(1 + rng.below((n as u64 + 8) * 2)),
    };
    let shape = rng.below(3);
    match shape {
        0 => {
            let mut inputs = reduce_inputs(n, lo, seed);
            if n > 0 && rng.below(4) == 0 {
                // A faulting inner index somewhere in the run.
                let at = lo + rng.below(n as u64) as usize;
                inputs[1].1[at] = if rng.below(2) == 0 {
                    -3.0
                } else {
                    XS as f64 + 1.0
                };
            }
            assert_engines_agree(&reduce_program(n, lo), &inputs, fuel);
        }
        1 => {
            let mut inputs = scatter_inputs(n, lo, seed);
            if n > 0 && rng.below(4) == 0 {
                let at = lo + rng.below(n as u64) as usize;
                inputs[1].1[at] = if rng.below(2) == 0 { -1.0 } else { ACC as f64 };
            }
            assert_engines_agree(&scatter_program(n, lo), &inputs, fuel);
        }
        _ => {
            let len = (lo + n).max(1);
            assert_engines_agree(
                &dense_fill_program(n, lo),
                &[("vals", series(seed, len, 64, 0.125))],
                fuel,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Randomized remainder/offset/fault/fuel sweep: the
    /// superinstructions are observably invisible on random cases too.
    #[test]
    fn random_superinstruction_cases_are_bit_identical(seed in 0u64..1_000_000) {
        random_case(seed);
    }
}

/// A fused fill/update loop — *three* statements per iteration:
/// `s1[j] = vals_s[j]`, `acc_s[crd_s[j]] += vb * vals_s[j]`, and the
/// computed fill `s2[j] = j * 2.0` — a multi-statement `RangeSimple`
/// body.
fn multi_body_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("multi");
    p.add_dram("vals", len);
    p.add_dram("crd", len);
    p.add_dram("out1", len);
    p.add_dram("out2", ACC);
    p.add_dram("out3", len);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "crd_s", MemKind::Sram, len);
    alloc(&mut p, "s1", MemKind::Sram, len);
    alloc(&mut p, "acc_s", MemKind::SparseSram, ACC);
    alloc(&mut p, "s2", MemKind::Sram, len);
    load_all(&mut p, "vals_s", "vals", len);
    load_all(&mut p, "crd_s", "crd", len);
    p.accel.push(SpatialStmt::Bind {
        var: "vb".into(),
        value: SExpr::Const(1.5),
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![
            SpatialStmt::WriteMem {
                mem: "s1".into(),
                index: SExpr::var("j"),
                value: SExpr::read("vals_s", SExpr::var("j")),
                random: false,
            },
            SpatialStmt::RmwAdd {
                mem: "acc_s".into(),
                index: SExpr::read("crd_s", SExpr::var("j")),
                value: SExpr::mul(SExpr::var("vb"), SExpr::read("vals_s", SExpr::var("j"))),
            },
            SpatialStmt::WriteMem {
                mem: "s2".into(),
                index: SExpr::var("j"),
                value: SExpr::mul(SExpr::var("j"), SExpr::Const(2.0)),
                random: false,
            },
        ],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out1".into(),
        offset: SExpr::Const(0.0),
        src: "s1".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out2".into(),
        offset: SExpr::Const(0.0),
        src: "acc_s".into(),
        len: SExpr::Const(ACC as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out3".into(),
        offset: SExpr::Const(0.0),
        src: "s2".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// The offset dense fill `s[j + off] = vals_s[j]`: the scatter loop
/// with a `[VarConstBin, End]` index expression.
fn offset_fill_program(n: usize, lo: usize, off: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let slen = len + off;
    let mut p = SpatialProgram::new("offset_fill");
    p.add_dram("vals", len);
    p.add_dram("out", slen);
    alloc(&mut p, "vals_s", MemKind::Sram, len);
    alloc(&mut p, "s", MemKind::Sram, slen);
    load_all(&mut p, "vals_s", "vals", len);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::add(SExpr::var("j"), SExpr::Const(off as f64)),
            value: SExpr::read("vals_s", SExpr::var("j")),
            random: false,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(slen as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

/// The computed dense fill `s[j] = j * 2.0`: the scatter loop with a
/// `[VarConstBin, End]` value expression.
fn computed_fill_program(n: usize, lo: usize) -> SpatialProgram {
    let len = (lo + n).max(1);
    let mut p = SpatialProgram::new("computed_fill");
    p.add_dram("out", len);
    alloc(&mut p, "s", MemKind::Sram, len);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Range {
            var: "j".into(),
            min: SExpr::Const(lo as f64),
            max: SExpr::Const((lo + n) as f64),
            step: 1,
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: "s".into(),
            index: SExpr::var("j"),
            value: SExpr::mul(SExpr::var("j"), SExpr::Const(2.0)),
            random: false,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out".into(),
        offset: SExpr::Const(0.0),
        src: "s".into(),
        len: SExpr::Const(len as f64),
        par: 1,
    });
    p.assign_ids();
    p
}

fn multi_inputs(n: usize, lo: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let len = (lo + n).max(1);
    vec![
        ("vals", series(seed, len, 16, 0.25)),
        ("crd", series(seed ^ 0xBEEF, len, ACC as u64, 0.0)),
    ]
}

/// Remainder sweep over multi-statement bodies, offset fills, and
/// computed fills: bit-identical on both engines at every length and
/// loop start around multiples of [`W`].
#[test]
fn multi_statement_and_fill_shapes_are_bit_identical() {
    let lengths = [0, 1, W - 1, W, W + 1, 2 * W + 1, 5 * W + 3];
    for &n in &lengths {
        for lo in [0usize, 1, W - 1] {
            let seed = (n * 37 + lo) as u64;
            let len = (lo + n).max(1);
            assert_engines_agree(&multi_body_program(n, lo), &multi_inputs(n, lo, seed), None);
            for off in [0usize, 1, 7] {
                assert_engines_agree(
                    &offset_fill_program(n, lo, off),
                    &[("vals", series(seed, len, 64, 0.125))],
                    None,
                );
            }
            assert_engines_agree(&computed_fill_program(n, lo), &[], None);
        }
    }
}

/// A faulting index in the middle of a multi-statement loop: the
/// bytecode engine must commit the exact statement prefix the
/// reference commits and abort at the identical statement.
#[test]
fn multi_statement_faults_match_reference() {
    let n = 3 * W;
    // Out-of-bounds accumulate index mid-loop: statement 1 of that
    // iteration faults *after* statement 0's write.
    let mut inputs = multi_inputs(n, 0, 41);
    inputs[1].1[W + 5] = ACC as f64 + 3.0;
    assert_engines_agree(&multi_body_program(n, 0), &inputs, None);
    // Negative index early in the loop.
    let mut inputs = multi_inputs(n, 0, 42);
    inputs[1].1[2] = -4.0;
    assert_engines_agree(&multi_body_program(n, 0), &inputs, None);
}

/// Fuel exhaustion landing on every iteration of the multi-statement
/// and fill shapes. Abort step and partial DRAM must be identical on
/// both engines.
#[test]
fn multi_statement_and_fill_budget_aborts_are_identical() {
    let n = 3 * W;
    let multi = multi_body_program(n, 0);
    let multi_in = multi_inputs(n, 0, 51);
    let offset = offset_fill_program(n, 0, 3);
    let offset_in = [("vals", series(52, n, 64, 0.125))];
    let computed = computed_fill_program(n, 0);
    for fuel in 1..=(n as u64 + 16) {
        assert_engines_agree(&multi, &multi_in, Some(fuel));
        assert_engines_agree(&offset, &offset_in, Some(fuel));
        assert_engines_agree(&computed, &[], Some(fuel));
    }
}

/// The shapes above must actually take the superinstruction paths, or
/// the sweeps would only test the generic dispatch loop.
#[test]
fn shapes_lower_to_superinstructions() {
    let has = |p: &SpatialProgram, what: &str, pred: &dyn Fn(&Op) -> bool| {
        let c = CompiledProgram::compile(p);
        assert!(c.ops().iter().any(pred), "{} lowers no {what}", p.name);
    };
    let scatter = |op: &Op| {
        matches!(
            op,
            Op::RangeSimple {
                body_len: 1,
                reduce: None,
                ..
            }
        )
    };
    has(&scatter_program(W, 0), "scatter loop", &scatter);
    has(&dense_fill_program(W, 0), "scatter loop", &scatter);
    has(&offset_fill_program(W, 0, 2), "scatter loop", &scatter);
    has(&computed_fill_program(W, 0), "scatter loop", &scatter);
    has(&reduce_program(W, 0), "reducing RangeSimple", &|op| {
        matches!(
            op,
            Op::RangeSimple {
                reduce: Some(_),
                ..
            }
        )
    });
    has(
        &multi_body_program(W, 0),
        "multi-statement RangeSimple",
        &|op| matches!(op, Op::RangeSimple { body_len: 3, .. }),
    );
    has(&scan1_program(&[1, 70], 128), "Scan1Simple", &|op| {
        matches!(op, Op::Scan1Simple { .. })
    });
    has(
        &scan_union_program(&[1], &[70], 128),
        "Scan2Simple",
        &|op| matches!(op, Op::Scan2Simple { .. }),
    );
}
