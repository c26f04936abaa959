//! Property tests for the resolution and bytecode passes: random
//! well-formed Spatial programs must resolve without panicking, survive
//! the printer unchanged, resolve idempotently, and execute identically
//! on both engines (flat bytecode and the string-keyed reference). Raise `PROPTEST_CASES` for deeper sweeps (CI does).

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use stardust_spatial::ir::MemDecl;
use stardust_spatial::printer::spatial_loc;
use stardust_spatial::{
    print_program, resolve, validate, Counter, Machine, MemKind, ReferenceMachine, SExpr, ScanOp,
    SpatialProgram, SpatialStmt, SymbolTable,
};

const SIZE: usize = 16;

/// A deterministic random *well-formed* program built from self-contained
/// feature blocks, each exercising a different statement/counter family.
/// Every block writes results to DRAM so engine divergence is observable.
fn random_program(seed: u64) -> SpatialProgram {
    let mut rng = TestRng::for_test(&format!("program-{seed}"));
    let mut p = SpatialProgram::new(format!("random_{seed}"));
    p.add_const("seed", seed as i64);
    p.add_dram("in0", SIZE);
    p.add_dram("in1", SIZE);
    p.add_sparse_dram("sp0", SIZE);
    p.add_dram("out0", SIZE);
    p.add_dram("out1", SIZE);

    let blocks = 3 + rng.below(5) as usize;
    for b in 0..blocks {
        let choice = rng.below(8);
        match choice {
            0 => load_store_block(&mut p, &mut rng, b),
            1 => scalar_loop_block(&mut p, &mut rng, b),
            2 => reduce_block(&mut p, &mut rng, b),
            3 => scan1_block(&mut p, &mut rng, b),
            4 => scan2_block(&mut p, &mut rng, b),
            5 => stream_store_block(&mut p, &mut rng, b),
            6 => rmw_block(&mut p, &mut rng, b),
            _ => nested_loop_block(&mut p, &mut rng, b),
        }
    }
    p.accel.push(SpatialStmt::Comment("generated".into()));
    p.assign_ids();
    p
}

fn small_const(rng: &mut TestRng) -> SExpr {
    SExpr::Const(rng.below(SIZE as u64) as f64)
}

/// A value expression over constants, an optional loop variable, and an
/// optional readable SRAM.
fn value_expr(rng: &mut TestRng, var: Option<&str>, sram: Option<&str>, depth: usize) -> SExpr {
    if depth == 0 {
        return match rng.below(3) {
            0 => SExpr::Const(rng.below(8) as f64),
            1 => var.map_or(SExpr::Const(1.0), SExpr::var),
            _ => SExpr::Const(rng.below(8) as f64 + 0.5),
        };
    }
    match rng.below(6) {
        0 => SExpr::add(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        1 => SExpr::mul(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        2 => SExpr::sub(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        3 => SExpr::Neg(Box::new(value_expr(rng, var, sram, depth - 1))),
        4 => SExpr::select(
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
            value_expr(rng, var, sram, depth - 1),
        ),
        _ => match sram {
            Some(s) => {
                let ix = match var {
                    Some(v) if rng.below(2) == 0 => SExpr::var(v),
                    _ => small_const(rng),
                };
                if rng.below(2) == 0 {
                    SExpr::read(s, ix)
                } else {
                    SExpr::read_random(s, ix)
                }
            }
            None => SExpr::Const(rng.below(8) as f64),
        },
    }
}

fn load_store_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let s = format!("ls_s{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&s, MemKind::Sram, SIZE)));
    let start = rng.below(SIZE as u64 / 2);
    let end = start + 1 + rng.below(SIZE as u64 / 2);
    p.accel.push(SpatialStmt::Load {
        dst: s.clone(),
        src: if rng.below(2) == 0 { "in0" } else { "in1" }.into(),
        start: SExpr::Const(start as f64),
        end: SExpr::Const(end as f64),
        par: 1 + rng.below(4) as usize,
    });
    let n = rng.below(end - start) + 1;
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(rng.below(SIZE as u64 - n) as f64),
        src: s,
        len: SExpr::Const(n as f64),
        par: 1,
    });
}

fn scalar_loop_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let s = format!("sl_s{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&s, MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: s.clone(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    let trip = 1 + rng.below(SIZE as u64 - 1);
    let var = format!("i{b}");
    let value = value_expr(rng, Some(&var), Some(&s), 2);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to(&var, SExpr::Const(trip as f64)),
        par: 1 + rng.below(4) as usize,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::var(&var),
            value,
        }],
    });
}

fn reduce_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let r = format!("rd_r{b}");
    let f = format!("rd_f{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&r, MemKind::Reg, 1)));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&f, MemKind::Fifo, SIZE)));
    let trip = 1 + rng.below(6);
    for _ in 0..trip {
        p.accel.push(SpatialStmt::Enq {
            fifo: f.clone(),
            value: SExpr::Const(rng.below(8) as f64),
        });
    }
    let var = format!("j{b}");
    let bound = format!("v{b}");
    p.accel.push(SpatialStmt::Reduce {
        id: 0,
        reg: r.clone(),
        counter: Counter::range_to(&var, SExpr::Const(trip as f64)),
        par: 1,
        body: vec![SpatialStmt::Bind {
            var: bound.clone(),
            value: SExpr::Deq(f),
        }],
        expr: SExpr::mul(SExpr::var(&bound), SExpr::var(&var)),
    });
    p.accel.push(SpatialStmt::StoreScalar {
        dst: "out0".into(),
        index: small_const(rng),
        value: SExpr::RegRead(r),
    });
}

fn coords(rng: &mut TestRng) -> Vec<u64> {
    let n = 1 + rng.below(6);
    let mut out: Vec<u64> = (0..n).map(|_| rng.below(SIZE as u64)).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn bitvector_from_coords(p: &mut SpatialProgram, rng: &mut TestRng, name: &str) -> Vec<u64> {
    let cs = coords(rng);
    let fifo = format!("{name}_crd");
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        name,
        MemKind::BitVector,
        SIZE,
    )));
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&fifo, MemKind::Fifo, SIZE)));
    for &c in &cs {
        p.accel.push(SpatialStmt::Enq {
            fifo: fifo.clone(),
            value: SExpr::Const(c as f64),
        });
    }
    p.accel.push(SpatialStmt::GenBitVector {
        dst: name.into(),
        src: fifo,
        src_start: SExpr::Const(0.0),
        count: SExpr::Const(cs.len() as f64),
        dim: SExpr::Const(SIZE as f64),
    });
    cs
}

fn scan1_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let bv = format!("s1_bv{b}");
    bitvector_from_coords(p, rng, &bv);
    let (pos, idx) = (format!("p{b}"), format!("x{b}"));
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan1 {
            bv,
            pos_var: pos.clone(),
            idx_var: idx.clone(),
        },
        par: 1 + rng.below(2) as usize,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out1".into(),
            index: SExpr::var(&pos),
            value: SExpr::var(&idx),
        }],
    });
}

fn scan2_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let (bva, bvb) = (format!("s2_a{b}"), format!("s2_b{b}"));
    bitvector_from_coords(p, rng, &bva);
    bitvector_from_coords(p, rng, &bvb);
    let acc = format!("s2_acc{b}");
    p.accel.push(SpatialStmt::Alloc(MemDecl::new(
        &acc,
        MemKind::SparseSram,
        SIZE,
    )));
    let vars = [
        format!("pa{b}"),
        format!("pb{b}"),
        format!("po{b}"),
        format!("ix{b}"),
    ];
    let op = if rng.below(2) == 0 {
        ScanOp::And
    } else {
        ScanOp::Or
    };
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::Scan2 {
            op,
            bv_a: bva,
            bv_b: bvb,
            a_pos_var: vars[0].clone(),
            b_pos_var: vars[1].clone(),
            out_pos_var: vars[2].clone(),
            idx_var: vars[3].clone(),
        },
        par: 1,
        body: vec![SpatialStmt::WriteMem {
            mem: acc.clone(),
            index: SExpr::var(&vars[2]),
            value: SExpr::select(
                SExpr::add(SExpr::var(&vars[0]), SExpr::Const(1.0)),
                SExpr::var(&vars[3]),
                SExpr::Neg(Box::new(SExpr::var(&vars[1]))),
            ),
            random: true,
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const(0.0),
        src: acc,
        len: SExpr::Const(SIZE as f64),
        par: 1,
    });
}

fn stream_store_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let f = format!("ss_f{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&f, MemKind::Fifo, SIZE)));
    let n = 1 + rng.below(SIZE as u64 / 2);
    for _ in 0..n {
        p.accel.push(SpatialStmt::Enq {
            fifo: f.clone(),
            value: SExpr::Const(rng.below(16) as f64 + 0.25),
        });
    }
    p.accel.push(SpatialStmt::StreamStore {
        dst: "out1".into(),
        offset: SExpr::Const(rng.below(SIZE as u64 - n) as f64),
        fifo: f,
        len: SExpr::Const(n as f64),
    });
}

fn rmw_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let acc = format!("rmw_a{b}");
    let kind = if rng.below(2) == 0 {
        MemKind::Sram
    } else {
        MemKind::SparseSram
    };
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&acc, kind, SIZE)));
    let var = format!("k{b}");
    let trip = 1 + rng.below(8);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to(&var, SExpr::Const(trip as f64)),
        par: 1,
        body: vec![SpatialStmt::RmwAdd {
            mem: acc.clone(),
            index: SExpr::bin(
                stardust_spatial::BinSOp::Mod,
                SExpr::var(&var),
                SExpr::Const(4.0),
            ),
            value: SExpr::read_random("sp0", SExpr::var(&var)),
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out0".into(),
        offset: SExpr::Const((SIZE / 2) as f64),
        src: acc,
        len: SExpr::Const(4.0),
        par: 1,
    });
}

fn nested_loop_block(p: &mut SpatialProgram, rng: &mut TestRng, b: usize) {
    let s = format!("nl_s{b}");
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new(&s, MemKind::Sram, SIZE)));
    let (vo, vi) = (format!("o{b}"), format!("n{b}"));
    let (outer, inner) = (1 + rng.below(4), 1 + rng.below(4));
    let value = value_expr(rng, Some(&vi), None, 2);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to(&vo, SExpr::Const(outer as f64)),
        par: 2,
        body: vec![SpatialStmt::Foreach {
            id: 0,
            counter: Counter::Range {
                var: vi.clone(),
                min: SExpr::Const(0.0),
                max: SExpr::Const(inner as f64),
                step: 1 + rng.below(2) as i64,
            },
            par: 1,
            body: vec![SpatialStmt::WriteMem {
                mem: s.clone(),
                index: SExpr::add(SExpr::var(&vo), SExpr::var(&vi)),
                value,
                random: false,
            }],
        }],
    });
    p.accel.push(SpatialStmt::Store {
        dst: "out1".into(),
        offset: SExpr::Const(0.0),
        src: s,
        len: SExpr::Const(8.0),
        par: 1,
    });
}

/// Input images for the declared DRAM arrays, derived from the seed.
fn inputs(seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = TestRng::for_test(&format!("inputs-{seed}"));
    ["in0", "in1", "sp0"]
        .into_iter()
        .map(|name| {
            let data = (0..SIZE)
                .map(|_| rng.below(16) as f64 - 4.0)
                .collect::<Vec<_>>();
            (name, data)
        })
        .collect()
}

/// Runs `f` under the `STARDUST_FAULTS` environment plan when one is
/// set (the CI fault-injection job's knob), installing a *fresh* plan
/// per call so one-shot faults fire identically for every engine. With
/// the variable unset this is a plain call.
fn with_env_faults<R>(f: impl FnOnce() -> R) -> R {
    // A malformed plan (typo'd key, bad value) must fail the suite
    // loudly — treating it as "no faults" would run the chaos sweep as
    // a vacuous no-op.
    match stardust_spatial::FaultPlan::from_env().expect("STARDUST_FAULTS is malformed") {
        Some(plan) => stardust_spatial::faults::with_plan(plan, f),
        None => f(),
    }
}

/// Runs `p` on both engines and asserts bitwise-identical DRAM
/// images and identical statistics (or identical errors). Under an
/// injected `STARDUST_FAULTS` plan the runs abort early — the engines
/// must then agree on the error *and* on every byte of the partial
/// DRAM state, since budget/fault charges land on the same loop
/// back-edges in both.
fn assert_engines_agree(p: &SpatialProgram, writes: &[(&str, Vec<f64>)]) {
    let mut fast = Machine::new(p);
    let mut reference = ReferenceMachine::new(p);
    for (name, data) in writes {
        fast.write_dram(name, data).unwrap();
        reference.write_dram(name, data).unwrap();
    }
    let fast_result = with_env_faults(|| fast.run(p));
    let ref_result = with_env_faults(|| reference.run(p));
    assert_eq!(fast_result, ref_result, "run results diverge");
    for d in &p.drams {
        let a: Vec<u64> = fast
            .dram(&d.name)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let b: Vec<u64> = reference
            .dram(&d.name)
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b, "DRAM {} diverges", d.name);
    }
    assert_eq!(fast.stats(), reference.stats(), "stats diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random well-formed programs validate, resolve without panicking,
    /// resolve idempotently, and round-trip through the printer
    /// unchanged.
    #[test]
    fn random_programs_resolve_and_roundtrip(seed in 0u64..100_000) {
        let p = random_program(seed);
        validate(&p).expect("generated programs are well-formed");

        let printed_before = print_program(&p);
        let loc = spatial_loc(&p);

        let mut syms = SymbolTable::default();
        let r1 = resolve(&p, &mut syms);
        let r2 = resolve(&p, &mut syms);
        prop_assert_eq!(&r1, &r2, "resolution must be idempotent");
        prop_assert!(r1.exprs.len() < 10_000);

        // Resolution must not disturb the program: printing after the
        // pass reproduces the same source, line for line.
        let printed_after = print_program(&p);
        prop_assert_eq!(printed_before, printed_after);
        prop_assert_eq!(loc, spatial_loc(&p));

        // The static verifier has zero false positives: every artifact
        // the compiler produces passes (the mutation suite in
        // `verify.rs` covers the no-false-negative half).
        let compiled = stardust_spatial::CompiledProgram::compile(&p);
        if let Err(e) = compiled.verify() {
            panic!("verifier rejected a compiler output (seed {seed}): {e}");
        }
    }

    /// The resolved-slot engine and the reference engine agree — bitwise
    /// DRAM images, statistics, and errors — on random programs.
    #[test]
    fn random_programs_execute_identically(seed in 0u64..100_000) {
        let p = random_program(seed);
        assert_engines_agree(&p, &inputs(seed));
    }
}
