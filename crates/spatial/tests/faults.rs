//! Fault-isolation integration suite: runaway kernels must terminate
//! with structured [`RunError::BudgetExceeded`] on every engine, and
//! after any injected fault (forced error, forced panic, failed
//! allocation, shrunken budget) subsequent runs must be byte-identical
//! to a never-faulted baseline — the invariant that lets a serving
//! layer retry on a fresh machine and trust the answer.
//!
//! The injected faults come from [`stardust_spatial::faults`]; the
//! `env_keyed_fault_plan_recovers` test additionally honors
//! `STARDUST_FAULTS` (the CI fault-injection job's knob) so chaos
//! plans can be swept without recompiling.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use stardust_spatial::ir::MemDecl;
use stardust_spatial::{
    faults, BudgetResource, CancelFlag, Counter, FaultPlan, Machine, MemKind, ReferenceMachine,
    RunBudget, RunError, SExpr, SpatialProgram, SpatialStmt,
};

const SIZE: usize = 16;

/// A deliberately runaway kernel: 10^15 loop trips (days of wall
/// clock), each writing one DRAM word. Only a budget can stop it.
fn runaway_program() -> SpatialProgram {
    let mut p = SpatialProgram::new("runaway");
    p.add_dram("out0", SIZE);
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(1e15)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out0".into(),
            index: SExpr::bin(
                stardust_spatial::BinSOp::Mod,
                SExpr::var("i"),
                SExpr::Const(SIZE as f64),
            ),
            value: SExpr::var("i"),
        }],
    });
    p.assign_ids();
    p
}

/// A small terminating kernel with an on-chip alloc, a bulk load, and
/// a scalar-store loop — enough surface for every fault site.
fn small_program(trips: usize) -> SpatialProgram {
    let mut p = SpatialProgram::new("small");
    p.add_dram("in0", SIZE);
    p.add_dram("out0", SIZE);
    p.accel
        .push(SpatialStmt::Alloc(MemDecl::new("s", MemKind::Sram, SIZE)));
    p.accel.push(SpatialStmt::Load {
        dst: "s".into(),
        src: "in0".into(),
        start: SExpr::Const(0.0),
        end: SExpr::Const(SIZE as f64),
        par: 1,
    });
    p.accel.push(SpatialStmt::Foreach {
        id: 0,
        counter: Counter::range_to("i", SExpr::Const(trips as f64)),
        par: 1,
        body: vec![SpatialStmt::StoreScalar {
            dst: "out0".into(),
            index: SExpr::bin(
                stardust_spatial::BinSOp::Mod,
                SExpr::var("i"),
                SExpr::Const(SIZE as f64),
            ),
            value: SExpr::add(SExpr::read("s", SExpr::var("i")), SExpr::Const(0.5)),
        }],
    });
    p.assign_ids();
    p
}

fn in0() -> Vec<f64> {
    (0..SIZE).map(|i| i as f64 * 0.25 - 1.0).collect()
}

fn machine(p: &SpatialProgram) -> Machine {
    let mut m = Machine::new(p);
    if p.drams.iter().any(|d| d.name == "in0") {
        m.write_dram("in0", &in0()).expect("bind in0");
    }
    m
}

fn reference(p: &SpatialProgram) -> ReferenceMachine {
    let mut m = ReferenceMachine::new(p);
    if p.drams.iter().any(|d| d.name == "in0") {
        m.write_dram("in0", &in0()).expect("bind in0");
    }
    m
}

fn dram_bits(m: &Machine, name: &str) -> Vec<u64> {
    m.dram(name).unwrap().iter().map(|v| v.to_bits()).collect()
}

/// The fault-free serial baseline every recovery assertion compares
/// against: a fresh machine, no plan installed, full run.
fn baseline(p: &SpatialProgram) -> Vec<Vec<u64>> {
    faults::clear();
    let mut m = machine(p);
    m.run(p).expect("baseline runs");
    p.drams.iter().map(|d| dram_bits(&m, &d.name)).collect()
}

fn assert_matches_baseline(p: &SpatialProgram, m: &Machine, want: &[Vec<u64>]) {
    for (d, bits) in p.drams.iter().zip(want) {
        assert_eq!(&dram_bits(m, &d.name), bits, "DRAM {} diverges", d.name);
    }
}

#[test]
fn runaway_kernel_exhausts_fuel_on_both_engines() {
    let p = runaway_program();
    let budget = RunBudget::default().with_max_steps(10_000);
    let want = Err(RunError::BudgetExceeded {
        resource: BudgetResource::Steps,
        limit: 10_000,
    });

    let mut bytecode = machine(&p);
    bytecode.set_budget(budget.clone());
    assert_eq!(bytecode.run(&p), want, "bytecode engine");
    assert!(
        bytecode.poisoned(),
        "an aborted run must poison the machine"
    );

    let mut walker = reference(&p);
    walker.set_budget(budget);
    assert_eq!(walker.run(&p), want, "reference engine");
}

#[test]
fn runaway_kernel_hits_wall_clock_deadline() {
    let p = runaway_program();
    let mut m = machine(&p);
    m.set_budget(RunBudget::default().with_deadline(Duration::from_millis(40)));
    let t0 = Instant::now();
    match m.run(&p) {
        Err(RunError::BudgetExceeded {
            resource: BudgetResource::Deadline,
            ..
        }) => {}
        other => panic!("expected deadline abort, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline abort took {:?}",
        t0.elapsed()
    );
}

#[test]
fn cancel_flag_stops_a_running_kernel() {
    let p = runaway_program();
    let flag = CancelFlag::new();
    flag.cancel();
    let mut m = machine(&p);
    m.set_budget(RunBudget::default().with_cancel(flag));
    match m.run(&p) {
        Err(RunError::BudgetExceeded {
            resource: BudgetResource::Cancelled,
            ..
        }) => {}
        other => panic!("expected cancellation, got {other:?}"),
    }
}

#[test]
fn dram_word_budget_bounds_memory_traffic() {
    let p = small_program(8);
    let budget = RunBudget::default().with_max_dram_words(4);
    let mut m = machine(&p);
    m.set_budget(budget.clone());
    let fast = m.run(&p);
    let mut walker = reference(&p);
    walker.set_budget(budget);
    let slow = walker.run(&p);
    match &fast {
        Err(RunError::BudgetExceeded {
            resource: BudgetResource::DramWords,
            limit: 4,
        }) => {}
        other => panic!("expected DRAM budget abort, got {other:?}"),
    }
    assert_eq!(fast, slow, "engines disagree on the DRAM budget abort");
}

#[test]
fn injected_error_is_one_shot_and_engines_agree() {
    let p = small_program(12);
    let want = baseline(&p);
    let plan = FaultPlan {
        error_at_step: Some(3),
        ..FaultPlan::default()
    };

    // Each engine gets its own plan installation (the fault is one-shot
    // per plan), and all must fail identically.
    let fast = faults::with_plan(plan.clone(), || machine(&p).run(&p));
    let slow = faults::with_plan(plan.clone(), || reference(&p).run(&p));
    match &fast {
        Err(RunError::InjectedFault { site }) => {
            assert!(site.contains("step"), "unexpected site {site}")
        }
        other => panic!("expected injected fault, got {other:?}"),
    }
    assert_eq!(
        fast, slow,
        "bytecode vs reference injected-error divergence"
    );

    // One-shot: under the *same still-installed* plan, the fault fires
    // once and the very next run is clean and byte-identical to the
    // fault-free baseline.
    faults::with_plan(plan, || {
        let mut victim = machine(&p);
        assert!(victim.run(&p).is_err(), "first run must fault");
        assert!(victim.poisoned());
        let mut retry = machine(&p);
        retry.run(&p).expect("retry after one-shot fault is clean");
        assert!(!retry.poisoned());
        assert_matches_baseline(&p, &retry, &want);
    });
}

#[test]
fn injected_panic_is_contained_and_recovery_is_byte_identical() {
    let p = small_program(12);
    let want = baseline(&p);
    let plan = FaultPlan {
        panic_at_step: Some(4),
        ..FaultPlan::default()
    };
    let _guard = plan.install();

    let mut victim = machine(&p);
    let unwound = catch_unwind(AssertUnwindSafe(|| victim.run(&p)));
    let payload = unwound.expect_err("the injected panic must unwind");
    let msg = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(msg.contains("injected fault"), "wrong payload: {msg}");
    assert!(
        victim.poisoned(),
        "a machine that panicked mid-run must stay poisoned"
    );

    // The panic consumed its one-shot trigger: a fresh machine now runs
    // clean and lands exactly on the fault-free baseline.
    let mut retry = machine(&p);
    retry.run(&p).expect("retry after injected panic");
    assert_matches_baseline(&p, &retry, &want);
}

#[test]
fn injected_alloc_failure_surfaces_typed_error_on_both_engines() {
    let p = small_program(6);
    let want = baseline(&p);
    let plan = FaultPlan {
        fail_alloc: Some(0),
        ..FaultPlan::default()
    };
    let fast = faults::with_plan(plan.clone(), || machine(&p).run(&p));
    let slow = faults::with_plan(plan.clone(), || reference(&p).run(&p));
    match &fast {
        Err(RunError::InjectedFault { site }) => {
            assert!(site.contains("alloc"), "unexpected site {site}")
        }
        other => panic!("expected injected alloc failure, got {other:?}"),
    }
    assert_eq!(fast, slow, "engines disagree on the alloc failure");

    faults::with_plan(plan, || {
        let mut victim = machine(&p);
        assert!(victim.run(&p).is_err());
        let mut retry = machine(&p);
        retry.run(&p).expect("alloc fault is one-shot");
        assert_matches_baseline(&p, &retry, &want);
    });
}

#[test]
fn fault_plan_step_clamp_is_persistent() {
    let p = runaway_program();
    let plan = FaultPlan {
        max_steps: Some(10),
        ..FaultPlan::default()
    };
    faults::with_plan(plan, || {
        // Unlike the one-shot faults, the clamp models a standing
        // resource limit: every run under the plan hits it.
        for round in 0..2 {
            let mut m = machine(&p);
            match m.run(&p) {
                Err(RunError::BudgetExceeded {
                    resource: BudgetResource::Steps,
                    limit: 10,
                }) => {}
                other => panic!("round {round}: expected clamped budget, got {other:?}"),
            }
        }
    });
}

/// The CI chaos entry point: when `STARDUST_FAULTS` is set (e.g.
/// `error_at=5,fail_alloc=1`) the injected plan comes from the
/// environment; otherwise a representative default runs. Whatever the
/// plan does — error, panic, alloc failure, budget clamp — the process
/// survives, and once its one-shot triggers are consumed a fresh run
/// must be byte-identical to the fault-free baseline.
#[test]
fn env_keyed_fault_plan_recovers() {
    let p = small_program(12);
    let want = baseline(&p);
    let plan = FaultPlan::from_env()
        .expect("STARDUST_FAULTS is malformed")
        .unwrap_or(FaultPlan {
            error_at_step: Some(5),
            ..FaultPlan::default()
        });
    let persistent_clamp = plan.max_steps;
    let _guard = plan.install();

    // First exposure: absorb whatever the plan throws (a contained
    // panic, a structured error, or — for a generous clamp — success).
    let first = catch_unwind(AssertUnwindSafe(|| machine(&p).run(&p)));
    drop(first);

    // One-shots are now consumed. With no persistent clamp installed,
    // the next run must be clean and byte-identical to the baseline.
    if persistent_clamp.is_none() {
        let mut retry = machine(&p);
        retry.run(&p).expect("post-fault run is clean");
        assert_matches_baseline(&p, &retry, &want);
    } else {
        // A standing clamp keeps applying; the run must still terminate
        // with a structured error rather than hang or panic.
        let mut retry = machine(&p);
        match retry.run(&p) {
            Ok(_) => assert_matches_baseline(&p, &retry, &want),
            Err(RunError::BudgetExceeded { .. }) => {}
            Err(other) => panic!("unexpected error under clamp: {other:?}"),
        }
    }
}
