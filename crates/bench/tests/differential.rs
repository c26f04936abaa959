//! Differential testing of the two Spatial execution engines.
//!
//! Every Table 3 kernel is compiled and executed on the full dataset
//! suite (the Table 4 stand-ins plus the random matrices/tensors the
//! harness instantiates per kernel). For each stage, the same bound DRAM
//! image is run through the flat bytecode engine
//! ([`stardust_spatial::Machine::run`]) and the independent string-keyed
//! [`stardust_spatial::ReferenceMachine`], and the test asserts:
//!
//! - **byte-identical outputs**: every DRAM array compares equal at the
//!   bit level after execution on both engines, and
//! - **identical statistics**: the [`stardust_spatial::ExecStats`]
//!   returned by both engines — including per-array and per-node maps —
//!   are equal, and match the stats the production `Kernel::run` path
//!   recorded.
//!
//! A second bytecode machine is bound through the copy-on-write
//! `DramImage` path, so the test also covers the re-bind-without-relink
//! path the harness uses for dataset sweeps.

use std::collections::HashMap;

use stardust_bench::{instantiate, Scale, KERNEL_NAMES};
use stardust_core::pipeline::{KernelOutput, TensorData};
use stardust_kernels::Kernel;
use stardust_spatial::ReferenceMachine;

/// Runs every stage of `kernel` through both engines and asserts
/// bit-identical DRAM images and identical statistics.
fn assert_engines_agree(kernel: &Kernel, inputs: &HashMap<String, TensorData>) {
    let result = kernel
        .run(inputs)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", kernel.name));
    let mut available = inputs.clone();
    for (s, stage) in result.stages.iter().enumerate() {
        let compiled = &stage.compiled;
        let program = compiled.spatial();
        let mut fast = compiled.bind(&available).expect("bind inputs");
        // A second bytecode machine bound through the copy-on-write DramImage
        // path: identical DRAM at bind time, identical DRAM and stats
        // after running.
        let image = compiled.build_image(&available).expect("build image");
        let mut image_bound = compiled.bind_image(&image).expect("bind image");
        for d in &program.drams {
            let a: Vec<u64> = fast
                .dram(&d.name)
                .expect("bound dram")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let i: Vec<u64> = image_bound
                .dram(&d.name)
                .expect("image dram")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                a, i,
                "{} stage {s}: DRAM {} write_dram vs image bind",
                kernel.name, d.name
            );
        }
        let mut reference = ReferenceMachine::new(program);
        for d in &program.drams {
            reference
                .write_dram(&d.name, fast.dram(&d.name).expect("bound dram"))
                .expect("mirror dram");
        }

        let fast_stats = fast.run(program).expect("bytecode engine runs");
        let image_stats = image_bound.run(program).expect("image-bound machine runs");
        let ref_stats = reference.run(program).expect("reference engine runs");
        assert_eq!(
            fast_stats, image_stats,
            "{} stage {s}: ExecStats diverge write_dram vs image binding",
            kernel.name
        );
        for d in &program.drams {
            let a: Vec<u64> = fast
                .dram(&d.name)
                .expect("dram present")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let i: Vec<u64> = image_bound
                .dram(&d.name)
                .expect("dram present")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                a, i,
                "{} stage {s}: DRAM {} diverges write_dram vs image binding after run",
                kernel.name, d.name
            );
        }
        assert_eq!(
            fast_stats, ref_stats,
            "{} stage {s}: ExecStats diverge between engines",
            kernel.name
        );
        assert_eq!(
            fast_stats, stage.stats,
            "{} stage {s}: ExecStats diverge from the production run",
            kernel.name
        );

        for d in &program.drams {
            let a = fast.dram(&d.name).expect("dram present");
            let b = reference.dram(&d.name).expect("dram present");
            assert_eq!(a.len(), b.len(), "{}: {} length", kernel.name, d.name);
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} stage {s}: DRAM {}[{i}] diverges: {x} vs {y}",
                    kernel.name,
                    d.name
                );
            }
        }

        // Thread this stage's output into the next stage's inputs, as the
        // production runner does.
        if let KernelOutput::Tensor(t) = compiled.read_output(&fast).expect("read output") {
            available.insert(
                compiled.program().output().to_string(),
                TensorData::Sparse(t),
            );
        }
    }
}

#[test]
fn all_table3_kernels_agree_on_the_dataset_suite() {
    let scale = Scale::ci();
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            println!("differential: {name} on {}", set.dataset);
            assert_engines_agree(&kernel, &set.inputs);
        }
    }
}
