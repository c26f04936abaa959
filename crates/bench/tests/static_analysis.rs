//! The static-analysis gate over the full Table-3 kernel suite.
//!
//! Every lowered stage of every kernel × dataset pair at CI scale must
//! pass the structural bytecode verifier — this is the release-build
//! counterpart of the `debug_assertions` check inside
//! `CompiledProgram::compile`, exercised here through the public
//! pipeline so the CI `static-analysis` job covers both build
//! profiles.

use stardust_bench::{instantiate, Scale, KERNEL_NAMES};

#[test]
fn all_table3_kernels_pass_the_verifier() {
    let scale = Scale::ci();
    let mut stages = 0usize;
    for name in KERNEL_NAMES {
        for (kernel, set) in instantiate(name, &scale) {
            let compiled = kernel
                .compile(&set.inputs)
                .unwrap_or_else(|e| panic!("{name} on {} fails to compile: {e}", set.dataset));
            for stage in &compiled {
                let spatial = stage.compiled_spatial();
                spatial.verify().unwrap_or_else(|e| {
                    panic!(
                        "{name} on {}: verifier rejected a compiled stage: {e}",
                        set.dataset
                    )
                });
                stages += 1;
            }
        }
    }
    assert!(stages >= 10, "suite shrank: only {stages} stages compiled");
    println!("static-analysis: {stages} stages verified");
}
