//! The shipped path, one public layer call at a time.
//!
//! [`run_row`] is one measured operation of the compile and sweep
//! workloads: schedule, size hints, the shipped compiler, a fresh image
//! build, bind, run, output readback and Capstan simulation on the Ideal,
//! HBM-2E and DDR4 models — the path `Kernel::run` takes, with the image
//! step made explicit. [`probe_compile`] splits the shipped compiler into
//! its own public layers so the traced run can time each one.

use std::fmt::Write as _;

use stardust_capstan::sim::{combine, SimModel};
use stardust_capstan::{CapstanConfig, MemoryModel};
use stardust_core::lower::{Lowerer, SizeHints};
use stardust_core::memory;
use stardust_core::pipeline::{CompiledKernel, Compiler, KernelOutput, TensorData};
use stardust_kernels::stage_hints;
use stardust_spatial::{
    print_program, validate, CompiledProgram, ExecStats, ProgramCache, VecClass,
};
use stardust_tensor::SparseTensor;

use crate::cases::{InputSet, Spec};
use crate::trace::Tracer;

/// The memory systems every row is simulated on; index 1 is HBM-2E.
pub const MODELS: [MemoryModel; 3] = [MemoryModel::Ideal, MemoryModel::Hbm2e, MemoryModel::Ddr4];

/// One executed row.
pub struct Row {
    /// The final stage's output.
    pub output: KernelOutput,
    /// Size hints each stage was compiled with.
    pub hints: Vec<SizeHints>,
    /// Interpreter events summed over stages (see [`events`]).
    pub events: u64,
    /// Simulated `(cycles, seconds)` per entry of [`MODELS`].
    pub sim: [(f64, f64); 3],
    /// Words in the stages' DRAM images.
    pub image_words: usize,
}

/// An error as the message the report records.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Total interpreter events of one run: every counter of [`ExecStats`],
/// pattern trips and DRAM words included. Host time per event normalises
/// run time across kernels of different sizes.
pub fn events(s: &ExecStats) -> u64 {
    s.node_trips.iter().sum::<u64>()
        + s.total_dram_read_words()
        + s.total_dram_write_words()
        + s.dram_random_reads
        + s.dram_random_writes
        + s.alu_ops
        + s.sram_reads
        + s.sram_writes
        + s.shuffle_accesses
        + s.fifo_enqs
        + s.fifo_deqs
        + s.scan_bits
        + s.scan_emits
        + s.bv_gen_bits
        + s.reduce_elems
}

/// Simulates each stage on every model and combines the stages.
pub fn simulate(stages: &[(&CompiledKernel, &ExecStats)]) -> [(f64, f64); 3] {
    let hbm = CapstanConfig::with_memory(MemoryModel::Hbm2e);
    let models: Vec<SimModel> = stages
        .iter()
        .map(|(c, _)| SimModel::new(c.spatial(), &hbm))
        .collect();
    MODELS.map(|m| {
        let cfg = CapstanConfig::with_memory(m);
        let reports: Vec<_> = models
            .iter()
            .zip(stages)
            .map(|(model, (_, s))| model.run_at(s, &cfg))
            .collect();
        let r = combine(&reports);
        (r.cycles, r.seconds)
    })
}

/// Runs one row. Intermediate stage outputs are added to `set` for the
/// later stages and removed again before returning.
///
/// # Errors
///
/// The first compile, bind or run error.
pub fn run_row(
    spec: Spec,
    set: &mut InputSet,
    cache: Option<&ProgramCache>,
    t: &mut Tracer,
) -> Result<Row, String> {
    let kernel = t.span("kernels.schedule", || spec.build());
    let mut added = Vec::new();
    let result = stages(&kernel, set, cache, t, &mut added);
    for name in added {
        set.inputs.remove(&name);
    }
    result
}

fn stages(
    kernel: &stardust_kernels::Kernel,
    set: &mut InputSet,
    cache: Option<&ProgramCache>,
    t: &mut Tracer,
    added: &mut Vec<String>,
) -> Result<Row, String> {
    let mut row = Row {
        output: KernelOutput::Scalar(0.0),
        hints: Vec::new(),
        events: 0,
        sim: [(0.0, 0.0); 3],
        image_words: 0,
    };
    let mut stats = Vec::new();
    let mut compiled_stages = Vec::new();
    for (i, stage) in kernel.stages.iter().enumerate() {
        let hints = t
            .span("kernels.hints", || stage_hints(stage, &set.inputs))
            .map_err(err)?;
        row.hints.push(hints.clone());
        let compiled = t
            .span("core.compile", || match cache {
                Some(c) => Compiler::compile_cached(&stage.program, &stage.stmt, hints, c),
                None => Compiler::compile(&stage.program, &stage.stmt, hints),
            })
            .map_err(err)?;
        let image = t
            .span("core.image_build", || compiled.build_image(&set.inputs))
            .map_err(err)?;
        row.image_words += image.input_words().len();
        let mut machine = t
            .span("core.bind", || compiled.bind_image(&image))
            .map_err(err)?;
        let s = t
            .span("spatial.run", || machine.run(compiled.spatial()))
            .map_err(err)?;
        let output = t
            .span("core.readback", || compiled.read_output(&machine))
            .map_err(err)?;
        row.events += events(&s);
        if i + 1 < kernel.stages.len() {
            if let KernelOutput::Tensor(out) = output {
                let name = stage.program.output().to_string();
                set.inputs.insert(name.clone(), TensorData::Sparse(out));
                added.push(name);
            }
        } else {
            row.output = output;
        }
        stats.push(s);
        compiled_stages.push(compiled);
    }
    let pairs: Vec<_> = compiled_stages.iter().zip(&stats).collect();
    row.sim = t.span("capstan.sim", || simulate(&pairs));
    Ok(row)
}

/// The shipped compiler split into its public layer calls, for stages
/// compiled with `hints`: memory analysis, lowering (whose
/// `Lowerer::new` repeats the memory analysis), validation, printing,
/// bytecode compilation and verification — then the shipped
/// `Compiler::compile` on the same input, for comparison.
///
/// # Errors
///
/// The first layer error.
pub fn probe_compile(spec: Spec, hints: &[SizeHints], t: &mut Tracer) -> Result<(), String> {
    let kernel = t.span("kernels.schedule", || spec.build());
    for (stage, hints) in kernel.stages.iter().zip(hints) {
        let (p, s) = (&stage.program, &stage.stmt);
        t.span("core.memory", || memory::analyze(p, s))
            .map_err(err)?;
        let spatial = t
            .span("core.lower", || {
                Lowerer::new(p, s, hints.clone()).and_then(|l| l.lower(s))
            })
            .map_err(err)?;
        t.span("spatial.validate", || validate(&spatial))
            .map_err(err)?;
        std::hint::black_box(t.span("spatial.print", || print_program(&spatial)));
        let compiled = t.span("spatial.bytecode", || CompiledProgram::compile(&spatial));
        t.span("spatial.verify", || compiled.verify())
            .map_err(err)?;
        t.span("core.compile", || Compiler::compile(p, s, hints.clone()))
            .map_err(err)?;
    }
    Ok(())
}

/// Tier yield and shard eligibility of one compiled stage.
#[derive(Debug, Clone, Default)]
pub struct StageInfo {
    /// Bytecode ops.
    pub ops: usize,
    /// Generated Spatial lines of code.
    pub loc: usize,
    /// Ops the vector tier may run (`vec_class != None`).
    pub vec_tagged: usize,
    /// Scatter writes licensed to skip bounds checks.
    pub elide_tagged: usize,
    /// `None` when the stage shards, else the `NotShardable` reason.
    pub not_shardable: Option<String>,
    /// Op-kind mix as `(kind, count)`, sorted by kind.
    pub mix: Vec<(String, usize)>,
}

impl StageInfo {
    /// Reads the public static tables of a compiled stage.
    pub fn of(stage: &CompiledKernel) -> Self {
        let prog = stage.compiled_spatial();
        let ops = prog.ops();
        let mut mix = std::collections::BTreeMap::<String, usize>::new();
        for op in ops {
            let name = format!("{op:?}");
            let kind = name
                .split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or("?");
            *mix.entry(kind.to_string()).or_default() += 1;
        }
        StageInfo {
            ops: ops.len(),
            loc: stage.spatial_loc(),
            vec_tagged: (0..ops.len())
                .filter(|&pc| prog.vec_class(pc) != VecClass::None)
                .count(),
            elide_tagged: (0..ops.len()).filter(|&pc| prog.elide_at(pc)).count(),
            not_shardable: stage.shard(2).err().map(|e| format!("{e:?}")),
            mix: mix.into_iter().collect(),
        }
    }

    /// One JSON object for the trace file.
    pub fn to_json(&self, label: &str, stage: usize) -> String {
        let mut mix = String::new();
        for (i, (k, n)) in self.mix.iter().enumerate() {
            let _ = write!(mix, "{}\"{k}\":{n}", if i > 0 { "," } else { "" });
        }
        let shard = match &self.not_shardable {
            None => "null".to_string(),
            Some(r) => format!("\"{}\"", r.replace('\\', "\\\\").replace('"', "'")),
        };
        format!(
            "{{\"static\":\"{label}\",\"stage\":{stage},\"ops\":{},\"loc\":{},\"vec_tagged\":{},\"elide_tagged\":{},\"not_shardable\":{shard},\"mix\":{{{mix}}}}}",
            self.ops, self.loc, self.vec_tagged, self.elide_tagged
        )
    }
}

/// Bitwise equality of two outputs: same structure, same value bits.
pub fn same_bits(a: &KernelOutput, b: &KernelOutput) -> bool {
    fn tensor_bits(a: &SparseTensor<f64>, b: &SparseTensor<f64>) -> bool {
        a.dims() == b.dims()
            && a.format() == b.format()
            && (0..a.rank()).all(|l| a.level(l) == b.level(l))
            && a.vals().len() == b.vals().len()
            && a.vals()
                .iter()
                .zip(b.vals())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }
    match (a, b) {
        (KernelOutput::Scalar(x), KernelOutput::Scalar(y)) => x.to_bits() == y.to_bits(),
        (KernelOutput::Tensor(x), KernelOutput::Tensor(y)) => tensor_bits(x, y),
        _ => false,
    }
}
