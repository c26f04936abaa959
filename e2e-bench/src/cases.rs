//! Seeded inputs: the (kernel, dataset) cases of each workload.
//!
//! Every generator that takes a seed gets one derived from the run's
//! `--seed`. The structure-matched SuiteSparse stand-ins and the
//! `facebook` tensor keep the fixed structure their generators define;
//! their dense operands (vectors, factor matrices, scalars) come from the
//! seed, so every case's content changes with the seed.

use std::collections::{BTreeMap, HashMap};

use stardust_core::pipeline::TensorData;
use stardust_datasets as datasets;
use stardust_kernels::{self as kernels, Kernel};
use stardust_tensor::{CooTensor, Format};

use crate::trace::Tracer;

/// Dataset sizes, mirroring the divisors of the repository's table
/// harness (`--scale <n>`).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Divisor of the SuiteSparse stand-in dimensions.
    pub suite: usize,
    /// Dimension of the random matrices.
    pub matrix_dim: usize,
    /// Dimension of the random 3-tensors.
    pub tensor_dim: usize,
    /// Divisor of the `facebook` dimensions.
    pub facebook: usize,
    /// Factor rank of SDDMM, TTM and MTTKRP.
    pub rank: usize,
}

impl Scale {
    /// The CI scale of the table harness.
    pub fn ci() -> Self {
        Scale {
            suite: 96,
            matrix_dim: 96,
            tensor_dim: 20,
            facebook: 400,
            rank: 8,
        }
    }

    /// The table harness's `--scale v`.
    pub fn divisor(v: usize) -> Self {
        Scale {
            suite: v,
            matrix_dim: (9600 / v).max(48),
            tensor_dim: (2400 / v).max(16),
            facebook: (v * 4).max(1),
            rank: if v <= 4 { 32 } else { 16 },
        }
    }
}

/// A Table-3 kernel with its dimensions: building it runs the kernel's
/// program construction and schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    /// `y(i) = A(i,j) * x(j)`.
    Spmv(usize),
    /// `A = B + C + D`, two stages.
    Plus3(usize),
    /// `A(i,j) = B(i,j) * C(i,k) * D(k,j)`.
    Sddmm(usize, usize),
    /// `y(i) = alpha * A(j,i) * x(j) + beta * z(i)`.
    MatTransMul(usize),
    /// `y(i) = b(i) - A(i,j) * x(j)`.
    Residual(usize),
    /// `A(i,j) = B(i,j,k) * c(k)`.
    Ttv([usize; 3]),
    /// `A(i,j,k) = B(i,j,l) * C(k,l)`.
    Ttm([usize; 3], usize),
    /// `A(i,j) = B(i,k,l) * C(j,k) * D(j,l)`.
    Mttkrp([usize; 3], usize),
    /// `alpha = B(i,j,k) * C(i,j,k)`.
    InnerProd(usize),
    /// `A = B + C` over 3-tensors.
    Plus2(usize),
}

impl Spec {
    /// The kernel's name in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Spec::Spmv(_) => "SpMV",
            Spec::Plus3(_) => "Plus3",
            Spec::Sddmm(..) => "SDDMM",
            Spec::MatTransMul(_) => "MatTransMul",
            Spec::Residual(_) => "Residual",
            Spec::Ttv(_) => "TTV",
            Spec::Ttm(..) => "TTM",
            Spec::Mttkrp(..) => "MTTKRP",
            Spec::InnerProd(_) => "InnerProd",
            Spec::Plus2(_) => "Plus2",
        }
    }

    /// Builds the kernel: program declaration plus schedule.
    pub fn build(self) -> Kernel {
        match self {
            Spec::Spmv(n) => kernels::spmv(n),
            Spec::Plus3(n) => kernels::plus3(n),
            Spec::Sddmm(n, k) => kernels::sddmm(n, k),
            Spec::MatTransMul(n) => kernels::mattransmul(n),
            Spec::Residual(n) => kernels::residual(n),
            Spec::Ttv([a, b, c]) => kernels::ttv(a, b, c),
            Spec::Ttm([a, b, c], r) => kernels::ttm(a, b, c, r),
            Spec::Mttkrp([a, b, c], r) => kernels::mttkrp(a, b, c, r),
            Spec::InnerProd(n) => kernels::innerprod(n, n, n),
            Spec::Plus2(n) => kernels::plus2(n, n, n),
        }
    }
}

/// One dataset as the kernels see it: packed inputs, plus the COO and
/// scalar operands the independent reference reads.
#[derive(Debug)]
pub struct InputSet {
    /// Dataset name for reports.
    pub name: String,
    /// Packed inputs in the formats the kernel declares.
    pub inputs: HashMap<String, TensorData>,
    /// The same tensors in COO form.
    pub coo: BTreeMap<String, CooTensor<f64>>,
    /// Scalar operands.
    pub scalars: BTreeMap<String, f64>,
}

impl InputSet {
    fn new(name: String) -> Self {
        InputSet {
            name,
            inputs: HashMap::new(),
            coo: BTreeMap::new(),
            scalars: BTreeMap::new(),
        }
    }

    fn tensor(&mut self, name: &str, coo: CooTensor<f64>, format: Format, t: &mut Tracer) {
        let packed = t.span("tensor.from_coo", || TensorData::from_coo(&coo, format));
        self.inputs.insert(name.to_string(), packed);
        self.coo.insert(name.to_string(), coo);
    }

    fn scalar(&mut self, name: &str, v: f64) {
        self.inputs.insert(name.to_string(), TensorData::Scalar(v));
        self.scalars.insert(name.to_string(), v);
    }

    /// Nonzeros stored across the set's tensors.
    pub fn nnz(&self) -> usize {
        self.coo.values().map(CooTensor::nnz).sum()
    }
}

/// One row of a workload: a kernel on one input set.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// The kernel.
    pub spec: Spec,
    /// Index into [`Suite::sets`].
    pub set: usize,
}

/// A workload's cases and the input sets they read.
#[derive(Debug)]
pub struct Suite {
    /// Input sets; several cases may share one.
    pub sets: Vec<InputSet>,
    /// Cases in row order.
    pub cases: Vec<Case>,
}

impl Suite {
    /// `Kernel / dataset` label of case `i`.
    pub fn label(&self, i: usize) -> String {
        let c = self.cases[i];
        format!("{} / {}", c.spec.name(), self.sets[c.set].name)
    }
}

/// A seed for the generator labelled `tag`, derived from the run seed.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    splitmix(seed ^ h)
}

/// One step of SplitMix64.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value in `[lo, hi)` drawn from `seed`.
fn uniform(seed: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix(seed) >> 11) as f64 / (1u64 << 53) as f64)
}

fn gen<R>(t: &mut Tracer, f: impl FnOnce() -> R) -> R {
    t.span("datasets.gen", f)
}

/// The SuiteSparse stand-ins (fixed structure).
fn stand_ins(scale: &Scale, t: &mut Tracer) -> Vec<datasets::Dataset> {
    gen(t, || {
        vec![
            datasets::bcsstk30(scale.suite),
            datasets::ckt11752_dc_1(scale.suite),
            datasets::trefethen_20000(scale.suite),
        ]
    })
}

fn dense_matrix(rows: usize, cols: usize, seed: u64, t: &mut Tracer) -> CooTensor<f64> {
    gen(t, || datasets::random_matrix(rows, cols, 1.0, seed))
}

fn dense_vector(len: usize, seed: u64, t: &mut Tracer) -> CooTensor<f64> {
    gen(t, || datasets::random_vector(len, seed))
}

/// Matrix kernel `kind` on one stand-in.
fn matrix_case(
    kind: &str,
    d: &datasets::Dataset,
    rank: usize,
    seed: u64,
    t: &mut Tracer,
) -> (Spec, InputSet) {
    let n = d.matrix.dims()[0];
    let tag = |what: &str| sub_seed(seed, &format!("{kind}/{}/{what}", d.name));
    let mut set = InputSet::new(d.name.clone());
    let spec = match kind {
        "SpMV" | "Residual" => {
            set.tensor("A", d.matrix.clone(), Format::csr(), t);
            let x = dense_vector(n, tag("x"), t);
            set.tensor("x", x, Format::dense_vec(), t);
            if kind == "SpMV" {
                Spec::Spmv(n)
            } else {
                let b = dense_vector(n, tag("b"), t);
                set.tensor("b", b, Format::dense_vec(), t);
                Spec::Residual(n)
            }
        }
        "MatTransMul" => {
            set.tensor("A", d.matrix.clone(), Format::csc(), t);
            let x = dense_vector(n, tag("x"), t);
            set.tensor("x", x, Format::dense_vec(), t);
            let z = dense_vector(n, tag("z"), t);
            set.tensor("z", z, Format::dense_vec(), t);
            set.scalar("alpha", uniform(tag("alpha"), 0.5, 2.0));
            set.scalar("beta", uniform(tag("beta"), -1.0, -0.25));
            Spec::MatTransMul(n)
        }
        _ => {
            set.tensor("B", d.matrix.clone(), Format::csr(), t);
            let c = dense_matrix(n, rank, tag("C"), t);
            set.tensor("C", c, Format::dense(2), t);
            let dd = dense_matrix(rank, n, tag("D"), t);
            set.tensor("D", dd, Format::dense_col_major(), t);
            Spec::Sddmm(n, rank)
        }
    };
    (spec, set)
}

fn tensor_case(
    kind: &str,
    fb: &CooTensor<f64>,
    rank: usize,
    seed: u64,
    t: &mut Tracer,
) -> (Spec, InputSet) {
    let d = [fb.dims()[0], fb.dims()[1], fb.dims()[2]];
    let tag = |what: &str| sub_seed(seed, &format!("{kind}/facebook/{what}"));
    let mut set = InputSet::new("facebook".into());
    set.tensor("B", fb.clone(), Format::csf(3), t);
    let spec = match kind {
        "TTV" => {
            let c = dense_vector(d[2], tag("c"), t);
            set.tensor("c", c, Format::dense_vec(), t);
            Spec::Ttv(d)
        }
        "TTM" => {
            let c = dense_matrix(rank, d[2], tag("C"), t);
            set.tensor("C", c, Format::dense(2), t);
            Spec::Ttm(d, rank)
        }
        _ => {
            let c = dense_matrix(rank, d[1], tag("C"), t);
            set.tensor("C", c, Format::dense_col_major(), t);
            let dd = dense_matrix(rank, d[2], tag("D"), t);
            set.tensor("D", dd, Format::dense_col_major(), t);
            Spec::Mttkrp(d, rank)
        }
    };
    (spec, set)
}

fn density_name(density: f64) -> String {
    format!("random {:.0}%", density * 100.0)
}

fn plus3_set(n: usize, density: f64, seed: u64, t: &mut Tracer) -> InputSet {
    let s = sub_seed(seed, &format!("Plus3/{density}"));
    let b = gen(t, || datasets::random_matrix(n, n, density, s));
    let c = gen(t, || datasets::rotate_matrix_columns(&b, 1));
    let d = gen(t, || datasets::rotate_matrix_columns(&b, 2));
    let mut set = InputSet::new(density_name(density));
    set.tensor("B", b, Format::csr(), t);
    set.tensor("C", c, Format::csr(), t);
    set.tensor("D", d, Format::csr(), t);
    set
}

/// The InnerProd/Plus2 operands: one input set serves both kernels.
fn tensor3_set(n: usize, density: f64, seed: u64, t: &mut Tracer) -> InputSet {
    let s = sub_seed(seed, &format!("tensor3/{density}"));
    let b = gen(t, || datasets::random_tensor3(n, n, n, density, s));
    let c = gen(t, || datasets::rotate_even_coords(&b));
    let mut set = InputSet::new(density_name(density));
    set.tensor("B", b, Format::ucc(), t);
    set.tensor("C", c, Format::ucc(), t);
    set
}

const DENSITIES: [f64; 3] = [0.01, 0.10, 0.50];

fn push(suite: &mut Suite, spec: Spec, set: InputSet) {
    suite.sets.push(set);
    let set = suite.sets.len() - 1;
    suite.cases.push(Case { spec, set });
}

/// All ten Table-3 kernels, one dataset each, at `scale`.
pub fn table3(scale: &Scale, seed: u64, t: &mut Tracer) -> Suite {
    let mut suite = Suite {
        sets: Vec::new(),
        cases: Vec::new(),
    };
    let mats = stand_ins(scale, t);
    let fb = gen(t, || datasets::facebook(scale.facebook));
    let n = scale.matrix_dim;
    let tn = scale.tensor_dim;
    for kind in ["SpMV", "Plus3", "SDDMM", "MatTransMul", "Residual"] {
        let (spec, set) = if kind == "Plus3" {
            (Spec::Plus3(n), plus3_set(n, 0.10, seed, t))
        } else {
            matrix_case(kind, &mats[0], scale.rank, seed, t)
        };
        push(&mut suite, spec, set);
    }
    for kind in ["TTV", "TTM", "MTTKRP"] {
        let (spec, set) = tensor_case(kind, &fb, scale.rank, seed, t);
        push(&mut suite, spec, set);
    }
    suite.sets.push(tensor3_set(tn, 0.10, seed, t));
    let set = suite.sets.len() - 1;
    suite.cases.push(Case {
        spec: Spec::InnerProd(tn),
        set,
    });
    suite.cases.push(Case {
        spec: Spec::Plus2(tn),
        set,
    });
    suite
}

/// SpMV, SDDMM, MatTransMul and Residual on the three stand-ins, plus
/// TTV, TTM and MTTKRP on `facebook`.
pub fn matrix_sweep(scale: &Scale, seed: u64, t: &mut Tracer) -> Suite {
    let mut suite = Suite {
        sets: Vec::new(),
        cases: Vec::new(),
    };
    let mats = stand_ins(scale, t);
    for kind in ["SpMV", "SDDMM", "MatTransMul", "Residual"] {
        for d in &mats {
            let (spec, set) = matrix_case(kind, d, scale.rank, seed, t);
            push(&mut suite, spec, set);
        }
    }
    let fb = gen(t, || datasets::facebook(scale.facebook));
    for kind in ["TTV", "TTM", "MTTKRP"] {
        let (spec, set) = tensor_case(kind, &fb, scale.rank, seed, t);
        push(&mut suite, spec, set);
    }
    suite
}

/// Plus3, InnerProd and Plus2 at 1/10/50% density.
pub fn union_sweep(scale: &Scale, seed: u64, t: &mut Tracer) -> Suite {
    let mut suite = Suite {
        sets: Vec::new(),
        cases: Vec::new(),
    };
    let n = scale.matrix_dim;
    for density in DENSITIES {
        push(&mut suite, Spec::Plus3(n), plus3_set(n, density, seed, t));
    }
    let tn = scale.tensor_dim;
    for density in DENSITIES {
        suite.sets.push(tensor3_set(tn, density, seed, t));
        let set = suite.sets.len() - 1;
        suite.cases.push(Case {
            spec: Spec::InnerProd(tn),
            set,
        });
        suite.cases.push(Case {
            spec: Spec::Plus2(tn),
            set,
        });
    }
    suite.cases.sort_by_key(|c| c.spec.name() != "Plus3");
    suite
}

/// The served mix: SpMV and SDDMM on the stand-ins, Plus3, InnerProd and
/// Plus2 at 1/10/50% density.
pub fn serve_mix(scale: &Scale, seed: u64, t: &mut Tracer) -> Suite {
    let mut suite = Suite {
        sets: Vec::new(),
        cases: Vec::new(),
    };
    let mats = stand_ins(scale, t);
    for kind in ["SpMV", "SDDMM"] {
        for d in &mats {
            let (spec, set) = matrix_case(kind, d, scale.rank, seed, t);
            push(&mut suite, spec, set);
        }
    }
    let n = scale.matrix_dim;
    let tn = scale.tensor_dim;
    for density in DENSITIES {
        push(&mut suite, Spec::Plus3(n), plus3_set(n, density, seed, t));
        suite.sets.push(tensor3_set(tn, density, seed, t));
        let set = suite.sets.len() - 1;
        suite.cases.push(Case {
            spec: Spec::InnerProd(tn),
            set,
        });
        suite.cases.push(Case {
            spec: Spec::Plus2(tn),
            set,
        });
    }
    suite
}
