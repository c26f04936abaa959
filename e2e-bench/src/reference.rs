//! Independent reference results for the Table-3 kernels.
//!
//! Each reference reads the COO operands directly and runs in O(nnz)
//! (times the factor rank where the kernel has one), sharing no code with
//! the compiler, the interpreter or the dense CIN oracle. Alongside every
//! value it keeps the sum of the absolute values of the terms that formed
//! it, which scales the comparison tolerance: a correct result differs
//! from the reference only by summation order.

use std::collections::HashMap;

use stardust_core::pipeline::KernelOutput;
use stardust_tensor::CooTensor;

use crate::cases::{InputSet, Spec};

/// Relative tolerance against the magnitude of the summed terms.
const REL_TOL: f64 = 1e-9;

/// Expected values of an output, with the magnitude of their terms.
#[derive(Debug, Clone)]
pub enum Expected {
    /// A scalar output.
    Scalar(f64, f64),
    /// A tensor output over `dims`, keyed by row-major linear index.
    Tensor {
        /// Logical dimensions.
        dims: Vec<usize>,
        /// `(value, magnitude)` of every entry the reference produces.
        entries: HashMap<u64, (f64, f64)>,
    },
}

fn linear(dims: &[usize], coords: &[usize]) -> u64 {
    coords
        .iter()
        .zip(dims)
        .fold(0u64, |acc, (&c, &d)| acc * d as u64 + c as u64)
}

/// A dense row-major copy of a COO operand (vectors and factor matrices).
fn dense(coo: &CooTensor<f64>) -> Vec<f64> {
    let dims = coo.dims();
    let mut out = vec![0.0; dims.iter().product()];
    for (c, v) in coo.entries() {
        out[linear(dims, c) as usize] = *v;
    }
    out
}

#[derive(Default)]
struct Acc {
    entries: HashMap<u64, (f64, f64)>,
}

impl Acc {
    fn add(&mut self, key: u64, term: f64) {
        let e = self.entries.entry(key).or_default();
        e.0 += term;
        e.1 += term.abs();
    }

    fn tensor(self, dims: Vec<usize>) -> Expected {
        Expected::Tensor {
            dims,
            entries: self.entries,
        }
    }
}

/// Computes the expected output of `spec` on `set`.
///
/// # Panics
///
/// Panics when the input set lacks an operand the kernel reads.
pub fn expected(spec: Spec, set: &InputSet) -> Expected {
    let t = |n: &str| &set.coo[n];
    let s = |n: &str| set.scalars[n];
    let mut acc = Acc::default();
    match spec {
        Spec::Spmv(n) | Spec::Residual(n) => {
            let x = dense(t("x"));
            for (c, v) in t("A").entries() {
                acc.add(c[0] as u64, -v * x[c[1]]);
            }
            let residual = matches!(spec, Spec::Residual(_));
            let b = residual.then(|| dense(t("b")));
            let mut out = Acc::default();
            for i in 0..n {
                let (ax, mag) = acc.entries.get(&(i as u64)).copied().unwrap_or_default();
                let (v, m) = match &b {
                    Some(b) => (b[i] + ax, b[i].abs() + mag),
                    None => (-ax, mag),
                };
                out.entries.insert(i as u64, (v, m));
            }
            out.tensor(vec![n])
        }
        Spec::MatTransMul(n) => {
            let (alpha, beta) = (s("alpha"), s("beta"));
            let x = dense(t("x"));
            let z = dense(t("z"));
            for (c, v) in t("A").entries() {
                acc.add(c[1] as u64, alpha * v * x[c[0]]);
            }
            for (i, zi) in z.iter().enumerate() {
                acc.add(i as u64, beta * zi);
            }
            acc.tensor(vec![n])
        }
        Spec::Plus3(n) => {
            for name in ["B", "C", "D"] {
                for (c, v) in t(name).entries() {
                    acc.add(linear(&[n, n], c), *v);
                }
            }
            acc.tensor(vec![n, n])
        }
        Spec::Plus2(n) => {
            let dims = [n, n, n];
            for name in ["B", "C"] {
                for (c, v) in t(name).entries() {
                    acc.add(linear(&dims, c), *v);
                }
            }
            acc.tensor(dims.to_vec())
        }
        Spec::Sddmm(n, k) => {
            let cm = dense(t("C"));
            let dm = dense(t("D"));
            for (c, v) in t("B").entries() {
                let (i, j) = (c[0], c[1]);
                let key = linear(&[n, n], c);
                for kk in 0..k {
                    acc.add(key, v * cm[i * k + kk] * dm[kk * n + j]);
                }
            }
            acc.tensor(vec![n, n])
        }
        Spec::Ttv(d) => {
            let cv = dense(t("c"));
            for (c, v) in t("B").entries() {
                acc.add(linear(&d[..2], &c[..2]), v * cv[c[2]]);
            }
            acc.tensor(d[..2].to_vec())
        }
        Spec::Ttm(d, r) => {
            let cm = dense(t("C"));
            let dims = [d[0], d[1], r];
            for (c, v) in t("B").entries() {
                for k in 0..r {
                    acc.add(linear(&dims, &[c[0], c[1], k]), v * cm[k * d[2] + c[2]]);
                }
            }
            acc.tensor(dims.to_vec())
        }
        Spec::Mttkrp(d, r) => {
            let cm = dense(t("C"));
            let dm = dense(t("D"));
            for (c, v) in t("B").entries() {
                for j in 0..r {
                    let term = v * cm[j * d[1] + c[1]] * dm[j * d[2] + c[2]];
                    acc.add((c[0] * r + j) as u64, term);
                }
            }
            acc.tensor(vec![d[0], r])
        }
        Spec::InnerProd(n) => {
            let dims = [n, n, n];
            let b: HashMap<u64, f64> = t("B")
                .entries()
                .iter()
                .map(|(c, v)| (linear(&dims, c), *v))
                .collect();
            let (mut sum, mut mag) = (0.0, 0.0);
            for (c, v) in t("C").entries() {
                if let Some(bv) = b.get(&linear(&dims, c)) {
                    sum += bv * v;
                    mag += (bv * v).abs();
                }
            }
            Expected::Scalar(sum, mag)
        }
    }
}

fn close(got: f64, want: f64, mag: f64) -> bool {
    (got - want).abs() <= REL_TOL * mag
}

/// Checks a kernel output against the reference.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check(output: &KernelOutput, want: &Expected) -> Result<(), String> {
    match (output, want) {
        (KernelOutput::Scalar(got), Expected::Scalar(v, mag)) => {
            if close(*got, *v, *mag) {
                Ok(())
            } else {
                Err(format!("scalar {got} != reference {v}"))
            }
        }
        (KernelOutput::Tensor(t), Expected::Tensor { dims, entries }) => {
            if t.dims() != dims.as_slice() {
                return Err(format!("dims {:?} != reference {dims:?}", t.dims()));
            }
            t.validate().map_err(|e| format!("malformed output: {e}"))?;
            // `for_each_nonzero` skips stored zeros, so every reference
            // entry larger than its tolerance must be visited exactly
            // once; a valid tensor has no duplicate coordinates.
            let mut first_err = None;
            let mut significant = 0usize;
            t.for_each_nonzero(|c, got| {
                let key = linear(dims, c);
                let (v, mag) = entries.get(&key).copied().unwrap_or((0.0, 0.0));
                if !close(got, v, mag) {
                    first_err.get_or_insert_with(|| format!("{c:?}: {got} != reference {v}"));
                } else if !close(0.0, v, mag) {
                    significant += 1;
                }
            });
            if let Some(e) = first_err {
                return Err(e);
            }
            let want = entries
                .values()
                .filter(|(v, m)| !close(0.0, *v, *m))
                .count();
            if significant != want {
                return Err(format!(
                    "{significant} nonzeros match, reference has {want}"
                ));
            }
            Ok(())
        }
        _ => Err("output kind differs from the reference".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{self, Scale};
    use crate::trace::Tracer;
    use stardust_core::pipeline::TensorData;
    use stardust_ir::{eval, EvalContext};
    use stardust_tensor::DenseTensor;
    use std::time::Instant;

    /// The dense CIN oracle over every stage of the scheduled kernel.
    fn oracle(spec: Spec, set: &InputSet) -> EvalContext {
        let kernel = spec.build();
        let mut ctx = EvalContext::new();
        for (name, data) in &set.inputs {
            match data {
                TensorData::Scalar(v) => ctx.add_scalar(name.clone(), *v),
                TensorData::Sparse(t) => ctx.add_tensor(name.clone(), t.to_dense()),
            }
        }
        for stage in &kernel.stages {
            let out = stage.program.output();
            let decl = stage.program.decl(out).expect("output declared");
            if decl.is_scalar() {
                ctx.add_scalar(out.to_string(), 0.0);
            } else {
                ctx.add_tensor(out.to_string(), DenseTensor::zeros(decl.dims.clone()));
            }
            eval(&stage.stmt, &mut ctx).expect("oracle evaluates");
        }
        ctx
    }

    #[test]
    fn reference_matches_dense_oracle_on_every_kernel() {
        let mut t = Tracer::new(false, Instant::now());
        let suite = cases::table3(&Scale::ci(), 7, &mut t);
        assert_eq!(suite.cases.len(), 10);
        for (i, case) in suite.cases.iter().enumerate() {
            let set = &suite.sets[case.set];
            let want = expected(case.spec, set);
            let ctx = oracle(case.spec, set);
            let out = case.spec.build().output().to_string();
            match want {
                Expected::Scalar(v, mag) => {
                    let o = ctx.scalar(&out).expect("oracle scalar");
                    assert!(close(o, v, mag), "{}: {o} vs {v}", suite.label(i));
                }
                Expected::Tensor { dims, entries } => {
                    let o = ctx.tensor(&out).expect("oracle tensor");
                    assert_eq!(o.dims(), dims.as_slice());
                    let mut seen = 0;
                    for (k, v) in o.data().iter().enumerate() {
                        let (w, mag) = entries.get(&(k as u64)).copied().unwrap_or((0.0, 0.0));
                        assert!(
                            close(*v, w, mag.max(v.abs())),
                            "{} at {k}: {v} vs {w}",
                            suite.label(i)
                        );
                        seen += usize::from(entries.contains_key(&(k as u64)));
                    }
                    assert_eq!(
                        seen,
                        entries.len(),
                        "{}: reference keys out of range",
                        suite.label(i)
                    );
                }
            }
        }
    }

    #[test]
    fn check_accepts_the_pipeline_and_rejects_a_perturbed_output() {
        let mut t = Tracer::new(false, Instant::now());
        let suite = cases::table3(&Scale::ci(), 3, &mut t);
        for (i, case) in suite.cases.iter().enumerate() {
            let set = &suite.sets[case.set];
            let want = expected(case.spec, set);
            let got = case
                .spec
                .build()
                .run(&set.inputs)
                .expect("kernel runs")
                .output;
            check(&got, &want).unwrap_or_else(|e| panic!("{}: {e}", suite.label(i)));
            let bad = match got {
                KernelOutput::Scalar(v) => KernelOutput::Scalar(v * (1.0 + 1e-6)),
                KernelOutput::Tensor(t) => {
                    let mut vals = t.vals().to_vec();
                    let at = vals.iter().position(|v| *v != 0.0).expect("a nonzero");
                    vals[at] *= 1.0 + 1e-6;
                    let levels = (0..t.rank()).map(|l| t.level(l).clone()).collect();
                    KernelOutput::Tensor(
                        stardust_tensor::SparseTensor::from_parts(
                            t.dims().to_vec(),
                            t.format().clone(),
                            levels,
                            vals,
                        )
                        .expect("same structure"),
                    )
                }
            };
            assert!(
                check(&bad, &want).is_err(),
                "{}: perturbation not caught",
                suite.label(i)
            );
        }
    }
}
