//! Seeded inputs: the distinct problems of each workload, their
//! operands, the reference products and the per-client request streams.
//!
//! Everything here is a pure function of `(workload, seed)`; the
//! program under test only ever sees the generated matrices.

use crate::spec::Workload;
use fmm_core::GemmScalar;
use fmm_matrix::DenseMatrix;
use fmm_serve::WireScalar;

/// SplitMix64: small, fast, and fully specified, so a seed names the
/// same inputs on every machine and toolchain.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `[-1, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Element types the benchmark drives, with the per-dtype tolerance of
/// the correctness check.
pub trait Elem: GemmScalar + WireScalar {
    /// Allowed `max |C - C_ref|` per `sqrt(k)`, for operands uniform on
    /// `[-1, 1)`: far above the rounding error of the engine's plans on
    /// these inputs (about 1e-14 in f64), far below what one wrong
    /// entry adds.
    const TOL: f64;
    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
}

impl Elem for f64 {
    const TOL: f64 = 1e-10;
    fn from_f64(x: f64) -> Self {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
}

impl Elem for f32 {
    const TOL: f64 = 2e-3;
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dtype {
    F64,
    F32,
}

impl Dtype {
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F64 => "f64",
            Dtype::F32 => "f32",
        }
    }
}

/// One distinct problem of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub dtype: Dtype,
}

impl Shape {
    /// `2·m·k·n`, the classical flop count of Eq. 3.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.k as f64 * self.n as f64
    }

    pub fn label(&self) -> String {
        format!("{}x{}x{}/{}", self.m, self.k, self.n, self.dtype.name())
    }
}

/// Operands of one problem and the product every result is checked
/// against. `expected` is the classical product; on the fleet
/// workload it is replaced by an in-process engine product, which
/// fleet results must equal bit for bit.
pub struct Problem<T> {
    pub shape: Shape,
    pub a: DenseMatrix<T>,
    pub b: DenseMatrix<T>,
    pub expected: DenseMatrix<T>,
}

pub fn random_matrix<T: Elem>(rows: usize, cols: usize, rng: &mut Rng) -> DenseMatrix<T> {
    let data = (0..rows * cols).map(|_| T::from_f64(rng.unit())).collect();
    DenseMatrix::from_vec(rows, cols, data)
}

impl<T: Elem> Problem<T> {
    /// Operands from `rng`; with `reference`, the expected product from
    /// the classical parallel gemm (else an empty matrix).
    pub fn generate(shape: Shape, rng: &mut Rng, reference: bool) -> Self {
        let a = random_matrix::<T>(shape.m, shape.k, rng);
        let b = random_matrix::<T>(shape.k, shape.n, rng);
        let mut expected = DenseMatrix::zeros(0, 0);
        if reference {
            expected = DenseMatrix::zeros(shape.m, shape.n);
            fmm_gemm::par_gemm(T::ONE, a.as_ref(), b.as_ref(), T::ZERO, expected.as_mut());
        }
        Problem {
            shape,
            a,
            b,
            expected,
        }
    }

    /// Largest `|C - C_ref|` per `sqrt(k)`; NaN when shapes differ or
    /// any entry is not finite.
    pub fn error(&self, c: &DenseMatrix<T>) -> f64 {
        if c.shape() != self.expected.shape() {
            return f64::NAN;
        }
        let mut worst = 0.0f64;
        for (x, y) in c.as_slice().iter().zip(self.expected.as_slice()) {
            let d = (x.to_f64() - y.to_f64()).abs();
            if !d.is_finite() {
                return f64::NAN;
            }
            worst = worst.max(d);
        }
        worst / (self.shape.k as f64).sqrt()
    }

    /// The per-request correctness check under the dtype tolerance.
    pub fn within_tolerance(&self, c: &DenseMatrix<T>) -> bool {
        self.error(c) <= T::TOL
    }

    pub fn check(&self, c: &DenseMatrix<T>, bitwise: bool) -> bool {
        if bitwise {
            self.bitwise_equal(c)
        } else {
            self.within_tolerance(c)
        }
    }

    /// The fleet check: bitwise equality with `expected`.
    pub fn bitwise_equal(&self, c: &DenseMatrix<T>) -> bool {
        c.shape() == self.expected.shape()
            && c.as_slice()
                .iter()
                .zip(self.expected.as_slice())
                .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
    }
}

/// Problems of both dtypes behind one index space: entry `i` of a
/// stream names `shapes[i]`.
pub struct ProblemSet {
    pub shapes: Vec<Shape>,
    pub f64s: Vec<Problem<f64>>,
    pub f32s: Vec<Problem<f32>>,
    /// `slot[i]` is the position of problem `i` in `f64s` or `f32s`.
    pub slot: Vec<usize>,
}

pub enum ProblemRef<'a> {
    F64(&'a Problem<f64>),
    F32(&'a Problem<f32>),
}

impl ProblemSet {
    pub fn generate(shapes: &[Shape], seed: u64, reference: bool) -> Self {
        let mut set = ProblemSet {
            shapes: shapes.to_vec(),
            f64s: Vec::new(),
            f32s: Vec::new(),
            slot: Vec::new(),
        };
        for (i, &shape) in shapes.iter().enumerate() {
            let mut rng = Rng::new(seed ^ (0xa076_1d64_78bd_642f_u64.wrapping_mul(i as u64 + 1)));
            match shape.dtype {
                Dtype::F64 => {
                    set.slot.push(set.f64s.len());
                    set.f64s.push(Problem::generate(shape, &mut rng, reference));
                }
                Dtype::F32 => {
                    set.slot.push(set.f32s.len());
                    set.f32s.push(Problem::generate(shape, &mut rng, reference));
                }
            }
        }
        set
    }

    pub fn get(&self, i: usize) -> ProblemRef<'_> {
        match self.shapes[i].dtype {
            Dtype::F64 => ProblemRef::F64(&self.f64s[self.slot[i]]),
            Dtype::F32 => ProblemRef::F32(&self.f32s[self.slot[i]]),
        }
    }

    pub fn len(&self) -> usize {
        self.shapes.len()
    }
}

/// A workload's inputs: distinct shapes plus one request cycle per
/// client. Clients repeat their cycle until the run's time is up.
pub struct Plan {
    pub shapes: Vec<Shape>,
    pub cycles: Vec<Vec<usize>>,
}

/// Distinct shapes from `(m, k, n)` bases: every third one (from the
/// first) moves each dimension by one (up, or down from 512 and more),
/// to odd sizes that make dynamic peeling run.
fn shapes_from(bases: &[(usize, usize, usize)]) -> Vec<Shape> {
    let odd = |d: usize| if d >= 512 { d - 1 } else { d + 1 };
    bases
        .iter()
        .enumerate()
        .map(|(i, &(m, k, n))| match i % 3 {
            0 => Shape {
                m: odd(m),
                k: odd(k),
                n: odd(n),
                dtype: Dtype::F64,
            },
            _ => Shape {
                m,
                k,
                n,
                dtype: Dtype::F64,
            },
        })
        .collect()
}

/// The workload's shapes and request cycles. Shapes are fixed, so runs
/// of different seeds do the same work; the seed draws the operands
/// and the order each client sends its requests in.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ workload as u64);
    let mut permutation = |n: usize| {
        let mut c: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut c);
        c
    };
    match workload {
        Workload::GemmBound => {
            // The square and outer-product-like shapes of Fig. 5, in
            // both precisions. The f64 square runs twice per cycle: five
            // requests, an odd count, put the median latency inside one
            // shape's cluster (the f64 outer-product one) instead of
            // between two.
            let mut shapes = Vec::new();
            for dtype in [Dtype::F64, Dtype::F32] {
                shapes.push(Shape {
                    m: 1024,
                    k: 1024,
                    n: 1024,
                    dtype,
                });
                shapes.push(Shape {
                    m: 1536,
                    k: 384,
                    n: 1536,
                    dtype,
                });
            }
            let mut cycle = vec![0, 0, 1, 2, 3];
            rng.shuffle(&mut cycle);
            Plan {
                shapes,
                cycles: vec![cycle],
            }
        }
        Workload::EngineMixed => {
            // Square sizes 64–512, plus both rectangular orientations
            // from 128 up: 23 shapes, an odd count, so the median
            // latency falls inside one shape's cluster.
            let mut bases = Vec::new();
            for s in [64, 96, 128, 160, 192, 256, 320, 384, 512] {
                bases.push((s, s, s));
                if s >= 128 {
                    bases.push((s, s / 2, s));
                    bases.push((s / 2, s, s / 2));
                }
            }
            let shapes = shapes_from(&bases);
            let cycles = vec![permutation(shapes.len()), permutation(shapes.len())];
            Plan { shapes, cycles }
        }
        Workload::FleetRpc => {
            // Connection 0 sends tiny latency-bound requests of similar
            // cost (five shapes, an odd count, for a steady median);
            // connection 1 sends payload-heavy ones (k ≤ 32, m and n
            // 512–1024: megabyte frames, little compute).
            let shapes = shapes_from(&[
                (64, 64, 64),
                (48, 64, 80),
                (80, 48, 64),
                (64, 80, 48),
                (72, 56, 64),
                (1024, 4, 1024),
                (768, 2, 1024),
                (512, 4, 768),
                (1024, 2, 512),
            ]);
            let tiny: Vec<usize> = (0..5).collect();
            let mut light = Vec::new();
            for _ in 0..3 {
                let mut order = tiny.clone();
                rng.shuffle(&mut order);
                light.extend(order);
            }
            let mut heavy: Vec<usize> = (5..shapes.len()).collect();
            rng.shuffle(&mut heavy);
            Plan {
                shapes,
                cycles: vec![light, heavy],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: Workload, seed: u64) -> Vec<u8> {
        let p = plan(workload, seed);
        let mut bytes = format!("{:?}{:?}", p.shapes, p.cycles).into_bytes();
        // Inputs of the two smallest problems, bit for bit.
        let mut small: Vec<Shape> = p.shapes.clone();
        small.sort_by_key(|s| s.m * s.k * s.n);
        let set = ProblemSet::generate(&small[..2], seed, false);
        for prob in &set.f64s {
            for x in prob.a.as_slice().iter().chain(prob.b.as_slice()) {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
        }
        for prob in &set.f32s {
            for x in prob.a.as_slice().iter().chain(prob.b.as_slice()) {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
        }
        bytes
    }

    #[test]
    fn same_seed_gives_identical_streams_and_inputs() {
        for w in Workload::ALL {
            assert_eq!(fingerprint(w, 7), fingerprint(w, 7), "{}", w.name());
            assert_ne!(fingerprint(w, 7), fingerprint(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn shapes_stay_in_their_ranges() {
        for seed in 0..3 {
            let mixed = plan(Workload::EngineMixed, seed);
            for s in &mixed.shapes {
                for d in [s.m, s.k, s.n] {
                    assert!((64..=512).contains(&d), "{s:?}");
                }
            }
            let odd = mixed
                .shapes
                .iter()
                .filter(|s| s.m % 2 == 1 && s.k % 2 == 1 && s.n % 2 == 1)
                .count();
            assert!(3 * odd >= mixed.shapes.len(), "at least a third odd");
            let fleet = plan(Workload::FleetRpc, seed);
            for s in &fleet.shapes {
                let tiny = s.m.max(s.k).max(s.n) <= 96;
                let heavy = s.k <= 32 && (512..=1024).contains(&s.m) && (512..=1024).contains(&s.n);
                assert!(tiny || heavy, "{s:?}");
            }
        }
    }

    #[test]
    fn a_corrupted_product_fails_the_check() {
        let shape = Shape {
            m: 40,
            k: 33,
            n: 24,
            dtype: Dtype::F64,
        };
        let p = Problem::<f64>::generate(shape, &mut Rng::new(3), true);
        let mut c = p.expected.clone();
        assert!(p.within_tolerance(&c) && p.bitwise_equal(&c));
        c.as_mut_slice()[17] += 1e-3;
        assert!(!p.within_tolerance(&c));
        assert!(!p.bitwise_equal(&c));
        c.as_mut_slice()[17] = f64::NAN;
        assert!(!p.within_tolerance(&c));
    }
}
