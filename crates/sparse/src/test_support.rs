//! Test-only helpers shared by the bit-identity tests of the Krylov
//! kernels: random systems and `to_bits` comparisons.

use crate::CsrMatrix;
use vaem_numeric::{Complex64, Scalar};

/// A scalar whose bit pattern a test can compare.
pub(crate) trait Bits: Scalar {
    /// The `to_bits` of every real part of the value.
    fn push_bits(self, out: &mut Vec<u64>);
}

impl Bits for f64 {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl Bits for Complex64 {
    fn push_bits(self, out: &mut Vec<u64>) {
        out.push(self.re.to_bits());
        out.push(self.im.to_bits());
    }
}

/// The bit patterns of a vector, for exact comparisons.
pub(crate) fn bits<T: Bits>(x: &[T]) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 * x.len());
    for &v in x {
        v.push_bits(&mut out);
    }
    out
}

/// A random diagonally dominant `n × n` system: a structural diagonal plus
/// up to four random off-diagonal entries per row. Every third row reads
/// only columns to its right, so the pattern always has rows without lower
/// entries. `value(re, im)` turns two numbers into a scalar; the
/// off-diagonal ones are drawn from [−1, 1).
pub(crate) fn random_system<T: Scalar>(
    n: usize,
    seed: u64,
    value: impl Fn(f64, f64) -> T,
) -> CsrMatrix<T> {
    // splitmix64
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut unit = || (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    let mut triplets = Vec::new();
    for i in 0..n {
        let mut off_sum = 0.0;
        for _ in 0..4 {
            let pick = (unit() + 1.0) / 2.0;
            let c = if i % 3 == 0 {
                if i + 1 == n {
                    continue;
                }
                i + 1 + (pick * (n - i - 1) as f64) as usize
            } else {
                (pick * n as f64) as usize
            };
            if c == i || c >= n {
                continue;
            }
            let v = value(unit(), unit());
            off_sum += v.modulus();
            triplets.push((i, c, v));
        }
        triplets.push((i, i, value(off_sum + 1.0, 0.5)));
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}
