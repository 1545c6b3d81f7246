//! Free functions operating on `Vec`/slice representations of vectors.
//!
//! Vectors are plain `Vec<T>` throughout the workspace; these helpers keep
//! the call sites compact without introducing a wrapper type.
//!
//! The reduction kernels (`dot`, `dotu`, `norm2`) and `axpy` dominate the
//! Krylov inner loops now that their workspaces are allocation-free, so
//! under the (default-on) `fast-vecops` feature they run as 4-lane unrolled
//! loops: four independent accumulators break the sequential dependency
//! chain of the scalar loop and let the compiler keep four FMA pipelines
//! busy. `axpy` is element-wise, so its unrolled form is bit-identical to
//! the scalar one; the reductions re-associate the sum, which changes
//! results only within the usual accumulation-order tolerance (the
//! property tests in this module bound the difference against the scalar
//! reference).
//!
//! Every reduction sums its terms through [`lane_sum`] (or [`lane_sum2`]
//! for two sums taken in one pass), the single definition of that
//! accumulation order. A loop that computes its terms itself — a fused
//! Krylov update that writes a vector and reduces it in the same pass —
//! therefore reproduces `dot`, `dotu` and `norm2` bit for bit.

use crate::Scalar;

/// Sums `term(0) + … + term(n − 1)` in the accumulation order of [`dot`],
/// [`dotu`] and [`norm2`], calling `term` once per index in ascending
/// order.
///
/// With the `fast-vecops` feature the first `n − n % 4` terms go to four
/// lanes, term `i` to lane `i % 4`, the rest to a tail, combined as
/// `(l0 + l1) + (l2 + l3) + tail`; without it the terms form one
/// sequential sum. Either way each lane starts from zero, so a fused loop
/// that produces the same terms gets the same bits as the standalone
/// reduction.
#[inline(always)]
pub fn lane_sum<A: Scalar>(n: usize, term: impl FnMut(usize) -> A) -> A {
    #[cfg(feature = "fast-vecops")]
    {
        lanes::four(n, A::zero(), |a, b| a + b, term)
    }
    #[cfg(not(feature = "fast-vecops"))]
    {
        lanes::sequential(n, A::zero(), |a, b| a + b, term)
    }
}

/// Two [`lane_sum`]s taken in one pass: `term(i)` yields the `i`-th term of
/// each, and each component is accumulated exactly as [`lane_sum`] would
/// accumulate it alone.
#[inline(always)]
pub fn lane_sum2<A: Scalar, B: Scalar>(n: usize, term: impl FnMut(usize) -> (A, B)) -> (A, B) {
    let zero = (A::zero(), B::zero());
    let add = |a: (A, B), b: (A, B)| (a.0 + b.0, a.1 + b.1);
    #[cfg(feature = "fast-vecops")]
    {
        lanes::four(n, zero, add, term)
    }
    #[cfg(not(feature = "fast-vecops"))]
    {
        lanes::sequential(n, zero, add, term)
    }
}

/// The two accumulation orders [`lane_sum`] selects between. Both are
/// always compiled (the property tests pin each against its reference
/// kernel); the feature flag only selects which one the public entry
/// points use, hence the `dead_code` allowance on the de-selected one.
#[allow(dead_code)]
mod lanes {
    #[inline(always)]
    pub fn four<A: Copy>(
        n: usize,
        zero: A,
        add: impl Fn(A, A) -> A,
        mut term: impl FnMut(usize) -> A,
    ) -> A {
        let mut lane = [zero; 4];
        let blocks = n / 4;
        for block in 0..blocks {
            let i = 4 * block;
            lane[0] = add(lane[0], term(i));
            lane[1] = add(lane[1], term(i + 1));
            lane[2] = add(lane[2], term(i + 2));
            lane[3] = add(lane[3], term(i + 3));
        }
        let mut tail = zero;
        for i in 4 * blocks..n {
            tail = add(tail, term(i));
        }
        add(add(add(lane[0], lane[1]), add(lane[2], lane[3])), tail)
    }

    #[inline(always)]
    pub fn sequential<A: Copy>(
        n: usize,
        zero: A,
        add: impl Fn(A, A) -> A,
        mut term: impl FnMut(usize) -> A,
    ) -> A {
        let mut acc = zero;
        for i in 0..n {
            acc = add(acc, term(i));
        }
        acc
    }
}

/// Inner product `⟨x, y⟩ = Σ conj(xᵢ)·yᵢ` (conjugate-linear in the first slot).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    lane_sum(x.len(), |i| x[i].conj() * y[i])
}

/// Unconjugated dot product `Σ xᵢ·yᵢ` (used by some Krylov recurrences).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dotu<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len(), "dotu: length mismatch");
    lane_sum(x.len(), |i| x[i] * y[i])
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2<T: Scalar>(x: &[T]) -> f64 {
    lane_sum(x.len(), |i| x[i].modulus_sqr()).sqrt()
}

/// Maximum modulus entry `‖x‖∞`.
pub fn norm_inf<T: Scalar>(x: &[T]) -> f64 {
    x.iter().map(|v| v.modulus()).fold(0.0, f64::max)
}

/// `y ← y + a·x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    #[cfg(feature = "fast-vecops")]
    {
        kernels::axpy_unrolled(a, x, y)
    }
    #[cfg(not(feature = "fast-vecops"))]
    {
        kernels::axpy_scalar(a, x, y)
    }
}

/// The scalar and 4-lane-unrolled `axpy` behind the public entry point,
/// plus the standalone reduction loops [`lane_sum`] replaced, kept as the
/// test references it must reproduce bit for bit. Both `axpy` variants are
/// always compiled (the property tests compare them directly); the feature
/// flag only selects which one `axpy` dispatches to, hence the `dead_code`
/// allowance on the de-selected half.
#[allow(dead_code)]
mod kernels {
    use crate::Scalar;

    #[cfg(test)]
    pub fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
        let mut acc = T::zero();
        for (a, b) in x.iter().zip(y.iter()) {
            acc += a.conj() * *b;
        }
        acc
    }

    #[cfg(test)]
    pub fn dot_unrolled<T: Scalar>(x: &[T], y: &[T]) -> T {
        let mut acc = [T::zero(); 4];
        let (xc, xr) = x.split_at(x.len() - x.len() % 4);
        let (yc, yr) = y.split_at(x.len() - x.len() % 4);
        for (a, b) in xc.chunks_exact(4).zip(yc.chunks_exact(4)) {
            acc[0] += a[0].conj() * b[0];
            acc[1] += a[1].conj() * b[1];
            acc[2] += a[2].conj() * b[2];
            acc[3] += a[3].conj() * b[3];
        }
        let mut tail = T::zero();
        for (a, b) in xr.iter().zip(yr.iter()) {
            tail += a.conj() * *b;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    #[cfg(test)]
    pub fn dotu_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
        let mut acc = T::zero();
        for (a, b) in x.iter().zip(y.iter()) {
            acc += *a * *b;
        }
        acc
    }

    #[cfg(test)]
    pub fn dotu_unrolled<T: Scalar>(x: &[T], y: &[T]) -> T {
        let mut acc = [T::zero(); 4];
        let (xc, xr) = x.split_at(x.len() - x.len() % 4);
        let (yc, yr) = y.split_at(x.len() - x.len() % 4);
        for (a, b) in xc.chunks_exact(4).zip(yc.chunks_exact(4)) {
            acc[0] += a[0] * b[0];
            acc[1] += a[1] * b[1];
            acc[2] += a[2] * b[2];
            acc[3] += a[3] * b[3];
        }
        let mut tail = T::zero();
        for (a, b) in xr.iter().zip(yr.iter()) {
            tail += *a * *b;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    #[cfg(test)]
    pub fn sumsq_scalar<T: Scalar>(x: &[T]) -> f64 {
        x.iter().map(|v| v.modulus_sqr()).sum::<f64>()
    }

    #[cfg(test)]
    pub fn sumsq_unrolled<T: Scalar>(x: &[T]) -> f64 {
        let mut acc = [0.0_f64; 4];
        let (xc, xr) = x.split_at(x.len() - x.len() % 4);
        for a in xc.chunks_exact(4) {
            acc[0] += a[0].modulus_sqr();
            acc[1] += a[1].modulus_sqr();
            acc[2] += a[2].modulus_sqr();
            acc[3] += a[3].modulus_sqr();
        }
        let tail: f64 = xr.iter().map(|v| v.modulus_sqr()).sum();
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    pub fn axpy_scalar<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
        for (yi, xi) in y.iter_mut().zip(x.iter()) {
            *yi += a * *xi;
        }
    }

    pub fn axpy_unrolled<T: Scalar>(a: T, x: &[T], y: &mut [T]) {
        let split = x.len() - x.len() % 4;
        let (xc, xr) = x.split_at(split);
        let (yc, yr) = y.split_at_mut(split);
        for (b, v) in yc.chunks_exact_mut(4).zip(xc.chunks_exact(4)) {
            b[0] += a * v[0];
            b[1] += a * v[1];
            b[2] += a * v[2];
            b[3] += a * v[3];
        }
        for (yi, xi) in yr.iter_mut().zip(xr.iter()) {
            *yi += a * *xi;
        }
    }
}

/// `x ← a·x`.
pub fn scale_in_place<T: Scalar>(a: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Element-wise difference `x - y` as a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub<T: Scalar>(x: &[T], y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| *a - *b).collect()
}

/// Element-wise sum `x + y` as a new vector.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add<T: Scalar>(x: &[T], y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y.iter()).map(|(a, b)| *a + *b).collect()
}

/// Converts a real vector into a vector of scalars of type `T`.
pub fn from_real<T: Scalar>(x: &[f64]) -> Vec<T> {
    x.iter().map(|&v| T::from_f64(v)).collect()
}

/// Extracts the real parts of a vector of scalars.
pub fn to_real<T: Scalar>(x: &[T]) -> Vec<f64> {
    x.iter().map(|v| v.real()).collect()
}

/// Relative difference `‖x - y‖₂ / max(‖y‖₂, floor)`.
///
/// `floor` guards against division by (near-)zero reference norms.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn relative_diff<T: Scalar>(x: &[T], y: &[T], floor: f64) -> f64 {
    let d = sub(x, y);
    norm2(&d) / norm2(y).max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn dot_conjugates_first_argument() {
        let x = vec![Complex64::new(0.0, 1.0)];
        let y = vec![Complex64::new(0.0, 1.0)];
        // conj(i) * i = -i * i = 1
        assert_eq!(dot(&x, &y), Complex64::ONE);
        // unconjugated: i * i = -1
        assert_eq!(dotu(&x, &y), Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn norms() {
        let x = vec![3.0, 4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0]);
        scale_in_place(0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.5, 0.5, 0.5];
        assert_eq!(add(&sub(&x, &y), &y), x);
    }

    #[test]
    fn relative_diff_of_identical_vectors_is_zero() {
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(relative_diff(&x, &x, 1e-30), 0.0);
    }

    #[test]
    fn real_conversions() {
        let r = vec![1.0, 2.0];
        let c: Vec<Complex64> = from_real(&r);
        assert_eq!(c[1], Complex64::new(2.0, 0.0));
        assert_eq!(to_real(&c), r);
    }

    mod fast_kernels {
        //! Property tests pinning the unrolled kernels to the scalar
        //! reference: `axpy` bit-identical (element-wise, no
        //! re-association), the reductions within an accumulation-order
        //! error bound of `Σ|xᵢ||yᵢ|`, and the lane accumulator bit-identical
        //! to both reduction loops it replaced.
        use super::super::{kernels, lanes};
        use crate::{Complex64, Scalar};
        use proptest::prelude::*;

        /// Deterministic pseudo-random test vector (length varies per case).
        fn vector(seed: u64, len: usize, spread: f64) -> Vec<f64> {
            (0..len)
                .map(|i| {
                    let t = (seed as f64 * 0.61 + i as f64 * 1.37).sin();
                    let m = (spread * (seed as f64 * 0.29 + i as f64 * 0.83).cos()).exp();
                    t * m
                })
                .collect()
        }

        fn complex_vector(seed: u64, len: usize, spread: f64) -> Vec<Complex64> {
            let re = vector(seed, len, spread);
            let im = vector(seed.wrapping_add(101), len, spread);
            re.into_iter()
                .zip(im)
                .map(|(r, i)| Complex64::new(r, i))
                .collect()
        }

        /// Accumulation-order error bound: `cases × ε × Σ|xᵢ|·|yᵢ|`.
        fn bound<T: Scalar>(x: &[T], y: &[T]) -> f64 {
            let magnitude: f64 = x
                .iter()
                .zip(y.iter())
                .map(|(a, b)| a.modulus() * b.modulus())
                .sum();
            (x.len() as f64 + 4.0) * f64::EPSILON * magnitude + 1e-300
        }

        /// Pins the lane accumulator to the standalone loops it replaced,
        /// bit for bit: the 4-lane order to the unrolled kernels, the
        /// sequential order to the scalar ones, the public reductions to
        /// the order the `fast-vecops` feature selects, and [`lane_sum2`]
        /// to two separate sums. `bits` maps a scalar to its bit pattern.
        ///
        /// [`lane_sum2`]: super::super::lane_sum2
        fn assert_lanes_reproduce_the_references<T: Scalar>(
            x: &[T],
            y: &[T],
            bits: impl Fn(T) -> Vec<u64>,
        ) {
            use super::super::{dot, dotu, lane_sum2, norm2};
            let n = x.len();
            let add = |a: T, b: T| a + b;
            let addf = |a: f64, b: f64| a + b;
            let dot_term = |i: usize| x[i].conj() * y[i];
            let dotu_term = |i: usize| x[i] * y[i];
            let sq_term = |i: usize| x[i].modulus_sqr();

            let dot4 = lanes::four(n, T::zero(), add, dot_term);
            let dotu4 = lanes::four(n, T::zero(), add, dotu_term);
            let sq4 = lanes::four(n, 0.0, addf, sq_term);
            assert_eq!(bits(dot4), bits(kernels::dot_unrolled(x, y)));
            assert_eq!(bits(dotu4), bits(kernels::dotu_unrolled(x, y)));
            assert_eq!(sq4.to_bits(), kernels::sumsq_unrolled(x).to_bits());

            let dot1 = lanes::sequential(n, T::zero(), add, dot_term);
            let dotu1 = lanes::sequential(n, T::zero(), add, dotu_term);
            let sq1 = lanes::sequential(n, 0.0, addf, sq_term);
            assert_eq!(bits(dot1), bits(kernels::dot_scalar(x, y)));
            assert_eq!(bits(dotu1), bits(kernels::dotu_scalar(x, y)));
            if n > 0 {
                assert_eq!(sq1.to_bits(), kernels::sumsq_scalar(x).to_bits());
            } else {
                // `Iterator::sum` of no floats is −0.0; the lanes start at
                // +0.0, as the dot products always did.
                assert_eq!(sq1, kernels::sumsq_scalar(x));
            }

            let (want_dot, want_dotu, want_sq) = if cfg!(feature = "fast-vecops") {
                (dot4, dotu4, sq4)
            } else {
                (dot1, dotu1, sq1)
            };
            assert_eq!(bits(dot(x, y)), bits(want_dot));
            assert_eq!(bits(dotu(x, y)), bits(want_dotu));
            assert_eq!(norm2(x).to_bits(), want_sq.sqrt().to_bits());
            let (fused_dot, fused_sq) = lane_sum2(n, |i| (dot_term(i), sq_term(i)));
            assert_eq!(bits(fused_dot), bits(want_dot));
            assert_eq!(fused_sq.to_bits(), want_sq.to_bits());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn real_reductions_match_the_scalar_reference(
                seed in 0u64..10_000,
                len in 0usize..67,
                spread in 0.0f64..6.0,
            ) {
                let x = vector(seed, len, spread);
                let y = vector(seed.wrapping_add(7), len, spread);
                let err = (kernels::dot_unrolled(&x, &y) - kernels::dot_scalar(&x, &y)).abs();
                prop_assert!(err <= bound(&x, &y), "dot err {err}");
                let erru = (kernels::dotu_unrolled(&x, &y) - kernels::dotu_scalar(&x, &y)).abs();
                prop_assert!(erru <= bound(&x, &y), "dotu err {erru}");
                let errn = (kernels::sumsq_unrolled(&x) - kernels::sumsq_scalar(&x)).abs();
                prop_assert!(errn <= bound(&x, &x), "sumsq err {errn}");
            }

            #[test]
            fn complex_reductions_match_the_scalar_reference(
                seed in 0u64..10_000,
                len in 0usize..67,
                spread in 0.0f64..6.0,
            ) {
                let x = complex_vector(seed, len, spread);
                let y = complex_vector(seed.wrapping_add(13), len, spread);
                let err = (kernels::dot_unrolled(&x, &y) - kernels::dot_scalar(&x, &y)).abs();
                prop_assert!(err <= 2.0 * bound(&x, &y), "dot err {err}");
                let erru = (kernels::dotu_unrolled(&x, &y) - kernels::dotu_scalar(&x, &y)).abs();
                prop_assert!(erru <= 2.0 * bound(&x, &y), "dotu err {erru}");
                let errn = (kernels::sumsq_unrolled(&x) - kernels::sumsq_scalar(&x)).abs();
                prop_assert!(errn <= 2.0 * bound(&x, &x), "sumsq err {errn}");
            }

            #[test]
            fn lane_accumulator_reproduces_the_reductions_bit_for_bit(
                seed in 0u64..10_000,
                len in 0usize..67,
                spread in 0.0f64..6.0,
            ) {
                let x = vector(seed, len, spread);
                let y = vector(seed.wrapping_add(7), len, spread);
                assert_lanes_reproduce_the_references(&x, &y, |v| vec![v.to_bits()]);
                let cx = complex_vector(seed, len, spread);
                let cy = complex_vector(seed.wrapping_add(13), len, spread);
                assert_lanes_reproduce_the_references(&cx, &cy, |v| {
                    vec![v.re.to_bits(), v.im.to_bits()]
                });
            }

            #[test]
            fn axpy_is_bitwise_identical_to_the_scalar_loop(
                seed in 0u64..10_000,
                len in 0usize..67,
                a in -3.0f64..3.0,
            ) {
                let x = vector(seed, len, 2.0);
                let base = vector(seed.wrapping_add(3), len, 2.0);
                let mut fast = base.clone();
                let mut slow = base;
                kernels::axpy_unrolled(a, &x, &mut fast);
                kernels::axpy_scalar(a, &x, &mut slow);
                let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
                let slow_bits: Vec<u64> = slow.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(fast_bits, slow_bits);

                let cx = complex_vector(seed, len, 2.0);
                let cbase = complex_vector(seed.wrapping_add(3), len, 2.0);
                let ca = Complex64::new(a, -0.5 * a);
                let mut cfast = cbase.clone();
                let mut cslow = cbase;
                kernels::axpy_unrolled(ca, &cx, &mut cfast);
                kernels::axpy_scalar(ca, &cx, &mut cslow);
                let cfast_bits: Vec<u64> = cfast
                    .iter()
                    .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                    .collect();
                let cslow_bits: Vec<u64> = cslow
                    .iter()
                    .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                    .collect();
                prop_assert_eq!(cfast_bits, cslow_bits);
            }
        }
    }
}
