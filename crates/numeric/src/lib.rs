//! Dense numerical kernels for the variation-aware EM–semiconductor solver.
//!
//! This crate is the lowest layer of the VAEM workspace. It provides, from
//! scratch (no external linear-algebra dependencies):
//!
//! * [`Complex64`] — double-precision complex arithmetic used by the
//!   frequency-domain coupled solver.
//! * [`Scalar`] — a small trait abstracting over `f64` and [`Complex64`] so
//!   that matrix assembly and linear solvers can be written once.
//! * [`dense`] — dense matrices plus Cholesky, QR, symmetric Jacobi
//!   eigendecomposition and one-sided Jacobi SVD (used by the PFA/wPFA
//!   variable-reduction step, the polynomial-chaos fit and the
//!   Gauss–Hermite rule construction).
//! * [`poly`] — probabilists' Hermite polynomials and Gauss–Hermite
//!   quadrature rules (the backbone of the spectral stochastic collocation
//!   method).
//! * [`stats`] — running statistics (Welford), sample moments and comparison
//!   helpers used when comparing SSCM against Monte Carlo.
//!
//! # Example
//!
//! ```
//! use vaem_numeric::{Complex64, dense::{Cholesky, DMatrix}};
//!
//! let a = DMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
//! let b = vec![1.0, 0.0];
//! let x = Cholesky::new(&a)?.solve(&b)?;
//! assert!((a.matvec(&x)[0] - b[0]).abs() < 1e-12);
//! assert_eq!(Complex64::new(3.0, 4.0).abs(), 5.0);
//! # Ok::<(), vaem_numeric::NumericError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod complex;
pub mod dense;
pub mod error;
pub mod panel;
pub mod poly;
pub mod scalar;
pub mod stats;
pub mod vecops;

pub use complex::Complex64;
pub use error::NumericError;
pub use scalar::Scalar;
