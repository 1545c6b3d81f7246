//! Dense matrices and factorizations.
//!
//! The dense kernels are used for:
//! * covariance matrices of the correlated process variations
//!   (Cholesky sampling, eigendecomposition for PFA),
//! * the weighted-covariance SVD of the wPFA reduction,
//! * Gauss–Hermite rule construction (symmetric tridiagonal eigenproblem),
//! * the least-squares fit of the polynomial-chaos coefficients (QR).

mod cholesky;
mod eigen;
mod matrix;
mod qr;
mod svd;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use matrix::DMatrix;
pub use qr::Qr;
pub use svd::Svd;
