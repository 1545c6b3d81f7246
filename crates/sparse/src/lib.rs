//! Sparse matrices and linear solvers for the VAEM coupled FVM systems.
//!
//! The discretized coupled A–V system (paper eq. 8) is a large sparse,
//! non-symmetric, complex-valued matrix equation. This crate provides the
//! storage formats and solvers used throughout the workspace:
//!
//! * [`TripletMatrix`] — coordinate-format assembly buffer whose conversion
//!   sums duplicates; the FVM solver builds each stage's pattern with it
//!   once and then writes values straight into their CSR slots.
//! * [`CsrMatrix`] — compressed sparse row storage with matrix–vector
//!   products, diagonal extraction, scaling and transposition.
//! * [`Ilu0`] — incomplete LU factorization with zero fill-in, used as a
//!   preconditioner; its factors are stored in level order so the
//!   triangular sweeps run independent rows back to back.
//! * [`BiCgStab`] — the preconditioned Krylov solver for the
//!   non-symmetric complex systems.
//! * [`SymbolicLu`] — the direct sparse LU: a left-looking (Gilbert–Peierls
//!   style) factorization with partial pivoting whose symbolic phase
//!   (fill-reducing ordering, pivot sequence, factor structure and
//!   supernode partition) is cached per [`SparsityPattern`], so repeated
//!   factorizations on one pattern pay only a serial, supernode-blocked
//!   numeric cost. Its [`SparseLu`] factors share that recorded structure
//!   and answer the triangular solves.
//! * [`amd`] — the approximate-minimum-degree ordering [`SymbolicLu`]
//!   applies to every pattern.
//! * [`LinearSolver`] — a front-end that picks a strategy (the direct LU,
//!   or ILU(0)+BiCGSTAB with a direct-LU rescue) and prepares a
//!   [`PreparedSolver`], whose solves report [`SolveReport`] statistics.
//!
//! # Example
//!
//! ```
//! use vaem_sparse::{TripletMatrix, LinearSolver, SolverKind};
//!
//! // 1-D Poisson matrix.
//! let n = 50;
//! let mut t = TripletMatrix::new(n, n);
//! for i in 0..n {
//!     t.push(i, i, 2.0);
//!     if i > 0 {
//!         t.push(i, i - 1, -1.0);
//!     }
//!     if i + 1 < n {
//!         t.push(i, i + 1, -1.0);
//!     }
//! }
//! let a = t.to_csr();
//! let b = vec![1.0; n];
//! let solver = LinearSolver::new(SolverKind::Auto);
//! let (x, report) = solver.prepare(&a)?.solve(&b)?;
//! assert!(report.residual_norm < 1e-8);
//! assert_eq!(x.len(), n);
//! # Ok::<(), vaem_sparse::SparseError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bicgstab;
mod csr;
mod error;
mod ilu;
mod lu;
pub mod ordering;
mod scaling;
mod solver;
mod symbolic;
#[cfg(test)]
mod test_support;
mod triplet;

pub use bicgstab::{BiCgStab, BiCgStabWorkspace, KrylovOptions};
pub use csr::{CsrMatrix, SparsityPattern};
pub use error::SparseError;
pub use ilu::Ilu0;
pub use lu::SparseLu;
pub use ordering::amd;
pub use scaling::RowColScaling;
pub use solver::{IluSeed, LinearSolver, PreparedSolver, SolveReport, SolverKind};
pub use symbolic::SymbolicLu;
pub use triplet::TripletMatrix;
