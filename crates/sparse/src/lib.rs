//! Sparse matrices and linear solvers for the VAEM coupled FVM systems.
//!
//! The discretized coupled A–V system (paper eq. 8) is a large sparse,
//! non-symmetric, complex-valued matrix equation. This crate provides the
//! storage formats and solvers used throughout the workspace:
//!
//! * [`TripletMatrix`] — coordinate-format assembly buffer (the FVM assembly
//!   pushes one entry per flux contribution and lets the conversion sum
//!   duplicates).
//! * [`CsrMatrix`] — compressed sparse row storage with matrix–vector
//!   products, diagonal extraction, scaling and transposition.
//! * [`Ilu0`] — incomplete LU factorization with zero fill-in, used as a
//!   preconditioner.
//! * [`BiCgStab`] and [`Gmres`] — preconditioned Krylov solvers for the
//!   non-symmetric complex systems.
//! * [`SparseLu`] — a left-looking (Gilbert–Peierls style) direct sparse LU
//!   with partial pivoting, used as a robust fallback and for smaller meshes.
//! * [`SymbolicLu`] — the symbolic phase of the direct LU cached per
//!   [`SparsityPattern`] (fill-reducing ordering, pivot sequence, factor
//!   structure, supernode partition and elimination-level schedule) so
//!   repeated factorizations on one pattern pay only a supernode-blocked,
//!   optionally tree-parallel numeric cost.
//! * [`rcm`] and [`amd`] — reverse Cuthill–McKee and approximate minimum
//!   degree orderings; [`SymbolicLu`] keeps whichever [`predicted_fill`]
//!   scores better for the pattern at hand.
//! * [`LinearSolver`] — a front-end that picks a strategy and prepares a
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
mod gmres;
mod ilu;
mod lu;
pub mod ordering;
mod scaling;
mod solver;
mod symbolic;
mod triplet;

pub use bicgstab::{BiCgStab, BiCgStabWorkspace, KrylovOptions};
pub use csr::{CsrMatrix, SparsityPattern};
pub use error::SparseError;
pub use gmres::{Gmres, GmresWorkspace};
pub use ilu::Ilu0;
pub use lu::SparseLu;
pub use ordering::{amd, predicted_fill, rcm, OrderingKind};
pub use scaling::RowColScaling;
pub use solver::{IluSeed, LinearSolver, PreparedSolver, SolveReport, SolverKind};
pub use symbolic::SymbolicLu;
pub use triplet::TripletMatrix;
