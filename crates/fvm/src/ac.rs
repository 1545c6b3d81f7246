//! Frequency-domain (AC small-signal) solution container.

use vaem_mesh::{LinkId, NodeId};
use vaem_numeric::Complex64;

/// Result of the frequency-domain coupled solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSolution {
    /// Complex node potentials (V) for the applied excitation.
    pub potential: Vec<Complex64>,
    /// Complex link admittance factors `y·g` (S) actually used in the
    /// assembly, kept so post-processing computes currents consistently with
    /// the discretization.
    pub link_admittance: Vec<Complex64>,
    /// Angular frequency ω (rad/s) of the solve.
    pub omega: f64,
    /// Name of the driven terminal.
    pub driven_terminal: String,
    /// Linear-solver strategy that produced the solution.
    pub solver_strategy: &'static str,
    /// Relative residual reported by the linear solver.
    pub linear_residual: f64,
    /// Krylov iterations the linear solver spent on this solution (0 for a
    /// direct solve).
    pub krylov_iterations: usize,
}

impl AcSolution {
    /// Complex potential at a node.
    #[inline]
    pub fn potential_at(&self, node: NodeId) -> Complex64 {
        self.potential[node.index()]
    }

    /// Link admittance (`y·dual_area/length`, in S) used in the assembly.
    #[inline]
    pub fn admittance_at(&self, link: LinkId) -> Complex64 {
        self.link_admittance[link.index()]
    }

    /// Frequency in Hz.
    pub fn frequency(&self) -> f64 {
        self.omega / (2.0 * std::f64::consts::PI)
    }
}
