//! Per-node doping profiles including the random doping fluctuation hook.

use crate::SiliconParams;
use vaem_mesh::NodeId;

/// Donor/acceptor concentrations assigned to every mesh node (µm⁻³).
///
/// Nodes outside the semiconductor are simply carried with zero doping; the
/// FVM layer only queries semiconductor nodes.
///
/// The random doping fluctuation (RDF) variation of the paper perturbs the
/// donor concentration node-by-node with a correlated relative deviation;
/// [`DopingProfile::perturbed`] applies such a deviation vector.
///
/// # Example
/// ```
/// use vaem_mesh::NodeId;
/// use vaem_physics::DopingProfile;
///
/// let nodes = vec![NodeId(3), NodeId(7)];
/// let profile = DopingProfile::uniform_donor(10, &nodes, 1.0e5);
/// assert_eq!(profile.donor(NodeId(3)), 1.0e5);
/// assert_eq!(profile.donor(NodeId(0)), 0.0);
/// let perturbed = profile.perturbed(&[(NodeId(3), 0.10)]);
/// assert!((perturbed.donor(NodeId(3)) - 1.1e5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DopingProfile {
    donor: Vec<f64>,
    acceptor: Vec<f64>,
}

impl DopingProfile {
    /// Creates an undoped profile covering `node_count` nodes.
    pub fn undoped(node_count: usize) -> Self {
        Self {
            donor: vec![0.0; node_count],
            acceptor: vec![0.0; node_count],
        }
    }

    /// Creates a profile with uniform donor doping `nd` on the given nodes
    /// and zero elsewhere.
    pub fn uniform_donor(node_count: usize, nodes: &[NodeId], nd: f64) -> Self {
        let mut p = Self::undoped(node_count);
        for &n in nodes {
            p.donor[n.index()] = nd;
        }
        p
    }

    /// Creates a profile with uniform acceptor doping `na` on the given nodes.
    pub fn uniform_acceptor(node_count: usize, nodes: &[NodeId], na: f64) -> Self {
        let mut p = Self::undoped(node_count);
        for &n in nodes {
            p.acceptor[n.index()] = na;
        }
        p
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.donor.len()
    }

    /// Returns `true` if the profile covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.donor.is_empty()
    }

    /// Donor concentration at a node (µm⁻³).
    #[inline]
    pub fn donor(&self, node: NodeId) -> f64 {
        self.donor[node.index()]
    }

    /// Acceptor concentration at a node (µm⁻³).
    #[inline]
    pub fn acceptor(&self, node: NodeId) -> f64 {
        self.acceptor[node.index()]
    }

    /// Net doping `N_D − N_A` at a node (µm⁻³).
    #[inline]
    pub fn net(&self, node: NodeId) -> f64 {
        self.donor[node.index()] - self.acceptor[node.index()]
    }

    /// Sets the donor concentration at a node.
    pub fn set_donor(&mut self, node: NodeId, nd: f64) {
        self.donor[node.index()] = nd;
    }

    /// Sets the acceptor concentration at a node.
    pub fn set_acceptor(&mut self, node: NodeId, na: f64) {
        self.acceptor[node.index()] = na;
    }

    /// Returns a copy with relative perturbations applied to the donor
    /// concentration: each `(node, delta)` maps `N_D ← N_D·(1 + delta)`.
    /// The concentration is floored at zero (a fluctuation cannot make the
    /// doping negative).
    pub fn perturbed(&self, relative_deltas: &[(NodeId, f64)]) -> Self {
        let mut out = self.clone();
        for &(node, delta) in relative_deltas {
            let v = out.donor[node.index()] * (1.0 + delta);
            out.donor[node.index()] = v.max(0.0);
        }
        out
    }

    /// Equilibrium carrier densities `(n0, p0)` at a node for the given
    /// silicon parameters.
    pub fn equilibrium_at(&self, node: NodeId, silicon: &SiliconParams) -> (f64, f64) {
        silicon.equilibrium_densities(self.donor(node), self.acceptor(node))
    }

    /// Mean donor concentration over the given nodes (used for reporting).
    pub fn mean_donor(&self, nodes: &[NodeId]) -> f64 {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|&n| self.donor(n)).sum::<f64>() / nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_covers_only_listed_nodes() {
        let nodes = vec![NodeId(1), NodeId(2)];
        let p = DopingProfile::uniform_donor(4, &nodes, 2.0e5);
        assert_eq!(p.donor(NodeId(0)), 0.0);
        assert_eq!(p.donor(NodeId(1)), 2.0e5);
        assert_eq!(p.net(NodeId(2)), 2.0e5);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn perturbation_is_relative_and_floored() {
        let nodes = vec![NodeId(0)];
        let p = DopingProfile::uniform_donor(2, &nodes, 1.0e5);
        let q = p.perturbed(&[(NodeId(0), -0.2), (NodeId(1), 0.5)]);
        assert!((q.donor(NodeId(0)) - 8.0e4).abs() < 1e-6);
        // Node 1 had zero doping; stays zero.
        assert_eq!(q.donor(NodeId(1)), 0.0);
        // Extreme negative fluctuation floors at zero.
        let r = p.perturbed(&[(NodeId(0), -1.5)]);
        assert_eq!(r.donor(NodeId(0)), 0.0);
    }

    #[test]
    fn acceptor_profile_and_net() {
        let nodes = vec![NodeId(0), NodeId(1)];
        let mut p = DopingProfile::uniform_acceptor(2, &nodes, 3.0e4);
        p.set_donor(NodeId(1), 5.0e4);
        assert_eq!(p.net(NodeId(0)), -3.0e4);
        assert_eq!(p.net(NodeId(1)), 2.0e4);
    }

    #[test]
    fn equilibrium_at_uses_silicon_params() {
        let si = SiliconParams::default();
        let nodes = vec![NodeId(0)];
        let p = DopingProfile::uniform_donor(1, &nodes, 1.0e5);
        let (n0, p0) = p.equilibrium_at(NodeId(0), &si);
        assert!(n0 > p0);
    }

    #[test]
    fn mean_donor_over_nodes() {
        let nodes = vec![NodeId(0), NodeId(1)];
        let mut p = DopingProfile::uniform_donor(2, &nodes, 1.0e5);
        p.set_donor(NodeId(1), 3.0e5);
        assert!((p.mean_donor(&nodes) - 2.0e5).abs() < 1e-9);
        assert_eq!(p.mean_donor(&[]), 0.0);
    }
}
