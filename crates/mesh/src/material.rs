//! Material tags for mesh nodes.

use crate::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Material occupying (the dual cell of) a mesh node.
///
/// The paper's hybrid structures mix exactly these three classes: metal
/// (TSV barrels, plugs, traces), insulator (inter-layer dielectric, liner)
/// and semiconductor (the doped silicon substrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Material {
    /// Highly conductive metal (copper/tungsten plug, trace, TSV fill).
    Metal,
    /// Dielectric / insulating material (SiO₂-like).
    Insulator,
    /// Doped semiconductor (silicon substrate).
    Semiconductor,
}

impl Material {
    /// Returns `true` for [`Material::Metal`].
    pub fn is_metal(self) -> bool {
        matches!(self, Material::Metal)
    }

    /// Returns `true` for [`Material::Semiconductor`].
    pub fn is_semiconductor(self) -> bool {
        matches!(self, Material::Semiconductor)
    }

    /// Returns `true` for [`Material::Insulator`].
    pub fn is_insulator(self) -> bool {
        matches!(self, Material::Insulator)
    }
}

impl fmt::Display for Material {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Material::Metal => write!(f, "metal"),
            Material::Insulator => write!(f, "insulator"),
            Material::Semiconductor => write!(f, "semiconductor"),
        }
    }
}

/// Per-node material assignment for a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterialMap {
    materials: Vec<Material>,
}

impl MaterialMap {
    /// Creates a map with every node set to `default`.
    pub fn new(node_count: usize, default: Material) -> Self {
        Self {
            materials: vec![default; node_count],
        }
    }

    /// Creates a map from an explicit per-node vector.
    pub fn from_vec(materials: Vec<Material>) -> Self {
        Self { materials }
    }

    /// Number of nodes covered by the map.
    pub fn len(&self) -> usize {
        self.materials.len()
    }

    /// Returns `true` if the map covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.materials.is_empty()
    }

    /// Material of a node.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    #[inline]
    pub fn material(&self, node: NodeId) -> Material {
        self.materials[node.index()]
    }

    /// Sets the material of a node.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    #[inline]
    pub fn set(&mut self, node: NodeId, material: Material) {
        self.materials[node.index()] = material;
    }

    /// All node ids with the given material.
    pub fn nodes_of(&self, material: Material) -> Vec<NodeId> {
        self.materials
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| (m == material).then_some(NodeId(i)))
            .collect()
    }

    /// Number of nodes of each material `(metal, insulator, semiconductor)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut metal = 0;
        let mut insulator = 0;
        let mut semi = 0;
        for m in &self.materials {
            match m {
                Material::Metal => metal += 1,
                Material::Insulator => insulator += 1,
                Material::Semiconductor => semi += 1,
            }
        }
        (metal, insulator, semi)
    }

    /// Immutable access to the underlying per-node vector.
    pub fn as_slice(&self) -> &[Material] {
        &self.materials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_and_display() {
        assert!(Material::Metal.is_metal());
        assert!(!Material::Metal.is_semiconductor());
        assert!(Material::Semiconductor.is_semiconductor());
        assert!(Material::Insulator.is_insulator());
        assert_eq!(Material::Semiconductor.to_string(), "semiconductor");
    }

    #[test]
    fn map_set_get_and_counts() {
        let mut map = MaterialMap::new(5, Material::Insulator);
        map.set(NodeId(0), Material::Metal);
        map.set(NodeId(4), Material::Semiconductor);
        assert_eq!(map.material(NodeId(0)), Material::Metal);
        assert_eq!(map.material(NodeId(1)), Material::Insulator);
        assert_eq!(map.counts(), (1, 3, 1));
        assert_eq!(map.nodes_of(Material::Semiconductor), vec![NodeId(4)]);
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn from_vec_roundtrip() {
        let v = vec![Material::Metal, Material::Semiconductor];
        let map = MaterialMap::from_vec(v.clone());
        assert_eq!(map.as_slice(), &v[..]);
    }
}
