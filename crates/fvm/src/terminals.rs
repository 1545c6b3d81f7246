//! Terminal labelling of metal nodes.
//!
//! Contacts are declared on (part of) the metal surfaces; the rest of a plug
//! or TSV barrel is electrically tied to its contact through the metal. This
//! module flood-fills the contact label across metal–metal links so that the
//! DC stage can pin every metal node to the bias of its terminal and the
//! post-processing can attribute link currents to terminals.

use std::collections::VecDeque;
use vaem_mesh::{NodeId, Structure};

/// Per-node terminal assignment: `Some(k)` means the node is metal and is
/// electrically connected to `structure.contacts[k]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalMap {
    assignment: Vec<Option<usize>>,
    names: Vec<String>,
}

impl TerminalMap {
    /// Terminal index of a node, if any.
    #[inline]
    pub fn terminal(&self, node: NodeId) -> Option<usize> {
        self.assignment[node.index()]
    }

    /// Name of terminal `k`.
    pub fn name(&self, k: usize) -> &str {
        &self.names[k]
    }

    /// Number of terminals.
    pub fn terminal_count(&self) -> usize {
        self.names.len()
    }

    /// Index of the terminal with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// All nodes assigned to terminal `k`.
    pub fn nodes_of(&self, k: usize) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| (t == Some(k)).then_some(NodeId(i)))
            .collect()
    }
}

/// Builds the terminal map of a structure by breadth-first search from every
/// contact across metal–metal links.
///
/// Metal nodes not reached by any contact stay unassigned (floating metal);
/// non-metal contact nodes (e.g. an ohmic contact declared on semiconductor
/// nodes) are labelled with their contact directly but not propagated.
pub fn label_terminals(structure: &Structure) -> TerminalMap {
    let mesh = &structure.mesh;
    let n = mesh.node_count();
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let names: Vec<String> = structure.contacts.iter().map(|c| c.name.clone()).collect();

    // Adjacency restricted to metal-metal links.
    let mut metal_adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for link in mesh.links() {
        let a = link.from;
        let b = link.to;
        if structure.materials.material(a).is_metal() && structure.materials.material(b).is_metal()
        {
            metal_adj[a.index()].push(b);
            metal_adj[b.index()].push(a);
        }
    }

    for (k, contact) in structure.contacts.iter().enumerate() {
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for &seed in &contact.nodes {
            if assignment[seed.index()].is_none() {
                assignment[seed.index()] = Some(k);
                if structure.materials.material(seed).is_metal() {
                    queue.push_back(seed);
                }
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &metal_adj[u.index()] {
                if assignment[v.index()].is_none() {
                    assignment[v.index()] = Some(k);
                    queue.push_back(v);
                }
            }
        }
    }

    TerminalMap { assignment, names }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
    use vaem_mesh::structures::tsv::{build_tsv_structure, TsvConfig};
    use vaem_mesh::Material;

    #[test]
    fn plugs_are_fully_labelled_from_their_top_contacts() {
        let s = build_metalplug_structure(&MetalPlugConfig::default());
        let map = label_terminals(&s);
        let plug1 = map.index_of("plug1").unwrap();
        let plug2 = map.index_of("plug2").unwrap();
        // Every metal node belongs to one of the two plugs.
        for n in s.mesh.node_ids() {
            if s.materials.material(n) == Material::Metal {
                let t = map.terminal(n).expect("metal node must have a terminal");
                assert!(t == plug1 || t == plug2);
            }
        }
        // And the two plugs are distinct sets.
        assert!(!map.nodes_of(plug1).is_empty());
        assert!(!map.nodes_of(plug2).is_empty());
    }

    #[test]
    fn ground_contact_on_semiconductor_is_labelled_but_not_propagated() {
        let s = build_metalplug_structure(&MetalPlugConfig::default());
        let map = label_terminals(&s);
        let ground = map.index_of("ground").unwrap();
        let labelled = map.nodes_of(ground);
        assert_eq!(labelled.len(), s.contact("ground").unwrap().nodes.len());
    }

    #[test]
    fn tsv_terminals_are_six_disjoint_sets() {
        let s = build_tsv_structure(&TsvConfig::coarse());
        let map = label_terminals(&s);
        assert_eq!(map.terminal_count(), 6);
        let mut total = 0;
        for k in 0..6 {
            let nodes = map.nodes_of(k);
            assert!(!nodes.is_empty(), "terminal {} is empty", map.name(k));
            total += nodes.len();
        }
        // No node is double-assigned because nodes_of partitions by value.
        let assigned = s
            .mesh
            .node_ids()
            .filter(|&n| map.terminal(n).is_some())
            .count();
        assert_eq!(total, assigned);
    }
}
