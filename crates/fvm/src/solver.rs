//! The high-level coupled solver.

use crate::coefficients::{link_admittivity, link_permittivity, node_admittivity};
use crate::terminals::{label_terminals, TerminalMap};
use crate::{AcSolution, DcSolution, FvmError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vaem_mesh::{Axis, CartesianMesh, LinkId, Material, NodeId, Structure};
use vaem_numeric::Complex64;
use vaem_physics::{constants, DopingProfile, MaterialTable, SiliconParams};
use vaem_sparse::{
    CsrMatrix, IluSeed, LinearSolver, PreparedSolver, SolveReport, SolverKind, SparsityPattern,
    SymbolicLu, TripletMatrix,
};

/// Configuration of the coupled solver.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Bulk material properties.
    pub materials: MaterialTable,
    /// Silicon carrier-statistics parameters.
    pub silicon: SiliconParams,
    /// Linear solver strategy for both stages.
    pub linear_solver: SolverKind,
    /// Maximum Newton iterations of the DC stage.
    pub newton_max_iterations: usize,
    /// Newton convergence tolerance on the potential update (V).
    pub newton_tolerance: f64,
    /// Reuse the solver state published on the shared [`SolverTopology`]
    /// by the first solve — normally the nominal sample: the symbolic LU
    /// phase (ordering + pivot structure) so every later sample's
    /// direct factorizations are numeric-only, and the ILU(0) values so
    /// samples on iterative strategies start from the nominal's
    /// preconditioner (their lazy refresh policy rebuilding only when it
    /// degrades). On by default; turn off to force each solver through its
    /// own full analysis (the direct results are bit-identical as long as
    /// the perturbed pivots stay on the donor's sequence, which the seeded
    /// refactorization verifies per column, re-pivoting locally when they
    /// do not).
    pub reuse_symbolic: bool,
    /// Allow this solver to *publish* its symbolic phases as the shared
    /// topology's donors. Publishing additionally requires `reuse_symbolic`
    /// — turning reuse off disables the whole seeding path, donors
    /// included. On by default so sequentially shared topologies
    /// self-seed. When many solvers share a topology **concurrently**,
    /// leave publishing on for exactly one designated donor (the nominal
    /// sample, solved before the fan-out) and turn it off for the rest —
    /// otherwise which solver's pivot sequence wins the publication race
    /// depends on thread timing, and with it the (bitwise) results of
    /// every later seeded solve. The analysis layer does exactly this for
    /// its sample workers.
    pub publish_symbolic: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            materials: MaterialTable::default(),
            silicon: SiliconParams::default(),
            linear_solver: SolverKind::Auto,
            newton_max_iterations: 60,
            newton_tolerance: 1e-9,
            reuse_symbolic: true,
            publish_symbolic: true,
        }
    }
}

/// A write-once donor symbolic phase plus the stale re-pivots its
/// consumers reported.
///
/// The first publisher fills the slot and is never replaced; for the
/// analysis fan-outs that is deterministically the nominal sample, solved
/// before the workers start. A consumer whose perturbed values leave the
/// donor's pivot sequence re-pivots locally and only adds to the count.
#[derive(Debug, Default)]
struct DonorSlot {
    donor: OnceLock<SymbolicLu>,
    /// Cumulative stale re-pivots reported by the solvers sharing the slot.
    stale: AtomicU64,
}

impl DonorSlot {
    /// Records one factorization report: adds `stale_delta` not-yet-reported
    /// re-pivots and, when `publish` allows it and `symbolic` carries a
    /// recorded structure, publishes it unless a donor is already there.
    fn note(&self, symbolic: Option<&SymbolicLu>, publish: bool, stale_delta: u64) {
        self.stale.fetch_add(stale_delta, Ordering::Relaxed);
        if let Some(symbolic) = symbolic.filter(|s| publish && s.has_structure()) {
            self.donor.get_or_init(|| symbolic.seed_from());
        }
    }
}

/// The perturbation-invariant part of a solver setup: terminal labelling,
/// node–link adjacency, contact (Dirichlet) assignment and the cached
/// assembly maps of the DC Jacobian and the AC operator.
///
/// Surface-roughness perturbations move node positions but never change the
/// mesh topology, so one `SolverTopology` — wrapped in an [`Arc`] — can be
/// built from the nominal structure and shared read-only across every
/// perturbed-sample solver of a sweep (and across the worker threads of
/// `vaem_parallel`), instead of being rebuilt per sample. The assembly maps
/// are built lazily by the first solve that assembles each stage.
#[derive(Debug)]
pub struct SolverTopology {
    terminals: TerminalMap,
    /// Links incident to each node.
    node_links: Vec<Vec<LinkId>>,
    /// Contact index of each node (Dirichlet in the AC stage), if any.
    contact_of: Vec<Option<usize>>,
    node_count: usize,
    link_count: usize,
    /// Assembly map of the DC Newton Jacobian (its Dirichlet nodes follow
    /// the materials and contacts, which perturbations leave alone, so it
    /// is shared across samples and iterations).
    dc_map: OnceLock<Arc<AssemblyMap>>,
    /// Assembly map of the AC (electro-quasi-static) operator, shared by
    /// every AC operator of every sample.
    ac_map: OnceLock<Arc<AssemblyMap>>,
    /// Donor symbolic LU of the DC Jacobian: published by the first DC
    /// solve that prepares a direct factorization — the nominal sample,
    /// when the analysis layer solves it before fanning the samples out —
    /// and seeded into every later sample's Newton loop so their
    /// factorizations are numeric-only from the first iteration.
    dc_donor: DonorSlot,
    /// Donor symbolic LU of the AC operator (pattern-only state is
    /// scalar-agnostic, so one cache serves the complex operator).
    ac_donor: DonorSlot,
    /// Donor ILU(0) values of the DC Jacobian — the Krylov-side mirror of
    /// `dc_donor`, for meshes where the solvers prepare an iterative
    /// strategy. First publisher wins (the nominal sample under the
    /// analysis orchestration); each recipient's lazy refresh policy then
    /// decides locally if and when to rebuild from its own values.
    dc_ilu_donor: OnceLock<IluSeed<f64>>,
    /// Donor ILU(0) values of the AC operator (complex-valued, so typed
    /// separately from the DC slot).
    ac_ilu_donor: OnceLock<IluSeed<Complex64>>,
}

/// Aggregate symbolic-reuse statistics of one shared [`SolverTopology`]
/// (see [`SolverTopology::seed_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedReuseStats {
    /// A DC donor symbolic phase has been published.
    pub dc_seeded: bool,
    /// An AC donor symbolic phase has been published.
    pub ac_seeded: bool,
    /// A DC donor ILU(0) (Krylov-side seed) has been published.
    pub dc_ilu_seeded: bool,
    /// An AC donor ILU(0) has been published.
    pub ac_ilu_seeded: bool,
    /// Total stale-pivot re-pivoting fallbacks across every DC solve that
    /// reported into this topology.
    pub dc_stale_refactorizations: u64,
    /// Total stale-pivot re-pivoting fallbacks across every AC operator
    /// that reported into this topology.
    pub ac_stale_refactorizations: u64,
    /// Always 0: a published donor is never replaced. Kept because the
    /// benchmark reads it.
    pub dc_donor_refreshes: u64,
    /// Always 0, like [`SeedReuseStats::dc_donor_refreshes`].
    pub ac_donor_refreshes: u64,
}

impl SolverTopology {
    /// Builds the shared topology of a structure.
    ///
    /// # Errors
    /// Returns [`FvmError::Configuration`] when the structure has no
    /// contacts.
    pub fn build(structure: &Structure) -> Result<Self, FvmError> {
        let mesh = &structure.mesh;
        if structure.contacts.is_empty() {
            return Err(FvmError::Configuration {
                detail: "structure has no contacts".to_string(),
            });
        }
        let terminals = label_terminals(structure);
        let mut node_links: Vec<Vec<LinkId>> = vec![Vec::new(); mesh.node_count()];
        for lid in mesh.link_ids() {
            let link = mesh.link(lid);
            node_links[link.from.index()].push(lid);
            node_links[link.to.index()].push(lid);
        }
        let mut contact_of = vec![None; mesh.node_count()];
        for (k, contact) in structure.contacts.iter().enumerate() {
            for &n in &contact.nodes {
                contact_of[n.index()] = Some(k);
            }
        }
        Ok(Self {
            terminals,
            node_links,
            contact_of,
            node_count: mesh.node_count(),
            link_count: mesh.link_count(),
            dc_map: OnceLock::new(),
            ac_map: OnceLock::new(),
            dc_donor: DonorSlot::default(),
            ac_donor: DonorSlot::default(),
            dc_ilu_donor: OnceLock::new(),
            ac_ilu_donor: OnceLock::new(),
        })
    }

    /// Terminal (conductor) labelling of the structure.
    pub fn terminals(&self) -> &TerminalMap {
        &self.terminals
    }

    /// Aggregate symbolic-reuse statistics: whether DC/AC donor symbolic
    /// phases and ILU(0) donations have been published and how many
    /// stale-pivot re-pivots the solvers sharing this topology have
    /// reported.
    pub fn seed_stats(&self) -> SeedReuseStats {
        SeedReuseStats {
            dc_seeded: self.dc_donor.donor.get().is_some(),
            ac_seeded: self.ac_donor.donor.get().is_some(),
            dc_ilu_seeded: self.dc_ilu_donor.get().is_some(),
            ac_ilu_seeded: self.ac_ilu_donor.get().is_some(),
            dc_stale_refactorizations: self.dc_donor.stale.load(Ordering::Relaxed),
            ac_stale_refactorizations: self.ac_donor.stale.load(Ordering::Relaxed),
            dc_donor_refreshes: 0,
            ac_donor_refreshes: 0,
        }
    }

    /// Publishes a donor symbolic phase and ILU(0) donation (first
    /// publisher wins: deterministically the nominal sample when the
    /// analysis layer runs it before the fan-out) and adds the stale
    /// re-pivots of a finished DC prepared solver.
    fn note_dc_factorization(&self, prepared: &PreparedSolver<f64>, publish: bool) {
        self.dc_donor.note(
            prepared.direct_symbolic(),
            publish,
            prepared.direct_stale_fallbacks(),
        );
        if publish {
            publish_ilu_donor(&self.dc_ilu_donor, prepared);
        }
    }

    /// [`SolverTopology::note_dc_factorization`] for the complex AC
    /// operator; `stale_delta` is the number of not-yet-reported fallbacks
    /// (the sweep operator reports incrementally, once per frequency).
    fn note_ac_factorization(
        &self,
        prepared: &PreparedSolver<Complex64>,
        publish: bool,
        stale_delta: u64,
    ) {
        self.ac_donor
            .note(prepared.direct_symbolic(), publish, stale_delta);
        if publish {
            publish_ilu_donor(&self.ac_ilu_donor, prepared);
        }
    }

    /// Number of mesh nodes the topology was built for.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of mesh links the topology was built for.
    pub fn link_count(&self) -> usize {
        self.link_count
    }
}

/// Marks an [`AssemblyMap`] entry or node without a matrix row or column:
/// a link into a Dirichlet neighbour, or a Dirichlet node.
const DIRICHLET: u32 = u32::MAX;

/// How one stage's operator is assembled into its fixed CSR pattern: the
/// unknown numbering, and per unknown row its incident links — in the
/// topology's node–link order — each with the CSR value slot of the
/// neighbour's column, plus the slot of the diagonal.
///
/// Assembly zeroes the values, adds each link's coupling into its slot in
/// that order and then the diagonal into its own: the `+=` sequence of a
/// triplet re-assembly in push order, so every value keeps its bits. One
/// map per stage is cached on the [`SolverTopology`] and shared by `Arc`
/// across samples and across the operators of one DC point. Indices are
/// `u32`, which bounds a mesh to 4·10⁹ nodes and links.
#[derive(Debug)]
struct AssemblyMap {
    /// The operator's CSR structure.
    pattern: SparsityPattern,
    /// Mesh node of each unknown row.
    unknowns: Vec<u32>,
    /// Unknown row of each mesh node, [`DIRICHLET`] for a Dirichlet node.
    row_of: Vec<u32>,
    /// Row `r`'s entries are `starts[r]..starts[r + 1]` of `links` and
    /// `slots`.
    starts: Vec<u32>,
    /// Incident link of each entry.
    links: Vec<u32>,
    /// CSR value slot of each entry's neighbour column, [`DIRICHLET`] when
    /// the neighbour is a Dirichlet node.
    slots: Vec<u32>,
    /// CSR value slot of each row's diagonal.
    diagonal: Vec<u32>,
    /// The entries into contact neighbours as `(row, link, contact)`, the
    /// couplings an AC right-hand side reads. Empty in the DC map.
    boundary: Vec<(u32, u32, u32)>,
}

impl AssemblyMap {
    /// Numbers the nodes that `is_unknown` accepts in node order and maps
    /// their links. With `contact_of`, also lists every coupling into a
    /// contact neighbour; every Dirichlet neighbour must then be a contact.
    fn build(
        mesh: &CartesianMesh,
        node_links: &[Vec<LinkId>],
        is_unknown: impl Fn(usize) -> bool,
        contact_of: Option<&[Option<usize>]>,
    ) -> Self {
        let mut row_of = vec![DIRICHLET; mesh.node_count()];
        let mut unknowns = Vec::new();
        for (node, row) in row_of.iter_mut().enumerate() {
            if is_unknown(node) {
                *row = unknowns.len() as u32;
                unknowns.push(node as u32);
            }
        }
        let n = unknowns.len();
        let mut starts = Vec::with_capacity(n + 1);
        let mut links = Vec::new();
        // Each entry's neighbour column for now; its value slot once the
        // pattern exists.
        let mut slots = Vec::new();
        let mut boundary = Vec::new();
        starts.push(0);
        for (row, &node) in unknowns.iter().enumerate() {
            for &lid in &node_links[node as usize] {
                let other = other_end(mesh, lid, node as usize);
                let column = row_of[other];
                if let (DIRICHLET, Some(contact_of)) = (column, contact_of) {
                    let contact = contact_of[other].expect("non-unknown node is a contact");
                    boundary.push((row as u32, lid.index() as u32, contact as u32));
                }
                links.push(lid.index() as u32);
                slots.push(column);
            }
            starts.push(links.len() as u32);
        }
        let mut triplets = TripletMatrix::with_capacity(n, n, links.len() + n);
        for row in 0..n {
            for &column in &slots[starts[row] as usize..starts[row + 1] as usize] {
                if column != DIRICHLET {
                    triplets.push(row, column as usize, 0.0);
                }
            }
            triplets.push(row, row, 0.0);
        }
        let pattern = SparsityPattern::of(&triplets.to_csr());
        // Every column above is in its row's pattern, so the first column
        // not below it is its own.
        let slot_of = |row: usize, column: usize| {
            let lo = pattern.row_ptr()[row];
            let columns = &pattern.col_idx()[lo..pattern.row_ptr()[row + 1]];
            (lo + columns.partition_point(|&c| c < column)) as u32
        };
        for row in 0..n {
            for slot in &mut slots[starts[row] as usize..starts[row + 1] as usize] {
                if *slot != DIRICHLET {
                    *slot = slot_of(row, *slot as usize);
                }
            }
        }
        let diagonal = (0..n).map(|row| slot_of(row, row)).collect();
        Self {
            pattern,
            unknowns,
            row_of,
            starts,
            links,
            slots,
            diagonal,
            boundary,
        }
    }

    /// Number of unknown rows.
    fn rows(&self) -> usize {
        self.unknowns.len()
    }

    /// The entry range of unknown row `row`.
    fn entries(&self, row: usize) -> std::ops::Range<usize> {
        self.starts[row] as usize..self.starts[row + 1] as usize
    }

    /// Adds `value` into the matrix slot of entry `entry`, unless the
    /// entry couples into a Dirichlet neighbour.
    fn add<T: vaem_numeric::Scalar>(&self, values: &mut [T], entry: usize, value: T) {
        let slot = self.slots[entry];
        if slot != DIRICHLET {
            values[slot as usize] += value;
        }
    }
}

/// The endpoint of link `lid` that is not `node`.
fn other_end(mesh: &CartesianMesh, lid: LinkId, node: usize) -> usize {
    let link = mesh.link(lid);
    if link.from.index() == node {
        link.to.index()
    } else {
        link.from.index()
    }
}

/// Publishes a solver's ILU(0) factors (plus its healthy iteration
/// baseline) into a shared donation slot — first publisher wins, solvers
/// that prepared the direct strategy have nothing to donate.
fn publish_ilu_donor<T: vaem_numeric::Scalar>(
    slot: &OnceLock<IluSeed<T>>,
    prepared: &PreparedSolver<T>,
) {
    if slot.get().is_none() {
        if let Some(donation) = prepared.ilu_donor() {
            slot.get_or_init(|| donation);
        }
    }
}

/// The coupled EM–semiconductor FVM solver bound to one (possibly perturbed)
/// structure and doping profile.
///
/// See the crate-level documentation for the two-stage workflow
/// (DC operating point, then frequency-domain solve).
#[derive(Debug, Clone)]
pub struct CoupledSolver<'a> {
    structure: &'a Structure,
    doping: &'a DopingProfile,
    options: SolverOptions,
    /// Shared perturbation-invariant topology (see [`SolverTopology`]).
    topology: Arc<SolverTopology>,
    /// Geometric factor `dual_area / length` per link (µm) — geometry
    /// dependent, rebuilt per (perturbed) structure.
    link_factor: Vec<f64>,
}

impl<'a> CoupledSolver<'a> {
    /// Binds the solver to a structure and doping profile, building a fresh
    /// private [`SolverTopology`].
    ///
    /// # Errors
    /// Returns [`FvmError::Configuration`] when the doping profile does not
    /// cover the mesh or the structure has no contacts.
    pub fn new(
        structure: &'a Structure,
        doping: &'a DopingProfile,
        options: SolverOptions,
    ) -> Result<Self, FvmError> {
        let topology = Arc::new(SolverTopology::build(structure)?);
        Self::with_topology(structure, doping, options, topology)
    }

    /// Binds the solver to a structure re-using a shared [`SolverTopology`]
    /// built from a topologically identical (e.g. nominal, unperturbed)
    /// structure. Sample sweeps use this so terminal labelling, adjacency
    /// and the cached sparsity patterns are built once per analysis instead
    /// of once per sample.
    ///
    /// # Errors
    /// Returns [`FvmError::Configuration`] when the doping profile or the
    /// topology do not match the mesh.
    pub fn with_topology(
        structure: &'a Structure,
        doping: &'a DopingProfile,
        options: SolverOptions,
        topology: Arc<SolverTopology>,
    ) -> Result<Self, FvmError> {
        let mesh = &structure.mesh;
        if doping.len() != mesh.node_count() {
            return Err(FvmError::Configuration {
                detail: format!(
                    "doping profile covers {} nodes but the mesh has {}",
                    doping.len(),
                    mesh.node_count()
                ),
            });
        }
        if topology.node_count != mesh.node_count() || topology.link_count != mesh.link_count() {
            return Err(FvmError::Configuration {
                detail: format!(
                    "topology was built for {} nodes / {} links but the mesh has {} / {}",
                    topology.node_count,
                    topology.link_count,
                    mesh.node_count(),
                    mesh.link_count()
                ),
            });
        }
        // Each node's dual lengths along X, Y and Z, computed once: a link's
        // dual area needs four of them, and every node has up to six links.
        // The area below forms the same products in the same order as
        // `CartesianMesh::dual_area`.
        let dual: Vec<[f64; 3]> = mesh
            .node_ids()
            .map(|node| Axis::ALL.map(|axis| mesh.dual_length(node, axis)))
            .collect();
        let mut link_factor = vec![0.0; mesh.link_count()];
        for lid in mesh.link_ids() {
            let length = mesh.link_length(lid);
            link_factor[lid.index()] = if length > 1e-12 {
                let link = mesh.link(lid);
                let [p, q] = link.axis.perpendicular().map(Axis::as_usize);
                let area_of = |node: NodeId| {
                    let d = &dual[node.index()];
                    d[p] * d[q]
                };
                0.5 * (area_of(link.from) + area_of(link.to)) / length
            } else {
                0.0
            };
        }
        Ok(Self {
            structure,
            doping,
            options,
            topology,
            link_factor,
        })
    }

    /// The structure the solver is bound to.
    pub fn structure(&self) -> &Structure {
        self.structure
    }

    /// Solver options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Terminal (conductor) labelling used by the solver.
    pub fn terminals(&self) -> &TerminalMap {
        &self.topology.terminals
    }

    /// The shared perturbation-invariant topology.
    pub fn topology(&self) -> &Arc<SolverTopology> {
        &self.topology
    }

    fn material(&self, node: NodeId) -> Material {
        self.structure.materials.material(node)
    }

    /// The DC assembly map for a solve with these Dirichlet nodes: the one
    /// cached on the topology (built by its first DC solve) when its
    /// Dirichlet nodes are these, a private one otherwise.
    fn dc_map(&self, dirichlet: &[Option<f64>]) -> Arc<AssemblyMap> {
        let build = || {
            Arc::new(AssemblyMap::build(
                &self.structure.mesh,
                &self.topology.node_links,
                |node| dirichlet[node].is_none(),
                None,
            ))
        };
        let cached = self.topology.dc_map.get_or_init(build);
        let same_nodes = cached
            .row_of
            .iter()
            .zip(dirichlet)
            .all(|(&row, value)| (row == DIRICHLET) == value.is_some());
        if same_nodes {
            Arc::clone(cached)
        } else {
            build()
        }
    }

    /// Solves the equilibrium (all terminals grounded) operating point.
    ///
    /// # Errors
    /// See [`CoupledSolver::solve_dc_with_biases`].
    pub fn solve_dc(&self) -> Result<DcSolution, FvmError> {
        self.solve_dc_with_biases(&BTreeMap::new())
    }

    /// Solves the DC operating point with the given terminal biases (V);
    /// terminals not listed are grounded.
    ///
    /// # Errors
    /// * [`FvmError::Linear`] when the inner linear solve fails.
    /// * [`FvmError::NewtonDidNotConverge`] when the Newton iteration stalls.
    pub fn solve_dc_with_biases(
        &self,
        biases: &BTreeMap<String, f64>,
    ) -> Result<DcSolution, FvmError> {
        let mesh = &self.structure.mesh;
        let n_nodes = mesh.node_count();
        let si = &self.options.silicon;
        let vt = si.thermal_voltage;
        let q = constants::ELEMENTARY_CHARGE;

        let bias_of = |contact: usize| -> f64 {
            let name = self.topology.terminals.name(contact);
            biases.get(name).copied().unwrap_or(0.0)
        };

        // Dirichlet values: every metal node pinned at its terminal bias;
        // non-metal contact nodes pinned at bias (+ built-in potential on
        // semiconductor ohmic contacts).
        let mut dirichlet: Vec<Option<f64>> = vec![None; n_nodes];
        for node in mesh.node_ids() {
            let mat = self.material(node);
            if mat.is_metal() {
                if let Some(t) = self.topology.terminals.terminal(node) {
                    dirichlet[node.index()] = Some(bias_of(t));
                }
            } else if let Some(c) = self.topology.contact_of[node.index()] {
                let mut v = bias_of(c);
                if mat.is_semiconductor() {
                    v += si.built_in_potential(self.doping.donor(node), self.doping.acceptor(node));
                }
                dirichlet[node.index()] = Some(v);
            }
        }

        // Unknown numbering and assembly map, shared through the topology
        // by every sample with these Dirichlet nodes.
        let map = self.dc_map(&dirichlet);

        // Initial guess: built-in potential in the semiconductor, Dirichlet
        // elsewhere prescribed, zero in the dielectric.
        let mut potential: Vec<f64> = (0..n_nodes)
            .map(|i| {
                let node = NodeId(i);
                if let Some(v) = dirichlet[i] {
                    v
                } else if self.material(node).is_semiconductor() {
                    si.built_in_potential(self.doping.donor(node), self.doping.acceptor(node))
                } else {
                    0.0
                }
            })
            .collect();

        let clamp_exp = |x: f64| x.clamp(-60.0, 60.0);
        let linear = LinearSolver::new(self.options.linear_solver);

        // The link coefficient of each map entry is geometry-only, so it is
        // computed once per solve and every Newton iteration's assembly is
        // pure arithmetic into the fixed pattern.
        let mut coefficients = vec![0.0; map.links.len()];
        for (row, &node) in map.unknowns.iter().enumerate() {
            let mat_i = self.material(NodeId(node as usize));
            for entry in map.entries(row) {
                let lid = LinkId(map.links[entry] as usize);
                let other = NodeId(other_end(mesh, lid, node as usize));
                let eps = link_permittivity(mat_i, self.material(other), &self.options.materials);
                coefficients[entry] = eps * self.link_factor[lid.index()];
            }
        }
        // Charge term data per unknown: (q·volume, net doping) for
        // semiconductor nodes, None elsewhere.
        let charge: Vec<Option<(f64, f64)>> = map
            .unknowns
            .iter()
            .map(|&node| {
                let node = NodeId(node as usize);
                self.material(node)
                    .is_semiconductor()
                    .then(|| (q * mesh.node_volume(node), self.doping.net(node)))
            })
            .collect();

        let n_unknown = map.rows();
        let mut rhs = vec![0.0_f64; n_unknown];
        let mut jacobian: CsrMatrix<f64> = map.pattern.zeros();
        // Linear solver prepared on the first iteration; every later Newton
        // step refactorizes numerically against the cached symbolic phase.
        let mut prepared: Option<PreparedSolver<f64>> = None;

        let mut iterations = 0usize;
        let mut update_norm = f64::INFINITY;
        while iterations < self.options.newton_max_iterations {
            iterations += 1;
            let values = jacobian.values_mut();
            values.fill(0.0);
            for (ui, &node) in map.unknowns.iter().enumerate() {
                let node = node as usize;
                let vi = potential[node];
                let mut diag = 0.0;
                let mut residual = 0.0;
                for entry in map.entries(ui) {
                    let c = coefficients[entry];
                    let other = other_end(mesh, LinkId(map.links[entry] as usize), node);
                    residual += c * (potential[other] - vi);
                    diag -= c;
                    map.add(values, entry, c);
                }
                if let Some((qvol, net)) = charge[ui] {
                    let n = si.intrinsic_density * clamp_exp(vi / vt).exp();
                    let p = si.intrinsic_density * clamp_exp(-vi / vt).exp();
                    residual += qvol * (p - n + net);
                    diag -= qvol * (n + p) / vt;
                }
                values[map.diagonal[ui] as usize] += diag;
                // Solve J·δ = -F.
                rhs[ui] = -residual;
            }

            let (mut delta, _report) = match prepared.as_mut() {
                Some(p) => {
                    p.refactor(&jacobian)?;
                    p.solve(&rhs)?
                }
                None => {
                    // First iteration: seed the direct factorization from
                    // the topology-shared donor symbolic phase (published
                    // by the nominal sample) so perturbed samples skip the
                    // ordering/DFS/pivot-search work entirely — and, on
                    // meshes where the strategy comes out iterative, start
                    // from the nominal's donated ILU(0) values instead of
                    // building a preconditioner from scratch.
                    let (seed, ilu_seed) = if self.options.reuse_symbolic {
                        (
                            self.topology.dc_donor.donor.get(),
                            self.topology.dc_ilu_donor.get(),
                        )
                    } else {
                        (None, None)
                    };
                    let p = prepared.insert(linear.prepare_seeded_with(&jacobian, seed, ilu_seed)?);
                    p.solve(&rhs)?
                }
            };

            // A non-finite update poisons the operating point silently:
            // `f64::max` ignores NaN, so an all-NaN delta would pass both
            // the damping and the convergence norm below as 0.0 and the
            // garbage would only surface factorizations later. Fail here,
            // where the cause is still attributable to this solve.
            if delta.iter().any(|d| !d.is_finite()) {
                return Err(FvmError::NonFinite {
                    detail: format!(
                        "DC Newton update contains non-finite entries at iteration {iterations}"
                    ),
                });
            }
            // Damp large Newton steps (potential updates beyond 1 V are
            // truncated, preserving direction).
            let max_step = delta.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            if max_step > 1.0 {
                let scale = 1.0 / max_step;
                for d in &mut delta {
                    *d *= scale;
                }
            }
            for (&node, d) in map.unknowns.iter().zip(&delta) {
                potential[node as usize] += d;
            }
            update_norm = delta.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            if !update_norm.is_finite() {
                return Err(FvmError::NewtonDidNotConverge {
                    iterations,
                    update_norm,
                });
            }
            if update_norm < self.options.newton_tolerance {
                break;
            }
        }
        if update_norm >= self.options.newton_tolerance && update_norm > 1e-6 {
            return Err(FvmError::NewtonDidNotConverge {
                iterations,
                update_norm,
            });
        }

        // Publish this solve's symbolic phase for later samples (first
        // publisher wins — the nominal, when the analysis pre-runs it) and
        // report stale-pivot re-pivots into the shared statistics.
        if let Some(p) = &prepared {
            self.topology.note_dc_factorization(
                p,
                self.options.reuse_symbolic && self.options.publish_symbolic,
            );
        }

        // Carrier densities from the converged potential.
        let mut electron_density = vec![0.0; n_nodes];
        let mut hole_density = vec![0.0; n_nodes];
        for node in mesh.node_ids() {
            if self.material(node).is_semiconductor() {
                let v = potential[node.index()];
                electron_density[node.index()] = si.intrinsic_density * clamp_exp(v / vt).exp();
                hole_density[node.index()] = si.intrinsic_density * clamp_exp(-v / vt).exp();
            }
        }

        Ok(DcSolution {
            potential,
            electron_density,
            hole_density,
            newton_iterations: iterations,
            final_update_norm: update_norm,
        })
    }

    /// Solves the frequency-domain problem with 1 V applied to
    /// `driven_terminal` and 0 V on every other contact.
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] for an unknown terminal name.
    /// * [`FvmError::Linear`] when the linear solve fails.
    pub fn solve_ac(
        &self,
        dc: &DcSolution,
        driven_terminal: &str,
        frequency: f64,
    ) -> Result<AcSolution, FvmError> {
        let mut excitations = BTreeMap::new();
        excitations.insert(driven_terminal.to_string(), Complex64::ONE);
        self.solve_ac_with_excitations(dc, &excitations, frequency, driven_terminal)
    }

    /// Solves the frequency-domain problem with explicit complex excitations
    /// per contact name (unlisted contacts are grounded).
    ///
    /// # Errors
    /// Same conditions as [`CoupledSolver::solve_ac`].
    pub fn solve_ac_with_excitations(
        &self,
        dc: &DcSolution,
        excitations: &BTreeMap<String, Complex64>,
        frequency: f64,
        driven_label: &str,
    ) -> Result<AcSolution, FvmError> {
        self.prepare_ac(dc, frequency)?
            .solve(excitations, driven_label)
    }

    /// Assembles and factorizes the frequency-domain operator once for a
    /// given operating point and frequency.
    ///
    /// The AC system matrix depends only on `(dc, frequency)` — every
    /// contact node is a Dirichlet node regardless of which terminal is
    /// driven, so only the right-hand side changes between excitations. The
    /// returned operator therefore amortizes the assembly and the ILU/LU
    /// setup across all terminal solves at this frequency (the
    /// capacitance-matrix extraction and the wPFA weight solve reuse it).
    ///
    /// Equivalent to [`CoupledSolver::prepare_ac_sweep`] followed by
    /// [`AcSweepOperator::set_frequency`]; use the sweep operator directly
    /// to walk a whole frequency grid against one assembly.
    ///
    /// # Errors
    /// * [`FvmError::Linear`] when the factorization fails.
    pub fn prepare_ac<'s>(
        &'s self,
        dc: &DcSolution,
        frequency: f64,
    ) -> Result<AcSweepOperator<'s, 'a>, FvmError> {
        let mut operator = self.prepare_ac_sweep(dc)?;
        operator.set_frequency(frequency)?;
        Ok(operator)
    }

    /// Prepares the frequency-agnostic part of the AC operator for one DC
    /// operating point: the semiconductor small-signal conductivities, the
    /// workspaces and the operator's CSR matrix on the pattern of the
    /// topology's AC assembly map (built by the first AC operator of the
    /// topology and shared by every later one).
    ///
    /// The returned [`AcSweepOperator`] walks a frequency grid by writing
    /// only the frequency-dependent values into their CSR slots through
    /// the map and refactorizing numerically against the cached symbolic
    /// phase; [`AcSweepOperator::sweep_terminal`] additionally warm-starts
    /// every point from the previous solution.
    ///
    /// # Errors
    /// Never fails today; returns `Result` for forward compatibility with
    /// configuration validation.
    pub fn prepare_ac_sweep<'s>(
        &'s self,
        dc: &DcSolution,
    ) -> Result<AcSweepOperator<'s, 'a>, FvmError> {
        let mesh = &self.structure.mesh;
        let n_nodes = mesh.node_count();
        let si = &self.options.silicon;

        // Frequency-independent: the semiconductor small-signal conductivity
        // of the operating point.
        let sigma_semi: Vec<f64> = (0..n_nodes)
            .map(|i| {
                let node = NodeId(i);
                if self.material(node).is_semiconductor() {
                    si.bulk_conductivity(dc.electron_at(node), dc.hole_at(node))
                } else {
                    0.0
                }
            })
            .collect();

        // Dirichlet structure: every contact node, whatever its excitation.
        // Couplings into them move to the right-hand side per excitation.
        let topology = &self.topology;
        let map = Arc::clone(topology.ac_map.get_or_init(|| {
            Arc::new(AssemblyMap::build(
                mesh,
                &topology.node_links,
                |node| topology.contact_of[node].is_none(),
                Some(&topology.contact_of),
            ))
        }));

        Ok(AcSweepOperator {
            solver: self,
            sigma_semi,
            matrix: map.pattern.zeros(),
            map,
            node_y: vec![Complex64::ZERO; n_nodes],
            link_admittance: vec![Complex64::ZERO; mesh.link_count()],
            prepared: None,
            reported_stale: 0,
            warm: None,
            omega: f64::NAN,
        })
    }
}

/// A sweep-aware factorized frequency-domain operator bound to one DC
/// operating point (see [`CoupledSolver::prepare_ac_sweep`]).
///
/// At one frequency, each [`AcSweepOperator::solve`] call only rebuilds the
/// right-hand side from the excitations and runs the cached
/// direct/ILU-preconditioned solve, so sweeping every terminal of a
/// structure costs one assembly and one factorization in total. Across
/// frequencies, [`AcSweepOperator::set_frequency`] rebuilds only the
/// frequency-dependent values into the cached CSR pattern and refactorizes
/// numerically (the symbolic phase and all workspaces are kept), and
/// [`AcSweepOperator::sweep_terminal`] warm-starts each point from the
/// previous solution.
#[derive(Debug, Clone)]
pub struct AcSweepOperator<'s, 'a> {
    solver: &'s CoupledSolver<'a>,
    /// Semiconductor small-signal conductivity per node (ω-independent).
    sigma_semi: Vec<f64>,
    /// The topology's AC assembly map: unknown numbering, link slots and
    /// the contact couplings of the right-hand side.
    map: Arc<AssemblyMap>,
    /// Scratch: per-node admittivity at the current frequency.
    node_y: Vec<Complex64>,
    /// Link admittance `y·g` (S) at the current frequency.
    link_admittance: Vec<Complex64>,
    /// The operator on the map's pattern, at the current frequency.
    matrix: CsrMatrix<Complex64>,
    /// Linear solver prepared at the first frequency, refactorized since.
    prepared: Option<PreparedSolver<Complex64>>,
    /// Stale-pivot fallbacks already reported into the shared topology
    /// statistics (the counter on the prepared solver is cumulative).
    reported_stale: u64,
    /// Solution (on the unknown nodes) of the most recent
    /// [`AcSweepOperator::solve_at`], used to warm-start the next one.
    warm: Option<Vec<Complex64>>,
    /// Angular frequency of the current factorization (NaN before the first
    /// [`AcSweepOperator::set_frequency`]).
    omega: f64,
}

/// Backwards-compatible name of the single-frequency operator returned by
/// [`CoupledSolver::prepare_ac`].
pub type AcOperator<'s, 'a> = AcSweepOperator<'s, 'a>;

impl AcSweepOperator<'_, '_> {
    /// Angular frequency ω (rad/s) of the current factorization.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Number of unknown (non-contact) nodes.
    pub fn unknown_count(&self) -> usize {
        self.map.rows()
    }

    /// Re-targets the operator to a new frequency: recomputes the node/link
    /// admittances, rebuilds the matrix values into the cached sparsity
    /// pattern and refactorizes numerically against the cached symbolic
    /// phase of the linear solver.
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] for a non-finite or negative frequency.
    /// * [`FvmError::Linear`] when the refactorization fails.
    pub fn set_frequency(&mut self, frequency: f64) -> Result<(), FvmError> {
        if !frequency.is_finite() || frequency < 0.0 {
            return Err(FvmError::Configuration {
                detail: format!("invalid AC frequency {frequency} Hz"),
            });
        }
        let solver = self.solver;
        let mesh = &solver.structure.mesh;
        let omega = 2.0 * std::f64::consts::PI * frequency;

        for (i, y) in self.node_y.iter_mut().enumerate() {
            *y = node_admittivity(
                solver.material(NodeId(i)),
                self.sigma_semi[i],
                omega,
                &solver.options.materials,
            );
        }
        for lid in mesh.link_ids() {
            let link = mesh.link(lid);
            let y = link_admittivity(self.node_y[link.from.index()], self.node_y[link.to.index()]);
            self.link_admittance[lid.index()] = y.scale(solver.link_factor[lid.index()]);
        }

        // Only the values change between frequencies: rebuild them into the
        // fixed pattern through the map.
        let map = &*self.map;
        let values = self.matrix.values_mut();
        values.fill(Complex64::ZERO);
        for row in 0..map.rows() {
            let mut diag = Complex64::ZERO;
            for entry in map.entries(row) {
                let ya = self.link_admittance[map.links[entry] as usize];
                diag -= ya;
                map.add(values, entry, ya);
            }
            values[map.diagonal[row] as usize] += diag;
        }

        match self.prepared.as_mut() {
            Some(p) => p.refactor(&self.matrix)?,
            None => {
                // First frequency: seed the direct factorization from the
                // topology-shared AC donor (published by the nominal
                // sample's sweep), skipping this sample's symbolic phase;
                // iterative strategies start from the donated ILU(0)
                // values, with the lazy refresh policy deciding rebuilds.
                let linear = LinearSolver::new(solver.options.linear_solver);
                let (seed, ilu_seed) = if solver.options.reuse_symbolic {
                    (
                        solver.topology.ac_donor.donor.get(),
                        solver.topology.ac_ilu_donor.get(),
                    )
                } else {
                    (None, None)
                };
                self.prepared = Some(linear.prepare_seeded_with(&self.matrix, seed, ilu_seed)?);
            }
        }
        // Publish the donor (first publisher wins) and report any new
        // stale-pivot re-pivots into the shared statistics.
        if let Some(p) = &self.prepared {
            let total = p.direct_stale_fallbacks();
            // `saturating_sub`: a replaced factorization (pattern change,
            // Krylov rescue) starts a fresh counter below what was already
            // reported — that must not wrap into a huge bogus delta.
            let delta = total.saturating_sub(self.reported_stale);
            solver.topology.note_ac_factorization(
                p,
                solver.options.reuse_symbolic && solver.options.publish_symbolic,
                delta,
            );
            self.reported_stale = total;
        }
        self.omega = omega;
        Ok(())
    }

    /// Solves for a 1 V excitation on `driven_terminal` with every other
    /// contact grounded.
    ///
    /// # Errors
    /// Same conditions as [`AcSweepOperator::solve`].
    pub fn solve_terminal(&mut self, driven_terminal: &str) -> Result<AcSolution, FvmError> {
        let mut excitations = BTreeMap::new();
        excitations.insert(driven_terminal.to_string(), Complex64::ONE);
        self.solve(&excitations, driven_terminal)
    }

    /// Solves the prepared system for one set of complex contact excitations
    /// (unlisted contacts are grounded).
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] for an unknown terminal name or when no
    ///   frequency has been set.
    /// * [`FvmError::Linear`] when the cached solve fails.
    pub fn solve(
        &mut self,
        excitations: &BTreeMap<String, Complex64>,
        driven_label: &str,
    ) -> Result<AcSolution, FvmError> {
        self.solve_inner(excitations, driven_label, None)
            .map(|(ac, _)| ac)
    }

    /// Walks a frequency grid for one driven terminal (1 V, every other
    /// contact grounded), refactorizing numerically per point and
    /// warm-starting each solve from the previous point's solution.
    ///
    /// Returns one [`AcSolution`] per entry of `frequencies`, in order.
    ///
    /// # Errors
    /// Propagates the first per-point failure.
    pub fn sweep_terminal(
        &mut self,
        frequencies: &[f64],
        driven_terminal: &str,
    ) -> Result<Vec<AcSolution>, FvmError> {
        // Each grid walk starts cold, so back-to-back sweeps of the same
        // operator reproduce each other exactly.
        self.warm = None;
        let mut out = Vec::with_capacity(frequencies.len());
        for &frequency in frequencies {
            out.push(self.solve_at(frequency, driven_terminal)?);
        }
        Ok(out)
    }

    /// Out-of-order single-point solve for adaptive refinement: re-targets
    /// the operator to `frequency` (values rebuilt into the cached CSR
    /// pattern, numeric refactorization against the cached/seeded symbolic
    /// phase) and solves for a 1 V excitation on `driven_terminal`,
    /// warm-starting from the most recent `solve_at` solution.
    ///
    /// Unlike [`AcSweepOperator::sweep_terminal`] the points may arrive in
    /// any order — a refinement wave inserts midpoints between already
    /// solved frequencies — and each point costs the same as one grid point
    /// of a dense sweep.
    ///
    /// # Errors
    /// Same conditions as [`AcSweepOperator::set_frequency`] and
    /// [`AcSweepOperator::solve`].
    pub fn solve_at(
        &mut self,
        frequency: f64,
        driven_terminal: &str,
    ) -> Result<AcSolution, FvmError> {
        self.set_frequency(frequency)?;
        let mut excitations = BTreeMap::new();
        excitations.insert(driven_terminal.to_string(), Complex64::ONE);
        let guess = self.warm.take();
        let (ac, solution) = self.solve_inner(&excitations, driven_terminal, guess.as_deref())?;
        self.warm = Some(solution);
        Ok(ac)
    }

    /// Solves a 1 V excitation on each terminal of `driven` in turn (every
    /// other contact grounded) against this operator's factorization and
    /// hands each column's [`AcSolution`] to `f`, returning `f`'s results in
    /// the order of `driven`.
    ///
    /// The columns go through [`PreparedSolver::solve_batch`], so on the
    /// ILU(0)+BiCGSTAB strategy they fan out over `VAEM_THREADS` workers.
    /// Each worker builds its
    /// column's right-hand side, solves it and runs `f` on the solution, so
    /// no node-space vector outlives its column. The results are
    /// bit-identical to calling [`AcSweepOperator::solve_terminal`] and then
    /// `f` for each terminal in order, at any thread count.
    ///
    /// # Errors
    /// * [`FvmError::Configuration`] when no frequency has been set, or for
    ///   an unknown terminal name (checked before any solve).
    /// * The first failure in column order of the linear solve or `f`.
    pub fn solve_terminals<R, F>(&mut self, driven: &[&str], f: F) -> Result<Vec<R>, FvmError>
    where
        R: Send,
        F: Fn(&AcSolution) -> Result<R, FvmError> + Sync,
    {
        let mut prepared = self.prepared.take().ok_or_else(no_frequency_error)?;
        let terminals = self.solver.terminals();
        let result = match driven
            .iter()
            .find(|name| terminals.index_of(name).is_none())
        {
            Some(name) => Err(unknown_terminal_error(name)),
            None => {
                let this = &*self;
                let unit = |j: usize| {
                    move |contact: usize| {
                        if terminals.name(contact) == driven[j] {
                            Complex64::ONE
                        } else {
                            Complex64::ZERO
                        }
                    }
                };
                prepared.solve_batch(
                    driven.len(),
                    |j, rhs| this.fill_rhs(unit(j), rhs),
                    |j, solution, report| f(&this.package(&solution, unit(j), driven[j], &report)),
                )
            }
        };
        self.prepared = Some(prepared);
        result
    }

    /// Shared solve path; returns the solution restricted to the unknown
    /// nodes alongside the assembled [`AcSolution`] so sweeps can warm-start
    /// the next point.
    fn solve_inner(
        &mut self,
        excitations: &BTreeMap<String, Complex64>,
        driven_label: &str,
        guess: Option<&[Complex64]>,
    ) -> Result<(AcSolution, Vec<Complex64>), FvmError> {
        if self.prepared.is_none() {
            return Err(no_frequency_error());
        }
        let terminals = self.solver.terminals();
        if let Some(name) = excitations.keys().find(|n| terminals.index_of(n).is_none()) {
            return Err(unknown_terminal_error(name));
        }
        let excitation_of = |contact: usize| -> Complex64 {
            excitations
                .get(terminals.name(contact))
                .copied()
                .unwrap_or(Complex64::ZERO)
        };

        let mut rhs = vec![Complex64::ZERO; self.map.rows()];
        self.fill_rhs(excitation_of, &mut rhs);
        let prepared = self.prepared.as_mut().ok_or_else(no_frequency_error)?;
        let (solution, report) = prepared.solve_with_guess(&rhs, guess)?;
        let ac = self.package(&solution, excitation_of, driven_label, &report);
        Ok((ac, solution))
    }

    /// Adds the couplings of the unknown rows into their Dirichlet (contact)
    /// neighbours, driven at `excitation_of(contact)`, to the zeroed
    /// right-hand side `rhs`.
    fn fill_rhs(&self, excitation_of: impl Fn(usize) -> Complex64, rhs: &mut [Complex64]) {
        for &(row, lid, contact) in &self.map.boundary {
            rhs[row as usize] -=
                self.link_admittance[lid as usize] * excitation_of(contact as usize);
        }
    }

    /// Scatters a solution on the unknown nodes into node space (contacts
    /// at `excitation_of(contact)`) and packages it with the solver's
    /// report.
    fn package(
        &self,
        solution: &[Complex64],
        excitation_of: impl Fn(usize) -> Complex64,
        driven_label: &str,
        report: &SolveReport,
    ) -> AcSolution {
        let solver = self.solver;
        let mesh = &solver.structure.mesh;
        let mut potential = vec![Complex64::ZERO; mesh.node_count()];
        for node in mesh.node_ids() {
            let i = node.index();
            potential[i] = match self.map.row_of[i] {
                DIRICHLET => {
                    let contact =
                        solver.topology.contact_of[i].expect("non-unknown node is a contact");
                    excitation_of(contact)
                }
                row => solution[row as usize],
            };
        }

        AcSolution {
            potential,
            link_admittance: self.link_admittance.clone(),
            omega: self.omega,
            driven_terminal: driven_label.to_string(),
            solver_strategy: report.strategy,
            linear_residual: report.residual_norm,
            krylov_iterations: report.iterations,
        }
    }
}

/// The error of a solve on an operator that has no frequency set yet.
fn no_frequency_error() -> FvmError {
    FvmError::Configuration {
        detail: "AC operator has no frequency set (call set_frequency first)".to_string(),
    }
}

/// The error of a solve that names a terminal the structure does not have.
fn unknown_terminal_error(name: &str) -> FvmError {
    FvmError::Configuration {
        detail: format!("unknown terminal '{name}'"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaem_mesh::{BoxRegion, StructureBuilder};

    /// Parallel-plate capacitor: two metal plates separated by dielectric.
    fn parallel_plate(spacing: f64) -> Structure {
        StructureBuilder::new(Material::Insulator)
            .with_max_spacing(spacing)
            .add_box(BoxRegion::new(
                [0.0, 0.0, 0.0],
                [4.0, 4.0, 1.0],
                Material::Metal,
            ))
            .add_box(BoxRegion::new(
                [0.0, 0.0, 3.0],
                [4.0, 4.0, 4.0],
                Material::Metal,
            ))
            .add_contact_box("bottom", [0.0, 0.0, 0.0], [4.0, 4.0, 0.0])
            .add_contact_box("top", [0.0, 0.0, 4.0], [4.0, 4.0, 4.0])
            .build()
    }

    #[test]
    fn dc_equilibrium_converges_on_a_doped_block() {
        use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
        let s = build_metalplug_structure(&MetalPlugConfig::coarse());
        let semis = s.semiconductor_nodes();
        let doping = DopingProfile::uniform_donor(s.mesh.node_count(), &semis, 1.0e5);
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        assert!(dc.newton_iterations < 40);
        // Bulk silicon sits near the built-in potential.
        let vbi = SiliconParams::default().built_in_potential(1.0e5, 0.0);
        let bulk = semis.iter().map(|&n| dc.potential_at(n)).sum::<f64>() / semis.len() as f64;
        assert!((bulk - vbi).abs() < 0.15, "bulk {bulk} vs vbi {vbi}");
        // Carrier densities follow the doping in the bulk.
        let n_mean: f64 =
            semis.iter().map(|&n| dc.electron_at(n)).sum::<f64>() / semis.len() as f64;
        assert!(n_mean > 1.0e4, "mean electron density {n_mean}");
    }

    #[test]
    fn ac_parallel_plate_capacitance_matches_analytic_estimate() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let freq = 1.0e6;
        let ac = solver.solve_ac(&dc, "top", freq).unwrap();
        let i_top = crate::postprocess::terminal_current(&solver, &ac, "top").unwrap();
        let c_self = i_top.im / ac.omega;
        // Ideal C = eps0*eps_ox*A/d with A = 16 µm², d = 2 µm (fringing adds a bit).
        let ideal = constants::VACUUM_PERMITTIVITY * constants::OXIDE_REL_PERMITTIVITY * 16.0 / 2.0;
        assert!(
            c_self > 0.8 * ideal && c_self < 2.5 * ideal,
            "C = {c_self}, ideal = {ideal}"
        );
        // Coupling to the other plate is negative and of similar magnitude.
        let i_bottom = crate::postprocess::terminal_current(&solver, &ac, "bottom").unwrap();
        let c_mutual = i_bottom.im / ac.omega;
        assert!(c_mutual < 0.0);
        assert!(c_mutual.abs() > 0.5 * c_self);
    }

    #[test]
    fn link_factors_equal_the_mesh_dual_areas_bit_for_bit() {
        use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
        let s = build_metalplug_structure(&MetalPlugConfig::coarse());
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        for lid in s.mesh.link_ids() {
            let length = s.mesh.link_length(lid);
            let want = if length > 1e-12 {
                s.mesh.dual_area(lid) / length
            } else {
                0.0
            };
            assert_eq!(solver.link_factor[lid.index()].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn unknown_terminal_is_a_configuration_error() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        assert!(matches!(
            solver.solve_ac(&dc, "does-not-exist", 1e9),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn mismatched_doping_length_is_rejected() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(3);
        assert!(matches!(
            CoupledSolver::new(&s, &doping, SolverOptions::default()),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn frequency_sweep_matches_per_frequency_solves() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let frequencies = [1.0e6, 1.0e7, 1.0e8, 1.0e9];
        let mut sweep = solver.prepare_ac_sweep(&dc).unwrap();
        let swept = sweep.sweep_terminal(&frequencies, "top").unwrap();
        assert_eq!(swept.len(), frequencies.len());
        for (freq, ac) in frequencies.iter().zip(swept.iter()) {
            let reference = solver.solve_ac(&dc, "top", *freq).unwrap();
            assert_eq!(ac.omega, reference.omega);
            let mut max_diff = 0.0_f64;
            let mut max_ref = 0.0_f64;
            for (a, b) in ac.potential.iter().zip(reference.potential.iter()) {
                max_diff = max_diff.max((*a - *b).abs());
                max_ref = max_ref.max(b.abs());
            }
            assert!(
                max_diff <= 1e-8 * max_ref.max(1e-30),
                "potentials diverged at {freq} Hz: {max_diff:.3e} vs scale {max_ref:.3e}"
            );
        }
    }

    #[test]
    fn shared_topology_solver_matches_a_private_one() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let topology = Arc::new(SolverTopology::build(&s).unwrap());
        let shared =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology.clone())
                .unwrap();
        let private = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc_shared = shared.solve_dc().unwrap();
        let dc_private = private.solve_dc().unwrap();
        for (a, b) in dc_shared.potential.iter().zip(dc_private.potential.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        // A second shared-topology solver re-uses the cached patterns.
        let again =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology).unwrap();
        let dc_again = again.solve_dc().unwrap();
        assert_eq!(dc_shared.potential, dc_again.potential);
    }

    #[test]
    fn topology_publishes_seeds_and_seeded_solves_match_unseeded_bits() {
        // Coarse enough that both stages stay below the Auto direct-LU
        // threshold (an iterative strategy has no symbolic phase to seed).
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let topology = Arc::new(SolverTopology::build(&s).unwrap());
        assert!(!topology.seed_stats().dc_seeded);

        // The first (donor) solver publishes its DC and AC symbolic phases.
        let donor =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology.clone())
                .unwrap();
        let dc_donor = donor.solve_dc().unwrap();
        let _ = donor.solve_ac(&dc_donor, "top", 1.0e9).unwrap();
        let stats = topology.seed_stats();
        assert!(stats.dc_seeded && stats.ac_seeded, "stats {stats:?}");
        assert_eq!(stats.dc_stale_refactorizations, 0);
        assert_eq!(stats.ac_stale_refactorizations, 0);

        // A second solver on the shared topology consumes the seeds...
        let seeded =
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology.clone())
                .unwrap();
        let dc_seeded = seeded.solve_dc().unwrap();
        let ac_seeded = seeded.solve_ac(&dc_seeded, "top", 1.0e9).unwrap();

        // ...and must reproduce an unseeded solver bit for bit.
        let unseeded_options = SolverOptions {
            reuse_symbolic: false,
            ..SolverOptions::default()
        };
        let private = CoupledSolver::new(&s, &doping, unseeded_options).unwrap();
        let dc_ref = private.solve_dc().unwrap();
        let ac_ref = private.solve_ac(&dc_ref, "top", 1.0e9).unwrap();
        assert_eq!(
            dc_seeded
                .potential
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            dc_ref
                .potential
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "seeded DC potentials diverged from the unseeded path"
        );
        let ac_bits = |ac: &AcSolution| {
            ac.potential
                .iter()
                .flat_map(|v| [v.re.to_bits(), v.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(
            ac_bits(&ac_seeded),
            ac_bits(&ac_ref),
            "seeded AC potentials diverged from the unseeded path"
        );
    }

    #[test]
    fn iterative_strategies_publish_and_consume_ilu_donations() {
        // Force the Krylov path so the topology shares ILU(0) values
        // instead of symbolic LU phases.
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let options = SolverOptions {
            linear_solver: SolverKind::IluBiCgStab,
            ..SolverOptions::default()
        };
        let topology = Arc::new(SolverTopology::build(&s).unwrap());
        assert!(!topology.seed_stats().dc_ilu_seeded);

        let donor =
            CoupledSolver::with_topology(&s, &doping, options.clone(), topology.clone()).unwrap();
        let dc_donor = donor.solve_dc().unwrap();
        let ac_donor = donor.solve_ac(&dc_donor, "top", 1.0e9).unwrap();
        let stats = topology.seed_stats();
        assert!(
            stats.dc_ilu_seeded && stats.ac_ilu_seeded,
            "iterative solves must donate their ILU(0): {stats:?}"
        );
        // The direct donors stay empty — there was no symbolic phase.
        assert!(!stats.dc_seeded && !stats.ac_seeded, "stats {stats:?}");

        // A sibling on the shared topology starts from the donated
        // preconditioner and reproduces the physics.
        let seeded = CoupledSolver::with_topology(&s, &doping, options, topology.clone()).unwrap();
        let dc_seeded = seeded.solve_dc().unwrap();
        let ac_seeded = seeded.solve_ac(&dc_seeded, "top", 1.0e9).unwrap();
        for (a, b) in dc_seeded.potential.iter().zip(dc_donor.potential.iter()) {
            assert!((a - b).abs() < 1e-7, "seeded DC diverged: {a} vs {b}");
        }
        let mut max_diff = 0.0_f64;
        for (a, b) in ac_seeded.potential.iter().zip(ac_donor.potential.iter()) {
            max_diff = max_diff.max((*a - *b).abs());
        }
        assert!(max_diff < 1e-7, "seeded AC diverged by {max_diff:.3e}");
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let s = parallel_plate(0.5);
        let other = parallel_plate(1.0); // different mesh resolution
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let topology = Arc::new(SolverTopology::build(&other).unwrap());
        assert!(matches!(
            CoupledSolver::with_topology(&s, &doping, SolverOptions::default(), topology),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn invalid_sweep_frequency_is_rejected() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let mut sweep = solver.prepare_ac_sweep(&dc).unwrap();
        assert!(matches!(
            sweep.set_frequency(f64::NAN),
            Err(FvmError::Configuration { .. })
        ));
        assert!(matches!(
            sweep.set_frequency(-1.0),
            Err(FvmError::Configuration { .. })
        ));
        // And solving without a frequency is a configuration error.
        let mut fresh = solver.prepare_ac_sweep(&dc).unwrap();
        assert!(matches!(
            fresh.solve_terminal("top"),
            Err(FvmError::Configuration { .. })
        ));
    }

    #[test]
    fn solve_at_matches_set_frequency_plus_solve() {
        let s = parallel_plate(0.5);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        // Out-of-order refinement pattern: jump around the grid.
        let mut adaptive = solver.prepare_ac_sweep(&dc).unwrap();
        for freq in [1.0e9, 1.0e7, 3.0e8, 1.0e8] {
            let ac = adaptive.solve_at(freq, "top").unwrap();
            let mut reference_op = solver.prepare_ac(&dc, freq).unwrap();
            let reference = reference_op.solve_terminal("top").unwrap();
            assert_eq!(ac.omega, reference.omega);
            let mut max_diff = 0.0_f64;
            let mut max_ref = 0.0_f64;
            for (a, b) in ac.potential.iter().zip(reference.potential.iter()) {
                max_diff = max_diff.max((*a - *b).abs());
                max_ref = max_ref.max(b.abs());
            }
            assert!(
                max_diff <= 1e-8 * max_ref.max(1e-30),
                "solve_at diverged at {freq} Hz: {max_diff:.3e} vs scale {max_ref:.3e}"
            );
        }
    }

    /// 2×2 with a donor-friendly diagonal: the published pivot sequence is
    /// the diagonal one.
    fn donor_matrix() -> vaem_sparse::CsrMatrix<f64> {
        vaem_sparse::CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 10.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 10.0)],
        )
    }

    /// Same pattern, anti-diagonally dominant values: the donor's diagonal
    /// pivots fall below the refactorization tolerance, so every seeded
    /// consumer re-pivots from scratch.
    fn hostile_matrix() -> vaem_sparse::CsrMatrix<f64> {
        vaem_sparse::CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0e-14), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0e-14)],
        )
    }

    #[test]
    fn first_donor_is_never_replaced() {
        // The nominal publisher donates the diagonal pivot sequence; later
        // publishing consumers whose values leave it re-pivot locally and
        // are counted, but the slot keeps the first donor.
        let s = parallel_plate(1.0);
        let topology = SolverTopology::build(&s).unwrap();
        let linear = LinearSolver::new(SolverKind::DirectLu);
        let donor = linear.prepare(&donor_matrix()).unwrap();
        topology.note_dc_factorization(&donor, true);
        assert!(topology.seed_stats().dc_seeded);
        for _ in 0..3 {
            let stale = linear
                .prepare_seeded(&hostile_matrix(), topology.dc_donor.donor.get())
                .unwrap();
            assert_eq!(stale.direct_stale_fallbacks(), 1);
            topology.note_dc_factorization(&stale, true);
        }
        let stats = topology.seed_stats();
        assert_eq!(stats.dc_stale_refactorizations, 3);
        assert_eq!(stats.dc_donor_refreshes, 0);
        // Still the diagonal donor: a donor-friendly consumer stays on its
        // pivots, while a hostile one still re-pivots.
        let friendly = linear
            .prepare_seeded(&donor_matrix(), topology.dc_donor.donor.get())
            .unwrap();
        assert_eq!(friendly.direct_stale_fallbacks(), 0);
        let hostile = linear
            .prepare_seeded(&hostile_matrix(), topology.dc_donor.donor.get())
            .unwrap();
        assert_eq!(hostile.direct_stale_fallbacks(), 1);
    }

    #[test]
    fn dc_bias_shifts_metal_potentials() {
        let s = parallel_plate(1.0);
        let doping = DopingProfile::undoped(s.mesh.node_count());
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let mut biases = BTreeMap::new();
        biases.insert("top".to_string(), 0.5);
        let dc = solver.solve_dc_with_biases(&biases).unwrap();
        let top_nodes = solver
            .terminals()
            .nodes_of(solver.terminals().index_of("top").unwrap());
        for n in top_nodes {
            assert!((dc.potential_at(n) - 0.5).abs() < 1e-12);
        }
    }
}
