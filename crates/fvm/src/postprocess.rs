//! Post-processing of coupled-solver solutions: terminal currents,
//! metal–semiconductor interface currents (Table I), capacitance matrix
//! entries (Table II) and potential maps on cross sections (Fig. 2b).

use crate::{AcSolution, CoupledSolver, DcSolution, FvmError};
use std::collections::BTreeMap;
use vaem_mesh::{Axis, NodeId};
use vaem_numeric::Complex64;

/// Complex terminal current (A) flowing out of the named terminal — summed
/// over all links crossing the surface of the conductor electrically tied to
/// the terminal (the whole plug/TSV body, not just the contact face, so that
/// the measurement never multiplies solver noise by the metal conductivity).
///
/// With a 1 V excitation this is the terminal's row of the admittance matrix;
/// its imaginary part divided by ω is the Maxwell capacitance entry.
///
/// # Errors
/// Returns [`FvmError::Configuration`] for an unknown terminal name.
pub fn terminal_current(
    solver: &CoupledSolver<'_>,
    ac: &AcSolution,
    terminal: &str,
) -> Result<Complex64, FvmError> {
    let k = solver
        .terminals()
        .index_of(terminal)
        .ok_or_else(|| FvmError::Configuration {
            detail: format!("unknown terminal '{terminal}'"),
        })?;
    Ok(terminal_currents(solver, ac)[k])
}

/// Every terminal's current (A), indexed like the solver's terminals, in
/// one walk over the mesh links: a link crossing the surface of terminal
/// `k`'s conductor adds its current to `k`'s sum (a link joining two
/// terminals adds to both), in link order — so each sum equals
/// [`terminal_current`] for that terminal, bit for bit.
pub fn terminal_currents(solver: &CoupledSolver<'_>, ac: &AcSolution) -> Vec<Complex64> {
    let terminals = solver.terminals();
    let mesh = &solver.structure().mesh;
    let mut currents = vec![Complex64::ZERO; terminals.terminal_count()];
    for lid in mesh.link_ids() {
        let link = mesh.link(lid);
        let from_t = terminals.terminal(link.from);
        let to_t = terminals.terminal(link.to);
        if from_t == to_t {
            continue;
        }
        let y = ac.admittance_at(lid);
        if let Some(a) = from_t {
            currents[a] += y * (ac.potential_at(link.from) - ac.potential_at(link.to));
        }
        if let Some(b) = to_t {
            currents[b] += y * (ac.potential_at(link.to) - ac.potential_at(link.from));
        }
    }
    currents
}

/// Complex current (A) crossing the metal–semiconductor interface of the
/// named terminal: the sum of link currents from metal nodes electrically
/// belonging to the terminal into semiconductor nodes.
///
/// This is the quantity reported (as a magnitude, in µA) in the paper's
/// Table I.
///
/// # Errors
/// Returns [`FvmError::Configuration`] for an unknown terminal name.
pub fn interface_current(
    solver: &CoupledSolver<'_>,
    ac: &AcSolution,
    terminal: &str,
) -> Result<Complex64, FvmError> {
    let k = solver
        .terminals()
        .index_of(terminal)
        .ok_or_else(|| FvmError::Configuration {
            detail: format!("unknown terminal '{terminal}'"),
        })?;
    let structure = solver.structure();
    let mesh = &structure.mesh;
    let mut current = Complex64::ZERO;
    for lid in mesh.link_ids() {
        let link = mesh.link(lid);
        let mat_from = structure.materials.material(link.from);
        let mat_to = structure.materials.material(link.to);
        let y = ac.admittance_at(lid);
        let from_terminal = solver.terminals().terminal(link.from);
        let to_terminal = solver.terminals().terminal(link.to);
        if mat_from.is_metal() && from_terminal == Some(k) && mat_to.is_semiconductor() {
            current += y * (ac.potential_at(link.from) - ac.potential_at(link.to));
        } else if mat_to.is_metal() && to_terminal == Some(k) && mat_from.is_semiconductor() {
            current += y * (ac.potential_at(link.to) - ac.potential_at(link.from));
        }
    }
    Ok(current)
}

/// One column of the Maxwell capacitance matrix: drives `driven` with 1 V at
/// `frequency` and returns `C_{t,driven} = Im(I_t)/ω` (F) for every terminal
/// `t`, keyed by terminal name.
///
/// Diagonal entries are positive, couplings negative — matching the sign
/// convention of the paper's Table II.
///
/// # Errors
/// Propagates AC-solve and terminal-lookup failures.
pub fn capacitance_column(
    solver: &CoupledSolver<'_>,
    dc: &DcSolution,
    driven: &str,
    frequency: f64,
) -> Result<BTreeMap<String, f64>, FvmError> {
    let ac = solver.solve_ac(dc, driven, frequency)?;
    capacitance_column_from(solver, &ac)
}

/// [`capacitance_column`] computed from an already-available AC solution
/// (the nominal-analysis path solves once and shares the solution between
/// the output extraction and the wPFA weights).
///
/// # Errors
/// Propagates terminal-lookup failures. Returns
/// [`FvmError::Configuration`] for a DC solution (`ω = 0`): `C = Im(I)/ω`
/// is undefined there, and the former `0/0 = NaN` silently poisoned every
/// downstream PCE moment of a sweep that included the DC point. Returns
/// [`FvmError::NonFinite`] — naming the offending terminal and its index —
/// when a terminal's current sum is non-finite; array meshes multiply the
/// terminal count, and a silent NaN column poisons every matrix entry of
/// that terminal.
pub fn capacitance_column_from(
    solver: &CoupledSolver<'_>,
    ac: &crate::AcSolution,
) -> Result<BTreeMap<String, f64>, FvmError> {
    if ac.omega <= 0.0 || !ac.omega.is_finite() {
        return Err(FvmError::Configuration {
            detail: format!(
                "capacitance extraction needs ω > 0, got {} Hz — the DC point \
                 carries no displacement current to divide by",
                ac.frequency()
            ),
        });
    }
    let mut out = BTreeMap::new();
    for (k, current) in terminal_currents(solver, ac).into_iter().enumerate() {
        let name = solver.terminals().name(k).to_string();
        if !current.re.is_finite() || !current.im.is_finite() {
            return Err(FvmError::NonFinite {
                detail: format!(
                    "terminal '{name}' (index {k}) sums to a non-finite current \
                     {current:?} at {} Hz: its capacitance column would silently \
                     poison the whole matrix",
                    ac.frequency()
                ),
            });
        }
        out.insert(name, current.im / ac.omega);
    }
    Ok(out)
}

/// The full Maxwell capacitance matrix at `frequency`: one column per
/// terminal, keyed `[driven][measured]`.
///
/// All columns share a single [`CoupledSolver::prepare_ac`] operator, so the
/// AC assembly and the ILU/LU factorization are done exactly once for the
/// whole matrix instead of once per terminal. The K columns are solved by
/// [`crate::AcSweepOperator::solve_terminals`] with
/// [`capacitance_column_from`] as the per-column reducer: on the
/// ILU(0)+BiCGSTAB strategy they fan out over `VAEM_THREADS` workers, and
/// the matrix is bit-identical to solving and reducing the columns one
/// after another at any thread count (see
/// [`vaem_sparse::PreparedSolver::solve_batch`] for the speculative-commit
/// rule that guarantees it).
///
/// # Errors
/// Propagates AC-solve and column-extraction failures, the first in
/// terminal order.
pub fn capacitance_matrix(
    solver: &CoupledSolver<'_>,
    dc: &DcSolution,
    frequency: f64,
) -> Result<BTreeMap<String, BTreeMap<String, f64>>, FvmError> {
    let mut operator = solver.prepare_ac(dc, frequency)?;
    let terminals = solver.terminals();
    let names: Vec<&str> = (0..terminals.terminal_count())
        .map(|k| terminals.name(k))
        .collect();
    let columns = operator.solve_terminals(&names, |ac| capacitance_column_from(solver, ac))?;
    Ok(names
        .iter()
        .map(|name| name.to_string())
        .zip(columns)
        .collect())
}

/// Input impedance spectrum of a driven terminal over a frequency sweep.
///
/// For each swept [`AcSolution`] (as produced by
/// [`crate::AcSweepOperator::sweep_terminal`]), computes the terminal
/// current `I` and the applied terminal voltage `V` (read off the contact
/// nodes, so non-unit excitations work too) and returns
/// `(frequency_Hz, Z = V / I)` pairs in sweep order.
///
/// The low-frequency limit of a capacitive structure behaves as
/// `Z ≈ 1/(jωC)`; the spectrum exposes the transition into the
/// conduction-dominated regime that the TSV coupling studies sweep for.
///
/// # Errors
/// Returns [`FvmError::Configuration`] for an unknown terminal, or for a
/// sweep point where the terminal behaves as an open circuit — the current
/// is identically zero (e.g. a purely capacitive terminal at `f = 0`) or so
/// small that `V / I` overflows to a non-finite impedance. Both used to
/// propagate silently (`∞`/NaN) into the PCE moments of the statistical
/// sweeps; they now fail with the offending frequency in the message.
pub fn impedance_spectrum(
    solver: &CoupledSolver<'_>,
    sweep: &[AcSolution],
    terminal: &str,
) -> Result<Vec<(f64, Complex64)>, FvmError> {
    let k = solver
        .terminals()
        .index_of(terminal)
        .ok_or_else(|| FvmError::Configuration {
            detail: format!("unknown terminal '{terminal}'"),
        })?;
    let nodes = solver.terminals().nodes_of(k);
    let drive_node = nodes
        .first()
        .copied()
        .ok_or_else(|| FvmError::Configuration {
            detail: format!("terminal '{terminal}' has no nodes"),
        })?;
    sweep
        .iter()
        .map(|ac| {
            let current = terminal_current(solver, ac, terminal)?;
            if current.abs() == 0.0 {
                return Err(FvmError::Configuration {
                    detail: format!(
                        "terminal '{terminal}' carries no current at {} Hz \
                         (open circuit / DC point): no impedance is defined",
                        ac.frequency()
                    ),
                });
            }
            let voltage = ac.potential_at(drive_node);
            let z = voltage / current;
            if !z.re.is_finite() || !z.im.is_finite() {
                return Err(FvmError::Configuration {
                    detail: format!(
                        "terminal '{terminal}' is effectively open-circuit at {} Hz \
                         (|I| = {:.3e} A): impedance overflows",
                        ac.frequency(),
                        current.abs()
                    ),
                });
            }
            Ok((ac.frequency(), z))
        })
        .collect()
}

/// Aggressor→victim coupling-ratio spectrum over a frequency sweep.
///
/// For each swept [`AcSolution`] (the aggressor terminal driven with 1 V, as
/// produced by [`crate::AcSweepOperator::sweep_terminal`]), returns
/// `(frequency_Hz, |I_victim| / |I_aggressor|)` — the fraction of the
/// aggressor's drive current induced at the grounded victim terminal. This is
/// the S-curve-style crosstalk-vs-frequency quantity the TSV-array coupling
/// studies sweep for: flat and capacitive at low frequency, rising once
/// substrate conduction takes over. Each solution is reduced to its
/// frequency and [`terminal_currents`] and handed to [`coupling_ratios`].
///
/// # Errors
/// Returns [`FvmError::Configuration`] for an unknown terminal or for a sweep
/// point where the aggressor carries no current (the ratio is undefined), and
/// [`FvmError::NonFinite`] when either current sums to a non-finite value —
/// each with the offending frequency in the message.
pub fn coupling_ratio_spectrum(
    solver: &CoupledSolver<'_>,
    sweep: &[AcSolution],
    aggressor: &str,
    victim: &str,
) -> Result<Vec<(f64, f64)>, FvmError> {
    let points: Vec<(f64, Vec<Complex64>)> = sweep
        .iter()
        .map(|ac| (ac.frequency(), terminal_currents(solver, ac)))
        .collect();
    coupling_ratios(solver, &points, aggressor, victim)
}

/// [`coupling_ratio_spectrum`] over sweep points already reduced to their
/// frequency (Hz) and every terminal's current (A, indexed like the
/// solver's terminals, as [`terminal_currents`] returns them). A sweep that
/// keeps only these holds K currents per point instead of a node-space
/// solution, and sums each point's currents once for all its victims.
///
/// # Errors
/// As [`coupling_ratio_spectrum`].
pub fn coupling_ratios(
    solver: &CoupledSolver<'_>,
    points: &[(f64, Vec<Complex64>)],
    aggressor: &str,
    victim: &str,
) -> Result<Vec<(f64, f64)>, FvmError> {
    let index_of = |terminal: &str| {
        solver
            .terminals()
            .index_of(terminal)
            .ok_or_else(|| FvmError::Configuration {
                detail: format!("unknown terminal '{terminal}'"),
            })
    };
    let (a, v) = (index_of(aggressor)?, index_of(victim)?);
    points
        .iter()
        .map(|(frequency, currents)| {
            let (i_aggr, i_victim) = (currents[a], currents[v]);
            for (name, i) in [(aggressor, i_aggr), (victim, i_victim)] {
                if !i.re.is_finite() || !i.im.is_finite() {
                    return Err(FvmError::NonFinite {
                        detail: format!(
                            "terminal '{name}' sums to a non-finite current at \
                             {frequency} Hz: no coupling ratio is defined"
                        ),
                    });
                }
            }
            if i_aggr.abs() == 0.0 {
                return Err(FvmError::Configuration {
                    detail: format!(
                        "aggressor '{aggressor}' carries no current at {frequency} Hz \
                         (open circuit / DC point): no coupling ratio is defined"
                    ),
                });
            }
            Ok((*frequency, i_victim.abs() / i_aggr.abs()))
        })
        .collect()
}

/// Potential samples `(position, Re(V))` of all nodes lying on the plane
/// `axis = coordinate` (within `tolerance`), used to regenerate the
/// Fig. 2(b) potential map on the metal–semiconductor interface.
pub fn potential_slice(
    solver: &CoupledSolver<'_>,
    potential: &[Complex64],
    axis: Axis,
    coordinate: f64,
    tolerance: f64,
) -> Vec<([f64; 3], f64)> {
    let mesh = &solver.structure().mesh;
    let mut out = Vec::new();
    for node in mesh.node_ids() {
        let p = mesh.position(node);
        if (p[axis.as_usize()] - coordinate).abs() <= tolerance {
            out.push((p, potential[node.index()].re));
        }
    }
    out
}

/// DC potential samples on a plane (same convention as [`potential_slice`]).
pub fn dc_potential_slice(
    solver: &CoupledSolver<'_>,
    dc: &DcSolution,
    axis: Axis,
    coordinate: f64,
    tolerance: f64,
) -> Vec<([f64; 3], f64)> {
    let mesh = &solver.structure().mesh;
    let mut out = Vec::new();
    for node in mesh.node_ids() {
        let p = mesh.position(node);
        if (p[axis.as_usize()] - coordinate).abs() <= tolerance {
            out.push((p, dc.potential_at(node)));
        }
    }
    out
}

/// Sum of all terminal currents (A); should be close to zero by charge
/// conservation and is used as a sanity diagnostic.
pub fn current_balance(solver: &CoupledSolver<'_>, ac: &AcSolution) -> Result<Complex64, FvmError> {
    let mut total = Complex64::ZERO;
    for current in terminal_currents(solver, ac) {
        total += current;
    }
    Ok(total)
}

/// Convenience: positions of the nodes of a facet together with the real part
/// of the potential, for plotting roughness/field correlations.
pub fn facet_potentials(
    solver: &CoupledSolver<'_>,
    ac: &AcSolution,
    facet_nodes: &[NodeId],
) -> Vec<([f64; 3], f64)> {
    let mesh = &solver.structure().mesh;
    facet_nodes
        .iter()
        .map(|&n| (mesh.position(n), ac.potential_at(n).re))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoupledSolver, SolverOptions};
    use vaem_mesh::structures::metalplug::{build_metalplug_structure, MetalPlugConfig};
    use vaem_physics::DopingProfile;

    fn coarse_setup() -> (vaem_mesh::Structure, DopingProfile) {
        let s = build_metalplug_structure(&MetalPlugConfig::coarse());
        let semis = s.semiconductor_nodes();
        let doping = DopingProfile::uniform_donor(s.mesh.node_count(), &semis, 1.0e5);
        (s, doping)
    }

    #[test]
    fn interface_current_flows_between_the_plugs() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        let i1 = interface_current(&solver, &ac, "plug1").unwrap();
        let i2 = interface_current(&solver, &ac, "plug2").unwrap();
        assert!(i1.abs() > 0.0);
        assert!(i2.abs() > 0.0);
        // The driven plug sources current into the silicon; the grounded plug
        // and the ground plane sink it, so the two interface currents have
        // opposing orientation (negative real-part product).
        assert!(
            (i1 + i2).abs() <= i1.abs() + i2.abs(),
            "triangle inequality sanity"
        );
    }

    #[test]
    fn terminal_currents_balance_to_near_zero() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        let total = current_balance(&solver, &ac).unwrap();
        let i1 = terminal_current(&solver, &ac, "plug1").unwrap();
        assert!(
            total.abs() < 0.05 * i1.abs().max(1e-30),
            "imbalance {} vs terminal current {}",
            total.abs(),
            i1.abs()
        );
    }

    #[test]
    fn capacitance_column_has_positive_diagonal_and_negative_couplings() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let col = capacitance_column(&solver, &dc, "plug1", 1.0e6).unwrap();
        let c_self = col["plug1"];
        assert!(c_self > 0.0, "self capacitance {c_self}");
        assert!(col["plug2"] < 0.0, "coupling {}", col["plug2"]);
        assert!(c_self.abs() >= col["plug2"].abs());
    }

    #[test]
    fn capacitance_matrix_columns_match_per_terminal_solves() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let matrix = capacitance_matrix(&solver, &dc, 1.0e6).unwrap();
        assert_eq!(matrix.len(), solver.terminals().terminal_count());
        // The shared-factorization matrix must agree with the one-shot
        // column extraction for every driven terminal.
        for (driven, column) in &matrix {
            let reference = capacitance_column(&solver, &dc, driven, 1.0e6).unwrap();
            for (name, c) in column {
                let r = reference[name];
                assert!(
                    (c - r).abs() <= 1e-9 * r.abs().max(1e-20),
                    "C[{driven}][{name}] = {c} vs {r}"
                );
            }
        }
    }

    #[test]
    fn potential_slice_returns_interface_plane_nodes() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        let slice = potential_slice(&solver, &ac.potential, Axis::Z, 10.0, 1e-6);
        assert!(!slice.is_empty());
        for (p, _) in &slice {
            assert!((p[2] - 10.0).abs() < 1e-6);
        }
        let dc_slice = dc_potential_slice(&solver, &dc, Axis::Z, 10.0, 1e-6);
        assert_eq!(dc_slice.len(), slice.len());
    }

    #[test]
    fn impedance_spectrum_is_capacitive_over_the_sweep() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let frequencies = [1.0e8, 3.0e8, 1.0e9, 3.0e9];
        let mut op = solver.prepare_ac_sweep(&dc).unwrap();
        let sweep = op.sweep_terminal(&frequencies, "plug1").unwrap();
        let z = impedance_spectrum(&solver, &sweep, "plug1").unwrap();
        assert_eq!(z.len(), frequencies.len());
        for ((f, zf), freq) in z.iter().zip(frequencies.iter()) {
            assert!((f - freq).abs() < 1e-3 * freq);
            assert!(zf.abs().is_finite() && zf.abs() > 0.0);
        }
        // A mostly capacitive structure: |Z| falls as the frequency rises.
        assert!(
            z.first().unwrap().1.abs() > z.last().unwrap().1.abs(),
            "|Z| should decrease with frequency: {:?}",
            z.iter().map(|(f, v)| (*f, v.abs())).collect::<Vec<_>>()
        );
        let unknown = impedance_spectrum(&solver, &sweep, "nope");
        assert!(unknown.is_err());
    }

    #[test]
    fn dc_point_is_a_clear_error_for_capacitance_and_impedance() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        // A solution tagged ω = 0 (DC point of a sweep): the capacitance
        // entry Im(I)/ω is undefined there — it must be an error, not a
        // silent NaN poisoning the PCE moments downstream.
        let mut ac0 = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        ac0.omega = 0.0;
        match capacitance_column_from(&solver, &ac0) {
            Err(FvmError::Configuration { detail }) => {
                assert!(detail.contains("ω > 0"), "unexpected detail: {detail}")
            }
            other => panic!("expected configuration error, got {other:?}"),
        }
        // A healthy frequency still works.
        let ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        assert!(capacitance_column_from(&solver, &ac).is_ok());
    }

    #[test]
    fn open_circuit_sweep_points_fail_instead_of_propagating_non_finite_z() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();

        // Zero current: every link admittance zeroed out.
        let mut open = ac.clone();
        for y in &mut open.link_admittance {
            *y = Complex64::ZERO;
        }
        match impedance_spectrum(&solver, std::slice::from_ref(&open), "plug1") {
            Err(FvmError::Configuration { detail }) => {
                assert!(detail.contains("no current"), "unexpected detail: {detail}")
            }
            other => panic!("expected configuration error, got {other:?}"),
        }

        // Sub-normal current: V / I overflows to a non-finite impedance
        // that used to slip through as `inf` — now a clear error.
        let mut tiny = ac.clone();
        for y in &mut tiny.link_admittance {
            *y = y.scale(1e-320 / y.abs().max(1e-300));
        }
        let z = impedance_spectrum(&solver, std::slice::from_ref(&tiny), "plug1");
        match z {
            Err(FvmError::Configuration { detail }) => assert!(
                detail.contains("open-circuit") || detail.contains("no current"),
                "unexpected detail: {detail}"
            ),
            Ok(z) => assert!(
                z.iter().all(|(_, v)| v.re.is_finite() && v.im.is_finite()),
                "non-finite impedance slipped through: {z:?}"
            ),
            Err(other) => panic!("expected configuration error, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_terminal_current_names_the_terminal_and_index() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let mut ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        // Poison one potential: every terminal touching it sums to NaN.
        ac.potential[0] = Complex64::new(f64::NAN, 0.0);
        for y in &mut ac.link_admittance {
            *y = Complex64::new(f64::NAN, f64::NAN);
        }
        match capacitance_column_from(&solver, &ac) {
            Err(FvmError::NonFinite { detail }) => {
                assert!(
                    detail.contains("non-finite current") && detail.contains("index"),
                    "unexpected detail: {detail}"
                );
                assert!(
                    detail.contains('\''),
                    "terminal name missing from: {detail}"
                );
            }
            other => panic!("expected non-finite error, got {other:?}"),
        }
    }

    #[test]
    fn coupling_ratio_spectrum_is_bounded_and_guarded() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let frequencies = [1.0e8, 1.0e9, 1.0e10];
        let mut op = solver.prepare_ac_sweep(&dc).unwrap();
        let sweep = op.sweep_terminal(&frequencies, "plug1").unwrap();
        let ratios = coupling_ratio_spectrum(&solver, &sweep, "plug1", "plug2").unwrap();
        assert_eq!(ratios.len(), frequencies.len());
        for ((f, r), freq) in ratios.iter().zip(frequencies.iter()) {
            assert!((f - freq).abs() < 1e-3 * freq);
            assert!(r.is_finite() && *r > 0.0, "ratio {r} at {f} Hz");
            assert!(*r < 1.5, "victim cannot out-carry the aggressor: {r}");
        }
        assert!(coupling_ratio_spectrum(&solver, &sweep, "plug1", "nope").is_err());

        // A dead sweep point (zero currents) is an error, not a 0/0 NaN.
        let mut open = sweep[0].clone();
        for y in &mut open.link_admittance {
            *y = Complex64::ZERO;
        }
        match coupling_ratio_spectrum(&solver, std::slice::from_ref(&open), "plug1", "plug2") {
            Err(FvmError::Configuration { detail }) => {
                assert!(detail.contains("no current"), "unexpected detail: {detail}")
            }
            other => panic!("expected configuration error, got {other:?}"),
        }
    }

    #[test]
    fn facet_potentials_follow_facet_nodes() {
        let (s, doping) = coarse_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let ac = solver.solve_ac(&dc, "plug1", 1.0e9).unwrap();
        let facet = s.facet("plug1_interface").unwrap();
        let vals = facet_potentials(&solver, &ac, &facet.nodes);
        assert_eq!(vals.len(), facet.nodes.len());
    }

    fn array_setup() -> (vaem_mesh::Structure, DopingProfile) {
        use vaem_mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
        let s = build_tsv_array_structure(&TsvArrayConfig::coarse(2, 2)).unwrap();
        let semis = s.semiconductor_nodes();
        let doping = DopingProfile::uniform_donor(s.mesh.node_count(), &semis, 1.0e5);
        (s, doping)
    }

    fn matrix_bits(matrix: &BTreeMap<String, BTreeMap<String, f64>>) -> Vec<(String, String, u64)> {
        matrix
            .iter()
            .flat_map(|(driven, column)| {
                column
                    .iter()
                    .map(move |(name, c)| (driven.clone(), name.clone(), c.to_bits()))
            })
            .collect()
    }

    #[test]
    fn batched_capacitance_matrix_matches_the_per_terminal_loop_bit_for_bit() {
        let (s, doping) = array_setup();
        // Each path gets its own solver, so each starts from a cold
        // topology (no donated factors from the other path).
        let fresh = || {
            let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
            let dc = solver.solve_dc().unwrap();
            (solver, dc)
        };
        let frequency = 1.0e9;

        // The serial reference: one `solve_terminal` and one column
        // reduction per terminal, in order, on one operator.
        let (solver, dc) = fresh();
        let terminals = solver.terminals();
        let names: Vec<&str> = (0..terminals.terminal_count())
            .map(|k| terminals.name(k))
            .collect();
        let mut operator = solver.prepare_ac(&dc, frequency).unwrap();
        let mut reference = BTreeMap::new();
        let mut serial_iterations = Vec::new();
        for name in &names {
            let ac = operator.solve_terminal(name).unwrap();
            assert_eq!(ac.solver_strategy, "ilu0-bicgstab");
            serial_iterations.push(ac.krylov_iterations);
            reference.insert(
                name.to_string(),
                capacitance_column_from(&solver, &ac).unwrap(),
            );
        }
        assert!(serial_iterations.iter().all(|&it| it > 0));

        let (solver, dc) = fresh();
        let matrix = capacitance_matrix(&solver, &dc, frequency).unwrap();
        assert_eq!(matrix_bits(&matrix), matrix_bits(&reference));

        // The per-column Krylov counts of the batch equal the loop's.
        let (solver, dc) = fresh();
        let mut batched = solver.prepare_ac(&dc, frequency).unwrap();
        let iterations = batched
            .solve_terminals(&names, |ac| Ok(ac.krylov_iterations))
            .unwrap();
        assert_eq!(iterations, serial_iterations);

        // Unknown terminals are rejected before any solve, and the operator
        // keeps answering afterwards.
        assert!(matches!(
            batched.solve_terminals(&["nope"], |_| Ok(())),
            Err(FvmError::Configuration { .. })
        ));
        assert!(batched.solve_terminal(names[0]).is_ok());
    }

    #[test]
    fn one_link_walk_matches_the_per_terminal_walk_bit_for_bit() {
        let (s, doping) = array_setup();
        let solver = CoupledSolver::new(&s, &doping, SolverOptions::default()).unwrap();
        let dc = solver.solve_dc().unwrap();
        let terminals = solver.terminals();
        let mesh = &s.mesh;
        for driven in 0..terminals.terminal_count() {
            let ac = solver.solve_ac(&dc, terminals.name(driven), 1.0e9).unwrap();
            let currents = terminal_currents(&solver, &ac);
            assert_eq!(currents.len(), terminals.terminal_count());
            for (k, current) in currents.iter().enumerate() {
                // The former per-terminal walker, kept as the reference.
                let mut expected = Complex64::ZERO;
                for lid in mesh.link_ids() {
                    let link = mesh.link(lid);
                    let y = ac.admittance_at(lid);
                    match (terminals.terminal(link.from), terminals.terminal(link.to)) {
                        (Some(a), Some(b)) if a == b => {}
                        (Some(a), _) if a == k => {
                            expected += y * (ac.potential_at(link.from) - ac.potential_at(link.to));
                        }
                        (_, Some(b)) if b == k => {
                            expected += y * (ac.potential_at(link.to) - ac.potential_at(link.from));
                        }
                        _ => {}
                    }
                }
                assert_eq!(
                    (current.re.to_bits(), current.im.to_bits()),
                    (expected.re.to_bits(), expected.im.to_bits()),
                    "terminal {k}, driven {driven}"
                );
                let single = terminal_current(&solver, &ac, terminals.name(k)).unwrap();
                assert_eq!(single, *current);
            }
        }
    }
}
