//! Tier-1 guarantee of the numeric refactorization on the genuine 3×3
//! TSV-array mesh pattern: replayed against the recorded pivot sequence and
//! factor structure, the same values must reproduce the recording
//! factorization's triangular solve bit for bit — through a second `factor`
//! call on the recording handle, and through a `SymbolicLu::seed_from`
//! handle, which is how every adaptive-sweep sample receives the nominal's
//! analysis. The refactorization eliminates in the recorded ascending pivot
//! order, and its supernode runs go through fused panel kernels whose
//! per-target operation sequence equals the scalar elimination's, so a
//! replay changes no floating-point operation. This pins at the solver
//! level what the CI digest matrix checks end to end through
//! `tsv_array --digest`, where a violation is attributable to one
//! factorization instead of a whole pipeline.

use vaem_mesh::structures::tsv_array::{build_tsv_array_structure, TsvArrayConfig};
use vaem_mesh::Material;
use vaem_numeric::Complex64;
use vaem_sparse::{SparsityPattern, SymbolicLu, TripletMatrix};

/// Assembles an AC-like nodal admittance system on the 3×3 array mesh:
/// per-link conductance from the endpoint materials (series combination,
/// with the paper's metal/semiconductor/dielectric contrast) plus a
/// capacitive `iωC` diagonal term so the pure-Neumann operator is
/// nonsingular. The exact physics is irrelevant here; what matters is the
/// true array-mesh sparsity pattern and realistically contrasted values.
fn array_system() -> vaem_sparse::CsrMatrix<Complex64> {
    let structure = build_tsv_array_structure(&TsvArrayConfig::coarse(3, 3)).expect("3x3 builds");
    let mesh = &structure.mesh;
    let sigma = |m: Material| -> f64 {
        match m {
            Material::Metal => 5.8e1,
            Material::Semiconductor => 1.0,
            Material::Insulator => 1e-6,
        }
    };
    let n = mesh.node_count();
    let mut t = TripletMatrix::new(n, n);
    for link in mesh.links() {
        let (a, b) = (link.from, link.to);
        let (sa, sb) = (
            sigma(structure.materials.material(a)),
            sigma(structure.materials.material(b)),
        );
        let g = 2.0 * sa * sb / (sa + sb);
        let y = Complex64::new(g, 1e-3 * g);
        t.push(a.index(), a.index(), y);
        t.push(b.index(), b.index(), y);
        t.push(a.index(), b.index(), -y);
        t.push(b.index(), a.index(), -y);
    }
    for i in 0..n {
        t.push(i, i, Complex64::new(1e-9, 1e-4));
    }
    t.to_csr()
}

#[test]
fn array_refactorization_reproduces_the_recording_factorization_bits() {
    let a = array_system();
    let b: Vec<Complex64> = (0..a.rows())
        .map(|i| Complex64::new(1.0 + (i % 7) as f64, 0.25 * (i % 3) as f64))
        .collect();
    let bits = |x: &[Complex64]| -> Vec<(u64, u64)> {
        x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    };

    let mut symbolic = SymbolicLu::new(&SparsityPattern::of(&a)).expect("symbolic analysis");
    let recording = symbolic.factor(&a).expect("recording factorization");
    let reference = bits(&recording.solve(&b).expect("recording solve"));

    let mut seeded = symbolic.seed_from();
    assert!(seeded.has_structure());
    for (how, replay) in [
        ("second factor", symbolic.factor(&a)),
        ("seeded handle", seeded.factor(&a)),
    ] {
        let replay = replay.expect(how);
        assert_eq!(recording.factor_nnz(), replay.factor_nnz(), "{how}");
        assert_eq!(
            reference,
            bits(&replay.solve(&b).expect(how)),
            "the {how} changed the triangular solve"
        );
    }
    // Neither replay fell back to a fresh pivoting factorization.
    assert_eq!(symbolic.stale_fallback_count(), 0);
    assert_eq!(seeded.stale_fallback_count(), 0);
}
