//! Tier-1 allocation counts of the hot operations.
//!
//! The efficiency of the variation-aware flow rests on a deterministic solve
//! that stays cheap at every collocation point. Whether that solve allocates
//! per Krylov iteration is something a counting allocator measures exactly:
//! this binary's global allocator counts every `alloc` and `realloc` of the
//! calling thread, and the test pins the exact counts of the prepared
//! solves, of one frequency-sweep point on the coarse TSV, of one
//! `solve_batch` column and of the `par_map_mut` claiming loop. The
//! prepared-solve counts are the same at every size and every iteration
//! count, so an allocation inside an iteration moves them; any pinned count
//! that moves is a change in allocation behaviour the change must explain.
//! The counts include what `std` allocates inside the operations (such as
//! reading `VAEM_THREADS`, which every case sets), so a toolchain upgrade
//! can move them too.
//!
//! This file intentionally holds a single test: it sets the process-wide
//! `VAEM_THREADS` per case, so no other test may race on it in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use vaem_fvm::{CoupledSolver, SolverOptions};
use vaem_mesh::structures::tsv::{build_tsv_structure, TsvConfig};
use vaem_numeric::Complex64;
use vaem_physics::DopingProfile;
use vaem_sparse::{CsrMatrix, LinearSolver, PreparedSolver, SolverKind};

thread_local! {
    /// Allocations made by this thread so far. A `const` initializer never
    /// allocates, so counting cannot re-enter the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The count at the end of the last `solve_batch` right-hand-side
    /// callback on this thread.
    static MARK: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting each `alloc` and `realloc` on the calling thread.
/// (`alloc_zeroed` keeps its default, which calls `alloc`.)
struct CountingAllocator;

fn count_one() {
    // `try_with`: the thread-local is gone while a thread is being torn
    // down, and the allocator may still be called then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting only touches a
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every allocation of this
        // allocator is) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The address of the calling thread's counter: a thread identity that,
/// unlike `std::thread::current`, never allocates. Distinct for threads
/// alive at the same time.
fn thread_key() -> usize {
    ALLOCATIONS.with(|n| n as *const Cell<u64> as usize)
}

/// Runs `f` and returns its result with the allocations it made on the
/// calling thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Every reading of the test, checked together so one run reports every
/// count that moved.
#[derive(Default)]
struct Readings(Vec<(String, u64, u64)>);

impl Readings {
    fn pin(&mut self, what: impl Into<String>, measured: u64, pinned: u64) {
        self.0.push((what.into(), measured, pinned));
    }

    fn assert_all_pinned(&self) {
        let mut report = String::new();
        for (what, measured, pinned) in &self.0 {
            let flag = if measured == pinned { "  " } else { "!!" };
            report.push_str(&format!("{flag} {what}: {measured} (pinned {pinned})\n"));
        }
        assert!(
            self.0.iter().all(|(_, m, p)| m == p),
            "allocation counts moved:\n{report}"
        );
    }
}

/// The 5-point Laplacian on an `nx`×`nx` grid with the complex diagonal
/// shift `shift`, the lossy operator shape of the AC systems.
fn shifted_laplacian(nx: usize, shift: Complex64) -> CsrMatrix<Complex64> {
    let idx = |i: usize, j: usize| i * nx + j;
    let mut t = Vec::new();
    for i in 0..nx {
        for j in 0..nx {
            t.push((idx(i, j), idx(i, j), Complex64::new(4.0, 0.0) + shift));
            let neighbours = [
                (i > 0).then(|| idx(i - 1, j)),
                (i + 1 < nx).then(|| idx(i + 1, j)),
                (j > 0).then(|| idx(i, j - 1)),
                (j + 1 < nx).then(|| idx(i, j + 1)),
            ];
            for k in neighbours.into_iter().flatten() {
                t.push((idx(i, j), k, Complex64::new(-1.0, 0.0)));
            }
        }
    }
    CsrMatrix::from_triplets(nx * nx, nx * nx, &t)
}

/// Entry `i` of right-hand side `j`.
fn rhs_entry(i: usize, j: usize) -> Complex64 {
    Complex64::new((i as f64 * 0.37 + j as f64).sin(), (i as f64 * 0.11).cos())
}

/// Shift of the operator a solver is prepared on, and the one it is then
/// refactored to (new values on the same pattern).
const SHIFT: Complex64 = Complex64::new(0.02, 0.25);
const REFACTOR_SHIFT: Complex64 = Complex64::new(0.025, 0.3);

/// A prepared solver of `kind` after one warm-up solve, so its workspace is
/// sized and its ILU baseline recorded, with the right-hand side and the
/// warm-up solution.
fn warmed_up(
    kind: SolverKind,
    nx: usize,
) -> (PreparedSolver<Complex64>, Vec<Complex64>, Vec<Complex64>) {
    let a = shifted_laplacian(nx, SHIFT);
    let mut prepared = LinearSolver::new(kind).prepare(&a).expect("prepare");
    let b: Vec<Complex64> = (0..a.rows()).map(|i| rhs_entry(i, 0)).collect();
    let (x, _) = prepared.solve(&b).expect("warm-up solve");
    (prepared, b, x)
}

/// `refactor`, `solve` and `solve_with_guess` on a prepared solver, at
/// 256, 1024 and 2304 unknowns (`VAEM_THREADS=1`).
fn prepared_solves(readings: &mut Readings) {
    for (kind, refactor_pin, solve_pin, guess_pin) in [
        (SolverKind::IluBiCgStab, 0, 4, 5),
        (SolverKind::DirectLu, 8, 5, 5),
    ] {
        for nx in [16, 32, 48] {
            let (mut prepared, b, x_warm) = warmed_up(kind, nx);
            let a = shifted_laplacian(nx, REFACTOR_SHIFT);
            let setup = format!("{kind:?} on {} unknowns", a.rows());
            let (refactored, n) = counted(|| prepared.refactor(&a));
            refactored.expect("refactor");
            readings.pin(format!("{setup}: refactor"), n, refactor_pin);
            let (solved, n) = counted(|| prepared.solve(&b));
            let (_, report) = solved.expect("solve");
            readings.pin(
                format!("{setup}: solve ({} iterations)", report.iterations),
                n,
                solve_pin,
            );
            let (solved, n) = counted(|| prepared.solve_with_guess(&b, Some(&x_warm)));
            let (_, report) = solved.expect("solve with guess");
            readings.pin(
                format!(
                    "{setup}: solve_with_guess ({} iterations)",
                    report.iterations
                ),
                n,
                guess_pin,
            );
            assert_eq!(prepared.ilu_rebuilds(), 0, "{setup}: no ILU rebuild");
        }
    }
}

/// One frequency point of the AC sweep on the coarse TSV (uniform donor
/// doping 1e5, `VAEM_THREADS=1`), after two warm-up points.
fn sweep_point(readings: &mut Readings) {
    let structure = build_tsv_structure(&TsvConfig::coarse());
    let semis = structure.semiconductor_nodes();
    let doping = DopingProfile::uniform_donor(structure.mesh.node_count(), &semis, 1.0e5);
    for (kind, solve_at_pin, set_frequency_pin, solve_terminal_pin) in [
        (SolverKind::IluBiCgStab, 11, 0, 10),
        (SolverKind::DirectLu, 19, 8, 11),
    ] {
        let options = SolverOptions {
            linear_solver: kind,
            ..SolverOptions::default()
        };
        let solver = CoupledSolver::new(&structure, &doping, options).expect("solver");
        let dc = solver.solve_dc().expect("dc");
        let mut sweep = solver.prepare_ac_sweep(&dc).expect("sweep");
        for frequency in [1.0e8, 3.0e8] {
            sweep.solve_at(frequency, "tsv1").expect("warm-up point");
        }
        let setup = format!("{kind:?} sweep on {} AC unknowns", sweep.unknown_count());
        let (point, n) = counted(|| sweep.solve_at(1.0e9, "tsv1"));
        let iterations = point.expect("sweep point").krylov_iterations;
        readings.pin(
            format!("{setup}: solve_at ({iterations} iterations)"),
            n,
            solve_at_pin,
        );
        let (set, n) = counted(|| sweep.set_frequency(3.0e9));
        set.expect("set_frequency");
        readings.pin(format!("{setup}: set_frequency"), n, set_frequency_pin);
        let (column, n) = counted(|| sweep.solve_terminal("tsv1"));
        let iterations = column.expect("solve_terminal").krylov_iterations;
        readings.pin(
            format!("{setup}: solve_terminal ({iterations} iterations)"),
            n,
            solve_terminal_pin,
        );
    }
}

/// One `solve_batch` column of 8 dense right-hand sides on a fresh
/// ILU(0)+BiCGSTAB solver (1024 unknowns), counted on the thread that
/// solves it between the `rhs` and `reduce` callbacks: at 2 workers the
/// calling thread (worker 0) or the one spawned worker, at 1 worker the
/// calling thread. At 2 workers a side job holds the calling thread back
/// until the spawned worker has built a right-hand side, so both threads'
/// columns are read; when the batch runs serially the side job runs after
/// it and returns at once.
fn batch_columns(readings: &mut Readings) {
    let a = shifted_laplacian(32, SHIFT);
    let caller = thread_key();
    for (threads, first_pin, rest_pin) in [("2", 4, 4), ("1", 12, 4)] {
        std::env::set_var("VAEM_THREADS", threads);
        let mut prepared = LinearSolver::new(SolverKind::IluBiCgStab)
            .prepare(&a)
            .expect("prepare");
        let worker_ran = AtomicBool::new(false);
        let batch_done = AtomicBool::new(false);
        let wait_for_the_worker = || {
            while !batch_done.load(Ordering::SeqCst) && !worker_ran.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        let (columns, ()) = vaem_parallel::with_side_job(wait_for_the_worker, || {
            let columns = prepared.solve_batch(
                8,
                |j, b| {
                    for (i, v) in b.iter_mut().enumerate() {
                        *v = rhs_entry(i, j);
                    }
                    if thread_key() != caller {
                        worker_ran.store(true, Ordering::SeqCst);
                    }
                    MARK.with(|m| m.set(allocations()));
                },
                |_, _, report| {
                    let n = allocations() - MARK.with(Cell::get);
                    Ok::<_, vaem_sparse::SparseError>((n, report.iterations, thread_key()))
                },
            );
            batch_done.store(true, Ordering::SeqCst);
            columns
        });
        let columns = columns.expect("batch");
        let spawned: BTreeSet<usize> = columns
            .iter()
            .map(|&(_, _, thread)| thread)
            .filter(|&thread| thread != caller)
            .collect();
        assert_eq!(
            spawned.len(),
            usize::from(threads == "2"),
            "columns at {threads} worker(s) ran on {} spawned thread(s)",
            spawned.len()
        );
        for (j, &(n, iterations, _)) in columns.iter().enumerate() {
            readings.pin(
                format!("solve_batch at {threads} worker(s): column {j} ({iterations} iterations)"),
                n,
                if j == 0 { first_pin } else { rest_pin },
            );
        }
    }
}

/// `par_map_mut_with_chunk`'s claiming loop: nothing allocates on a worker
/// between two items, and one worker makes the output vector only.
fn claiming_loop(readings: &mut Readings) {
    // Per item: the worker's identity and its count on entry to and exit
    // from the item.
    let probe = |_: usize, _: &mut u64| (thread_key(), allocations(), allocations());
    let mut items = vec![0u64; 64];
    let caller = thread_key();
    let visits = vaem_parallel::par_map_mut_with_chunk(2, 1, &mut items, probe);
    let spawned: BTreeSet<usize> = visits
        .iter()
        .map(|v| v.0)
        .filter(|&thread| thread != caller)
        .collect();
    assert!(
        spawned.len() <= 1,
        "items run on the calling thread (worker 0) and one spawned worker"
    );
    let mut between = 0;
    let mut pairs = 0;
    for (k, &(thread, entry, _)) in visits.iter().enumerate() {
        // The previous item this worker ran (claims go up in index order).
        if let Some(&(_, _, exit)) = visits[..k].iter().rev().find(|v| v.0 == thread) {
            between += entry - exit;
            pairs += 1;
        }
    }
    assert!(pairs > 0, "some worker ran two items");
    readings.pin(
        format!(
            "par_map_mut_with_chunk at 2 workers: between two items on a worker ({pairs} pairs)"
        ),
        between,
        0,
    );
    let (_, n) = counted(|| vaem_parallel::par_map_mut_with_chunk(1, 1, &mut items, probe));
    readings.pin("par_map_mut_with_chunk at 1 worker: calling thread", n, 1);
}

#[test]
fn hot_operations_allocate_exactly_the_pinned_counts() {
    let mut readings = Readings::default();
    std::env::set_var("VAEM_THREADS", "1");
    prepared_solves(&mut readings);
    sweep_point(&mut readings);
    batch_columns(&mut readings);
    claiming_loop(&mut readings);
    std::env::remove_var("VAEM_THREADS");
    readings.assert_all_pinned();
}
