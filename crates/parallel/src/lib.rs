//! Std-only parallel fan-out for embarrassingly parallel sample sweeps.
//!
//! The SSCM collocation points and the Monte-Carlo reference runs of the
//! variational analysis are independent deterministic solves; this crate
//! fans them out over [`std::thread::scope`] threads without adding any
//! external dependency.
//!
//! Two properties the analysis layer relies on:
//!
//! * **Determinism** — [`par_map_mut`] assigns item `i` of the input to slot
//!   `i` of the output, and the mapped function receives the item index, so
//!   the result is identical for any thread count (including 1). Randomness
//!   must be derived from the item/index, never from thread identity or
//!   timing.
//! * **Bounded threads** — the thread count comes from the `VAEM_THREADS`
//!   environment variable when set (clamped to [1, 512]), otherwise from
//!   [`std::thread::available_parallelism`].
//!
//! Work is distributed through an atomic-index **work-stealing queue**
//! rather than pre-cut contiguous chunks: each worker repeatedly claims the
//! next unclaimed block of indices. Per-item costs in the sweeps are ragged
//! (Newton iteration counts vary with the perturbation), so static chunking
//! serializes behind the unluckiest chunk while the shared queue keeps every
//! worker busy until the input is drained. The claim granularity is
//! auto-tuned (small enough to balance, large enough to amortize the atomic)
//! and can be pinned with the `VAEM_CHUNK` environment variable. Scheduling
//! never affects *results* — only which worker computes an item — because
//! every item still writes its own output slot.
//!
//! The calling thread is **worker 0** of every fan-out: it spawns workers
//! `1..n` and then claims items itself, so a fan-out over `n` workers
//! spawns `n − 1` threads. That also lets the caller run one **side job**
//! first ([`with_side_job`]): work that cannot be split, such as a
//! warm-started frequency chain, overlaps the fan-out on the thread that
//! would otherwise only claim items, and joins the queue when it ends.

#![warn(missing_docs)]

pub mod env;
pub mod faults;

use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "VAEM_THREADS";

/// Environment variable pinning the work-stealing claim granularity (number
/// of consecutive items a worker claims per queue access). Unset or invalid
/// values fall back to the auto-tuned size.
pub const CHUNK_ENV: &str = "VAEM_CHUNK";

/// Upper bound on the worker-thread count (guards against typos such as
/// `VAEM_THREADS=40000`).
pub const MAX_THREADS: usize = 512;

/// The configured worker-thread count: `VAEM_THREADS` when set to a positive
/// integer (capped at [`MAX_THREADS`]), the detected hardware parallelism
/// when unset (at least 1), and 1 — with a one-time warning on stderr — when
/// the variable is set to zero, a negative number or garbage.
///
/// Read on every call (not cached) so tests and harnesses can switch the
/// variable between runs within one process.
pub fn thread_count() -> usize {
    env::positive_usize(
        THREADS_ENV,
        MAX_THREADS,
        || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        },
        1,
        "running with 1 worker thread",
    )
}

/// The configured work-stealing claim granularity: `VAEM_CHUNK` when set to
/// a positive integer, otherwise `None` (auto-tune per call; unusable
/// values silently fall back to the auto-tune — the granularity never
/// changes results, only scheduling).
fn chunk_override() -> Option<usize> {
    match env::parse_positive_usize(env::raw(CHUNK_ENV).as_deref(), usize::MAX) {
        env::Parsed::Value(n) => Some(n),
        _ => None,
    }
}

/// Auto-tuned claim granularity: aim for ~4 claims per worker so ragged
/// per-item costs rebalance, without paying one atomic operation per item on
/// huge inputs.
fn auto_chunk(len: usize, threads: usize) -> usize {
    (len / (threads * 4)).max(1)
}

/// A raw element pointer that may cross the scoped-thread boundary: the
/// output slots of every fan-out, the input items of [`par_map_mut`] and the
/// per-worker states of [`par_map_init`].
///
/// Safety contract (upheld by [`steal_indices`] and its callers): every
/// element behind the pointer is reached by exactly one worker — output
/// slots and mutable items through the index that [`steal_indices`] hands
/// to exactly one claimant, worker states through the worker ordinal that
/// exactly one thread carries (ordinal 0 the calling thread, the others
/// one spawned thread each) — and the caller does not touch the buffer
/// outside its worker-0 claims until all workers have joined.
struct SlotPtr<U>(*mut U);
// SAFETY: sending the pointer is sound because the elements are `Send` and
// the parent-owned buffer outlives the scope that carries the pointer
// across threads (the parent joins every worker before reading it).
unsafe impl<U: Send> Send for SlotPtr<U> {}
// SAFETY: shared access is sound because workers touch disjoint elements —
// each index and each worker ordinal belongs to exactly one thread — so no
// element is ever aliased mutably; `&self` itself only exposes the raw
// pointer.
unsafe impl<U: Send> Sync for SlotPtr<U> {}

/// The single work-stealing engine behind every fan-out in this crate:
/// runs up to `threads` workers that repeatedly claim the next unclaimed
/// block of `chunk` indices off a shared atomic cursor and invoke
/// `body(worker, index)` once per claimed index. Worker 0 is the calling
/// thread; ordinals `1..threads` are scoped threads spawned first. Before
/// worker 0 claims its first index it runs the side job registered by
/// [`with_side_job`] on this thread, if there is one. Returns when every
/// index in `0..len` has been processed (a panic on any worker propagates
/// once the others have joined).
///
/// Guarantees the callers' unsafe slot, item and state accesses rely on:
/// each index in `0..len` is passed to **exactly one** `body` invocation —
/// the `fetch_add` hands out disjoint ranges — each `worker` ordinal in
/// `0..threads` is carried by exactly one thread, and the scope joins all
/// spawned workers before returning. Keeping this loop in one place means
/// there is exactly one claiming discipline to audit for every fan-out.
fn steal_indices<F>(threads: usize, chunk: usize, len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    // No point starting workers that could never win a claim.
    let workers = threads.min(len.div_ceil(chunk));
    let cursor = AtomicUsize::new(0);
    let claim = |worker: usize| loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        let end = (start + chunk).min(len);
        for index in start..end {
            body(worker, index);
        }
    };
    std::thread::scope(|scope| {
        let claim = &claim;
        for worker in 1..workers {
            scope.spawn(move || claim(worker));
        }
        run_side_job();
        claim(0);
    });
}

/// [`steal_indices`] collecting `body(worker, index)` into output slot
/// `index`: the results come back in index order whatever the schedule.
fn steal_map<U, F>(threads: usize, chunk: usize, len: usize, body: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    let mut out: Vec<Option<U>> = Vec::new();
    out.resize_with(len, || None);
    // Capture the `Sync` wrapper by reference — a disjoint field capture of
    // the raw pointer would sidestep its Send/Sync impls.
    let slots = &SlotPtr(out.as_mut_ptr());
    steal_indices(threads, chunk, len, |worker, index| {
        let value = body(worker, index);
        // SAFETY: `steal_indices` hands `index` to exactly one invocation,
        // it is in bounds, and the buffer outlives the call. Writing
        // through the pointer drops the old value, which is always the
        // `None` the slot was initialized with.
        unsafe { *slots.0.add(index) = Some(value) };
    });
    out.into_iter()
        .map(|slot| slot.expect("every slot is filled by exactly one worker"))
        .collect()
}

/// Maps `f` over **mutable** items on up to [`thread_count`] scoped
/// threads: `f` receives `(index, &mut item)` and may update the item in
/// place while producing an output. Results come back in input order.
///
/// This is the fan-out primitive of every wave of the variational
/// analysis: each sample owns a slot (its inputs, its containment status
/// and, in adaptive sweeps, a persistent state — perturbed structure and
/// cached DC operating point — that every refinement wave reuses).
/// Item `i` still writes output slot `i` and is claimed by exactly one
/// worker per call, so the results — and the mutated states — are
/// bit-for-bit independent of the thread count as long as `f` is a pure
/// function of `(index, item)`.
///
/// # Panics
/// Propagates a panic from any worker thread.
pub fn par_map_mut<T, U, F>(items: &mut [T], f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let threads = thread_count();
    let chunk = chunk_override().unwrap_or_else(|| auto_chunk(items.len(), threads.max(1)));
    par_map_mut_with_chunk(threads, chunk, items, f)
}

/// [`par_map_mut`] with explicit thread count and claim granularity (the
/// fully pinned variant used by the scheduler tests).
pub fn par_map_mut_with_chunk<T, U, F>(
    threads: usize,
    chunk: usize,
    items: &mut [T],
    f: F,
) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, &mut T) -> U + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let inputs = &SlotPtr(items.as_mut_ptr());
    steal_map(threads, chunk.max(1), items.len(), |_, index| {
        // SAFETY: `steal_indices` hands `index` to exactly one invocation
        // and it is in bounds, so the item reference is exclusive.
        let item = unsafe { &mut *inputs.0.add(index) };
        f(index, item)
    })
}

/// Maps `f` over the indices `0..len` on up to `threads` workers, each
/// owning one private state built by `init` **on the calling thread** —
/// the primitive behind the batched Krylov solve of a prepared operator
/// (one BiCGSTAB workspace and right-hand-side buffer per worker). Building
/// the states before the fan-out keeps their buffers in the caller's
/// allocator arena instead of one per worker thread.
///
/// `f` receives `(&mut state, index)` and its results are returned in index
/// order. Every index is claimed by exactly one worker through the same
/// atomic-cursor discipline as [`par_map_mut`], each state is owned by exactly
/// one worker (no lock), and the call returns only after all workers have
/// joined — so writes made by `f` happen-before everything after the call.
/// With `threads <= 1` (or a single index) no thread is spawned and one
/// state processes all indices in ascending order. A caller whose `f` is a
/// pure function of `index` and of data fixed before the call therefore
/// gets results independent of the thread count and claim granularity,
/// since a result never depends on which worker's state computed it.
///
/// # Panics
/// Propagates a panic from any worker thread.
pub fn par_map_init<S, U, I, F>(
    threads: usize,
    chunk: usize,
    len: usize,
    mut init: I,
    f: F,
) -> Vec<U>
where
    S: Send,
    U: Send,
    I: FnMut() -> S,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(len.max(1));
    if threads <= 1 || len <= 1 {
        let mut state = init();
        return (0..len).map(|index| f(&mut state, index)).collect();
    }
    let chunk = chunk.max(1);
    let workers = threads.min(len.div_ceil(chunk));
    let mut owned: Vec<S> = (0..workers).map(|_| init()).collect();
    let states = &SlotPtr(owned.as_mut_ptr());
    steal_map(workers, chunk, len, |worker, index| {
        // SAFETY: `steal_indices` runs at most `workers` workers and each
        // worker ordinal on exactly one thread, so `worker` is in bounds of
        // `owned` (which outlives the fan-out) and this is the only
        // reference to `owned[worker]`.
        let state = unsafe { &mut *states.0.add(worker) };
        f(state, index)
    })
}

thread_local! {
    /// The side job [`with_side_job`] registered on this thread that no
    /// fan-out has taken yet: a pointer to a `&mut dyn FnMut()` in that
    /// call's frame. Casting it to a thin `()` pointer erases the closure's
    /// lifetime; [`Registration`] keeps it from outliving the frame.
    static SIDE_JOB: Cell<Option<NonNull<()>>> = const { Cell::new(None) };
}

/// Takes the side job registered on this thread, if any, and runs it.
fn run_side_job() {
    let Some(job) = SIDE_JOB.with(Cell::take) else {
        return;
    };
    // SAFETY: only `with_side_job` fills the thread-local slot, with a
    // pointer to a `&mut dyn FnMut()` local of its own frame, and its
    // `Registration` guard empties the slot before that frame ends, on
    // every exit. A pointer found in the slot therefore names a live frame
    // whose `main` this thread is executing, and `with_side_job` touches
    // neither that local nor the closure until `main` returns. Taking the
    // pointer out of the slot makes this the only access through it.
    let job = unsafe { &mut *job.cast::<&mut dyn FnMut()>().as_ptr() };
    job();
}

/// Empties the side-job slot when `main` returns or unwinds, so no later
/// fan-out can find a job whose frame is gone.
struct Registration;

impl Drop for Registration {
    fn drop(&mut self) {
        SIDE_JOB.with(|slot| slot.set(None));
    }
}

/// Runs `main` with `side` registered as the calling thread's **side job**
/// and returns both results.
///
/// The first fan-out of this crate that `main` starts on this thread with
/// more than one worker takes the job: it spawns its other workers, runs
/// `side` on the calling thread, and only then lets the calling thread
/// (worker 0) claim items. So `side` overlaps the fan-out, and the caller
/// joins the queue when `side` ends. If `main` starts no such fan-out —
/// at one worker, for a single item, or when the fan-out's owner takes a
/// serial path — `side` runs after `main` returns, which is exactly the
/// serial order. Either way `side` runs exactly once and on the calling
/// thread, so it needs neither `Send` nor `Sync`; it is `FnMut` only so it
/// can be called either through the registration or directly. A nested
/// `with_side_job` in `main` replaces the registration, so the outer `side`
/// then runs after `main`.
///
/// `side` sees everything `main` did before its first fan-out started,
/// and should read nothing `main` changes after that. Results stay
/// independent of the thread count when that holds and both closures are
/// deterministic, because what runs is the same; only when `side` runs
/// moves.
///
/// # Panics
/// Propagates a panic of `main` or `side`. The registration is undone on
/// every exit, so a panic never leaves a job behind for a later fan-out.
pub fn with_side_job<M, S>(mut side: impl FnMut() -> S, main: impl FnOnce() -> M) -> (M, S) {
    let mut done = None;
    let mut job = || done = Some(side());
    let mut job: &mut dyn FnMut() = &mut job;
    let registered = NonNull::from(&mut job).cast::<()>();
    let main_result = {
        SIDE_JOB.with(|slot| slot.set(Some(registered)));
        let _registration = Registration;
        main()
    };
    let side_result = match done {
        Some(result) => result,
        None => side(),
    };
    (main_result, side_result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_with_indices() {
        let mut items: Vec<u64> = (0..100).collect();
        let out = par_map_mut(&mut items, |i, &mut v| (i as u64) * 1000 + v);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, (i as u64) * 1000 + i as u64);
        }
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let mut items: Vec<f64> = (0..53).map(|i| i as f64 * 0.37).collect();
        let f = |i: usize, x: &mut f64| (x.sin() * 1e6) + i as f64;
        let serial = par_map_mut_with_chunk(1, 1, &mut items, f);
        for threads in [2, 3, 4, 7, 64] {
            let chunk = auto_chunk(items.len(), threads);
            let parallel = par_map_mut_with_chunk(threads, chunk, &mut items, f);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_item_inputs() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut_with_chunk(4, 1, &mut empty, |_, v| *v).is_empty());
        assert_eq!(
            par_map_mut_with_chunk(4, 1, &mut [41u32], |_, v| *v + 1),
            vec![42]
        );
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let mut items = [1u32, 2, 3];
        assert_eq!(
            par_map_mut_with_chunk(100, 1, &mut items, |_, v| *v * 2),
            vec![2, 4, 6]
        );
    }

    /// Adversarial cost skew: a handful of items are orders of magnitude
    /// more expensive than the rest. The work-stealing queue must neither
    /// lose nor reorder slots for any (thread count, claim granularity)
    /// combination.
    #[test]
    fn skewed_item_costs_keep_results_deterministic() {
        let mut items: Vec<u64> = (0..61).collect();
        let f = |i: usize, &mut v: &mut u64| {
            // Items 0, 20 and 40 spin ~1000x longer than the others, the
            // worst case for contiguous chunking.
            let spins = if v % 20 == 0 { 200_000 } else { 200 };
            let mut acc = v;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            acc
        };
        let serial = par_map_mut_with_chunk(1, 1, &mut items, f);
        for threads in [2, 3, 4, 8] {
            for chunk in [1, 2, 7, 64] {
                let stolen = par_map_mut_with_chunk(threads, chunk, &mut items, f);
                assert_eq!(serial, stolen, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut items: Vec<usize> = (0..997).collect();
        let hits: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_mut_with_chunk(7, 3, &mut items, |i, &mut v| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            v * 2
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn chunk_env_parsing_rules() {
        // The chunk override shares the positive-integer policy of the
        // central knob module: unset or unusable asks for auto-tuning.
        use env::{parse_positive_usize, Parsed};
        for bad in [Some(""), Some("0"), Some("-4"), Some("abc"), None] {
            assert_ne!(parse_positive_usize(bad, usize::MAX), Parsed::Value(0));
            assert!(!matches!(
                parse_positive_usize(bad, usize::MAX),
                Parsed::Value(_)
            ));
        }
        assert_eq!(
            parse_positive_usize(Some("1"), usize::MAX),
            Parsed::Value(1)
        );
        assert_eq!(
            parse_positive_usize(Some(" 16 "), usize::MAX),
            Parsed::Value(16)
        );
    }

    #[test]
    fn auto_chunk_balances_without_degenerating() {
        // Small ragged inputs claim item-by-item; large inputs amortize the
        // atomic over bigger blocks; the result is never zero.
        assert_eq!(auto_chunk(10, 4), 1);
        assert_eq!(auto_chunk(0, 1), 1);
        assert_eq!(auto_chunk(1024, 4), 64);
        assert!(auto_chunk(usize::MAX / 2, 2) >= 1);
    }

    #[test]
    fn mutable_fan_out_updates_every_item_and_keeps_slot_order() {
        // Persistent per-item state (the adaptive-sweep pattern): each call
        // appends to its item's history and returns a value derived from
        // the accumulated state.
        let mut states: Vec<Vec<u64>> = (0..37).map(|i| vec![i as u64]).collect();
        let serial_expect: Vec<u64> = (0..37u64).map(|i| i + 100).collect();
        for (threads, chunk) in [(1, 1), (3, 2), (8, 1), (4, 64)] {
            let mut fresh = states.clone();
            let out = par_map_mut_with_chunk(threads, chunk, &mut fresh, |i, state| {
                state.push(state.last().unwrap() + 100);
                *state.last().unwrap() + i as u64 - state[0]
            });
            assert_eq!(out, serial_expect, "threads {threads}, chunk {chunk}");
            for (i, state) in fresh.iter().enumerate() {
                assert_eq!(state, &[i as u64, i as u64 + 100]);
            }
        }
        // Repeated waves over the same mutable states accumulate.
        let _ = par_map_mut_with_chunk(4, 1, &mut states, |_, s| s.push(1));
        let _ = par_map_mut_with_chunk(2, 3, &mut states, |_, s| s.push(2));
        assert!(states.iter().all(|s| s.len() == 3));
    }

    #[test]
    fn mutable_fan_out_handles_empty_and_single_inputs() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut empty, |_, v| *v).is_empty());
        let mut one = [41u32];
        assert_eq!(
            par_map_mut(&mut one, |_, v| {
                *v += 1;
                *v
            }),
            vec![42]
        );
        assert_eq!(one[0], 42);
    }

    #[test]
    fn per_worker_state_fan_out_visits_every_index_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let len = 503;
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        let caller = std::thread::current().id();
        for (threads, chunk) in [(1, 1), (3, 2), (8, 1), (4, 64)] {
            for h in &hits {
                h.store(0, Ordering::Relaxed);
            }
            let mut created = 0;
            let out = par_map_init(
                threads,
                chunk,
                len,
                || {
                    // States are built before the fan-out, on the caller.
                    assert_eq!(std::thread::current().id(), caller);
                    created += 1;
                    vec![0u8; 16]
                },
                |scratch, index| {
                    scratch[index % 16] ^= 1;
                    hits[index].fetch_add(1, Ordering::Relaxed);
                    index
                },
            );
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads {threads}, chunk {chunk}"
            );
            assert!(out.iter().enumerate().all(|(i, &v)| v == i));
            assert!(
                (1..=threads).contains(&created),
                "threads {threads}: {created} states"
            );
        }
    }

    #[test]
    fn per_worker_state_fan_out_handles_empty_and_serial_inputs() {
        let mut touched = false;
        let none: Vec<()> = par_map_init(4, 1, 0, || (), |_, _| unreachable!("no indices"));
        assert!(none.is_empty());
        let out = par_map_init(1, 1, 3, || touched = true, |_, i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(touched, "serial path still creates its one state");
    }

    /// The stateful map must not leak scheduling into results: each worker's
    /// scratch carries leftovers from whichever indices that worker claimed
    /// before, and a pure `f` must still produce the serial output for every
    /// (thread count, claim granularity) combination.
    #[test]
    fn per_worker_state_map_is_independent_of_threads_and_chunk() {
        let f = |scratch: &mut Vec<u64>, i: usize| {
            scratch.clear();
            scratch.extend((0..(i % 13 + 1) as u64).map(|k| k.wrapping_mul(i as u64 + 7)));
            scratch
                .iter()
                .fold(i as u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v))
        };
        let len = 97;
        let serial = par_map_init(1, 1, len, Vec::new, f);
        assert_eq!(serial.len(), len);
        for threads in [2, 3, 4, 8] {
            for chunk in [1, 2, 7, 64] {
                let out = par_map_init(threads, chunk, len, Vec::new, f);
                assert_eq!(out, serial, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn side_job_runs_once_on_the_calling_thread_before_its_first_claim() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let side_done = AtomicBool::new(false);
        let runs = Cell::new(0);
        for threads in [2, 3] {
            runs.set(0);
            side_done.store(false, Ordering::SeqCst);
            let (out, side) = with_side_job(
                || {
                    assert_eq!(std::thread::current().id(), caller);
                    runs.set(runs.get() + 1);
                    side_done.store(true, Ordering::SeqCst);
                    41 + runs.get()
                },
                || {
                    let body = |_: &mut (), i: usize| {
                        if std::thread::current().id() == caller {
                            assert!(side_done.load(Ordering::SeqCst), "worker 0 claimed first");
                        }
                        i * 3
                    };
                    let first = par_map_init(threads, 1, 12, || (), body);
                    assert!(side_done.load(Ordering::SeqCst), "the fan-out took the job");
                    // A second fan-out finds the slot empty.
                    let mut items = [1u8, 2, 3, 4];
                    let second = par_map_mut_with_chunk(threads, 1, &mut items, |_, v| *v);
                    (first, second)
                },
            );
            assert_eq!(side, 42, "threads {threads}");
            assert_eq!(runs.get(), 1, "threads {threads}");
            assert_eq!(out.0, (0..12).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(out.1, [1, 2, 3, 4]);
        }
    }

    #[test]
    fn side_job_runs_after_main_when_main_starts_no_fan_out() {
        use std::cell::RefCell;
        let log = RefCell::new(Vec::new());
        let serial_mains: [&dyn Fn() -> usize; 3] = [
            &|| 0,
            &|| par_map_init(1, 1, 5, || (), |_, i| i).len(),
            &|| par_map_mut_with_chunk(4, 1, &mut [7u8], |_, v| *v).len(),
        ];
        for (k, main) in serial_mains.into_iter().enumerate() {
            log.borrow_mut().clear();
            let (_, side) = with_side_job(
                || {
                    log.borrow_mut().push("side");
                    k
                },
                || {
                    let out = main();
                    log.borrow_mut().push("main");
                    out
                },
            );
            assert_eq!(side, k);
            assert_eq!(*log.borrow(), ["main", "side"], "main {k}");
        }
    }

    #[test]
    fn a_panic_in_main_leaves_no_side_job_behind() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let runs = Cell::new(0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            with_side_job(|| runs.set(runs.get() + 1), || panic!("main fails"))
        }));
        assert!(unwound.is_err());
        assert_eq!(runs.get(), 0, "a failed main never reaches the side job");
        // The next fan-out on this thread must not find the dead job.
        assert_eq!(par_map_init(2, 1, 4, || (), |_, i| i), [0, 1, 2, 3]);
        assert_eq!(runs.get(), 0);
        let (_, ran) = with_side_job(|| runs.set(runs.get() + 1), || ());
        assert_eq!(
            (ran, runs.get()),
            ((), 1),
            "a fresh registration still works"
        );
    }

    #[test]
    fn side_job_results_are_independent_of_threads_and_chunk() {
        let f = |scratch: &mut Vec<u64>, i: usize| {
            scratch.push(i as u64);
            (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(7)
        };
        let side = || (0..9u64).fold(1u64, |acc, v| acc.wrapping_mul(31).wrapping_add(v));
        let len = 23;
        let reference = (par_map_init(1, 1, len, Vec::new, f), side());
        for threads in [1, 2, 3, 8] {
            for chunk in [1, 2, 7] {
                let out = with_side_job(side, || par_map_init(threads, chunk, len, Vec::new, f));
                assert_eq!(out, reference, "threads {threads}, chunk {chunk}");
            }
        }
    }

    #[test]
    fn env_parsing_rules() {
        // The thread-count policy (unset → hardware, garbage/zero → clamp
        // to 1 with a warning, valid → capped) now lives in the central
        // knob module; this pins the parse half against MAX_THREADS so no
        // test has to mutate the process-wide environment under the
        // concurrent harness.
        use env::{parse_positive_usize, Parsed};
        assert_eq!(parse_positive_usize(None, MAX_THREADS), Parsed::Unset);
        for bad in ["", "abc", "0", "-3", "2.5", "4 threads"] {
            assert_eq!(
                parse_positive_usize(Some(bad), MAX_THREADS),
                Parsed::Invalid,
                "VAEM_THREADS={bad}"
            );
        }
        assert_eq!(
            parse_positive_usize(Some(" 8 "), MAX_THREADS),
            Parsed::Value(8)
        );
        assert_eq!(
            parse_positive_usize(Some("99999"), MAX_THREADS),
            Parsed::Value(MAX_THREADS)
        );
        // The live reader never yields fewer than one worker.
        assert!(thread_count() >= 1);
    }

    #[test]
    fn errors_can_be_collected_deterministically() {
        let mut items: Vec<i32> = (0..20).collect();
        let out: Result<Vec<i32>, String> =
            par_map_mut_with_chunk(4, 1, &mut items, |_, &mut v| {
                if v == 13 {
                    Err(format!("bad item {v}"))
                } else {
                    Ok(v)
                }
            })
            .into_iter()
            .collect();
        assert_eq!(out.unwrap_err(), "bad item 13");
    }
}
