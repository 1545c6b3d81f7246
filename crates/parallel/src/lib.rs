//! Std-only parallel fan-out for embarrassingly parallel sample sweeps.
//!
//! The SSCM collocation points and the Monte-Carlo reference runs of the
//! variational analysis are independent deterministic solves; this crate
//! fans them out over [`std::thread::scope`] threads without adding any
//! external dependency.
//!
//! Two properties the analysis layer relies on:
//!
//! * **Determinism** — [`par_map`] assigns item `i` of the input to slot `i`
//!   of the output, and the mapped function receives the item index, so the
//!   result is identical for any thread count (including 1). Randomness must
//!   be derived from the item/index, never from thread identity or timing.
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

#![warn(missing_docs)]

pub mod env;
pub mod faults;

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
/// exactly one spawned thread carries — and the parent does not touch the
/// buffer until all workers have joined.
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
/// spawns up to `threads` scoped workers that repeatedly claim the next
/// unclaimed block of `chunk` indices off a shared atomic cursor and invoke
/// `body(worker, index)` once per claimed index. Returns when every index
/// in `0..len` has been processed (a worker panic propagates out of the
/// scope).
///
/// Guarantees the callers' unsafe slot, item and state accesses rely on:
/// each index in `0..len` is passed to **exactly one** `body` invocation —
/// the `fetch_add` hands out disjoint ranges — each `worker` ordinal in
/// `0..threads` is carried by exactly one spawned thread, and the scope
/// joins all workers before returning. Keeping this loop in one place means
/// there is exactly one claiming discipline to audit for every fan-out.
// vaem-lint: hot claiming loop of the fan-out primitives, runs on every worker
fn steal_indices<F>(threads: usize, chunk: usize, len: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    // No point spawning workers that could never win a claim.
    let workers = threads.min(len.div_ceil(chunk));
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let body = &body;
        let cursor = &cursor;
        for worker in 0..workers {
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                for index in start..end {
                    body(worker, index);
                }
            });
        }
    });
}

/// [`steal_indices`] collecting `body(worker, index)` into output slot
/// `index`: the results come back in index order whatever the schedule.
// vaem-lint: cold fan-out setup, the result slots are allocated once per call on the calling thread
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

/// Maps `f` over `items` on up to [`thread_count`] scoped threads.
///
/// `f` receives `(index, &item)` and its results are returned in input
/// order; the output is bit-for-bit independent of the thread count as long
/// as `f` itself is a pure function of its arguments. Work is claimed from a
/// shared atomic-index queue (work stealing), so ragged per-item costs —
/// samples whose Newton loops need more iterations than their neighbours' —
/// do not serialize the sweep behind one unlucky contiguous chunk.
///
/// # Panics
/// Propagates a panic from any worker thread.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit thread count (mainly for tests and for
/// callers that manage their own thread budget). The claim granularity is
/// auto-tuned unless `VAEM_CHUNK` pins it.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let chunk = chunk_override().unwrap_or_else(|| auto_chunk(items.len(), threads.max(1)));
    par_map_with_chunk(threads, chunk, items, f)
}

/// [`par_map_with`] with an explicit claim granularity, bypassing both the
/// auto-tune and the `VAEM_CHUNK` override — the fully pinned variant used
/// by the scheduler tests (no process-global environment involved).
pub fn par_map_with_chunk<T, U, F>(threads: usize, chunk: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    steal_map(threads, chunk.max(1), items.len(), |_, index| {
        f(index, &items[index])
    })
}

/// [`par_map`] over **mutable** items: `f` receives `(index, &mut item)` and
/// may update the item in place while producing an output.
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
/// the primitive behind the level-scheduled parallel numeric factorization
/// (one dense scatter column per worker) and the batched Krylov solve of a
/// prepared operator (one BiCGSTAB workspace and right-hand-side buffer per
/// worker). Building the states before the fan-out keeps their buffers in
/// the caller's allocator arena instead of one per worker thread.
///
/// `f` receives `(&mut state, index)` and its results are returned in index
/// order. Every index is claimed by exactly one worker through the same
/// atomic-cursor discipline as [`par_map`], each state is owned by exactly
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
// vaem-lint: cold fan-out setup, the states and result slots are built once per call on the calling thread
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
        // SAFETY: `steal_indices` spawns at most `workers` threads and
        // runs each worker ordinal on exactly one of them, so `worker` is
        // in bounds of `owned` (which outlives the fan-out) and this is the
        // only reference to `owned[worker]`.
        let state = unsafe { &mut *states.0.add(worker) };
        f(state, index)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_with_indices() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |i, &v| (i as u64) * 1000 + v);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, (i as u64) * 1000 + i as u64);
        }
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let items: Vec<f64> = (0..53).map(|i| i as f64 * 0.37).collect();
        let f = |i: usize, x: &f64| (x.sin() * 1e6) + i as f64;
        let serial = par_map_with(1, &items, f);
        for threads in [2, 3, 4, 7, 64] {
            let parallel = par_map_with(threads, &items, f);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &v| v).is_empty());
        assert_eq!(par_map(&[41u32], |_, &v| v + 1), vec![42]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map_with(100, &items, |_, &v| v * 2), vec![2, 4, 6]);
    }

    /// Adversarial cost skew: a handful of items are orders of magnitude
    /// more expensive than the rest. The work-stealing queue must neither
    /// lose nor reorder slots for any (thread count, claim granularity)
    /// combination.
    #[test]
    fn skewed_item_costs_keep_results_deterministic() {
        let items: Vec<u64> = (0..61).collect();
        let f = |i: usize, &v: &u64| {
            // Items 0, 20 and 40 spin ~1000x longer than the others, the
            // worst case for contiguous chunking.
            let spins = if v % 20 == 0 { 200_000 } else { 200 };
            let mut acc = v;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            acc
        };
        let serial = par_map_with_chunk(1, 1, &items, f);
        for threads in [2, 3, 4, 8] {
            for chunk in [1, 2, 7, 64] {
                let stolen = par_map_with_chunk(threads, chunk, &items, f);
                assert_eq!(serial, stolen, "threads = {threads}, chunk = {chunk}");
            }
        }
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<usize> = (0..997).collect();
        let hits: Vec<AtomicUsize> = (0..items.len()).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_with_chunk(7, 3, &items, |i, &v| {
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
        let items: Vec<i32> = (0..20).collect();
        let out: Result<Vec<i32>, String> = par_map_with(4, &items, |_, &v| {
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
