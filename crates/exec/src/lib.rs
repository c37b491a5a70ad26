//! # par-exec — deterministic data-parallel kernels for the PHOcus workspace
//!
//! The paper's hot loops — CELF gain seeding, eager per-round argmaxes,
//! SimHash signing, banded bucketing, and ≥τ candidate-pair verification —
//! are all *embarrassingly parallel over an indexed collection*. This crate
//! provides the primitives they need: an order-preserving parallel map
//! ([`par_map_indexed`] / [`par_map_slice`]), a dynamically scheduled
//! variant for heterogeneous work ([`par_map_dynamic`]), a two-task
//! fork/join ([`join`]) for two independent runs over shared read-only
//! state, plus a process-wide [`Parallelism`] knob.
//!
//! Kernels run on a **persistent worker pool** (the vendored `scoped-pool`
//! shim): workers are spawned once per process and parked on a condvar, so
//! the millions of small kernel invocations a fleet run makes pay two mutex
//! operations per dispatch instead of a thread spawn + join. A kernel called
//! *from* a pool worker (nested parallelism) falls back to the serial path —
//! bit-identical by construction — so workers never block on pool capacity.
//!
//! ## Determinism contract
//!
//! Every kernel in this crate is **bit-deterministic**: outputs are written
//! into a pre-sized buffer at each item's own index, so the result is
//! byte-identical to a serial `map` regardless of thread count, scheduling,
//! or whether the `parallel` feature is enabled at all. Floating-point
//! reductions ([`par_sum_f64`]) first materialize per-item terms in input
//! order, then reduce sequentially — fixed order, identical rounding.
//! Downstream, this is what makes `--features parallel` and
//! `--no-default-features` builds select identical photo sets.
//!
//! ## Thread-count resolution
//!
//! Every kernel follows the installed count: the process-wide
//! [`Parallelism`] set by [`Parallelism::install_global`], else the
//! available hardware parallelism. A count of 1 short-circuits to the
//! serial path; without the `parallel` feature everything is serial
//! regardless.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker-thread configuration for a solver or experiment run.
///
/// `threads: None` means "use the process default" (the global override if
/// set, else all available cores); `Some(1)` forces strictly serial
/// execution; `Some(n)` uses `n` workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads to use, `None` = process default.
    pub threads: Option<usize>,
}

impl Parallelism {
    /// Strictly serial execution.
    pub fn serial() -> Self {
        Parallelism { threads: Some(1) }
    }

    /// Explicit worker count (0 is treated as "all cores").
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads: if threads == 0 { None } else { Some(threads) },
        }
    }

    /// Resolves to a concrete worker count.
    pub fn resolve(self) -> usize {
        resolve_threads(self.threads)
    }

    /// Installs this configuration as the process-wide default and returns
    /// the previous configuration.
    pub fn install_global(self) -> Parallelism {
        let prev = GLOBAL_THREADS.swap(encode(self.threads), Ordering::Relaxed);
        Parallelism {
            threads: decode(prev),
        }
    }
}

/// `0` = unset, `n+1` = override of `n` threads.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

fn encode(threads: Option<usize>) -> usize {
    threads.map_or(0, |t| t.max(1) + 1)
}

fn decode(raw: usize) -> Option<usize> {
    raw.checked_sub(1)
}

/// Resolves an optional explicit thread count to a concrete worker count:
/// explicit value → installed override → available parallelism.
fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit.or_else(|| decode(GLOBAL_THREADS.load(Ordering::Relaxed))) {
        Some(n) => n.max(1),
        None => available_threads(),
    }
}

/// Hardware parallelism (1 when it cannot be determined).
///
/// Queried from the OS once and cached for the process lifetime: this sits
/// on the thread-resolution path of every kernel call, and
/// `std::thread::available_parallelism` can be a syscall.
pub fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The process-wide worker pool, spawned on first parallel kernel call.
///
/// Sized to the hardware parallelism but never below 2, so the cross-thread
/// dispatch path is genuinely exercised (and testable) even on single-core
/// runners; idle workers are parked and cost nothing.
#[cfg(feature = "parallel")]
fn pool() -> &'static scoped_pool::Pool {
    static POOL: OnceLock<scoped_pool::Pool> = OnceLock::new();
    POOL.get_or_init(|| scoped_pool::Pool::new(available_threads().max(2)))
}

/// Whether the current thread is a pool worker. Kernels check this and take
/// the serial path when nested, so workers never block on pool capacity.
fn on_worker_thread() -> bool {
    #[cfg(feature = "parallel")]
    {
        scoped_pool::current_thread_is_worker()
    }
    #[cfg(not(feature = "parallel"))]
    {
        false
    }
}

/// Whether this build includes the parallel backend.
pub const fn parallel_enabled() -> bool {
    cfg!(feature = "parallel")
}

/// Order-preserving parallel map over `0..len`, using the process-default
/// worker count: `out[i] = f(i)`.
pub fn par_map_indexed<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_threads(None).min(len.max(1));
    if !parallel_enabled() || workers <= 1 || len < 2 || on_worker_thread() {
        return (0..len).map(f).collect();
    }
    parallel_fill(workers, len, &f)
}

/// Order-preserving parallel map over a slice, using the process-default
/// worker count: `out[i] = f(&items[i])`.
pub fn par_map_slice<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Deterministic parallel sum: computes `f(i)` for `i in 0..len` in
/// parallel, then reduces the terms **sequentially in index order**, so the
/// floating-point rounding matches the serial loop bit for bit.
pub fn par_sum_f64<F>(len: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    par_map_indexed(len, f).into_iter().sum()
}

/// Dynamically scheduled parallel map with per-participant scratch state,
/// using the process-default worker count: `out[i] = f(&mut state, i)`.
///
/// Unlike [`par_map_indexed`]'s static chunking, items are claimed one at a
/// time from a shared cursor, so heterogeneous items (e.g. tenant solves of
/// wildly different sizes) don't straggle behind one unlucky chunk. Each
/// participant gets its own `make_state()` scratch value, reused across all
/// items that participant claims — the fleet engine's arena-reuse hook.
///
/// **Determinism contract:** which participant (and therefore which scratch
/// state) claims item `i` is scheduling-dependent, so `f` must be a pure
/// function of `i` given a state that is fully reset/overwritten per item.
/// Under that contract the output vector is bit-identical to the serial
/// loop `(0..len).map(|i| f(&mut state, i))` at every thread count: results
/// are collected as `(index, value)` pairs and sorted by index.
pub fn par_map_dynamic<S, T, M, F>(len: usize, make_state: M, f: F) -> Vec<T>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = resolve_threads(None).min(len.max(1));
    if !parallel_enabled() || workers <= 1 || len < 2 || on_worker_thread() {
        let mut state = make_state();
        return (0..len).map(|i| f(&mut state, i)).collect();
    }
    parallel_dynamic(workers, len, &make_state, &f)
}

/// Runs two independent closures and returns their results in argument
/// order: `a` on the caller, `b` on a parked pool worker.
///
/// Both run serially — `a`, then `b` — when the installed thread count is
/// 1, when the `parallel` feature is off, or when `join` is called from a
/// pool worker: the same fallback rule the `par_map_*` kernels follow.
/// Neither closure may observe the other (they share only what both
/// borrow immutably), so the results are the same on either path.
///
/// A panic in either closure reaches the caller only after both have
/// finished; if both panic, `a`'s payload wins. On the serial path a panic
/// in `a` means `b` never starts.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    #[cfg(feature = "parallel")]
    if resolve_threads(None) > 1 && !on_worker_thread() {
        let mut rb = None;
        let ra = pool().scoped(|scope| {
            scope.execute(|| rb = Some(b()));
            a()
        });
        return (ra, rb.unwrap_or_else(|| unreachable!("the scope waits for `b`")));
    }
    let ra = a();
    (ra, b())
}

/// Cursor-driven work pull: `workers - 1` pool tasks plus the caller each
/// claim items with an atomic fetch-add and accumulate `(index, value)`
/// locally; the merged pairs are sorted by index so the output order is
/// independent of scheduling.
// phocus-lint: hot-kernel — dispatch loop under every par_map_dynamic fan-out
#[cfg(feature = "parallel")]
fn parallel_dynamic<S, T, M, F>(workers: usize, len: usize, make_state: &M, f: &F) -> Vec<T>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    use std::sync::Mutex;
    let cursor = AtomicUsize::new(0);
    // phocus-lint: allow(alloc-hot) — one output buffer per dispatch, amortized over len items
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(len));
    let run = |local_cap: usize| {
        let mut state = make_state();
        // phocus-lint: allow(alloc-hot) — one accumulator per worker, amortized over its claims
        let mut local: Vec<(usize, T)> = Vec::with_capacity(local_cap);
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            local.push((i, f(&mut state, i)));
        }
        collected
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(local);
    };
    pool().scoped(|scope| {
        for _ in 1..workers {
            scope.execute(|| run(len / workers + 1));
        }
        run(len / workers + 1);
    });
    let mut pairs = collected.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), len, "every index claimed exactly once");
    // phocus-lint: allow(alloc-hot) — single sized pass producing the return value
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// Serial stand-in compiled without the `parallel` feature; unreachable in
/// practice (`parallel_enabled()` gates every call).
// phocus-lint: hot-kernel — serial twin of the dispatch loop above
#[cfg(not(feature = "parallel"))]
fn parallel_dynamic<S, T, M, F>(_workers: usize, len: usize, make_state: &M, f: &F) -> Vec<T>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut state = make_state();
    // phocus-lint: allow(alloc-hot) — single sized pass producing the return value
    (0..len).map(|i| f(&mut state, i)).collect()
}

/// Chunked fork/join writing into a pre-sized buffer, dispatched to the
/// persistent worker pool. The chunk-assignment arithmetic (`len / workers`
/// rounded up, chunk `w` starting at `w * chunk`) is the determinism-visible
/// part and is identical to the original scoped-thread implementation; the
/// caller runs chunk 0 inline while workers fill the rest.
#[cfg(feature = "parallel")]
fn parallel_fill<T, F>(workers: usize, len: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let chunk = len.div_ceil(workers);
    pool().scoped(|scope| {
        let mut chunks = out.chunks_mut(chunk).enumerate();
        let first = chunks.next();
        for (w, slot_chunk) in chunks {
            let start = w * chunk;
            scope.execute(move || fill_chunk(slot_chunk, start, f));
        }
        if let Some((_, slot_chunk)) = first {
            fill_chunk(slot_chunk, 0, f);
        }
    });
    out.into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("parallel_fill covers every slot exactly once")))
        .collect()
}

/// Serial stand-in compiled without the `parallel` feature; unreachable in
/// practice (`parallel_enabled()` gates every call) but kept semantically
/// identical.
#[cfg(not(feature = "parallel"))]
fn parallel_fill<T, F>(_workers: usize, len: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    (0..len).map(f).collect()
}

/// Writes `f(start + k)` into `slots[k]` for one contiguous chunk.
#[cfg(feature = "parallel")]
fn fill_chunk<T, F>(slots: &mut [Option<T>], start: usize, f: &F)
where
    F: Fn(usize) -> T,
{
    for (k, slot) in slots.iter_mut().enumerate() {
        *slot = Some(f(start + k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Serializes the tests that install a process-wide thread count, so
    /// one cannot observe another's override.
    fn global_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `body` with `threads` installed process-wide, restoring the
    /// previous setting afterwards.
    fn with_installed<R>(threads: Parallelism, body: impl FnOnce() -> R) -> R {
        let _guard = global_lock();
        let prev = threads.install_global();
        let out = catch_unwind(AssertUnwindSafe(body));
        prev.install_global();
        out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    fn here() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [None, Some(1), Some(2), Some(4), Some(16)] {
            let parallel =
                with_installed(Parallelism { threads }, || par_map_slice(&items, |&x| x * x + 1));
            assert_eq!(parallel, serial, "threads={threads:?}");
        }
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = with_installed(Parallelism::with_threads(8), || {
            par_map_indexed(100, |i| i as u64 * 3)
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        with_installed(Parallelism::with_threads(4), || {
            assert!(par_map_indexed(0, |i| i).is_empty());
            assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
        });
    }

    #[test]
    fn par_sum_is_bit_identical_to_serial_sum() {
        // Terms with wildly different magnitudes make the summation order
        // observable; the kernel must reduce in index order.
        let terms: Vec<f64> = (0..2048)
            .map(|i| (i as f64 * 0.7311).sin() * 10f64.powi((i % 17) - 8))
            .collect();
        let serial: f64 = terms.iter().sum();
        let parallel = par_sum_f64(terms.len(), |i| terms[i]);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn global_override_round_trips() {
        let _guard = global_lock();
        let unset = Parallelism::with_threads(3).install_global();
        assert_eq!(unset, Parallelism::default());
        assert_eq!(resolve_threads(None), 3);
        assert_eq!(resolve_threads(Some(2)), 2);
        let prev = Parallelism::serial().install_global();
        assert_eq!(prev.threads, Some(3));
        assert_eq!(resolve_threads(None), 1);
        assert_eq!(unset.install_global(), Parallelism::serial());
        assert_eq!(resolve_threads(None), available_threads());
    }

    #[test]
    fn pool_reuse_stress_many_small_calls() {
        // Thousands of tiny kernel calls: the persistent pool must absorb
        // rapid scope turnover without losing or reordering results.
        with_installed(Parallelism::with_threads(4), || {
            for round in 0..3000u64 {
                let out = par_map_indexed(8, |i| i as u64 * 3 + round);
                let expected: Vec<u64> = (0..8).map(|i| i * 3 + round).collect();
                assert_eq!(out, expected, "round {round}");
            }
        });
    }

    #[test]
    fn nested_calls_fall_back_to_serial_and_stay_correct() {
        // Inner kernels run on pool workers, which must take the serial
        // path rather than re-entering the pool (deadlock avoidance).
        let out = with_installed(Parallelism::with_threads(4), || {
            par_map_indexed(16, |i| par_sum_f64(10, |k| (i * 10 + k) as f64))
        });
        let expected: Vec<f64> = (0..16)
            .map(|i| (0..10).map(|k| (i * 10 + k) as f64).sum())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_dynamic_matches_serial_at_every_thread_count() {
        let serial: Vec<u64> = (0..257).map(|i| i as u64 * 7 + 1).collect();
        for threads in [None, Some(1), Some(2), Some(4), Some(16)] {
            let out = with_installed(Parallelism { threads }, || {
                par_map_dynamic(257, || (), |(), i| i as u64 * 7 + 1)
            });
            assert_eq!(out, serial, "threads={threads:?}");
        }
    }

    #[test]
    fn par_map_dynamic_reuses_state_within_a_participant() {
        // The scratch state is reused across claimed items: with a serial
        // run (1 thread) a counter state sees every index once, in order.
        let out = with_installed(Parallelism::serial(), || {
            par_map_dynamic(6, || 0u64, |calls, i| {
                *calls += 1;
                (*calls, i)
            })
        });
        let expected: Vec<(u64, usize)> = (0..6).map(|i| (i as u64 + 1, i)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_dynamic_empty_and_single() {
        with_installed(Parallelism::with_threads(4), || {
            assert!(par_map_dynamic(0, || (), |(), i| i).is_empty());
            assert_eq!(par_map_dynamic(1, || (), |(), i| i + 9), vec![9]);
        });
    }

    #[test]
    fn available_threads_is_cached_and_stable() {
        let a = available_threads();
        let b = available_threads();
        assert!(a >= 1);
        assert_eq!(a, b);
    }

    #[test]
    fn join_returns_results_in_argument_order() {
        for threads in [Parallelism::serial(), Parallelism::with_threads(2)] {
            let (a, b) = with_installed(threads, || join(|| 1u8, || "two"));
            assert_eq!((a, b), (1, "two"), "{threads:?}");
            // Borrowed inputs, heavier work on both sides.
            let xs: Vec<u64> = (0..1000).collect();
            let (sum, max) = with_installed(threads, || {
                join(|| xs.iter().sum::<u64>(), || xs.iter().max().copied())
            });
            assert_eq!((sum, max), (499_500, Some(999)), "{threads:?}");
        }
        // At two threads `b` really leaves the caller.
        let (a, b) = with_installed(Parallelism::with_threads(2), || join(here, here));
        assert_eq!(a, here());
        assert_eq!(b != here(), parallel_enabled());
    }

    #[test]
    fn join_runs_serially_at_one_thread() {
        let log = Mutex::new(Vec::new());
        let (a, b) = with_installed(Parallelism::serial(), || {
            join(
                || {
                    log.lock().unwrap().push('a');
                    here()
                },
                || {
                    log.lock().unwrap().push('b');
                    here()
                },
            )
        });
        assert_eq!((a, b), (here(), here()), "both closures run on the caller");
        assert_eq!(*log.lock().unwrap(), vec!['a', 'b'], "`a` runs before `b`");
    }

    #[test]
    fn join_runs_serially_on_a_pool_worker() {
        let out = with_installed(Parallelism::with_threads(2), || {
            par_map_indexed(4, |i| {
                let nested = on_worker_thread();
                let (a, b) = join(|| (i, here()), here);
                (nested, here(), a, b)
            })
        });
        for (i, &(nested, me, a, b)) in out.iter().enumerate() {
            assert_eq!(a.0, i, "results stay in index order");
            if nested {
                assert_eq!((a.1, b), (me, me), "item {i}: join on a worker must not fan out");
            }
        }
        if parallel_enabled() {
            assert!(out.iter().any(|o| o.0), "some items ran on a pool worker");
        }
    }

    #[test]
    fn join_panics_reach_the_caller_after_both_closures_finish() {
        with_installed(Parallelism::with_threads(2), || {
            // `b` panics: `a` still runs to its end first.
            let a_done = AtomicBool::new(false);
            let hit = catch_unwind(AssertUnwindSafe(|| {
                join(|| a_done.store(true, Ordering::SeqCst), || panic!("b boom"))
            }));
            assert!(hit.is_err(), "a panic in `b` must reach the caller");
            assert!(a_done.load(Ordering::SeqCst));

            // `a` panics once `b` is running: the caller resumes only after
            // `b` has finished. (On the serial path `b` never starts.)
            if parallel_enabled() {
                let (started, running) = mpsc::channel();
                let b_done = AtomicBool::new(false);
                let hit = catch_unwind(AssertUnwindSafe(|| {
                    join(
                        || {
                            running.recv().ok();
                            panic!("a boom")
                        },
                        || {
                            started.send(()).ok();
                            thread::sleep(Duration::from_millis(20));
                            b_done.store(true, Ordering::SeqCst);
                        },
                    )
                }));
                assert!(hit.is_err(), "a panic in `a` must reach the caller");
                assert!(b_done.load(Ordering::SeqCst), "`b` finished before the caller resumed");
            }

            // Both panic: `a`'s payload wins, and the pool survives.
            let hit = catch_unwind(AssertUnwindSafe(|| {
                join(|| panic!("a wins"), || panic!("b loses"))
            }));
            let payload = hit.err().and_then(|p| p.downcast_ref::<&str>().copied());
            assert_eq!(payload, Some("a wins"));
            assert_eq!(join(|| 3, || 4), (3, 4));
        });
    }

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::serial().resolve(), 1);
        assert_eq!(Parallelism::with_threads(5).resolve(), 5);
        assert_eq!(Parallelism::with_threads(0).threads, None);
        assert!(Parallelism::default().resolve() >= 1);
    }
}
