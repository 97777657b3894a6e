//! Shard fan-out: the one parallel primitive every parallel path in
//! the analyzer shares.
//!
//! - [`Parallelism`] — the single user-facing concurrency knob
//!   (`Serial | Workers(n) | Auto`), accepted by
//!   [`Analysis::of`](crate::Analysis::of)`.parallelism(..)`,
//!   [`IngestSession`](crate::IngestSession) and the CLI binaries.
//! - [`map_indexed`] — maps a function over `0..n` on scoped threads
//!   (`std::thread::scope`). Executors claim shard indices from one
//!   shared counter, so uneven shards still balance, and the results
//!   come back in index order. [`map_indexed_with`] also lends each
//!   executor one state its shards reuse, such as a read buffer.
//! - [`ExecStats`] — process-wide counters (shards run, threads
//!   spawned, busy time), surfaced through `ta-serve`'s `stats`
//!   command and `ta-cli --exec-stats`.
//!
//! Determinism is structural, not scheduled: every shard result lands
//! in its index's slot and assembly follows index order, so output is
//! byte-identical across `Serial`, `Workers(n)` and repeated runs
//! regardless of interleaving.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The analyzer's single concurrency knob: how many executors a
/// parallel region may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Exactly one executor (the calling thread).
    Serial,
    /// Up to `n` concurrent executors: the calling thread plus at most
    /// `n - 1` scoped threads. `Workers(0)` and `Workers(1)` behave
    /// like [`Parallelism::Serial`]. Executor count is additionally
    /// capped at the host's hardware parallelism — extra threads beyond
    /// that only contend for the same cores — while the *shard
    /// decomposition* still follows `n`, so products stay identical
    /// whatever the host size.
    Workers(usize),
    /// One executor per available hardware thread
    /// ([`std::thread::available_parallelism`], resolved once per
    /// process).
    #[default]
    Auto,
}

impl Parallelism {
    /// The resolved executor count: at least 1; `Auto` resolves to the
    /// host's available hardware parallelism.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Workers(n) => n.max(1),
            Parallelism::Auto => host_parallelism(),
        }
    }

    /// Maps a worker-count integer onto the enum: `n <= 1` is
    /// [`Parallelism::Serial`], anything else [`Parallelism::Workers`]
    /// — how `ta-cli -j N` and other integer knobs spell the enum.
    pub fn from_threads(n: usize) -> Self {
        if n <= 1 {
            Parallelism::Serial
        } else {
            Parallelism::Workers(n)
        }
    }
}

/// The host's hardware thread count, resolved once per process.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Fan-out counters accumulated over the process lifetime. Snapshot
/// with [`ExecPool::stats`]; diff two snapshots with
/// [`ExecStats::since`] to isolate one region's activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Shards run by parallel [`map_indexed`] calls (calls that run
    /// serially are not counted).
    pub tasks: u64,
    /// Always 0. Executors claim shards from a shared counter, so no
    /// executor ever takes work queued for another; the field remains
    /// for readers written against the earlier work-stealing pool.
    pub steals: u64,
    /// Scoped threads spawned so far (calling threads not counted).
    pub workers: usize,
    /// Nanoseconds executors spent running shards, callers included.
    pub busy_ns: u64,
}

impl ExecStats {
    /// Counter deltas since an earlier snapshot (saturating, so a
    /// stale `earlier` cannot underflow).
    pub fn since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steals: 0,
            workers: self.workers.saturating_sub(earlier.workers),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
        }
    }

    /// Total busy nanoseconds across all executors.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

/// The process-wide fan-out counters behind [`pool`]. No threads
/// persist between calls: each parallel [`map_indexed`] spawns its
/// scoped threads and joins them before returning.
#[derive(Debug)]
pub struct ExecPool {
    tasks: AtomicU64,
    workers: AtomicUsize,
    busy_ns: AtomicU64,
}

/// The shared process-wide [`ExecPool`] counters.
pub fn pool() -> &'static ExecPool {
    static POOL: ExecPool = ExecPool {
        tasks: AtomicU64::new(0),
        workers: AtomicUsize::new(0),
        busy_ns: AtomicU64::new(0),
    };
    &POOL
}

impl ExecPool {
    /// A snapshot of the fan-out counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: 0,
            workers: self.workers.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    /// Set while this thread runs a shard of a parallel call.
    static IN_SHARD: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as running shards until dropped. The drop
/// restores the flag on unwind too, so a panicking shard cannot leave
/// its thread stuck in serial mode.
struct ShardGuard {
    prev: bool,
}

impl ShardGuard {
    fn enter() -> Self {
        ShardGuard {
            prev: IN_SHARD.replace(true),
        }
    }
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        IN_SHARD.set(self.prev);
    }
}

/// Maps `f` over `0..n`, returning results in index order. The
/// universal shard fan-out helper: per-SPE interval and DMA passes,
/// row index offset chunks, lint `(rule, shard)` sweeps and the product
/// rounds of [`Analysis::build_products`](crate::Analysis::build_products)
/// all route through here.
///
/// Runs on `min(par.workers(), host CPUs, n)` executors: the calling
/// thread plus scoped threads. Each executor claims the next unclaimed
/// index from a shared counter until none remain. A call made from
/// inside a shard runs serially on that shard's thread, so nested
/// fan-outs (an index, lint or stats build inside a product shard)
/// never oversubscribe the host. A panicking shard is rejoined onto
/// the caller.
pub fn map_indexed<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(par, n, || (), |_, i| f(i))
}

/// [`map_indexed`] with per-executor state: each executor builds one
/// `S` with `init` and lends it to every shard it runs, so shards can
/// reuse a buffer instead of allocating their own.
pub fn map_indexed_with<S, T, I, F>(par: Parallelism, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let executors = par.workers().min(host_parallelism()).min(n);
    if executors <= 1 || IN_SHARD.get() {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let run = || {
        let _guard = ShardGuard::enter();
        let start = Instant::now();
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, f(&mut state, i)));
        }
        let ns = start.elapsed().as_nanos() as u64;
        pool().busy_ns.fetch_add(ns, Ordering::Relaxed);
        done
    };
    let parts = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..executors).map(|_| s.spawn(run)).collect();
        let mut parts = vec![run()];
        for handle in spawned {
            parts.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        parts
    });
    let p = pool();
    p.tasks.fetch_add(n as u64, Ordering::Relaxed);
    p.workers.fetch_add(executors - 1, Ordering::Relaxed);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|v| v.expect("every shard ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    const ALL: [Parallelism; 5] = [
        Parallelism::Serial,
        Parallelism::Workers(2),
        Parallelism::Workers(4),
        Parallelism::Workers(8),
        Parallelism::Auto,
    ];

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Workers(0).workers(), 1);
        assert_eq!(Parallelism::Workers(4).workers(), 4);
        assert_eq!(Parallelism::Auto.workers(), host_parallelism());
        assert_eq!(Parallelism::from_threads(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_threads(6), Parallelism::Workers(6));
    }

    #[test]
    fn map_indexed_matches_serial_loop() {
        for n in [0, 1, 2, 100] {
            let serial: Vec<u64> = (0..n).map(|i| (i * i) as u64).collect();
            for par in ALL {
                let got = map_indexed(par, n, |i| (i * i) as u64);
                assert_eq!(got, serial, "n={n} {par:?}");
            }
        }
    }

    #[test]
    fn each_executor_builds_one_state_and_reuses_it() {
        for par in ALL {
            let inits = AtomicUsize::new(0);
            let got = map_indexed_with(
                par,
                40,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |seen, i| {
                    seen.push(i);
                    (i, seen.len())
                },
            );
            let executors = par.workers().min(host_parallelism()).min(40);
            assert_eq!(inits.load(Ordering::Relaxed), executors, "{par:?}");
            assert!(got.iter().enumerate().all(|(k, &(i, _))| i == k));
            // Only an executor's first shard found its state empty (an
            // executor may run none, if the others claimed them all).
            let firsts = got.iter().filter(|&&(_, n)| n == 1).count();
            assert!((1..=executors).contains(&firsts), "{par:?}: {firsts}");
        }
    }

    #[test]
    fn nested_call_runs_on_the_shard_thread() {
        let out = map_indexed(Parallelism::Workers(4), 8, |i| {
            let outer = thread::current().id();
            // Inner shards sleep, so a thread the nested call spawned
            // would get to claim some of them.
            let inner = map_indexed(Parallelism::Workers(4), 4, move |j| {
                thread::sleep(Duration::from_millis(1));
                (i * 10 + j, thread::current().id())
            });
            let values: Vec<usize> = inner.iter().map(|&(v, _)| v).collect();
            assert!(inner.iter().all(|&(_, t)| t == outer), "shard {i}");
            values
        });
        let want: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..4).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    /// Distinct threads that ran shards of one `Workers(workers)` call
    /// over `n` shards, each sleeping briefly so the spawned executors
    /// get to claim some.
    fn executor_threads(workers: usize, n: usize) -> HashSet<ThreadId> {
        map_indexed(Parallelism::Workers(workers), n, |_| {
            thread::sleep(Duration::from_millis(2));
            thread::current().id()
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn panicking_shard_reaches_caller_and_resets_flag() {
        // Every shard panics, so each executor, the caller included,
        // dies in its first shard and the caller's flag must be reset
        // by unwinding.
        let r = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(Parallelism::Workers(2), 8, |_| -> usize {
                panic!("shard failed");
            })
        }));
        let payload = r.expect_err("the shard panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard failed"));
        assert!(!IN_SHARD.get());
        if host_parallelism() >= 2 {
            // Still fans out: a stuck flag would keep every shard on
            // this thread.
            assert!(executor_threads(2, 16).len() >= 2);
        }
    }

    #[test]
    fn executors_never_exceed_host_or_shard_count() {
        assert!(executor_threads(64, 32).len() <= host_parallelism());
        assert!(executor_threads(8, 2).len() <= 2);
        assert_eq!(executor_threads(8, 1).len(), 1);
    }

    #[test]
    fn stats_count_tasks() {
        let before = pool().stats();
        map_indexed(Parallelism::Workers(2), 50, |i| i);
        let delta = pool().stats().since(&before);
        if host_parallelism() >= 2 {
            assert!(delta.tasks >= 50, "tasks={}", delta.tasks);
        }
        assert_eq!(delta.steals, 0);
    }
}
