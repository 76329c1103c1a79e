//! Deterministic worker pool for the capture/restore hot paths.
//!
//! The checkpoint pipeline's expensive kernels — chunk hashing, per-chunk
//! compression, restore-side decompression — are pure functions of their
//! input bytes. This module shards such kernels across a pool of scoped
//! `std::thread` workers and merges the results **in input order**, so the
//! output is a plain `Vec<R>` indistinguishable from what a serial loop
//! would produce. That ordered merge is the whole determinism argument:
//!
//! * tasks are distributed as *indexed blocks* — workers race for blocks,
//!   but every result carries its block index home;
//! * the merge slots each block's results by index and flattens, so the
//!   final sequence is the input sequence regardless of which worker ran
//!   which block or in what order blocks finished;
//! * the kernels themselves are pure (no shared mutable state, no I/O),
//!   so per-item results cannot depend on scheduling either.
//!
//! Together: byte-identical output at every thread count, which is what
//! lets the golden-trace digests stay pinned while wall-clock capture cost
//! drops with available cores. `threads == 1` short-circuits to a plain
//! serial loop, and so does an input too small to repay a thread spawn
//! (fewer than two workers' worth of `MIN_ITEMS_PER_WORKER` items); the
//! calling thread always works as one of the workers.
//!
//! Thread count resolution (see [`resolve`]): an explicit non-zero request
//! wins; `0` means "auto" — the `CRUZ_THREADS` environment variable if set,
//! else the host's available parallelism. Simulated time is unaffected in
//! every case: the pool only parallelizes wall-clock work *inside* a single
//! DES event, never event scheduling.

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

/// Environment variable overriding the worker count when a `StoreConfig`
/// leaves it on auto (`0`). `CRUZ_THREADS=1` forces the serial reference
/// path; values above the block count are harmlessly clamped by workload.
pub const THREADS_ENV: &str = "CRUZ_THREADS";

/// Resolves a configured thread count to an effective one: a non-zero
/// request is honored as-is; `0` (auto) consults [`THREADS_ENV`] and then
/// the host's available parallelism. Always at least 1.
pub fn resolve(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fewest items each worker must get before another thread is spawned.
/// The pool's items are chunk-sized (≤ one page): hashing or encoding one
/// takes a few microseconds, while spawning a thread takes tens, so small
/// images (a few pages) are cheaper to process on the calling thread.
const MIN_ITEMS_PER_WORKER: usize = 32;

/// A fixed-width worker pool. Creating one is free — threads are scoped to
/// each [`Pool::map_ordered`] call, so a `Pool` is just the resolved width.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of [`resolve`]`(threads)` workers.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: resolve(threads),
        }
    }

    /// The effective worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, preserving input order in the output.
    ///
    /// `init` builds one per-worker state `S` (e.g. a `CodecScratch`) that
    /// `f` may mutate freely: state never crosses workers, and `f` must be
    /// pure with respect to everything else, so the per-item results are
    /// independent of which worker computes them. With one worker (or a
    /// small input) this is exactly a serial fold over one state on the
    /// calling thread.
    pub fn map_ordered<T, R, S>(
        &self,
        items: Vec<T>,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let n = items.len();
        let workers = self.threads.min(n / MIN_ITEMS_PER_WORKER);
        if workers <= 1 {
            let mut state = init();
            return items.into_iter().map(|it| f(&mut state, it)).collect();
        }
        // Indexed blocks, a few per worker so a slow block (incompressible
        // pages) can't serialize the tail behind one thread.
        let block = n.div_ceil(workers * 4);
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(n.div_ceil(block));
        let mut it = items.into_iter();
        loop {
            let b: Vec<T> = it.by_ref().take(block).collect();
            if b.is_empty() {
                break;
            }
            blocks.push(b);
        }
        let nblocks = blocks.len();
        // Every block is queued up front, so workers never block on recv:
        // the channel acts as a Mutex-guarded deque they drain to empty.
        let (task_tx, task_rx) = mpsc::channel::<(usize, Vec<T>)>();
        for task in blocks.into_iter().enumerate() {
            if task_tx.send(task).is_err() {
                break; // receiver alive until scope end; unreachable
            }
        }
        drop(task_tx);
        let tasks = Mutex::new(task_rx);
        let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<R>)>();
        let mut out: Vec<Option<Vec<R>>> = (0..nblocks).map(|_| None).collect();
        // One worker's loop: lock → recv → unlock; recv never waits because
        // the queue was filled before any worker started.
        let work = |res_tx: mpsc::Sender<(usize, Vec<R>)>| {
            let mut state = init();
            loop {
                let task = {
                    let rx = match tasks.lock() {
                        Ok(rx) => rx,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    rx.try_recv()
                };
                let Ok((idx, block)) = task else {
                    return; // queue drained
                };
                let results: Vec<R> = block.into_iter().map(|item| f(&mut state, item)).collect();
                if res_tx.send((idx, results)).is_err() {
                    return; // collector gone; nothing left to do
                }
            }
        };
        thread::scope(|scope| {
            let work = &work;
            for _ in 1..workers {
                let res_tx = res_tx.clone();
                scope.spawn(move || work(res_tx));
            }
            // The calling thread is the last worker; handing it the original
            // sender closes the channel once every worker is done.
            work(res_tx);
            // Slot results by block index: this is the ordered merge.
            while let Ok((idx, results)) = res_rx.recv() {
                out[idx] = Some(results);
            }
        });
        // Scope joins every worker before returning (propagating any worker
        // panic), so each slot is filled exactly once by construction.
        out.into_iter().flatten().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_merge_matches_serial_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for threads in [1usize, 2, 3, 4, 8, 16] {
            let pool = Pool::new(threads);
            let got = pool.map_ordered(items.clone(), || (), |_, x: u64| x.wrapping_mul(x) ^ 7);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_state_is_used_and_isolated() {
        // The state counts items seen by one worker; results must not
        // depend on it beyond what a serial run would produce when the
        // kernel ignores the count (purity is the caller's contract —
        // here we only check the state plumbing compiles and runs).
        let pool = Pool::new(4);
        let got = pool.map_ordered(
            (0..100u32).collect::<Vec<_>>(),
            || 0usize,
            |count, x| {
                *count += 1;
                x * 2
            },
        );
        assert_eq!(got, (0..100u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u8> = pool.map_ordered(Vec::<u8>::new(), || (), |_, x| x);
        assert!(empty.is_empty());
        let one = pool.map_ordered(vec![42u8], || (), |_, x| x + 1);
        assert_eq!(one, vec![43]);
    }

    #[test]
    fn resolve_precedence() {
        assert_eq!(resolve(3), 3, "explicit request wins");
        std::env::set_var(THREADS_ENV, "5");
        assert_eq!(resolve(0), 5, "auto consults the env");
        assert_eq!(resolve(2), 2, "explicit still wins over the env");
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(resolve(0), 1, "degenerate env clamps to 1");
        std::env::set_var(THREADS_ENV, "nonsense");
        assert!(resolve(0) >= 1, "unparsable env falls through to auto");
        std::env::remove_var(THREADS_ENV);
        assert!(resolve(0) >= 1);
    }
}
