//! A std-only scoped-thread worker pool for simulation campaigns.
//!
//! Every figure in the reproduction sweeps dozens of *independent*
//! simulations (station counts, seeds, CW values, PHY generations), and
//! a sharded deployment is a set of independent component worlds.
//! [`par_for_each_ordered`] fans those jobs out over a small pool of
//! scoped threads (`std::thread::scope`, so no `'static` bounds and no
//! extra dependencies) and streams the results to the calling thread
//! **in input order** as they complete, which keeps campaign output
//! byte-identical regardless of worker count or completion order.
//! [`par_map`] is its collect-into-a-`Vec` case.
//!
//! Worker count resolution, in priority order:
//! 1. an explicit count passed to [`par_map_with`],
//! 2. the `WN_THREADS` environment variable (`1` disables threading),
//! 3. [`std::thread::available_parallelism`].

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};

/// Resolves the worker count from `WN_THREADS` or the machine size.
///
/// Returns at least 1. A malformed or zero `WN_THREADS` falls back to
/// the detected parallelism.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("WN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items`, possibly in parallel, returning
/// the results in input order.
///
/// Uses [`worker_count`] threads. `f` runs on plain scoped threads, so
/// it must be `Sync` (shared by reference across workers) and `Send`
/// along with the item and result types; the items themselves are
/// regular owned values. Ordering of results is always the input order,
/// whatever order the jobs finish in ([`par_for_each_ordered`]).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(worker_count(), items, f)
}

/// [`par_map`] with an explicit worker count (1 = run inline).
///
/// # Panics
///
/// Propagates the first panic raised inside `f` (the scope joins all
/// workers before unwinding).
pub fn par_map_with<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    par_for_each_ordered(workers, items, f, |r| out.push(r));
    out
}

/// Runs `job` on every item on up to `workers` threads and hands each
/// result to `consume` on the calling thread, **in input order**, as
/// soon as every earlier result has been consumed.
///
/// Workers claim items in index order. A result that finishes before
/// an earlier one waits in a buffer until the gap closes, so only the
/// results that overtook the oldest unfinished job are held at once,
/// and `consume` overlaps the jobs still running. With one worker (or
/// at most one item) everything runs inline on the calling thread.
///
/// # Panics
///
/// Propagates the first panic raised inside `job` or `consume` (the
/// scope joins all workers before unwinding). `consume` never sees a
/// gap: results after a panicked job are dropped unconsumed.
pub fn par_for_each_ordered<T, R, F, C>(workers: usize, items: Vec<T>, job: F, mut consume: C)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    C: FnMut(R),
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        items.into_iter().map(job).for_each(consume);
        return;
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let (done, results) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            let done = done.clone();
            let (queue, job) = (&queue, &job);
            scope.spawn(move || loop {
                let next = queue.lock().expect("queue poisoned").next();
                let Some((idx, item)) = next else { break };
                if done.send((idx, job(item))).is_err() {
                    break;
                }
            });
        }
        // The workers hold the only senders, so the receive loop ends
        // once every worker has exited, normally or by panic.
        drop(done);
        let mut early = BTreeMap::new();
        let mut next = 0;
        for (idx, r) in results {
            early.insert(idx, r);
            while let Some(r) = early.remove(&next) {
                consume(r);
                next += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_with(8, items.clone(), |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let items: Vec<u64> = (0..50).collect();
        // A mildly uneven workload so the parallel schedule differs.
        let work = |x: u64| -> u64 {
            let mut acc = x;
            for _ in 0..(x % 7) * 100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(
            par_map_with(1, items.clone(), work),
            par_map_with(4, items, work)
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_with(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map_with(4, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(par_map_with(64, vec![1, 2, 3], |x| x * x), vec![1, 4, 9]);
    }

    /// Counts finished jobs, so a job can hold back until others are
    /// done and the interleaving a test checks is forced, not timed.
    #[derive(Default)]
    struct Finished {
        count: Mutex<usize>,
        changed: std::sync::Condvar,
    }

    impl Finished {
        fn done(&self) {
            *self.count.lock().unwrap() += 1;
            self.changed.notify_all();
        }

        fn wait_for(&self, n: usize) {
            let mut count = self.count.lock().unwrap();
            while *count < n {
                count = self.changed.wait(count).unwrap();
            }
        }
    }

    /// Job 0 finishes only after every later job has, so all of their
    /// results arrive early and must wait for the gap to close.
    #[test]
    fn consume_sees_input_order_when_early_jobs_are_slowest() {
        let n = 12u64;
        let finished = Finished::default();
        let mut seen = Vec::new();
        par_for_each_ordered(
            4,
            (0..n).collect(),
            |i| {
                if i == 0 {
                    finished.wait_for(n as usize - 1);
                } else {
                    finished.done();
                }
                i * 10
            },
            |r| seen.push(r),
        );
        assert_eq!(seen, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_streaming_handles_empty_and_oversized_pools() {
        let mut seen = Vec::new();
        par_for_each_ordered(4, Vec::<u32>::new(), |x| x, |r| seen.push(r));
        assert!(seen.is_empty());
        par_for_each_ordered(16, vec![1u32, 2, 3], |x| x + 1, |r| seen.push(r));
        assert_eq!(seen, vec![2, 3, 4]);
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        par_for_each_ordered(
            1,
            vec![1, 2, 3],
            |x| (x, std::thread::current().id()),
            |r| seen.push(r),
        );
        assert_eq!(seen, vec![(1, caller), (2, caller), (3, caller)]);
    }

    /// Job 3 panics after every later job has finished: the panic
    /// reaches the caller, and `consume` saw exactly the prefix 0..3.
    #[test]
    fn a_panicking_job_propagates_without_a_gap() {
        let finished = Finished::default();
        let mut seen = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_for_each_ordered(
                3,
                (0..8u32).collect(),
                |i| {
                    match i {
                        3 => {
                            finished.wait_for(4);
                            panic!("job 3 failed");
                        }
                        4.. => finished.done(),
                        _ => {}
                    }
                    i
                },
                |r| seen.push(r),
            );
        }));
        assert!(outcome.is_err());
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
