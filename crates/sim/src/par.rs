//! A std-only scoped-thread worker pool for simulation campaigns.
//!
//! Every figure in the reproduction sweeps dozens of *independent*
//! simulations (station counts, seeds, CW values, PHY generations), and
//! a sharded deployment is a set of independent component worlds.
//! [`par_map`] fans those jobs out over a small pool of scoped
//! threads (`std::thread::scope`, so no `'static` bounds and no extra
//! dependencies) and returns the results **in input order**, which keeps
//! campaign output byte-identical regardless of worker count or
//! completion order.
//!
//! Worker count resolution, in priority order:
//! 1. an explicit count passed to [`par_map_with`],
//! 2. the `WN_THREADS` environment variable (`1` disables threading),
//! 3. [`std::thread::available_parallelism`].

use std::sync::Mutex;

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
/// regular owned values. Ordering of results is always the input order
/// — the schedule is work-stealing but the output slots are fixed.
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
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Shared queue of (input index, item); each worker pops the next
    // pending item and writes its result into the slot for that index.
    let queue: Mutex<Vec<(usize, T)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue poisoned").pop();
                let Some((idx, item)) = next else { break };
                let out = f(item);
                slots.lock().expect("slots poisoned")[idx] = Some(out);
            });
        }
    });

    let results = slots.into_inner().expect("slots poisoned");
    results
        .into_iter()
        .map(|r| r.expect("worker finished every claimed slot"))
        .collect()
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
}
