//! # `dn-pool` — a hand-rolled work-stealing scheduler
//!
//! The DomainNet compute core is dominated by embarrassingly parallel loops:
//! one Brandes accumulation per source class, one CRC + decode per snapshot
//! section, one recovery per shard. This crate schedules those loops across
//! threads with two properties the rest of the workspace depends on:
//!
//! 1. **Deterministic indexed reduction.** Every task carries its index, and
//!    [`Pool::run`] returns results **in index order** no matter which worker
//!    ran which task or in what order they finished. Callers fold the result
//!    vector left-to-right, so floating-point reductions are bit-identical
//!    across thread counts and across runs — the property the `to_bits()`
//!    golden gates and the replication digest exchange rely on.
//! 2. **Work stealing.** Task indices are dealt to per-worker deques in
//!    contiguous blocks (cache-friendly starts), with the remainder parked on
//!    a shared injector. A worker drains its own deque from the front, then
//!    the injector, then steals from the *back* of sibling deques — so a
//!    straggler block (one giant connected component, say) ends up shared
//!    instead of serializing the tail, which is exactly the failure mode of
//!    fixed `len / threads` chunking.
//!
//! The scheduler is std-only (`std::thread::scope` + `Mutex<VecDeque>`), per
//! the workspace's zero-dependency vendor policy, and contains no `unsafe`.
//! Tasks never spawn tasks, which is what makes the termination argument
//! trivial: once every deque and the injector are empty, the remaining tasks
//! are all in flight on some worker, so an idle worker can simply exit —
//! there is no state in which a worker waits on another, hence no deadlock,
//! even when a sibling panics (see below).
//!
//! **Panics** in a task propagate to the caller: every worker is joined, the
//! first panic payload observed is re-raised via
//! [`std::panic::resume_unwind`], and deque locks poisoned by a panicking
//! worker are recovered with [`std::sync::PoisonError::into_inner`] so the
//! surviving workers drain the queue rather than deadlocking or unwinding
//! with a confusing secondary panic.
//!
//! ```
//! use dn_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// A fixed-width scheduler: `threads` workers per [`Pool::run`] call.
///
/// The pool is a *configuration*, not a set of live threads: each `run`
/// works as worker 0 on the calling thread, spawns `threads − 1` scoped
/// workers beside it and joins them before returning, so a `Pool` is freely
/// shareable (`Copy`) and holding one costs nothing. A width of 0 or 1
/// degrades to inline sequential execution — same task decomposition, same
/// results, no threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

/// Lock a mutex, recovering from poisoning: a panicking worker must not
/// wedge its siblings, and the payload is re-raised at join time anyway.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Pool {
    /// A pool `threads` wide. Zero is clamped to one (inline execution).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool as wide as the machine (`std::thread::available_parallelism`,
    /// falling back to 1 when the runtime cannot tell).
    pub fn machine_wide() -> Pool {
        Pool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task` for every index in `0..len` and return the results **in
    /// index order**, regardless of which worker ran which index or the
    /// order they finished in.
    ///
    /// # Panics
    /// Re-raises the first panic payload observed among the tasks after all
    /// workers have been joined (no task is left running).
    pub fn run<T, F>(&self, len: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(len);
        if workers <= 1 {
            return (0..len).map(task).collect();
        }

        // Deal contiguous blocks to the workers, remainder to the injector.
        let block = len / workers;
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w * block..(w + 1) * block).collect()))
            .collect();
        let injector: Mutex<VecDeque<usize>> = Mutex::new((workers * block..len).collect());

        let mut slots: Vec<Option<T>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            // The caller is worker 0: one spawn fewer per call, and what its
            // tasks allocate and return stays in the caller's malloc arena.
            let handles: Vec<_> = (1..workers)
                .map(|me| {
                    let deques = &deques;
                    let injector = &injector;
                    let task = &task;
                    scope.spawn(move || {
                        let mut produced: Vec<(usize, T)> = Vec::new();
                        while let Some(index) = next_index(me, deques, injector) {
                            produced.push((index, task(index)));
                        }
                        produced
                    })
                })
                .collect();
            while let Some(index) = next_index(0, &deques, &injector) {
                slots[index] = Some(task(index));
            }
            for handle in handles {
                match handle.join() {
                    Ok(produced) => {
                        for (index, value) in produced {
                            slots[index] = Some(value);
                        }
                    }
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
        });

        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was claimed exactly once"))
            .collect()
    }

    /// Run `task` once per element of `items` with **exclusive mutable
    /// access** to that element, returning the per-element results in index
    /// order. Each element is wrapped in its own `Mutex` for the duration of
    /// the call; since every index is claimed exactly once, the locks are
    /// uncontended — they exist only to hand `&mut` across threads without
    /// `unsafe`.
    ///
    /// # Panics
    /// As [`Pool::run`].
    pub fn run_over_mut<T, R, F>(&self, items: &mut [T], task: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        if self.threads.min(items.len()) <= 1 {
            return items
                .iter_mut()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect();
        }
        let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        self.run(cells.len(), |i| {
            let mut guard = lock_unpoisoned(&cells[i]);
            task(i, &mut guard)
        })
    }
}

/// Claim the next task index for worker `me`: own deque front, then the
/// injector, then steal from the back of the other workers' deques (lowest
/// victim index first, for determinism of the *schedule shape* under test
/// seeds — results are index-ordered regardless). `None` means every queue
/// is empty; since tasks never spawn tasks, whatever remains is already in
/// flight and this worker is done.
fn next_index(
    me: usize,
    deques: &[Mutex<VecDeque<usize>>],
    injector: &Mutex<VecDeque<usize>>,
) -> Option<usize> {
    if let Some(index) = lock_unpoisoned(&deques[me]).pop_front() {
        return Some(index);
    }
    if let Some(index) = lock_unpoisoned(injector).pop_front() {
        return Some(index);
    }
    for (victim, deque) in deques.iter().enumerate() {
        if victim == me {
            continue;
        }
        if let Some(index) = lock_unpoisoned(deque).pop_back() {
            return Some(index);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        let pool = Pool::new(4);
        let out = pool.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_and_zero_threads_are_fine() {
        assert!(Pool::new(4).run(0, |i| i).is_empty());
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(0).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn fewer_tasks_than_workers() {
        let pool = Pool::new(8);
        assert_eq!(pool.run(3, |i| i + 10), vec![10, 11, 12]);
        assert_eq!(pool.run(1, |i| i), vec![0]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = Pool::new(4);
        let counters: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(1000, |i| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, counter) in counters.iter().enumerate() {
            assert_eq!(counter.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = std::thread::current().id();
        let ids = Pool::new(2).run(64, |_| std::thread::current().id());
        let spawned: std::collections::HashSet<_> =
            ids.into_iter().filter(|&id| id != caller).collect();
        assert!(spawned.len() <= 1, "width 2 spawns one thread, not two");
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let pool = Pool::new(4);
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(64, |i| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(i != 17, "task 17 explodes");
                i
            })
        }));
        let payload = result.expect_err("the task panic must reach the caller");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task 17 explodes"), "got: {message}");
        assert!(ran.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn run_over_mut_gives_each_element_exclusive_access() {
        let pool = Pool::new(4);
        let mut items: Vec<u64> = (0..257).collect();
        let returns = pool.run_over_mut(&mut items, |i, item| {
            *item += 1000;
            i as u64
        });
        assert_eq!(returns, (0..257).collect::<Vec<u64>>());
        for (i, item) in items.iter().enumerate() {
            assert_eq!(*item, i as u64 + 1000);
        }
    }

    /// The determinism contract under adversarial schedules: random task
    /// durations (seeded, so the test is reproducible) must not change the
    /// result of a left-fold over the returned vector, for any width.
    #[test]
    fn seeded_stress_indexed_reduction_is_deterministic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD0_5EED);
        let inputs: Vec<f64> = (0..500).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let spins: Vec<u32> = (0..500).map(|_| rng.gen_range(0..2000)).collect();

        let reduce = |threads: usize| -> f64 {
            let pool = Pool::new(threads);
            let parts = pool.run(inputs.len(), |i| {
                // Busy-wait a seeded, index-dependent amount so completion
                // order varies wildly between workers and runs.
                let mut x = inputs[i];
                for _ in 0..spins[i] {
                    x = x.sin() + inputs[i];
                }
                x
            });
            parts.iter().fold(0.0, |acc, &p| acc + p)
        };

        let reference = reduce(1);
        for threads in [2, 4, 8] {
            for _ in 0..3 {
                assert_eq!(
                    reduce(threads).to_bits(),
                    reference.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }
}
