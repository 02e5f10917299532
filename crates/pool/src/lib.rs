//! # `dn-pool` — a hand-rolled in-order scheduler
//!
//! The DomainNet compute core is dominated by embarrassingly parallel loops:
//! one Brandes accumulation per source class, one CRC + decode per snapshot
//! section, one recovery per shard, one parse per CSV file. This crate
//! schedules those loops across threads with two properties the rest of the
//! workspace depends on:
//!
//! 1. **Deterministic indexed reduction.** Every task carries its index, and
//!    [`Pool::run`] returns results **in index order** no matter which worker
//!    ran which task or in what order they finished. Callers fold the result
//!    vector left-to-right, so floating-point reductions are bit-identical
//!    across thread counts and across runs — the property the `to_bits()`
//!    golden gates and the replication digest exchange rely on.
//!    [`Pool::run_in_order`] hands each result to a sink in that order as
//!    soon as it and every result before it exist, so the caller folds
//!    while later tasks still run.
//! 2. **One counter.** Workers claim task indices in ascending order from
//!    one shared counter, so an idle worker always takes the next task and
//!    a straggler (one giant connected component, say) delays only its own
//!    slot — the failure mode of fixed `len / threads` chunking, without
//!    per-worker queues. The calling thread is worker 0 and owns index 0.
//!    While the result it must hand on next is missing, it claims and runs
//!    the next unclaimed task itself; only when every task is claimed does
//!    it sleep on a `Condvar`, woken by the worker that stores the awaited
//!    result (and by no other).
//!
//! The scheduler is std-only (`std::thread::scope`, one `Mutex`, one
//! `Condvar`), per the workspace's zero-dependency vendor policy, and
//! contains no `unsafe`. Termination: tasks never wait and never spawn
//! tasks, and the caller sleeps only on a result whose task is already
//! claimed, hence running on a spawned worker that will store it (or
//! panic, which wakes the caller too). No state has a worker waiting on
//! another, hence no deadlock.
//!
//! **Panics** in a task or in the sink propagate to the caller: claiming
//! stops, every worker is joined, and the first panic payload is re-raised
//! via [`std::panic::resume_unwind`]. A spawned worker catches its task's
//! panic and records it for the caller, waking the caller if it sleeps;
//! the scheduler holds no lock while a task runs.
//!
//! ```
//! use dn_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.run(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Fold the squares in index order; the sink's first `Err` stops the run.
//! let mut sum = 0;
//! let stopped = pool.run_in_order(8, |i| i * i, |i, square| {
//!     sum += square;
//!     if sum > 20 { Err(i) } else { Ok(()) }
//! });
//! assert_eq!((stopped, sum), (Err(4), 30));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::any::Any;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// Lock a mutex, recovering from poisoning: the payload of any panic is
/// re-raised at join time anyway.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut results = Vec::with_capacity(len);
        self.run_in_order(len, task, |_, value| {
            results.push(value);
            Ok::<(), Infallible>(())
        })
        .unwrap_or_else(|never| match never {});
        results
    }

    /// Run `task` for every index in `0..len` and call `sink(i, result)`
    /// for `i = 0, 1, …` on the calling thread, each as soon as result `i`
    /// exists, while later tasks still run. The sink sees the results a
    /// sequential `(0..len).try_for_each(|i| sink(i, task(i)))` gives it,
    /// whatever the width.
    ///
    /// The first `Err` from `sink` stops claiming and is returned once the
    /// tasks already running have finished; their results are dropped.
    ///
    /// # Panics
    /// A panic in a task or in `sink` stops claiming; the first payload is
    /// re-raised after all workers have been joined.
    pub fn run_in_order<T, E, F, S>(&self, len: usize, task: F, mut sink: S) -> Result<(), E>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        S: FnMut(usize, T) -> Result<(), E>,
    {
        let workers = self.threads.min(len);
        if workers <= 1 {
            return (0..len).try_for_each(|i| sink(i, task(i)));
        }
        let shared = Shared {
            len,
            // Index 0 is the caller's, claimed before any worker starts: it
            // runs first, and what it allocates and returns (shard 0 of a
            // recovery, say) stays in the caller's malloc arena.
            next: AtomicUsize::new(1),
            stop: AtomicBool::new(false),
            state: Mutex::new(State {
                slots: (0..len).map(|_| None).collect(),
                awaited: None,
                panic: None,
            }),
            ready: Condvar::new(),
        };
        let outcome = std::thread::scope(|scope| {
            let (shared, task) = (&shared, &task);
            for _ in 1..workers {
                scope.spawn(move || work(shared, task));
            }
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| consume(shared, task, &mut sink)));
            shared.stop.store(true, Ordering::Relaxed);
            outcome
        });
        let worker_panic = shared
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .panic;
        match (outcome, worker_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
            (Ok(result), None) => result,
        }
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

/// What the threads of one [`Pool::run_in_order`] call share.
struct Shared<T> {
    len: usize,
    /// The next unclaimed index; a claim at or past `len` finds nothing.
    /// Both atomics are `Relaxed`: neither publishes data, since results
    /// and panic payloads travel through `state`'s mutex.
    next: AtomicUsize,
    /// Set once claiming must stop: the sink failed or something panicked.
    stop: AtomicBool,
    state: Mutex<State<T>>,
    /// Signalled when the result the caller sleeps on is stored, or a
    /// worker's task panicked while the caller sleeps.
    ready: Condvar,
}

struct State<T> {
    /// Results run but not yet handed to the sink.
    slots: Vec<Option<T>>,
    /// The index the caller sleeps on, while it does.
    awaited: Option<usize>,
    /// The first panic payload of a spawned worker's task.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T> Shared<T> {
    /// The next unclaimed index, or `None` once every index is claimed or
    /// claiming stopped.
    fn claim(&self) -> Option<usize> {
        if self.stop.load(Ordering::Relaxed) {
            return None;
        }
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.len).then_some(index)
    }

    /// Store result `index`, waking the caller only if it sleeps on it: a
    /// notify is a syscall even when nobody waits.
    fn store(&self, index: usize, value: T) {
        let mut state = lock_unpoisoned(&self.state);
        state.slots[index] = Some(value);
        if state.awaited == Some(index) {
            drop(state);
            self.ready.notify_one();
        }
    }

    /// Record a spawned worker's task panic, stop claiming, and wake the
    /// caller if it sleeps (on this task's slot, or one claimed later).
    fn fail(&self, payload: Box<dyn Any + Send>) {
        self.stop.store(true, Ordering::Relaxed);
        let mut state = lock_unpoisoned(&self.state);
        state.panic.get_or_insert(payload);
        if state.awaited.is_some() {
            drop(state);
            self.ready.notify_one();
        }
    }

    /// Result `index`, if it is stored.
    fn take(&self, index: usize) -> Option<T> {
        lock_unpoisoned(&self.state).slots[index].take()
    }

    /// Sleep until result `index` is stored; `None` if a worker's task
    /// panicked first.
    fn wait_for(&self, index: usize) -> Option<T> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            if let Some(value) = state.slots[index].take() {
                return Some(value);
            }
            if state.panic.is_some() {
                return None;
            }
            state.awaited = Some(index);
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.awaited = None;
        }
    }
}

/// A spawned worker: claim, run and store until nothing is left to claim.
fn work<T, F: Fn(usize) -> T>(shared: &Shared<T>, task: &F) {
    while let Some(index) = shared.claim() {
        match panic::catch_unwind(AssertUnwindSafe(|| task(index))) {
            Ok(value) => shared.store(index, value),
            Err(payload) => return shared.fail(payload),
        }
    }
}

/// The caller, worker 0: hand results to `sink` in index order, running
/// the next unclaimed task itself while the one it needs is missing.
/// Returns `Ok` early if a worker's task panicked (re-raised after join).
fn consume<T, E, F, S>(shared: &Shared<T>, task: &F, sink: &mut S) -> Result<(), E>
where
    F: Fn(usize) -> T,
    S: FnMut(usize, T) -> Result<(), E>,
{
    let mut own = Some(0);
    for want in 0..shared.len {
        let value = loop {
            if let Some(value) = shared.take(want) {
                break Some(value);
            }
            // Every index below `want` is consumed, so a claim here is
            // `want` itself, or a later one while a worker runs `want`.
            match own.take().or_else(|| shared.claim()) {
                Some(index) if index == want => break Some(task(index)),
                Some(index) => shared.store(index, task(index)),
                None => break shared.wait_for(want),
            }
        };
        match value {
            Some(value) => sink(want, value)?,
            None => return Ok(()),
        }
    }
    Ok(())
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

    /// Seeded, index-dependent busy work, so completion order varies
    /// wildly between workers and runs.
    fn uneven(i: usize, spins: &[u32]) -> u64 {
        let mut x = i as u64;
        for _ in 0..spins[i] {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        x
    }

    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn run_in_order_sinks_every_index_in_order_at_every_width() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x51_0AC);
        let spins: Vec<u32> = (0..300).map(|_| rng.gen_range(0..20_000)).collect();
        let sunk = |threads: usize| -> Vec<u64> {
            let mut seen = Vec::new();
            let done: Result<(), ()> = Pool::new(threads).run_in_order(
                spins.len(),
                |i| uneven(i, &spins),
                |i, value| {
                    assert_eq!(i, seen.len(), "{threads} threads: out of order");
                    seen.push(value);
                    Ok(())
                },
            );
            assert_eq!(done, Ok(()));
            seen
        };
        let reference = sunk(1);
        assert_eq!(reference.len(), spins.len());
        for threads in 2..=4 {
            for _ in 0..3 {
                assert_eq!(sunk(threads), reference, "{threads} threads");
            }
        }
    }

    #[test]
    fn a_sink_error_is_returned_and_stops_the_run() {
        let k = 5;
        for threads in 1..=4 {
            let ran = AtomicUsize::new(0);
            let mut sunk = 0;
            let done = Pool::new(threads).run_in_order(
                40,
                |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |i, value| {
                    assert_eq!(value, i);
                    sunk += 1;
                    if i == k {
                        Err(format!("stop at {i}"))
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(done, Err(format!("stop at {k}")), "{threads} threads");
            assert_eq!(sunk, k + 1, "{threads} threads");
            if threads == 1 {
                assert_eq!(ran.load(Ordering::SeqCst), k + 1);
            }
        }
    }

    /// A spawned worker's task panics at the index the caller waits for:
    /// the caller must wake (or never sleep), join and re-raise, not hang.
    #[test]
    fn a_worker_panic_at_the_awaited_index_is_re_raised_without_a_hang() {
        use std::sync::atomic::AtomicBool;
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caller = std::thread::current().id();
            let (one_started, two_done) = (AtomicBool::new(false), AtomicBool::new(false));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Pool::new(2).run(3, |i| {
                    match i {
                        // The caller's own index: busy until a worker has
                        // claimed index 1, so the caller cannot.
                        0 => {
                            while !one_started.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        // Panic only once the caller has run the last task,
                        // so it has nothing left to claim and waits for
                        // index 1 (asleep, unless it is slower than 20 ms).
                        1 => {
                            assert_ne!(std::thread::current().id(), caller);
                            one_started.store(true, Ordering::SeqCst);
                            while !two_done.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("task 1 explodes");
                        }
                        _ => two_done.store(true, Ordering::SeqCst),
                    }
                    i
                })
            }));
            let _ = sender.send(result.map_err(|payload| message(&*payload)));
        });
        let outcome = receiver
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the caller hangs on a panicked worker's slot");
        let message = outcome.expect_err("the task panic must reach the caller");
        assert!(message.contains("task 1 explodes"), "got: {message}");
    }

    /// A sink panic stops claiming, and every task that started has
    /// finished before it is re-raised. The sink panics on the caller's own
    /// first result, while each spawned worker is inside its first task,
    /// which outlasts the panic hook (a backtrace, say): no worker may
    /// claim a second one.
    #[test]
    fn a_sink_panic_stops_claiming_and_is_re_raised_after_the_join() {
        for threads in [1, 2, 4] {
            let started = AtomicUsize::new(0);
            let finished = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Pool::new(threads).run_in_order(
                    12,
                    |i| {
                        started.fetch_add(1, Ordering::SeqCst);
                        if i > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(200));
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        i
                    },
                    |i, _| -> Result<(), ()> { panic!("sink explodes at {i}") },
                )
            }));
            let payload = result.expect_err("the sink panic must reach the caller");
            assert!(message(&*payload).contains("sink explodes at 0"));
            let started = started.load(Ordering::SeqCst);
            assert_eq!(finished.load(Ordering::SeqCst), started, "joined first");
            assert!(
                started <= threads,
                "{threads} threads: {started} tasks started"
            );
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
