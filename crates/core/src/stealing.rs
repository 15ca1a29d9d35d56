//! A work-stealing task scheduler in the Chase–Lev deque style, for
//! heterogeneous task sets over a fixed worker pool.
//!
//! This is the simulator's one task scheduler: the fleet executor runs its
//! device×frame tasks on it and [`BatchExecutor`](crate::BatchExecutor)
//! runs frame indices on it. Task weights can differ widely — a low-light
//! device's denoised burst next to a privacy-filtered thumbnail — so it
//! keeps the classic Chase–Lev discipline: every worker owns a deque, pops
//! its own work LIFO from the back, and steals FIFO from the front of a
//! victim's deque when it runs dry, so heavy tails migrate to idle workers
//! instead of serializing behind one queue. Workers start through
//! [`redeye_tensor::par_map`], the workspace's one thread spawner.
//!
//! The canonical Chase–Lev deque is a lock-free array with subtle
//! publication ordering; this crate forbids `unsafe`, so each deque is a
//! `Mutex<VecDeque>` with the same owner-LIFO/thief-FIFO access pattern.
//! Tasks here are whole device×frame executions (milliseconds), so the
//! nanosecond-scale difference between a CAS and an uncontended lock is
//! noise — the *scheduling policy* is what matters.
//!
//! # Determinism
//!
//! The scheduler never affects task *results*: each task is identified by
//! its index in the submitted slice, results return in submission order,
//! and the caller's task function is required to be a pure function of the
//! task payload (the fleet engine guarantees this — every noise draw is
//! counter-derived from the device seed, never from scheduling). Placement
//! and victim order are explicit knobs so tests can prove output equality
//! across materially different steal schedules.

use redeye_tensor::par_map;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The worker count the host actually offers:
/// [`std::thread::available_parallelism`], or 1 when the host cannot say.
///
/// This is the default pool size everywhere a worker count is optional
/// (the fleet executor, the perf bins' `--workers auto`), so hosts stop
/// hard-coding sweeps like 1/2/4 that only measure queue overhead on
/// smaller machines.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How submitted tasks are distributed across the worker deques before
/// execution starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Task `i` starts on worker `i mod workers` — interleaved, so every
    /// deque holds a cross-section of the task list.
    #[default]
    RoundRobin,
    /// Contiguous blocks: worker `w` starts with tasks
    /// `[w·n/workers, (w+1)·n/workers)`. Preserves task locality and, with
    /// skewed inputs, deliberately provokes stealing — useful in tests.
    Blocked,
}

/// The order a hungry worker scans victims in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimOrder {
    /// Ring order: worker `w` tries `w+1, w+2, …` (mod workers).
    #[default]
    Ring,
    /// Reverse ring: worker `w` tries `w-1, w-2, …` (mod workers).
    /// Exists so determinism tests can flip the steal schedule.
    ReverseRing,
}

/// Scheduler knobs: initial placement and victim scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealOptions {
    /// Initial task placement across deques.
    pub placement: Placement,
    /// Victim scan order for steals.
    pub victim_order: VictimOrder,
}

/// Counters describing one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StealStats {
    /// Tasks executed (always the number submitted).
    pub executed: u64,
    /// Tasks that ran on a worker other than the one they were placed on.
    pub steals: u64,
}

/// One worker's deque: tasks tagged with their submission index.
type Deque<T> = Mutex<VecDeque<(usize, T)>>;

/// Locks a deque. A deque lock is only ever held across `VecDeque` pushes
/// and pops, which leave the queue consistent even if a panic interrupts
/// them, so a poisoned lock is used as is.
fn lock<T>(deque: &Deque<T>) -> MutexGuard<'_, VecDeque<(usize, T)>> {
    deque.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs every task on a pool of `workers` threads with work stealing, and
/// returns the results **in submission order** plus scheduler counters.
///
/// `init` builds one scratch state per worker (called once per worker, on
/// that worker's thread); `run` executes one task against the worker's
/// state. With `workers <= 1` or at most one task everything runs inline on
/// the caller's thread, in submission order — the degenerate deque with no
/// thieves. Otherwise the pool is clamped to one worker per task, and the
/// last worker runs on the caller's thread.
///
/// Tasks must be pure functions of their payload for the output to be
/// schedule-independent; the scheduler itself only decides *where* each
/// task runs, never what it computes.
///
/// # Panics
///
/// Propagates panics from `init` or `run` once every worker has joined —
/// a bug in the caller's task function, not a data condition.
pub fn run_stealing<T, S, R, I, F>(
    tasks: &[T],
    workers: usize,
    opts: StealOptions,
    init: I,
    run: F,
) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = tasks.len();
    let executed = n as u64;
    if workers <= 1 || n <= 1 {
        let mut state = init(0);
        let results = tasks.iter().map(|t| run(&mut state, t)).collect();
        return (
            results,
            StealStats {
                executed,
                steals: 0,
            },
        );
    }

    let workers = workers.min(n);
    let deques: Vec<Deque<&T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    place(tasks, &deques, opts.placement);
    let steals = AtomicU64::new(0);

    let per_worker = par_map(vec![(); workers], |w, ()| {
        let mut state = init(w);
        let mut done = Vec::new();
        loop {
            // Own work first: LIFO from the back of our deque. When dry,
            // scan victims, stealing FIFO from the front (the oldest,
            // largest-remaining work).
            let own = lock(&deques[w]).pop_back();
            let (idx, task) = match own {
                Some(next) => next,
                None => match steal_from(&deques, w, opts.victim_order) {
                    Some(next) => {
                        steals.fetch_add(1, Ordering::Relaxed);
                        next
                    }
                    None => break,
                },
            };
            done.push((idx, run(&mut state, task)));
        }
        done
    });

    // Every task index appears exactly once across the workers' lists.
    let mut results: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(idx, _)| idx);
    (
        results.into_iter().map(|(_, r)| r).collect(),
        StealStats {
            executed,
            steals: steals.into_inner(),
        },
    )
}

/// Distributes task references across the deques per the placement policy.
fn place<'t, T>(tasks: &'t [T], deques: &[Deque<&'t T>], placement: Placement) {
    let workers = deques.len();
    match placement {
        Placement::RoundRobin => {
            for (i, task) in tasks.iter().enumerate() {
                lock(&deques[i % workers]).push_back((i, task));
            }
        }
        Placement::Blocked => {
            let n = tasks.len();
            for (w, deque) in deques.iter().enumerate() {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                let mut q = lock(deque);
                for (i, task) in tasks.iter().enumerate().take(hi).skip(lo) {
                    q.push_back((i, task));
                }
            }
        }
    }
}

/// One full victim scan for worker `w`: first hit wins, `None` means every
/// deque (including our own, already known dry) is empty. Because tasks
/// are all placed before workers start and never spawn successors, an
/// empty sweep is a stable termination condition, not a race.
fn steal_from<'t, T>(
    deques: &[Deque<&'t T>],
    w: usize,
    order: VictimOrder,
) -> Option<(usize, &'t T)> {
    let workers = deques.len();
    for step in 1..workers {
        let v = match order {
            VictimOrder::Ring => (w + step) % workers,
            VictimOrder::ReverseRing => (w + workers - step) % workers,
        };
        let task = lock(&deques[v]).pop_front();
        if task.is_some() {
            return task;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn opts_matrix() -> Vec<StealOptions> {
        let mut m = Vec::new();
        for placement in [Placement::RoundRobin, Placement::Blocked] {
            for victim_order in [VictimOrder::Ring, VictimOrder::ReverseRing] {
                m.push(StealOptions {
                    placement,
                    victim_order,
                });
            }
        }
        m
    }

    #[test]
    fn every_task_runs_once_in_submission_order() {
        for opts in opts_matrix() {
            for workers in [1usize, 2, 3, 4, 7] {
                let tasks: Vec<u64> = (0..53).collect();
                let (results, stats) = run_stealing(&tasks, workers, opts, |_| (), |(), &t| t * t);
                let want: Vec<u64> = (0..53).map(|t| t * t).collect();
                assert_eq!(results, want, "{opts:?} @ {workers} workers");
                assert_eq!(stats.executed, 53);
            }
        }
    }

    #[test]
    fn skewed_blocks_provoke_stealing() {
        // Worker 0's block holds all the heavy tasks; with blocked
        // placement the only way the pool balances is by stealing.
        let tasks: Vec<u64> = (0..32).map(|i| if i < 16 { 3_000 } else { 0 }).collect();
        let opts = StealOptions {
            placement: Placement::Blocked,
            victim_order: VictimOrder::Ring,
        };
        let (results, stats) = run_stealing(
            &tasks,
            2,
            opts,
            |_| (),
            |(), &spin| {
                // Busy work proportional to the task weight.
                let mut acc = 0u64;
                for i in 0..spin * 100 {
                    acc = acc.wrapping_add(i ^ acc.rotate_left(7));
                }
                std::hint::black_box(acc);
                spin
            },
        );
        assert_eq!(results.iter().sum::<u64>(), 16 * 3_000);
        assert!(stats.steals > 0, "no steals despite a fully skewed block");
    }

    #[test]
    fn init_runs_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..40).collect();
        let (_, _) = run_stealing(
            &tasks,
            4,
            StealOptions::default(),
            |w| {
                inits.fetch_add(1, Ordering::Relaxed);
                w
            },
            |_, &t| t,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn results_identical_across_schedules() {
        // The whole point: materially different steal schedules, same
        // output for pure tasks.
        let tasks: Vec<u64> = (0..97).collect();
        let mut reference: Option<Vec<u64>> = None;
        for opts in opts_matrix() {
            for workers in [1usize, 2, 4] {
                let (results, _) = run_stealing(
                    &tasks,
                    workers,
                    opts,
                    |_| (),
                    |(), &t| t.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17),
                );
                match &reference {
                    Some(want) => assert_eq!(want, &results, "{opts:?} @ {workers}"),
                    None => reference = Some(results),
                }
            }
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let (results, stats) = run_stealing(
            &[1u64, 2, 3],
            16,
            StealOptions::default(),
            |_| (),
            |(), &t| t + 1,
        );
        assert_eq!(results, vec![2, 3, 4]);
        assert_eq!(stats.executed, 3);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let (results, stats) = run_stealing(
            &Vec::<u64>::new(),
            4,
            StealOptions::default(),
            |_| (),
            |(), &t| t,
        );
        assert!(results.is_empty());
        assert_eq!(stats.executed, 0);
    }
}
