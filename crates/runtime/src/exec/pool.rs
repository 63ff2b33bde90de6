//! A persistent worker pool: parked OS threads that outlive any single
//! scope, so back-to-back uses pay thread spawn cost **once**.
//!
//! [`WorkerPool`] keeps a fixed set of threads parked on a job queue;
//! [`WorkerPool::scope`] hands out a [`PoolScope`] whose
//! [`spawn`](PoolScope::spawn) accepts closures borrowing the caller's
//! stack, exactly like the standard library's scoped threads, but
//! reusing the parked threads instead of spawning fresh ones.
//!
//! Two consumers exist today:
//!
//! * the round engine — the sharded executor runs every round as one
//!   scope (a job per shard but the last, which the scope body runs
//!   itself), on a pool spawned for the run
//!   ([`ShardedExecutor::run`](super::ShardedExecutor)) or on a
//!   caller-owned one that outlives many runs
//!   ([`ShardedExecutor::run_in`](super::ShardedExecutor::run_in) /
//!   [`Scenario::run_pooled`](crate::Scenario::run_pooled));
//! * `rendez_fleet` — the workspace's one Monte-Carlo trial scheduler,
//!   which parks one trial-crunching loop per pool thread for a whole
//!   job: a parameter grid (`Fleet::run`) or a list of independent
//!   trials (`Fleet::map`, which every `exp_*` harness runs on).
//!
//! Determinism: the pool schedules jobs in no particular order on no
//! particular thread, so consumers must make their results independent
//! of both — the round engine's jobs own disjoint shards and are merged
//! in shard order after the scope returns.
//!
//! # Scope semantics
//!
//! [`WorkerPool::scope`] does not return until every job spawned inside
//! it has finished, even when the scope body or a job panics — that wait
//! is what makes borrowing the caller's stack sound. If any job panicked,
//! the first panic payload is resumed on the calling thread *after* all
//! jobs have drained; the pool threads themselves survive (each job runs
//! under [`catch_unwind`]), so a panicked scope leaves the pool fully
//! usable.
//!
//! # Deadlock discipline
//!
//! Jobs must not block on work that only a later job on the same pool can
//! perform: the pool has exactly [`size`](WorkerPool::size) threads and
//! never spawns more. A scope may hold more jobs than threads — they
//! queue — as long as no job waits on another: the round engine's shard
//! jobs and the fleet's trial loops are both independent.
//!
//! lint: deterministic

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased unit of work. Jobs are `'static`: [`PoolScope::spawn`]
/// erases the caller's `'env` lifetime, which is sound because the scope
/// blocks until every job completes (see the module docs).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue shared between the pool handle and its worker threads.
struct Shared {
    /// Pending jobs plus the shutdown flag, under one lock so a worker
    /// never misses a wake-up between checking both.
    queue: Mutex<(VecDeque<Job>, bool)>,
    /// Signals "new job" and "shutdown".
    available: Condvar,
}

/// A fixed set of persistent worker threads, parked between uses.
///
/// Create once, run many scopes ([`scope`](Self::scope)) or whole
/// executor runs ([`ShardedExecutor::run_in`](super::ShardedExecutor::run_in))
/// against it; threads are joined when the pool is dropped.
///
/// ```rust
/// use rendez_runtime::WorkerPool;
///
/// let pool = WorkerPool::new(2);
/// let mut results = vec![0u64; 8];
/// pool.scope(|s| {
///     for (i, slot) in results.iter_mut().enumerate() {
///         s.spawn(move || *slot = (i as u64) * 10);
///     }
/// });
/// assert_eq!(results[7], 70);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.threads.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `size` parked worker threads (0 = one per
    /// available core).
    pub fn new(size: usize) -> Self {
        let size = if size == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            size
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        });
        let threads = (0..size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_main(&shared))
            })
            .collect();
        Self { shared, threads }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.threads.len()
    }

    /// Run `body` with a [`PoolScope`] that can spawn jobs borrowing the
    /// caller's stack. Returns only after every spawned job finished; the
    /// first job panic (or a panic in `body` itself) is resumed here
    /// after that drain, with the pool left fully usable.
    pub fn scope<'env, F, R>(&self, body: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            drained: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        // The body may panic after spawning jobs that borrow its frame's
        // ancestors; those jobs MUST finish before the unwind continues,
        // so the wait happens on both exit paths.
        let result = catch_unwind(AssertUnwindSafe(|| body(&scope)));
        let mut pending = state.pending.lock().expect("scope lock poisoned");
        while *pending > 0 {
            pending = state.drained.wait(pending).expect("scope lock poisoned");
        }
        drop(pending);
        if let Some(payload) = state.panic.lock().expect("panic lock poisoned").take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Push one erased job onto the shared queue.
    fn push_job(&self, job: Job) {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        q.0.push_back(job);
        drop(q);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.1 = true;
        }
        self.shared.available.notify_all();
        for t in self.threads.drain(..) {
            // A worker can only "fail" via a panic that escaped a job's
            // catch_unwind, which cannot happen for unwinding panics;
            // don't double-panic during drop if it somehow did.
            let _ = t.join();
        }
    }
}

/// A worker thread's whole life: pop a job or park; exit on shutdown.
fn worker_main(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.0.pop_front() {
                    break job;
                }
                if q.1 {
                    return;
                }
                q = shared.available.wait(q).expect("pool queue poisoned");
            }
        };
        job();
    }
}

/// Completion tracking for one [`WorkerPool::scope`] invocation.
struct ScopeState {
    /// Jobs spawned but not yet finished.
    pending: Mutex<usize>,
    /// Signalled when `pending` hits zero.
    drained: Condvar,
    /// First panic payload from any job in this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`]; its
/// jobs may borrow anything that outlives the `scope` call (`'env`).
pub struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant in `'env`, as for [`std::thread::Scope`].
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> PoolScope<'pool, 'env> {
    /// Queue `f` on the pool. The job may borrow `'env` data; if it
    /// panics, the scope resumes the payload after all jobs drain.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().expect("scope lock poisoned") += 1;
        let state = Arc::clone(&self.state);
        let erased: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `WorkerPool::scope` does not return (or resume an
        // unwind) until `pending` reaches zero, so everything the closure
        // borrows from `'env` strictly outlives its execution. The
        // transmute only erases that lifetime; layout is identical.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(erased)
        };
        self.pool.push_job(Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(erased));
            if let Err(payload) = outcome {
                let mut slot = state.panic.lock().expect("panic lock poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let mut pending = state.pending.lock().expect("scope lock poisoned");
            *pending -= 1;
            if *pending == 0 {
                state.drained.notify_all();
            }
        }));
    }

    /// The pool this scope runs on.
    pub fn pool(&self) -> &'pool WorkerPool {
        self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn scope_runs_jobs_borrowing_the_stack() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 20];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        assert_eq!(out, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_size_means_cores_and_size_reports() {
        let pool = WorkerPool::new(0);
        assert!(pool.size() >= 1);
        assert_eq!(WorkerPool::new(5).size(), 5);
    }

    #[test]
    fn back_to_back_scopes_reuse_the_same_threads() {
        let pool = WorkerPool::new(2);
        let ids = Mutex::new(HashSet::new());
        // Two separate scopes; every job records its thread id. With
        // parked persistent threads the union has at most `size` ids.
        for _ in 0..2 {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    });
                }
            });
        }
        let ids = ids.into_inner().unwrap();
        assert!(!ids.is_empty() && ids.len() <= 2, "got {} ids", ids.len());
    }

    #[test]
    fn scope_returns_body_value() {
        let pool = WorkerPool::new(1);
        let sum = AtomicU64::new(0);
        let r = pool.scope(|s| {
            for i in 0..10u64 {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
            "done"
        });
        assert_eq!(r, "done");
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn job_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom in job"));
                for _ in 0..4 {
                    s.spawn(|| {});
                }
            });
        }));
        assert!(caught.is_err(), "job panic must surface");
        // The pool is still fully usable afterwards.
        let mut v = vec![0u8; 4];
        pool.scope(|s| {
            for slot in v.iter_mut() {
                s.spawn(move || *slot = 7);
            }
        });
        assert_eq!(v, vec![7; 4]);
    }

    #[test]
    fn empty_scope_is_fine() {
        let pool = WorkerPool::new(2);
        let out = pool.scope(|_| 42);
        assert_eq!(out, 42);
    }
}
