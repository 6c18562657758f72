//! A shared work-stealing worker pool for batched gate execution.
//!
//! The workspace dispatches onto it from one place,
//! [`crate::graph::run_wave`] — kernel-graph [`crate::replay`] (and
//! through it [`crate::execute_parallel`]) with one launch per wave, the
//! serving scheduler with one launch per picked job. A pool of persistent
//! workers, because a [`std::thread::scope`] per dispatch costs orders of
//! magnitude more than a wave of plaintext gates:
//!
//! * **Per-lane deques, rayon-style stealing.** A run distributes its
//!   tasks round-robin across `lanes` double-ended queues. Each lane
//!   pops its own deque LIFO (back) for cache locality and steals from
//!   other lanes FIFO (front), so one fat chunk cannot idle the rest of
//!   the pool.
//! * **The caller is lane 0.** Submitting a run never blocks a thread
//!   doing nothing: the submitting thread works its own lane, then
//!   steals, then waits on the completion latch.
//! * **Grow on demand.** The pool starts at its configured width
//!   ([`WorkerPool::global`] reads `PYTFHE_WORKERS`, else the machine's
//!   available parallelism) but honors wider explicit requests by
//!   spawning the missing workers — an executor asked for 8 lanes gets
//!   8 lanes even on a 2-core box (the caller opted into
//!   oversubscription).
//! * **Panics become errors.** A panicking task is caught on its worker;
//!   the run completes and reports [`ExecError::WorkerPanicked`] instead
//!   of poisoning the pool.
//! * **Reentrancy is inline.** A task that itself submits a run (nested
//!   executors) runs the nested tasks inline on its own thread rather
//!   than deadlocking on the run lock.
//! * **Gangs.** [`WorkerPool::gang`] runs jobs that wait on one another
//!   (the members of one split bootstrap) at once, one per thread, or
//!   reports that it cannot place them rather than run them inline.
//!
//! Runs are serialized: the pool executes one run at a time, which keeps
//! every worker's stealing scan bounded to the live run and makes lane
//! indices meaningful to callers (scratch buffers are keyed by lane: a
//! lane runs one task at a time).

use crate::error::ExecError;
use pytfhe_telemetry as telemetry;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// One unit of work: receives the index of the lane executing it.
///
/// The `'env` lifetime lets tasks borrow from the submitting stack frame
/// ([`WorkerPool::run`] does not return until every task has finished,
/// exactly like [`std::thread::scope`]).
pub type Job<'env> = Box<dyn FnOnce(usize) + Send + 'env>;

/// The body of a run over numbered tasks: `body(lane, task)` runs task
/// `task` on lane `lane` ([`WorkerPool::run_each`]).
pub(crate) type Body<'env> = dyn Fn(usize, usize) + Sync + 'env;

/// State of the single in-flight run, shared with every worker.
struct RunState {
    /// The run's body, its `'env` lifetime erased ([`WorkerPool::run_each`]).
    body: &'static Body<'static>,
    /// One queue per lane (lane 0 is the submitting thread's): position
    /// `k` of lane `l` is task `l + k * lanes`, tasks being dealt round-robin.
    queues: Vec<Mutex<Range<usize>>>,
    /// Tasks not yet finished executing.
    remaining: AtomicUsize,
    /// Tasks popped from a foreign lane's deque.
    steals: AtomicU64,
    /// Whether any task panicked.
    panicked: AtomicBool,
    /// Completion latch: flipped by the worker that retires the last
    /// task.
    done: Mutex<bool>,
    done_cv: Condvar,
    lanes: usize,
}

impl RunState {
    /// Works the run from `lane`: drain the own deque LIFO, then steal
    /// FIFO from the other lanes, returning once every deque is empty
    /// (queued work can only shrink — tasks never enqueue more tasks).
    fn work(&self, lane: usize) {
        let pop = |owner: usize, back: bool| {
            let mut queue = self.queues[owner].lock().expect("pool queue poisoned");
            let k = if back { queue.next_back() } else { queue.next() };
            k.map(|k| owner + k * self.lanes)
        };
        loop {
            let mut task = pop(lane, true);
            if task.is_none() {
                task = (1..self.lanes).find_map(|offset| pop((lane + offset) % self.lanes, false));
                if task.is_some() {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                }
            }
            let Some(task) = task else { return };
            if catch_unwind(AssertUnwindSafe(|| (self.body)(lane, task))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().expect("pool latch poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Blocks until the last task retires.
    fn wait(&self) {
        let mut done = self.done.lock().expect("pool latch poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("pool latch poisoned");
        }
    }
}

/// Wake-up channel between the pool and its parked workers.
struct Ctrl {
    /// Bumped on every new run (and on shutdown) so sleeping workers
    /// can tell a fresh wake-up from a spurious one.
    epoch: u64,
    /// The in-flight run, if any.
    run: Option<Arc<RunState>>,
    shutdown: bool,
}

struct Shared {
    ctrl: Mutex<Ctrl>,
    work_cv: Condvar,
}

thread_local! {
    /// Set while this thread is executing pool tasks, so a nested
    /// [`WorkerPool::run`] from inside a task runs inline instead of
    /// deadlocking on the run lock.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The work-stealing pool. See the module docs for the design.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes runs; held for the whole duration of [`WorkerPool::run`].
    run_lock: Mutex<()>,
    /// Worker threads spawned so far (worker `i` services lane `i + 1`).
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Default lane count for callers that don't request an explicit
    /// width.
    width: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width)
            .field("spawned", &self.workers.lock().map(|w| w.len()).unwrap_or(0))
            .finish()
    }
}

/// Hard ceiling on lanes per run: a backstop against pathological
/// requests, far above any real worker count.
const MAX_LANES: usize = 256;

impl WorkerPool {
    /// A pool whose default width is `width` lanes (clamped to at least
    /// 1). Workers are spawned lazily on first use.
    pub fn new(width: usize) -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                ctrl: Mutex::new(Ctrl { epoch: 0, run: None, shutdown: false }),
                work_cv: Condvar::new(),
            }),
            run_lock: Mutex::new(()),
            workers: Mutex::new(Vec::new()),
            width: width.clamp(1, MAX_LANES),
        }
    }

    /// The process-wide pool. Width comes from `PYTFHE_WORKERS` when set
    /// (and parseable), else from the machine's available parallelism.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(pytfhe_tfhe::lanes::default_width()))
    }

    /// The pool's default lane count (the width explicit-`workers`
    /// callers should clamp their scratch sizing to).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs `jobs` to completion across up to `lanes` lanes (clamped to
    /// `[1, jobs.len()]`), distributing them round-robin and stealing
    /// across lanes. The calling thread participates as lane 0. Blocks
    /// until every job has finished, so jobs may borrow from the caller's
    /// stack. A job's box is freed on the lane that ran it, so the
    /// crate's wave dispatcher submits numbered tasks instead.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WorkerPanicked`] if any job panicked (all
    /// jobs still run to completion first). Otherwise returns the run's
    /// steals: jobs executed by a lane other than the one they were
    /// queued on.
    pub fn run<'env>(&self, lanes: usize, jobs: Vec<Job<'env>>) -> Result<u64, ExecError> {
        let jobs: Vec<Mutex<Option<Job<'env>>>> =
            jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        self.run_each(lanes, jobs.len(), &|lane, task| {
            let job = jobs[task].lock().expect("pool job poisoned").take();
            job.expect("a task runs once")(lane);
        })
    }

    /// Runs `body(lane, task)` for every task in `0..tasks` as
    /// [`WorkerPool::run`] runs jobs, but with no box per task: a worker
    /// that freed what the caller allocated would keep it in its own
    /// allocator cache, so the caller's resident memory would depend on
    /// which lane ran which task. The run itself is freed by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WorkerPanicked`] if any task panicked (all
    /// tasks still run to completion first). Otherwise returns the run's
    /// steals, as [`WorkerPool::run`].
    pub(crate) fn run_each(
        &self,
        lanes: usize,
        tasks: usize,
        body: &Body<'_>,
    ) -> Result<u64, ExecError> {
        if tasks == 0 {
            return Ok(0);
        }
        let lanes = lanes.clamp(1, MAX_LANES).min(tasks);
        // Nested submission from inside a pool task, or a trivial
        // single-lane run: execute inline on this thread.
        if lanes == 1 || IN_POOL.with(Cell::get) {
            let mut panicked = false;
            for task in 0..tasks {
                panicked |= catch_unwind(AssertUnwindSafe(|| body(0, task))).is_err();
            }
            if panicked {
                return Err(ExecError::WorkerPanicked);
            }
            return Ok(0);
        }

        let _serial = self.run_lock.lock().expect("pool run lock poisoned");
        self.ensure_workers(lanes);

        // SAFETY: erases the `'env` lifetime, nothing else (same type,
        // same layout). Sound for the same reason `std::thread::scope`
        // is: this function does not return until `remaining` reaches
        // zero, so no task outlives the body's borrows.
        let body = unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };

        let run = Arc::new(RunState {
            body,
            queues: (0..lanes).map(|lane| Mutex::new(0..(tasks - lane).div_ceil(lanes))).collect(),
            remaining: AtomicUsize::new(tasks),
            steals: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            lanes,
        });
        {
            let mut ctrl = self.shared.ctrl.lock().expect("pool ctrl poisoned");
            ctrl.epoch += 1;
            ctrl.run = Some(Arc::clone(&run));
        }
        self.shared.work_cv.notify_all();

        IN_POOL.with(|f| f.set(true));
        run.work(0);
        IN_POOL.with(|f| f.set(false));
        run.wait();

        // Detach the run before releasing the run lock so late-waking
        // workers find nothing to join; wait for those that joined to let go.
        self.shared.ctrl.lock().expect("pool ctrl poisoned").run = None;
        while Arc::strong_count(&run) > 1 {
            std::thread::yield_now();
        }

        let steals = run.steals.load(Ordering::Relaxed);
        if telemetry::enabled() {
            let m = telemetry::metrics();
            m.counter_add("pool_runs_total", 1);
            m.counter_add("pool_tasks_total", tasks as u64);
            m.counter_add("pool_steals_total", steals);
            m.observe("pool_run_tasks", tasks as f64, &[1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]);
        }
        if run.panicked.load(Ordering::Relaxed) {
            return Err(ExecError::WorkerPanicked);
        }
        Ok(steals)
    }

    /// Runs `jobs` at once, each on a thread of its own — a *gang*,
    /// whose members may wait on one another. The calling thread is one
    /// of them, and the pool grows to `jobs.len()` lanes if it must. Each
    /// lane queues one job and runs one job at a time, and a member does
    /// not finish before its partners have started (unless one of them
    /// fails), so no lane takes two. Returns `None`, running nothing,
    /// when it cannot place them: fewer than two jobs, or a call from
    /// inside a pool task, whose nested runs are inline.
    ///
    /// The pool does not make a partner arrive: a member whose partner
    /// panics must stop waiting by itself.
    ///
    /// # Errors
    ///
    /// As [`WorkerPool::run`].
    pub fn gang<'env>(&self, jobs: Vec<Job<'env>>) -> Option<Result<u64, ExecError>> {
        if jobs.len() < 2 || IN_POOL.with(Cell::get) {
            return None;
        }
        Some(self.run(jobs.len(), jobs))
    }

    /// Spawns parked workers until lanes `1..lanes` all have a thread.
    fn ensure_workers(&self, lanes: usize) {
        let mut workers = self.workers.lock().expect("pool workers poisoned");
        while workers.len() + 1 < lanes {
            let lane = workers.len() + 1;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("pytfhe-pool-{lane}"))
                .spawn(move || worker_loop(&shared, lane))
                .expect("spawn pool worker");
            workers.push(handle);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut ctrl = self.shared.ctrl.lock().expect("pool ctrl poisoned");
            ctrl.shutdown = true;
            ctrl.epoch += 1;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.lock().expect("pool workers poisoned").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A parked worker: sleeps until a run with a wider lane set than its
/// index appears, works it, then parks again.
fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let run = {
            let mut ctrl = shared.ctrl.lock().expect("pool ctrl poisoned");
            loop {
                if ctrl.shutdown {
                    return;
                }
                if ctrl.epoch != seen_epoch {
                    seen_epoch = ctrl.epoch;
                    if let Some(run) = ctrl.run.as_ref().filter(|r| lane < r.lanes) {
                        break Arc::clone(run);
                    }
                }
                ctrl = shared.work_cv.wait(ctrl).expect("pool ctrl poisoned");
            }
        };
        IN_POOL.with(|f| f.set(true));
        run.work(lane);
        IN_POOL.with(|f| f.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU32::new(0);
        let jobs: Vec<Job> = (0..57)
            .map(|_| {
                Box::new(|lane: usize| {
                    assert!(lane < 4, "a run keeps to the lanes it asked for");
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        pool.run(4, jobs).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn tasks_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(2);
        let mut outs = vec![0u64; 8];
        let jobs: Vec<Job> = outs
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move |_lane: usize| {
                    *slot = (i as u64 + 1) * 10;
                }) as Job
            })
            .collect();
        pool.run(2, jobs).unwrap();
        assert_eq!(outs, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn a_stalled_lane_gets_its_queue_stolen() {
        // Lane 0 (the caller) starts with a slow task; the other lanes
        // must drain the rest of lane 0's queue while it sleeps.
        let pool = WorkerPool::new(4);
        let done = AtomicU32::new(0);
        let jobs: Vec<Job> = (0..16)
            .map(|i| {
                let done = &done;
                Box::new(move |_lane: usize| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(40));
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        let start = std::time::Instant::now();
        pool.run(4, jobs).unwrap();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        // The 15 cheap tasks must not have queued behind the sleeper
        // for another 40ms each; generous bound for loaded machines.
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn panicking_task_reports_worker_panicked_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                Box::new(move |_lane: usize| {
                    if i == 2 {
                        panic!("injected");
                    }
                }) as Job
            })
            .collect();
        assert!(matches!(pool.run(2, jobs), Err(ExecError::WorkerPanicked)));
        // The pool keeps working after a panic.
        let ok: Vec<Job> = vec![Box::new(|_| {})];
        assert!(pool.run(2, ok).is_ok());
    }

    #[test]
    fn nested_run_from_inside_a_task_executes_inline() {
        let pool = WorkerPool::new(2);
        let inner_hits = AtomicU32::new(0);
        let jobs: Vec<Job> = (0..2)
            .map(|_| {
                let inner_hits = &inner_hits;
                Box::new(move |_lane: usize| {
                    let inner: Vec<Job> = (0..3)
                        .map(|_| {
                            Box::new(move |_l: usize| {
                                inner_hits.fetch_add(1, Ordering::Relaxed);
                            }) as Job
                        })
                        .collect();
                    WorkerPool::global().run(2, inner).unwrap();
                }) as Job
            })
            .collect();
        pool.run(2, jobs).unwrap();
        assert_eq!(inner_hits.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn single_lane_runs_inline_without_threads() {
        let pool = WorkerPool::new(1);
        let main_thread = std::thread::current().id();
        let jobs: Vec<Job> = (0..5)
            .map(|_| {
                Box::new(move |lane: usize| {
                    assert_eq!(lane, 0);
                    assert_eq!(std::thread::current().id(), main_thread);
                }) as Job
            })
            .collect();
        assert_eq!(pool.run(1, jobs).unwrap(), 0, "one lane steals nothing");
    }

    #[test]
    fn explicit_requests_grow_past_the_default_width() {
        let pool = WorkerPool::new(1);
        let lanes_seen = Mutex::new(std::collections::HashSet::new());
        let jobs: Vec<Job> = (0..32)
            .map(|_| {
                let lanes_seen = &lanes_seen;
                Box::new(move |lane: usize| {
                    lanes_seen.lock().unwrap().insert(lane);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }) as Job
            })
            .collect();
        pool.run(4, jobs).unwrap();
        assert_eq!(pool.workers.lock().unwrap().len(), 3, "explicit width must be honored");
        assert!(!lanes_seen.lock().unwrap().is_empty());
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.run(4, Vec::new()).unwrap(), 0);
        assert!(pool.workers.lock().unwrap().is_empty(), "nothing to run spawns no worker");
    }

    /// `members` jobs that each record their thread and wait until all
    /// have started: they finish only if the gang placed every one. A
    /// placed gang reports the distinct threads its members ran on and
    /// its steals.
    fn rendezvous(pool: &WorkerPool, members: usize) -> Option<Result<(usize, u64), ExecError>> {
        let (started, threads) = (AtomicUsize::new(0), Mutex::new(HashSet::new()));
        let job = |_| {
            threads.lock().unwrap().insert(std::thread::current().id());
            started.fetch_add(1, Ordering::AcqRel);
            let deadline = Instant::now() + Duration::from_secs(20);
            while started.load(Ordering::Acquire) < members {
                assert!(Instant::now() < deadline, "a member was never placed");
                std::thread::yield_now();
            }
        };
        let ran = pool.gang((0..members).map(|_| Box::new(job) as Job).collect());
        ran.map(|steals| steals.map(|steals| (threads.into_inner().unwrap().len(), steals)))
    }

    #[test]
    fn gang_members_run_at_once_on_distinct_threads() {
        let pool = WorkerPool::new(1);
        for members in [2, 3, 2] {
            let ran = rendezvous(&pool, members).expect("placed").expect("no panic");
            assert_eq!(ran, (members, 0), "one thread per member, and no lane takes two");
        }
    }

    #[test]
    fn a_gang_of_one_or_inside_a_pool_task_is_refused_unrun() {
        let pool = WorkerPool::new(2);
        assert!(rendezvous(&pool, 1).is_none());
        let nested = || assert!(rendezvous(&pool, 2).is_none());
        pool.run(2, vec![Box::new(|_| nested()), Box::new(|_| nested())]).unwrap();
    }

    #[test]
    fn a_panicking_member_fails_the_gang_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Job> = vec![Box::new(|_| panic!("injected")), Box::new(|_| {})];
        assert!(matches!(pool.gang(jobs), Some(Err(ExecError::WorkerPanicked))));
        assert_eq!(rendezvous(&pool, 2).expect("placed").expect("no panic"), (2, 0));
    }
}
