//! The one scheduler: a bounded, lazily-grown pool of reusable worker
//! threads running queued tasks. Every thread that does work on behalf of
//! a query — query evaluation, parallel loops' chunks, driver requests,
//! row prefetch refills — is a worker of an [`Executor`]; nothing else in
//! `kleisli-core` spawns a thread.
//!
//! # One scheduler, two kinds of instance
//!
//! Queued work is *data* in a deque, never a parked stack: a burst of
//! queries, of parallel loops' elements or of driver submissions costs
//! deque slots, and at most [`Executor::limit`] threads — spawned on demand,
//! kept parked and reused — ever exist to run them. The instances differ
//! only in width and in what their tasks wait on:
//!
//! * [`Executor::shared`] — one per process, oversubscribing the cores,
//!   for compute tasks (a session's query worker, the server's admitted
//!   queries, parallel loops' bodies) that spend their time blocked *on
//!   drivers*.
//! * one **private** executor per remote driver, owned by its
//!   [`crate::pool::WorkerPool`], of exactly the source's
//!   [`crate::driver::Capabilities::concurrency_limit`] — the width *is*
//!   the source's admission budget — whose tasks sleep *on the wire*.
//!   Driver work never runs on the shared instance: a slow source would
//!   otherwise pin the workers every session's queries need.
//!
//! The pool is the request-shaped client of this module (tickets,
//! orphans, row prefetch) and borrows two facilities nobody else needs:
//! [`Executor::disown`] — a waiter gave up on the task a worker is
//! running, so the worker is written off and replaced — and an explicit
//! [`Executor::shutdown`], because a pool's queued tasks hold their own
//! executor alive and so cannot wait for its `Drop`.
//!
//! # Two submission shapes
//!
//! * [`Executor::spawn`] — fire-and-forget: the task owns everything it
//!   needs and reports through its own channel, if at all (the server's
//!   admitted query, a driver pool's row refill).
//! * An [`Awaited`] task — one its spawner waits for, and **helps**
//!   with: the work sits in a claim slot that exactly one party empties
//!   — a worker, which runs it; the waiter, which runs it inline; or a
//!   cancel, which drops it unrun — and its result lands in a
//!   [`OneShot`]. [`Executor::spawn_awaited`] queues one: a session's
//!   query, which its `QueryHandle` waits for. From one of the
//!   executor's own workers — the server's admitted query — it wakes
//!   nobody, so the query evaluates on its own task instead of racing a
//!   woken worker for it. [`Executor::run_all`] — a parallel loop's
//!   chunk, whose results the caller needs now, in order — spawns each
//!   task but the first, runs the first, then every task no worker has
//!   claimed, and then reads the results in order.
//!
//! # The no-deadlock invariant
//!
//! Caller-help is what makes a *bounded shared* pool safe for *nested*
//! parallelism. A parallel loop's body may contain another; a query
//! task running on an executor worker runs chunks on the same executor.
//! If an awaited task could only run on a pool worker, a pool saturated
//! with blocked parents would deadlock waiting for children that never
//! get a thread. Instead a waiter runs every awaited task no worker has
//! claimed itself, and then waits only for tasks a worker has already
//! taken (and will finish). Progress therefore never depends on pool
//! capacity: with zero free workers a chunk simply runs sequentially on
//! the caller, which is the correct degraded behavior (and exactly what
//! a `PAR[1]` loop means).
//!
//! # Observability
//!
//! [`Executor::threads_spawned`] is the monotone count of workers ever
//! created, bounded by [`Executor::limit`] plus the workers ever
//! [disowned](Executor::disown); tests assert it stays flat across
//! request-proportional workloads. The shared instance's limit defaults
//! to a multiple of the machine's parallelism (compute tasks here spend
//! most of their time *blocked on drivers*, so oversubscription is the
//! point), clamped to a floor that keeps small containers honest.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::oneshot::{OneShot, PromiseState};
use std::thread;

thread_local! {
    /// The core whose worker this thread is (null on any other thread);
    /// compared, never dereferenced.
    static WORKER_OF: Cell<*const ExecCore> = const { Cell::new(std::ptr::null()) };
}

/// A queued task. It returns whether a waiter [disowned](Executor::disown)
/// it while it ran — in which case its worker has been replaced already
/// and retires.
type Task = Box<dyn FnOnce() -> bool + Send>;

struct ExecState {
    queue: VecDeque<Task>,
    /// Workers parked in the condvar waiting for work.
    idle: usize,
    /// Workers currently running a task.
    busy: usize,
    /// Worker threads currently alive.
    live: usize,
    /// Disowned workers still inside the task a waiter gave up on. They
    /// are outside `busy`/`live` (a replacement may be running) and
    /// bounded by [`Executor::disown_budget`].
    disowned: usize,
    shutdown: bool,
}

/// The worker-shared half of an executor. Workers hold this core alive
/// while the public [`Executor`] is only a *handle* over it, so the
/// handle's `Drop` actually runs when the last user reference goes away,
/// even with workers parked in the condvar.
struct ExecCore {
    name: String,
    state: Mutex<ExecState>,
    cv: Condvar,
    limit: usize,
    /// Total worker threads ever created (monotonic) — the observable
    /// for "no thread growth proportional to submitted work".
    threads_spawned: AtomicUsize,
}

/// A bounded, lazily-grown pool of compute workers shared by the
/// session layer (query evaluation) and the streaming executor
/// (parallel loops' chunk evaluation). See the module docs for the design.
///
/// Dropping the last handle shuts the pool down: workers exit as they
/// go idle, and tasks still queued at that moment run *inline on the
/// dropping thread* — degraded to blocking rather than silently
/// discarded, so a queued query worker's promise always resolves.
pub struct Executor {
    core: Arc<ExecCore>,
}

impl Executor {
    /// An executor running at most `limit` concurrent tasks (`0` is
    /// normalized to `1`). Workers are spawned lazily as demand grows —
    /// a fresh executor holds no threads until work arrives — and are
    /// then kept parked and reused for the executor's lifetime (they
    /// exit at shutdown, not on idleness: re-paying thread creation on
    /// every traffic burst is the cost this pool exists to avoid).
    pub fn new(name: impl Into<String>, limit: usize) -> Arc<Executor> {
        Arc::new(Executor {
            core: Arc::new(ExecCore {
                name: name.into(),
                state: Mutex::new(ExecState {
                    queue: VecDeque::new(),
                    idle: 0,
                    busy: 0,
                    live: 0,
                    disowned: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
                limit: limit.max(1),
                threads_spawned: AtomicUsize::new(0),
            }),
        })
    }

    /// The process-wide shared executor every session uses unless given
    /// a private one (sized by [`Executor::default_limit`]). Created on
    /// first use and never shut down.
    pub fn shared() -> Arc<Executor> {
        static SHARED: OnceLock<Arc<Executor>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Executor::new("kleisli-exec", Executor::default_limit())))
    }

    /// The default worker bound for [`Executor::shared`]: `4 x` the
    /// machine's available parallelism, floored at 32. Compute tasks
    /// here overlap *driver latency* (they sleep on remote round-trips
    /// far more than they burn CPU), so the right bound oversubscribes
    /// the cores; the floor keeps narrow containers from serializing
    /// concurrent sessions.
    pub fn default_limit() -> usize {
        let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        (cores * 4).max(32)
    }

    /// Maximum concurrent tasks (== maximum worker threads, not counting
    /// [disowned](Executor::disown) ones).
    pub fn limit(&self) -> usize {
        self.core.limit
    }

    /// Total worker threads created over the executor's lifetime.
    /// Bounded by [`Executor::limit`] plus one per disowned worker;
    /// sequential traffic reuses one worker, so this does not grow with
    /// task count.
    pub fn threads_spawned(&self) -> usize {
        self.core.threads_spawned.load(Ordering::SeqCst)
    }

    /// Workers running a task right now. Tasks still queued as data
    /// hold no worker and do not count — which is what lets a caller
    /// prove that work it is holding back occupies nothing here.
    pub fn busy(&self) -> usize {
        self.core.lock_state().busy
    }

    /// Submit a fire-and-forget task. It queues as data until a worker
    /// picks it up; a panic inside the task is caught and discarded
    /// (tasks that must report failure do so through their own promise,
    /// as the session query worker does). On a shut-down executor the
    /// task runs inline on the caller — degraded to blocking rather
    /// than silently dropped, so promises always resolve.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.spawn_disownable(move || {
            task();
            false
        });
    }

    /// Queue `work` as an [`Awaited`] task: its spawner is about to wait
    /// for it, and will run it itself if no worker has taken it yet.
    /// Called from one of this executor's own workers it wakes no other
    /// worker: a woken one could only race the spawner for the task and,
    /// winning, leave the spawner waiting on a second thread. Should the
    /// spawning task return without waiting, its worker takes the task
    /// from the queue next. From any other thread a worker is woken as by
    /// [`Executor::spawn`].
    pub fn spawn_awaited<T: Send + 'static>(
        &self,
        work: impl FnOnce() -> T + Send + 'static,
    ) -> Arc<Awaited<T>> {
        let own_worker = WORKER_OF.with(|core| core.get() == Arc::as_ptr(&self.core));
        self.queue_awaited(work, !own_worker)
    }

    /// Queue `work` as an [`Awaited`] task, waking a worker for it if
    /// `wake`.
    fn queue_awaited<T: Send + 'static>(
        &self,
        work: impl FnOnce() -> T + Send + 'static,
        wake: bool,
    ) -> Arc<Awaited<T>> {
        let task = Arc::new(Awaited::new(work));
        let run = Arc::clone(&task);
        self.queue(
            Box::new(move || {
                run.run();
                false
            }),
            wake,
        );
        task
    }

    /// [`Executor::spawn`] for a task a waiter may [`Executor::disown`]
    /// while it runs. The task returns whether that happened to it —
    /// only the task can tell, through whatever its client stole from
    /// it — and `true` retires the worker without touching the counts
    /// `disown` already settled.
    pub fn spawn_disownable(&self, task: impl FnOnce() -> bool + Send + 'static) {
        self.queue(Box::new(task), true);
    }

    /// Queue `task`, waking a worker for it if `wake`; on a shut-down
    /// executor it runs inline instead.
    fn queue(&self, task: Task, wake: bool) {
        let mut st = self.core.lock_state();
        if st.shutdown {
            drop(st);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            return;
        }
        st.queue.push_back(task);
        if wake {
            self.core.ensure_worker(&mut st);
        }
    }

    /// A waiter gave up on the task one of this executor's workers is
    /// running (the caller vouches that it is running, and that it will
    /// return `true` if it ever returns): the worker leaves `busy` /
    /// `live`, counts as [disowned](Executor::disowned) until then, and
    /// a replacement is spawned if work is queued, so the width is whole
    /// again without anyone blocking on a wedged thread. `release` runs
    /// once the disowning is certain and before the replacement can
    /// start: whatever the waiter takes back from the wedged task (its
    /// admission ticket) is free by the time a successor asks for it.
    ///
    /// Declines — `false`, `release` not run — on a shut-down executor
    /// and when [`Executor::disown_budget`] workers are wedged already:
    /// the width then shrinks for as long as the wedge lasts instead of
    /// the executor growing a thread herd against a dead source.
    pub fn disown(&self, release: impl FnOnce()) -> bool {
        let mut st = self.core.lock_state();
        if st.shutdown || st.disowned >= self.disown_budget() {
            return false;
        }
        release();
        st.disowned += 1;
        st.busy -= 1;
        st.live -= 1;
        self.core.ensure_worker(&mut st);
        true
    }

    /// Disowned workers still wedged in their task right now; falls back
    /// to zero as the tasks return.
    pub fn disowned(&self) -> usize {
        self.core.lock_state().disowned
    }

    /// The most disowned-but-wedged workers tolerated at once,
    /// `2 * limit + 2`: every running task can be given up on twice over
    /// before [`Executor::disown`] starts declining.
    pub fn disown_budget(&self) -> usize {
        2 * self.core.limit + 2
    }

    /// Stop now, without waiting for the last handle to drop: workers
    /// exit as they go idle and tasks still queued run *inline on the
    /// calling thread* (as does anything spawned afterwards). A client
    /// whose queued tasks hold their own executor alive calls this from
    /// its `Drop`, and has those tasks consult
    /// [`Executor::is_shut_down`] so they resolve their promises without
    /// doing their work on the dropping thread. Idempotent.
    pub fn shutdown(&self) {
        let queued: Vec<Task> = {
            let mut st = self.core.lock_state();
            st.shutdown = true;
            st.queue.drain(..).collect()
        };
        self.core.cv.notify_all();
        for task in queued {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        }
    }

    /// Whether [`Executor::shutdown`] has run.
    pub fn is_shut_down(&self) -> bool {
        self.core.lock_state().shutdown
    }

    /// Run a batch of tasks with the caller helping (see the module
    /// docs), returning each task's result in submission order —
    /// `None` for a task that panicked. Concurrency is bounded by
    /// `min(tasks, executor workers + 1)`; the call never deadlocks
    /// even when every worker is busy or the batch nests inside
    /// another batch, because the caller runs every task no worker has
    /// claimed before it waits.
    pub fn run_all<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send>>,
    ) -> Vec<Option<T>> {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else {
            return Vec::new();
        };
        // The caller is one of the hands: it runs the first task, and one
        // worker is woken for each of the others.
        let rest: Vec<_> = tasks.map(|work| self.queue_awaited(work, true)).collect();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(first)).ok();
        for task in &rest {
            task.run();
        }
        std::iter::once(first).chain(rest.iter().map(|task| task.wait())).collect()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Queued tasks must not be silently discarded: a queued awaited
        // task resolves a OneShot someone may be blocked on, so
        // `shutdown` runs them inline here — the equivalent of `spawn`'s
        // inline fallback. (An awaited task its waiter ran already is a
        // no-op by now.)
        self.shutdown();
    }
}

impl ExecCore {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Make sure a worker will pick up freshly queued work: wake an idle
    /// one, and — when demand genuinely exceeds the live workers — spawn
    /// a new thread while under the limit. The two checks are
    /// independent: a burst of submissions can outnumber the idle
    /// workers before any of them wakes, and waking without spawning
    /// would serialize the burst. A worker that has just finished a task
    /// re-checks the queue before parking, so sequential traffic (demand
    /// never exceeding the live workers) reuses one worker instead of
    /// growing the pool.
    fn ensure_worker(self: &Arc<Self>, st: &mut ExecState) {
        if st.idle > 0 {
            self.cv.notify_one();
        }
        if st.live < self.limit && st.queue.len() + st.busy > st.live {
            st.live += 1;
            self.threads_spawned.fetch_add(1, Ordering::SeqCst);
            let core = Arc::clone(self);
            thread::Builder::new()
                .name(format!("{}-worker", self.name))
                .spawn(move || ExecCore::worker_loop(core))
                .expect("spawn executor worker");
        }
    }

    fn worker_loop(core: Arc<ExecCore>) {
        WORKER_OF.with(|worker_of| worker_of.set(Arc::as_ptr(&core)));
        let mut just_finished = false;
        loop {
            let task = {
                let mut st = core.lock_state();
                if just_finished {
                    st.busy -= 1;
                }
                loop {
                    if let Some(t) = st.queue.pop_front() {
                        st.busy += 1;
                        break t;
                    }
                    if st.shutdown {
                        st.live -= 1;
                        return;
                    }
                    st.idle += 1;
                    st = core.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.idle -= 1;
                }
            };
            // A panicking task must not kill the worker (its live/busy
            // accounting would leak and shrink the pool forever).
            let disowned =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).unwrap_or(false);
            if disowned {
                // `disown` already moved this worker's share of
                // busy/live to its replacement.
                core.lock_state().disowned -= 1;
                return;
            }
            just_finished = true;
        }
    }
}

/// A task its spawner waits for (module docs, "Two submission shapes"):
/// the work sits in a claim slot that exactly one party empties — a
/// worker, which runs it; the waiter, which runs it inline
/// ([`Awaited::wait`]); or a cancel, which drops it unrun
/// ([`Awaited::cancel`]) — and its result lands in a [`OneShot`].
pub struct Awaited<T> {
    work: Mutex<Option<Box<dyn FnOnce() -> T + Send>>>,
    /// The result; `None` if the work panicked.
    done: OneShot<Option<T>>,
}

impl<T> Awaited<T> {
    fn new(work: impl FnOnce() -> T + Send + 'static) -> Awaited<T> {
        Awaited {
            work: Mutex::new(Some(Box::new(work))),
            done: OneShot::new(),
        }
    }

    /// A task whose result is known already: there is nothing to run.
    pub fn ready(value: T) -> Awaited<T> {
        Awaited {
            work: Mutex::new(None),
            done: OneShot::ready(Some(value)),
        }
    }

    fn claim(&self) -> Option<Box<dyn FnOnce() -> T + Send>> {
        self.work.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Run the work unless another party has claimed it. A panic still
    /// resolves the task: someone may be waiting.
    fn run(&self) {
        if let Some(work) = self.claim() {
            self.done.set(std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).ok());
        }
    }

    /// Block until the result exists and take it — running the work
    /// right here if no worker has taken it yet. `None` if the work
    /// panicked or the result was taken already.
    pub fn wait(&self) -> Option<T> {
        self.run();
        self.done.wait().flatten()
    }

    /// Where the result is, without blocking.
    pub fn poll(&self) -> PromiseState {
        self.done.poll()
    }

    /// Take the result if it exists; `None` while pending, and as
    /// [`Awaited::wait`].
    pub fn try_wait(&self) -> Option<T> {
        self.done.try_wait().flatten()
    }

    /// Drop the work unrun, if no party has claimed it, and resolve the
    /// task with `value`; whether it did.
    pub fn cancel(&self, value: T) -> bool {
        let Some(work) = self.claim() else {
            return false;
        };
        drop(work);
        self.done.set(Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn boxed<T: Send + 'static>(
        fs: Vec<impl FnOnce() -> T + Send + 'static>,
    ) -> Vec<Box<dyn FnOnce() -> T + Send>> {
        fs.into_iter()
            .map(|f| Box::new(f) as Box<dyn FnOnce() -> T + Send>)
            .collect()
    }

    #[test]
    fn run_all_preserves_order_and_runs_everything() {
        let exec = Executor::new("t", 4);
        let results = exec.run_all(boxed((0..64).map(|i| move || i * 2).collect::<Vec<_>>()));
        assert_eq!(
            results.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            (0..64).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn worker_count_is_bounded_and_reused() {
        let exec = Executor::new("t", 3);
        for _ in 0..10 {
            let r = exec.run_all(boxed(
                (0..8)
                    .map(|i| {
                        move || {
                            thread::sleep(Duration::from_millis(1));
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            ));
            assert_eq!(r.len(), 8);
        }
        assert!(
            exec.threads_spawned() <= 3,
            "{} workers for a limit of 3",
            exec.threads_spawned()
        );
    }

    #[test]
    fn caller_helps_so_a_saturated_pool_cannot_deadlock() {
        // Limit 1, and the one worker is blocked for the whole test:
        // run_all must still complete on the caller's thread.
        let exec = Executor::new("t", 1);
        let release = Arc::new(AtomicU64::new(0));
        {
            let release = Arc::clone(&release);
            exec.spawn(move || {
                while release.load(Ordering::SeqCst) == 0 {
                    thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let results = exec.run_all(boxed((0..5).map(|i| move || i + 100).collect::<Vec<_>>()));
        assert_eq!(
            results.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            vec![100, 101, 102, 103, 104]
        );
        release.store(1, Ordering::SeqCst);
    }

    #[test]
    fn nested_batches_complete_within_the_limit() {
        // Every outer item submits an inner batch to the same limit-2
        // executor; caller-help keeps the nesting live.
        let exec = Executor::new("t", 2);
        let e2 = Arc::clone(&exec);
        let outer = exec.run_all(boxed(
            (0..4)
                .map(|i| {
                    let exec = Arc::clone(&e2);
                    move || {
                        let inner = exec.run_all(boxed(
                            (0..3).map(|j| move || i * 10 + j).collect::<Vec<_>>(),
                        ));
                        inner.into_iter().map(Option::unwrap).sum::<i32>()
                    }
                })
                .collect::<Vec<_>>(),
        ));
        let sums: Vec<i32> = outer.into_iter().map(Option::unwrap).collect();
        assert_eq!(sums, vec![3, 33, 63, 93]);
        assert!(exec.threads_spawned() <= 2);
    }

    #[test]
    fn a_panicking_task_yields_none_and_the_worker_survives() {
        let exec = Executor::new("t", 1);
        let results = exec.run_all(boxed(
            (0..3)
                .map(|i| {
                    move || {
                        if i == 1 {
                            panic!("task bug");
                        }
                        i
                    }
                })
                .collect::<Vec<_>>(),
        ));
        assert_eq!(results, vec![Some(0), None, Some(2)]);
        // The pool still serves work afterwards.
        let r = exec.run_all(boxed(vec![|| 7, || 8]));
        assert_eq!(r, vec![Some(7), Some(8)]);
        assert!(exec.threads_spawned() <= 1);
    }

    #[test]
    fn dropping_the_executor_runs_queued_tasks_and_stops_the_workers() {
        // The one worker is pinned in a long task; a second task sits
        // queued as data. Dropping the last handle must (a) run the
        // queued task inline so its (conceptual) promise resolves, and
        // (b) let the worker exit once it goes idle — the core is
        // released, proving no thread or state leaks.
        let exec = Executor::new("t", 1);
        let release = Arc::new(AtomicU64::new(0));
        {
            let release = Arc::clone(&release);
            exec.spawn(move || {
                while release.load(Ordering::SeqCst) == 0 {
                    thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // Wait until the worker is busy so the next task stays queued.
        let t0 = std::time::Instant::now();
        while exec.core.lock_state().busy == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
        let ran = Arc::new(AtomicU64::new(0));
        {
            let ran = Arc::clone(&ran);
            exec.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        let weak = Arc::downgrade(&exec.core);
        drop(exec);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "a task queued at drop time must run inline, not vanish"
        );
        // Release the pinned worker: it finds the queue empty and the
        // pool shut down, exits, and drops the last core reference.
        release.store(1, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        while weak.upgrade().is_some() {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "worker (and the executor core) leaked after drop"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Pin one worker of `exec` in a task that spins until `release` is
    /// set and then reports `disowned`; returns once the worker is busy.
    fn pin_a_worker(exec: &Executor, release: &Arc<AtomicU64>, disowned: bool) {
        let release = Arc::clone(release);
        exec.spawn_disownable(move || {
            while release.load(Ordering::SeqCst) == 0 {
                thread::sleep(Duration::from_millis(1));
            }
            disowned
        });
        let t0 = std::time::Instant::now();
        while exec.busy() == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "worker never started");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_disowned_worker_is_replaced_and_retires_without_double_counting() {
        let exec = Executor::new("t", 1);
        assert_eq!(exec.disown_budget(), 4, "2 * limit + 2");
        let release = Arc::new(AtomicU64::new(0));
        pin_a_worker(&exec, &release, true);
        // Queued behind the wedged task on a width-1 executor: only a
        // replacement worker can run it.
        let released = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let released = Arc::clone(&released);
            exec.spawn(move || tx.send(released.load(Ordering::SeqCst)).expect("receiver alive"));
        }
        assert!(exec.disown(|| released.store(1, Ordering::SeqCst)));
        let seen = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the replacement ran the queued task past the wedged worker");
        assert_eq!(seen, 1, "release ran before the replacement could start");
        assert_eq!((exec.disowned(), exec.threads_spawned()), (1, 2));
        // The wedged task returns: its worker retires, touching no count.
        release.store(1, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        while exec.disowned() != 0 || exec.busy() != 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "the disowned worker never retired");
            thread::sleep(Duration::from_millis(1));
        }
        // Exactly one live worker is left — the replacement: more work
        // neither spawns a third thread nor finds nobody to run it.
        assert_eq!(exec.run_all(boxed(vec![|| 7, || 8])), vec![Some(7), Some(8)]);
        let (tx, rx) = std::sync::mpsc::channel();
        exec.spawn(move || tx.send(()).expect("receiver alive"));
        rx.recv_timeout(Duration::from_secs(2)).expect("a live worker remains");
        assert_eq!(exec.threads_spawned(), 2);
        assert_eq!(exec.core.lock_state().live, 1);
    }

    #[test]
    fn explicit_shutdown_reaches_tasks_that_hold_their_executor() {
        let exec = Executor::new("t", 1);
        let release = Arc::new(AtomicU64::new(0));
        pin_a_worker(&exec, &release, false);
        // A queued task holding its own executor alive, as a driver
        // pool's tasks do: the handle's `Drop` could never reach it.
        let saw_shutdown = Arc::new(AtomicU64::new(0));
        {
            let own = Arc::clone(&exec);
            let saw_shutdown = Arc::clone(&saw_shutdown);
            exec.spawn(move || {
                saw_shutdown.store(1 + u64::from(own.is_shut_down()), Ordering::SeqCst);
            });
        }
        let weak = Arc::downgrade(&exec.core);
        exec.shutdown();
        assert_eq!(
            saw_shutdown.load(Ordering::SeqCst),
            2,
            "the queued task ran inline on the caller and saw the shutdown"
        );
        assert!(!exec.disown(|| unreachable!("declined")), "nothing to replace a worker with");
        // The task's clone died with the task, so this is the last
        // handle; the pinned worker finds the executor shut down when it
        // goes idle, exits, and drops the last core reference.
        drop(exec);
        release.store(1, Ordering::SeqCst);
        let t0 = std::time::Instant::now();
        while weak.upgrade().is_some() {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "worker (and the executor core) leaked after shutdown"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_task_awaited_by_a_worker_wakes_no_other_worker() {
        // `spawn` from inside a task would start a second worker here;
        // `spawn_awaited` leaves the task to the spawner's own worker,
        // which runs it once the spawning task returns.
        let exec = Executor::new("t", 4);
        let (tx, rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(&exec);
        exec.spawn(move || {
            inner.spawn_awaited(move || tx.send(()).expect("receiver"));
            assert_eq!(inner.core.lock_state().queue.len(), 1, "still queued");
        });
        rx.recv_timeout(Duration::from_secs(5)).expect("the awaited task ran");
        assert_eq!(exec.threads_spawned(), 1);
        // From a thread that is not one of its workers it is `spawn`.
        let (tx, rx) = std::sync::mpsc::channel();
        exec.spawn_awaited(move || tx.send(()).expect("receiver"));
        rx.recv_timeout(Duration::from_secs(5)).expect("a worker ran it");
    }

    #[test]
    fn spawn_after_shutdown_runs_inline() {
        // `spawn` on a core already marked shut down (reachable only
        // mid-teardown) must run the task inline rather than lose it.
        let exec = Executor::new("t", 1);
        exec.core.lock_state().shutdown = true;
        let hit = Arc::new(AtomicU64::new(0));
        {
            let hit = Arc::clone(&hit);
            exec.spawn(move || {
                hit.store(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hit.load(Ordering::SeqCst), 1, "inline fallback must run");
        exec.core.lock_state().shutdown = false; // let Drop run cleanly
    }

    #[test]
    fn shared_executor_is_one_instance() {
        let a = Executor::shared();
        let b = Executor::shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.limit() >= 32);
    }
}
