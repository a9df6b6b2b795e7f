//! The thread placement: a native work-stealing fiber runtime.
//!
//! This is the shared-memory degenerate case of the paper's runtime
//! (Section 2: "In shared memory environment, migrating a task in the
//! middle of its execution can be done simply by passing the address of
//! the stack"): workers are OS threads in one address space, every thread
//! (task) runs on its own pooled stack (the stack-pool strategy — the
//! same-stack Figure 4 layout is only sound across *separate* address
//! spaces, which is exactly the paper's observation), continuations are
//! [`Context`](crate::ctx::Context) records in the THE deques of
//! `uat-deque`, and a steal is a `resume_context` of somebody else's
//! saved parent.
//!
//! The scheduler itself — worker loop, trampolines, completion tail and
//! join protocol — is [`crate::sched`]'s; this module is its
//! `Placement` for threads (heap-owned deques and counter rows, a
//! [`StackPool`] per worker, the worker reached through TLS), the
//! closure API on top — [`Runtime::run`], [`spawn`] and
//! [`JoinHandle::join`] (Figure 2's `task<T>`/`join`) — and
//! [`NativeRunner`], which runs a `uat-model` `Workload` through the
//! scheduler's interpreter and reports the same unit accounting as the
//! simulator (the basis of the differential harness,
//! `tests/differential.rs`).

#[cfg(feature = "metrics")]
use crate::nmetrics::{MetricsShared, Timed};
#[cfg(feature = "trace")]
use crate::ntrace::TraceShared;
use crate::ntrace::WorkerTracer;
use crate::sched::{self, Env, JoinCell, NativeRunStats, Placement, Prog, Row, Task, Worker};
use crate::stack::{Stack, StackPool};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use uat_deque::{NativeDeque, RawDeque};
use uat_model::Workload;

/// Run-wide state of one thread run.
pub(crate) struct Shared {
    deques: Vec<NativeDeque<u64>>,
    /// Each worker's scheduler counters.
    counters: Vec<Row>,
    shutdown: AtomicBool,
    /// The metered tier's run-wide state (registry, histograms, flight
    /// rings); `None` = unmetered.
    #[cfg(feature = "metrics")]
    metrics: Option<Arc<MetricsShared>>,
    /// Watchdog-test sabotage: this worker never heartbeats.
    stalled: Option<usize>,
    /// The coordinator's join on the root task.
    root: JoinCell,
    /// Run-wide trace state; `None` = untraced (hooks early-out).
    #[cfg(feature = "trace")]
    trace: Option<Arc<TraceShared>>,
}

/// The thread placement's per-worker state.
pub(crate) struct Threads {
    shared: Arc<Shared>,
    pool: StackPool,
}

/// What a thread task owns: its pooled stack, plus (for closure tasks)
/// the join state its handle shares, kept until after the departure.
pub(crate) struct ThreadOwn {
    stack: Stack,
    keep: Option<Arc<dyn Send + Sync>>,
}

thread_local! {
    static CURRENT: Cell<*mut Worker<Threads>> = const { Cell::new(std::ptr::null_mut()) };
}

// `inline(never)` is load-bearing, not a perf tweak: fiber code looks up
// its worker on *both sides* of a context switch (e.g. before and after
// a task body that may suspend), and the resume can happen on a
// different OS thread. If both lookups inline into one function, LLVM
// treats the thread-local's address as invariant across the opaque
// switch and CSEs the accesses, handing the resumed code the *previous*
// thread's Worker — stacks then retire into the wrong pool and the next
// resume jumps into reused memory. Keeping the TLS access inside a
// never-inlined callee forces a fresh lookup on the executing thread.
#[inline(never)]
fn current() -> *mut Worker<Threads> {
    let w = CURRENT.with(|c| c.get());
    assert!(
        !w.is_null(),
        "fiber operation outside a uat-fiber worker thread"
    );
    w
}

/// The id (0-based, `< nworkers`) of the worker executing the calling
/// fiber *right now*.
///
/// Routed through the never-inlined [`current`] lookup above, so the
/// answer is re-derived from TLS on whichever OS thread is actually
/// executing — calling this before and after a suspension point
/// (`join`) observes real fiber migration. The
/// `tls_rederivation` regression test pins exactly that; if this
/// accessor ever returns a cached pre-suspension worker, that test (and
/// `uat-lint`'s tls rules) catch the regression.
///
/// Panics outside a worker thread.
pub fn current_worker_id() -> usize {
    let w = current();
    // SAFETY: [I7] `current()` returned non-null, so this thread is a
    // worker thread and `w` points at its live Worker; the shared borrow
    // reads one immutable field and ends before any switch.
    unsafe { (*w).id }
}

impl Placement for Threads {
    type Own = ThreadOwn;

    fn worker() -> *mut Worker<Threads> {
        current()
    }

    fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    fn deque(&self, v: usize) -> &RawDeque<u64> {
        &self.shared.deques[v]
    }

    fn counters(&self, v: usize) -> &Row {
        &self.shared.counters[v]
    }

    fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    fn alloc(&mut self) -> (ThreadOwn, *mut u8) {
        let stack = self.pool.take();
        let top = stack.top();
        (ThreadOwn { stack, keep: None }, top)
    }

    fn free(&mut self, own: ThreadOwn) {
        self.pool.put(own.stack);
    }

    fn task_panicked() -> ! {
        // Mirror the paper's C++ runtime and die loudly.
        eprintln!("uat-fiber: task panicked; aborting");
        std::process::abort();
    }
}

/// Record data of a closure task.
struct Closure(Box<dyn FnOnce() + Send>);

/// The body of a closure task.
unsafe fn run_closure(task: *mut Task<Threads>) {
    // SAFETY: [I8] closure tasks are made with `Closure` data, taken
    // exactly once, here.
    let Closure(f) = unsafe { sched::take_data::<Threads, Closure>(task) };
    f();
}

/// What a closure task and its [`JoinHandle`] share.
struct Joined<T> {
    cell: JoinCell,
    result: Mutex<Option<T>>,
}

/// Handle to a spawned thread; [`join`](JoinHandle::join) returns its
/// result (the `task<T>`/`join` API of Figure 2).
pub struct JoinHandle<T> {
    joined: Arc<Joined<T>>,
}

/// Spawn a thread running `f`, child-first: `f` starts immediately on a
/// fresh stack and the *caller's* continuation becomes stealable
/// (Figure 4's semantics under the stack-pool strategy).
///
/// Must be called from inside [`Runtime::run`].
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let joined = Arc::new(Joined {
        cell: JoinCell::new(),
        result: Mutex::new(None),
    });
    let j2 = Arc::clone(&joined);
    let body = Closure(Box::new(move || *j2.result.lock().unwrap() = Some(f())));
    // SAFETY: [I7] scoped borrow of this thread's worker.
    let (mut own, top) = unsafe { (*current()).place.alloc() };
    // The handle may be dropped unjoined: the task keeps the cell alive
    // until after it departs.
    own.keep = Some(joined.clone());
    sched::spawn::<Threads, Closure>(&joined.cell, own, top, run_closure, body);
    JoinHandle { joined }
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to exit and take its result (Figure 7's
    /// `join`): fast path is one load; otherwise the caller suspends and
    /// the worker finds other work.
    pub fn join(self) -> T {
        sched::join::<Threads>(&self.joined.cell);
        let out = self
            .joined
            .result
            .lock()
            .unwrap()
            .take()
            .expect("task set its result before departing");
        out
    }

    /// Whether the thread has exited (non-blocking `try_join`).
    pub fn is_done(&self) -> bool {
        self.joined.cell.all_done()
    }
}

/// The multi-worker runtime.
#[derive(Clone, Debug)]
pub struct Runtime {
    nworkers: usize,
    stack_size: usize,
    /// Per-worker event-ring capacity when tracing; `None` = untraced.
    #[cfg(feature = "trace")]
    trace_rings: Option<usize>,
    /// Caller-supplied registry to record into; `None` = per-run owned.
    #[cfg(feature = "metrics")]
    registry: Option<Arc<uat_metrics::Registry>>,
    /// Whether the timed metrics tier (histograms, flight rings) is on.
    #[cfg(feature = "metrics")]
    metered: bool,
    /// Sampler tick; `None` with a watchdog set falls back to the
    /// default interval.
    #[cfg(feature = "metrics")]
    sampler: Option<std::time::Duration>,
    #[cfg(feature = "metrics")]
    watchdog: Option<crate::nmetrics::WatchdogCfg>,
    /// Watchdog-test sabotage: this worker never heartbeats.
    sabotage: Option<usize>,
}

impl Runtime {
    /// A runtime with `nworkers` OS-thread workers.
    pub fn new(nworkers: usize) -> Self {
        assert!(nworkers >= 1);
        Runtime {
            nworkers,
            stack_size: 128 << 10,
            #[cfg(feature = "trace")]
            trace_rings: None,
            #[cfg(feature = "metrics")]
            registry: None,
            #[cfg(feature = "metrics")]
            metered: false,
            #[cfg(feature = "metrics")]
            sampler: None,
            #[cfg(feature = "metrics")]
            watchdog: None,
            sabotage: None,
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.nworkers
    }

    /// Override the per-task stack size (default 128 KiB).
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Trace subsequent runs with `ring_capacity`-event per-worker
    /// rings; collect results with [`run_traced`](Self::run_traced).
    #[cfg(feature = "trace")]
    pub fn with_tracing(mut self, ring_capacity: usize) -> Self {
        self.trace_rings = Some(ring_capacity);
        self
    }

    /// Record subsequent runs into `registry` (built for at least this
    /// runtime's worker count) and turn on the timed metrics tier:
    /// steal-latency / task-run / park-duration histograms and the
    /// per-worker flight rings. Snapshot the registry after the run.
    #[cfg(feature = "metrics")]
    pub fn with_metrics(mut self, registry: Arc<uat_metrics::Registry>) -> Self {
        self.registry = Some(registry);
        self.metered = true;
        self
    }

    /// Start a sampler thread on subsequent runs: every `interval` it
    /// samples each worker's deque depth into the registry (and drives
    /// the watchdog, if one is configured). Implies the timed tier.
    #[cfg(feature = "metrics")]
    pub fn with_sampler(mut self, interval: std::time::Duration) -> Self {
        self.sampler = Some(interval);
        self.metered = true;
        self
    }

    /// Arm the stall watchdog on subsequent runs: if one worker's
    /// heartbeat epoch freezes for `cfg.stall_after` while the other
    /// workers keep advancing, dump a metrics snapshot plus every
    /// worker's flight ring and apply `cfg.action` (abort by default).
    /// Implies a sampler (at the default interval unless
    /// [`with_sampler`](Self::with_sampler) set one) and the timed tier.
    #[cfg(feature = "metrics")]
    pub fn with_watchdog(mut self, cfg: crate::nmetrics::WatchdogCfg) -> Self {
        self.watchdog = Some(cfg);
        self.metered = true;
        self
    }

    /// Deliberately wedge worker `id` (it parks forever without
    /// heartbeating) so watchdog tests can exercise a stall on demand.
    /// Worker 0 seeds the root task and must stay live.
    #[doc(hidden)]
    #[cfg(feature = "metrics")]
    pub fn with_stalled_worker(mut self, id: usize) -> Self {
        assert!(id != 0, "worker 0 seeds the root task; cannot stall it");
        assert!(id < self.nworkers);
        self.sabotage = Some(id);
        self
    }

    /// Run `root` to completion (including everything it spawned and
    /// joined) and return its result.
    pub fn run<T, F>(&self, root: F) -> T
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.run_counted(root).0
    }

    /// Like [`run`](Self::run), additionally reporting scheduler-level
    /// counters for the run (mirrors the sim engine's `RunStats` steal
    /// accounting).
    pub fn run_counted<T, F>(&self, root: F) -> (T, SchedStats)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (out, ran) = self.run_closure(root);
        (out, ran.sched)
    }

    /// Like [`run_counted`](Self::run_counted) with tracing forced on
    /// (at the configured or default ring capacity), additionally
    /// returning the finalized per-worker trace.
    #[cfg(feature = "trace")]
    pub fn run_traced<T, F>(&self, root: F) -> (T, SchedStats, crate::ntrace::NativeTrace)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (out, ran) = self.traced().run_closure(root);
        (out, ran.sched, ran.trace())
    }

    /// Like [`run_counted`](Self::run_counted) with the timed metrics
    /// tier forced on (into the configured registry, or a fresh one),
    /// additionally returning the run's metrics snapshot.
    #[cfg(feature = "metrics")]
    pub fn run_metered<T, F>(&self, root: F) -> (T, SchedStats, uat_metrics::Snapshot)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (out, ran) = self.metered().run_closure(root);
        (out, ran.sched, ran.snapshot())
    }

    /// This runtime with tracing on (at the configured or default ring
    /// capacity).
    #[cfg(feature = "trace")]
    pub(crate) fn traced(&self) -> Runtime {
        let mut rt = self.clone();
        rt.trace_rings = Some(
            self.trace_rings
                .unwrap_or(crate::ntrace::DEFAULT_RING_CAPACITY),
        );
        rt
    }

    /// This runtime with the timed metrics tier on.
    #[cfg(feature = "metrics")]
    pub(crate) fn metered(&self) -> Runtime {
        let mut rt = self.clone();
        rt.metered = true;
        if rt.registry.is_none() {
            rt.registry = Some(Arc::new(uat_metrics::Registry::new(self.nworkers)));
        }
        rt
    }

    fn run_closure<T, F>(&self, root: F) -> (T, Ran)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let result = Arc::new(Mutex::new(None));
        let r2 = Arc::clone(&result);
        let body = Closure(Box::new(move || *r2.lock().unwrap() = Some(root())));
        let ran = self.run_task(run_closure, body);
        let out = result.lock().unwrap().take().expect("root set its result");
        (out, ran)
    }

    /// Run a root task made of `body` and `data` to completion.
    pub(crate) fn run_task<X: Send>(&self, body: unsafe fn(*mut Task<Threads>), data: X) -> Ran {
        #[cfg(feature = "trace")]
        let trace = self
            .trace_rings
            .map(|cap| TraceShared::new(self.nworkers, cap));
        let shared = Arc::new(Shared {
            deques: (0..self.nworkers).map(|_| NativeDeque::new(8192)).collect(),
            counters: (0..self.nworkers).map(|_| Row::default()).collect(),
            shutdown: AtomicBool::new(false),
            #[cfg(feature = "metrics")]
            metrics: self
                .metered
                .then(|| Arc::new(MetricsShared::new(self.nworkers, self.registry.clone()))),
            stalled: self.sabotage,
            root: JoinCell::new(),
            #[cfg(feature = "trace")]
            trace,
        });

        let root_task = {
            #[cfg(feature = "trace")]
            {
                shared.trace.as_ref().map_or(0, |t| t.alloc_task())
            }
            #[cfg(not(feature = "trace"))]
            {
                0
            }
        };
        shared.root.add_child();
        let stack = Stack::new(self.stack_size);
        let top = stack.top();
        let own = ThreadOwn { stack, keep: None };
        // SAFETY: [I6][I8] a fresh stack; the root cell lives in
        // `shared`, which outlives every worker.
        let root = unsafe { sched::new_task(own, top, &shared.root, root_task, body, data) };
        let mut root = Some(SendTask(root));

        let t0 = std::time::Instant::now();
        let handles: Vec<_> = (0..self.nworkers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                let stack_size = self.stack_size;
                // Worker 0 seeds the root task.
                let root = root.take();
                std::thread::Builder::new()
                    .name(format!("uat-worker-{id}"))
                    .spawn(move || thread_main(id, &shared, stack_size, root))
                    .expect("spawn worker thread")
            })
            .collect();

        // Sampler/watchdog thread, when configured: deque-depth samples
        // every tick, heartbeat stall detection when armed.
        #[cfg(feature = "metrics")]
        let sampler = (self.sampler.is_some() || self.watchdog.is_some()).then(|| {
            let stop = Arc::new(AtomicBool::new(false));
            let shared = Arc::clone(&shared);
            let interval = self
                .sampler
                .unwrap_or(crate::nmetrics::DEFAULT_SAMPLE_INTERVAL);
            let watchdog = self.watchdog.clone();
            let stop2 = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("uat-sampler".into())
                .spawn(move || {
                    crate::nmetrics::sampler_loop(
                        shared
                            .metrics
                            .as_deref()
                            .expect("a sampler implies metering"),
                        &shared.deques,
                        &shared.counters,
                        &stop2,
                        interval,
                        watchdog.as_ref(),
                    );
                })
                .expect("spawn sampler thread");
            (stop, handle)
        });

        // Wait for the root to finish, then stop. A worker leaves its
        // loop only with its own deque empty, so joining the workers
        // also waits out every straggler (an unjoined task included).
        while !shared.root.all_done() {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        // Disarm the sampler *before* the shutdown flag: workers stop
        // heartbeating once they see shutdown, and the watchdog must
        // never mistake an orderly exit for a stall.
        #[cfg(feature = "metrics")]
        if let Some((stop, handle)) = sampler {
            stop.store(true, Ordering::Release);
            handle.join().expect("sampler thread");
        }
        shared.shutdown.store(true, Ordering::Release);
        for h in handles {
            h.join().expect("worker thread");
        }
        let wall = t0.elapsed();
        // Every worker has stopped: fold the counter rows into the
        // registry, and the rings' drop counts beside them.
        #[cfg(feature = "metrics")]
        if let Some(m) = &shared.metrics {
            #[cfg(feature = "trace")]
            let dropped = shared
                .trace
                .as_ref()
                .map(|t| t.dropped_per_worker())
                .unwrap_or_default();
            #[cfg(not(feature = "trace"))]
            let dropped = Vec::new();
            m.fold(&shared.counters, &dropped);
        }
        let sched = SchedStats::from_rows(&shared.counters, wall);
        Ran { sched, shared }
    }
}

/// What a finished run leaves besides the root's result.
#[cfg_attr(not(any(feature = "trace", feature = "metrics")), allow(dead_code))]
pub(crate) struct Ran {
    pub(crate) sched: SchedStats,
    shared: Arc<Shared>,
}

impl Ran {
    /// The run's finalized trace (the runtime must have been traced).
    #[cfg(feature = "trace")]
    pub(crate) fn trace(&self) -> crate::ntrace::NativeTrace {
        crate::ntrace::finalize(self.shared.trace.as_ref().expect("tracing enabled"))
    }

    /// The run's metrics snapshot (the runtime must have been metered).
    #[cfg(feature = "metrics")]
    pub(crate) fn snapshot(&self) -> uat_metrics::Snapshot {
        let m = self.shared.metrics.as_ref().expect("metrics enabled");
        m.registry.snapshot()
    }

    /// The workers' counter rows, worker-major (the multiprocess
    /// backend's `MpReport::metric_words` layout).
    #[cfg(test)]
    pub(crate) fn counter_words(&self) -> Vec<u64> {
        sched::row_words(&self.shared.counters)
    }
}

/// Scheduler-level counters from one [`Runtime::run_counted`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Successful steals of a started thread by an idle worker.
    pub steals: u64,
    /// Workers that crossed the idle spin threshold into a sleep cycle.
    pub parks: u64,
    /// Parked workers that subsequently found work.
    pub unparks: u64,
    /// Elapsed time of the worker run itself — first worker thread
    /// spawned to last joined. Excludes trace-ring allocation before the
    /// run and trace finalization after it, so traced and untraced runs
    /// are compared on the scheduling work alone.
    pub wall: std::time::Duration,
}

/// The root task on its way to worker 0.
struct SendTask(*mut Task<Threads>);

// SAFETY: [I8] the record is handed to exactly one worker thread and its
// data was required `Send` by `run_task`.
unsafe impl Send for SendTask {}

fn thread_main(id: usize, shared: &Arc<Shared>, stack_size: usize, root: Option<SendTask>) {
    #[cfg(feature = "trace")]
    let trace = WorkerTracer::new(shared.trace.as_ref(), id);
    #[cfg(not(feature = "trace"))]
    let trace = WorkerTracer::new(None, id);
    let place = Threads {
        pool: StackPool::new(stack_size),
        shared: Arc::clone(shared),
    };
    let mut worker = Worker::new(id, place, trace);
    #[cfg(feature = "metrics")]
    {
        worker.timed = shared.metrics.as_ref().map(|m| Timed::new(m, id));
    }
    let w: *mut Worker<Threads> = &mut worker;
    CURRENT.with(|c| c.set(w));
    if shared.stalled == Some(id) {
        // Watchdog-test sabotage: stay alive (so the run is otherwise
        // healthy) but never enter the scheduler loop, so this worker's
        // heartbeat epoch stays frozen while every other worker
        // advances.
        while !shared.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    } else {
        sched::worker_loop::<Threads>(root.map(|r| r.0));
    }
    // Deposit this worker's timeline (no-op when untraced).
    // SAFETY: [I7] exclusive worker access on this thread; the loop has
    // returned, so no fiber holds a borrow.
    unsafe { (*w).trace.finish() };
    CURRENT.with(|c| c.set(std::ptr::null_mut()));
}

/// Driver that runs any [`Workload`] on the native fiber runtime.
#[derive(Clone, Debug)]
pub struct NativeRunner {
    /// The runtime every run is configured from.
    pub(crate) rt: Runtime,
    work_divisor: u64,
    /// Per-worker event-ring capacity for [`run_traced`]
    /// (`None` = the runtime default).
    ///
    /// [`run_traced`]: Self::run_traced
    #[cfg(feature = "trace")]
    ring_capacity: Option<usize>,
}

impl NativeRunner {
    /// A runner with `workers` OS-thread workers.
    pub fn new(workers: usize) -> Self {
        NativeRunner {
            rt: Runtime::new(workers),
            work_divisor: 1,
            #[cfg(feature = "trace")]
            ring_capacity: None,
        }
    }

    /// Override the per-worker event-ring capacity used by
    /// [`run_traced`](Self::run_traced).
    #[cfg(feature = "trace")]
    pub fn with_tracing(mut self, ring_capacity: usize) -> Self {
        self.ring_capacity = Some(ring_capacity);
        self
    }

    /// Record runs into `registry` (built for at least `workers`
    /// shards) with the timed metrics tier on; snapshot it afterwards.
    /// Composes with any run method, [`run_traced`](Self::run_traced)
    /// included.
    #[cfg(feature = "metrics")]
    pub fn with_metrics(mut self, registry: Arc<uat_metrics::Registry>) -> Self {
        self.rt = self.rt.with_metrics(registry);
        self
    }

    /// Start a deque-depth sampler thread on every run, ticking each
    /// `interval`. Implies the timed metrics tier.
    #[cfg(feature = "metrics")]
    pub fn with_sampler(mut self, interval: std::time::Duration) -> Self {
        self.rt = self.rt.with_sampler(interval);
        self
    }

    /// Arm the heartbeat stall watchdog on every run (implies a sampler
    /// at the default interval unless one is configured).
    #[cfg(feature = "metrics")]
    pub fn with_watchdog(mut self, cfg: crate::nmetrics::WatchdogCfg) -> Self {
        self.rt = self.rt.with_watchdog(cfg);
        self
    }

    /// Override the per-task stack size (default 128 KiB). Must exceed
    /// the workload's largest `frame_size` with room for the
    /// interpreter's own frames.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.rt = self.rt.with_stack_size(bytes);
        self
    }

    /// Divide every `Work(c)` spin by `div` (accounting still records
    /// the full `c`). Differential tests compare task expansion, not
    /// timing, so they use a large divisor to skip the spinning.
    pub fn with_work_divisor(mut self, div: u64) -> Self {
        assert!(div >= 1, "work divisor must be at least 1");
        self.work_divisor = div;
        self
    }

    /// Run `w` on `rt`, the root task interpreting `w.root()`.
    pub(crate) fn run_on<W>(&self, rt: &Runtime, w: W) -> (NativeRunStats, Ran)
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        let workload = w.name();
        let tally: Vec<Row> = (0..=rt.workers()).map(|_| Row::default()).collect();
        let env = Env {
            w,
            divisor: self.work_divisor,
            tally: tally.as_ptr(),
        };
        let root = Prog {
            env: &env,
            desc: env.w.root(),
        };
        let ran = rt.run_task(sched::exec::<_, W>, root);
        (NativeRunStats::from_tally(workload, &tally, ran.sched), ran)
    }

    /// Run `w` to completion on real fibers and report its accounting.
    pub fn run<W>(&self, w: W) -> NativeRunStats
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        self.run_on(&self.rt, w).0
    }

    /// Like [`run`](Self::run) with the timed metrics tier forced on,
    /// additionally returning the run's metrics snapshot (sharded
    /// scheduler counters plus steal-latency / task-run /
    /// park-duration histograms).
    #[cfg(feature = "metrics")]
    pub fn run_metered<W>(&self, w: W) -> (NativeRunStats, uat_metrics::Snapshot)
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        let (stats, ran) = self.run_on(&self.rt.metered(), w);
        (stats, ran.snapshot())
    }

    /// Like [`run`](Self::run) with per-worker event tracing on,
    /// additionally returning the finalized [`NativeTrace`]
    /// (exportable `TraceData` + per-worker bucket accounts).
    ///
    /// [`NativeTrace`]: crate::ntrace::NativeTrace
    #[cfg(feature = "trace")]
    pub fn run_traced<W>(&self, w: W) -> (NativeRunStats, crate::ntrace::NativeTrace)
    where
        W: Workload + Send + Sync + 'static,
        W::Desc: 'static,
    {
        let rt = match self.ring_capacity {
            Some(cap) => self.rt.clone().with_tracing(cap),
            None => self.rt.traced(),
        };
        let (mut stats, ran) = self.run_on(&rt, w);
        let trace = ran.trace();
        stats.trace_dropped = trace.data.workers.iter().map(|r| r.dropped()).sum();
        (stats, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_only() {
        let rt = Runtime::new(1);
        let out = rt.run(|| 40 + 2);
        assert_eq!(out, 42);
    }

    #[test]
    fn spawn_join_single_worker() {
        let rt = Runtime::new(1);
        let out = rt.run(|| {
            let a = spawn(|| 10);
            let b = spawn(|| 20);
            a.join() + b.join() + 12
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn nested_fib_single_worker() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let a = spawn(move || fib(n - 1));
            let b = fib(n - 2);
            a.join() + b
        }
        let rt = Runtime::new(1);
        assert_eq!(rt.run(|| fib(15)), 610);
    }

    #[test]
    fn fib_multi_worker() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let a = spawn(move || fib(n - 1));
            let b = fib(n - 2);
            a.join() + b
        }
        let rt = Runtime::new(3);
        assert_eq!(rt.run(|| fib(18)), 2584);
    }

    #[test]
    fn stealing_actually_happens() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let seen: Arc<StdMutex<HashSet<std::thread::ThreadId>>> =
            Arc::new(StdMutex::new(HashSet::new()));
        let seen2 = Arc::clone(&seen);
        let rt = Runtime::new(4);
        rt.run(move || {
            fn tree(d: u32, seen: &Arc<StdMutex<HashSet<std::thread::ThreadId>>>) {
                seen.lock().unwrap().insert(std::thread::current().id());
                if d == 0 {
                    // Enough work that thieves get a window. The yield
                    // matters on single-CPU hosts, where a thief can
                    // only run if the OS preempts or is handed the CPU.
                    let mut x = 0u64;
                    for i in 0..20_000u64 {
                        x = x.wrapping_add(std::hint::black_box(i));
                    }
                    std::hint::black_box(x);
                    std::thread::yield_now();
                    return;
                }
                let s1 = seen.clone();
                let a = spawn(move || tree(d - 1, &s1));
                tree(d - 1, seen);
                a.join();
            }
            tree(7, &seen2);
        });
        let n = seen.lock().unwrap().len();
        assert!(n >= 2, "work never spread beyond one worker (saw {n})");
    }

    #[test]
    fn join_returns_moved_values() {
        let rt = Runtime::new(2);
        let out = rt.run(|| {
            let h = spawn(|| vec![1u32, 2, 3]);
            let mut v = h.join();
            v.push(4);
            v
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn many_sequential_spawns_recycle_stacks() {
        let rt = Runtime::new(1);
        let out = rt.run(|| {
            let mut acc = 0u64;
            for i in 0..2_000u64 {
                acc += spawn(move || i).join();
            }
            acc
        });
        assert_eq!(out, 1999 * 2000 / 2);
    }

    #[test]
    fn deep_spawn_chain() {
        // Each level spawns one child and joins it: exercises suspended
        // joins stacking up on the wait path.
        fn chain(d: u64) -> u64 {
            if d == 0 {
                return 0;
            }
            spawn(move || chain(d - 1)).join() + 1
        }
        let rt = Runtime::new(2);
        assert_eq!(rt.run(|| chain(500)), 500);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_run_tiles_the_makespan() {
        use uat_model::{sequential_profile, testutil::BinTree};
        let w = BinTree {
            depth: 5,
            work: 2_000,
            frame: 256,
        };
        let (s, t) = NativeRunner::new(2)
            .with_work_divisor(8)
            .run_traced(w.clone());
        assert_eq!(s.total_tasks, 63);
        assert_eq!(s.trace_dropped, 0);
        let mk = t.data.makespan.get();
        assert!(mk > 0, "traced run has a zero makespan");
        assert_eq!(t.accounts.len(), 2);
        for (i, acc) in t.accounts.iter().enumerate() {
            assert_eq!(
                acc.total().get(),
                mk,
                "worker {i} buckets do not tile the makespan"
            );
        }
        // Counts must agree with the untraced accounting.
        let p = sequential_profile(&w);
        assert_eq!(s.total_tasks, p.tasks);
        assert_eq!(s.join_fingerprint, p.join_fingerprint);
    }
}
