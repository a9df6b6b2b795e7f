//! Native-runtime metrics: the `uat-metrics` layers wired into real
//! fibers, plus the stall watchdog.
//!
//! Mirrors [`crate::ntrace`]'s shape: each worker OS thread owns a
//! [`WorkerMetrics`] handle whose hot-path hooks are relaxed adds on
//! per-worker [`uat_metrics::Counter`] shards; the run-wide
//! [`MetricsShared`] holds the [`uat_metrics::Registry`], the
//! tail-latency histograms, and one [`uat_metrics::EventRing`]
//! flight-recorder ring per worker.
//!
//! Instrumentation comes in two tiers:
//!
//! - **Counters** (steals, parks, tasks, heartbeats) are always live:
//!   a relaxed load + store on a cache line no other core writes.
//! - **Timed** instrumentation — TSC-stamped steal latency, task run
//!   length, park duration, and the flight ring — activates only on
//!   *metered* runs ([`crate::Runtime::with_metrics`] /
//!   [`crate::Runtime::run_metered`] / a sampler or watchdog). Traced
//!   runs also feed the steal-latency histogram, because the deque's
//!   phased steal already produced the timestamps.
//!
//! The **watchdog** rides the sampler thread: every worker bumps its
//! heartbeat shard once per scheduler-loop iteration (parked workers
//! still iterate every sleep cycle, so a live worker's epoch always
//! advances between samples). If one worker's epoch freezes for the
//! whole stall window while other workers keep advancing, the watchdog
//! dumps a metrics snapshot plus every worker's flight ring and — by
//! default — aborts the process. This targets precisely the
//! `fib_across_worker_counts` flake precursor: a worker wedged on a
//! resumed-into-garbage context stops heartbeating long before the
//! segfault, and the dump says who and what it was last doing.
//!
//! With the `metrics` cargo feature off, everything here compiles to
//! plain-atomic stand-ins that keep [`crate::SchedStats`] working and
//! cost the hook sites nothing else.

#[cfg(feature = "metrics")]
mod real {
    use crate::tsc::RunClock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;
    use uat_base::json::{Json, ToJson};
    use uat_deque::{NativeDeque, StealPhases};
    use uat_metrics::{names, Counter, EventRing, Gauge, LogHistogram, Registry, Snapshot};

    /// Per-worker flight-ring capacity (entries; 16 bytes each).
    pub const FLIGHT_CAPACITY: usize = 4096;

    /// Default sampler tick when a sampler or watchdog is enabled
    /// without an explicit interval.
    pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(10);

    /// Default stall window before the watchdog trips. Generous enough
    /// that an oversubscribed single-CPU CI host never false-positives:
    /// a live worker bumps its heartbeat every scheduler iteration
    /// (parked ones every ~20µs sleep cycle), so a full second of
    /// silence while siblings advance means genuinely wedged.
    pub const DEFAULT_STALL_AFTER: Duration = Duration::from_secs(1);

    /// Flight-ring event codes (the ring stores `u8`).
    pub mod flight_code {
        /// A task began running.
        pub const TASK_BEGIN: u8 = 1;
        /// A task ran to completion.
        pub const TASK_END: u8 = 2;
        /// A steal attempt completed (payload: victim).
        pub const STEAL_OK: u8 = 3;
        /// A steal attempt aborted (payload: victim).
        pub const STEAL_FAIL: u8 = 4;
        /// The worker crossed the spin threshold and went to sleep.
        pub const PARK: u8 = 5;
        /// The worker woke from a park and found work.
        pub const UNPARK: u8 = 6;

        /// Display name for a code (unknown codes included, so a torn
        /// racy read still renders).
        pub fn name(code: u8) -> &'static str {
            match code {
                TASK_BEGIN => "task-begin",
                TASK_END => "task-end",
                STEAL_OK => "steal-ok",
                STEAL_FAIL => "steal-fail",
                PARK => "park",
                UNPARK => "unpark",
                _ => "?",
            }
        }
    }

    /// Run-wide metrics state shared by all workers of one run.
    pub struct MetricsShared {
        /// The registry every instrument below is registered in
        /// (caller-supplied via `Runtime::with_metrics`, else owned).
        pub registry: Arc<Registry>,
        /// Scheduler-loop heartbeat epochs (the watchdog's pulse).
        pub heartbeats: Arc<Counter>,
        /// Completed steals.
        pub steals_ok: Arc<Counter>,
        /// Aborted steal attempts.
        pub steals_failed: Arc<Counter>,
        /// Park episodes entered.
        pub parks: Arc<Counter>,
        /// Park episodes that ended in found work.
        pub unparks: Arc<Counter>,
        /// Tasks run to completion.
        pub tasks: Arc<Counter>,
        /// Trace events evicted from full rings (filled at run end).
        pub trace_dropped: Arc<Counter>,
        /// End-to-end steal-attempt latency (cycles).
        pub steal_latency: Arc<LogHistogram>,
        /// Task run length (cycles).
        pub task_run: Arc<LogHistogram>,
        /// Park episode duration (cycles).
        pub park_duration: Arc<LogHistogram>,
        /// Sampled deque depths.
        pub deque_depth: Arc<LogHistogram>,
        /// Last sampled deque depth per worker.
        pub deque_depth_now: Arc<Gauge>,
        /// Per-worker flight-recorder rings.
        pub flight: Vec<Arc<EventRing>>,
        /// The run's metrics clock (its own epoch; latencies are
        /// differences, so it never needs to agree with the trace
        /// clock's).
        pub clock: RunClock,
        metered: bool,
        sabotage: Option<usize>,
    }

    impl MetricsShared {
        /// Metrics state for `workers` workers. `registry` supplies an
        /// external registry (must be built for at least `workers`
        /// shards); `metered` turns on the timed tier; `sabotage`
        /// deliberately wedges one worker (watchdog tests only).
        pub fn new(
            workers: usize,
            registry: Option<Arc<Registry>>,
            metered: bool,
            sabotage: Option<usize>,
        ) -> Self {
            let registry = registry.unwrap_or_else(|| Arc::new(Registry::new(workers)));
            assert!(
                registry.workers() >= workers,
                "metrics registry built for {} shards but the runtime has {workers} workers",
                registry.workers(),
            );
            MetricsShared {
                heartbeats: registry.counter(
                    names::HEARTBEATS,
                    "Scheduler loop iterations (watchdog heartbeat epochs)",
                ),
                steals_ok: registry.counter(
                    names::STEALS_COMPLETED,
                    "Steal attempts that took an entry and resumed the stolen thread",
                ),
                steals_failed: registry.counter(
                    names::STEALS_FAILED,
                    "Steal attempts that aborted (victim empty, lock busy, or raced)",
                ),
                parks: registry.counter(
                    names::PARKS,
                    "Workers that crossed the idle spin threshold into a sleep cycle",
                ),
                unparks: registry.counter(names::UNPARKS, "Parked workers that found work again"),
                tasks: registry.counter(names::TASKS, "Tasks run to completion"),
                trace_dropped: registry.counter(
                    names::TRACE_DROPPED,
                    "Trace events evicted from full per-worker rings",
                ),
                steal_latency: registry.histogram(
                    names::STEAL_LATENCY,
                    "End-to-end steal-attempt latency in TSC cycles",
                ),
                task_run: registry.histogram(
                    names::TASK_RUN,
                    "Task run length in TSC cycles, begin to completion",
                ),
                park_duration: registry
                    .histogram(names::PARK_DURATION, "Park episode duration in TSC cycles"),
                deque_depth: registry
                    .histogram(names::DEQUE_DEPTH, "Sampled deque depth distribution"),
                deque_depth_now: registry
                    .gauge(names::DEQUE_DEPTH_NOW, "Most recently sampled deque depth"),
                flight: (0..workers.max(1))
                    .map(|_| Arc::new(EventRing::new(FLIGHT_CAPACITY)))
                    .collect(),
                clock: RunClock::start(),
                registry,
                metered,
                sabotage,
            }
        }

        /// Whether the timed tier (histogram stamps, flight ring) is on.
        #[inline]
        pub fn metered(&self) -> bool {
            self.metered
        }

        /// Whether `worker` is the deliberately wedged one.
        #[inline]
        pub fn is_sabotaged(&self, worker: usize) -> bool {
            self.sabotage == Some(worker)
        }

        /// Completed steals across all workers.
        pub fn steals_total(&self) -> u64 {
            self.steals_ok.total()
        }

        /// Park episodes across all workers.
        pub fn parks_total(&self) -> u64 {
            self.parks.total()
        }

        /// Unparks across all workers.
        pub fn unparks_total(&self) -> u64 {
            self.unparks.total()
        }
    }

    struct Wm {
        id: usize,
        shared: Arc<MetricsShared>,
        /// Metrics-clock stamp of the open park episode (0 = none).
        park_started: u64,
    }

    impl Wm {
        /// Push a flight-ring event stamped `at`. The stamp is passed in
        /// so hooks that already read the metrics clock (task begin/end,
        /// park/unpark) reuse it instead of paying a second TSC read on
        /// the per-task hot path.
        #[inline]
        fn flight(&self, at: u64, code: u8, payload: u64) {
            self.shared.flight[self.id].push(at, code, payload);
        }
    }

    /// Per-worker metrics handle living inside the runtime's `Worker`.
    pub struct WorkerMetrics(Box<Wm>);

    impl WorkerMetrics {
        /// Handle for worker `id`.
        pub fn new(shared: &Arc<MetricsShared>, id: usize) -> Self {
            WorkerMetrics(Box::new(Wm {
                id,
                shared: Arc::clone(shared),
                park_started: 0,
            }))
        }

        /// One scheduler-loop iteration: bump the heartbeat epoch.
        #[inline]
        pub fn on_loop(&mut self) {
            let m = &*self.0;
            m.shared.heartbeats.inc(m.id);
        }

        /// The metrics clock, iff this run wants untraced steals to take
        /// the phase-stamped path (the trace clock wins when both are
        /// live — either epoch works, latency is a difference).
        #[inline]
        pub fn clock(&self) -> Option<RunClock> {
            let m = &*self.0;
            m.shared.metered.then_some(m.shared.clock)
        }

        /// A phase-stamped steal attempt finished: count the outcome and
        /// record the end-to-end latency (the timestamps are already
        /// paid for, so traced-but-unmetered runs feed the histogram
        /// too).
        #[inline]
        pub fn on_steal_phased(&mut self, victim: usize, ok: bool, ph: &StealPhases) {
            let m = &*self.0;
            if ok {
                m.shared.steals_ok.inc(m.id);
            } else {
                m.shared.steals_failed.inc(m.id);
            }
            m.shared
                .steal_latency
                .record(ph.end.saturating_sub(ph.start));
            if m.shared.metered {
                let code = if ok {
                    flight_code::STEAL_OK
                } else {
                    flight_code::STEAL_FAIL
                };
                // Steals are rare relative to tasks; a fresh clock read
                // keeps the ring stamp in the metrics-clock epoch (the
                // phase stamps may be the trace clock's).
                m.flight(m.shared.clock.now_cycles(), code, victim as u64);
            }
        }

        /// An unstamped steal attempt finished (untraced, unmetered
        /// run): count the outcome only.
        #[inline]
        pub fn on_steal_untimed(&mut self, ok: bool) {
            let m = &*self.0;
            if ok {
                m.shared.steals_ok.inc(m.id);
            } else {
                m.shared.steals_failed.inc(m.id);
            }
        }

        /// The worker crossed the spin threshold and is going to sleep.
        #[inline]
        pub fn on_park(&mut self) {
            let m = &mut *self.0;
            m.shared.parks.inc(m.id);
            if m.shared.metered {
                m.park_started = m.shared.clock.now_cycles();
                m.flight(m.park_started, flight_code::PARK, 0);
            }
        }

        /// The worker found work after having parked.
        #[inline]
        pub fn on_unpark(&mut self) {
            let m = &mut *self.0;
            m.shared.unparks.inc(m.id);
            if m.shared.metered {
                let now = m.shared.clock.now_cycles();
                m.shared
                    .park_duration
                    .record(now.saturating_sub(m.park_started));
                m.park_started = 0;
                m.flight(now, flight_code::UNPARK, 0);
            }
        }

        /// A fiber body is about to start. Returns the begin stamp the
        /// task-end hook wants (0 when unmetered); a `Copy` local, so it
        /// survives the task's stack migrating between workers.
        #[inline]
        pub fn on_task_begin(&mut self) -> u64 {
            let m = &*self.0;
            if !m.shared.metered {
                return 0;
            }
            let now = m.shared.clock.now_cycles();
            m.flight(now, flight_code::TASK_BEGIN, 0);
            now
        }

        /// A fiber body returned (possibly on a different worker than it
        /// began on): count the task, record its run length.
        #[inline]
        pub fn on_task_end(&mut self, born: u64) {
            let m = &*self.0;
            m.shared.tasks.inc(m.id);
            if m.shared.metered {
                let now = m.shared.clock.now_cycles();
                if born != 0 {
                    m.shared.task_run.record(now.saturating_sub(born));
                }
                m.flight(now, flight_code::TASK_END, 0);
            }
        }
    }

    /// What the watchdog does after dumping a stall.
    #[derive(Clone, Debug)]
    pub enum WatchdogAction {
        /// Fail loudly: abort the process after writing the dump. The
        /// production default — a wedged worker precedes memory-unsafe
        /// failure modes, and a post-mortem beats a later segfault.
        Abort,
        /// Record the dump in the report and let the run continue
        /// (tests; the watchdog disarms after the first trip).
        Report(Arc<WatchdogReport>),
    }

    /// Watchdog configuration for [`crate::Runtime::with_watchdog`].
    #[derive(Clone, Debug)]
    pub struct WatchdogCfg {
        /// How long one worker's heartbeat may freeze — while the other
        /// workers keep advancing — before the watchdog trips.
        pub stall_after: Duration,
        /// What to do on a trip.
        pub action: WatchdogAction,
    }

    impl Default for WatchdogCfg {
        fn default() -> Self {
            WatchdogCfg {
                stall_after: DEFAULT_STALL_AFTER,
                action: WatchdogAction::Abort,
            }
        }
    }

    /// Where [`WatchdogAction::Report`] deposits the trip, if any.
    #[derive(Debug, Default)]
    pub struct WatchdogReport {
        tripped: AtomicBool,
        dump: Mutex<Option<StallDump>>,
    }

    impl WatchdogReport {
        /// Whether the watchdog tripped.
        pub fn tripped(&self) -> bool {
            self.tripped.load(Ordering::Acquire)
        }

        /// Take the dump recorded by the trip.
        pub fn take(&self) -> Option<StallDump> {
            self.dump.lock().unwrap().take()
        }
    }

    /// Everything the watchdog knows at the moment of a trip.
    #[derive(Debug)]
    pub struct StallDump {
        /// The worker whose heartbeat froze.
        pub worker: usize,
        /// Heartbeat epochs per worker at trip time.
        pub heartbeats: Vec<u64>,
        /// Frozen view of the whole registry.
        pub snapshot: Snapshot,
        /// Per-worker flight rings, oldest event first.
        pub flight: Vec<Vec<uat_metrics::FlightEvent>>,
    }

    impl StallDump {
        /// The dump as one JSON document (what the watchdog writes to
        /// disk and what `--metrics-json`-style tooling can re-read).
        pub fn to_json(&self) -> Json {
            let flight: Vec<Json> = self
                .flight
                .iter()
                .map(|ring| {
                    Json::Arr(
                        ring.iter()
                            .map(|ev| {
                                Json::obj([
                                    ("at", Json::UInt(ev.at)),
                                    ("event", Json::str(flight_code::name(ev.code))),
                                    ("payload", Json::UInt(ev.payload)),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect();
            Json::obj([
                ("stalled_worker", Json::UInt(self.worker as u64)),
                (
                    "heartbeats",
                    Json::Arr(self.heartbeats.iter().map(|&h| Json::UInt(h)).collect()),
                ),
                ("metrics", self.snapshot.to_json()),
                ("flight", Json::Arr(flight)),
            ])
        }
    }

    /// The sampler thread body: every `interval`, sample each worker's
    /// deque depth into the gauge + histogram and — when `watchdog` is
    /// set — check the heartbeat epochs for a stalled worker. Returns
    /// when `stop` is raised (the runtime raises it *before* the
    /// shutdown flag, so workers never stop heartbeating while the
    /// watchdog is still armed).
    pub fn sampler_loop(
        ms: &Arc<MetricsShared>,
        deques: &[NativeDeque<u64>],
        stop: &AtomicBool,
        interval: Duration,
        watchdog: Option<&WatchdogCfg>,
    ) {
        let workers = deques.len();
        let interval = interval.max(Duration::from_micros(100));
        let ticks_needed = watchdog
            .map(|wd| wd.stall_after.div_duration_f64(interval).ceil() as u32)
            .unwrap_or(u32::MAX)
            .max(2);
        let mut prev = vec![0u64; workers];
        let mut stalled = vec![0u32; workers];
        let mut others = vec![0u32; workers];
        let mut armed = watchdog.is_some();
        loop {
            // Sleep in bounded chunks so a raised stop flag is honored
            // within ~10ms even under second-scale intervals. The chunk
            // is deliberately no smaller: on a single-CPU host every
            // sampler wake preempts a worker, so wake frequency — not
            // the sampling work — dominates the sampler's overhead.
            let mut slept = Duration::ZERO;
            while slept < interval {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let chunk = (interval - slept).min(Duration::from_millis(10));
                std::thread::sleep(chunk);
                slept += chunk;
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
            for (i, d) in deques.iter().enumerate() {
                let depth = d.len();
                ms.deque_depth_now.set(i, depth);
                ms.deque_depth.record(depth);
            }
            let Some(wd) = watchdog else { continue };
            let epochs = ms.heartbeats.per_worker();
            if armed {
                let advanced: Vec<bool> = epochs.iter().zip(&prev).map(|(a, b)| a != b).collect();
                for i in 0..workers {
                    if advanced[i] {
                        stalled[i] = 0;
                        others[i] = 0;
                        continue;
                    }
                    stalled[i] += 1;
                    if advanced.iter().enumerate().any(|(j, &a)| j != i && a) {
                        others[i] += 1;
                    }
                    // Trip: `i` silent for the whole window, every one of
                    // those ticks saw some *other* worker advance (so the
                    // machine is running — `i` alone is wedged).
                    if stalled[i] >= ticks_needed && others[i] >= ticks_needed {
                        trip(ms, i, &epochs, wd);
                        armed = false;
                        break;
                    }
                }
            }
            prev = epochs;
        }
    }

    /// Dump the post-mortem and apply the configured action.
    fn trip(ms: &Arc<MetricsShared>, worker: usize, epochs: &[u64], wd: &WatchdogCfg) {
        let dump = StallDump {
            worker,
            heartbeats: epochs.to_vec(),
            snapshot: ms.registry.snapshot(),
            flight: ms.flight.iter().map(|r| r.snapshot()).collect(),
        };
        eprintln!(
            "uat-fiber watchdog: worker {worker} heartbeat stalled for {:?} \
             while other workers advanced (epochs: {epochs:?})",
            wd.stall_after
        );
        let path = std::env::temp_dir().join(format!(
            "uat-watchdog-{}-w{worker}.json",
            std::process::id()
        ));
        match std::fs::write(&path, dump.to_json().pretty()) {
            Ok(()) => eprintln!("uat-fiber watchdog: dump written to {}", path.display()),
            Err(e) => eprintln!("uat-fiber watchdog: could not write dump: {e}"),
        }
        eprintln!("{}", dump.snapshot.prometheus_text());
        match &wd.action {
            WatchdogAction::Abort => {
                eprintln!("uat-fiber watchdog: aborting");
                std::process::abort();
            }
            WatchdogAction::Report(report) => {
                *report.dump.lock().unwrap() = Some(dump);
                report.tripped.store(true, Ordering::Release);
            }
        }
    }
}

#[cfg(feature = "metrics")]
pub use real::{
    flight_code, sampler_loop, MetricsShared, StallDump, WatchdogAction, WatchdogCfg,
    WatchdogReport, WorkerMetrics, DEFAULT_SAMPLE_INTERVAL, DEFAULT_STALL_AFTER, FLIGHT_CAPACITY,
};

/// Plain-atomic stand-ins when the `metrics` feature is off: the shared
/// scheduler counters [`crate::SchedStats`] reports survive, every other
/// hook is an empty `#[inline(always)]` body, and `uat-metrics` is not
/// linked.
#[cfg(not(feature = "metrics"))]
mod stub {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use uat_deque::StealPhases;

    /// Minimal run-wide counters (what [`crate::SchedStats`] needs).
    #[derive(Default)]
    pub struct MetricsShared {
        steals: AtomicU64,
        parks: AtomicU64,
        unparks: AtomicU64,
    }

    #[allow(missing_docs)]
    impl MetricsShared {
        pub fn new() -> Self {
            MetricsShared::default()
        }
        #[inline(always)]
        pub fn is_sabotaged(&self, _worker: usize) -> bool {
            false
        }
        pub fn steals_total(&self) -> u64 {
            self.steals.load(Ordering::Acquire)
        }
        pub fn parks_total(&self) -> u64 {
            self.parks.load(Ordering::Acquire)
        }
        pub fn unparks_total(&self) -> u64 {
            self.unparks.load(Ordering::Acquire)
        }
    }

    /// No-op per-worker handle: counter hooks keep the shared totals,
    /// everything timed vanishes.
    pub struct WorkerMetrics {
        shared: Arc<MetricsShared>,
    }

    #[allow(missing_docs)]
    impl WorkerMetrics {
        #[inline(always)]
        pub fn new(shared: &Arc<MetricsShared>, _id: usize) -> Self {
            WorkerMetrics {
                shared: Arc::clone(shared),
            }
        }
        #[inline(always)]
        pub fn on_loop(&mut self) {}
        #[inline(always)]
        pub fn clock(&self) -> Option<crate::tsc::RunClock> {
            None
        }
        #[inline(always)]
        pub fn on_steal_phased(&mut self, _victim: usize, ok: bool, _ph: &StealPhases) {
            if ok {
                self.shared.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
        #[inline(always)]
        pub fn on_steal_untimed(&mut self, ok: bool) {
            if ok {
                self.shared.steals.fetch_add(1, Ordering::Relaxed);
            }
        }
        #[inline(always)]
        pub fn on_park(&mut self) {
            self.shared.parks.fetch_add(1, Ordering::Relaxed);
        }
        #[inline(always)]
        pub fn on_unpark(&mut self) {
            self.shared.unparks.fetch_add(1, Ordering::Relaxed);
        }
        #[inline(always)]
        pub fn on_task_begin(&mut self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn on_task_end(&mut self, _born: u64) {}
    }
}

#[cfg(not(feature = "metrics"))]
pub use stub::{MetricsShared, WorkerMetrics};
