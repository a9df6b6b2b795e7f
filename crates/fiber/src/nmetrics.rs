//! Native-runtime metrics: the `uat-metrics` layers wired into real
//! fibers, plus the stall watchdog. Compiled only with the `metrics`
//! feature.
//!
//! Instrumentation comes in two tiers:
//!
//! - **Counters** (heartbeats, steals, parks, unparks, tasks) are not
//!   kept here: the scheduler bumps each worker's counter row
//!   (`sched::Row`, the `MC_*` cells) on both placements, metered or
//!   not, with or without this feature. A metered thread run folds the
//!   rows into the registry's counters at run end; the sampler reads
//!   heartbeats straight from the rows.
//! - **Timed** instrumentation — TSC-stamped steal latency, task run
//!   length, park duration, and the flight ring — is a [`Timed`] on
//!   each `Worker`, present only on *metered* thread runs
//!   ([`crate::Runtime::with_metrics`] / [`crate::Runtime::run_metered`]
//!   / a sampler or watchdog).
//!
//! The **watchdog** rides the sampler thread: every worker bumps its
//! heartbeat cell once per scheduler-loop iteration (parked workers
//! still iterate every sleep cycle, so a live worker's epoch always
//! advances between samples). If one worker's epoch freezes for the
//! whole stall window while other workers keep advancing, the watchdog
//! dumps a metrics snapshot (the registry plus the live counter rows)
//! and every worker's flight ring and — by default — aborts the
//! process. This targets precisely the `fib_across_worker_counts` flake
//! precursor: a worker wedged on a resumed-into-garbage context stops
//! heartbeating long before the segfault, and the dump says who and
//! what it was last doing.

use crate::sched::{row_words, Row, MC_HEARTBEATS};
use crate::tsc::RunClock;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use uat_base::json::{Json, ToJson};
use uat_deque::{NativeDeque, StealPhases};
use uat_metrics::shm::{SegmentLayout, SEGMENT_COUNTERS};
use uat_metrics::{
    names, Counter, EventRing, Gauge, LogHistogram, Registry, Snapshot, ValueSnapshot,
};

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

/// Run-wide state of one metered run.
pub(crate) struct MetricsShared {
    /// The registry every instrument below is registered in
    /// (caller-supplied via `Runtime::with_metrics`, else owned).
    pub(crate) registry: Arc<Registry>,
    /// The registry's counters for the row cells, in
    /// [`SEGMENT_COUNTERS`] order; filled from the rows at run end.
    counters: Vec<Arc<Counter>>,
    /// Trace events evicted from full rings (filled at run end).
    trace_dropped: Arc<Counter>,
    /// End-to-end steal-attempt latency (cycles).
    steal_latency: Arc<LogHistogram>,
    /// Task run length (cycles).
    task_run: Arc<LogHistogram>,
    /// Park episode duration (cycles).
    park_duration: Arc<LogHistogram>,
    /// Sampled deque depths.
    deque_depth: Arc<LogHistogram>,
    /// Last sampled deque depth per worker.
    deque_depth_now: Arc<Gauge>,
    /// Per-worker flight-recorder rings.
    flight: Vec<Arc<EventRing>>,
    /// The run's metrics clock (its own epoch; latencies are
    /// differences, so it never needs to agree with the trace clock's).
    clock: RunClock,
}

impl MetricsShared {
    /// Metrics state for `workers` workers. `registry` supplies an
    /// external registry (must be built for at least `workers` shards).
    pub(crate) fn new(workers: usize, registry: Option<Arc<Registry>>) -> Self {
        let registry = registry.unwrap_or_else(|| Arc::new(Registry::new(workers)));
        assert!(
            registry.workers() >= workers,
            "metrics registry built for {} shards but the runtime has {workers} workers",
            registry.workers(),
        );
        MetricsShared {
            counters: SEGMENT_COUNTERS
                .iter()
                .map(|(name, help)| registry.counter(name, help))
                .collect(),
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
            deque_depth: registry.histogram(names::DEQUE_DEPTH, "Sampled deque depth distribution"),
            deque_depth_now: registry
                .gauge(names::DEQUE_DEPTH_NOW, "Most recently sampled deque depth"),
            flight: (0..workers.max(1))
                .map(|_| Arc::new(EventRing::new(FLIGHT_CAPACITY)))
                .collect(),
            clock: RunClock::start(),
            registry,
        }
    }

    /// Add a finished run's counter rows, and its trace rings'
    /// per-worker drop counts, into the registry's counters.
    pub(crate) fn fold(&self, rows: &[Row], dropped: &[u64]) {
        for (w, row) in rows.iter().enumerate() {
            for (c, counter) in self.counters.iter().enumerate() {
                counter.add(w, row.get(c));
            }
        }
        for (w, &d) in dropped.iter().enumerate() {
            self.trace_dropped.add(w, d);
        }
    }

    /// The registry's snapshot with the live counter rows added in,
    /// named by the same [`SegmentLayout::snapshot`] the multiprocess
    /// coordinator exports its rows through.
    fn live_snapshot(&self, rows: &[Row]) -> Snapshot {
        let mut snap = self.registry.snapshot();
        let words = row_words(rows);
        for live in SegmentLayout::new(rows.len()).snapshot(&words).metrics {
            let ValueSnapshot::Counter { per_worker: add } = live.value else {
                continue;
            };
            let m = snap.metrics.iter_mut().find(|m| m.name == live.name);
            if let Some(ValueSnapshot::Counter { per_worker: sum }) = m.map(|m| &mut m.value) {
                sum.iter_mut().zip(add).for_each(|(s, a)| *s += a);
            }
        }
        snap
    }
}

/// A metered worker's timed instruments: steal-latency, task-run and
/// park-duration histograms, its flight ring, and the metrics clock.
pub(crate) struct Timed {
    id: usize,
    shared: Arc<MetricsShared>,
    /// The metrics clock, which untraced steals are phase-stamped with.
    pub(crate) clock: RunClock,
    /// Metrics-clock stamp of the open park episode.
    park_started: u64,
}

impl Timed {
    /// Worker `id`'s timed tier.
    pub(crate) fn new(shared: &Arc<MetricsShared>, id: usize) -> Box<Self> {
        Box::new(Timed {
            id,
            clock: shared.clock,
            shared: Arc::clone(shared),
            park_started: 0,
        })
    }

    /// Push a flight-ring event stamped `at`. The stamp is passed in so
    /// hooks that already read the metrics clock reuse it instead of
    /// paying a second TSC read on the per-task hot path.
    fn flight(&self, at: u64, code: u8, payload: u64) {
        self.shared.flight[self.id].push(at, code, payload);
    }

    /// A phase-stamped steal attempt finished: record its end-to-end
    /// latency and a flight event.
    pub(crate) fn on_steal(&mut self, victim: usize, ok: bool, ph: &StealPhases) {
        self.shared
            .steal_latency
            .record(ph.end.saturating_sub(ph.start));
        let code = if ok {
            flight_code::STEAL_OK
        } else {
            flight_code::STEAL_FAIL
        };
        // Steals are rare relative to tasks; a fresh clock read keeps
        // the ring stamp in the metrics-clock epoch (the phase stamps
        // may be the trace clock's).
        self.flight(self.clock.now_cycles(), code, victim as u64);
    }

    /// The worker crossed the spin threshold and is going to sleep.
    pub(crate) fn on_park(&mut self) {
        self.park_started = self.clock.now_cycles();
        self.flight(self.park_started, flight_code::PARK, 0);
    }

    /// The worker found work after having parked.
    pub(crate) fn on_unpark(&mut self) {
        let now = self.clock.now_cycles();
        self.shared
            .park_duration
            .record(now.saturating_sub(self.park_started));
        self.flight(now, flight_code::UNPARK, 0);
    }

    /// A fiber body is about to start. Returns the begin stamp
    /// [`on_task_end`](Self::on_task_end) wants; a `Copy` local, so it
    /// survives the task's stack migrating between workers.
    pub(crate) fn on_task_begin(&mut self) -> u64 {
        let now = self.clock.now_cycles();
        self.flight(now, flight_code::TASK_BEGIN, 0);
        now
    }

    /// A fiber body returned (possibly on a different worker than it
    /// began on): record its run length.
    pub(crate) fn on_task_end(&mut self, born: u64) {
        let now = self.clock.now_cycles();
        self.shared.task_run.record(now.saturating_sub(born));
        self.flight(now, flight_code::TASK_END, 0);
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
pub(crate) fn sampler_loop(
    ms: &MetricsShared,
    deques: &[NativeDeque<u64>],
    rows: &[Row],
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
        let epochs: Vec<u64> = rows.iter().map(|r| r.get(MC_HEARTBEATS)).collect();
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
                    trip(ms, rows, i, &epochs, wd);
                    armed = false;
                    break;
                }
            }
        }
        prev = epochs;
    }
}

/// Dump the post-mortem and apply the configured action.
fn trip(ms: &MetricsShared, rows: &[Row], worker: usize, epochs: &[u64], wd: &WatchdogCfg) {
    let dump = StallDump {
        worker,
        heartbeats: epochs.to_vec(),
        snapshot: ms.live_snapshot(rows),
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
