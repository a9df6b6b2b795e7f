//! Native live-metrics acceptance: one uts11 run on real fibers with
//! the registry, the sampler, *and* the tracer attached, then every
//! exported total is checked against the ground truth the structured
//! trace independently recorded. The trace and the metrics tier hook
//! the same scheduler sites but share no state — agreement here means
//! the always-on counters and histograms report the same run the
//! offline trace proves happened.

#![cfg(all(feature = "metrics", feature = "trace", target_arch = "x86_64"))]

use std::sync::Arc;
use uni_address_threads::fiber::{nmetrics::DEFAULT_SAMPLE_INTERVAL, NativeRunner};
use uni_address_threads::metrics::{names, Registry};
use uni_address_threads::trace::{EventKind, StealOutcome};
use uni_address_threads::workloads::Uts;

#[test]
fn exported_totals_match_trace_ground_truth() {
    let workers = 2;
    let registry = Arc::new(Registry::new(workers));
    // Rings big enough that nothing drops: a dropped event would void
    // the "same run" premise of every equality below (asserted first).
    // uts11 emits about 16M events in all (eight per task), and either
    // worker may emit well over half of them, so each ring holds 2^24
    // (rings grow only as events arrive).
    let (stats, trace) = NativeRunner::new(workers)
        .with_metrics(Arc::clone(&registry))
        .with_sampler(DEFAULT_SAMPLE_INTERVAL)
        .with_tracing(1 << 24)
        .run_traced(Uts::geometric(11));
    assert_eq!(stats.trace_dropped, 0, "rings dropped events");
    let snap = registry.snapshot();

    // Task counts: scheduler accounting, metrics counter, task-run
    // histogram, and trace TaskEnd events must all agree exactly.
    let task_ends = trace
        .data
        .events()
        .filter(|e| matches!(e.kind, EventKind::TaskEnd { .. }))
        .count() as u64;
    assert_eq!(snap.total(names::TASKS), stats.total_tasks);
    assert_eq!(task_ends, stats.total_tasks);
    let run_hist = snap
        .histogram(names::TASK_RUN)
        .expect("task-run histogram registered");
    assert_eq!(run_hist.count(), stats.total_tasks);

    // Steal counts: every attempt in a traced+metered run takes the
    // phase-stamped path, so StealResult events partition exactly into
    // the completed/failed counters and each one fed the latency
    // histogram.
    let (mut ok, mut failed) = (0u64, 0u64);
    for e in trace.data.events() {
        if let EventKind::StealResult { outcome, .. } = e.kind {
            match outcome {
                StealOutcome::Completed => ok += 1,
                _ => failed += 1,
            }
        }
    }
    assert_eq!(snap.total(names::STEALS_COMPLETED), ok);
    assert_eq!(snap.total(names::STEALS_FAILED), failed);
    assert_eq!(ok, stats.steals);
    let steal_hist = snap
        .histogram(names::STEAL_LATENCY)
        .expect("steal-latency histogram registered");
    assert_eq!(steal_hist.count(), ok + failed);

    // The sampler ran: a multi-second run at the default interval must
    // tick many times, and each tick samples every worker's deque.
    let depth_hist = snap
        .histogram(names::DEQUE_DEPTH)
        .expect("deque-depth histogram registered");
    assert!(
        depth_hist.count() >= workers as u64,
        "sampler recorded {} depth samples",
        depth_hist.count()
    );
    assert!(snap.total(names::HEARTBEATS) > 0, "no scheduler heartbeats");
    assert_eq!(snap.total(names::TRACE_DROPPED), 0);
}
