//! A task panic in a multiprocess worker fails the run, and fails it
//! promptly, even while another thread of the parent keeps taking std's
//! backtrace lock. A worker forked while that thread held the lock
//! inherits it held forever, so the worker's panic must not reach std's
//! default hook (which takes it): the runtime's hook ends the worker
//! with a raw write and `_exit` instead.
//!
//! Its own test binary on purpose: the capturing thread below would make
//! any other multiprocess test in the same binary fork under the lock.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use uat_fiber::MultiProcessRunner;
use uat_model::{Action, Workload};

/// Runs of the panicking workload.
const RUNS: usize = 5;
/// How long one failing run may take; a healthy one takes milliseconds.
const DEADLINE: Duration = Duration::from_secs(30);

/// A workload whose every non-root task panics.
#[derive(Clone)]
struct PanicChild;

impl Workload for PanicChild {
    type Desc = u32;
    fn root(&self) -> u32 {
        0
    }
    fn program(&self, d: &u32, out: &mut Vec<Action<u32>>) {
        assert_eq!(*d, 0, "deliberate task panic");
        out.extend([Action::Spawn(1), Action::JoinAll]);
    }
    fn frame_size(&self, _d: &u32) -> u64 {
        64
    }
    fn name(&self) -> String {
        "panic-child".into()
    }
}

/// SIGKILL every child process of this one (what a hung run leaves
/// behind), found through `/proc/self/task/*/children`.
fn kill_children() {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        for pid in children.split_whitespace().filter_map(|p| p.parse().ok()) {
            // SAFETY: signalling a child process of this test.
            unsafe { libc::kill(pid, libc::SIGKILL) };
        }
    }
}

#[test]
fn worker_task_panic_fails_the_run_while_the_parent_captures_backtraces() {
    if let Err(e) = MultiProcessRunner::probe_support() {
        eprintln!("skipping multiprocess test: {e}");
        return;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let capturer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Capturing and resolving both hold the backtrace lock.
                std::hint::black_box(std::backtrace::Backtrace::force_capture().to_string());
            }
        })
    };
    let (tx, rx) = mpsc::channel();
    let runs = std::thread::spawn(move || {
        for _ in 0..RUNS {
            let failed = catch_unwind(|| MultiProcessRunner::new(2).run(PanicChild)).is_err();
            if tx.send(failed).is_err() {
                return;
            }
        }
    });
    let outcome = (0..RUNS).try_for_each(|run| match rx.recv_timeout(DEADLINE) {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!(
            "run {run}: a worker's task panic did not fail the run"
        )),
        Err(_) => Err(format!("run {run} hung: no outcome within {DEADLINE:?}")),
    });
    stop.store(true, Ordering::Relaxed);
    match &outcome {
        // A hung run's thread never returns: free its workers instead.
        Err(_) => kill_children(),
        Ok(()) => runs.join().expect("runs thread"),
    }
    capturer.join().expect("capturing thread");
    outcome.unwrap();
}
