//! Unwinding stops cleanly at a fiber's stack top: `switch_stack_and_call`
//! marks the return address undefined right after it moves the stack
//! pointer, so an unwinder walking a fiber's frames ends there instead of
//! applying the old stack's CFI to the new stack — which reads whatever
//! lies above the fresh stack pointer as a return address, and faults
//! when that is unmapped.
//!
//! Its own test binary on purpose: capturing a backtrace holds std's
//! process-wide backtrace lock, and a multiprocess worker forked while
//! another thread holds it would inherit the lock held forever.

use uat_fiber::{spawn, Runtime};

#[test]
fn backtrace_inside_a_spawned_fiber_ends_at_the_stack_switch() {
    let text = Runtime::new(1)
        .run(|| spawn(|| std::backtrace::Backtrace::force_capture().to_string()).join());
    // Frame lines look like `  12: switch_stack_and_call`.
    let frames: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim_start().split_once(": "))
        .filter(|(n, _)| n.chars().all(|c| c.is_ascii_digit()))
        .map(|(_, f)| f)
        .collect();
    assert!(
        frames.iter().any(|f| f.contains("child_main")),
        "backtrace lost the fiber's frames:\n{text}"
    );
    assert!(
        frames
            .last()
            .is_some_and(|f| f.contains("switch_stack_and_call")),
        "unwinding ran past the fiber's stack top:\n{text}"
    );
}
