//! Host fingerprint and process memory readings.

use uat_fiber::{ClockSource, RunClock};

/// What a result depends on besides the code: printed with every run so
/// two entries from different hosts or builds are never compared blind.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let clock = RunClock::start();
    let source = match clock.source() {
        ClockSource::Tsc => "tsc",
        ClockSource::Instant => "instant",
    };
    vec![
        ("cpu", cpu),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("kernel", kernel),
        ("clock_hz", format!("{:.0}", clock.hz())),
        ("clock_source", source.into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        // The manifest compiles uat-fiber with both hook sets; the traced
        // run needs them, untraced runs leave them dormant.
        ("fiber_features", "trace,metrics".into()),
    ]
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
