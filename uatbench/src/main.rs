//! The repository's benchmark: one workload's task tree on the native,
//! multiprocess and simulator backends, every output checked against the
//! sequential ground truth.
//!
//! ```text
//! uatbench --workload <btc|uts> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced runs and prints the end-to-end metrics.
//! `--trace 1` prints the per-layer metrics and the ledger, and writes
//! the benchmark's spans as Chrome trace JSON to `out/` beside this
//! package's manifest. Human-readable lines come first; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! only when every run's output was correct and every metric was
//! measured. See README.md for the workloads and metrics.

mod e2e;
mod host;
mod layers;
mod ledger;
mod runs;
mod spans;
mod stats;

use runs::{Plan, SimHost, Sizes, Tally};
use spans::Spans;
use std::process::ExitCode;
use uat_base::Json;

/// End-to-end metrics and their units, as `BENCHMARK.json` declares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("native.w1.units_per_s", "units/s"),
    ("native.w2.units_per_s", "units/s"),
    ("mp.w1.units_per_s", "units/s"),
    ("mp.w2.units_per_s", "units/s"),
    ("sim.model_units_per_s", "units/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers that span self times are reported for.
const SPAN_LAYERS: [&str; 10] = [
    "workloads",
    "tsc",
    "deque",
    "fiber.create",
    "fiber.stack",
    "fiber.runtime",
    "fiber.mp",
    "cluster",
    "rdma",
    "bench",
];

/// Per-layer metrics and their units, as `BENCHMARK.json` declares them.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("workloads.expand_ns_per_task", "ns"),
        ("serial.units_per_s", "units/s"),
        ("tsc.hz", "Hz"),
        ("tsc.spin_error_frac", "frac"),
        ("deque.native.push_pop_ns", "ns"),
        ("deque.native.steal_ns", "ns"),
        ("deque.native.steal_empty_ns", "ns"),
        ("deque.native.steal_check_ns", "ns"),
        ("deque.native.steal_lock_ns", "ns"),
        ("deque.native.steal_take_unlock_ns", "ns"),
        ("deque.shm.push_pop_ns", "ns"),
        ("deque.shm.steal_ns", "ns"),
        ("fiber.create.uniaddr_cycles", "cycles"),
        ("fiber.create.stackpool_cycles", "cycles"),
        ("fiber.create.seqcall_cycles", "cycles"),
        ("fiber.stack.new_us", "us"),
        ("fiber.stack.pool_take_put_ns", "ns"),
        ("fiber.runtime.spawn_join_ns", "ns"),
        ("native.setup_ms", "ms"),
        ("mp.setup_ms", "ms"),
        ("trace.overhead_frac", "frac"),
        ("metrics.overhead_frac", "frac"),
        ("native.w2.work_frac", "frac"),
        ("native.w2.spawn_frac", "frac"),
        ("native.w2.suspend_frac", "frac"),
        ("native.w2.steal_frac", "frac"),
        ("native.w2.idle_frac", "frac"),
        ("native.w2.steal_ok_ratio", "frac"),
        ("native.w2.steal_p50_ns", "ns"),
        ("native.w2.steal_p99_ns", "ns"),
        ("native.w2.park_p50_us", "us"),
        ("native.w2.steals_per_mtask", "1/Mtask"),
        ("native.w2.parks_per_s", "1/s"),
        ("native.w2.unpark_ratio", "frac"),
        ("mp.w2.steals_per_mtask", "1/Mtask"),
        ("mp.w2.parks_per_s", "1/s"),
        ("mp.w2.steal_ok_ratio", "frac"),
        ("sim.engine.events_per_s", "events/s"),
        ("sim.events", "count"),
        ("sim.steal_attempts", "count"),
        ("sim.steal_ok_ratio", "frac"),
        ("sim.idle_frac", "frac"),
        ("sim.peak_stack_bytes", "bytes"),
        ("sim.setup_ms", "ms"),
        ("sim.heap.push_pop_ns", "ns"),
        ("sim.fabric.read_ns", "ns"),
        ("run.failed_ratio", "frac"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for cfg in runs::CONFIGS {
        for field in ["work", "expand", "task", "steal", "residual"] {
            v.push((format!("ledger.{}.{field}_frac", cfg.name()), "frac"));
        }
    }
    v.push(("ledger.native.efficiency".into(), "frac"));
    v.push(("ledger.mp.efficiency".into(), "frac"));
    for layer in SPAN_LAYERS {
        v.push((format!("span.{layer}.self_s"), "s"));
    }
    v
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(bad(&"must be between 0 and 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Check `metrics` against the declared list: every declared name once,
/// with its unit, finite, and nothing undeclared. Returns the problems.
fn check_declared(metrics: &[Metric], declared: &[(String, &'static str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for m in metrics {
        if !stats::valid_metric_name(&m.name) {
            problems.push(format!("invalid metric name `{}`", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
        }
        match declared.iter().find(|(n, _)| *n == m.name) {
            None => problems.push(format!("{} is not declared", m.name)),
            Some((_, u)) if *u != m.unit => {
                problems.push(format!("{} has unit {} not {u}", m.name, m.unit))
            }
            Some(_) => {}
        }
    }
    for (n, _) in declared {
        match metrics.iter().filter(|m| m.name == *n).count() {
            0 => problems.push(format!("{n} was not measured")),
            1 => {}
            k => problems.push(format!("{n} reported {k} times")),
        }
    }
    problems
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> Json {
    let m = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(tally.attempted)),
        ("failed".into(), Json::UInt(tally.failed)),
        ("metrics".into(), Json::Obj(m)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(runs::SIM_CHILD_FLAG) {
        return match runs::sim_child_main(&argv[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: uatbench --workload <btc|uts> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    for (k, v) in host::fingerprint() {
        println!("host.{k}: {v}");
    }
    // The multiprocess backend needs memfd and a fixed-address mapping;
    // without them its metrics cannot be measured, which is a failed
    // benchmark, never a pass.
    if let Err(reason) = uat_fiber::MultiProcessRunner::probe_support() {
        println!("SKIPPED multiprocess backend: {reason}");
        eprintln!("error: multiprocess backend unavailable: {reason}");
        return ExitCode::FAILURE;
    }
    let plan = Plan {
        seconds: args.seconds,
        sizes: Sizes::FULL,
        sim_host: SimHost::Child,
    };
    let tree = match runs::generate(&args.workload, args.seed, plan.sizes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (label, profile_s) = match &tree {
        runs::AnyTree::Btc(g) => (&g.label, g.profile_s),
        runs::AnyTree::Uts(g) => (&g.label, g.profile_s),
    };
    println!(
        "workload {}: {label}; ground truth in {profile_s:.3}s; seed {}; {} s; trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut tally = Tally::default();
    let (metrics, declared) = if args.trace {
        let mut sp = Spans::new(args.seed);
        let mut metrics = sp.time("bench", format!("trace run {}", args.workload), |sp| {
            layers::run(&tree, plan, &mut tally, sp)
        });
        let self_s = sp.self_seconds();
        for layer in SPAN_LAYERS {
            let s = self_s.get(layer).copied().unwrap_or(0.0);
            println!("span self time {layer:<14} {s:.4}s");
            metrics.push(Metric::new(format!("span.{layer}.self_s"), s, "s"));
        }
        metrics.push(Metric::new(
            "run.failed_ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "frac",
        ));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, sp.to_chrome_json().to_string()));
        match written {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), sp.spans().len()),
            Err(e) => println!("spans: not written to {}: {e}", path.display()),
        }
        (metrics, per_layer())
    } else {
        let metrics = e2e::run(&tree, plan, &mut tally);
        let declared = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect::<Vec<_>>();
        (metrics, declared)
    };

    for m in &metrics {
        println!("{:<40} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    let problems = check_declared(&metrics, &declared);
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = tally.failed == 0 && problems.is_empty();
    println!("{}", result_json(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and order of metrics in `BENCHMARK.json` are the
    /// ones this program prints.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(|v| v.as_arr().map(<[Json]>::to_vec))
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.field(k).and_then(|v| v.as_str().map(String::from));
                    (s("name").expect("name"), s("unit").expect("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let all: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        for n in &all {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn check_declared_flags_missing_extra_and_bad_units() {
        let declared = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let ok = [Metric::new("a", 1.0, "s"), Metric::new("b", 2.0, "ms")];
        assert!(check_declared(&ok, &declared).is_empty());
        let bad = [
            Metric::new("a", f64::NAN, "ms"),
            Metric::new("c d", 1.0, "s"),
        ];
        let p = check_declared(&bad, &declared);
        assert!(p.iter().any(|s| s.contains("a has unit ms")));
        assert!(p.iter().any(|s| s.contains("a is not finite")));
        assert!(p.iter().any(|s| s.contains("invalid metric name `c d`")));
        assert!(p.iter().any(|s| s.contains("b was not measured")));
    }
}
