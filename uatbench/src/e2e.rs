//! End-to-end mode: untraced runs of one workload's tree on every
//! backend, timed from outside the program.

use crate::host;
use crate::runs::{self, AnyTree, BenchTree, Generated, Plan, RealRun, SimRun, Tally, CONFIGS};
use crate::stats::{median, Summary};
use crate::Metric;
use std::time::{Duration, Instant};

/// One-task runs per backend for `setup_s`; the median counts.
const SETUP_REPS: usize = 15;

/// Full-tree simulations per run: enough to compare two bit for bit.
/// The engine's host speed is a per-layer metric, not an end-to-end
/// one: host slow spells moved it by up to 60% between runs, against
/// about 20% for the real backends, beyond any usable bound.
const SIM_RUNS: usize = 2;

pub fn run(tree: &AnyTree, plan: Plan, tally: &mut Tally) -> Vec<Metric> {
    match tree {
        AnyTree::Btc(g) => measure(g, plan, tally),
        AnyTree::Uts(g) => measure(g, plan, tally),
    }
}

fn measure<W: BenchTree>(g: &Generated<W>, plan: Plan, tally: &mut Tally) -> Vec<Metric> {
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);

    // --- fixed cost of a run: the one-task tree on every backend ---
    let one = runs::one_task();
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let n = tally.record(runs::run_real(&one.w, CONFIGS[1], &one.truth));
        let m = tally.record(runs::run_real(&one.w, CONFIGS[3], &one.truth));
        let s = tally.record(runs::run_sim(&one, plan));
        if let (Some(n), Some(m), Some(s)) = (n, m, s) {
            setup.push(n.wall_s + m.wall_s + s.new_s);
        }
    }

    // --- the tree's simulation, checked for determinism ---
    let mut sims: Vec<SimRun> = Vec::new();
    let mut first_stats: Option<String> = None;
    for _ in 0..SIM_RUNS {
        let Some(s) = tally.record(runs::run_sim(g, plan)) else {
            continue;
        };
        let json = uat_base::ToJson::to_json(&s.stats).to_string();
        let same = *first_stats.get_or_insert_with(|| json.clone()) == json;
        // The determinism check counts as its own attempted operation.
        let checked = same
            .then_some(s)
            .ok_or_else(|| "sim RunStats differ between two runs of one seed".to_string());
        sims.extend(tally.record(checked));
    }

    // --- real backends in turn until the time is spent, so slow spells
    // of a shared host fall on all of them alike ---
    let mut samples: Vec<Vec<RealRun>> = CONFIGS.iter().map(|_| Vec::new()).collect();
    let mut rounds = runs::Rounds::new(deadline);
    while rounds.another(1) {
        for (cfg, out) in CONFIGS.iter().zip(&mut samples) {
            out.extend(tally.record(runs::run_real(&g.w, *cfg, &g.truth)));
        }
    }

    // --- report ---
    let mut metrics = Vec::new();
    let units = g.truth.units as f64;
    for (cfg, out) in CONFIGS.iter().zip(&samples) {
        if out.is_empty() {
            continue;
        }
        let rates: Vec<f64> = out.iter().map(|r| units / r.wall_s).collect();
        let steals: Vec<f64> = out.iter().map(|r| r.stats.steals as f64).collect();
        println!(
            "{:<10} units/s {}  steals median={:.0}",
            cfg.name(),
            Summary::of(&rates).line(|v| format!("{v:.4e}")),
            median(&steals)
        );
        metrics.push(Metric::new(
            format!("{}.units_per_s", cfg.name()),
            median(&rates),
            "units/s",
        ));
    }
    let mut peak_mib = host::peak_rss_mib().unwrap_or(0.0);
    if let Some(s) = sims.first() {
        let model = s.stats.throughput();
        println!(
            "{:<10} events={} engine events/s={:.4e} model units/s={model:.6e}",
            "sim",
            s.stats.events,
            s.stats.events as f64 / s.run_s,
        );
        metrics.push(Metric::new("sim.model_units_per_s", model, "units/s"));
        peak_mib = sims.iter().map(|s| s.hwm_mib).fold(peak_mib, f64::max);
    }
    if !setup.is_empty() {
        println!(
            "setup      one-task native+mp runs plus Engine::new, s {}",
            Summary::of(&setup).line(|v| format!("{v:.5}")),
        );
        metrics.push(Metric::new("setup_s", median(&setup), "s"));
    }
    if peak_mib > 0.0 {
        metrics.push(Metric::new("peak_rss_mb", peak_mib, "MiB"));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_end_to_end_reports_every_metric() {
        for name in runs::WORKLOADS {
            let tree = runs::generate(name, 3, Plan::TINY.sizes).expect("tiny tree");
            let mut tally = Tally::default();
            let metrics = run(&tree, Plan::TINY, &mut tally);
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.errors);
            let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            for (want, unit) in crate::END_TO_END {
                let m = metrics.iter().find(|m| m.name == *want);
                let m = m.unwrap_or_else(|| panic!("{name}: {want} missing from {got:?}"));
                assert_eq!(m.unit, *unit);
                assert!(m.value.is_finite() && m.value > 0.0, "{name}: {want}");
            }
            assert_eq!(metrics.len(), crate::END_TO_END.len());
        }
    }
}
