//! The ledger: layer costs times their counts, set against measured
//! wall time.
//!
//! Each real-backend configuration spends `workers × wall` worker-seconds.
//! The ledger charges the layers it can price from outside the program —
//! spin work, task expansion, per-task runtime cost, steals — and leaves
//! the rest as the residual: idle and parked time, contention, cache
//! misses, and whatever a layer costs inside a run beyond what its
//! isolated micro-benchmark shows. The residual is reported, never
//! folded into a layer.

/// Worker-seconds charged to each priced layer in one configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Charges {
    /// Spinning the tree's `Work` cycles.
    pub work_s: f64,
    /// Expanding task programs (`Workload::program` and bookkeeping).
    pub expand_s: f64,
    /// Creating, scheduling and joining tasks.
    pub task_s: f64,
    /// Stealing.
    pub steal_s: f64,
}

/// Shares of `workers × wall`; they sum to 1 with the residual.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ledger {
    pub work: f64,
    pub expand: f64,
    pub task: f64,
    pub steal: f64,
    pub residual: f64,
}

impl Ledger {
    pub fn new(workers: u32, wall_s: f64, c: Charges) -> Ledger {
        assert!(
            workers > 0 && wall_s > 0.0,
            "ledger needs a positive budget"
        );
        let budget = f64::from(workers) * wall_s;
        let (work, expand, task, steal) = (
            c.work_s / budget,
            c.expand_s / budget,
            c.task_s / budget,
            c.steal_s / budget,
        );
        Ledger {
            work,
            expand,
            task,
            steal,
            residual: 1.0 - (work + expand + task + steal),
        }
    }

    pub fn fields(&self) -> [(&'static str, f64); 5] {
        [
            ("work_frac", self.work),
            ("expand_frac", self.expand),
            ("task_frac", self.task),
            ("steal_frac", self.steal),
            ("residual_frac", self.residual),
        ]
    }
}

/// Parallel efficiency of a `workers`-worker throughput against the
/// 1-worker throughput of the same backend.
pub fn efficiency(w1_units_per_s: f64, wn_units_per_s: f64, workers: u32) -> f64 {
    wn_units_per_s / (f64::from(workers) * w1_units_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_residual_sum_to_one() {
        let l = Ledger::new(
            2,
            1.0,
            Charges {
                work_s: 0.5,
                expand_s: 0.25,
                task_s: 0.75,
                steal_s: 0.1,
            },
        );
        assert_eq!(l.work, 0.25);
        assert_eq!(l.expand, 0.125);
        assert_eq!(l.task, 0.375);
        assert_eq!(l.steal, 0.05);
        assert!((l.residual - 0.2).abs() < 1e-12);
        let sum: f64 = l.fields().iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overcharged_ledger_shows_negative_residual() {
        let l = Ledger::new(
            1,
            1.0,
            Charges {
                task_s: 1.5,
                ..Charges::default()
            },
        );
        assert_eq!(l.residual, -0.5);
    }

    #[test]
    fn efficiency_of_perfect_and_no_scaling() {
        assert_eq!(efficiency(100.0, 200.0, 2), 1.0);
        assert_eq!(efficiency(100.0, 100.0, 2), 0.5);
    }
}
