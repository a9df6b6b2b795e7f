//! The workloads' task trees, and runs on each backend checked against
//! the sequential ground truth.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use uat_base::{FromJson, Json, SplitMix64, ToJson};
use uat_cluster::{Engine, RunStats, SimConfig};
use uat_fiber::{MultiProcessRunner, NativeRunStats, NativeRunner};
use uat_model::{sequential_profile, Action, SeqProfile, Workload};
use uat_workloads::{Btc, Uts};

/// A task tree every backend can run: the multiprocess backend copies
/// descriptors between processes, so they must be `Copy`.
pub trait BenchTree:
    Workload<Desc: Copy + Send + Sync + 'static> + Clone + Send + Sync + 'static
{
}
impl<W> BenchTree for W where
    W: Workload<Desc: Copy + Send + Sync + 'static> + Clone + Send + Sync + 'static
{
}

/// Tree and machine sizes. [`Sizes::FULL`] is what the benchmark runs;
/// tests use [`Sizes::TINY`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// BTC depth (with `iter = 2`: `(4^(d+1) - 1) / 3` tasks).
    pub btc_depth: u32,
    /// UTS cutoff depth.
    pub uts_cutoff: u32,
    /// Accepted UTS tree sizes in nodes, inclusive.
    pub uts_nodes: (u64, u64),
    /// Simulated FX10 nodes (15 workers each).
    pub sim_nodes: u32,
    /// Operations per batch of a per-layer micro-benchmark.
    pub micro_ops: u64,
}

impl Sizes {
    /// BTC(10, 2) has 1.4M tasks, about a second per configuration on
    /// one 2 GHz core. UTS cutoff-11 trees span 0 to about 840K nodes
    /// by seed; the band keeps every seed's tree within a factor of two
    /// (and far from the trees that die out near the root), so run
    /// length and parallelism do not swing with the seed.
    pub const FULL: Sizes = Sizes {
        btc_depth: 10,
        uts_cutoff: 11,
        uts_nodes: (400_000, 800_000),
        sim_nodes: 4,
        micro_ops: 1_000_000,
    };

    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        btc_depth: 3,
        uts_cutoff: 4,
        uts_nodes: (10, 400),
        sim_nodes: 1,
        micro_ops: 2_000,
    };
}

/// How one invocation runs: for how long, at what sizes, and where
/// simulations execute.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seconds: f64,
    pub sizes: Sizes,
    pub sim_host: SimHost,
}

impl Plan {
    /// Tiny trees, simulations in this process, one round: for tests.
    #[cfg(test)]
    pub const TINY: Plan = Plan {
        seconds: 0.0,
        sizes: Sizes::TINY,
        sim_host: SimHost::InProcess,
    };
}

/// Spin cycles per UTS node: the paper-calibrated `Uts::geometric`
/// default, kept explicit because the workload's character rests on it.
const UTS_WORK_PER_NODE: u64 = 3_000;

/// Candidate UTS root seeds tried before giving up on the size band.
const UTS_MAX_TRIES: u32 = 1_000;

/// A generated tree with its ground truth.
pub struct Generated<W> {
    pub w: W,
    pub truth: SeqProfile,
    /// Seconds the ground-truth traversal took.
    pub profile_s: f64,
    /// Human-readable provenance: parameters, seeds, size.
    pub label: String,
    /// Seed of the simulator's victim selection.
    pub sim_seed: u64,
    /// The tree's parameters, enough to rebuild it in another process.
    pub spec: TreeSpec,
}

/// A tree's parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeSpec {
    Btc { depth: u32 },
    Uts { cutoff: u32, root_seed: u32 },
}

impl TreeSpec {
    fn args(self) -> [String; 3] {
        match self {
            TreeSpec::Btc { depth } => ["btc".into(), depth.to_string(), "0".into()],
            TreeSpec::Uts { cutoff, root_seed } => {
                ["uts".into(), cutoff.to_string(), root_seed.to_string()]
            }
        }
    }

    fn parse(args: &[String]) -> Result<TreeSpec, String> {
        let num = |i: usize| -> Result<u32, String> {
            let a = args.get(i).ok_or("tree spec too short")?;
            a.parse().map_err(|e| format!("tree spec `{a}`: {e}"))
        };
        match args.first().map(String::as_str) {
            Some("btc") => Ok(TreeSpec::Btc { depth: num(1)? }),
            Some("uts") => Ok(TreeSpec::Uts {
                cutoff: num(1)?,
                root_seed: num(2)?,
            }),
            _ => Err(format!("bad tree spec {args:?}")),
        }
    }
}

fn uts(cutoff: u32, root_seed: u32) -> Uts {
    Uts {
        seed: root_seed,
        work_per_node: UTS_WORK_PER_NODE,
        ..Uts::geometric(cutoff)
    }
}

pub enum AnyTree {
    Btc(Generated<Btc>),
    Uts(Generated<Uts>),
}

pub const WORKLOADS: [&str; 2] = ["btc", "uts"];

/// Build `workload`'s tree from the benchmark `seed`. BTC is fixed by
/// its size; UTS takes its root seed from the first candidate, in a
/// sequence derived from `seed`, whose tree falls in the size band.
pub fn generate(workload: &str, seed: u64, sizes: Sizes) -> Result<AnyTree, String> {
    let mut rng = SplitMix64::new(seed);
    let sim_seed = rng.next_u64();
    match workload {
        "btc" => Ok(AnyTree::Btc(btc_tree(sizes.btc_depth, sim_seed))),
        "uts" => {
            let first = rng.next_u64() as u32;
            for k in 0..UTS_MAX_TRIES {
                let w = uts(sizes.uts_cutoff, first.wrapping_add(k));
                let t0 = Instant::now();
                let truth = sequential_profile(&w);
                let profile_s = t0.elapsed().as_secs_f64();
                if (sizes.uts_nodes.0..=sizes.uts_nodes.1).contains(&truth.units) {
                    let spec = TreeSpec::Uts {
                        cutoff: sizes.uts_cutoff,
                        root_seed: w.seed,
                    };
                    return Ok(AnyTree::Uts(Generated {
                        label: format!(
                            "{} root_seed={} nodes={} tasks={} (candidate {} from seed {seed})",
                            w.name(),
                            w.seed,
                            truth.units,
                            truth.tasks,
                            k + 1
                        ),
                        w,
                        truth,
                        profile_s,
                        sim_seed,
                        spec,
                    }));
                }
            }
            Err(format!(
                "no UTS root seed in {UTS_MAX_TRIES} candidates gave a tree of {}..={} nodes",
                sizes.uts_nodes.0, sizes.uts_nodes.1
            ))
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Native,
    Mp,
}

/// One real-backend configuration.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    pub backend: Backend,
    pub workers: usize,
}

/// Every configuration the benchmark times: both real backends at one
/// worker (the per-task path, no steals) and at two (the steal path).
/// Two workers never exceed a 2-CPU host's `nproc`.
pub const CONFIGS: [Cfg; 4] = [
    Cfg {
        backend: Backend::Native,
        workers: 1,
    },
    Cfg {
        backend: Backend::Native,
        workers: 2,
    },
    Cfg {
        backend: Backend::Mp,
        workers: 1,
    },
    Cfg {
        backend: Backend::Mp,
        workers: 2,
    },
];

impl Cfg {
    /// Metric prefix, e.g. `native.w2`.
    pub fn name(&self) -> String {
        let b = match self.backend {
            Backend::Native => "native",
            Backend::Mp => "mp",
        };
        format!("{b}.w{}", self.workers)
    }
}

/// One checked real-backend run.
pub struct RealRun {
    /// The whole runner call, timed from outside (fork included).
    pub wall_s: f64,
    pub stats: NativeRunStats,
    /// Multiprocess metrics-segment cells (empty for native runs).
    pub metric_words: Vec<u64>,
}

/// Run `w` on `cfg` and check tasks, units and join fingerprint against
/// `truth`. A mismatch, an error, a panic or a dead worker process is an
/// `Err` describing it.
pub fn run_real<W: BenchTree>(w: &W, cfg: Cfg, truth: &SeqProfile) -> Result<RealRun, String> {
    let w = w.clone();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| match cfg.backend {
        Backend::Native => Ok((NativeRunner::new(cfg.workers).run(w), Vec::new())),
        Backend::Mp => MultiProcessRunner::new(cfg.workers)
            .try_run(w)
            .and_then(|rep| {
                if rep.bootstrap_allocs.iter().any(|&a| a != 0) {
                    return Err(format!(
                        "worker allocated between fork and loop entry: {:?}",
                        rep.bootstrap_allocs
                    ));
                }
                Ok((rep.stats, rep.metric_words))
            }),
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let (stats, metric_words) = out
        .map_err(|p| format!("{} panicked: {}", cfg.name(), panic_text(&*p)))?
        .map_err(|e| format!("{} failed: {e}", cfg.name()))?;
    check_real(&stats, truth).map_err(|e| format!("{} output wrong: {e}", cfg.name()))?;
    Ok(RealRun {
        wall_s,
        stats,
        metric_words,
    })
}

pub fn check_real(s: &NativeRunStats, truth: &SeqProfile) -> Result<(), String> {
    let pairs = [
        ("tasks", s.total_tasks, truth.tasks),
        ("units", s.total_units, truth.units),
        (
            "join fingerprint",
            s.join_fingerprint,
            truth.join_fingerprint,
        ),
        ("work cycles", s.total_work_cycles, truth.work_cycles),
    ];
    for (what, got, want) in pairs {
        if got != want {
            return Err(format!("{what} {got} != sequential {want}"));
        }
    }
    Ok(())
}

/// One checked simulator run.
pub struct SimRun {
    /// `Engine::new` seconds: the machine build every run pays.
    pub new_s: f64,
    /// `Engine::run` seconds.
    pub run_s: f64,
    /// Peak resident set of the process the run had to itself, in MiB
    /// (0 for a run inside the benchmark process).
    pub hwm_mib: f64,
    pub stats: RunStats,
}

/// Where simulator runs execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimHost {
    /// A fresh child process per run. The engine allocates hundreds of
    /// MiB of zeroed memory; in a long-lived process the allocator keeps
    /// it, which made later engine runs up to twice as slow and every
    /// later `fork` of the multiprocess backend three times as slow.
    Child,
    /// This process (tiny trees in tests).
    #[cfg(test)]
    InProcess,
}

/// Flag that makes the benchmark binary run one simulation and print it.
pub const SIM_CHILD_FLAG: &str = "--sim-child";

pub fn run_sim<W: BenchTree>(g: &Generated<W>, plan: Plan) -> Result<SimRun, String> {
    let nodes = plan.sizes.sim_nodes;
    let run = match plan.sim_host {
        #[cfg(test)]
        SimHost::InProcess => catch_unwind(AssertUnwindSafe(|| {
            simulate(g.w.clone(), nodes, g.sim_seed)
        }))
        .map_err(|p| format!("sim panicked: {}", panic_text(&*p)))?,
        SimHost::Child => sim_in_child(g.spec, nodes, g.sim_seed)?,
    };
    let st = &run.stats;
    if st.total_tasks != g.truth.tasks
        || st.total_units != g.truth.units
        || st.total_work_cycles != g.truth.work_cycles
    {
        return Err(format!(
            "sim output wrong: tasks {} units {} work {} != sequential {} {} {}",
            st.total_tasks,
            st.total_units,
            st.total_work_cycles,
            g.truth.tasks,
            g.truth.units,
            g.truth.work_cycles
        ));
    }
    Ok(run)
}

fn simulate<W: BenchTree>(w: W, sim_nodes: u32, sim_seed: u64) -> SimRun {
    let t0 = Instant::now();
    let engine = Engine::new(SimConfig::fx10(sim_nodes).with_seed(sim_seed), w);
    let new_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stats = engine.run();
    SimRun {
        new_s,
        run_s: t1.elapsed().as_secs_f64(),
        hwm_mib: 0.0,
        stats,
    }
}

fn sim_in_child(spec: TreeSpec, sim_nodes: u32, sim_seed: u64) -> Result<SimRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg(SIM_CHILD_FLAG)
        .args(spec.args())
        .args([sim_nodes.to_string(), sim_seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start sim child: {e}"))?;
    if !out.status.success() {
        return Err(format!("sim child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(text.trim()).map_err(|e| format!("sim child output: {e}"))?;
    let num = |k: &str| {
        doc.field(k)
            .and_then(Json::as_f64)
            .map_err(|e| e.to_string())
    };
    Ok(SimRun {
        new_s: num("new_s")?,
        run_s: num("run_s")?,
        hwm_mib: num("hwm_mib")?,
        stats: doc
            .field("stats")
            .and_then(RunStats::from_json)
            .map_err(|e| format!("sim child stats: {e}"))?,
    })
}

/// Body of a sim child: `args` are the tree spec, simulated nodes and
/// victim-selection seed. Prints one JSON line.
pub fn sim_child_main(args: &[String]) -> Result<(), String> {
    let spec = TreeSpec::parse(args)?;
    let rest = args.get(3..5).ok_or("sim child needs nodes and seed")?;
    let sim_nodes: u32 = rest[0].parse().map_err(|e| format!("nodes: {e}"))?;
    let sim_seed: u64 = rest[1].parse().map_err(|e| format!("seed: {e}"))?;
    let run = match spec {
        TreeSpec::Btc { depth } => simulate(btc_tree(depth, sim_seed).w, sim_nodes, sim_seed),
        TreeSpec::Uts { cutoff, root_seed } => {
            simulate(uts(cutoff, root_seed), sim_nodes, sim_seed)
        }
    };
    let doc = Json::Obj(vec![
        ("new_s".into(), Json::Num(run.new_s)),
        ("run_s".into(), Json::Num(run.run_s)),
        (
            "hwm_mib".into(),
            Json::Num(crate::host::peak_rss_mib().unwrap_or(0.0)),
        ),
        ("stats".into(), run.stats.to_json()),
    ]);
    println!("{doc}");
    Ok(())
}

/// BTC with `iter = 2` (every internal task spawns four children).
fn btc_tree(depth: u32, sim_seed: u64) -> Generated<Btc> {
    let w = Btc::new(depth, 2);
    let t0 = Instant::now();
    let truth = sequential_profile(&w);
    Generated {
        label: format!("{} tasks={} (seed ignored)", w.name(), truth.tasks),
        w,
        truth,
        profile_s: t0.elapsed().as_secs_f64(),
        sim_seed,
        spec: TreeSpec::Btc { depth },
    }
}

/// The one-task tree: running it costs what a run pays that does not
/// grow with its tree.
pub fn one_task() -> Generated<Btc> {
    btc_tree(0, 0)
}

/// The tree run by a plain serial interpreter: depth-first traversal,
/// spinning each `Work` on the timestamp counter, with no runtime, no
/// deque and no stacks. Returns the units it counted.
pub fn serial_interpret<W: Workload>(w: &W) -> u64 {
    let mut stack = vec![w.root()];
    let mut prog = Vec::new();
    let mut units = 0;
    while let Some(d) = stack.pop() {
        units += w.units(&d);
        prog.clear();
        w.program(&d, &mut prog);
        for a in prog.drain(..) {
            match a {
                Action::Work(c) => uat_fiber::tsc::spin_cycles(c),
                Action::Spawn(child) => stack.push(child),
                Action::JoinAll => {}
            }
        }
    }
    units
}

/// Paces measurement rounds against a deadline: a round starts only if
/// it is expected to end less than half a round past the deadline, so a
/// run's length stays near its budget whatever a round costs.
pub struct Rounds {
    deadline: Instant,
    done: u32,
    last_start: Option<Instant>,
}

impl Rounds {
    pub fn new(deadline: Instant) -> Rounds {
        Rounds {
            deadline,
            done: 0,
            last_start: None,
        }
    }

    /// Whether to run another round; always yes for the first `min`.
    pub fn another(&mut self, min: u32) -> bool {
        let now = Instant::now();
        let last = self.last_start.map(|t| now - t).unwrap_or_default();
        let go = self.done < min || now + last / 2 < self.deadline;
        if go {
            self.done += 1;
            self.last_start = Some(now);
        }
        go
    }
}

/// Failure accounting for one benchmark invocation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one attempted run; keep its value or record its failure.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                println!("FAILED: {e}");
                self.errors.push(e);
                None
            }
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}
