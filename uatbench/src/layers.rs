//! Traced mode: per-layer metrics, each timed around calls into a
//! layer's public functions or read from the public stats of runs, and
//! the ledger that sets them against measured wall time.

use crate::ledger::{efficiency, Charges, Ledger};
use crate::runs::{self, AnyTree, Backend, BenchTree, Generated, Plan, RealRun, Tally, CONFIGS};
use crate::spans::Spans;
use crate::stats::median;
use crate::Metric;
use std::hint::black_box;
use std::time::{Duration, Instant};
use uat_base::{CostModel, Cycles, Topology, WorkerId};
use uat_cluster::EventHeap;
use uat_deque::{NativeDeque, ShmDeque};
use uat_fiber::{
    measure_creation, spawn, tsc, CreationStrategy, NativeRunner, NativeTrace, RunClock, Runtime,
    Stack, StackPool,
};
use uat_metrics::{names, shm::SegmentLayout, Snapshot};
use uat_rdma::Fabric;
use uat_trace::Bucket;

/// Entries a deque micro-benchmark fills and drains per batch.
const DEQUE_CAP: usize = 4096;
/// Batches per micro-benchmark; the median batch is reported.
const BATCHES: usize = 7;
/// Spin length per call when checking `tsc::spin_cycles` (one UTS
/// node's work).
const SPIN_CYCLES: u64 = 3_000;
/// Usable bytes of a task stack, as both real runtimes default to.
const STACK_BYTES: usize = 128 << 10;

/// Median over [`BATCHES`] of nanoseconds per operation, where `batch`
/// performs `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and first-touch pages
    let xs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&xs)
}

pub fn run(tree: &AnyTree, plan: Plan, tally: &mut Tally, sp: &mut Spans) -> Vec<Metric> {
    match tree {
        AnyTree::Btc(g) => measure(g, plan, tally, sp),
        AnyTree::Uts(g) => measure(g, plan, tally, sp),
    }
}

/// Output accumulator: metric lines as they are measured.
struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }
}

fn measure<W: BenchTree>(
    g: &Generated<W>,
    plan: Plan,
    tally: &mut Tally,
    sp: &mut Spans,
) -> Vec<Metric> {
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    let mut o = Out(Vec::new());
    let hz = RunClock::start().hz();

    sim_layers(g, plan, tally, sp, &mut o);

    // --- uat-workloads / uat-model ---
    let tasks = g.truth.tasks as f64;
    let expand_s: Vec<f64> = (0..3)
        .map(|_| {
            sp.time("workloads", "sequential_profile", |_| {
                let t0 = Instant::now();
                black_box(uat_model::sequential_profile(&g.w));
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    let expand_ns = median(&expand_s) / tasks * 1e9;
    o.put("workloads.expand_ns_per_task", expand_ns, "ns");
    let (serial_units, serial_s) = sp.time("workloads", "serial_interpret", |_| {
        let t0 = Instant::now();
        let u = runs::serial_interpret(&g.w);
        (u, t0.elapsed().as_secs_f64())
    });
    let serial_ok = (serial_units == g.truth.units)
        .then_some(())
        .ok_or_else(|| format!("serial interpreter counted {serial_units} units"));
    tally.record(serial_ok);
    o.put(
        "serial.units_per_s",
        g.truth.units as f64 / serial_s,
        "units/s",
    );

    // --- uat-fiber::tsc ---
    o.put("tsc.hz", hz, "Hz");
    let spins = 20_000u64;
    let spin_s = sp.time("tsc", "spin_cycles", |_| {
        let t0 = Instant::now();
        for _ in 0..spins {
            tsc::spin_cycles(black_box(SPIN_CYCLES));
        }
        t0.elapsed().as_secs_f64()
    });
    let expected = (spins * SPIN_CYCLES) as f64 / hz;
    o.put("tsc.spin_error_frac", spin_s / expected - 1.0, "frac");

    let ops = plan.sizes.micro_ops;
    deque_layers(hz, ops, sp, &mut o);
    fiber_layers(ops, sp, &mut o);

    // --- fixed cost of a real run ---
    let one = runs::one_task();
    for (cfg, name) in [(CONFIGS[1], "native.setup_ms"), (CONFIGS[3], "mp.setup_ms")] {
        let walls: Vec<f64> = (0..9)
            .filter_map(|_| {
                let r = sp.time(span_layer(cfg.backend), "one-task run", |_| {
                    runs::run_real(&one.w, cfg, &one.truth)
                });
                tally.record(r).map(|r| r.wall_s * 1e3)
            })
            .collect();
        if !walls.is_empty() {
            o.put(name, median(&walls), "ms");
        }
    }

    // --- instrumented native runs ---
    let steal_cost_cycles = native_instrumented(g, hz, tally, sp, &mut o);

    // --- untraced rounds for the ledger and the runs' own stats ---
    let mut samples: Vec<Vec<RealRun>> = CONFIGS.iter().map(|_| Vec::new()).collect();
    let mut rounds = runs::Rounds::new(deadline);
    while rounds.another(1) {
        for (cfg, out) in CONFIGS.iter().zip(&mut samples) {
            let r = sp.time(span_layer(cfg.backend), cfg.name(), |_| {
                runs::run_real(&g.w, *cfg, &g.truth)
            });
            out.extend(tally.record(r));
        }
    }
    run_stats(&samples, &mut o);

    // --- the ledger ---
    let val = |o: &Out, n: &str| o.0.iter().find(|m| m.name == n).map(|m| m.value);
    let shm_pp = val(&o, "deque.shm.push_pop_ns").unwrap_or(0.0);
    let shm_steal = val(&o, "deque.shm.steal_ns").unwrap_or(0.0);
    let stackpool_ns = val(&o, "fiber.create.stackpool_cycles").unwrap_or(0.0) / hz * 1e9;
    let spawn_join_ns = val(&o, "fiber.runtime.spawn_join_ns").unwrap_or(0.0);
    let mp_ok = val(&o, "mp.w2.steal_ok_ratio").filter(|r| *r > 0.0);
    let mut rates = [0.0; 4];
    println!("ledger (shares of workers x wall; residual = unpriced time, idle included)");
    for (i, (cfg, out)) in CONFIGS.iter().zip(&samples).enumerate() {
        if out.is_empty() {
            continue;
        }
        let wall = median(&out.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let steals = median(
            &out.iter()
                .map(|r| r.stats.steals as f64)
                .collect::<Vec<_>>(),
        );
        rates[i] = g.truth.units as f64 / wall;
        // Per-task and per-successful-steal prices. Native: the measured
        // spawn/join loop, and the metered run's steal latency summed
        // over all attempts per success. Multiprocess: its deque ops plus
        // a context switch onto a fresh stack, and its steal op scaled
        // by attempts per success.
        let (task_ns, steal_ns) = match cfg.backend {
            Backend::Native => (spawn_join_ns, steal_cost_cycles / hz * 1e9),
            Backend::Mp => (
                shm_pp + stackpool_ns,
                mp_ok.map_or(0.0, |ok| shm_steal / ok),
            ),
        };
        let l = Ledger::new(
            cfg.workers as u32,
            wall,
            Charges {
                work_s: g.truth.work_cycles as f64 / hz,
                expand_s: tasks * expand_ns * 1e-9,
                task_s: tasks * task_ns * 1e-9,
                steal_s: steals * steal_ns * 1e-9,
            },
        );
        let mut line = format!("  {:<10} wall={wall:.4}s", cfg.name());
        for (field, v) in l.fields() {
            line += &format!(" {field}={v:.3}");
            o.put(&format!("ledger.{}.{field}", cfg.name()), v, "frac");
        }
        println!("{line}");
    }
    for (backend, w1, w2) in [("native", 0, 1), ("mp", 2, 3)] {
        if rates[w1] > 0.0 && rates[w2] > 0.0 {
            let e = efficiency(rates[w1], rates[w2], 2);
            println!("  {backend:<10} efficiency w2/(2*w1)={e:.3}");
            o.put(&format!("ledger.{backend}.efficiency"), e, "frac");
        }
    }
    o.0
}

fn span_layer(b: Backend) -> &'static str {
    match b {
        Backend::Native => "fiber.runtime",
        Backend::Mp => "fiber.mp",
    }
}

fn sim_layers<W: BenchTree>(
    g: &Generated<W>,
    plan: Plan,
    tally: &mut Tally,
    sp: &mut Spans,
    o: &mut Out,
) {
    let r = sp.time("cluster", "Engine::new+run", |_| runs::run_sim(g, plan));
    if let Some(s) = tally.record(r) {
        let st = &s.stats;
        let idle: u64 = st
            .per_worker
            .iter()
            .map(|w| w.account.get(Bucket::Idle).get())
            .sum();
        let total: u64 = st.per_worker.iter().map(|w| w.account.total().get()).sum();
        o.put(
            "sim.engine.events_per_s",
            st.events as f64 / s.run_s,
            "events/s",
        );
        o.put("sim.events", st.events as f64, "count");
        o.put("sim.steal_attempts", st.steal_attempts as f64, "count");
        o.put(
            "sim.steal_ok_ratio",
            st.steals_completed as f64 / st.steal_attempts.max(1) as f64,
            "frac",
        );
        o.put("sim.idle_frac", idle as f64 / total.max(1) as f64, "frac");
        o.put("sim.peak_stack_bytes", st.peak_stack_usage as f64, "bytes");
        o.put("sim.setup_ms", s.new_s * 1e3, "ms");
    }
    let workers = Topology::fx10(plan.sizes.sim_nodes).total_workers() as usize;
    let ops = plan.sizes.micro_ops;
    let heap_ns = sp.time("cluster", "EventHeap push+pop", |_| {
        let mut h = EventHeap::new(workers);
        for w in 0..workers {
            h.push(w as u32, w as u64);
        }
        ns_per_op(ops, || {
            for i in 0..ops {
                let (t, w) = h.pop().expect("heap keeps every worker queued");
                h.push(w, t + 1 + (i.wrapping_mul(0x9E37_79B9) >> 20) % 4096);
            }
        })
    });
    o.put("sim.heap.push_pop_ns", heap_ns, "ns");
    let read_ns = sp.time("rdma", "Fabric::read 32B", |_| {
        let mut f = Fabric::new(Topology::new(2, 1), CostModel::fx10());
        f.register(WorkerId(1), 0x10_000, 1 << 16)
            .expect("fresh fabric accepts the registration");
        let mut buf = [0u8; 32];
        ns_per_op(ops, || {
            for _ in 0..ops {
                let done = f.read(Cycles(0), WorkerId(0), WorkerId(1), 0x10_000, &mut buf);
                black_box(done.expect("registered window"));
            }
        })
    });
    o.put("sim.fabric.read_ns", read_ns, "ns");
}

fn deque_layers(hz: f64, ops: u64, sp: &mut Spans, o: &mut Out) {
    let cap = DEQUE_CAP as u64;
    sp.time("deque", "NativeDeque", |_| {
        let d: NativeDeque<u64> = NativeDeque::new(DEQUE_CAP);
        let pp = ns_per_op(ops, || {
            for i in 0..ops {
                d.push(black_box(i));
                black_box(d.pop());
            }
        });
        o.put("deque.native.push_pop_ns", pp, "ns");
        let fill = |d: &NativeDeque<u64>| (0..cap).for_each(|i| d.push(i));
        let steal: Vec<f64> = (0..BATCHES)
            .map(|_| {
                fill(&d);
                let t0 = Instant::now();
                for _ in 0..cap {
                    black_box(d.steal());
                }
                t0.elapsed().as_nanos() as f64 / cap as f64
            })
            .collect();
        o.put("deque.native.steal_ns", median(&steal), "ns");
        let empty = ns_per_op(ops, || {
            for _ in 0..ops {
                black_box(d.steal());
            }
        });
        o.put("deque.native.steal_empty_ns", empty, "ns");
        // Table 3 on real hardware: the phases of a successful steal,
        // bracketed by the deque's own clock reads.
        let clock = RunClock::start();
        let mut phase = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..BATCHES {
            fill(&d);
            let mut sum = [0u64; 3];
            for _ in 0..cap {
                let (v, ph) = d.steal_phased(|| clock.now_cycles());
                black_box(v);
                sum[0] += ph.checked.saturating_sub(ph.start);
                sum[1] += ph.locked.saturating_sub(ph.checked);
                sum[2] += ph.end.saturating_sub(ph.locked);
            }
            for (p, s) in phase.iter_mut().zip(sum) {
                p.push(s as f64 / cap as f64 / hz * 1e9);
            }
        }
        for (name, p) in [
            ("deque.native.steal_check_ns", &phase[0]),
            ("deque.native.steal_lock_ns", &phase[1]),
            ("deque.native.steal_take_unlock_ns", &phase[2]),
        ] {
            o.put(name, median(p), "ns");
        }
    });
    sp.time("deque", "ShmDeque", |_| {
        // A zeroed, 8-byte aligned block is an empty unlocked deque.
        let mut block = vec![0u64; ShmDeque::block_size(DEQUE_CAP).div_ceil(8)];
        // SAFETY: `block` is zeroed, 8-byte aligned, at least
        // `block_size(DEQUE_CAP)` bytes, lives until the end of this
        // closure (past every use of `d`), and is touched only through
        // `d`'s THE-protocol operations.
        let d = unsafe { ShmDeque::from_raw(block.as_mut_ptr().cast(), DEQUE_CAP) };
        let pp = ns_per_op(ops, || {
            for i in 0..ops {
                d.push(black_box(i));
                black_box(d.pop());
            }
        });
        o.put("deque.shm.push_pop_ns", pp, "ns");
        let steal: Vec<f64> = (0..BATCHES)
            .map(|_| {
                (0..cap).for_each(|i| d.push(i));
                let t0 = Instant::now();
                for _ in 0..cap {
                    black_box(d.steal());
                }
                t0.elapsed().as_nanos() as f64 / cap as f64
            })
            .collect();
        o.put("deque.shm.steal_ns", median(&steal), "ns");
        drop(block);
    });
}

fn fiber_layers(ops: u64, sp: &mut Spans, o: &mut Out) {
    // Table 2: the paper's three creation strategies, in TSC cycles.
    for (s, name) in [
        (CreationStrategy::UniAddr, "fiber.create.uniaddr_cycles"),
        (CreationStrategy::StackPool, "fiber.create.stackpool_cycles"),
        (CreationStrategy::SeqCall, "fiber.create.seqcall_cycles"),
    ] {
        let c = sp.time("fiber.create", s.name(), |_| {
            measure_creation(s, ops / 200, 40)
        });
        o.put(name, c, "cycles");
    }
    sp.time("fiber.stack", "Stack::new", |_| {
        let mut keep = Vec::with_capacity(200);
        let us: Vec<f64> = (0..200)
            .map(|_| {
                let t0 = Instant::now();
                keep.push(Stack::new(STACK_BYTES));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        drop(keep);
        o.put("fiber.stack.new_us", median(&us), "us");
        let mut pool = StackPool::new(STACK_BYTES);
        let ns = ns_per_op(ops, || {
            for _ in 0..ops {
                let s = pool.take();
                pool.put(black_box(s));
            }
        });
        o.put("fiber.stack.pool_take_put_ns", ns, "ns");
    });
    let ns = sp.time("fiber.runtime", "spawn(||()).join() loop", |_| {
        let per: Vec<f64> = (0..3)
            .map(|_| {
                let n = ops / 5;
                let d = Runtime::new(1).run(move || {
                    let t0 = Instant::now();
                    for _ in 0..n {
                        spawn(|| ()).join();
                    }
                    t0.elapsed()
                });
                d.as_nanos() as f64 / n as f64
            })
            .collect();
        median(&per)
    });
    o.put("fiber.runtime.spawn_join_ns", ns, "ns");
}

/// Traced and metered native runs. Returns the native steal price: the
/// metered run's steal-latency cycles over all attempts per successful
/// steal.
fn native_instrumented<W: BenchTree>(
    g: &Generated<W>,
    hz: f64,
    tally: &mut Tally,
    sp: &mut Spans,
    o: &mut Out,
) -> f64 {
    // Hook overhead at one worker, ordered base-traced-metered twice
    // mirrored so drift within the sequence cancels.
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    for hooks in [Hooks::Off, Hooks::Traced, Hooks::Metered] {
        let r = sp.time("fiber.runtime", hooks.call(), |_| timed_native(g, 1, hooks));
        if let Some((s, _)) = tally.record(r) {
            walls[hooks as usize].push(s);
        }
    }
    for hooks in [Hooks::Metered, Hooks::Traced, Hooks::Off] {
        let r = sp.time("fiber.runtime", hooks.call(), |_| timed_native(g, 1, hooks));
        if let Some((s, _)) = tally.record(r) {
            walls[hooks as usize].push(s);
        }
    }
    let [off, traced, metered] = walls.map(|w| (w.len() == 2).then(|| w.iter().sum::<f64>()));
    if let (Some(off), Some(traced), Some(metered)) = (off, traced, metered) {
        println!(
            "hook overhead (native w1, two runs each): untraced {off:.4}s \
             traced {traced:.4}s (+{:.4}s) metered {metered:.4}s (+{:.4}s)",
            traced - off,
            metered - off,
        );
        o.put("trace.overhead_frac", traced / off - 1.0, "frac");
        o.put("metrics.overhead_frac", metered / off - 1.0, "frac");
    }

    let traced = sp.time("fiber.runtime", "run_traced native.w2", |_| {
        timed_native(g, 2, Hooks::Traced)
    });
    if let Some((_, Recorded::Trace(t))) = tally.record(traced) {
        let mut acc = uat_trace::TimeAccount::new();
        t.accounts.iter().for_each(|a| acc.merge(a));
        let total = acc.total().get().max(1) as f64;
        let share =
            |bs: &[Bucket]| bs.iter().map(|b| acc.get(*b).get()).sum::<u64>() as f64 / total;
        o.put("native.w2.work_frac", share(&[Bucket::Work]), "frac");
        o.put("native.w2.spawn_frac", share(&[Bucket::Spawn]), "frac");
        o.put(
            "native.w2.suspend_frac",
            share(&[Bucket::SuspendResume]),
            "frac",
        );
        o.put(
            "native.w2.steal_frac",
            share(&[
                Bucket::StealEmpty,
                Bucket::StealLock,
                Bucket::StealEntry,
                Bucket::StealTransfer,
                Bucket::StealUnlock,
                Bucket::FaaQueue,
            ]),
            "frac",
        );
        o.put("native.w2.idle_frac", share(&[Bucket::Idle]), "frac");
    }

    let metered = sp.time("fiber.runtime", "run_metered native.w2", |_| {
        timed_native(g, 2, Hooks::Metered)
    });
    let Some((_, Recorded::Metrics(snap))) = tally.record(metered) else {
        return 0.0;
    };
    let ok = snap.total(names::STEALS_COMPLETED);
    let failed = snap.total(names::STEALS_FAILED);
    o.put(
        "native.w2.steal_ok_ratio",
        ok as f64 / (ok + failed).max(1) as f64,
        "frac",
    );
    let ns = |c: u64| c as f64 / hz * 1e9;
    let (p50, p99, cost) = snap
        .histogram(names::STEAL_LATENCY)
        .map_or((0.0, 0.0, 0.0), |h| {
            (
                ns(h.quantile(0.5)),
                ns(h.quantile(0.99)),
                h.sum() as f64 / ok.max(1) as f64,
            )
        });
    o.put("native.w2.steal_p50_ns", p50, "ns");
    o.put("native.w2.steal_p99_ns", p99, "ns");
    let park = snap
        .histogram(names::PARK_DURATION)
        .map_or(0.0, |h| ns(h.quantile(0.5)) / 1e3);
    o.put("native.w2.park_p50_us", park, "us");
    cost
}

/// Which of the native runtime's hook sets a run turns on.
#[derive(Clone, Copy)]
enum Hooks {
    Off,
    Traced,
    Metered,
}

impl Hooks {
    fn call(self) -> &'static str {
        match self {
            Hooks::Off => "run",
            Hooks::Traced => "run_traced",
            Hooks::Metered => "run_metered",
        }
    }
}

/// What a native run recorded besides its stats.
enum Recorded {
    Nothing,
    Trace(NativeTrace),
    Metrics(Snapshot),
}

/// One checked native run with `hooks`, timed from outside.
fn timed_native<W: BenchTree>(
    g: &Generated<W>,
    workers: usize,
    hooks: Hooks,
) -> Result<(f64, Recorded), String> {
    let runner = NativeRunner::new(workers);
    let w = g.w.clone();
    let t0 = Instant::now();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match hooks {
        Hooks::Off => (runner.run(w), Recorded::Nothing),
        Hooks::Traced => {
            let (s, t) = runner.run_traced(w);
            (s, Recorded::Trace(t))
        }
        Hooks::Metered => {
            let (s, snap) = runner.run_metered(w);
            (s, Recorded::Metrics(snap))
        }
    }));
    let wall = t0.elapsed().as_secs_f64();
    let (s, rec) = out.map_err(|_| format!("native w{workers} {} panicked", hooks.call()))?;
    runs::check_real(&s, &g.truth)?;
    Ok((wall, rec))
}

/// Counters of the untraced two-worker runs.
fn run_stats(samples: &[Vec<RealRun>], o: &mut Out) {
    for (cfg, out) in CONFIGS.iter().zip(samples) {
        if cfg.workers != 2 || out.is_empty() {
            continue;
        }
        let p = cfg.name();
        let per = |f: &dyn Fn(&RealRun) -> f64| median(&out.iter().map(f).collect::<Vec<_>>());
        o.put(
            &format!("{p}.steals_per_mtask"),
            per(&|r| r.stats.steals as f64 / r.stats.total_tasks as f64 * 1e6),
            "1/Mtask",
        );
        o.put(
            &format!("{p}.parks_per_s"),
            per(&|r| r.stats.parks as f64 / r.wall_s),
            "1/s",
        );
        match cfg.backend {
            Backend::Native => {
                let parks: u64 = out.iter().map(|r| r.stats.parks).sum();
                let unparks: u64 = out.iter().map(|r| r.stats.unparks).sum();
                o.put(
                    "native.w2.unpark_ratio",
                    unparks as f64 / parks.max(1) as f64,
                    "frac",
                );
            }
            Backend::Mp => {
                let (mut ok, mut failed) = (0, 0);
                for r in out {
                    let snap = SegmentLayout::new(cfg.workers).snapshot(&r.metric_words);
                    ok += snap.total(names::STEALS_COMPLETED);
                    failed += snap.total(names::STEALS_FAILED);
                }
                o.put(
                    "mp.w2.steal_ok_ratio",
                    ok as f64 / (ok + failed).max(1) as f64,
                    "frac",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_traced_run_reports_every_layer_metric() {
        for name in runs::WORKLOADS {
            let tree = runs::generate(name, 5, Plan::TINY.sizes).expect("tiny tree");
            let mut tally = Tally::default();
            let mut sp = Spans::new(5);
            let metrics = run(&tree, Plan::TINY, &mut tally, &mut sp);
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.errors);
            // Span self times and the failure ratio are added by `main`.
            for (want, unit) in crate::per_layer() {
                if want.starts_with("span.") || want == "run.failed_ratio" {
                    continue;
                }
                let m = metrics.iter().find(|m| m.name == want);
                let m = m.unwrap_or_else(|| panic!("{name}: {want} missing"));
                assert_eq!(m.unit, unit, "{want}");
                assert!(m.value.is_finite(), "{name}: {want} = {}", m.value);
            }
            let layers = sp.self_seconds();
            for layer in [
                "workloads",
                "deque",
                "fiber.runtime",
                "fiber.mp",
                "cluster",
                "rdma",
            ] {
                assert!(
                    layers.get(layer).is_some_and(|s| *s > 0.0),
                    "{name}: {layer}"
                );
            }
        }
    }
}
