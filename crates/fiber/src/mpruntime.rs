//! The multiprocess uni-address backend: one **process** per worker,
//! the paper's actual deployment model, as a first-class runtime.
//!
//! The scheduler is [`crate::sched`]'s, the same one the thread runtime
//! runs; this module is its process `Placement` plus the coordinator.
//! [`ipc`](crate::ipc) demonstrates the mechanism once (fork + fixed
//! mapping + one steal); this module makes it a driver. The coordinator
//! (parent) creates a single `memfd` and maps it `MAP_SHARED` at
//! [`MP_BASE`] with `MAP_FIXED_NOREPLACE` **before forking**, so every
//! worker process inherits *the same physical pages at the same virtual
//! address* — the uni-address region. Everything the protocol touches
//! lives inside it:
//!
//! - the **THE deques** ([`uat_deque::ShmDeque`] placement blocks at the
//!   canonical `uat_deque::layout` offsets, one per worker);
//! - every **fiber stack** (fixed slots with guard pages), so a
//!   continuation's frames are already present in the thief's address
//!   space — a cross-process steal is deque atomics plus
//!   `resume_context`, zero messages *and* zero copies (the shared
//!   mapping is the transfer; compare [`ipc`](crate::ipc), where
//!   private mappings force a real `process_vm_readv`);
//! - each task's **record** and **program area** (at its slot's stack
//!   top) and its parent's **join cell** (a local on the parent's
//!   stack), so no private-heap pointer is ever reachable from a
//!   migratable stack (invariant [I16]);
//! - the interpreter's **tally** rows (per-worker accounting cells);
//! - the **metrics segment** ([`uat_metrics::shm`] layout), per-worker
//!   counter cells the parent reads back through
//!   [`uat_rdma::OneSidedFabric`] windows — per-worker metrics export
//!   with no RPC;
//! - the **control block**: the root's join cell, the shutdown flag,
//!   and the slot free list.
//!
//! A steal is therefore exactly the paper's: one-sided loads/stores/CAS
//! on the victim's deque words, a one-sided `fetch_sub` when a
//! completing child departs from a (possibly remote) parent's join cell,
//! and a direct resume of the stolen thread at its original address.
//!
//! # Fork safety (invariant [I15])
//!
//! The test harness that forks us is multithreaded, so a child may not
//! allocate or take any lock between `fork` and its worker-loop entry
//! (another thread could hold the allocator lock at fork time; glibc's
//! `fork` re-initialises malloc, but the runtime does not rely on it
//! during the window). The bootstrap path (`mp_bootstrap`) touches
//! only shared-region atomics and per-process statics; `uat-lint`'s
//! `fork-safety` rule scans it (and its callees) for alloc/lock
//! constructs, and the `mp_fork_safety` integration test counts
//! allocations across the window with a probing global allocator.
//! After the worker loop is entered, allocation is permitted (task
//! programs expand through a transient `Vec` that never survives a
//! migration point, per [I16]).
//!
//! # Per-process state
//!
//! The scheduler's per-worker state (identity, scheduler context, the
//! retire/join hand-off) lives in a per-process `static` behind the
//! `#[inline(never)]` accessor `mp_proc`. The indirection is
//! load-bearing exactly like the thread runtime's TLS accessor: a fiber
//! migrates *between processes* at every suspension point, and any
//! value loaded before the switch and kept in a callee-saved register
//! is restored from the context record with the *previous* process's
//! value. Every access after a potential migration re-derives through
//! the opaque call.

use crate::ntrace::WorkerTracer;
use crate::sched::{self, Env, JoinCell, NativeRunStats, Placement, Prog, TallyRow, Task, Worker};
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::addr_of_mut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use uat_base::WorkerId;
use uat_deque::{RawDeque, ShmDeque, StealPhases};
use uat_model::Workload;
use uat_rdma::{OneSidedFabric, ShmFabric};

/// Fixed virtual address of the multiprocess uni-address region (same
/// in every worker process; distinct from [`crate::ipc::UNI_BASE`] so
/// the two demonstrations can coexist in one test binary).
pub const MP_BASE: usize = 0x7e00_0000_0000;

const PAGE: usize = 4096;
/// Entries per worker deque (matches the thread runtime's sizing).
const DEQ_CAP: usize = 8192;
/// Bytes above each slot's stack for the task's program area — sized
/// for the widest paper program (a `Chain::fig10(n)` root emits `2n`
/// 16-byte actions). The mapping is sparse, so unused program pages
/// cost nothing.
const PROG_BYTES: usize = 128 << 10;
/// Hard cap on worker processes (sizes the control block).
pub const MAX_WORKERS: usize = 64;

// Per-worker cells of the exported metrics segment. Indices MUST match
// `uat_metrics::shm::SEGMENT_COUNTERS` order (asserted by a test below)
// so the parent-side snapshot names each cell correctly.
const MC_HEARTBEATS: usize = 0;
const MC_STEALS_COMPLETED: usize = 1;
const MC_STEALS_FAILED: usize = 2;
const MC_PARKS: usize = 3;
const MC_UNPARKS: usize = 4;
const MC_TASKS: usize = 5;
const MC_STRIDE: usize = 8;

/// Shared control block, at the very start of the region.
#[repr(C)]
struct Ctrl {
    /// TTAS spinlock guarding the slot free list.
    slot_lock: AtomicU64,
    /// Head of the slot free list (index + 1; 0 = exhausted).
    slot_head: AtomicU64,
    /// Coordinator → workers: exit your scheduler loop.
    shutdown_flag: AtomicU64,
    /// The coordinator's join on the root task.
    root: JoinCell,
    /// Per-worker allocation count observed across the fork-safety
    /// window, written once at worker-loop entry (0 when no probe is
    /// installed; see [`set_bootstrap_alloc_probe`]).
    bootstrap_allocs: [AtomicU64; MAX_WORKERS],
}

const _: () = assert!(std::mem::size_of::<Ctrl>() <= PAGE);

/// Byte map of the region: every address any process computes comes
/// from this (pure arithmetic on `MP_BASE`), which is what makes the
/// layout a uni-address contract rather than per-process bookkeeping.
#[derive(Clone, Copy, Debug)]
struct RegionLayout {
    workers: usize,
    slots: usize,
    /// Whole slot: guard page + stack + program area.
    slot_size: usize,
    metrics_off: usize,
    tally_off: usize,
    deques_off: usize,
    slots_off: usize,
    total: usize,
}

fn round_page(b: usize) -> usize {
    b.div_ceil(PAGE) * PAGE
}

impl RegionLayout {
    fn new(workers: usize, slots: usize, stack_size: usize) -> RegionLayout {
        assert!((1..=MAX_WORKERS).contains(&workers));
        assert!(slots > workers, "need at least one slot per worker");
        let metrics_off = PAGE;
        let tally_off = metrics_off + round_page(workers * MC_STRIDE * 8);
        let tally_rows = (workers + 1) * std::mem::size_of::<TallyRow>();
        let deques_off = tally_off + round_page(tally_rows);
        let slots_off = deques_off + round_page(workers * ShmDeque::block_size(DEQ_CAP));
        let slot_size = PAGE + round_page(stack_size) + PROG_BYTES;
        RegionLayout {
            workers,
            slots,
            slot_size,
            metrics_off,
            tally_off,
            deques_off,
            slots_off,
            total: slots_off + slots * slot_size,
        }
    }

    fn ctrl(&self) -> &'static Ctrl {
        // SAFETY: [I16] the control block heads the live mapping, which
        // outlives every use (the coordinator unmaps only after reaping).
        unsafe { &*(MP_BASE as *const Ctrl) }
    }

    fn metrics_cell_addr(&self, w: usize, c: usize) -> usize {
        debug_assert!(w < self.workers && c < MC_STRIDE);
        MP_BASE + self.metrics_off + (w * MC_STRIDE + c) * 8
    }

    /// The interpreter tally (`workers + 1` rows, zeroed by the mapping).
    fn tally(&self) -> *const TallyRow {
        (MP_BASE + self.tally_off) as *const TallyRow
    }

    /// Worker `w`'s deque handle (any process may make any worker's
    /// handle — thieves do).
    fn deque(&self, w: usize) -> ShmDeque {
        debug_assert!(w < self.workers);
        let base = MP_BASE + self.deques_off + w * ShmDeque::block_size(DEQ_CAP);
        // SAFETY: [I14] the block is inside the zero-initialised shared
        // mapping (same virtual address in every process), 8-byte
        // aligned by construction, and only ever accessed through
        // THE-protocol operations.
        unsafe { ShmDeque::from_raw(base as *mut u8, DEQ_CAP) }
    }

    fn slot_base(&self, slot: usize) -> usize {
        debug_assert!(slot < self.slots);
        MP_BASE + self.slots_off + slot * self.slot_size
    }

    /// Top of the slot's stack == base of its program area. The task
    /// record sits just below it.
    fn slot_stack_top(&self, slot: usize) -> usize {
        self.slot_base(slot) + self.slot_size - PROG_BYTES
    }

    /// The free-list link of a free slot (first word of its program
    /// area).
    fn free_link(&self, slot: usize) -> &'static AtomicU64 {
        // SAFETY: [I16] an 8-aligned word inside the live mapping; while
        // the slot is free, only the free list (under its lock) uses it.
        unsafe { &*(self.slot_stack_top(slot) as *const AtomicU64) }
    }
}

// ---------------------------------------------------------------------
// The process placement.
// ---------------------------------------------------------------------

/// The process placement's per-worker state: the region's layout and
/// every worker's deque handle, built at bootstrap without allocating.
pub(crate) struct Procs {
    worker: usize,
    layout: RegionLayout,
    deques: [Option<ShmDeque>; MAX_WORKERS],
}

impl Procs {
    fn new(worker: usize, layout: RegionLayout) -> Procs {
        Procs {
            worker,
            layout,
            deques: std::array::from_fn(|w| (w < layout.workers).then(|| layout.deque(w))),
        }
    }

    /// Bump one of this worker's metrics-segment cells.
    fn count(&self, c: usize) {
        // SAFETY: [I16] the cell address comes from the layout, inside
        // the live mapping.
        let cell = unsafe { &*(self.layout.metrics_cell_addr(self.worker, c) as *const AtomicU64) };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// The worker process's state. Plain per-process memory: every worker
/// process is single-threaded, and the parent never touches it.
static mut MP_PROC: Option<Worker<Procs>> = None;

/// Re-derive the per-process worker. `inline(never)` is load-bearing for
/// the same reason as the thread runtime's TLS accessor (see the module
/// docs): fibers resume in *other processes*, where this static holds
/// different values, so no load may be CSE'd across a context switch.
#[inline(never)]
fn mp_proc() -> *mut Worker<Procs> {
    // SAFETY: [I15] MP_PROC is written once during single-threaded
    // bootstrap and only ever accessed from that process's only thread.
    match unsafe { &mut *addr_of_mut!(MP_PROC) } {
        Some(p) => p as *mut Worker<Procs>,
        None => panic!("multiprocess operation outside a worker process"),
    }
}

impl Placement for Procs {
    /// The task's stack slot.
    type Own = usize;

    fn worker() -> *mut Worker<Procs> {
        mp_proc()
    }

    fn workers(&self) -> usize {
        self.layout.workers
    }

    fn deque(&self, v: usize) -> &RawDeque<u64> {
        self.deques[v].as_ref().expect("deque of a live worker")
    }

    fn shutting_down(&self) -> bool {
        self.layout.ctrl().shutdown_flag.load(Ordering::Acquire) != 0
    }

    fn alloc(&mut self) -> (usize, *mut u8) {
        let slot = alloc_slot(&self.layout);
        (slot, self.layout.slot_stack_top(slot) as *mut u8)
    }

    fn free(&mut self, slot: usize) {
        free_slot(&self.layout, slot);
    }

    fn program_area(&self, slot: &usize) -> Option<(*mut u8, usize)> {
        Some((self.layout.slot_stack_top(*slot) as *mut u8, PROG_BYTES))
    }

    fn task_panicked() -> ! {
        // The coordinator turns the exit status into a run failure.
        // eprintln! would take the stderr lock, which another parent
        // thread may have held at fork time — only async-signal-safe
        // calls are allowed here, so write(2) raw.
        let msg = b"uat-fiber(mp): task panicked; worker exiting\n";
        // SAFETY: [I10] async-signal-safe raw write + process exit.
        unsafe {
            libc::write(2, msg.as_ptr() as *const c_void, msg.len());
            libc::_exit(101)
        }
    }

    fn on_steal(&mut self, _victim: usize, ok: bool, _phases: Option<&StealPhases>) {
        self.count(if ok {
            MC_STEALS_COMPLETED
        } else {
            MC_STEALS_FAILED
        });
    }

    fn on_loop(&mut self) {
        self.count(MC_HEARTBEATS);
    }

    fn on_park(&mut self) {
        self.count(MC_PARKS);
    }

    fn on_unpark(&mut self) {
        self.count(MC_UNPARKS);
    }

    fn on_task_begin(&mut self) -> u64 {
        self.count(MC_TASKS);
        0
    }
}

// ---------------------------------------------------------------------
// Slot free list (spinlock + links through the free slots).
// ---------------------------------------------------------------------

fn lock_slots(ctrl: &Ctrl) {
    loop {
        if ctrl.slot_lock.load(Ordering::Relaxed) == 0
            && ctrl
                .slot_lock
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        std::hint::spin_loop();
    }
}

fn unlock_slots(ctrl: &Ctrl) {
    ctrl.slot_lock.store(0, Ordering::Release);
}

fn alloc_slot(layout: &RegionLayout) -> usize {
    let ctrl = layout.ctrl();
    lock_slots(ctrl);
    let head = ctrl.slot_head.load(Ordering::Relaxed);
    if head == 0 {
        unlock_slots(ctrl);
        panic!(
            "multiprocess stack slot pool exhausted ({} slots)",
            layout.slots
        );
    }
    let idx = (head - 1) as usize;
    let next = layout.free_link(idx).load(Ordering::Relaxed);
    ctrl.slot_head.store(next, Ordering::Relaxed);
    unlock_slots(ctrl);
    idx
}

/// Return a dead slot (its task completed and control left its stack).
fn free_slot(layout: &RegionLayout, idx: usize) {
    let ctrl = layout.ctrl();
    lock_slots(ctrl);
    layout
        .free_link(idx)
        .store(ctrl.slot_head.load(Ordering::Relaxed), Ordering::Relaxed);
    ctrl.slot_head.store(idx as u64 + 1, Ordering::Relaxed);
    unlock_slots(ctrl);
}

// ---------------------------------------------------------------------
// Fork-safety probe (test hook).
// ---------------------------------------------------------------------

/// Probe function installed by [`set_bootstrap_alloc_probe`], as a raw
/// fn pointer (0 = none). Inherited by workers across `fork`.
static BOOTSTRAP_PROBE: AtomicU64 = AtomicU64::new(0);

/// Install an allocation-count probe (e.g. a counting global
/// allocator's counter read). Each worker samples it immediately after
/// `fork` and again at worker-loop entry; the difference — which must
/// be 0 — lands in the shared control block and is reported as
/// [`MpReport::bootstrap_allocs`]. The probe must itself be
/// allocation-free and async-fork-safe (a plain atomic read).
pub fn set_bootstrap_alloc_probe(probe: fn() -> u64) {
    BOOTSTRAP_PROBE.store(probe as usize as u64, Ordering::SeqCst);
}

fn probe_allocs() -> u64 {
    let p = BOOTSTRAP_PROBE.load(Ordering::SeqCst);
    if p == 0 {
        return 0;
    }
    // SAFETY: [I15] p was stored from a `fn() -> u64` pointer by
    // `set_bootstrap_alloc_probe` in the pre-fork parent; fn pointers
    // survive fork unchanged.
    let f: fn() -> u64 = unsafe { std::mem::transmute::<usize, fn() -> u64>(p as usize) };
    f()
}

// ---------------------------------------------------------------------
// The worker process.
// ---------------------------------------------------------------------

/// Worker bootstrap: everything between `fork` and the scheduler loop,
/// then the loop itself. Worker 0 seeds `root`. Never returns — the
/// worker process leaves via `_exit(0)`.
///
/// **Fork-safety window [I15]**: from entry until the probe delta is
/// recorded, this path must not allocate, take any lock, or call
/// anything that might (the parent is multithreaded; another thread may
/// hold the allocator lock at fork time). `uat-lint`'s `fork-safety`
/// rule enforces the discipline statically over this function and its
/// direct callees (the shared scheduler loop among them); the
/// `mp_fork_safety` test enforces it dynamically.
unsafe fn mp_bootstrap(id: usize, layout: RegionLayout, root: Option<*mut Task<Procs>>) -> ! {
    let before = probe_allocs();
    // SAFETY: [I15] single-threaded fresh child; first and only
    // initialisation of this process's state. In-place write, no heap.
    unsafe {
        let trace = WorkerTracer::new(None, id);
        *addr_of_mut!(MP_PROC) = Some(Worker::new(id, Procs::new(id, layout), trace));
    }
    layout.ctrl().bootstrap_allocs[id]
        .store(probe_allocs().wrapping_sub(before), Ordering::Release);
    // Window closed: from here on allocation is permitted again.
    sched::worker_loop(root);
    // SAFETY: [I10] _exit skips atexit handlers and destructors — the
    // worker owns nothing outside the shared region worth destructing,
    // and must not run the parent's cloned cleanup.
    unsafe { libc::_exit(0) }
}

// ---------------------------------------------------------------------
// The coordinator-side driver.
// ---------------------------------------------------------------------

/// One multiprocess run's full report: the backend-invariant stats plus
/// the fork-safety probe readings and the raw metrics-segment cells the
/// parent read back through its fabric windows.
#[derive(Clone, Debug)]
pub struct MpReport {
    /// Same accounting as a [`NativeRunner`](crate::NativeRunner) run.
    pub stats: NativeRunStats,
    /// Allocations each worker observed between `fork` and worker-loop
    /// entry (all 0 unless a probe caught a fork-safety regression).
    pub bootstrap_allocs: Vec<u64>,
    /// The metrics segment's cells, worker-major with
    /// `uat_metrics::shm` layout, read via `uat_rdma::OneSidedFabric`.
    pub metric_words: Vec<u64>,
}

#[cfg(feature = "metrics")]
impl MpReport {
    /// The run's metrics as an ordinary registry snapshot.
    pub fn metrics_snapshot(&self) -> uat_metrics::Snapshot {
        uat_metrics::shm::SegmentLayout::new(self.stats.workers as usize)
            .snapshot(&self.metric_words)
    }
}

/// Serialises multiprocess runs within one OS process: the region lives
/// at a fixed virtual address, so two concurrent runs (e.g. parallel
/// `cargo test` threads) would collide on `MAP_FIXED_NOREPLACE`.
static MP_RUN_LOCK: Mutex<()> = Mutex::new(());

/// Driver that runs any [`Workload`] on the multiprocess uni-address
/// backend — same interface shape as [`NativeRunner`](crate::NativeRunner),
/// with `W::Desc: Copy` (descriptors cross process boundaries as plain
/// bytes in the shared region).
#[derive(Clone, Debug)]
pub struct MultiProcessRunner {
    workers: usize,
    stack_size: usize,
    work_divisor: u64,
    slots: usize,
}

impl MultiProcessRunner {
    /// A runner with `workers` worker processes.
    pub fn new(workers: usize) -> Self {
        assert!(
            (1..=MAX_WORKERS).contains(&workers),
            "1..={MAX_WORKERS} workers"
        );
        MultiProcessRunner {
            workers,
            stack_size: 128 << 10,
            work_divisor: 1,
            slots: 1024,
        }
    }

    /// Override the per-task usable stack bytes (default 128 KiB).
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Divide every `Work(c)` spin by `div` (accounting still records
    /// the full `c`), as the differential tests do.
    pub fn with_work_divisor(mut self, div: u64) -> Self {
        assert!(div >= 1);
        self.work_divisor = div;
        self
    }

    /// Override the stack-slot count (default 1024). Bounds the
    /// simultaneously live tasks, exactly as the paper's fixed-size
    /// uni-address region bounds them.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Probe whether this host can run the multiprocess backend: a
    /// `memfd` + `MAP_FIXED_NOREPLACE` mapping at [`MP_BASE`] must
    /// succeed. Returns the reason when it cannot (callers should treat
    /// that as "skip", mirroring the ipc probes).
    pub fn probe_support() -> Result<(), String> {
        // Serialize with live runs: the probe maps a page at MP_BASE,
        // so an unlocked probe can both fail spuriously against a
        // concurrent run's mapping (silently skipping tests) and make
        // that run's own MAP_FIXED_NOREPLACE fail.
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        map_region(PAGE).map(|_| drop(Mapped(PAGE)))
    }

    /// Run `w` to completion across worker processes; panics on
    /// unsupported hosts (use [`try_run`](Self::try_run) to skip).
    pub fn run<W>(&self, w: W) -> NativeRunStats
    where
        W: Workload,
        W::Desc: Copy,
    {
        self.try_run(w)
            .expect("multiprocess backend unavailable")
            .stats
    }

    /// Like [`run`](Self::run), additionally returning the run's
    /// metrics snapshot assembled from the shared segment.
    #[cfg(feature = "metrics")]
    pub fn run_metered<W>(&self, w: W) -> (NativeRunStats, uat_metrics::Snapshot)
    where
        W: Workload,
        W::Desc: Copy,
    {
        let report = self.try_run(w).expect("multiprocess backend unavailable");
        let snap = report.metrics_snapshot();
        (report.stats, snap)
    }

    /// Run `w`, reporting `Err` (instead of panicking) when the host
    /// cannot map the region — sandboxes without `memfd_create` or with
    /// the fixed address range occupied.
    pub fn try_run<W>(&self, w: W) -> Result<MpReport, String>
    where
        W: Workload,
        W::Desc: Copy,
    {
        // One multiprocess run at a time per OS process (fixed-address
        // region). A poisoned lock just means another run panicked; its
        // `Mapped` guard unmapped the region on the way out.
        let _guard = MP_RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let layout = RegionLayout::new(self.workers, self.slots, self.stack_size);
        map_region(layout.total)?;
        // Dropped before the lock guard, on unwind too: a panicking run
        // (a dead worker, a task panic) must not leave MP_BASE mapped.
        let _mapped = Mapped(layout.total);
        Ok(self.run_mapped(&layout, w))
    }

    fn run_mapped<W>(&self, layout: &RegionLayout, w: W) -> MpReport
    where
        W: Workload,
        W::Desc: Copy,
    {
        let workload = w.name();
        // Guard pages: PROT_NONE at the low end of every slot,
        // established once before fork and inherited by every worker.
        for s in 0..layout.slots {
            // SAFETY: [I10] each guard page is inside our fresh mapping.
            let rc = unsafe {
                libc::mprotect(layout.slot_base(s) as *mut c_void, PAGE, libc::PROT_NONE)
            };
            assert_eq!(rc, 0, "mprotect(slot guard) failed");
        }
        // SAFETY: [I16] pre-fork, single-threaded initialisation of the
        // freshly mapped (zeroed) control block: a zeroed cell would not
        // count the coordinator as the root's joiner.
        unsafe { std::ptr::addr_of_mut!((*(MP_BASE as *mut Ctrl)).root).write(JoinCell::new()) };
        let ctrl = layout.ctrl();
        ctrl.root.add_child();
        // Free list: slots 1..N (slot 0 is the root's).
        for s in 1..layout.slots {
            let next = if s + 1 < layout.slots {
                s as u64 + 2
            } else {
                0
            };
            layout.free_link(s).store(next, Ordering::Relaxed);
        }
        // Head: slot index 1.
        ctrl.slot_head.store(2, Ordering::Relaxed);

        // The workload and the root's record, written pre-fork: every
        // worker inherits them at the same address (the environment as
        // copy-on-write heap and stack, the record in the region).
        let env = Env {
            w,
            divisor: self.work_divisor,
            tally: layout.tally(),
        };
        let root = Prog {
            env: &env,
            desc: env.w.root(),
        };
        let top = layout.slot_stack_top(0) as *mut u8;
        let body = sched::exec::<Procs, W>;
        // SAFETY: [I6][I16] slot 0 is fresh and reserved for the root;
        // the root cell lives in the control block.
        let root = unsafe { sched::new_task(0usize, top, &ctrl.root, 0, body, root) };

        // Flush inherited stdio buffers so workers cannot re-emit them.
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let _ = std::io::stderr().flush();

        let t0 = std::time::Instant::now();
        let mut pids = Vec::with_capacity(layout.workers);
        for id in 0..layout.workers {
            // SAFETY: [I10][I15] fork; the child immediately enters the
            // alloc-free, lock-free bootstrap path and leaves via
            // _exit, never returning into this function's frame.
            let pid = unsafe { libc::fork() };
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                // ----- worker process -----
                let seed = (id == 0).then_some(root);
                // SAFETY: [I15] fresh single-threaded child.
                let exit = catch_unwind(AssertUnwindSafe(|| unsafe {
                    mp_bootstrap(id, *layout, seed)
                }));
                // Reached only if bootstrap/scheduler panicked.
                let _ = exit;
                // SAFETY: [I10] async-signal-safe process exit.
                unsafe { libc::_exit(102) }
            }
            pids.push(pid);
        }

        // Coordinate: wait for the tree, then stop the workers.
        let mut poll = 0u64;
        while !ctrl.root.all_done() {
            poll += 1;
            if poll.is_multiple_of(200) {
                // A worker dying early (panic → _exit(101/102), or a
                // signal) would hang the run; detect and fail fast.
                for &pid in &pids {
                    let mut status = 0;
                    // SAFETY: [I10] non-blocking status poll of our own
                    // child.
                    let r = unsafe { libc::waitpid(pid, &mut status, libc::WNOHANG) };
                    if r == pid {
                        for &p in &pids {
                            // SAFETY: [I10] killing our own children.
                            unsafe { libc::kill(p, libc::SIGKILL) };
                        }
                        for &p in &pids {
                            // SAFETY: [I10] reaping our own children.
                            unsafe { libc::waitpid(p, std::ptr::null_mut(), 0) };
                        }
                        panic!("multiprocess worker {pid} died mid-run (status {status:#x})");
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        ctrl.shutdown_flag.store(1, Ordering::Release);
        // Reap every worker before judging any of them.
        let statuses: Vec<i32> = pids
            .iter()
            .map(|&pid| {
                let mut status = 0;
                // SAFETY: [I10] blocking reap of our own child.
                let r = unsafe { libc::waitpid(pid, &mut status, 0) };
                assert_eq!(r, pid, "waitpid failed");
                status
            })
            .collect();
        for status in statuses {
            assert!(
                libc::WIFEXITED(status) && libc::WEXITSTATUS(status) == 0,
                "multiprocess worker exited abnormally (status {status:#x})"
            );
        }
        let wall = t0.elapsed();

        // Metrics export, the uni-address way: the parent registers
        // each worker's segment row as that worker's RDMA window and
        // READs the cells through the fabric — per-worker metrics with
        // no RPC and no pipes.
        let mut fabric = ShmFabric::new();
        let mut metric_words = vec![0u64; layout.workers * MC_STRIDE];
        for wk in 0..layout.workers {
            let row = layout.metrics_cell_addr(wk, 0);
            // SAFETY: [I13] the row is inside the live mapping, shared
            // with worker `wk` at this same address; the workers have
            // exited, so no location is concurrently written.
            unsafe {
                fabric
                    .register_region(WorkerId(wk as u32), row as u64, MC_STRIDE * 8)
                    .expect("register metrics window");
            }
            let mut buf = [0u8; MC_STRIDE * 8];
            fabric
                .read(
                    WorkerId(layout.workers as u32),
                    WorkerId(wk as u32),
                    row as u64,
                    &mut buf,
                )
                .expect("fabric read of metrics row");
            for c in 0..MC_STRIDE {
                metric_words[wk * MC_STRIDE + c] =
                    u64::from_le_bytes(buf[c * 8..(c + 1) * 8].try_into().unwrap());
            }
        }
        let msum = |c: usize| -> u64 {
            (0..layout.workers)
                .map(|wk| metric_words[wk * MC_STRIDE + c])
                .sum()
        };
        let bootstrap_allocs = (0..layout.workers)
            .map(|wk| ctrl.bootstrap_allocs[wk].load(Ordering::Acquire))
            .collect();
        // SAFETY: [I16] the tally rows are inside the live mapping, and
        // every worker has exited.
        let tally = unsafe { std::slice::from_raw_parts(layout.tally(), layout.workers + 1) };
        let sched = crate::runtime::SchedStats {
            steals: msum(MC_STEALS_COMPLETED),
            parks: msum(MC_PARKS),
            unparks: msum(MC_UNPARKS),
            wall,
        };
        MpReport {
            stats: NativeRunStats::from_tally(workload, tally, sched),
            bootstrap_allocs,
            metric_words,
        }
    }
}

/// Unmaps the region when dropped — on unwind too.
struct Mapped(usize);

impl Drop for Mapped {
    fn drop(&mut self) {
        // SAFETY: [I10] unmapping exactly what map_region mapped; every
        // worker has been reaped (or killed and reaped), so no process
        // runs on the pages through us (the memfd itself dies with its
        // last mapping).
        unsafe { libc::munmap(MP_BASE as *mut c_void, self.0) };
    }
}

/// Create the memfd-backed shared mapping at [`MP_BASE`]. Errors (not
/// panics) on hosts that cannot, so callers can skip with a reason.
fn map_region(total: usize) -> Result<(), String> {
    // SAFETY: [I10] memfd + MAP_SHARED|MAP_FIXED_NOREPLACE at an
    // address chosen to be free; NOREPLACE turns a collision into an
    // error instead of a clobber. Every result is checked.
    unsafe {
        let fd = libc::syscall(libc::SYS_memfd_create, c"uat-mp-region".as_ptr(), 0u32) as i32;
        if fd < 0 {
            return Err(format!(
                "memfd_create unavailable: {}",
                std::io::Error::last_os_error()
            ));
        }
        if libc::ftruncate(fd, total as libc::off_t) != 0 {
            let e = std::io::Error::last_os_error();
            libc::close(fd);
            return Err(format!("ftruncate({total}) failed: {e}"));
        }
        let p = libc::mmap(
            MP_BASE as *mut c_void,
            total,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_SHARED | libc::MAP_FIXED_NOREPLACE,
            fd,
            0,
        );
        let e = std::io::Error::last_os_error();
        libc::close(fd);
        if p == libc::MAP_FAILED {
            return Err(format!(
                "MAP_FIXED_NOREPLACE at {MP_BASE:#x} failed: {e} \
                 (kernel < 4.17, or the range is occupied)"
            ));
        }
        if p as usize != MP_BASE {
            libc::munmap(p, total);
            return Err("kernel ignored MAP_FIXED_NOREPLACE".into());
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use uat_model::testutil::BinTree;
    use uat_model::Action;

    fn runner(workers: usize) -> MultiProcessRunner {
        MultiProcessRunner::new(workers).with_work_divisor(u64::MAX)
    }

    pub(crate) fn supported() -> bool {
        match MultiProcessRunner::probe_support() {
            Ok(()) => true,
            Err(e) => {
                eprintln!("skipping multiprocess test: {e}");
                false
            }
        }
    }

    /// The metrics-cell indices hard-coded here must match the shared
    /// segment layout the exporter names cells by.
    #[cfg(feature = "metrics")]
    #[test]
    fn metrics_cell_indices_match_segment_layout() {
        use uat_metrics::{names, shm};
        assert_eq!(MC_STRIDE, shm::ROW_STRIDE);
        let expect = [
            (MC_HEARTBEATS, names::HEARTBEATS),
            (MC_STEALS_COMPLETED, names::STEALS_COMPLETED),
            (MC_STEALS_FAILED, names::STEALS_FAILED),
            (MC_PARKS, names::PARKS),
            (MC_UNPARKS, names::UNPARKS),
            (MC_TASKS, names::TASKS),
        ];
        assert_eq!(shm::SEGMENT_COUNTERS.len(), expect.len());
        for (idx, name) in expect {
            assert_eq!(shm::SEGMENT_COUNTERS[idx].0, name, "cell {idx}");
        }
    }

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

    /// A run that panics (here: a worker dies of a task panic) unmaps the
    /// region on its way out, so the next probe and run still work.
    #[test]
    fn panicking_run_unmaps_the_region() {
        if !supported() {
            return;
        }
        let failed = catch_unwind(|| runner(2).run(PanicChild));
        assert!(failed.is_err(), "a worker's task panic must fail the run");
        assert_eq!(MultiProcessRunner::probe_support(), Ok(()));
        let w = BinTree {
            depth: 4,
            work: 10,
            frame: 64,
        };
        assert_eq!(runner(2).run(w).total_tasks, 31);
    }

    #[test]
    fn report_carries_metrics_and_probe() {
        if !supported() {
            return;
        }
        let w = BinTree {
            depth: 5,
            work: 100,
            frame: 128,
        };
        let report = runner(2).try_run(w).unwrap();
        assert_eq!(report.bootstrap_allocs.len(), 2);
        assert!(report.bootstrap_allocs.iter().all(|&a| a == 0));
        // Tasks exported through the fabric-read segment agree with the
        // stats bank.
        let tasks: u64 = (0..2)
            .map(|wk| report.metric_words[wk * MC_STRIDE + MC_TASKS])
            .sum();
        assert_eq!(tasks, report.stats.total_tasks);
        #[cfg(feature = "metrics")]
        {
            let snap = report.metrics_snapshot();
            assert_eq!(snap.total(uat_metrics::names::TASKS), tasks);
        }
    }
}
