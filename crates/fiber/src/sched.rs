//! The scheduler core both real backends run: one worker loop, one set
//! of trampolines, one child-completion tail, one join protocol and one
//! workload interpreter, generic over a `Placement` — *where* deques,
//! stacks, task records and per-worker state live.
//!
//! The scheduler is the paper's (Figure 4 and Figure 7): child-first on
//! spawn, a FIFO steal from a random victim when the own deque is empty,
//! and a join that checks one word on its fast path and otherwise
//! suspends while its worker finds other work. Two placements implement
//! the seam:
//!
//! - threads ([`crate::runtime`]): OS-thread workers in one address
//!   space, heap-owned deques, pooled stacks, the worker reached through
//!   TLS, trace and metrics hooks;
//! - processes ([`crate::mpruntime`]): worker processes over one shared
//!   region mapped at the same address everywhere, caller-placed deques,
//!   stack slots, the worker reached through a per-process static.
//!
//! # Safety model
//!
//! Control transfers never unwind (task bodies are `catch_unwind`ed and
//! a panic ends the process). A context is resumed exactly once: the
//! deque hands an entry to exactly one consumer (THE protocol), and a
//! parked joiner's continuation is owned by exactly one side of the
//! `JoinCell` count. A task's stack is retired only by its own
//! completion and freed only after control has left it (`retired`).
//! Functions passed to `switch_stack_and_call` and trampolines that
//! claim a continuation diverge with only `Copy` locals live, so no
//! destructor is skipped.
//!
//! **Publication rule [I12]:** a saved continuation is made visible to
//! other workers (deque push, or the joiner's arrival on its join cell)
//! only from a stack that is *not* the continuation's own. The
//! `Context` record lives on the fiber's stack and a thief resumes it by
//! setting `rsp = ctx` — from that instant every frame below the record
//! (the very trampoline that saved it) is dead memory the resumed fiber
//! will overwrite. So `spawn` publishes the parent from the child's
//! fresh stack (`child_main`), and a parking `join` hands its arrival
//! to the scheduler loop on the worker's OS stack (`parking`).
//! Publishing from the trampoline itself — the obvious Figure 4 reading
//! — is a stack-trample race that corrupts spilled locals under steal
//! churn (debug builds spill everything, making it a near-certain
//! segfault).

use crate::ctx::{
    resume_context, save_context_and_call, switch_stack_and_call, Context, ContextFn,
};
use crate::ntrace::WorkerTracer;
use crate::runtime::SchedStats;
use crate::tsc::{self, RunClock};
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use uat_base::SplitMix64;
use uat_deque::{RawDeque, StealPhases};
use uat_model::{task_shape_hash, Action, Workload};

/// Where one backend keeps what the scheduler touches, plus that
/// backend's scheduler counters. The per-worker state *is* the
/// placement value (`Worker::place`); the counter hooks default to
/// nothing. Trace hooks are placement-independent (`Worker::trace`).
pub(crate) trait Placement: Sized + 'static {
    /// What a task owns besides its record: its stack, and anything
    /// that must outlive the task's join-cell departure. Moved out of
    /// the record at completion and freed by [`free`](Self::free) once
    /// control has left the stack.
    type Own;

    /// The worker executing the caller right now. Implementations are
    /// `#[inline(never)]` accessors: a fiber resumes on another thread
    /// or in another process, so no caller may keep the answer across a
    /// context switch ([I7], [I15]).
    fn worker() -> *mut Worker<Self>;
    fn workers(&self) -> usize;
    fn deque(&self, v: usize) -> &RawDeque<u64>;
    fn shutting_down(&self) -> bool;
    /// A fresh stack for a new task, and its top.
    fn alloc(&mut self) -> (Self::Own, *mut u8);
    fn free(&mut self, own: Self::Own);
    /// Memory a task's expanded program must be copied into, if its
    /// private heap does not survive migration ([I16]).
    fn program_area(&self, _own: &Self::Own) -> Option<(*mut u8, usize)> {
        None
    }
    /// A task body panicked. Unwinding across a context switch is
    /// undefined, so this ends the process, loudly.
    fn task_panicked() -> !;

    /// The clock timed steals read, when the counters want latencies.
    fn clock(&self) -> Option<RunClock> {
        None
    }
    /// One steal attempt on `victim` ended (`phases` when timed).
    fn on_steal(&mut self, _victim: usize, _ok: bool, _phases: Option<&StealPhases>) {}
    /// One scheduler-loop iteration (the heartbeat).
    fn on_loop(&mut self) {}
    fn on_park(&mut self) {}
    fn on_unpark(&mut self) {}
    /// A task body starts; the stamp comes back to `on_task_end`.
    fn on_task_begin(&mut self) -> u64 {
        0
    }
    fn on_task_end(&mut self, _born: u64) {}
}

/// A worker's scheduler state: the placement-independent part plus the
/// placement itself.
pub(crate) struct Worker<P: Placement> {
    /// 0-based worker index.
    pub(crate) id: usize,
    /// The scheduler's own context, parked on the worker's OS stack.
    sched_ctx: *mut Context,
    /// What the previously completed task owned; freed at the next
    /// point control lands off its stack.
    retired: Option<P::Own>,
    /// A join cell whose fiber just suspended; the scheduler makes its
    /// arrival from the OS stack per [I12].
    parking: *const JoinCell,
    rng: SplitMix64,
    /// Trace hooks (no-ops unless the run is traced).
    pub(crate) trace: WorkerTracer,
    /// The placement's per-worker state and counters.
    pub(crate) place: P,
}

impl<P: Placement> Worker<P> {
    pub(crate) fn new(id: usize, place: P, trace: WorkerTracer) -> Self {
        Worker {
            id,
            sched_ctx: std::ptr::null_mut(),
            retired: None,
            parking: std::ptr::null(),
            rng: SplitMix64::new(0x5EED ^ id as u64),
            trace,
            place,
        }
    }
}

// ---------------------------------------------------------------------
// The join protocol.
// ---------------------------------------------------------------------

/// The one join protocol (Figure 7): a single `pending` word counting
/// the joiner plus each outstanding child.
///
/// `new` counts the joiner; each spawn adds its child. A completing
/// child departs with `fetch_sub(1, AcqRel)`. A joiner whose fast-path
/// load finds children outstanding stashes its continuation, and its
/// scheduler — on the worker's OS stack, per [I12] — makes the joiner's
/// own `fetch_sub(1, AcqRel)`. Whichever decrement reaches 0 owns the
/// continuation: the scheduler resumes it inline, or the last child
/// pushes it on its deque. The joiner rearms the count to 1 after it
/// resumes.
///
/// Every claim is decided on one location, so the read-modify-writes'
/// single modification order arbitrates it: no store-buffering pair
/// exists, and no access needs `SeqCst` (DESIGN.md §13.3). The stash is
/// sequenced before the joiner's release decrement and read after the
/// last child's acquire decrement, which reads a value later in the
/// same modification order; each child's release decrement likewise
/// publishes its writes to whoever observes the final count.
pub(crate) struct JoinCell {
    pending: AtomicU64,
    /// The parked joiner's continuation (ordered by `pending`).
    ctx: AtomicU64,
    /// Trace-only: task id of the parked joiner, read by the last child
    /// to name the `JoinReady` edge.
    #[cfg(feature = "trace")]
    pub(crate) waiter_task: AtomicU64,
    /// Trace-only: task id of the child whose departure unparked the
    /// joiner (0 = resumed inline), read by the resumed joiner to name
    /// the `JoinResume` edge.
    #[cfg(feature = "trace")]
    pub(crate) enabler: AtomicU64,
}

impl JoinCell {
    /// A cell with no children: only the joiner is counted.
    pub(crate) const fn new() -> Self {
        JoinCell {
            pending: AtomicU64::new(1),
            ctx: AtomicU64::new(0),
            #[cfg(feature = "trace")]
            waiter_task: AtomicU64::new(0),
            #[cfg(feature = "trace")]
            enabler: AtomicU64::new(0),
        }
    }

    /// A child was spawned (by the joiner itself, before the child can
    /// depart, so program order suffices).
    pub(crate) fn add_child(&self) {
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether every child has departed (the join fast path). Acquire
    /// pairs with the departures' release halves.
    pub(crate) fn all_done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 1
    }

    /// The joiner's fiber records its continuation before suspending.
    fn stash(&self, ctx: u64) {
        self.ctx.store(ctx, Ordering::Relaxed);
    }

    /// The joiner's arrival, made by its scheduler after [`stash`](Self::stash).
    /// `Some(ctx)` when every child had already departed: the caller
    /// owns the continuation and resumes it. On `None` the last child
    /// owns it, and the caller must not touch the cell again.
    fn park(&self) -> Option<u64> {
        let ctx = self.ctx.load(Ordering::Relaxed);
        (self.pending.fetch_sub(1, Ordering::AcqRel) == 1).then_some(ctx)
    }

    /// A child's departure. `Some(ctx)` when it was the last one out
    /// after the joiner parked: the caller owns the continuation and
    /// makes it runnable. Either way the caller must not touch the cell
    /// afterwards except through what `Some` hands it.
    pub(crate) fn depart(&self) -> Option<u64> {
        (self.pending.fetch_sub(1, Ordering::AcqRel) == 1).then(|| self.ctx.load(Ordering::Relaxed))
    }

    /// The resumed joiner counts itself again. Every child has departed,
    /// so nothing else touches the word until the next spawn.
    fn rearm(&self) {
        self.pending.store(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Task records.
// ---------------------------------------------------------------------

/// The header of every task record. A record sits at the top of its
/// task's stack (threads: a pooled stack; processes: a slot), followed
/// by the body's data; the task's frames grow down from just below it.
#[repr(C)]
pub(crate) struct Task<P: Placement> {
    /// Runs the task; the argument is this record.
    body: unsafe fn(*mut Task<P>),
    /// The cell this task departs from on completion.
    join: *const JoinCell,
    /// The spawner's continuation, stashed by `spawn_tramp` and
    /// published by `child_main` per [I12] (0 for a root).
    parent_ctx: u64,
    /// Trace task id (0 when untraced).
    trace_id: u64,
    /// The task's stack and whatever else it owns.
    own: P::Own,
}

#[repr(C)]
struct Record<P: Placement, X> {
    task: Task<P>,
    data: X,
}

/// Lay out a task record at the top of a fresh stack.
///
/// # Safety
///
/// [I6][I8] `top` is the 16-aligned top of the stack `own` provides,
/// with room for the record, and nothing else uses that memory; `join`
/// outlives the task.
pub(crate) unsafe fn new_task<P: Placement, X>(
    own: P::Own,
    top: *mut u8,
    join: *const JoinCell,
    trace_id: u64,
    body: unsafe fn(*mut Task<P>),
    data: X,
) -> *mut Task<P> {
    const { assert!(std::mem::align_of::<Record<P, X>>() <= 16) };
    // 16-aligned, because the record's address is also the child's
    // initial stack pointer.
    let at = (top as usize - std::mem::size_of::<Record<P, X>>()) & !15;
    let rec = at as *mut Record<P, X>;
    let task = Task {
        body,
        join,
        parent_ctx: 0,
        trace_id,
        own,
    };
    // SAFETY: [I6][I8] the caller vouches for the memory below `top`.
    unsafe { rec.write(Record { task, data }) };
    rec.cast()
}

/// Move a task's data out of its record (once, at the body's start).
///
/// # Safety
///
/// [I8] `task` was made by [`new_task`] with data type `X`, and its data
/// has not been taken yet.
pub(crate) unsafe fn take_data<P: Placement, X>(task: *mut Task<P>) -> X {
    // SAFETY: [I8] per the contract, a live `Record<P, X>` whose data
    // is moved out exactly once.
    unsafe { std::ptr::addr_of!((*task.cast::<Record<P, X>>()).data).read() }
}

/// Free what the previously completed task owned, if anything. Must run
/// at every point control can land after a completion.
#[inline]
fn collect_retired<P: Placement>() {
    // SAFETY: [I7] scoped borrow of the executing worker.
    unsafe {
        let w = &mut *P::worker();
        if let Some(own) = w.retired.take() {
            w.place.free(own);
        }
    }
}

// ---------------------------------------------------------------------
// Spawn, join, and the completion tail.
// ---------------------------------------------------------------------

/// Start `body` as a child of the calling fiber, child-first: the child
/// runs now, on the fresh stack `own`/`top`, and the caller's
/// continuation becomes stealable (Figure 4). Returns when that
/// continuation is resumed — possibly on another worker. The child
/// departs from `join` when it completes.
pub(crate) fn spawn<P: Placement, X>(
    join: &JoinCell,
    own: P::Own,
    top: *mut u8,
    body: unsafe fn(*mut Task<P>),
    data: X,
) {
    // SAFETY: [I7] scoped borrow; [I6][I8] `own`/`top` is a fresh stack
    // and the caller's `join` outlives the child (it cannot pass its
    // join while the child is outstanding).
    let task = unsafe {
        let w = &mut *P::worker();
        // Trace: close the parent's Work slice, open Spawn, allocate and
        // announce the child id.
        let trace_id = w.trace.on_spawn();
        new_task::<P, X>(own, top, join, trace_id, body, data)
    };
    join.add_child();
    // SAFETY: [I5] spawn_tramp never returns normally; the continuation
    // saved here is resumed exactly once (by the child's pop or by a
    // thief).
    unsafe { save_context_and_call(std::ptr::null_mut(), spawn_tramp::<P>, task.cast()) };
    collect_retired::<P>();
    // SAFETY: [I7] re-derived after the switch; scoped borrow.
    unsafe { (*P::worker()).trace.on_resumed() };
}

unsafe extern "C" fn spawn_tramp<P: Placement>(ctx: *mut Context, arg: *mut c_void) {
    // [I12]: do NOT publish `ctx` here — this frame lives on the very
    // stack `ctx` points into, and a thief resuming the continuation
    // would overwrite it while we still execute. Stash it in the
    // child's record and leave this stack first; `child_main`
    // publishes it from the child's fresh stack.
    let task = arg as *mut Task<P>;
    // SAFETY: [I8] the record is exclusively ours until the switch
    // below hands it to child_main.
    unsafe { (*task).parent_ctx = ctx as u64 };
    // SAFETY: [I6][I9] the record sits at the top of a fresh stack, so
    // its (16-aligned) address is the child's initial stack pointer;
    // child_main diverges.
    unsafe { switch_stack_and_call(arg.cast(), child_main::<P>, arg) }
}

unsafe extern "C" fn child_main<P: Placement>(arg: *mut c_void) -> ! {
    let task = arg as *mut Task<P>;
    // SAFETY: [I8] the record is this task's, live until its stack is
    // freed after completion; plain reads of Copy fields.
    let (body, join, parent_ctx, trace_id) = unsafe {
        (
            (*task).body,
            (*task).join,
            (*task).parent_ctx,
            (*task).trace_id,
        )
    };
    // SAFETY: [I5][I7] scoped borrow of the executing worker.
    let born = unsafe {
        let w = &mut *P::worker();
        if parent_ctx != 0 {
            // Publish the spawner's continuation: stealable from now
            // on. Safe here per [I12] — we run on the child's fresh
            // stack, and every parent-stack frame below the record is
            // already dead. Trace: register the continuation before the
            // push makes it stealable; `cur_task` is still the parent's
            // id until the begin hook below makes the child current.
            let parent = w.trace.cur_task();
            w.trace.on_publish(parent_ctx, parent);
            w.place.deque(w.id).push(parent_ctx);
        }
        // Copy locals, so they survive any migration of this stack.
        (w.trace.on_task_begin(trace_id), w.place.on_task_begin())
    };
    // SAFETY: [I8] the body runs exactly once, on the task's own stack.
    if catch_unwind(AssertUnwindSafe(|| unsafe { body(task) })).is_err() {
        P::task_panicked();
    }
    // The completion tail: retire our own stack (freed once control is
    // off it), depart from the join cell, then pop the parent or return
    // to the scheduler.
    // SAFETY: [I5][I6][I7] re-derived worker, scoped borrow; `own` is
    // moved out of the record exactly once.
    let target = unsafe {
        let w = &mut *P::worker();
        debug_assert!(w.retired.is_none());
        w.retired = Some(std::ptr::addr_of!((*task).own).read());
        w.trace.on_task_end(trace_id, born.0);
        w.place.on_task_end(born.1);
        // The joiner cannot free the cell before it is resumed, and it
        // is not resumed before its own departure or ours.
        if let Some(ctx) = (*join).depart() {
            // The parked joiner is ours: runnable here, and stealable
            // by anyone from the push on. Trace: name the join edge and
            // register the continuation *before* the push.
            #[cfg(feature = "trace")]
            if w.trace.enabled() {
                let parent = (*join).waiter_task.load(Ordering::Relaxed);
                (*join).enabler.store(trace_id, Ordering::Relaxed);
                w.trace.on_join_ready(parent);
                w.trace.on_publish(ctx, parent);
            }
            w.place.deque(w.id).push(ctx);
        }
        // Figure 4 lines 13-15: pop the parent continuation; if stolen,
        // go to the scheduler.
        match w.place.deque(w.id).pop() {
            Some(c) => {
                w.trace.on_local_pop(c);
                c as *mut Context
            }
            None => w.sched_ctx,
        }
    };
    // SAFETY: [I5] target is resumed exactly once; only Copy locals are
    // live here.
    unsafe { resume_context(target) }
}

/// Wait until every child spawned on `cell` so far has completed
/// (Figure 7's join): one load on the fast path; otherwise the fiber
/// suspends and its worker finds other work.
pub(crate) fn join<P: Placement>(cell: &JoinCell) {
    if cell.all_done() {
        return;
    }
    // SAFETY: [I7] scoped borrow.
    unsafe {
        let w = &mut *P::worker();
        // Trace: record who parks *before* the arrival can expose the
        // cell to the last child (which reads it to name `JoinReady`),
        // and that no child has enabled it yet.
        #[cfg(feature = "trace")]
        if w.trace.enabled() {
            cell.waiter_task
                .store(w.trace.cur_task(), Ordering::Relaxed);
            cell.enabler.store(0, Ordering::Relaxed);
        }
        w.trace.on_suspend();
    }
    // SAFETY: [I5] join_tramp hands the arrival to the scheduler; the
    // continuation saved here is resumed exactly once, by whichever
    // side's decrement reaches 0.
    unsafe {
        save_context_and_call(
            std::ptr::null_mut(),
            join_tramp::<P>,
            cell as *const JoinCell as *mut c_void,
        );
    }
    collect_retired::<P>();
    cell.rearm();
    // SAFETY: [I7] re-derived after the switch; scoped borrow.
    let trace = unsafe { &mut (*P::worker()).trace };
    // Trace: name the resume edge if a child unparked the join; an
    // inline resume just reopens the work slice.
    #[cfg(feature = "trace")]
    if let child @ 1.. = cell.enabler.load(Ordering::Relaxed) {
        trace.on_join_resume(child);
        return;
    }
    trace.on_resumed();
}

unsafe extern "C" fn join_tramp<P: Placement>(ctx: *mut Context, arg: *mut c_void) {
    // [I12]: the arrival publishes `ctx` — the last child can push it
    // and a thief resume it the next instant, overwriting this very
    // frame. So only stash it here, and let the scheduler on the
    // worker's OS stack arrive. Until then `ctx` is invisible to every
    // other worker, so this stack is still private.
    let cell = arg as *const JoinCell;
    // SAFETY: [I7][I8] the cell lives in the suspending fiber's frame;
    // scoped borrow of the worker, ended before the resume.
    let sched = unsafe {
        (*cell).stash(ctx as u64);
        let w = &mut *P::worker();
        debug_assert!(w.parking.is_null());
        w.parking = cell;
        w.sched_ctx
    };
    // SAFETY: [I5] the scheduler context is parked in its loop and is
    // resumed exactly once per lineage; only Copy locals are live here.
    unsafe { resume_context(sched) }
}

// ---------------------------------------------------------------------
// The worker loop.
// ---------------------------------------------------------------------

/// The scheduler loop, on the worker's OS stack: run `root` (the
/// worker that seeds the run), then pop the own deque or steal from a
/// random victim until the placement reports shutdown.
pub(crate) fn worker_loop<P: Placement>(root: Option<*mut Task<P>>) {
    // The scheduler's stack never migrates, so its worker is fixed.
    let w = P::worker();
    if let Some(task) = root {
        run::<P>(start_tramp::<P>, task.cast());
    }
    let mut idle_spins = 0u32;
    let mut parked = false;
    loop {
        collect_retired::<P>();
        // SAFETY: [I7] each borrow below is scoped to its statement, and
        // none is held across a switch into a fiber.
        let parking = unsafe {
            (*w).place.on_loop();
            std::mem::replace(&mut (*w).parking, std::ptr::null())
        };
        // The joiner's arrival from this OS stack [I12]. If every child
        // already departed, the fiber never really parked: continue it.
        if !parking.is_null() {
            // SAFETY: [I8] the suspended fiber's frame keeps the cell
            // alive until its continuation resumes, which needs this
            // arrival first.
            if let Some(ctx) = unsafe { (*parking).park() } {
                idle_spins = 0;
                run::<P>(resume_tramp::<P>, ctx as *mut c_void);
                continue;
            }
        }
        // SAFETY: [I7] as above.
        let target = unsafe {
            let w = &mut *w;
            w.trace.on_idle();
            // Own deque first (ready joiners and un-stolen parents),
            // then a random victim.
            match w.place.deque(w.id).pop() {
                Some(c) => {
                    w.trace.on_local_pop(c);
                    Some(c)
                }
                None if w.place.workers() == 1 => None,
                None => {
                    let mut v = w.rng.below(w.place.workers() as u64 - 1) as usize;
                    if v >= w.id {
                        v += 1;
                    }
                    steal(w, v)
                }
            }
        };
        match target {
            Some(ctx) => {
                idle_spins = 0;
                if parked {
                    parked = false;
                    // SAFETY: [I7] as above.
                    unsafe {
                        (*w).trace.on_unpark();
                        (*w).place.on_unpark();
                    }
                }
                run::<P>(resume_tramp::<P>, ctx as *mut c_void);
            }
            None => {
                // SAFETY: [I7] as above.
                if unsafe { (*w).place.shutting_down() } {
                    break;
                }
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins > 64 {
                    if !parked {
                        parked = true;
                        // SAFETY: [I7] as above.
                        unsafe {
                            (*w).trace.on_park();
                            (*w).place.on_park();
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_micros(20));
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One steal attempt on `victim`. Traced and timed runs take the
/// phase-stamped steal, so lock and entry time land in the right trace
/// buckets and latency histograms; plain runs keep the bare protocol.
fn steal<P: Placement>(w: &mut Worker<P>, victim: usize) -> Option<u64> {
    let deque = w.place.deque(victim);
    match w.trace.clock().or_else(|| w.place.clock()) {
        Some(clk) => {
            let (got, ph) = deque.steal_phased(|| clk.now_cycles());
            w.trace.on_steal_attempt(victim, got, &ph);
            w.place.on_steal(victim, got.is_some(), Some(&ph));
            got
        }
        None => {
            let got = deque.steal();
            w.place.on_steal(victim, got.is_some(), None);
            got
        }
    }
}

/// Enter fiber code from the scheduler through `tramp`, saving the
/// scheduler's own context so tasks can bail back to the loop:
/// `resume_tramp` continues a ready continuation, `start_tramp` starts
/// a root task from its record.
fn run<P: Placement>(tramp: ContextFn, arg: *mut c_void) {
    // SAFETY: [I5] both trampolines diverge into fiber code; the saved
    // scheduler context is resumed exactly once (by whichever task next
    // runs out of local work on this worker).
    unsafe { save_context_and_call(std::ptr::null_mut(), tramp, arg) };
    collect_retired::<P>();
}

unsafe extern "C" fn resume_tramp<P: Placement>(sched: *mut Context, arg: *mut c_void) {
    // SAFETY: [I7] scoped borrow, ended before the resume.
    unsafe { (*P::worker()).sched_ctx = sched };
    // SAFETY: [I5] arg is a live continuation handed to us by a deque or
    // a join cell.
    unsafe { resume_context(arg as *mut Context) }
}

unsafe extern "C" fn start_tramp<P: Placement>(sched: *mut Context, arg: *mut c_void) {
    // SAFETY: [I7] scoped borrow, ended before the switch.
    unsafe { (*P::worker()).sched_ctx = sched };
    // SAFETY: [I6][I9] the record sits at the top of its fresh stack;
    // child_main diverges.
    unsafe { switch_stack_and_call(arg.cast(), child_main::<P>, arg) }
}

// ---------------------------------------------------------------------
// The workload interpreter.
// ---------------------------------------------------------------------

/// Row-0 cell: machine-wide live frame bytes.
pub(crate) const T_LIVE_FRAME: usize = 0;
/// Row-0 cell: high-water of [`T_LIVE_FRAME`].
pub(crate) const T_PEAK_FRAME: usize = 1;
/// Per-worker cells (rows `1..=workers`).
pub(crate) const T_TASKS: usize = 0;
pub(crate) const T_UNITS: usize = 1;
pub(crate) const T_WORK_CYCLES: usize = 2;
pub(crate) const T_JOINS: usize = 3;
pub(crate) const T_SPAWNS: usize = 4;
pub(crate) const T_FRAME_BYTES: usize = 5;
pub(crate) const T_FINGERPRINT: usize = 6;

/// One cache line of accounting cells. An interpreter run's tally is
/// `workers + 1` rows: row 0 machine-wide, row `1 + w` worker `w`'s.
/// A zeroed row is an empty one, so the tally can live anywhere — the
/// heap (threads) or the shared region (processes).
#[repr(C, align(64))]
#[derive(Default)]
pub(crate) struct TallyRow(pub(crate) [AtomicU64; 8]);

impl TallyRow {
    fn add(&self, cell: usize, v: u64) {
        self.0[cell].fetch_add(v, Ordering::Relaxed);
    }
}

/// Sum of `cell` over the worker rows of a tally.
pub(crate) fn tally_sum(rows: &[TallyRow], cell: usize) -> u64 {
    rows[1..].iter().fold(0u64, |acc, r| {
        acc.wrapping_add(r.0[cell].load(Ordering::Acquire))
    })
}

/// Run-wide interpreter state, built before the workers start and
/// read-only during the run.
pub(crate) struct Env<W> {
    pub(crate) w: W,
    /// `Work(c)` spins `c / divisor` cycles.
    pub(crate) divisor: u64,
    /// The run's tally rows (`workers + 1`).
    pub(crate) tally: *const TallyRow,
}

impl<W> Env<W> {
    /// The executing worker's tally row.
    fn row<P: Placement>(&self) -> &TallyRow {
        // SAFETY: [I7][I16] the tally has a row per worker and outlives
        // the run; a Copy read of the executing worker's id.
        unsafe { &*self.tally.add(1 + (*P::worker()).id) }
    }
}

/// The record data of an interpreter task.
pub(crate) struct Prog<W: Workload> {
    pub(crate) env: *const Env<W>,
    pub(crate) desc: W::Desc,
}

// SAFETY: [I8][I16] `env` points at run-wide state that outlives every
// task and is only read (W: Sync), and the descriptor is Send.
unsafe impl<W: Workload + Sync> Send for Prog<W> {}

/// Where a running task keeps its expanded program.
enum Actions<D> {
    /// The expansion itself (threads share one heap).
    Heap(std::vec::IntoIter<Action<D>>),
    /// A copy in the task's program area, read back one action at a time.
    Area {
        next: *const Action<D>,
        end: *const Action<D>,
    },
}

impl<D> Actions<D> {
    /// Keep `prog` where the placement says. Copying into the program
    /// area drops the expansion, so no private-heap pointer survives to
    /// the task's first migration point ([I16]).
    fn keep<P: Placement>(place: &P, own: &P::Own, prog: Vec<Action<D>>) -> Self {
        let Some((area, bytes)) = place.program_area(own) else {
            return Actions::Heap(prog.into_iter());
        };
        let n = prog.len();
        assert!(
            n <= bytes / std::mem::size_of::<Action<D>>(),
            "task program ({n} actions) exceeds the slot program area"
        );
        let base = area.cast::<Action<D>>();
        debug_assert!(base.is_aligned());
        for (i, a) in prog.into_iter().enumerate() {
            // SAFETY: [I16] i < n fits the area (asserted); the area is
            // this task's own slot memory.
            unsafe { base.add(i).write(a) };
        }
        Actions::Area {
            next: base,
            // SAFETY: [I16] one past the last action written above.
            end: unsafe { base.add(n) },
        }
    }
}

impl<D> Iterator for Actions<D> {
    type Item = Action<D>;

    fn next(&mut self) -> Option<Action<D>> {
        match self {
            Actions::Heap(it) => it.next(),
            Actions::Area { next, end } => (next != end).then(|| {
                // SAFETY: [I16] each action written by `keep` is moved
                // out exactly once, in order.
                unsafe {
                    let a = next.read();
                    *next = next.add(1);
                    a
                }
            }),
        }
    }
}

/// Bytes of genuine stack reserved per recursion step of
/// [`with_reserved_frame`]. Small enough that the reservation tracks
/// `frame_size` closely; large enough that the recursion overhead stays
/// a minor fraction.
const FRAME_CHUNK: usize = 256;

/// Run `f` with (at least) `bytes` bytes of the current stack reserved
/// below it — the native realisation of a task's uni-address frame
/// claim. The reservation is real: each step places a touched buffer on
/// the stack, so a `frame_size` that exceeds the runtime's stack size
/// faults on the guard page instead of silently lying.
#[inline(never)]
fn with_reserved_frame<R, F: FnOnce() -> R>(bytes: u64, f: F) -> R {
    if bytes == 0 {
        return f();
    }
    let mut pad = [0u8; FRAME_CHUNK];
    std::hint::black_box(pad.as_mut_ptr());
    with_reserved_frame(bytes.saturating_sub(FRAME_CHUNK as u64), f)
}

/// The body of every interpreter task: expand its program and run it on
/// this fiber — the accounting, the frame reservation, and the
/// `Work` / `Spawn` / `JoinAll` dispatch.
///
/// - `Work(c)` is calibrated spinning of `c / divisor` timestamp-counter
///   ticks (all `c` accounted);
/// - `Spawn(d)` is a child-first [`spawn`] of another interpreter task;
/// - `JoinAll` is a [`join`] on the task's one join cell;
/// - the workload's `frame_size` is reserved on the task's stack before
///   the program runs, so stack-depth behaviour is genuine.
///
/// # Safety
///
/// [I8] `task` is a record made by [`new_task`] with [`Prog<W>`] data.
pub(crate) unsafe fn exec<P: Placement, W: Workload>(task: *mut Task<P>) {
    // SAFETY: [I8] per the contract; the data is taken exactly once.
    let Prog { env, desc } = unsafe { take_data::<P, Prog<W>>(task) };
    // SAFETY: [I16] the run's environment outlives every task and is
    // read-only (in the multiprocess backend: copy-on-write pages at
    // the same address in every worker).
    let env = unsafe { &*env };
    let w = &env.w;
    let frame = w.frame_size(&desc);
    let units = w.units(&desc);
    // SAFETY: [I16] row 0 of the run's tally.
    let global = unsafe { &*env.tally };
    // Machine-wide live-frame high-water (the analogue of the sim's
    // peak stack usage, summed across workers rather than per-region).
    let live = global.0[T_LIVE_FRAME].fetch_add(frame, Ordering::AcqRel) + frame;
    global.0[T_PEAK_FRAME].fetch_max(live, Ordering::AcqRel);

    let mut prog = Vec::new();
    w.program(&desc, &mut prog);
    let children = prog
        .iter()
        .filter(|a| matches!(a, Action::Spawn(_)))
        .count() as u64;
    let mut row = env.row::<P>();
    row.add(T_TASKS, 1);
    row.add(T_UNITS, units);
    row.add(T_FRAME_BYTES, frame);
    row.add(T_FINGERPRINT, task_shape_hash(children, units, frame));
    // SAFETY: [I7][I16] scoped borrow of the executing worker; `own` is
    // this task's, in its live record.
    let actions = unsafe {
        let wk = &*P::worker();
        Actions::keep(&wk.place, &*std::ptr::addr_of!((*task).own), prog)
    };
    // A local of this frame, on the task's own stack: children that
    // complete on other workers (or in other processes) reach it at the
    // same address, and it outlives them because the task cannot pass
    // its final join while any is outstanding.
    let cell = JoinCell::new();

    with_reserved_frame(frame, || {
        for a in actions {
            match a {
                Action::Work(cycles) => {
                    row.add(T_WORK_CYCLES, cycles);
                    tsc::spin_cycles(cycles / env.divisor);
                }
                Action::Spawn(child) => {
                    row.add(T_SPAWNS, 1);
                    // SAFETY: [I7] scoped borrow.
                    let (own, top) = unsafe { (*P::worker()).place.alloc() };
                    let data = Prog { env, desc: child };
                    spawn::<P, Prog<W>>(&cell, own, top, exec::<P, W>, data);
                    // Resumed, possibly elsewhere: account locally again.
                    row = env.row::<P>();
                }
                Action::JoinAll => {
                    row.add(T_JOINS, 1);
                    join::<P>(&cell);
                    row = env.row::<P>();
                }
            }
        }
        // Fork-join programs end with every child joined (the simulator
        // asserts as much); join stragglers anyway so a malformed
        // workload cannot leak running tasks past its own completion.
        join::<P>(&cell);
    });
    global.0[T_LIVE_FRAME].fetch_sub(frame, Ordering::AcqRel);
}

/// Result of one native run — the fiber backend's counterpart of the
/// simulator's `RunStats`, restricted to the quantities that are
/// *backend-invariant* (task expansion) or native-measurable (wall
/// clock, steals, live-frame peak).
#[derive(Clone, Debug)]
pub struct NativeRunStats {
    /// Workload name.
    pub workload: String,
    /// Worker OS threads.
    pub workers: u32,
    /// Tasks executed (= the sim's `total_tasks`).
    pub total_tasks: u64,
    /// Reported workload units (= the sim's `total_units`).
    pub total_units: u64,
    /// Cycles of `Work` actions *accounted* (= the sim's
    /// `total_work_cycles`; the cycles actually spun are these divided
    /// by the configured work divisor).
    pub total_work_cycles: u64,
    /// `JoinAll` actions executed.
    pub joins: u64,
    /// `Spawn` actions executed (= `total_tasks - 1`).
    pub spawns: u64,
    /// Sum of every task's `frame_size`.
    pub frame_bytes_total: u64,
    /// High-water of simultaneously live frame bytes, machine-wide.
    pub peak_frame_bytes: u64,
    /// Schedule-independent join-tree digest; must equal
    /// [`uat_model::join_tree_fingerprint`] of the same workload.
    pub join_fingerprint: u64,
    /// Successful steals of a started thread between workers.
    pub steals: u64,
    /// Workers that crossed the idle spin threshold into a sleep cycle.
    pub parks: u64,
    /// Parked workers that subsequently found work.
    pub unparks: u64,
    /// Trace events evicted from full rings (0 for untraced runs and
    /// for traced runs whose rings sufficed — the accounts stay exact).
    pub trace_dropped: u64,
    /// Real elapsed time.
    pub wall: std::time::Duration,
}

impl NativeRunStats {
    /// The stats of an interpreter run, from its tally rows (see
    /// [`TallyRow`]) and scheduler counters.
    pub(crate) fn from_tally(workload: String, tally: &[TallyRow], sched: SchedStats) -> Self {
        NativeRunStats {
            workload,
            workers: (tally.len() - 1) as u32,
            total_tasks: tally_sum(tally, T_TASKS),
            total_units: tally_sum(tally, T_UNITS),
            total_work_cycles: tally_sum(tally, T_WORK_CYCLES),
            joins: tally_sum(tally, T_JOINS),
            spawns: tally_sum(tally, T_SPAWNS),
            frame_bytes_total: tally_sum(tally, T_FRAME_BYTES),
            peak_frame_bytes: tally[0].0[T_PEAK_FRAME].load(Ordering::Acquire),
            join_fingerprint: tally_sum(tally, T_FINGERPRINT),
            steals: sched.steals,
            parks: sched.parks,
            unparks: sched.unparks,
            trace_dropped: 0,
            wall: sched.wall,
        }
    }

    /// Units per wall-clock second (the native Figure 11 axis).
    pub fn throughput(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.total_units as f64 / s
    }

    /// One-line summary for harness output.
    pub fn summary_line(&self) -> String {
        self.summary_line_as("Native")
    }

    /// [`summary_line`](Self::summary_line) with an explicit backend
    /// label — the same stats type serves both real executors (native
    /// threads and multiprocess workers).
    pub fn summary_line_as(&self, backend: &str) -> String {
        format!(
            "{:<24} {backend} w={:<3} tasks={:<10} units={:<10} wall={:>9.4}s thr={:>12.0}/s steals={} parks={} unparks={} drop={} peak_frames={}B",
            self.workload,
            self.workers,
            self.total_tasks,
            self.total_units,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.steals,
            self.parks,
            self.unparks,
            self.trace_dropped,
            self.peak_frame_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpruntime::{tests::supported, MultiProcessRunner};
    use crate::runtime::NativeRunner;
    use uat_model::testutil::BinTree;
    use uat_model::{join_tree_fingerprint, sequential_profile};

    /// Run `w` on both placements at `workers`, spinning `1/div` of its
    /// work (the multiprocess run is skipped, with the reason printed,
    /// where the host cannot map its region).
    fn on_both(w: &BinTree, workers: usize, div: u64) -> Vec<NativeRunStats> {
        let mut out = vec![NativeRunner::new(workers)
            .with_work_divisor(div)
            .run(w.clone())];
        if supported() {
            out.push(
                MultiProcessRunner::new(workers)
                    .with_work_divisor(div)
                    .run(w.clone()),
            );
        }
        out
    }

    #[test]
    fn bintree_counts_match_sequential_profile() {
        let w = BinTree {
            depth: 6,
            work: 1_000,
            frame: 512,
        };
        let p = sequential_profile(&w);
        for workers in [1usize, 2, 4] {
            for s in on_both(&w, workers, u64::MAX) {
                assert_eq!(s.total_tasks, p.tasks, "workers={workers}");
                assert_eq!(s.total_units, p.units);
                assert_eq!(s.total_work_cycles, p.work_cycles);
                assert_eq!(s.joins, p.joins);
                assert_eq!(s.spawns, p.spawns);
                assert_eq!(s.frame_bytes_total, p.frame_bytes_total);
                assert_eq!(s.join_fingerprint, p.join_fingerprint);
                assert_eq!(s.join_fingerprint, join_tree_fingerprint(&w));
            }
        }
    }

    #[test]
    fn work_is_accounted_undivided() {
        let w = BinTree {
            depth: 2,
            work: 10_000,
            frame: 64,
        };
        for s in on_both(&w, 2, u64::MAX) {
            assert_eq!(s.total_work_cycles, 7 * 10_000);
        }
    }

    #[test]
    fn frames_really_occupy_stack() {
        // A frame far beyond the chunk size still completes (the
        // reservation recursion works), and the peak reflects at least
        // the deepest single frame.
        let w = BinTree {
            depth: 1,
            work: 0,
            frame: 16 << 10,
        };
        for s in on_both(&w, 1, u64::MAX) {
            assert!(s.peak_frame_bytes >= 16 << 10);
            assert_eq!(s.total_tasks, 3);
        }
    }

    #[test]
    fn multi_worker_runs_steal() {
        // Real work (undivided) so idle workers get a window to steal.
        // On a single-CPU host a thief only runs when the OS preempts
        // the busy worker, so each run spans several scheduling quanta;
        // allow a few attempts and require a steal on each backend.
        let w = BinTree {
            depth: 10,
            work: 100_000,
            frame: 256,
        };
        let mut stole = [0u64; 2];
        for _ in 0..3 {
            for (i, s) in on_both(&w, 4, 1).into_iter().enumerate() {
                assert_eq!(s.total_tasks, (1 << 11) - 1);
                stole[i] += s.steals;
            }
            if stole.iter().all(|&n| n > 0) || (stole[0] > 0 && !supported()) {
                break;
            }
        }
        assert!(stole[0] > 0, "no steals across 3 runs on 4 threads");
        assert!(
            stole[1] > 0 || !supported(),
            "no cross-process steals across 3 runs on 4 processes"
        );
    }

    /// Wait for `cond`, yielding: the test races three threads on what
    /// may be a 2-CPU host.
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    /// The join cell's exactly-once claim, raced for real: each round two
    /// children depart on their own threads while the joiner stashes its
    /// continuation and arrives. Exactly one side may own each round's
    /// continuation, and it must never be stranded with neither.
    #[test]
    fn join_cell_claims_each_continuation_exactly_once() {
        const ROUNDS: u64 = 10_000;
        const CHILDREN: u64 = 2;
        let cell = JoinCell::new();
        // Children may depart for round `r` once `round >= r`.
        let round = AtomicU64::new(0);
        let departed = AtomicU64::new(0);
        let claims: Vec<AtomicU64> = (0..=ROUNDS).map(|_| AtomicU64::new(0)).collect();
        let claim = |ctx: u64| claims[ctx as usize].fetch_add(1, Ordering::Relaxed);
        let mut wrong = Vec::new();
        std::thread::scope(|s| {
            for _ in 0..CHILDREN {
                s.spawn(|| {
                    for r in 1..=ROUNDS {
                        wait_until(|| round.load(Ordering::Acquire) >= r);
                        if let Some(ctx) = cell.depart() {
                            claim(ctx);
                        }
                        departed.fetch_add(1, Ordering::Release);
                    }
                });
            }
            for r in 1..=ROUNDS {
                for _ in 0..CHILDREN {
                    cell.add_child();
                }
                round.store(r, Ordering::Release);
                cell.stash(r);
                if let Some(ctx) = cell.park() {
                    claim(ctx);
                }
                wait_until(|| departed.load(Ordering::Acquire) == r * CHILDREN);
                let n = claims[r as usize].load(Ordering::Relaxed);
                if n != 1 {
                    wrong.push((r, n));
                }
                cell.rearm();
            }
        });
        assert!(
            wrong.is_empty(),
            "(round, claims) with a continuation claimed by none or by both sides: {:?}",
            &wrong[..wrong.len().min(8)]
        );
    }

    #[test]
    fn join_cell_fast_path_counts_the_joiner() {
        let cell = JoinCell::new();
        assert!(cell.all_done(), "no children: nothing to wait for");
        cell.add_child();
        assert!(!cell.all_done());
        assert_eq!(cell.depart(), None, "joiner not parked: no claim");
        assert!(cell.all_done());
        cell.add_child();
        cell.stash(42);
        assert_eq!(cell.park(), None, "child outstanding: the child claims");
        assert_eq!(cell.depart(), Some(42));
        cell.rearm();
        assert!(cell.all_done());
    }
}
