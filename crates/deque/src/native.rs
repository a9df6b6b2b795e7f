//! The THE-protocol deque on real atomics, operating in place on a
//! block of memory laid out as [`crate::layout`] specifies.
//!
//! This is the one native implementation of the Cilk-5 THE protocol:
//! the owner pushes/pops at the bottom without locks; thieves steal at
//! the top under a spin lock; the owner takes the lock only when it
//! races a thief for the last entry. Two placements share it, and
//! differ only in who provides the block:
//!
//! - [`NativeDeque`] owns a zeroed heap block (the thread runtime);
//! - [`ShmDeque`] is a handle onto a block the caller provides, e.g.
//!   inside a `MAP_SHARED` region mapped at the same virtual address in
//!   every worker process (the multiprocess runtime).
//!
//! Entries sit **inline** at `OFF_ENTRIES`, so a peer can compute every
//! word's address from the block base alone — the property the paper's
//! one-sided thieves rely on — and a **zeroed block is a valid empty,
//! unlocked deque**. Process-shared use adds nothing to the protocol: an
//! `AtomicU64` in a shared mapping is lock-free on every supported
//! target, so the same atomics that arbitrate threads arbitrate
//! processes.
//!
//! # Safety
//!
//! This module contains the crate's only `unsafe` code. The placement
//! itself is invariant [I14] (DESIGN.md §7.6): the block stays valid,
//! aligned and reachable only through these operations for the handle's
//! lifetime. Slot access soundness is then the THE argument:
//!
//! - slot `i % cap` is written only by the owner in `push` at position
//!   `i = bottom`, while no reader can observe position `i` until the
//!   bottom store publishes it, and reuse of the slot (position
//!   `i + cap`) is blocked by the capacity check until `top > i`, i.e.
//!   until every reader of position `i` is done with the slot;
//! - a position is *read* by exactly one side: a thief only ever reads
//!   the position it loaded as `top` inside its locked critical section
//!   (where `top` cannot move under it), and the owner's pop takes the
//!   lock whenever the position it wants could be that one (`top ==
//!   bottom - 1` after the decrement). The arbitration for the last
//!   entry therefore always happens under the lock — the lock-free
//!   paths only ever touch positions provably nobody else targets.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;

// Under `RUSTFLAGS="--cfg loom"` the control words become loom atomics
// (real loom: exhaustively explored; the offline shim: schedule-stress
// wrappers — see shims/loom). The shim is `repr(transparent)` over the
// std atomic, so the in-place header below keeps its layout.
#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

use crate::layout::{OFF_BOTTOM, OFF_ENTRIES, OFF_LOCK, OFF_TOP};

/// The three THE control words, at the canonical layout offsets.
#[repr(C)]
struct Hdr {
    lock: AtomicU64,
    top: AtomicU64,
    bottom: AtomicU64,
}

// The layout contract: control words at `base + OFF_*`, exactly as the
// simulated deque lays them out in fabric memory.
const _: () = {
    assert!(std::mem::offset_of!(Hdr, lock) as u64 == OFF_LOCK);
    assert!(std::mem::offset_of!(Hdr, top) as u64 == OFF_TOP);
    assert!(std::mem::offset_of!(Hdr, bottom) as u64 == OFF_BOTTOM);
    assert!(std::mem::size_of::<Hdr>() as u64 == OFF_ENTRIES);
};

/// A fixed-capacity THE-protocol deque operating on a block it does not
/// own: the three control words plus `capacity` inline entries.
///
/// `T` must be `Copy`: entries are small continuation descriptors
/// (pointers + sizes), mirroring the 32-byte `taskq_entry`. Owner/thief
/// discipline is by convention: only the owning worker calls
/// [`push`](Self::push)/[`pop`](Self::pop); anyone may
/// [`steal`](Self::steal).
///
/// Deliberately neither `Clone` nor `Copy`: [`NativeDeque`] hands out
/// `&RawDeque` through `Deref`, and a copied-out handle could outlive
/// the block it owns.
#[derive(Debug)]
pub struct RawDeque<T: Copy> {
    base: NonNull<u8>,
    capacity: u64,
    _entries: PhantomData<T>,
}

/// The caller-placed deque: a handle onto a block of `u64` entries the
/// caller provides (the multiprocess runtime's placement, where an entry
/// is the shared-region address of a suspended continuation).
pub type ShmDeque = RawDeque<u64>;

// SAFETY: [I1][I2][I3][I14] the handle is two plain words; all shared
// access to the block it designates is mediated by the THE protocol as
// documented in the module header, and T itself crosses threads by copy.
unsafe impl<T: Copy + Send> Send for RawDeque<T> {}
// SAFETY: [I1][I2][I3][I14] same argument as `Send`: `&RawDeque` only
// hands out protocol operations on the block.
unsafe impl<T: Copy + Send> Sync for RawDeque<T> {}

impl<T: Copy> RawDeque<T> {
    /// Bytes occupied by a block with room for `capacity` entries.
    pub const fn block_size(capacity: usize) -> usize {
        OFF_ENTRIES as usize + capacity * std::mem::size_of::<T>()
    }

    /// Wrap a raw block.
    ///
    /// # Safety
    ///
    /// [I14] `base` must point to at least [`block_size`](Self::block_size)
    /// bytes, 8-byte aligned, zero-initialised (or left exactly as a
    /// previous handle over the same block left it), valid for reads
    /// and writes for the handle's whole lifetime, and — when shared
    /// across processes — mapped `MAP_SHARED` at this same virtual
    /// address in every participating process. No memory in the block
    /// may be accessed except through THE-protocol operations.
    pub unsafe fn from_raw(base: *mut u8, capacity: usize) -> Self {
        const { assert!(std::mem::align_of::<T>() <= 8) };
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            (base as usize).is_multiple_of(8),
            "deque block must be 8-byte aligned"
        );
        RawDeque {
            base: NonNull::new(base).expect("deque block must not be null"),
            capacity: capacity as u64,
            _entries: PhantomData,
        }
    }

    #[inline]
    fn hdr(&self) -> &Hdr {
        // SAFETY: [I14] `from_raw` guarantees the block covers the
        // header, aligned and valid for the handle's lifetime; `Hdr` is
        // three atomics, so shared references race-freely by design.
        unsafe { self.base.cast::<Hdr>().as_ref() }
    }

    #[inline]
    fn slot(&self, position: u64) -> *mut T {
        let off =
            OFF_ENTRIES as usize + (position % self.capacity) as usize * std::mem::size_of::<T>();
        // SAFETY: [I14] `position % capacity` keeps the offset inside the
        // block `from_raw` vouched for.
        unsafe { self.base.as_ptr().add(off).cast::<T>() }
    }

    #[inline]
    fn acquire_lock(&self) {
        // Test-and-test-and-set spin lock; critical sections are a handful
        // of loads/stores so spinning is appropriate.
        let h = self.hdr();
        loop {
            if h.lock.load(Ordering::Relaxed) == 0
                && h.lock
                    .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn release_lock(&self) {
        self.hdr().lock.store(0, Ordering::Release);
    }

    /// Owner-only: push an entry at the bottom.
    ///
    /// Panics on overflow (the runtimes size queues for the maximum task
    /// depth, as the paper does for the uni-address region).
    pub fn push(&self, value: T) {
        let h = self.hdr();
        let b = h.bottom.load(Ordering::Relaxed);
        // `t <= b` whenever the owner is between ops: a thief only
        // advances top over an entry it may keep (t < bottom, and the
        // owner's last-entry pops go through the lock), and the owner's
        // own pops restore bottom before returning.
        let t = h.top.load(Ordering::Acquire);
        assert!(
            b - t < self.capacity,
            "task queue overflow (capacity {})",
            self.capacity
        );
        // SAFETY: [I1][I2][I14] position `b` is not visible to thieves
        // until the bottom store below, and the capacity check guarantees
        // the slot's previous occupant was consumed: reuse of a slot a
        // thief is reading (position `t + cap`) would need the loaded top
        // to exceed `t`, which cannot happen while that thief's critical
        // section holds top static at `t`.
        unsafe { self.slot(b).write(value) };
        // Publish: entry write happens-before the bottom bump. Release
        // (not SeqCst) suffices: the only reader that must see the slot
        // write is a thief whose Acquire `bottom` load (pre-check) or
        // SeqCst locked load pairs with this store, and push is not a
        // side of the pop/steal Dekker handshake (only pop's decrement
        // and the thief's locked bottom load need the SC order).
        // uat-check's RA mode proves both directions: the clean suite
        // passes with Release, and the `push-publish-weak` mutation
        // (Relaxed) yields a stale-slot counterexample. See DESIGN.md
        // section 11.
        h.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop the youngest entry (THE protocol).
    pub fn pop(&self) -> Option<T> {
        let h = self.hdr();
        let b = h.bottom.load(Ordering::Relaxed);
        let t = h.top.load(Ordering::Relaxed);
        if t >= b {
            return None;
        }
        let nb = b - 1;
        // T--; fence; read H — SeqCst gives the store-load ordering the
        // protocol's proof needs.
        h.bottom.store(nb, Ordering::SeqCst);
        let t = h.top.load(Ordering::SeqCst);
        if t < nb {
            // Fast path — strictly more than one entry beyond top, so
            // position nb cannot be any thief's target: a thief in its
            // critical section steals exactly the position it loaded as
            // top, which is <= t < nb.
            //
            // The bound must be strict. With `t <= nb` (the original
            // code) the owner could take position nb == t lock-free
            // while a thief that had already read `top = t, bottom > t`
            // under the lock went on to steal the same entry — both
            // sides kept it. `uat-check`'s op-granularity model finds
            // that double claim in a 12-step interleaving (see
            // DESIGN.md section 7); the simulator's SimDeque keeps the
            // relaxed bound soundly only because engine events make the
            // whole pop atomic against whole steal phases.
            //
            // SAFETY: [I3][I14] no thief can consume or claim position nb
            // (above), and slot reuse requires the position to be consumed
            // first; we own position nb exclusively.
            return Some(unsafe { self.slot(nb).read() });
        }
        // Last entry (t == nb) or a thief already overtook the
        // decrement: restore and arbitrate under the lock (victim
        // spins, exactly as Cilk's victim does).
        h.bottom.store(b, Ordering::SeqCst);
        self.acquire_lock();
        let t = h.top.load(Ordering::Relaxed);
        let result = if t >= b {
            // The thief won the last entry.
            None
        } else {
            h.bottom.store(b - 1, Ordering::Relaxed);
            // SAFETY: [I3][I4][I14] under the lock with top < b, position
            // b-1 is ours.
            Some(unsafe { self.slot(b - 1).read() })
        };
        self.release_lock();
        result
    }

    /// Thief: steal the oldest entry (FIFO end). Returns `None` if the
    /// deque is empty or another thief holds the lock (abort, as the
    /// paper's RDMA thieves do, rather than queue up).
    ///
    /// This is [`steal_phased`](Self::steal_phased) with a clock that
    /// reads nothing; inlining folds the stamps away, so untimed steals
    /// pay nothing for them.
    #[inline]
    pub fn steal(&self) -> Option<T> {
        self.steal_phased(|| 0).0
    }

    /// [`steal`](Self::steal) with phase-boundary timestamps from
    /// `clock`, for tracing thieves: the returned [`StealPhases`] brackets
    /// the empty pre-check, the lock acquisition, and the entry take the
    /// same way the paper's Table 3 brackets the RDMA protocol's phases.
    #[inline]
    pub fn steal_phased<C: FnMut() -> u64>(&self, mut clock: C) -> (Option<T>, StealPhases) {
        let h = self.hdr();
        let start = clock();
        let phases = |checked, locked, end, outcome| StealPhases {
            start,
            checked,
            locked,
            end,
            outcome,
        };
        // Empty pre-check (the RDMA protocol's phase 1).
        let t = h.top.load(Ordering::Acquire);
        let b = h.bottom.load(Ordering::Acquire);
        if t >= b {
            let checked = clock();
            return (
                None,
                phases(checked, checked, checked, StealAttemptOutcome::Empty),
            );
        }
        let checked = clock();
        if h.lock
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            let locked = clock();
            return (
                None,
                phases(checked, locked, locked, StealAttemptOutcome::LockBusy),
            );
        }
        let locked = clock();
        let t = h.top.load(Ordering::Relaxed);
        // SeqCst pairs with the pop's bottom store.
        let b = h.bottom.load(Ordering::SeqCst);
        let (result, outcome) = if t >= b {
            (None, StealAttemptOutcome::Raced)
        } else {
            // While we hold the lock, `top` is static at t: only thieves
            // write top, and they are locked out. The owner can
            // therefore never consume position t concurrently —
            // its fast-path pop requires `top < new_bottom`, i.e. it only
            // takes positions strictly above t, and its last-entry path
            // arbitrates under this same lock. Claiming after the read is
            // safe for exactly that reason; no Dekker validation of
            // bottom is needed (and validating on bottom would be
            // ABA-broken anyway: a pop + re-push during our critical
            // section restores bottom while recycling the slot).
            //
            // SAFETY: [I2][I3][I4][I14] position t is live (t < b) and
            // cannot be consumed or its slot reused while top == t (push
            // at position t+cap fails the capacity check until top
            // advances), so the read observes a fully initialised entry
            // that only we will keep.
            let v = unsafe { self.slot(t).read() };
            h.top.store(t + 1, Ordering::SeqCst);
            (Some(v), StealAttemptOutcome::Taken)
        };
        self.release_lock();
        let end = clock();
        (result, phases(checked, locked, end, outcome))
    }

    /// Entries currently in the deque (racy snapshot).
    pub fn len(&self) -> u64 {
        let h = self.hdr();
        let t = h.top.load(Ordering::Acquire);
        let b = h.bottom.load(Ordering::Acquire);
        b.saturating_sub(t)
    }

    /// Whether the deque appears empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum simultaneous entries.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }
}

/// A [`RawDeque`] over a zeroed heap block that it owns (the thread
/// runtime's placement). Every operation is the borrowed deque's, via
/// `Deref`.
pub struct NativeDeque<T: Copy> {
    raw: RawDeque<T>,
    // The block. Touched only through `raw` after construction; a
    // `Vec`'s buffer stays put (and is not retagged) when the deque
    // moves.
    _block: Vec<u64>,
}

impl<T: Copy> NativeDeque<T> {
    /// A deque with room for `capacity` simultaneous entries.
    pub fn new(capacity: usize) -> Self {
        let mut block = vec![0u64; RawDeque::<T>::block_size(capacity).div_ceil(8)];
        // SAFETY: [I14] a zeroed, 8-aligned block of at least
        // `block_size(capacity)` bytes, owned by the returned deque and
        // dropped after `raw`.
        let raw = unsafe { RawDeque::from_raw(block.as_mut_ptr().cast(), capacity) };
        NativeDeque { raw, _block: block }
    }
}

impl<T: Copy> Deref for NativeDeque<T> {
    type Target = RawDeque<T>;

    fn deref(&self) -> &RawDeque<T> {
        &self.raw
    }
}

/// How an instrumented steal attempt ended (the native analogue of the
/// trace layer's `StealOutcome`, kept local so `uat-deque` stays at the
/// bottom of the dependency graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealAttemptOutcome {
    /// An entry was taken.
    Taken,
    /// The pre-check saw an empty deque.
    Empty,
    /// Another thief held the lock; aborted without queuing.
    LockBusy,
    /// Locked successfully but the deque had drained (lost the race).
    Raced,
}

/// Clock readings bracketing the phases of one [`RawDeque::steal_phased`]
/// attempt: `[start, checked)` is the empty pre-check, `[checked, locked)`
/// the lock acquisition, `[locked, end)` the entry take and unlock. On an
/// abort the later boundaries collapse onto the point the attempt ended.
#[derive(Clone, Copy, Debug)]
pub struct StealPhases {
    /// Clock at attempt start.
    pub start: u64,
    /// Clock after the empty pre-check.
    pub checked: u64,
    /// Clock after the lock CAS resolved.
    pub locked: u64,
    /// Clock after the entry was taken (or the attempt aborted) and the
    /// lock released.
    pub end: u64,
    /// How the attempt ended.
    pub outcome: StealAttemptOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64 as Counter;

    /// One test subject per placement: the heap block a [`NativeDeque`]
    /// owns, and a caller block behind a [`ShmDeque`]. Every test below
    /// runs over both.
    enum Placed {
        Owned(NativeDeque<u64>),
        Caller { d: ShmDeque, _block: Vec<u64> },
    }

    impl Deref for Placed {
        type Target = RawDeque<u64>;

        fn deref(&self) -> &RawDeque<u64> {
            match self {
                Placed::Owned(d) => d,
                Placed::Caller { d, .. } => d,
            }
        }
    }

    fn placements(capacity: usize) -> [Placed; 2] {
        let mut block = vec![0u64; ShmDeque::block_size(capacity).div_ceil(8)];
        // SAFETY: [I14] the vector's buffer is zeroed, 8-byte aligned,
        // big enough by construction, and owned by the same `Placed`
        // (dropped after the handle), touched only through the handle.
        let d = unsafe { ShmDeque::from_raw(block.as_mut_ptr().cast(), capacity) };
        [
            Placed::Owned(NativeDeque::new(capacity)),
            Placed::Caller { d, _block: block },
        ]
    }

    #[test]
    fn zeroed_block_is_valid_and_empty() {
        for d in placements(4) {
            assert!(d.is_empty());
            assert_eq!(d.pop(), None);
            assert_eq!(d.steal(), None);
            assert_eq!(d.capacity(), 4);
        }
    }

    #[test]
    fn lifo_for_owner() {
        for d in placements(16) {
            for i in 0..5u64 {
                d.push(i);
            }
            for i in (0..5).rev() {
                assert_eq!(d.pop(), Some(i));
            }
            assert_eq!(d.pop(), None);
        }
    }

    #[test]
    fn fifo_for_thief() {
        for d in placements(16) {
            for i in 0..5u64 {
                d.push(i);
            }
            for i in 0..5 {
                assert_eq!(d.steal(), Some(i));
            }
            assert_eq!(d.steal(), None);
        }
    }

    #[test]
    fn both_ends_interleave() {
        for d in placements(16) {
            for i in 0..6u64 {
                d.push(i);
            }
            assert_eq!(d.steal(), Some(0));
            assert_eq!(d.steal(), Some(1));
            assert_eq!(d.pop(), Some(5));
            assert_eq!(d.pop(), Some(4));
            assert_eq!(d.len(), 2);
        }
    }

    #[test]
    fn wraparound() {
        for d in placements(3) {
            for round in 0..10u64 {
                d.push(round * 2);
                d.push(round * 2 + 1);
                assert_eq!(d.steal(), Some(round * 2));
                assert_eq!(d.pop(), Some(round * 2 + 1));
            }
            assert!(d.is_empty());
        }
    }

    #[test]
    fn overflow_panics() {
        for d in placements(2) {
            d.push(1);
            d.push(2);
            let err = catch_unwind(AssertUnwindSafe(|| d.push(3))).expect_err("third push fits");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("overflow"), "unexpected panic: {msg}");
        }
    }

    #[test]
    fn len_tracks() {
        for d in placements(8) {
            assert!(d.is_empty());
            d.push(1);
            d.push(2);
            assert_eq!(d.len(), 2);
            d.pop();
            assert_eq!(d.len(), 1);
            assert_eq!(d.capacity(), 8);
        }
    }

    /// One owner and several thieves hammer the deque; every pushed value
    /// must be consumed exactly once (conservation), which is the property
    /// the THE proof guarantees.
    #[test]
    fn concurrent_conservation() {
        const PER_ROUND: u64 = 64;
        // Miri executes this orders of magnitude slower; a few rounds
        // still cross every protocol path under its race detector.
        const ROUNDS: u64 = if cfg!(miri) { 4 } else { 200 };
        const THIEVES: usize = 3;
        for d in placements(PER_ROUND as usize + 1) {
            let consumed = Counter::new(0);
            let sum = Counter::new(0);
            let done = Counter::new(0);
            let take = |v: u64| {
                consumed.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(v, Ordering::Relaxed);
            };
            std::thread::scope(|s| {
                for _ in 0..THIEVES {
                    s.spawn(|| {
                        while done.load(Ordering::Acquire) == 0 || !d.is_empty() {
                            match d.steal() {
                                Some(v) => take(v),
                                None => std::hint::spin_loop(),
                            }
                        }
                    });
                }
                // Values are 1..=ROUNDS*PER_ROUND, so the expected sum is
                // closed-form and checkable after the scope joins.
                let mut next: u64 = 1;
                for _ in 0..ROUNDS {
                    for _ in 0..PER_ROUND {
                        d.push(next);
                        next += 1;
                    }
                    // Owner pops about half back (LIFO), racing the
                    // thieves, then drains the rest or lets thieves
                    // take them.
                    for _ in 0..PER_ROUND / 2 {
                        if let Some(v) = d.pop() {
                            take(v);
                        }
                    }
                    while let Some(v) = d.pop() {
                        take(v);
                    }
                }
                done.store(1, Ordering::Release);
            });
            let n = ROUNDS * PER_ROUND;
            assert_eq!(consumed.load(Ordering::Acquire), n);
            assert_eq!(sum.load(Ordering::Acquire), n * (n + 1) / 2);
            assert!(d.is_empty());
        }
    }

    /// The last-entry race distilled: each round pushes one entry and the
    /// owner's pop races a thief's steal for it; exactly one side may keep
    /// it. The strict fast-path bound plus the locked last-entry path is
    /// what makes this hold — the earlier `t <= nb` bound let both sides
    /// keep the entry (see the op-granularity model in `uat-check`).
    #[test]
    fn last_entry_race_exactly_one_winner() {
        const ROUNDS: usize = if cfg!(miri) { 50 } else { 20_000 };
        for d in placements(2) {
            let claims: Vec<Counter> = (0..ROUNDS).map(|_| Counter::new(0)).collect();
            let done = Counter::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while done.load(Ordering::Acquire) == 0 {
                        if let Some(v) = d.steal() {
                            claims[v as usize].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
                for r in 0..ROUNDS {
                    d.push(r as u64);
                    // Owner pop returning None means the thief resolved
                    // the race in its favour and records the value itself.
                    if let Some(v) = d.pop() {
                        claims[v as usize].fetch_add(1, Ordering::Relaxed);
                    }
                }
                done.store(1, Ordering::Release);
            });
            assert!(d.is_empty());
            for (r, c) in claims.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Acquire),
                    1,
                    "round {r} claimed twice or lost"
                );
            }
        }
    }

    /// The instrumented steal is the steal; its phase stamps are ordered
    /// by construction.
    #[test]
    fn steal_phased_matches_steal_semantics() {
        for d in placements(8) {
            let mut clk = 0u64;
            let mut clock = || {
                clk += 1;
                clk
            };
            let (got, ph) = d.steal_phased(&mut clock);
            assert_eq!(got, None);
            assert_eq!(ph.outcome, StealAttemptOutcome::Empty);
            assert!(ph.start <= ph.checked && ph.checked == ph.end);

            d.push(7);
            d.push(8);
            let (got, ph) = d.steal_phased(&mut clock);
            assert_eq!(got, Some(7));
            assert_eq!(ph.outcome, StealAttemptOutcome::Taken);
            assert!(ph.start <= ph.checked && ph.checked <= ph.locked && ph.locked <= ph.end);
            assert_eq!(d.pop(), Some(8));

            // A held lock aborts instead of queuing.
            d.push(9);
            d.hdr().lock.store(1, Ordering::Release);
            let (got, ph) = d.steal_phased(&mut clock);
            assert_eq!(got, None);
            assert_eq!(ph.outcome, StealAttemptOutcome::LockBusy);
            assert_eq!(d.steal(), None, "plain steal aborts on the lock too");
            d.hdr().lock.store(0, Ordering::Release);
            assert_eq!(d.steal(), Some(9));
        }
    }

    /// Two thieves only (owner quiescent): all entries stolen exactly once.
    #[test]
    fn thieves_only_race() {
        let n: u64 = if cfg!(miri) { 64 } else { 1000 };
        for d in placements(1024) {
            for i in 0..n {
                d.push(i);
            }
            let taken = Counter::new(0);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let mut local = 0u64;
                        while !d.is_empty() {
                            if d.steal().is_some() {
                                local += 1;
                            }
                        }
                        taken.fetch_add(local, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(taken.load(Ordering::Acquire), n);
        }
    }
}
