//! Shared worker pool multiplexing many independent APC graphs per cycle.
//!
//! Before this module, every threaded executor privately owned `threads-1`
//! OS threads: N concurrent sessions cost N×threads and fight the OS
//! scheduler — exactly the oversubscription §V of the paper warns against.
//! A [`VenuePool`] owns the threads once; each strategy becomes a *dispatch
//! policy* over the pool's workers, and the single-session executors are
//! thin wrappers around a one-session pool.
//!
//! # The batch protocol
//!
//! The pool runs a batch epoch on top of each session's cycle epoch:
//!
//! 1. The driver *stages* each session: `Shared::prepare_cycle` resets the
//!    session graph, copies externals and bumps the session epoch (a
//!    `Release` store that wakes nobody), then [`VenuePool::stage`] marks
//!    the session's [`PoolEntry`] for the next batch.
//! 2. One [`VenuePool::dispatch`] bumps the pool epoch (`Release`) and
//!    unparks every pool worker. The pool epoch `Acquire` in the worker
//!    loop publishes *all* staged-session driver writes at once.
//! 3. Worker `w` walks the entry table in order and runs lane `w` of every
//!    session staged for this batch (skipping sessions whose configured
//!    thread count is ≤ `w`), using that strategy's unchanged
//!    `run_cycle_part`. The driver does the same for lane 0 (directly, or
//!    via [`VenuePool::run_driver_parts`]).
//! 4. Per session, cycle completion is exactly what it always was: the
//!    driver waits for the session's done-counter (and, for WS, its cycle
//!    exit barrier).
//! 5. [`VenuePool::quiesce`] waits until every worker has finished walking
//!    the entry table (`exited == workers`). Only after that may the
//!    driver mutate the entry table (register/unregister), reseed WS
//!    deques, or swap a session's topology — everything between batches is
//!    again plain single-threaded data.
//!
//! # Fork-join batches
//!
//! [`VenuePool::fork_join`] is one more batch kind on the same epoch and
//! `exited` protocol: instead of staging sessions, the driver publishes a
//! borrowed lane job tagged with the next pool epoch. A worker runs the job
//! for its epoch before walking the (then unstaged) entry table, and the
//! driver quiesces before returning, so the borrow never outlives the call.
//! The engine uses it to run per-deck front-end work on the lanes that
//! already serve its graph.
//!
//! Deadlock freedom: driver and workers traverse staged sessions in the
//! same entry order, and within a session the per-strategy protocols are
//! unchanged. All park/wake sites already tolerate spurious wakeups, so
//! cross-session unparks (one OS thread serves the same lane of every
//! session) are benign.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use super::hybrid::HybridShared;
use super::planned::PlannedShared;
use super::stealing::WsShared;
use super::{busy, hybrid, planned, sleeping, stealing, DriverCell, Shared};
use crate::pad::CachePadded;

/// Opaque identifier of a session registered on a [`VenuePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id, for tagging telemetry/flight exports.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Per-strategy dispatch state of one registered session. Wraps the
/// strategy's shared block and routes lane execution to its unchanged
/// `run_cycle_part`.
pub(crate) enum SessionState {
    Busy(Arc<Shared>),
    Sleep(Arc<Shared>),
    Steal(Arc<WsShared>),
    Hybrid(Arc<HybridShared>),
    Planned(Arc<PlannedShared>),
}

impl SessionState {
    fn base(&self) -> &Shared {
        match self {
            SessionState::Busy(sh) | SessionState::Sleep(sh) => sh,
            SessionState::Steal(ws) => &ws.base,
            SessionState::Hybrid(hy) => &hy.base,
            SessionState::Planned(pl) => &pl.base,
        }
    }

    fn threads(&self) -> usize {
        self.base().threads
    }

    /// Run lane `me` of this session's cycle `epoch`.
    ///
    /// # Safety
    /// Caller holds the epoch happens-before edge (pool-epoch `Acquire`
    /// for workers; the driver published the cycle itself) and is the only
    /// participant running lane `me` of this session this cycle.
    unsafe fn run_part(&self, me: usize, epoch: u64) {
        match self {
            SessionState::Busy(sh) => busy::run_cycle_part(sh, me, epoch),
            SessionState::Sleep(sh) => sleeping::run_cycle_part(sh, me, epoch),
            SessionState::Steal(ws) => stealing::run_cycle_part(ws, me, epoch),
            SessionState::Hybrid(hy) => hybrid::run_cycle_part(hy, me, epoch),
            SessionState::Planned(pl) => planned::run_cycle_part(pl, me, epoch),
        }
    }
}

/// One registered session in the pool's entry table. Plain (non-atomic)
/// fields: mutated only between batches, when [`VenuePool::quiesce`] has
/// proven every worker is parked outside the table.
struct PoolEntry {
    id: u64,
    state: SessionState,
    /// Pool epoch this session is staged for (a worker runs the entry only
    /// when this equals the batch it woke for).
    batch_epoch: u64,
    /// The session epoch published by `prepare_cycle` for that batch.
    session_epoch: u64,
}

/// State shared between the driver and the pool's worker threads.
struct PoolCore {
    /// Batch epoch. Bumped with `Release` by `dispatch`; the worker-side
    /// `Acquire` publishes every staged session's driver writes.
    epoch: CachePadded<AtomicU64>,
    /// Workers that finished walking the entry table for the current batch.
    exited: CachePadded<AtomicU32>,
    shutdown: AtomicBool,
    /// The entry table. Driver-only between batches; workers hold a shared
    /// reference only while a batch is in flight.
    entries: DriverCell<Vec<PoolEntry>>,
    /// The lane job of a fork-join batch. Driver-only between batches,
    /// like `entries`; a worker runs it only when its epoch matches the
    /// batch it woke for.
    job: DriverCell<Option<LaneJob>>,
    /// Spawned workers (lanes `1..threads`), i.e. `threads - 1`.
    workers: u32,
}

/// A lane job published for one pool epoch by [`VenuePool::fork_join`].
/// The `'static` is a lie told only while the job is live: `fork_join`
/// quiesces before returning and clears the cell, so no worker can reach
/// the borrow after the caller's frame ends.
#[derive(Clone, Copy)]
struct LaneJob {
    epoch: u64,
    f: &'static (dyn Fn(usize) + Sync),
}

// SAFETY: `entries` and `job` are governed by the batch protocol documented
// at module level — workers read them only between the pool-epoch `Acquire`
// and their `exited` `Release`; the driver mutates them only after
// `quiesce`.
unsafe impl Sync for PoolCore {}

fn worker_loop(core: &PoolCore, me: usize) {
    let mut seen = 0u64;
    while let Some(pe) = wait_for_batch(core, seen) {
        seen = pe;
        // SAFETY: the pool-epoch Acquire in `wait_for_batch` publishes the
        // driver's job, entry-table and per-session writes; the driver will
        // not touch them again before our `exited` Release below.
        if let Some(job) = unsafe { *core.job.get() } {
            if job.epoch == pe {
                (job.f)(me);
            }
        }
        // SAFETY: as above.
        let entries = unsafe { core.entries.get() };
        for e in entries.iter() {
            if e.batch_epoch == pe && me < e.state.threads() {
                // SAFETY: lane `me` of this session's staged cycle is ours
                // alone; the epoch edge is held (see above).
                unsafe { e.state.run_part(me, e.session_epoch) };
            }
        }
        core.exited.fetch_add(1, Ordering::Release);
    }
}

/// Worker-side: wait until the pool epoch exceeds `seen` (spin, then park).
/// Returns the new epoch, or `None` on shutdown.
fn wait_for_batch(core: &PoolCore, seen: u64) -> Option<u64> {
    let mut spins = 0u32;
    loop {
        let e = core.epoch.load(Ordering::Acquire);
        if e > seen {
            return Some(e);
        }
        if core.shutdown.load(Ordering::Acquire) {
            return None;
        }
        spins += 1;
        if spins < 512 {
            core::hint::spin_loop();
        } else if spins < 1024 {
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
    }
}

/// A persistent shared worker pool that multiplexes many independent APC
/// graphs per cycle. Owns `threads - 1` OS threads (the driver supplies
/// lane 0); sessions of any strategy register onto it and are dispatched
/// in batches. See the module docs for the batch protocol.
pub struct VenuePool {
    core: Arc<PoolCore>,
    threads: usize,
    /// Park handles of the spawned workers: `handles[w - 1]` is lane `w`.
    handles: Vec<std::thread::Thread>,
    joiners: Vec<JoinHandle<()>>,
    /// Driver-side: a dispatched batch has not been quiesced yet.
    in_flight: AtomicBool,
    next_id: AtomicU64,
}

impl VenuePool {
    /// Create a pool with `threads` lanes total (lane 0 is the driver;
    /// `threads - 1` OS threads are spawned).
    pub fn new(threads: usize) -> Self {
        assert!(
            (1..=64).contains(&threads),
            "thread count {threads} out of range"
        );
        let core = Arc::new(PoolCore {
            epoch: CachePadded::new(AtomicU64::new(0)),
            exited: CachePadded::new(AtomicU32::new(0)),
            shutdown: AtomicBool::new(false),
            entries: DriverCell::new(Vec::new()),
            job: DriverCell::new(None),
            workers: (threads - 1) as u32,
        });
        let mut handles = Vec::with_capacity(threads - 1);
        let mut joiners = Vec::with_capacity(threads - 1);
        for me in 1..threads {
            let c = Arc::clone(&core);
            let j = std::thread::Builder::new()
                .name(format!("venue-worker-{me}"))
                .spawn(move || worker_loop(&c, me))
                .expect("spawn venue worker");
            handles.push(j.thread().clone());
            joiners.push(j);
        }
        VenuePool {
            core,
            threads,
            handles,
            joiners,
            in_flight: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        }
    }

    /// Total lanes (driver + spawned workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of registered sessions.
    pub fn sessions(&self) -> usize {
        self.quiesce();
        // SAFETY: quiesced — the table is driver-owned.
        unsafe { self.core.entries.get() }.len()
    }

    /// The park-handle vector a session `Shared` needs: slot 0 is a
    /// placeholder for the driver (refreshed by `prepare_cycle` each
    /// cycle), slots `1..threads` are the pool workers serving those lanes.
    pub(crate) fn session_handles(&self, threads: usize) -> Vec<std::thread::Thread> {
        assert!(
            threads <= self.threads,
            "session wants {threads} lanes, pool has {}",
            self.threads
        );
        let mut v = Vec::with_capacity(threads);
        v.push(std::thread::current());
        v.extend(self.handles[..threads - 1].iter().cloned());
        v
    }

    /// Register a session. Driver-only; waits for any in-flight batch.
    pub(crate) fn register(self: &Arc<Self>, state: SessionState) -> PoolBinding {
        assert!(
            state.threads() <= self.threads,
            "session wants {} lanes, pool has {}",
            state.threads(),
            self.threads
        );
        self.quiesce();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // SAFETY: quiesced — the table is driver-owned.
        unsafe { self.core.entries.get_mut() }.push(PoolEntry {
            id,
            state,
            batch_epoch: 0,
            session_epoch: 0,
        });
        PoolBinding {
            pool: Arc::clone(self),
            session: SessionId(id),
        }
    }

    fn unregister(&self, session: SessionId) {
        self.quiesce();
        // SAFETY: quiesced — the table is driver-owned.
        unsafe { self.core.entries.get_mut() }.retain(|e| e.id != session.0);
    }

    /// Stage `session`'s prepared cycle `session_epoch` for the next batch.
    /// Driver-only; the previous batch must have been quiesced (the
    /// executors' `venue_stage` does this).
    pub(crate) fn stage(&self, session: SessionId, session_epoch: u64) {
        debug_assert!(!self.in_flight.load(Ordering::Relaxed));
        let next = self.core.epoch.load(Ordering::Relaxed) + 1;
        // SAFETY: no batch in flight — the table is driver-owned.
        let entries = unsafe { self.core.entries.get_mut() };
        let e = entries
            .iter_mut()
            .find(|e| e.id == session.0)
            .expect("staged session is registered");
        e.batch_epoch = next;
        e.session_epoch = session_epoch;
    }

    /// Publish the staged batch: bump the pool epoch (`Release`) and wake
    /// every pool worker. The driver must then run its lane-0 share of
    /// every staged session (directly or via
    /// [`run_driver_parts`](Self::run_driver_parts)) before collecting.
    pub fn dispatch(&self) {
        self.core.exited.store(0, Ordering::Relaxed);
        let next = self.core.epoch.load(Ordering::Relaxed) + 1;
        self.core.epoch.store(next, Ordering::Release);
        self.in_flight.store(true, Ordering::Relaxed);
        for h in &self.handles {
            h.unpark();
        }
    }

    /// Run `f(lane)` once on every lane of the pool — `f(0)` on the calling
    /// driver, `f(w)` on worker `w` — and return once all of them finished.
    /// The job rides one batch of the ordinary protocol: the pool is
    /// quiesced first, the job is published for the next epoch, and the
    /// pool is quiesced again before returning (also when `f(0)` unwinds),
    /// which is what makes handing the workers a borrowed closure sound.
    /// Every worker takes part; `f` ignores lanes it has no work for.
    ///
    /// A 1-lane pool runs `f(0)` inline and never bumps the epoch.
    ///
    /// # Panics
    /// If any session is staged for the next batch: the fork would consume
    /// that batch's epoch (and run the session's worker lanes without the
    /// driver's). Stage sessions after forking, never before.
    pub fn fork_join(&self, f: &(dyn Fn(usize) + Sync)) {
        self.quiesce();
        let next = self.core.epoch.load(Ordering::Relaxed) + 1;
        // SAFETY: quiesced — the table is driver-owned.
        let staged = unsafe { self.core.entries.get() }
            .iter()
            .any(|e| e.batch_epoch == next);
        assert!(
            !staged,
            "fork_join with a session staged for the next batch"
        );
        if self.threads == 1 {
            f(0);
            return;
        }
        // SAFETY: lifetime erasure only; `Join` quiesces and clears the job
        // before this frame (and the borrow of `f`) ends, even on unwind.
        let f: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        // SAFETY: quiesced — the job cell is driver-owned.
        unsafe { self.core.job.set(Some(LaneJob { epoch: next, f })) };
        self.dispatch();
        struct Join<'a>(&'a VenuePool);
        impl Drop for Join<'_> {
            fn drop(&mut self) {
                self.0.quiesce();
                // SAFETY: quiesced — the job cell is driver-owned again.
                unsafe { self.0.core.job.set(None) };
            }
        }
        let _join = Join(self);
        f(0);
    }

    /// Run the driver's (lane 0) share of every session staged for the
    /// current batch, in entry order — the same order the workers use.
    pub fn run_driver_parts(&self) {
        let pe = self.core.epoch.load(Ordering::Relaxed);
        // SAFETY: the driver published this batch itself; the table is not
        // mutated while the batch is in flight.
        let entries = unsafe { self.core.entries.get() };
        for e in entries.iter() {
            if e.batch_epoch == pe {
                // SAFETY: lane 0 belongs to the driver; we published the
                // session epoch in `stage`.
                unsafe { e.state.run_part(0, e.session_epoch) };
            }
        }
    }

    /// Driver-side: wait until every pool worker finished walking the
    /// entry table for the last dispatched batch. After this the table and
    /// all session state are plain driver-owned data again (safe to
    /// register/unregister sessions, reseed WS deques, swap topologies).
    /// No-op when no batch is in flight.
    pub fn quiesce(&self) {
        if !self.in_flight.swap(false, Ordering::Relaxed) {
            return;
        }
        let mut spins = 0u32;
        while self.core.exited.load(Ordering::Acquire) != self.core.workers {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }
}

impl Drop for VenuePool {
    fn drop(&mut self) {
        self.quiesce();
        self.core.shutdown.store(true, Ordering::Release);
        for h in &self.handles {
            h.unpark();
        }
        for j in self.joiners.drain(..) {
            let _ = j.join();
        }
    }
}

/// An executor's membership in a pool: keeps the pool alive and
/// unregisters the session on drop.
pub(crate) struct PoolBinding {
    pool: Arc<VenuePool>,
    session: SessionId,
}

impl PoolBinding {
    pub(crate) fn pool(&self) -> &Arc<VenuePool> {
        &self.pool
    }

    /// Stage this session's prepared cycle for the pool's next batch.
    pub(crate) fn stage(&self, session_epoch: u64) {
        self.pool.stage(self.session, session_epoch);
    }
}

impl Drop for PoolBinding {
    fn drop(&mut self) {
        self.pool.unregister(self.session);
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{diamond_sum_graph, fan_graph};
    use super::super::{BusyExecutor, GraphExecutor, SequentialExecutor, StealExecutor};
    use super::*;
    use crate::graph::Priority;

    const FRAMES: usize = 64;

    #[test]
    fn two_sessions_share_one_pool() {
        let pool = Arc::new(VenuePool::new(3));
        let mut a = BusyExecutor::with_pool(diamond_sum_graph(), 3, FRAMES, Priority::Depth, &pool);
        let mut b = StealExecutor::with_pool(fan_graph(7), 2, FRAMES, Priority::Depth, &pool);
        assert_eq!(pool.sessions(), 2);

        let mut seq_a = SequentialExecutor::new(diamond_sum_graph(), FRAMES);
        let mut seq_b = SequentialExecutor::new(fan_graph(7), FRAMES);
        let mut buf = djstar_dsp::AudioBuf::zeroed(2, FRAMES);
        let mut want = djstar_dsp::AudioBuf::zeroed(2, FRAMES);
        for _ in 0..50 {
            // Batched: stage both, one dispatch, driver parts, collect.
            let ea = a.venue_stage(&[], &[]).unwrap();
            let eb = b.venue_stage(&[], &[]).unwrap();
            pool.dispatch();
            pool.run_driver_parts();
            a.venue_collect(ea);
            b.venue_collect(eb);
            pool.quiesce();

            seq_a.run_cycle(&[], &[]);
            seq_b.run_cycle(&[], &[]);
            let last_a = a.topology().len() as u32 - 1;
            let last_b = b.topology().len() as u32 - 1;
            a.read_output(crate::graph::NodeId(last_a), &mut buf);
            seq_a.read_output(crate::graph::NodeId(last_a), &mut want);
            assert_eq!(buf.samples(), want.samples());
            b.read_output(crate::graph::NodeId(last_b), &mut buf);
            seq_b.read_output(crate::graph::NodeId(last_b), &mut want);
            assert_eq!(buf.samples(), want.samples());
        }
        drop(a);
        assert_eq!(pool.sessions(), 1);
        drop(b);
        assert_eq!(pool.sessions(), 0);
    }

    #[test]
    fn register_unregister_midstream() {
        let pool = Arc::new(VenuePool::new(2));
        let mut a = BusyExecutor::with_pool(fan_graph(5), 2, FRAMES, Priority::Depth, &pool);
        for _ in 0..10 {
            a.run_cycle(&[], &[]);
        }
        {
            let mut b = BusyExecutor::with_pool(fan_graph(9), 2, FRAMES, Priority::Depth, &pool);
            for _ in 0..10 {
                let ea = a.venue_stage(&[], &[]).unwrap();
                let eb = b.venue_stage(&[], &[]).unwrap();
                pool.dispatch();
                pool.run_driver_parts();
                a.venue_collect(ea);
                b.venue_collect(eb);
                pool.quiesce();
            }
        }
        assert_eq!(pool.sessions(), 1);
        for _ in 0..10 {
            a.run_cycle(&[], &[]);
        }
    }

    /// Per-lane call counters for a `fork_join` job.
    fn lane_counts(lanes: usize) -> Vec<AtomicU32> {
        (0..lanes).map(|_| AtomicU32::new(0)).collect()
    }

    #[test]
    fn fork_join_runs_every_lane_exactly_once() {
        for lanes in [2, 3, 4] {
            let pool = VenuePool::new(lanes);
            let counts = lane_counts(lanes);
            let driver = std::thread::current().id();
            for round in 1..=50u32 {
                pool.fork_join(&|lane| {
                    assert_eq!(lane == 0, std::thread::current().id() == driver);
                    counts[lane].fetch_add(1, Ordering::Relaxed);
                });
                // Joined: every lane's increment is visible on return.
                for c in &counts {
                    assert_eq!(c.load(Ordering::Relaxed), round);
                }
            }
        }
    }

    #[test]
    fn fork_join_interleaves_with_batches_and_registration() {
        let pool = Arc::new(VenuePool::new(3));
        let counts = lane_counts(3);
        let fork = || pool.fork_join(&|lane| _ = counts[lane].fetch_add(1, Ordering::Relaxed));
        let mut a = BusyExecutor::with_pool(diamond_sum_graph(), 3, FRAMES, Priority::Depth, &pool);
        let mut seq_a = SequentialExecutor::new(diamond_sum_graph(), FRAMES);
        let last = crate::graph::NodeId(a.topology().len() as u32 - 1);
        let mut buf = djstar_dsp::AudioBuf::zeroed(2, FRAMES);
        let mut want = djstar_dsp::AudioBuf::zeroed(2, FRAMES);
        let mut forks = 0;
        for i in 0..30 {
            fork();
            forks += 1;
            // A stealing session comes and goes between forks.
            let mut b = (i % 3 == 0)
                .then(|| StealExecutor::with_pool(fan_graph(5), 2, FRAMES, Priority::Depth, &pool));
            fork();
            forks += 1;
            let ea = a.venue_stage(&[], &[]).unwrap();
            let eb = b.as_mut().map(|b| b.venue_stage(&[], &[]).unwrap());
            pool.dispatch();
            pool.run_driver_parts();
            a.venue_collect(ea);
            if let (Some(b), Some(eb)) = (b.as_mut(), eb) {
                b.venue_collect(eb);
            }
            // The next fork quiesces the batch itself.
            fork();
            forks += 1;
            a.run_cycle(&[], &[]);
            seq_a.run_cycle(&[], &[]);
            seq_a.run_cycle(&[], &[]);
            a.read_output(last, &mut buf);
            seq_a.read_output(last, &mut want);
            assert_eq!(buf.samples(), want.samples());
        }
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), forks);
        }
        assert_eq!(pool.sessions(), 1);
    }

    #[test]
    #[should_panic(expected = "staged")]
    fn fork_join_with_a_staged_session_panics() {
        let pool = Arc::new(VenuePool::new(2));
        let mut a = BusyExecutor::with_pool(fan_graph(5), 2, FRAMES, Priority::Depth, &pool);
        let _ = a.venue_stage(&[], &[]).unwrap();
        pool.fork_join(&|_| {});
    }

    #[test]
    fn one_lane_fork_join_runs_inline_without_an_epoch() {
        let pool = VenuePool::new(1);
        let calls = AtomicU32::new(0);
        for _ in 0..10 {
            pool.fork_join(&|lane| {
                assert_eq!(lane, 0);
                calls.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(pool.core.epoch.load(Ordering::Relaxed), 0);
        assert!(!pool.in_flight.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn oversized_session_rejected() {
        let pool = Arc::new(VenuePool::new(2));
        let _ = BusyExecutor::with_pool(fan_graph(5), 4, FRAMES, Priority::Depth, &pool);
    }
}
