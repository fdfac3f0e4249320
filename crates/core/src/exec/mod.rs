//! Graph execution runtime: per-node atomic dependency state and the four
//! executors (sequential baseline plus the paper's three strategies).
//!
//! # The epoch protocol
//!
//! Every cycle has an *epoch* (a monotonically increasing `u64`). A node is
//! "done for epoch E" when its `done_epoch` atomic equals `E`. The protocol:
//!
//! 1. Between cycles, only the driver thread touches node state. It resets
//!    pending-dependency counters, writes the external inputs, then
//!    publishes the new epoch with a `Release` store (and wakes workers).
//! 2. A worker acquires the epoch (`Acquire` load), which makes every
//!    driver write of step 1 visible.
//! 3. The executing worker of a node reads each predecessor's output only
//!    after observing `done_epoch == E` with `Acquire`; the predecessor's
//!    executor stored it with `Release` after writing the output. This
//!    happens-before edge makes the output buffer read safe.
//! 4. Exactly one worker executes each node per cycle (*exactly-once
//!    ownership*): BUSY/SLEEP assign nodes statically round-robin; WS
//!    transfers ownership through deque `pop`/`steal` uniqueness, with a
//!    node entering a deque exactly once (when its pending counter hits
//!    zero, which `fetch_sub` reports to exactly one caller).
//! 5. The driver returns from `run_cycle` only after the done-counter
//!    reaches the node count with `Acquire`, so after `run_cycle` all node
//!    state is again owned by the driver (workers increment the counter
//!    with `Release` as their final access of the cycle).
//!
//! # Generation swaps
//!
//! Topology is *generational*: a [`StagedGeneration`] (a fully built
//! [`ExecGraph`], plus an optional [`ScheduleBlueprint`] for PLAN) is
//! prepared away from the audio thread, then adopted between cycles through
//! [`GraphExecutor::adopt_generation`]. The swap is driver-only (`&mut
//! self` plus a pool quiesce proves no cycle is in flight; pool workers sit
//! in the batch wait loop, touching only pool atomics) and becomes visible to the
//! workers through the very next epoch `Release` store — the same edge that
//! already publishes the external inputs, so no extra synchronization and
//! no worker teardown. The epoch counter continues monotonically across the
//! swap, which makes the fresh cells' `done_epoch == 0` unable to alias any
//! live epoch; runtime state (processor boxes and output buffers) of nodes
//! that survive the swap is carried over by node name, so DSP state and the
//! last rendered audio persist and the handover is glitch-free.

mod busy;
mod hybrid;
mod planned;
pub mod pool;
mod sequential;
mod sleeping;
mod stealing;

pub use busy::BusyExecutor;
pub use hybrid::HybridExecutor;
pub use planned::{BlueprintError, PlannedExecutor, PlannedNode, ScheduleBlueprint};
pub use pool::{SessionId, VenuePool};
pub use sequential::SequentialExecutor;
pub use sleeping::SleepExecutor;
pub use stealing::StealExecutor;

use crate::faults::FaultPlan;
use crate::flight::{CycleStamp, FlightConfig, FlightRecorder, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Priority, TaskGraph};
use crate::pad::CachePadded;
use crate::processor::{CycleCtx, Processor};
use crate::telemetry::{CounterSnapshot, CycleCounters, TelemetryRing};
use crate::trace::{ScheduleTrace, TraceEvent, TraceKind};
use djstar_dsp::AudioBuf;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum number of predecessors a node may have (the DJ Star mixer has 5).
pub const MAX_INPUTS: usize = 16;

/// The scheduling strategies of the paper (§V) plus the sequential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Original single-threaded queue execution.
    Sequential,
    /// Busy-waiting: round-robin static assignment, spin on dependencies.
    Busy,
    /// Thread-sleeping: round-robin static assignment, park on dependencies,
    /// predecessors wake the registered executor.
    Sleep,
    /// Work-stealing: per-thread deques of ready nodes.
    Steal,
    /// Extension (not in the paper): spin for a bounded budget, then park.
    Hybrid,
    /// Extension: execute a precompiled static schedule (a
    /// [`ScheduleBlueprint`], typically compiled from `djstar-sim`'s
    /// resource-constrained list schedule) with zero runtime queue
    /// management.
    Planned,
}

impl Strategy {
    /// The strategy's name as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Sequential => "SEQ",
            Strategy::Busy => "BUSY",
            Strategy::Sleep => "SLEEP",
            Strategy::Steal => "WS",
            Strategy::Hybrid => "HYBRID",
            Strategy::Planned => "PLAN",
        }
    }

    /// The three parallel strategies.
    pub const PARALLEL: [Strategy; 3] = [Strategy::Busy, Strategy::Sleep, Strategy::Steal];

    /// Every strategy, in the order the tables list them.
    pub const ALL: [Strategy; 6] = [
        Strategy::Sequential,
        Strategy::Busy,
        Strategy::Sleep,
        Strategy::Steal,
        Strategy::Hybrid,
        Strategy::Planned,
    ];
}

/// A fully prepared topology generation, buildable off the audio thread and
/// handed to a running executor through
/// [`GraphExecutor::adopt_generation`].
///
/// The expensive work — graph construction, buffer allocation and (for
/// PLAN) blueprint compilation — happens in [`StagedGeneration::new`] /
/// [`StagedGeneration::with_plan`], which any thread may call. The adopt
/// itself is then a pointer-sized swap plus a name-keyed state carry-over.
pub struct StagedGeneration {
    exec: ExecGraph,
    plan: Option<ScheduleBlueprint>,
}

impl StagedGeneration {
    /// Stage `graph` with `frames`-frame output buffers.
    pub fn new(graph: TaskGraph, frames: usize) -> Self {
        StagedGeneration {
            exec: ExecGraph::new(graph, frames),
            plan: None,
        }
    }

    /// Stage `graph` together with a precompiled PLAN blueprint. Executors
    /// other than PLAN ignore the blueprint; PLAN without one falls back to
    /// a round-robin schedule at adopt time.
    pub fn with_plan(graph: TaskGraph, frames: usize, plan: ScheduleBlueprint) -> Self {
        StagedGeneration {
            exec: ExecGraph::new(graph, frames),
            plan: Some(plan),
        }
    }

    /// The staged topology.
    pub fn topology(&self) -> &GraphTopology {
        self.exec.topology()
    }

    /// Number of nodes in the staged generation.
    pub fn len(&self) -> usize {
        self.exec.len()
    }

    /// True when the staged graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.exec.is_empty()
    }

    /// Whether a PLAN blueprint was staged alongside the graph.
    pub fn has_plan(&self) -> bool {
        self.plan.is_some()
    }

    /// The staged PLAN blueprint, when one was compiled alongside the
    /// graph. Lets differential tests compare cached generations against
    /// freshly staged ones slot by slot.
    pub fn plan(&self) -> Option<&ScheduleBlueprint> {
        self.plan.as_ref()
    }

    pub(crate) fn into_parts(self) -> (ExecGraph, Option<ScheduleBlueprint>) {
        (self.exec, self.plan)
    }
}

/// Why an executor refused to adopt a staged generation. The running
/// generation is left untouched on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// PLAN: the staged blueprint does not fit the staged graph (wrong
    /// coverage, unknown nodes, or an unschedulable replay order).
    Blueprint(BlueprintError),
    /// PLAN: the staged blueprint was compiled for a different worker
    /// count than the executor runs.
    ThreadMismatch {
        /// Workers the executor runs.
        expected: usize,
        /// Workers the blueprint was compiled for.
        got: usize,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Blueprint(e) => write!(f, "staged blueprint rejected: {e}"),
            SwapError::ThreadMismatch { expected, got } => {
                write!(
                    f,
                    "blueprint compiled for {got} workers, executor has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Result of one graph cycle.
#[derive(Debug, Clone, Copy)]
pub struct CycleResult {
    /// Wall-clock graph execution time (what Table I reports).
    pub duration: Duration,
}

/// Object-safe executor interface shared by all strategies.
pub trait GraphExecutor: Send {
    /// Which strategy this executor implements.
    fn strategy(&self) -> Strategy;

    /// Number of worker threads (including the calling thread).
    fn threads(&self) -> usize;

    /// Execute one full graph cycle with the given external inputs.
    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult;

    /// Venue path, first half: publish this session's cycle (reset the
    /// graph, copy externals, bump the session epoch) WITHOUT dispatching
    /// pool workers, and stage it for the pool's next batch. Returns the
    /// session epoch to pass to [`venue_collect`](Self::venue_collect), or
    /// `None` when the executor does not run on a pool (Sequential) — the
    /// caller then runs `run_cycle` inline instead. After staging every
    /// session, the caller fires one `VenuePool::dispatch`, runs each
    /// staged session's driver share via `VenuePool::run_driver_parts`,
    /// and collects.
    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        let _ = (external_audio, controls);
        None
    }

    /// Venue path, second half: wait for this session's staged cycle
    /// (published by [`venue_stage`](Self::venue_stage)) to complete and
    /// harvest its timing/telemetry/trace exactly as `run_cycle` would.
    /// Must only be called with the epoch returned by the matching
    /// `venue_stage`, after the batch was dispatched and the driver parts
    /// ran. Default panics: executors that return `Some` from
    /// `venue_stage` override it.
    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        let _ = epoch;
        unreachable!("venue_collect on an executor that never stages");
    }

    /// Tag this executor's exported telemetry rings and flight windows
    /// with a venue session id (0 = single-session default). Takes effect
    /// for rings/recorders installed *after* the call; the venue server
    /// sets it once, right after construction. Implementations without
    /// telemetry may ignore it.
    fn set_session(&mut self, session: u32) {
        let _ = session;
    }

    /// Enable/disable schedule tracing (adds overhead; off by default).
    fn set_tracing(&mut self, on: bool);

    /// Take the trace of the most recent traced cycle.
    fn take_trace(&mut self) -> Option<ScheduleTrace>;

    /// Enable/disable telemetry counter collection. Far cheaper than
    /// tracing (a handful of `Relaxed` counter adds per node, no
    /// allocation inside a cycle); off by default. Implementations that do
    /// not support telemetry may ignore this.
    fn set_telemetry(&mut self, on: bool) {
        let _ = on;
    }

    /// Take the ring of per-cycle telemetry records collected so far.
    /// Collection continues afterwards (with a fresh ring) if telemetry is
    /// still enabled. `None` when telemetry is off or unsupported.
    fn take_telemetry(&mut self) -> Option<TelemetryRing> {
        None
    }

    /// Install (or clear, with `None`) a fault-injection plan. Driver-only
    /// between cycles (`&mut self`); takes effect from the next
    /// `run_cycle`. With no plan installed the node-execution path pays
    /// one well-predicted branch on an already-loaded `Option` per node,
    /// nothing more.
    fn set_faults(&mut self, plan: Option<FaultPlan>);

    /// Install (or clear, with `None`) a flight recorder sized by `cfg`.
    /// All buffers are allocated here, up front; from the next cycle the
    /// executor records every Exec/BusyWait/Sleep/Steal/Unpark/Fault
    /// interval into pre-allocated overwrite-oldest per-worker rings.
    /// Disabled, the hot path pays one `Relaxed` flag load — the same
    /// zero-cost-when-off contract as [`set_faults`](Self::set_faults).
    /// Implementations that do not support recording may ignore this.
    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        let _ = cfg;
    }

    /// Freeze and take the flight-recorder capture accumulated so far
    /// (spans + cycle stamps); recording continues into the emptied
    /// buffers. `None` when no recorder is installed or recording is
    /// unsupported. Driver-only between cycles (`&mut self`).
    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        None
    }

    /// Adopt a staged topology generation at a cycle boundary (`&mut self`
    /// proves no cycle is in flight). Runtime state of nodes that exist in
    /// both generations (matched by name) is carried over; workers are not
    /// torn down — the next cycle's epoch store publishes the new graph.
    /// Returns the new generation number; on `Err` the running generation
    /// is unchanged.
    fn adopt_generation(&mut self, staged: StagedGeneration) -> Result<u64, SwapError>;

    /// The topology generation currently running (0 before any swap).
    fn generation(&self) -> u64;

    /// Copy a node's output buffer into `dst` (call between cycles only;
    /// enforced by `&mut self`).
    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf);

    /// Mutable access to a node's processor between cycles (to turn knobs).
    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor;

    /// The graph topology.
    fn topology(&self) -> &GraphTopology;

    /// The shared worker pool whose lanes run this executor's cycles, or
    /// `None` for executors that run inline on the driver (Sequential).
    /// Callers may [`fork_join`](VenuePool::fork_join) their own per-lane
    /// work on it between cycles.
    fn pool(&self) -> Option<&Arc<VenuePool>> {
        None
    }
}

/// Runtime payload of a node (behind the `UnsafeCell`).
struct NodeRuntime {
    processor: Box<dyn Processor>,
    output: AudioBuf,
}

/// Cold half of a node's runtime cell: the processor and output buffer,
/// touched only by the node's executor (and predecessor readers after the
/// `Acquire` of `done_epoch`).
struct RuntimeCell(UnsafeCell<NodeRuntime>);

// SAFETY: access is governed by the epoch protocol documented at module
// level (exactly-once ownership per cycle, publication via `done_epoch`).
unsafe impl Sync for RuntimeCell {}

/// Hot half of a node's runtime cell: the atomics every waiter and
/// completer hammers. One cache line per node, so a `done_epoch` store for
/// node *i* never invalidates the line a spinner is polling for node *i+1*
/// (the adjacent-node false sharing the packed layout suffered from).
#[repr(align(64))]
pub(crate) struct NodeCell {
    /// Unmet-dependency counter for the current epoch (SLEEP and WS).
    pub(crate) pending: AtomicU32,
    /// Epoch this node last completed.
    pub(crate) done_epoch: AtomicU64,
    /// SLEEP: registered executor worker index + 1 (0 = none).
    pub(crate) waiter: AtomicUsize,
}

/// A value written only by the driver between cycles and read by workers
/// after acquiring the epoch.
pub(crate) struct DriverCell<T>(UnsafeCell<T>);

// SAFETY: the epoch protocol (driver writes happen-before the Release epoch
// store; workers read after the Acquire epoch load; workers' reads complete
// before their Release done-count increment, which the driver Acquires).
unsafe impl<T: Send> Sync for DriverCell<T> {}

impl<T> DriverCell<T> {
    pub(crate) fn new(v: T) -> Self {
        DriverCell(UnsafeCell::new(v))
    }

    /// Driver-only write between cycles.
    ///
    /// # Safety
    /// No cycle may be in flight and only the driver may call this.
    pub(crate) unsafe fn set(&self, v: T) {
        *self.0.get() = v;
    }

    /// Driver-only in-place mutation between cycles.
    ///
    /// # Safety
    /// No cycle may be in flight and only the driver may call this.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get_mut(&self) -> &mut T {
        &mut *self.0.get()
    }

    /// Read during a cycle (after acquiring the epoch) or by the driver.
    ///
    /// # Safety
    /// Caller must hold the epoch-acquire happens-before edge described in
    /// the module docs (or be the driver between cycles).
    pub(crate) unsafe fn get(&self) -> &T {
        &*self.0.get()
    }
}

/// External per-cycle inputs, copied in by the driver.
#[derive(Default)]
pub(crate) struct ExternalInputs {
    pub audio: Vec<AudioBuf>,
    pub controls: Vec<f32>,
}

/// The executable form of a [`TaskGraph`]: topology plus runtime cells.
///
/// The per-node state is split hot/cold: `cells` holds the scheduling
/// atomics (one cache line per node), `runtimes` the processor and output
/// buffer. Spinners only ever touch `cells`, so completing a neighboring
/// node never steals their line.
pub struct ExecGraph {
    topo: Arc<GraphTopology>,
    cells: Box<[NodeCell]>,
    runtimes: Box<[RuntimeCell]>,
    /// One cache-aligned allocation backing every node's output buffer
    /// (each node's `output` is a view into a distinct, cache-line-rounded
    /// slot). Allocated once at build time; never touched directly during
    /// a cycle — all access goes through the node output views under the
    /// epoch protocol. Kept alive here for exactly as long as the views.
    #[allow(dead_code)]
    arena: djstar_dsp::BufferArena,
    /// Placeholder for initializing input reference arrays.
    empty: AudioBuf,
    /// Node index by unique name, built once at construction (staging
    /// time) so generation swaps resolve carried-over nodes without
    /// allocating on the audio thread.
    name_index: std::collections::HashMap<String, usize>,
}

impl ExecGraph {
    /// Build the runtime graph; every node gets an output buffer of
    /// `frames` frames with the processor's channel count.
    ///
    /// # Panics
    /// Panics if any node has more than [`MAX_INPUTS`] predecessors.
    pub fn new(graph: TaskGraph, frames: usize) -> Self {
        let (topo, processors) = graph.into_parts();
        for n in 0..topo.len() {
            assert!(
                topo.preds(NodeId(n as u32)).len() <= MAX_INPUTS,
                "node {n} has more than {MAX_INPUTS} predecessors"
            );
        }
        // One arena slot per node output, all in a single cache-aligned
        // allocation (planar slabs, cache-line-rounded so neighboring nodes
        // never share a line).
        let specs: Vec<(usize, usize)> = processors
            .iter()
            .map(|p| (p.output_channels(), frames))
            .collect();
        let arena = djstar_dsp::BufferArena::new(&specs);
        let runtimes: Box<[RuntimeCell]> = processors
            .into_iter()
            .enumerate()
            .map(|(n, processor)| {
                // SAFETY: slot `n` is a distinct arena region; the view is
                // owned by exactly this node's runtime cell, whose access is
                // governed by the epoch protocol, and the arena lives in the
                // same `ExecGraph` as the view.
                let output = unsafe { arena.view(n) };
                RuntimeCell(UnsafeCell::new(NodeRuntime { processor, output }))
            })
            .collect();
        let cells: Box<[NodeCell]> = (0..runtimes.len())
            .map(|_| NodeCell {
                pending: AtomicU32::new(0),
                done_epoch: AtomicU64::new(0),
                waiter: AtomicUsize::new(0),
            })
            .collect();
        let name_index = (0..topo.len())
            .map(|n| (topo.name(NodeId(n as u32)).to_string(), n))
            .collect();
        ExecGraph {
            topo: Arc::new(topo),
            cells,
            runtimes,
            arena,
            empty: AudioBuf::zeroed(1, 1),
            name_index,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &GraphTopology {
        &self.topo
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the graph has no nodes (never, for validated graphs).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub(crate) fn cell(&self, node: usize) -> &NodeCell {
        &self.cells[node]
    }

    /// Spin until `node` is done for `epoch` (BUSY dependency wait).
    /// Returns the number of spin iterations — 0 iff no waiting occurred.
    #[inline]
    pub(crate) fn spin_until_done(&self, node: usize, epoch: u64) -> u64 {
        let cell = &self.cells[node];
        if cell.done_epoch.load(Ordering::Acquire) == epoch {
            return 0;
        }
        let mut spins = 1u64;
        while cell.done_epoch.load(Ordering::Acquire) != epoch {
            spins += 1;
            if spins.is_multiple_of(4096) {
                // On over-subscribed machines a pure spin would starve the
                // worker that must produce this dependency.
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
        spins
    }

    /// True when `node` is done for `epoch` (an `Acquire` read: a `true`
    /// result also makes the node's output visible to the caller).
    #[inline]
    pub fn is_done(&self, node: usize, epoch: u64) -> bool {
        self.cells[node].done_epoch.load(Ordering::Acquire) == epoch
    }

    /// Execute `node` for `epoch` and publish its completion.
    ///
    /// # Safety
    /// Caller must be the exclusive executor of `node` this epoch, and every
    /// predecessor must already be done for `epoch` (observed with
    /// `Acquire`).
    #[inline]
    pub(crate) unsafe fn execute(&self, node: usize, ctx: &CycleCtx<'_>) {
        self.run(node, ctx);
        self.publish(node, ctx.epoch);
    }

    /// [`execute`](Self::execute), taking the end stamp between running
    /// and publishing. A successor can only start after it observes the
    /// publication, so a traced or recorded end stamp never postdates a
    /// dependent's start stamp, even across cores.
    ///
    /// # Safety
    /// As [`execute`](Self::execute).
    #[inline]
    pub(crate) unsafe fn execute_stamped(&self, node: usize, ctx: &CycleCtx<'_>) -> Instant {
        self.run(node, ctx);
        let end = Instant::now();
        self.publish(node, ctx.epoch);
        end
    }

    /// Run `node`'s processor for `ctx.epoch` without publishing it.
    ///
    /// # Safety
    /// As [`execute`](Self::execute).
    unsafe fn run(&self, node: usize, ctx: &CycleCtx<'_>) {
        let preds = self.topo.preds(NodeId(node as u32));
        let mut inputs: [&AudioBuf; MAX_INPUTS] = [&self.empty; MAX_INPUTS];
        for (k, &p) in preds.iter().enumerate() {
            // SAFETY: predecessor is done for this epoch; its executor
            // released the output before the done_epoch store we acquired.
            inputs[k] = &(*self.runtimes[p as usize].0.get()).output;
        }
        // SAFETY: exclusive ownership of `node` this epoch.
        let rt = &mut *self.runtimes[node].0.get();
        rt.processor
            .process(&inputs[..preds.len()], &mut rt.output, ctx);
    }

    /// Publish `node` done for `epoch` (`Release`: its output becomes
    /// visible to every waiter that `Acquire`s the store).
    #[inline]
    fn publish(&self, node: usize, epoch: u64) {
        self.cells[node].done_epoch.store(epoch, Ordering::Release);
    }

    /// Reset pending counters for a new cycle. Driver only, between cycles.
    pub(crate) fn reset_pending(&self) {
        for n in 0..self.cells.len() {
            let preds = self.topo.preds(NodeId(n as u32)).len() as u32;
            self.cells[n].pending.store(preds, Ordering::Relaxed);
            self.cells[n].waiter.store(0, Ordering::Relaxed);
        }
    }

    /// Carry runtime state over from `old` for every node that survives a
    /// topology swap. Nodes are matched by their unique name; a surviving
    /// node keeps its processor box (filters, delay lines, knob settings)
    /// and — when the buffer layout matches — its last rendered output, so
    /// reads between the swap and the next cycle still see valid audio.
    /// Returns the number of carried nodes. Driver only, between cycles
    /// (`&mut` on both graphs proves it).
    pub fn carry_over_from(&mut self, old: &mut ExecGraph) -> usize {
        // The name index was built when `old` was constructed (staging
        // time), so the swap itself allocates nothing.
        let mut carried = 0;
        for n in 0..self.runtimes.len() {
            let Some(&o) = old.name_index.get(self.topo.name(NodeId(n as u32))) else {
                continue;
            };
            let new_rt = self.runtimes[n].0.get_mut();
            let old_rt = old.runtimes[o].0.get_mut();
            if new_rt.processor.output_channels() != old_rt.processor.output_channels() {
                continue;
            }
            std::mem::swap(&mut new_rt.processor, &mut old_rt.processor);
            if new_rt.output.channels() == old_rt.output.channels()
                && new_rt.output.frames() == old_rt.output.frames()
            {
                // Copy, never swap: both outputs are views into their own
                // generation's arena, and the old arena dies with the old
                // graph — a swapped-in view would dangle.
                new_rt.output.copy_from(&old_rt.output);
            }
            carried += 1;
        }
        carried
    }

    /// Copy a node's output. Driver only, between cycles.
    pub(crate) fn read_output_internal(&mut self, node: NodeId, dst: &mut AudioBuf) {
        // `&mut self` proves no cycle is in flight.
        let rt = self.runtimes[node.idx()].0.get_mut();
        if rt.output.channels() == dst.channels() && rt.output.frames() == dst.frames() {
            dst.copy_from(&rt.output);
        } else {
            dst.clear();
            dst.mix_add(&rt.output, 1.0);
        }
    }

    /// Mutable processor access. Driver only, between cycles.
    pub(crate) fn node_processor_internal(&mut self, node: NodeId) -> &mut dyn Processor {
        self.runtimes[node.idx()].0.get_mut().processor.as_mut()
    }

    /// Copy a node's output through the `UnsafeCell` without `&mut self`.
    ///
    /// # Safety
    /// Only the driver may call this, with no cycle in flight (the threaded
    /// executors enforce it by requiring `&mut` on themselves).
    pub(crate) unsafe fn read_output_unsync(&self, node: NodeId, dst: &mut AudioBuf) {
        let rt = &*self.runtimes[node.idx()].0.get();
        if rt.output.channels() == dst.channels() && rt.output.frames() == dst.frames() {
            dst.copy_from(&rt.output);
        } else {
            dst.clear();
            dst.mix_add(&rt.output, 1.0);
        }
    }

    /// Mutable processor access through the `UnsafeCell` without `&mut self`.
    ///
    /// # Safety
    /// Same contract as [`read_output_unsync`](Self::read_output_unsync);
    /// additionally the caller must not create overlapping references to the
    /// same node.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn node_processor_unsync(&self, node: NodeId) -> &mut dyn Processor {
        (*self.runtimes[node.idx()].0.get()).processor.as_mut()
    }
}

/// A raw trace event collected during a cycle (worker-local clock).
#[derive(Clone, Copy)]
pub(crate) struct RawEvent {
    pub node: u32,
    pub kind: TraceKind,
    pub start: Instant,
    pub end: Instant,
}

/// Convert worker-local raw events into a [`ScheduleTrace`] relative to
/// `cycle_start`.
pub(crate) fn finish_trace(
    workers: u32,
    cycle_start: Instant,
    raw: Vec<(u32, Vec<RawEvent>)>,
) -> ScheduleTrace {
    let mut events = Vec::new();
    for (worker, evs) in raw {
        for e in evs {
            events.push(TraceEvent {
                node: e.node,
                worker,
                start_ns: e.start.duration_since(cycle_start).as_nanos() as u64,
                end_ns: e.end.duration_since(cycle_start).as_nanos() as u64,
                kind: e.kind,
            });
        }
    }
    ScheduleTrace { workers, events }
}

/// State shared between the driver and the worker threads of a threaded
/// executor.
pub(crate) struct Shared {
    /// The current topology generation's runtime graph. Replaced only by
    /// the driver between cycles ([`Shared::adopt_exec`]); workers read it
    /// after the epoch-acquire edge, exactly like `external` below.
    exec: DriverCell<ExecGraph>,
    /// Number of generation swaps performed (driver-read telemetry).
    pub generation: AtomicU64,
    /// Current cycle epoch; driver bumps with `Release`. Padded: every
    /// worker polls it between cycles while `done_count` below is being
    /// hammered by finishing workers.
    pub epoch: CachePadded<AtomicU64>,
    /// Nodes completed this cycle; workers increment with `Release`. The
    /// single most contended atomic of the queue-based executors — it gets
    /// its own cache line.
    pub done_count: CachePadded<AtomicU32>,
    /// Total worker count, including the driver (worker 0).
    pub threads: usize,
    /// Which precomputed topological order the queue walk uses.
    pub priority: Priority,
    /// Whether to record trace events this cycle.
    pub tracing: AtomicBool,
    /// Whether to record telemetry counters this cycle.
    pub telemetry: AtomicBool,
    /// Whether the flight recorder is armed (one `Relaxed` load per cycle
    /// per worker when off).
    pub flight: AtomicBool,
    /// The installed flight recorder, if any. Written only by the driver
    /// between cycles ([`GraphExecutor::set_flight_recorder`] takes
    /// `&mut`), lanes written by their owning workers during a cycle —
    /// the contract documented in [`crate::flight`].
    pub recorder: DriverCell<Option<FlightRecorder>>,
    /// Per-worker telemetry counters, recorded `Relaxed` on the hot path
    /// and drained by the driver between cycles.
    pub counters: Box<[CycleCounters]>,
    /// The installed fault-injection plan, if any. Written only by the
    /// driver between cycles ([`GraphExecutor::set_faults`] takes `&mut`),
    /// read by workers after the epoch-acquire edge — the same contract as
    /// `exec` and `external`.
    pub faults: DriverCell<Option<FaultPlan>>,
    /// External inputs for the current cycle.
    pub external: DriverCell<ExternalInputs>,
    /// Instant of the current cycle's start (for trace offsets).
    pub cycle_start: DriverCell<Instant>,
    /// Thread handles by worker index; slot 0 is refreshed by the driver
    /// each cycle (the driver participates as worker 0).
    pub handles: DriverCell<Vec<std::thread::Thread>>,
    /// Per-worker trace sinks, drained by the driver after a traced cycle.
    pub trace_sinks: Vec<std::sync::Mutex<Vec<RawEvent>>>,
    /// Workers that have flushed their trace sink this cycle (traced cycles
    /// only); the driver waits for all of them before collecting.
    pub trace_flushed: AtomicU32,
    /// Workers that have fully left the current cycle's work loop. Needed
    /// by executors whose workers touch *shared* work queues (WS): a
    /// lingering worker that has not yet observed completion must not be
    /// able to pop work seeded for the next cycle, so the driver waits for
    /// every worker to pass this barrier before `run_cycle` returns.
    /// Padded for the same reason as `done_count`.
    pub cycle_exited: CachePadded<AtomicU32>,
}

impl Shared {
    pub(crate) fn new(exec: ExecGraph, threads: usize, priority: Priority) -> Self {
        Shared {
            exec: DriverCell::new(exec),
            generation: AtomicU64::new(0),
            epoch: CachePadded::new(AtomicU64::new(0)),
            done_count: CachePadded::new(AtomicU32::new(0)),
            threads,
            priority,
            tracing: AtomicBool::new(false),
            telemetry: AtomicBool::new(false),
            flight: AtomicBool::new(false),
            recorder: DriverCell::new(None),
            counters: (0..threads).map(|_| CycleCounters::new()).collect(),
            faults: DriverCell::new(None),
            external: DriverCell::new(ExternalInputs::default()),
            cycle_start: DriverCell::new(Instant::now()),
            handles: DriverCell::new(Vec::new()),
            trace_sinks: (0..threads)
                .map(|_| std::sync::Mutex::new(Vec::new()))
                .collect(),
            trace_flushed: AtomicU32::new(0),
            cycle_exited: CachePadded::new(AtomicU32::new(0)),
        }
    }

    /// The current generation's runtime graph.
    ///
    /// Only two access contexts exist in this module, and both satisfy the
    /// [`DriverCell`] contract: the driver between cycles (the only writer),
    /// and workers holding the epoch-acquire edge of the cycle the graph
    /// was published for. Hence a safe accessor.
    #[inline]
    pub(crate) fn graph(&self) -> &ExecGraph {
        // SAFETY: see above; swaps are driver-only between cycles and
        // published by the next epoch Release store.
        unsafe { self.exec.get() }
    }

    /// Swap in a staged generation's graph, carrying over runtime state of
    /// surviving nodes. Returns the new generation number.
    ///
    /// # Safety
    /// Driver-only, with no cycle in flight (the pool must be quiesced, so
    /// workers sit in the batch wait loop touching only pool atomics).
    pub(crate) unsafe fn adopt_exec(&self, mut staged: ExecGraph) -> u64 {
        let old = self.exec.get_mut();
        staged.carry_over_from(old);
        *old = staged;
        // Publication rides the next epoch Release store; the counter is
        // driver-read bookkeeping only.
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The installed fault plan, if any.
    ///
    /// Same access contexts as [`Shared::graph`]: the driver between
    /// cycles, or a worker holding the epoch-acquire edge of the cycle the
    /// plan was published for.
    #[inline]
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        // SAFETY: writes are driver-only between cycles (`set_faults`
        // takes `&mut self`), published by the next epoch Release store.
        unsafe { self.faults.get() }.as_ref()
    }

    /// Whether the flight recorder is armed (hot-path check).
    #[inline]
    pub(crate) fn flight_on(&self) -> bool {
        self.flight.load(Ordering::Relaxed)
    }

    /// Worker-side: record one span into `worker`'s lane. Caller must have
    /// seen [`Shared::flight_on`] under the epoch-acquire edge of the
    /// current cycle (recorder installs are driver-only between cycles,
    /// published like `faults`).
    #[inline]
    pub(crate) fn record_span(
        &self,
        worker: usize,
        cycle: u64,
        node: u32,
        kind: SpanKind,
        start: Instant,
        end: Instant,
    ) {
        // SAFETY: same publication contract as `fault_plan`.
        if let Some(rec) = unsafe { self.recorder.get() }.as_ref() {
            let span = Span {
                cycle,
                node,
                worker: worker as u32,
                start_ns: rec.now_ns(start),
                end_ns: rec.now_ns(end),
                kind,
            };
            // SAFETY: each worker owns exactly its own lane during a cycle.
            unsafe { rec.record(worker, span) };
        }
    }

    /// Worker-side: record a node's execution interval `[start, end]`,
    /// carving the time its processor booked on the net counters into
    /// leading [`SpanKind::NetWait`] / [`SpanKind::Conceal`] spans (the
    /// remainder stays [`SpanKind::Exec`]). `net_before` is the worker's
    /// [`CycleCounters::net_ns`] reading taken just before `execute`. The
    /// three spans tile the interval exactly, so forensics blame still
    /// sums to the overrun. Publication contract as [`record_span`].
    pub(crate) fn record_exec_carved(
        &self,
        worker: usize,
        cycle: u64,
        node: u32,
        start: Instant,
        end: Instant,
        net_before: (u64, u64),
    ) {
        let (w1, c1) = self.counters[worker].net_ns();
        let wait = w1.wrapping_sub(net_before.0);
        let conceal = c1.wrapping_sub(net_before.1);
        if wait == 0 && conceal == 0 {
            self.record_span(worker, cycle, node, SpanKind::Exec, start, end);
            return;
        }
        // SAFETY: same publication contract as `fault_plan`.
        if let Some(rec) = unsafe { self.recorder.get() }.as_ref() {
            let s = rec.now_ns(start);
            let e = rec.now_ns(end);
            // Clamp so the carve never escapes the measured interval even
            // if the counter booked more time than the wall clock saw.
            let wait_end = s.saturating_add(wait).min(e);
            let conceal_end = wait_end.saturating_add(conceal).min(e);
            let emit = |kind, start_ns, end_ns| {
                if end_ns > start_ns {
                    let span = Span {
                        cycle,
                        node,
                        worker: worker as u32,
                        start_ns,
                        end_ns,
                        kind,
                    };
                    // SAFETY: each worker owns exactly its own lane
                    // during a cycle.
                    unsafe { rec.record(worker, span) };
                }
            };
            emit(SpanKind::NetWait, s, wait_end);
            emit(SpanKind::Conceal, wait_end, conceal_end);
            emit(SpanKind::Exec, conceal_end, e);
        }
    }

    /// Worker-side: the current net (wait, conceal) ns of `worker`'s
    /// counters, for a later [`record_exec_carved`] diff.
    #[inline]
    pub(crate) fn net_ns_of(&self, worker: usize) -> (u64, u64) {
        self.counters[worker].net_ns()
    }

    /// Driver-side: stamp a finished cycle's bounds into the recorder.
    /// Call after the cycle-completion barrier, before the next
    /// `prepare_cycle`.
    pub(crate) fn stamp_cycle(&self, cycle: u64, end: Instant) {
        // SAFETY: driver between cycles (the only writer of the cell).
        if let Some(rec) = unsafe { self.recorder.get() }.as_ref() {
            let start = unsafe { *self.cycle_start.get() };
            let stamp = CycleStamp {
                cycle,
                start_ns: rec.now_ns(start),
                end_ns: rec.now_ns(end),
            };
            // SAFETY: driver-only between cycles.
            unsafe { rec.stamp(stamp) };
        }
    }

    /// Driver-side: install or clear the flight recorder. The caller must
    /// hold `&mut` on the executor (no cycle in flight).
    pub(crate) fn install_recorder(&self, cfg: Option<FlightConfig>) {
        let rec = cfg.map(|c| FlightRecorder::new(self.threads, c));
        self.flight.store(rec.is_some(), Ordering::Relaxed);
        // SAFETY: driver-only between cycles (`&mut` held by caller).
        unsafe { self.recorder.set(rec) };
    }

    /// Driver-side: freeze and take the recorder's capture; recording
    /// continues into the emptied buffers. Same contract as
    /// [`Shared::install_recorder`].
    pub(crate) fn take_window(&self) -> Option<FlightWindow> {
        // SAFETY: driver-only between cycles (`&mut` held by caller).
        unsafe { self.recorder.get_mut() }
            .as_mut()
            .map(|r| r.take_window())
    }

    /// The topological order selected by this executor's priority.
    #[inline]
    pub(crate) fn order(&self) -> &[u32] {
        self.graph().topology().order(self.priority)
    }

    /// Successor iteration order of `node` under this executor's priority.
    #[inline]
    pub(crate) fn succ_order(&self, node: u32) -> &[u32] {
        self.graph()
            .topology()
            .succ_order(NodeId(node), self.priority)
    }

    /// Driver-side: move every worker's counters into `out` (and reset
    /// them). Call only after the cycle-completion barrier that orders all
    /// worker-side counter updates before the driver's reads
    /// (`wait_cycle_done`, or `wait_cycle_exited` for executors whose
    /// workers keep recording until they leave the cycle loop).
    pub(crate) fn drain_counters(&self, out: &mut [CounterSnapshot]) {
        for (c, o) in self.counters.iter().zip(out.iter_mut()) {
            c.drain_into(o);
        }
    }

    /// Worker-side: signal that this worker has fully left the cycle loop.
    pub(crate) fn signal_cycle_exit(&self) {
        self.cycle_exited.fetch_add(1, Ordering::Release);
    }

    /// Driver-side: wait until `count` workers signalled their exit.
    pub(crate) fn wait_cycle_exited(&self, count: u32) {
        let mut spins = 0u32;
        while self.cycle_exited.load(Ordering::Acquire) < count {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Worker-side: store this cycle's trace events and mark them flushed.
    pub(crate) fn flush_trace(&self, worker: usize, events: Vec<RawEvent>) {
        *self.trace_sinks[worker].lock().unwrap() = events;
        self.trace_flushed.fetch_add(1, Ordering::Release);
    }

    /// Driver-side: wait until every worker flushed its trace this cycle.
    pub(crate) fn wait_trace_flushed(&self) {
        while self.trace_flushed.load(Ordering::Acquire) != self.threads as u32 {
            std::thread::yield_now();
        }
    }

    /// Driver-side: prepare and publish a new cycle WITHOUT waking any
    /// workers itself. Lane execution is driven by the venue pool: a single
    /// batch-level wakeup ([`pool::VenuePool::dispatch`]) covers every staged
    /// session; pool workers observe this session's epoch store through the
    /// pool epoch's Release/Acquire edge.
    ///
    /// # Safety
    /// Must only be called by the driver with no cycle in flight.
    pub(crate) unsafe fn prepare_cycle(
        &self,
        external_audio: &[AudioBuf],
        controls: &[f32],
    ) -> u64 {
        self.graph().reset_pending();
        self.done_count.store(0, Ordering::Relaxed);
        self.trace_flushed.store(0, Ordering::Relaxed);
        self.cycle_exited.store(0, Ordering::Relaxed);
        {
            let ext = self.external.get_mut();
            // Reuse allocations where layouts match.
            if ext.audio.len() == external_audio.len()
                && ext
                    .audio
                    .iter()
                    .zip(external_audio)
                    .all(|(a, b)| a.channels() == b.channels() && a.frames() == b.frames())
            {
                for (dst, src) in ext.audio.iter_mut().zip(external_audio) {
                    dst.copy_from(src);
                }
            } else {
                ext.audio = external_audio.to_vec();
            }
            ext.controls.clear();
            ext.controls.extend_from_slice(controls);
        }
        self.handles.get_mut()[0] = std::thread::current();
        self.cycle_start.set(Instant::now());
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// Driver-side: wait until all nodes finished (spin-then-yield).
    pub(crate) fn wait_cycle_done(&self) {
        let n = self.graph().len() as u32;
        let mut spins = 0u32;
        while self.done_count.load(Ordering::Acquire) != n {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
    }

    /// Build the borrowed cycle context for `epoch`.
    ///
    /// # Safety
    /// Caller must hold the epoch happens-before edge (pool worker after
    /// the batch-epoch acquire, or the driver).
    pub(crate) unsafe fn ctx(&self, epoch: u64) -> CycleCtx<'_> {
        let ext = self.external.get();
        CycleCtx {
            epoch,
            external_audio: &ext.audio,
            controls: &ext.controls,
            counters: None,
        }
    }

    /// Build the cycle context for `epoch` with worker `me`'s counters
    /// attached (for processors that record their own telemetry). Only used
    /// when telemetry or the flight recorder is armed; the bare [`ctx`]
    /// keeps the disarmed hot path free of the extra load.
    ///
    /// # Safety
    /// Same obligation as [`ctx`](Self::ctx).
    pub(crate) unsafe fn ctx_counted(&self, epoch: u64, me: usize) -> CycleCtx<'_> {
        let mut ctx = unsafe { self.ctx(epoch) };
        ctx.counters = Some(&self.counters[me]);
        ctx
    }

    /// Record completion of one node; returns `true` when it was the last.
    #[inline]
    pub(crate) fn node_finished(&self) -> bool {
        let prev = self.done_count.fetch_add(1, Ordering::Release) + 1;
        prev == self.graph().len() as u32
    }

    /// Collect per-worker traces after a traced cycle (driver only).
    pub(crate) fn collect_trace(&self) -> ScheduleTrace {
        let cycle_start = unsafe { *self.cycle_start.get() };
        let raw: Vec<(u32, Vec<RawEvent>)> = self
            .trace_sinks
            .iter()
            .enumerate()
            .map(|(w, m)| (w as u32, std::mem::take(&mut *m.lock().unwrap())))
            .collect();
        finish_trace(self.threads as u32, cycle_start, raw)
    }
}

/// Graphs and checks shared by the executor test suites.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::graph::{Section, TaskGraphBuilder};
    use crate::processor::FnProcessor;

    /// n0 fills 1.0, n1 fills 2.0, n2 sums its inputs, n3 copies n2.
    pub(crate) fn diamond_sum_graph() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let n0 = b.add(
            "one",
            Section::DeckA,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut().fill(1.0);
                },
            )),
            &[],
        );
        let n1 = b.add(
            "two",
            Section::DeckB,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut().fill(2.0);
                },
            )),
            &[],
        );
        let n2 = b.add(
            "sum",
            Section::Master,
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.clear();
                    for i in inp {
                        out.mix_add(i, 1.0);
                    }
                },
            )),
            &[n0, n1],
        );
        b.add(
            "copy",
            Section::Master,
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.copy_from(inp[0]);
                },
            )),
            &[n2],
        );
        b.build().unwrap()
    }

    /// `width` sources (filling `(i+1) * f(epoch)`), one doubler per source,
    /// and a sink summing all doublers. Sink value:
    /// `2 * f(epoch) * width*(width+1)/2`.
    pub(crate) fn fan_graph(width: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut doublers = Vec::new();
        for i in 0..width {
            let src = b.add(
                format!("src{i}"),
                Section::deck(i % 4),
                Box::new(FnProcessor(
                    move |_: &[&AudioBuf], out: &mut AudioBuf, ctx: &CycleCtx<'_>| {
                        let f = (ctx.epoch % 7 + 1) as f32;
                        out.samples_mut().fill((i as f32 + 1.0) * f);
                    },
                )),
                &[],
            );
            doublers.push(b.add(
                format!("dbl{i}"),
                Section::deck(i % 4),
                Box::new(FnProcessor(
                    |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                        out.copy_from(inp[0]);
                        out.scale(2.0);
                    },
                )),
                &[src],
            ));
        }
        // Fan into intermediate sums of at most 4 inputs to respect
        // MAX_INPUTS, then a final sink.
        let mut layer = doublers;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for chunk in layer.chunks(4) {
                next.push(b.add(
                    "sum",
                    Section::Master,
                    Box::new(FnProcessor(
                        |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                            out.clear();
                            for i in inp {
                                out.mix_add(i, 1.0);
                            }
                        },
                    )),
                    chunk,
                ));
            }
            layer = next;
        }
        b.build().unwrap()
    }

    /// Run a candidate executor against the sequential baseline on the same
    /// graph for 50 cycles and require identical sink output each cycle.
    pub(crate) fn run_and_check(
        make: impl Fn(TaskGraph, usize) -> Box<dyn GraphExecutor>,
        label: &str,
    ) {
        let frames = 8;
        let mut seq = SequentialExecutor::new(fan_graph(13), frames);
        let mut cand = make(fan_graph(13), frames);
        assert_eq!(seq.topology().len(), cand.topology().len());
        let sink = NodeId((seq.topology().len() - 1) as u32);
        for cycle in 0..50 {
            seq.run_cycle(&[], &[]);
            cand.run_cycle(&[], &[]);
            let mut a = AudioBuf::zeroed(2, frames);
            let mut b = AudioBuf::zeroed(2, frames);
            seq.read_output(sink, &mut a);
            cand.read_output(sink, &mut b);
            assert_eq!(a, b, "{label}: cycle {cycle} diverged");
            // Known closed form for the fan graph.
            let f = ((cycle + 1) % 7 + 1) as f32;
            let expect = 2.0 * f * (13.0 * 14.0 / 2.0);
            assert_eq!(a.sample(0, 0), expect, "{label}: wrong value cycle {cycle}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Section, TaskGraphBuilder};
    use crate::processor::{FnProcessor, Passthrough};

    #[test]
    fn exec_graph_executes_in_queue_order() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add(
            "src",
            Section::DeckA,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.samples_mut().fill(2.0);
                },
            )),
            &[],
        );
        let _ = b.add(
            "sink",
            Section::Master,
            Box::new(FnProcessor(
                |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                    out.copy_from(inp[0]);
                    out.scale(3.0);
                },
            )),
            &[a],
        );
        let g = b.build().unwrap();
        let mut exec = ExecGraph::new(g, 8);
        let ctx = CycleCtx::bare(1);
        for &n in exec.topology().queue().to_vec().iter() {
            unsafe { exec.execute(n as usize, &ctx) };
        }
        let mut out = AudioBuf::zeroed(2, 8);
        exec.read_output_internal(NodeId(1), &mut out);
        assert!(out.samples().iter().all(|&s| s == 6.0));
    }

    #[test]
    fn done_epoch_tracks_epochs() {
        let mut b = TaskGraphBuilder::new();
        b.add("a", Section::DeckA, Box::new(Passthrough), &[]);
        let g = b.build().unwrap();
        let exec = ExecGraph::new(g, 4);
        assert!(!exec.is_done(0, 1));
        unsafe { exec.execute(0, &CycleCtx::bare(1)) };
        assert!(exec.is_done(0, 1));
        assert!(!exec.is_done(0, 2));
        assert_eq!(exec.spin_until_done(0, 1), 0); // already done: no wait
    }

    #[test]
    fn reset_pending_restores_counts() {
        let mut b = TaskGraphBuilder::new();
        let a = b.add("a", Section::DeckA, Box::new(Passthrough), &[]);
        let x = b.add("b", Section::DeckA, Box::new(Passthrough), &[a]);
        b.add("c", Section::DeckA, Box::new(Passthrough), &[a, x]);
        let g = b.build().unwrap();
        let exec = ExecGraph::new(g, 4);
        exec.reset_pending();
        assert_eq!(exec.cell(0).pending.load(Ordering::Relaxed), 0);
        assert_eq!(exec.cell(1).pending.load(Ordering::Relaxed), 1);
        assert_eq!(exec.cell(2).pending.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[should_panic(expected = "predecessors")]
    fn too_many_preds_rejected() {
        let mut b = TaskGraphBuilder::new();
        let mut preds = Vec::new();
        for i in 0..(MAX_INPUTS + 1) {
            preds.push(b.add(format!("s{i}"), Section::DeckA, Box::new(Passthrough), &[]));
        }
        b.add("sink", Section::Master, Box::new(Passthrough), &preds);
        let g = b.build().unwrap();
        ExecGraph::new(g, 4);
    }

    #[test]
    fn external_inputs_reach_processors() {
        let mut b = TaskGraphBuilder::new();
        b.add(
            "reader",
            Section::DeckA,
            Box::new(FnProcessor(
                |_: &[&AudioBuf], out: &mut AudioBuf, ctx: &CycleCtx<'_>| {
                    out.copy_from(&ctx.external_audio[0]);
                    out.scale(ctx.controls[0]);
                },
            )),
            &[],
        );
        let g = b.build().unwrap();
        let mut exec = ExecGraph::new(g, 4);
        let ext = AudioBuf::from_fn(2, 4, |_, _| 1.0);
        let ctx = CycleCtx {
            epoch: 1,
            external_audio: std::slice::from_ref(&ext),
            controls: &[0.5],
            counters: None,
        };
        unsafe { exec.execute(0, &ctx) };
        let mut out = AudioBuf::zeroed(2, 4);
        exec.read_output_internal(NodeId(0), &mut out);
        assert!(out.samples().iter().all(|&s| s == 0.5));
    }
}
