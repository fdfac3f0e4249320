//! The PLAN strategy: execute a precompiled static schedule.
//!
//! The paper's Fig. 4 derives a resource-constrained list schedule whose
//! makespan beats every online strategy, but DJ Star never *runs* it — the
//! schedule only exists inside the simulator. This executor closes that
//! gap: a [`ScheduleBlueprint`] fixes, per worker, the exact node order of
//! one cycle (typically compiled from `djstar-sim`'s list scheduler over
//! measured node durations), and the executor replays it with **zero
//! runtime queue management**. There is nothing to pop, steal or assign:
//! each worker walks its precompiled slice and spin-checks only the
//! *cross-worker* dependencies the compiler identified — same-worker
//! predecessors are already ordered before their dependents, so program
//! order alone covers them.
//!
//! Compared to BUSY, which round-robins the depth queue and spins on every
//! unmet predecessor, PLAN (a) places nodes where the list scheduler wants
//! them instead of `k mod T`, and (b) skips the dependency checks the
//! compiler proved redundant. The epoch/pending protocol of the other
//! executors is reused unchanged, so the memory-safety argument is
//! identical: a worker reads a predecessor's output only after acquiring
//! its `done_epoch`, and blueprint validation guarantees exactly-once
//! ownership per cycle.
//!
//! Deadlock freedom: [`ScheduleBlueprint`] construction verifies (by
//! replaying the plan) that every wait refers to a node scheduled earlier
//! in the induced partial order, so the waits-for relation is acyclic.

use super::pool::{PoolBinding, SessionState, VenuePool};
use super::{
    CycleResult, DriverCell, ExecGraph, GraphExecutor, RawEvent, Shared, StagedGeneration,
    Strategy, SwapError,
};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Priority, TaskGraph};
use crate::processor::Processor;
use crate::telemetry::{TelemetryRing, DEFAULT_RING_CAPACITY};
use crate::trace::{ScheduleTrace, TraceKind};
use djstar_dsp::AudioBuf;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One slot of a worker's precompiled schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedNode {
    /// The node to execute.
    pub node: u32,
    /// Expected start offset from cycle start (ns) in the schedule the
    /// blueprint was compiled from. Informational: the executor is purely
    /// dependency-driven and never delays to match it.
    pub expected_start_ns: u64,
    /// Predecessors assigned to *other* workers — the only dependencies
    /// that need a runtime check. Same-worker predecessors are implicitly
    /// satisfied by slice order.
    waits: Vec<u32>,
}

impl PlannedNode {
    /// The cross-worker dependencies this slot spin-checks.
    pub fn waits(&self) -> &[u32] {
        &self.waits
    }
}

/// Errors detected while compiling or validating a blueprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlueprintError {
    /// The assignment lists no workers.
    NoWorkers,
    /// A node id is out of range for the topology.
    UnknownNode(u32),
    /// A node appears on more than one slot.
    Duplicate(u32),
    /// The assignment does not cover every node of the graph.
    Incomplete { assigned: usize, nodes: usize },
    /// A node is ordered before one of its same-worker predecessors, or the
    /// cross-worker waits form a cycle: replaying the plan got stuck.
    Unschedulable(u32),
}

impl fmt::Display for BlueprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlueprintError::NoWorkers => write!(f, "blueprint has no workers"),
            BlueprintError::UnknownNode(n) => write!(f, "blueprint references unknown node {n}"),
            BlueprintError::Duplicate(n) => write!(f, "node {n} assigned to more than one slot"),
            BlueprintError::Incomplete { assigned, nodes } => {
                write!(f, "blueprint covers {assigned} of {nodes} nodes")
            }
            BlueprintError::Unschedulable(n) => {
                write!(f, "plan deadlocks: node {n} can never become ready")
            }
        }
    }
}

impl std::error::Error for BlueprintError {}

/// A compiled static schedule: per-worker node orders plus the cross-worker
/// dependency checks each slot needs.
///
/// Build one from a simulated schedule (see `djstar-sim`'s
/// `compile_blueprint`) or from [`round_robin`](Self::round_robin), which
/// reproduces the BUSY assignment for baselines and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleBlueprint {
    workers: Vec<Vec<PlannedNode>>,
}

impl ScheduleBlueprint {
    /// Compile a blueprint from explicit per-worker `(node, start_ns)`
    /// assignments, ordered by start within each worker. Validates coverage
    /// (every node exactly once) and replays the plan to prove it
    /// deadlock-free.
    pub fn from_assignments(
        topo: &GraphTopology,
        assignments: &[Vec<(u32, u64)>],
    ) -> Result<Self, BlueprintError> {
        Self::build(topo.len(), |n| topo.preds(NodeId(n)), assignments)
    }

    /// Like [`from_assignments`](Self::from_assignments), but over a raw
    /// predecessor table (`preds[n]` = predecessors of node `n`). Lets the
    /// simulator compile blueprints for synthetic graphs that have no
    /// [`GraphTopology`].
    pub fn from_node_preds(
        preds: &[Vec<u32>],
        assignments: &[Vec<(u32, u64)>],
    ) -> Result<Self, BlueprintError> {
        Self::build(preds.len(), |n| &preds[n as usize], assignments)
    }

    fn build<'a>(
        n: usize,
        preds: impl Fn(u32) -> &'a [u32],
        assignments: &[Vec<(u32, u64)>],
    ) -> Result<Self, BlueprintError> {
        if assignments.is_empty() {
            return Err(BlueprintError::NoWorkers);
        }
        let mut owner = vec![usize::MAX; n];
        let mut assigned = 0usize;
        for (w, list) in assignments.iter().enumerate() {
            for &(node, _) in list {
                let slot = owner
                    .get_mut(node as usize)
                    .ok_or(BlueprintError::UnknownNode(node))?;
                if *slot != usize::MAX {
                    return Err(BlueprintError::Duplicate(node));
                }
                *slot = w;
                assigned += 1;
            }
        }
        if assigned != n {
            return Err(BlueprintError::Incomplete { assigned, nodes: n });
        }
        let workers: Vec<Vec<PlannedNode>> = assignments
            .iter()
            .enumerate()
            .map(|(w, list)| {
                list.iter()
                    .map(|&(node, start)| PlannedNode {
                        node,
                        expected_start_ns: start,
                        waits: preds(node)
                            .iter()
                            .copied()
                            .filter(|&p| owner[p as usize] != w)
                            .collect(),
                    })
                    .collect()
            })
            .collect();
        let plan = ScheduleBlueprint { workers };
        plan.check_schedulable(n, &preds)?;
        Ok(plan)
    }

    /// The BUSY assignment as a blueprint: position `k` of the order
    /// selected by `priority` goes to worker `k mod threads`. Useful as a
    /// baseline and for tests that need a valid blueprint without running
    /// the simulator.
    pub fn round_robin(topo: &GraphTopology, threads: usize, priority: Priority) -> Self {
        assert!(threads >= 1, "at least one worker required");
        let mut assignments: Vec<Vec<(u32, u64)>> = vec![Vec::new(); threads];
        for (k, &node) in topo.order(priority).iter().enumerate() {
            assignments[k % threads].push((node, 0));
        }
        Self::from_assignments(topo, &assignments)
            .expect("round-robin over a topological order is always schedulable")
    }

    /// Number of workers the plan was compiled for.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Worker `w`'s slots, in execution order.
    pub fn worker(&self, w: usize) -> &[PlannedNode] {
        &self.workers[w]
    }

    /// Total number of planned slots (equals the node count once validated).
    pub fn len(&self) -> usize {
        self.workers.iter().map(Vec::len).sum()
    }

    /// Recompile this blueprint against `topo`: keep the placements and
    /// per-worker orders, rebuild the cross-worker waits from the
    /// topology's own edges, and re-validate coverage and deadlock
    /// freedom. A blueprint compiled against a disagreeing predecessor
    /// table therefore cannot smuggle in a missing wait.
    pub fn recompile_for(&self, topo: &GraphTopology) -> Result<Self, BlueprintError> {
        Self::from_assignments(
            topo,
            &self
                .workers
                .iter()
                .map(|list| {
                    list.iter()
                        .map(|e| (e.node, e.expected_start_ns))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        )
    }

    /// True when no slots are planned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replay the plan: verify every predecessor of every slot is either an
    /// earlier same-worker slot or a listed wait, and that the waits-for
    /// relation cannot cycle. This is the executor's deadlock-freedom
    /// proof, run once at compile time.
    fn check_schedulable<'a>(
        &self,
        n: usize,
        preds: &impl Fn(u32) -> &'a [u32],
    ) -> Result<(), BlueprintError> {
        let mut pos_on_worker = vec![(usize::MAX, usize::MAX); n];
        for (w, list) in self.workers.iter().enumerate() {
            for (i, e) in list.iter().enumerate() {
                pos_on_worker[e.node as usize] = (w, i);
            }
        }
        // Every pred must be covered by program order or a wait.
        for (w, list) in self.workers.iter().enumerate() {
            for (i, e) in list.iter().enumerate() {
                for &p in preds(e.node) {
                    let (pw, pi) = pos_on_worker[p as usize];
                    let same_worker_earlier = pw == w && pi < i;
                    if !same_worker_earlier && !e.waits.contains(&p) {
                        return Err(BlueprintError::Unschedulable(e.node));
                    }
                }
            }
        }
        // Replay: advance each worker's head while its waits are satisfied.
        let mut done = vec![false; n];
        let mut idx = vec![0usize; self.workers.len()];
        loop {
            let mut progressed = false;
            let mut remaining = false;
            for (w, list) in self.workers.iter().enumerate() {
                while idx[w] < list.len() {
                    let e = &list[idx[w]];
                    if e.waits.iter().all(|&p| done[p as usize]) {
                        done[e.node as usize] = true;
                        idx[w] += 1;
                        progressed = true;
                    } else {
                        break;
                    }
                }
                remaining |= idx[w] < list.len();
            }
            if !remaining {
                return Ok(());
            }
            if !progressed {
                // Report a head that is genuinely stuck (has an un-done
                // wait), not merely the first worker with slots left — that
                // worker's head may be blocked behind a different one.
                let stuck = self
                    .workers
                    .iter()
                    .enumerate()
                    .filter_map(|(w, list)| list.get(idx[w]))
                    .find(|e| e.waits.iter().any(|&p| !done[p as usize]))
                    .map(|e| e.node)
                    .expect("no progress implies some head has an unmet wait");
                return Err(BlueprintError::Unschedulable(stuck));
            }
        }
    }
}

/// Shared state: the common cycle machinery plus the current plan.
///
/// Like `Shared`'s graph, the plan is swapped only by the driver between
/// cycles and published to workers by the next epoch Release store, so it
/// lives in a [`DriverCell`] with the same safety argument.
pub(crate) struct PlannedShared {
    pub(crate) base: Shared,
    plan: DriverCell<ScheduleBlueprint>,
}

impl PlannedShared {
    /// The current plan.
    ///
    /// Reads are sound everywhere a graph read is sound: drivers hold
    /// `&mut` on the executor, and workers have acquired the epoch whose
    /// Release store published any swap.
    #[inline]
    fn plan(&self) -> &ScheduleBlueprint {
        // SAFETY: swaps are driver-only between cycles, published by the
        // next epoch Release store (see `Shared::graph`).
        unsafe { self.plan.get() }
    }
}

/// Executor that replays a [`ScheduleBlueprint`].
pub struct PlannedExecutor {
    shared: Arc<PlannedShared>,
    pool: PoolBinding,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    telemetry: Option<TelemetryRing>,
    session: u32,
}

impl PlannedExecutor {
    /// Build the executor over `graph` with `frames`-frame buffers,
    /// replaying `blueprint`. The worker count is the blueprint's.
    ///
    /// The blueprint is recompiled against *this* graph's topology before
    /// use: the placements and per-worker orders are kept, but the
    /// cross-worker waits are rebuilt from the graph's own edges. A
    /// blueprint compiled against a predecessor table that disagrees with
    /// `graph` therefore cannot smuggle in a missing wait — the executor
    /// always replays waits derived from the graph it actually runs.
    ///
    /// # Panics
    /// Panics if the blueprint's worker count is outside `1..=64` or the
    /// blueprint does not recompile against `graph`'s topology (wrong node
    /// set or an unschedulable order).
    pub fn new(graph: TaskGraph, frames: usize, blueprint: ScheduleBlueprint) -> Self {
        let pool = Arc::new(VenuePool::new(blueprint.threads().clamp(1, 64)));
        Self::with_pool(graph, frames, blueprint, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. The blueprint's worker count is this
    /// session's lane count and must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        frames: usize,
        blueprint: ScheduleBlueprint,
        pool: &Arc<VenuePool>,
    ) -> Self {
        let threads = blueprint.threads();
        assert!((1..=64).contains(&threads), "1..=64 workers supported");
        let exec = ExecGraph::new(graph, frames);
        // Recompile against *this* graph: the blueprint may have been
        // compiled against a different (if structurally identical) build,
        // and the executor must run waits derived from the real edges, not
        // whatever the input blueprint claims.
        let plan = blueprint
            .recompile_for(exec.topology())
            .unwrap_or_else(|e| panic!("blueprint does not fit this graph: {e}"));
        let shared = Arc::new(PlannedShared {
            base: Shared::new(exec, threads, Priority::Depth),
            plan: DriverCell::new(plan),
        });
        // SAFETY: no cycle in flight yet; workers only read handles during a
        // cycle (after acquiring the epoch that published them).
        unsafe { shared.base.handles.set(pool.session_handles(threads)) };
        let pool = pool.register(SessionState::Planned(Arc::clone(&shared)));
        PlannedExecutor {
            shared,
            pool,
            tracing: false,
            last_trace: None,
            telemetry: None,
            session: 0,
        }
    }

    /// The blueprint being replayed (for the current generation).
    pub fn blueprint(&self) -> &ScheduleBlueprint {
        self.shared.plan()
    }
}

/// Replay worker `me`'s slice of the plan for `epoch`.
pub(crate) fn run_cycle_part(sh: &PlannedShared, me: usize, epoch: u64) {
    let tracing = sh.base.tracing.load(Ordering::Relaxed);
    let telem = sh.base.telemetry.load(Ordering::Relaxed);
    let rec = sh.base.flight_on();
    let counters = &sh.base.counters[me];
    let faults = sh.base.fault_plan();
    // SAFETY: epoch acquired (pool worker via the batch edge, driver trivially).
    let ctx = if telem || rec {
        unsafe { sh.base.ctx_counted(epoch, me) }
    } else {
        unsafe { sh.base.ctx(epoch) }
    };
    if let Some(plan) = faults {
        if rec {
            let s0 = Instant::now();
            if plan.inject_stalls(epoch, me, sh.base.threads, counters) > 0 {
                sh.base.record_span(
                    me,
                    epoch,
                    Span::NO_NODE,
                    SpanKind::Fault,
                    s0,
                    Instant::now(),
                );
            }
        } else {
            plan.inject_stalls(epoch, me, sh.base.threads, counters);
        }
    }
    let mut events: Vec<RawEvent> = Vec::new();
    for entry in sh.plan().worker(me) {
        let node = entry.node;
        if tracing || telem || rec {
            let w0 = Instant::now();
            let mut spins = 0u64;
            for &p in entry.waits() {
                spins += sh.base.graph().spin_until_done(p as usize, epoch);
            }
            if spins > 0 {
                let w1 = Instant::now();
                if tracing {
                    events.push(RawEvent {
                        node,
                        kind: TraceKind::BusyWait,
                        start: w0,
                        end: w1,
                    });
                }
                if telem {
                    counters.add_spin(spins, (w1 - w0).as_nanos() as u64);
                }
                if rec {
                    sh.base
                        .record_span(me, epoch, node, SpanKind::BusyWait, w0, w1);
                }
            }
            let t0 = Instant::now();
            let mut fault_end = t0;
            if let Some(plan) = faults {
                let injected = plan.inject_node(epoch, node, counters);
                if rec && injected > 0 {
                    fault_end = Instant::now();
                }
            }
            let net0 = if rec { sh.base.net_ns_of(me) } else { (0, 0) };
            // SAFETY: exactly-once ownership by blueprint validation; all
            // predecessors observed done for this epoch (same-worker preds
            // by program order, cross-worker preds by the waits above).
            let t1 = unsafe { sh.base.graph().execute_stamped(node as usize, &ctx) };
            if tracing {
                events.push(RawEvent {
                    node,
                    kind: TraceKind::Exec,
                    start: t0,
                    end: t1,
                });
            }
            if telem {
                counters.add_exec((t1 - t0).as_nanos() as u64);
            }
            if rec {
                if fault_end > t0 {
                    sh.base
                        .record_span(me, epoch, node, SpanKind::Fault, t0, fault_end);
                }
                sh.base
                    .record_exec_carved(me, epoch, node, fault_end, t1, net0);
            }
        } else {
            for &p in entry.waits() {
                sh.base.graph().spin_until_done(p as usize, epoch);
            }
            if let Some(plan) = faults {
                plan.inject_node(epoch, node, counters);
            }
            // SAFETY: as above.
            unsafe { sh.base.graph().execute(node as usize, &ctx) };
        }
        sh.base.node_finished();
    }
    if tracing {
        sh.base.flush_trace(me, events);
    }
}

impl GraphExecutor for PlannedExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Planned
    }

    fn threads(&self) -> usize {
        self.shared.base.threads
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self
            .venue_stage(external_audio, controls)
            .expect("planned executor always stages");
        self.pool.pool().dispatch();
        run_cycle_part(&self.shared, 0, epoch);
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        self.pool.pool().quiesce();
        let sh = &self.shared;
        sh.base.tracing.store(self.tracing, Ordering::Relaxed);
        sh.base
            .telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        // SAFETY: driver thread, no cycle in flight (`&mut self`), pool
        // quiescent.
        let epoch = unsafe { sh.base.prepare_cycle(external_audio, controls) };
        self.pool.stage(epoch);
        Some(epoch)
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        let sh = &self.shared;
        sh.base.wait_cycle_done();
        let end = Instant::now();
        // SAFETY: driver-owned; set by `prepare_cycle` this cycle.
        let start = unsafe { *sh.base.cycle_start.get() };
        let duration = end - start;
        if sh.base.flight_on() {
            sh.base.stamp_cycle(epoch, end);
        }
        if let Some(ring) = self.telemetry.as_mut() {
            // All counter updates happen-before the workers' final
            // done-count increments, acquired by `wait_cycle_done`.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            sh.base.drain_counters(slot);
        }
        if self.tracing {
            sh.base.wait_trace_flushed();
            self.last_trace = Some(sh.base.collect_trace());
        }
        CycleResult { duration }
    }

    fn set_session(&mut self, session: u32) {
        self.session = session;
        if let Some(r) = &self.telemetry {
            self.telemetry = Some(TelemetryRing::with_session(
                r.capacity(),
                r.workers(),
                session,
            ));
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    fn take_trace(&mut self) -> Option<ScheduleTrace> {
        self.last_trace.take()
    }

    fn set_telemetry(&mut self, on: bool) {
        if on {
            if self.telemetry.is_none() {
                self.telemetry = Some(TelemetryRing::with_session(
                    DEFAULT_RING_CAPACITY,
                    self.shared.base.threads,
                    self.session,
                ));
            }
        } else {
            self.telemetry = None;
        }
    }

    fn take_telemetry(&mut self) -> Option<TelemetryRing> {
        let taken = self.telemetry.take();
        if let Some(r) = &taken {
            self.telemetry = Some(TelemetryRing::with_session(
                r.capacity(),
                r.workers(),
                r.session(),
            ));
        }
        taken
    }

    fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.pool.pool().quiesce();
        // SAFETY: driver-only between cycles (`&mut self`), pool quiescent;
        // published to workers by the next epoch Release store.
        unsafe { self.shared.base.faults.set(plan) };
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.base.install_recorder(cfg);
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.base.take_window()
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Result<u64, SwapError> {
        self.pool.pool().quiesce();
        let (exec, plan) = staged.into_parts();
        let threads = self.shared.base.threads;
        // Take the staged plan, or fall back to round-robin so a topology
        // swap without a freshly compiled schedule still runs correctly
        // (at BUSY-placement quality) instead of failing.
        let plan = match plan {
            Some(p) => p,
            None => ScheduleBlueprint::round_robin(exec.topology(), threads, Priority::Depth),
        };
        if plan.threads() != threads {
            return Err(SwapError::ThreadMismatch {
                expected: threads,
                got: plan.threads(),
            });
        }
        // Recompile against the staged topology before touching any live
        // state: on failure the running generation is untouched.
        let plan = plan
            .recompile_for(exec.topology())
            .map_err(SwapError::Blueprint)?;
        // SAFETY: `&mut self` proves no cycle in flight; workers are waiting
        // on the epoch and read the plan only after acquiring the next
        // epoch's Release store, which publishes both swaps.
        unsafe {
            *self.shared.plan.get_mut() = plan;
            Ok(self.shared.base.adopt_exec(exec))
        }
    }

    fn generation(&self) -> u64 {
        self.shared.base.generation.load(Ordering::Relaxed)
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; pool quiescent.
        unsafe { self.shared.base.graph().read_output_unsync(node, dst) };
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.pool.pool().quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.shared.base.graph().node_processor_unsync(node) }
    }

    fn topology(&self) -> &GraphTopology {
        self.shared.base.graph().topology()
    }

    fn pool(&self) -> Option<&Arc<VenuePool>> {
        Some(self.pool.pool())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::test_support::{diamond_sum_graph, fan_graph, run_and_check};

    #[test]
    fn round_robin_blueprint_matches_sequential() {
        for threads in [1, 2, 3, 4] {
            run_and_check(
                |g, frames| {
                    let bp = ScheduleBlueprint::round_robin(g.topology(), threads, Priority::Depth);
                    Box::new(PlannedExecutor::new(g, frames, bp))
                },
                &format!("plan-rr-{threads}"),
            );
        }
    }

    #[test]
    fn critical_path_blueprint_matches_sequential() {
        for threads in [1, 3] {
            run_and_check(
                |g, frames| {
                    let bp = ScheduleBlueprint::round_robin(
                        g.topology(),
                        threads,
                        Priority::CriticalPath,
                    );
                    Box::new(PlannedExecutor::new(g, frames, bp))
                },
                &format!("plan-cp-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_many_cycles_with_handcrafted_plan() {
        let g = diamond_sum_graph();
        // Worker 0: n0, n2, n3; worker 1: n1. n2 waits on n1 (cross), n0 is
        // same-worker; n3's pred n2 is same-worker.
        let bp = ScheduleBlueprint::from_assignments(
            g.topology(),
            &[vec![(0, 0), (2, 100), (3, 200)], vec![(1, 0)]],
        )
        .unwrap();
        assert_eq!(bp.worker(0)[1].waits(), &[1]);
        assert_eq!(bp.worker(0)[2].waits(), &[] as &[u32]);
        let mut ex = PlannedExecutor::new(g, 8, bp);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn trace_respects_dependencies_and_placement() {
        let g = fan_graph(16);
        let bp = ScheduleBlueprint::round_robin(g.topology(), 4, Priority::Depth);
        let mut ex = PlannedExecutor::new(g, 8, bp);
        ex.set_tracing(true);
        for _ in 0..20 {
            ex.run_cycle(&[], &[]);
            let trace = ex.take_trace().unwrap();
            assert_eq!(trace.executions().len(), ex.topology().len());
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
            // Placement is static: node queue position k runs on worker k%4.
            for e in trace.executions() {
                let k = topo.queue().iter().position(|&n| n == e.node).unwrap();
                assert_eq!(e.worker as usize, k % 4);
            }
        }
    }

    #[test]
    fn executor_rebuilds_waits_from_the_real_graph() {
        // Compile against a predecessor table with NO edges: the blueprint
        // validates (nothing to wait for) but its waits are empty, so
        // replaying it verbatim against the diamond graph would skip the
        // cross-worker check on n1 -> n2. The executor must recompile the
        // waits from the graph it actually runs.
        let no_edges: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let bp = ScheduleBlueprint::from_node_preds(
            &no_edges,
            &[vec![(0, 0), (2, 100), (3, 200)], vec![(1, 0)]],
        )
        .unwrap();
        assert_eq!(bp.worker(0)[1].waits(), &[] as &[u32]);
        let mut ex = PlannedExecutor::new(diamond_sum_graph(), 8, bp);
        assert_eq!(ex.blueprint().worker(0)[1].waits(), &[1]);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0);
        }
    }

    #[test]
    fn blueprint_rejects_duplicates_and_gaps() {
        let g = diamond_sum_graph();
        let t = g.topology();
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[vec![(0, 0), (0, 1)]]).unwrap_err(),
            BlueprintError::Duplicate(0)
        );
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[vec![(0, 0), (1, 1)]]).unwrap_err(),
            BlueprintError::Incomplete {
                assigned: 2,
                nodes: 4
            }
        );
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[]).unwrap_err(),
            BlueprintError::NoWorkers
        );
        assert_eq!(
            ScheduleBlueprint::from_assignments(t, &[vec![(0, 0), (1, 1), (2, 2), (9, 3)]])
                .unwrap_err(),
            BlueprintError::UnknownNode(9)
        );
    }

    #[test]
    fn blueprint_rejects_out_of_order_same_worker_preds() {
        let g = diamond_sum_graph();
        // n3 before its predecessor n2 on the same worker: unschedulable.
        assert_eq!(
            ScheduleBlueprint::from_assignments(
                g.topology(),
                &[vec![(0, 0), (1, 1), (3, 2), (2, 3)]]
            )
            .unwrap_err(),
            BlueprintError::Unschedulable(3)
        );
    }
}
