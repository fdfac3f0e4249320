//! The busy-waiting strategy (§V-A) — the paper's winner.
//!
//! "The graph nodes are already in a sorted queue with respect to their
//! dependencies … they can be easily assigned to threads in a round-robin
//! manner. … When a node gets scheduled, it first checks its dependencies
//! and performs busy-waiting until they are met."
//!
//! Node `queue[k]` is executed by worker `k mod T`; each worker walks its
//! own positions in queue order and spins (`core::hint::spin_loop`) on any
//! predecessor that is not yet done for the current epoch. Because
//! dependencies always point to *earlier* queue positions, and each worker
//! processes its positions in order, a waiting worker's dependency is
//! always owned by a worker currently at an earlier position — so the
//! waits-for relation cannot form a cycle and the strategy is deadlock-free.
//!
//! On an over-subscribed host (fewer cores than workers) a pure spin would
//! starve the producing worker; [`ExecGraph::spin_until_done`] therefore
//! yields every 4096 spins, which is a no-op when cores are plentiful.
//!
//! The OS threads belong to a [`VenuePool`](super::pool::VenuePool): the
//! single-session constructors spin up a private one-session pool, and
//! [`BusyExecutor::with_pool`] registers onto an existing shared pool so
//! many sessions multiplex the same workers (see `exec::pool`).

use super::pool::{PoolBinding, SessionState, VenuePool};
use super::{
    CycleResult, ExecGraph, GraphExecutor, RawEvent, Shared, StagedGeneration, Strategy, SwapError,
};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Priority, TaskGraph};
use crate::processor::Processor;
use crate::telemetry::{TelemetryRing, DEFAULT_RING_CAPACITY};
use crate::trace::{ScheduleTrace, TraceKind};
use djstar_dsp::AudioBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Busy-waiting executor: static round-robin assignment + spin waits.
pub struct BusyExecutor {
    shared: Arc<Shared>,
    pool: PoolBinding,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    telemetry: Option<TelemetryRing>,
    session: u32,
}

impl BusyExecutor {
    /// Build the executor with `threads` workers (including the calling
    /// thread) over `graph` with `frames`-frame buffers.
    ///
    /// # Panics
    /// Panics if `threads == 0` or `threads > 64`.
    pub fn new(graph: TaskGraph, threads: usize, frames: usize) -> Self {
        Self::with_priority(graph, threads, frames, Priority::Depth)
    }

    /// Like [`new`](Self::new), but walking the queue in the order selected
    /// by `priority` (depth order is the production default).
    pub fn with_priority(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        priority: Priority,
    ) -> Self {
        let pool = Arc::new(VenuePool::new(threads));
        Self::with_pool(graph, threads, frames, priority, &pool)
    }

    /// Register this session on an existing shared [`VenuePool`] instead of
    /// spawning private threads. `threads` is this session's lane count and
    /// must not exceed the pool's.
    pub fn with_pool(
        graph: TaskGraph,
        threads: usize,
        frames: usize,
        priority: Priority,
        pool: &Arc<VenuePool>,
    ) -> Self {
        assert!((1..=64).contains(&threads), "1..=64 threads supported");
        let shared = Arc::new(Shared::new(
            ExecGraph::new(graph, frames),
            threads,
            priority,
        ));
        // SAFETY: no cycle in flight yet; workers only read handles during a
        // cycle (after acquiring the epoch that published them).
        unsafe { shared.handles.set(pool.session_handles(threads)) };
        let pool = pool.register(SessionState::Busy(Arc::clone(&shared)));
        BusyExecutor {
            shared,
            pool,
            tracing: false,
            last_trace: None,
            telemetry: None,
            session: 0,
        }
    }
}

/// Execute worker `me`'s round-robin share of the queue for `epoch`.
pub(crate) fn run_cycle_part(shared: &Shared, me: usize, epoch: u64) {
    let tracing = shared.tracing.load(Ordering::Relaxed);
    let telem = shared.telemetry.load(Ordering::Relaxed);
    let rec = shared.flight_on();
    let counters = &shared.counters[me];
    let topo = shared.graph().topology();
    let faults = shared.fault_plan();
    // SAFETY: epoch acquired (worker via the pool batch epoch, driver
    // trivially).
    let ctx = if telem || rec {
        unsafe { shared.ctx_counted(epoch, me) }
    } else {
        unsafe { shared.ctx(epoch) }
    };
    if let Some(plan) = faults {
        if rec {
            let s0 = Instant::now();
            if plan.inject_stalls(epoch, me, shared.threads, counters) > 0 {
                shared.record_span(
                    me,
                    epoch,
                    Span::NO_NODE,
                    SpanKind::Fault,
                    s0,
                    Instant::now(),
                );
            }
        } else {
            plan.inject_stalls(epoch, me, shared.threads, counters);
        }
    }
    let mut events: Vec<RawEvent> = Vec::new();
    for (k, &node) in shared.order().iter().enumerate() {
        if k % shared.threads != me {
            continue;
        }
        let preds = topo.preds(NodeId(node));
        if tracing || telem || rec {
            let w0 = Instant::now();
            let mut spins = 0u64;
            for &p in preds {
                spins += shared.graph().spin_until_done(p as usize, epoch);
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
                    shared.record_span(me, epoch, node, SpanKind::BusyWait, w0, w1);
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
            let net0 = if rec { shared.net_ns_of(me) } else { (0, 0) };
            // SAFETY: exactly-once ownership by round-robin assignment; all
            // predecessors observed done for this epoch.
            let t1 = unsafe { shared.graph().execute_stamped(node as usize, &ctx) };
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
                    shared.record_span(me, epoch, node, SpanKind::Fault, t0, fault_end);
                }
                shared.record_exec_carved(me, epoch, node, fault_end, t1, net0);
            }
        } else {
            for &p in preds {
                shared.graph().spin_until_done(p as usize, epoch);
            }
            if let Some(plan) = faults {
                plan.inject_node(epoch, node, counters);
            }
            // SAFETY: as above.
            unsafe { shared.graph().execute(node as usize, &ctx) };
        }
        shared.node_finished();
    }
    if tracing {
        shared.flush_trace(me, events);
    }
}

impl GraphExecutor for BusyExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Busy
    }

    fn threads(&self) -> usize {
        self.shared.threads
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        let epoch = self
            .venue_stage(external_audio, controls)
            .expect("busy executor always stages");
        self.pool.pool().dispatch();
        run_cycle_part(&self.shared, 0, epoch);
        let result = self.venue_collect(epoch);
        self.pool.pool().quiesce();
        result
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        self.pool.pool().quiesce();
        self.shared.tracing.store(self.tracing, Ordering::Relaxed);
        self.shared
            .telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        // SAFETY: driver thread, no cycle in flight (`&mut self`), pool
        // quiescent.
        let epoch = unsafe { self.shared.prepare_cycle(external_audio, controls) };
        self.pool.stage(epoch);
        Some(epoch)
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        self.shared.wait_cycle_done();
        let end = Instant::now();
        // SAFETY: driver-owned; set by `prepare_cycle` this cycle.
        let start = unsafe { *self.shared.cycle_start.get() };
        let duration = end - start;
        if self.shared.flight_on() {
            self.shared.stamp_cycle(epoch, end);
        }
        if let Some(ring) = self.telemetry.as_mut() {
            // All counter updates happen-before the workers' final
            // done-count increments, acquired by `wait_cycle_done`.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            self.shared.drain_counters(slot);
        }
        if self.tracing {
            self.shared.wait_trace_flushed();
            self.last_trace = Some(self.shared.collect_trace());
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
                    self.shared.threads,
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
        unsafe { self.shared.faults.set(plan) };
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.install_recorder(cfg);
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        // Driver-only between cycles (`&mut self`).
        self.pool.pool().quiesce();
        self.shared.take_window()
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Result<u64, SwapError> {
        let (exec, _plan) = staged.into_parts();
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no node state until the next batch.
        Ok(unsafe { self.shared.adopt_exec(exec) })
    }

    fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.pool.pool().quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent, so workers touch no node state.
        unsafe { self.shared.graph().read_output_unsync(node, dst) };
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.pool.pool().quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.shared.graph().node_processor_unsync(node) }
    }

    fn topology(&self) -> &GraphTopology {
        self.shared.graph().topology()
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
    fn computes_same_result_as_sequential() {
        for threads in [1, 2, 3, 4] {
            run_and_check(
                |g, frames| Box::new(BusyExecutor::new(g, threads, frames)),
                &format!("busy-{threads}"),
            );
        }
    }

    #[test]
    fn critical_path_priority_matches_sequential() {
        for threads in [1, 3] {
            run_and_check(
                |g, frames| {
                    Box::new(BusyExecutor::with_priority(
                        g,
                        threads,
                        frames,
                        Priority::CriticalPath,
                    ))
                },
                &format!("busy-cp-{threads}"),
            );
        }
    }

    #[test]
    fn diamond_sums_correctly_many_cycles() {
        let mut ex = BusyExecutor::new(diamond_sum_graph(), 2, 8);
        for _ in 0..200 {
            ex.run_cycle(&[], &[]);
            let mut out = AudioBuf::zeroed(2, 8);
            ex.read_output(NodeId(3), &mut out);
            assert_eq!(out.sample(0, 0), 3.0); // 1 + 2
        }
    }

    #[test]
    fn trace_respects_dependencies() {
        let mut ex = BusyExecutor::new(fan_graph(16), 4, 8);
        ex.set_tracing(true);
        for _ in 0..20 {
            ex.run_cycle(&[], &[]);
            let trace = ex.take_trace().unwrap();
            assert_eq!(trace.executions().len(), ex.topology().len());
            let topo = ex.topology();
            assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        }
    }

    #[test]
    fn round_robin_assignment_visible_in_trace() {
        let mut ex = BusyExecutor::new(fan_graph(8), 2, 8);
        ex.set_tracing(true);
        ex.run_cycle(&[], &[]);
        let trace = ex.take_trace().unwrap();
        let topo = ex.topology();
        for e in trace.executions() {
            let k = topo.queue().iter().position(|&n| n == e.node).unwrap();
            assert_eq!(e.worker as usize, k % 2, "node {} on wrong worker", e.node);
        }
    }
}
