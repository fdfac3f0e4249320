//! The sequential baseline: DJ Star's original implementation.
//!
//! §IV: "the task graph is implemented using a simple queue. Nodes are
//! inserted according to their depth in the dependency graph … single nodes
//! can simply be removed from the queue in the same order (FIFO) during
//! graph execution and processed sequentially."
//!
//! One FIFO loop serves both ways a sequential graph runs: inline on the
//! calling thread ([`GraphExecutor::run_cycle`], the solo and `run_apc`
//! path), and — for an executor bound to a [`VenuePool`] with
//! [`SequentialExecutor::with_pool`] — as a one-lane venue session that the
//! pool places on its least-loaded lane of the batch (see `exec::pool`), so
//! it overlaps the other sessions instead of running on the driver after
//! them.

use super::pool::{PoolBinding, SessionState, VenuePool};
use super::{
    CycleResult, ExecGraph, GraphExecutor, RawEvent, Shared, StagedGeneration, Strategy, SwapError,
};
use crate::faults::FaultPlan;
use crate::flight::{FlightConfig, FlightWindow, Span, SpanKind};
use crate::graph::{GraphTopology, NodeId, Priority, TaskGraph};
use crate::processor::{CycleCtx, Processor};
use crate::telemetry::{TelemetryRing, DEFAULT_RING_CAPACITY};
use crate::trace::{ScheduleTrace, TraceKind};
use djstar_dsp::AudioBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Single-threaded FIFO execution of the depth-sorted queue.
pub struct SequentialExecutor {
    /// The graph and its recording sinks, as lane 0 of a one-lane session.
    shared: Arc<Shared>,
    /// Venue pool membership; `None` for a solo executor.
    pool: Option<PoolBinding>,
    tracing: bool,
    last_trace: Option<ScheduleTrace>,
    telemetry: Option<TelemetryRing>,
    session: u32,
}

/// The FIFO loop: run every node of `sh`'s graph in queue order for
/// `ctx.epoch` on the session's single lane, feeding whichever sinks are
/// armed — `events` (schedule trace), telemetry counters, the flight
/// recorder — and injecting the installed faults.
fn run_queue(sh: &Shared, ctx: &CycleCtx<'_>, mut events: Option<&mut Vec<RawEvent>>) {
    let epoch = ctx.epoch;
    let telem = sh.telemetry.load(Ordering::Relaxed);
    let rec = sh.flight_on();
    let counters = &sh.counters[0];
    let faults = sh.fault_plan();
    let exec = sh.graph();
    // The single lane absorbs every stall lane.
    if let Some(plan) = faults {
        if rec {
            let s0 = Instant::now();
            if plan.inject_stalls(epoch, 0, 1, counters) > 0 {
                sh.record_span(0, epoch, Span::NO_NODE, SpanKind::Fault, s0, Instant::now());
            }
        } else {
            plan.inject_stalls(epoch, 0, 1, counters);
        }
    }
    if events.is_some() || telem || rec {
        for &n in exec.topology().queue() {
            let t0 = Instant::now();
            let mut fault_end = t0;
            if let Some(plan) = faults {
                let injected = plan.inject_node(epoch, n, counters);
                if rec && injected > 0 {
                    fault_end = Instant::now();
                }
            }
            let net0 = if rec { sh.net_ns_of(0) } else { (0, 0) };
            // SAFETY: one lane executes every node in queue order, which is
            // a valid topological order.
            let t1 = unsafe { exec.execute_stamped(n as usize, ctx) };
            if telem {
                counters.add_exec((t1 - t0).as_nanos() as u64);
            }
            if rec {
                if fault_end > t0 {
                    sh.record_span(0, epoch, n, SpanKind::Fault, t0, fault_end);
                }
                sh.record_exec_carved(0, epoch, n, fault_end, t1, net0);
            }
            if let Some(events) = events.as_deref_mut() {
                events.push(RawEvent {
                    node: n,
                    kind: TraceKind::Exec,
                    start: t0,
                    end: t1,
                });
            }
        }
    } else {
        for &n in exec.topology().queue() {
            if let Some(plan) = faults {
                plan.inject_node(epoch, n, counters);
            }
            // SAFETY: as above.
            unsafe { exec.execute(n as usize, ctx) };
        }
    }
}

/// Run a staged venue cycle `epoch` on whichever pool lane the batch
/// placed this session on (`me` is the session-local lane, always 0).
pub(crate) fn run_cycle_part(sh: &Shared, me: usize, epoch: u64) {
    debug_assert_eq!(me, 0, "a sequential session has one lane");
    let counted = sh.telemetry.load(Ordering::Relaxed) || sh.flight_on();
    // SAFETY: epoch acquired (worker via the pool batch epoch, driver
    // trivially).
    let ctx = if counted {
        unsafe { sh.ctx_counted(epoch, 0) }
    } else {
        unsafe { sh.ctx(epoch) }
    };
    let mut events = sh
        .tracing
        .load(Ordering::Relaxed)
        .then(|| Vec::with_capacity(sh.graph().len()));
    run_queue(sh, &ctx, events.as_mut());
    let end = Instant::now();
    if let Some(events) = events {
        sh.flush_trace(0, events);
    }
    sh.finish_cycle(epoch, end);
}

impl SequentialExecutor {
    /// Build a sequential executor over `graph` with `frames`-frame buffers.
    pub fn new(graph: TaskGraph, frames: usize) -> Self {
        Self::build(Self::shared(graph, frames), None)
    }

    /// Like [`new`](Self::new), but registered on a shared [`VenuePool`]
    /// as a one-lane session: [`run_cycle`](GraphExecutor::run_cycle) still
    /// runs inline, while venue cycles
    /// ([`venue_stage`](GraphExecutor::venue_stage)) run on the pool lane
    /// the batch places the session on.
    pub fn with_pool(graph: TaskGraph, frames: usize, pool: &Arc<VenuePool>) -> Self {
        let shared = Self::shared(graph, frames);
        // SAFETY: no cycle in flight yet.
        unsafe { shared.handles.set(pool.session_handles(1)) };
        let binding = pool.register(SessionState::Sequential(Arc::clone(&shared)));
        Self::build(shared, Some(binding))
    }

    fn shared(graph: TaskGraph, frames: usize) -> Arc<Shared> {
        Arc::new(Shared::new(
            ExecGraph::new(graph, frames),
            1,
            Priority::Depth,
        ))
    }

    fn build(shared: Arc<Shared>, pool: Option<PoolBinding>) -> Self {
        SequentialExecutor {
            shared,
            pool,
            tracing: false,
            last_trace: None,
            telemetry: None,
            session: 0,
        }
    }

    /// Wait until no pool batch is in flight (bound executors), so the
    /// session state is driver-owned.
    fn quiesce(&self) {
        if let Some(binding) = &self.pool {
            binding.pool().quiesce();
        }
    }

    /// Stamp and account a finished cycle `[start, end]`.
    fn harvest(&mut self, epoch: u64, start: Instant, end: Instant) -> CycleResult {
        let duration = end - start;
        if self.shared.flight_on() {
            self.shared.stamp_cycle(epoch, end);
        }
        if let Some(ring) = self.telemetry.as_mut() {
            // Inline: our own writes. Staged: the lane's counter updates
            // precede its completion store, acquired by `wait_cycle_done`.
            let slot = ring.begin_push(epoch, duration.as_nanos() as u64);
            self.shared.drain_counters(slot);
        }
        CycleResult { duration }
    }
}

impl GraphExecutor for SequentialExecutor {
    fn strategy(&self) -> Strategy {
        Strategy::Sequential
    }

    fn threads(&self) -> usize {
        1
    }

    fn run_cycle(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> CycleResult {
        self.quiesce();
        let sh = &*self.shared;
        // Driver-only counter: staged cycles carry their epoch in the pool
        // entry.
        let epoch = sh.epoch.load(Ordering::Relaxed) + 1;
        sh.epoch.store(epoch, Ordering::Relaxed);
        let telem = self.telemetry.is_some();
        sh.telemetry.store(telem, Ordering::Relaxed);
        let ctx = CycleCtx {
            epoch,
            external_audio,
            controls,
            counters: (telem || sh.flight_on()).then_some(&sh.counters[0]),
        };
        let mut events = self.tracing.then(|| Vec::with_capacity(sh.graph().len()));
        let start = Instant::now();
        // SAFETY: driver between cycles, pool quiescent.
        unsafe { sh.cycle_start.set(start) };
        run_queue(sh, &ctx, events.as_mut());
        let end = Instant::now();
        if let Some(events) = events {
            self.last_trace = Some(super::finish_trace(1, start, vec![(0, events)]));
        }
        self.harvest(epoch, start, end)
    }

    fn venue_stage(&mut self, external_audio: &[AudioBuf], controls: &[f32]) -> Option<u64> {
        let binding = self.pool.as_ref()?;
        binding.pool().quiesce();
        let sh = &self.shared;
        sh.tracing.store(self.tracing, Ordering::Relaxed);
        sh.telemetry
            .store(self.telemetry.is_some(), Ordering::Relaxed);
        // SAFETY: driver thread, no cycle in flight (`&mut self`), pool
        // quiescent.
        let epoch = unsafe { sh.prepare_cycle(external_audio, controls) };
        binding.stage(epoch);
        Some(epoch)
    }

    fn venue_collect(&mut self, epoch: u64) -> CycleResult {
        let end = self.shared.wait_cycle_done(epoch);
        // SAFETY: driver-owned; set by `prepare_cycle` this cycle.
        let start = unsafe { *self.shared.cycle_start.get() };
        if self.tracing {
            self.shared.wait_trace_flushed();
            self.last_trace = Some(self.shared.collect_trace());
        }
        self.harvest(epoch, start, end)
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
                    1,
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
        self.quiesce();
        // SAFETY: driver-only between cycles (`&mut self`), pool quiescent.
        unsafe { self.shared.faults.set(plan) };
    }

    fn set_flight_recorder(&mut self, cfg: Option<FlightConfig>) {
        self.quiesce();
        self.shared.install_recorder(cfg);
    }

    fn take_flight_window(&mut self) -> Option<FlightWindow> {
        self.quiesce();
        self.shared.take_window()
    }

    fn adopt_generation(&mut self, staged: StagedGeneration) -> Result<u64, SwapError> {
        let (exec, _plan) = staged.into_parts();
        self.quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent. The epoch keeps counting: nothing in the fresh graph
        // can claim to be done for a past or future cycle.
        Ok(unsafe { self.shared.adopt_exec(exec) })
    }

    fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    fn read_output(&mut self, node: NodeId, dst: &mut AudioBuf) {
        self.quiesce();
        // SAFETY: `&mut self` proves no cycle in flight; the pool is
        // quiescent.
        unsafe { self.shared.graph().read_output_unsync(node, dst) };
    }

    fn node_processor(&mut self, node: NodeId) -> &mut dyn Processor {
        self.quiesce();
        // SAFETY: as in `read_output`.
        unsafe { self.shared.graph().node_processor_unsync(node) }
    }

    fn topology(&self) -> &GraphTopology {
        self.shared.graph().topology()
    }

    fn pool(&self) -> Option<&Arc<VenuePool>> {
        self.pool.as_ref().map(PoolBinding::pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Section, TaskGraphBuilder};
    use crate::processor::FnProcessor;

    fn chain_graph(n: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        let mut prev: Option<NodeId> = None;
        for i in 0..n {
            let preds: Vec<NodeId> = prev.into_iter().collect();
            prev = Some(b.add(
                format!("n{i}"),
                Section::Master,
                Box::new(FnProcessor(
                    move |inp: &[&AudioBuf], out: &mut AudioBuf, _: &CycleCtx<'_>| {
                        let base = inp.first().map(|b| b.sample(0, 0)).unwrap_or(0.0);
                        out.samples_mut().fill(base + 1.0);
                    },
                )),
                &preds,
            ));
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_accumulates_through_cycle() {
        let mut ex = SequentialExecutor::new(chain_graph(5), 4);
        ex.run_cycle(&[], &[]);
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(NodeId(4), &mut out);
        assert_eq!(out.sample(0, 0), 5.0);
    }

    #[test]
    fn trace_is_a_valid_order_on_one_worker() {
        let mut ex = SequentialExecutor::new(chain_graph(6), 4);
        ex.set_tracing(true);
        ex.run_cycle(&[], &[]);
        let trace = ex.take_trace().unwrap();
        assert_eq!(trace.executions().len(), 6);
        assert_eq!(trace.execution_order(), vec![0, 1, 2, 3, 4, 5]);
        let topo = ex.topology();
        assert!(trace.respects_dependencies(|n| topo.preds(NodeId(n)).to_vec()));
        // All on worker 0.
        assert!(trace.events.iter().all(|e| e.worker == 0));
    }

    #[test]
    fn take_trace_none_when_untraced() {
        let mut ex = SequentialExecutor::new(chain_graph(2), 4);
        ex.run_cycle(&[], &[]);
        assert!(ex.take_trace().is_none());
    }

    #[test]
    fn epochs_isolate_cycles() {
        let mut ex = SequentialExecutor::new(chain_graph(3), 4);
        let r1 = ex.run_cycle(&[], &[]);
        let r2 = ex.run_cycle(&[], &[]);
        assert!(r1.duration.as_nanos() > 0);
        assert!(r2.duration.as_nanos() > 0);
        let mut out = AudioBuf::zeroed(2, 4);
        ex.read_output(NodeId(2), &mut out);
        assert_eq!(out.sample(0, 0), 3.0);
    }
}
