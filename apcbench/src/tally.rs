//! Per-layer tallies filled from the engine's own public read-outs: the
//! schedule trace of a traced cycle (node kernels by cost class) and the
//! executor's telemetry ring (wait, spin, park and steal counters).

use crate::pacer::median;
use crate::report::{dsp_class, Metrics, DSP_CLASSES};
use djstar_core::graph::{GraphTopology, NodeId};
use djstar_core::telemetry::TelemetryRing;
use djstar_core::trace::ScheduleTrace;
use djstar_engine::ApcTiming;
use djstar_sim::{list_schedule, DurationModel, SimGraph};
use std::time::Duration;

/// A duration in µs.
pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// TP, GP and VC times of every traced cycle (µs).
#[derive(Debug, Default, Clone)]
pub struct Phases([Vec<f64>; 3]);

impl Phases {
    /// Fold one cycle's phase timings in.
    pub fn add(&mut self, t: &ApcTiming) {
        for (v, d) in self.0.iter_mut().zip([t.tp, t.gp, t.vc]) {
            v.push(us(d));
        }
    }

    /// Record `apc.{tp,gp,vc}_us.p50`.
    pub fn put(&self, m: &mut Metrics) {
        for (name, v) in ["tp", "gp", "vc"].iter().zip(&self.0) {
            m.put(format!("apc.{name}_us.p50"), median(v), "us");
        }
    }
}

/// Node-kernel time per cost class, summed per traced cycle, and the
/// 2-lane list-schedule bound of each traced cycle's node durations.
#[derive(Debug, Default, Clone)]
pub struct DspTally {
    class_ns: [u64; 6],
    cycles: u64,
    bounds_us: Vec<f64>,
}

impl DspTally {
    /// Fold one traced cycle in.
    pub fn add(&mut self, topo: &GraphTopology, trace: &ScheduleTrace) {
        let mut node_ns = vec![0; topo.len()];
        for e in trace.executions() {
            let ns = e.duration_ns();
            self.class_ns[dsp_class(topo.name(NodeId(e.node)))] += ns;
            node_ns[e.node as usize] += ns;
        }
        self.cycles += 1;
        let graph = SimGraph::from_topology(topo);
        let durations = DurationModel::Constant(node_ns);
        let bound_ns = list_schedule(&graph, &durations, 0, 2).makespan_ns();
        self.bounds_us.push(bound_ns as f64 / 1e3);
    }

    /// Record `dsp.<class>_us` and `dsp.exec_us` (mean µs per cycle).
    pub fn put(&self, m: &mut Metrics) {
        let per_cycle = |ns: u64| ns as f64 / self.cycles.max(1) as f64 / 1e3;
        for (class, &ns) in DSP_CLASSES.iter().zip(&self.class_ns) {
            m.put(format!("dsp.{class}_us"), per_cycle(ns), "us");
        }
        m.put("dsp.exec_us", per_cycle(self.class_ns.iter().sum()), "us");
    }

    /// Median 2-lane list-schedule bound of the traced cycles (µs).
    pub fn bound_us(&self) -> f64 {
        median(&self.bounds_us)
    }
}

/// Executor telemetry summed over every traced cycle of one preset.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTally {
    cycles: u64,
    graph_ns: u64,
    exec_ns: u64,
    wait_ns: u64,
    spin_iters: u64,
    parks: u64,
    steal_attempts: u64,
    steal_hits: u64,
}

impl ExecTally {
    /// Fold a drained telemetry ring in.
    pub fn add(&mut self, ring: &TelemetryRing) {
        for rec in ring.iter() {
            let t = rec.totals();
            self.cycles += 1;
            self.graph_ns += rec.graph_ns;
            self.exec_ns += t.exec_ns;
            self.wait_ns += t.wait_ns();
            self.spin_iters += t.spin_iters;
            self.parks += t.park_count;
            self.steal_attempts += t.steal_attempts;
            self.steal_hits += t.steal_hits;
        }
    }

    fn per_cycle(&self, v: u64) -> f64 {
        v as f64 / self.cycles.max(1) as f64
    }

    /// Mean busy-plus-park wait per cycle (µs).
    pub fn wait_us(&self) -> f64 {
        self.per_cycle(self.wait_ns) / 1e3
    }

    /// Mean lane time per cycle neither executing nor waiting (µs):
    /// `lanes × graph − exec − wait`.
    pub fn idle_us(&self, lanes: u64) -> f64 {
        let idle = (lanes * self.graph_ns) as f64 - (self.exec_ns + self.wait_ns) as f64;
        idle / self.cycles.max(1) as f64 / 1e3
    }

    /// Share of lane time spent executing nodes.
    pub fn busy_share(&self, lanes: u64) -> f64 {
        self.exec_ns as f64 / (lanes * self.graph_ns).max(1) as f64
    }

    /// Mean dependency-poll iterations per cycle.
    pub fn spin_iters(&self) -> f64 {
        self.per_cycle(self.spin_iters)
    }

    /// Mean parks per cycle.
    pub fn parks_per_cycle(&self) -> f64 {
        self.per_cycle(self.parks)
    }

    /// Steal sweeps that found work, over all sweeps (0 with no sweeps).
    pub fn steal_hit_ratio(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_hits as f64 / self.steal_attempts as f64
        }
    }
}
