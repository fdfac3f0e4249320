//! Metric collection, the declared metric tables, and the result line.
//!
//! Every name a workload may print in its result line is declared here,
//! per mode (untraced: end-to-end; traced: per-layer); every workload
//! prints the same names. `BENCHMARK.json` must
//! declare the same names with the same units — a unit test checks it —
//! and [`Metrics::check_against`] refuses a run that printed anything
//! else, so the two can never drift apart silently.

use crate::pacer::{percentile, sorted, tail_quantile, Pacer};
use std::fmt::Write as _;

/// The six presets in the order the paper's tables list them, with the
/// lowercase key used in metric names.
pub const PRESETS: [&str; 6] = ["seq", "busy", "sleep", "ws", "hybrid", "plan"];

/// The three workloads.
pub const WORKLOADS: [&str; 3] = ["live-set", "mode-walk", "venue"];

/// Ordered `(name, value, unit)` triples.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record a metric. Values must be finite: a NaN or infinity is a bug
    /// in the benchmark, not a measurement.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.entries.push((name, value, unit));
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Fail unless exactly the `declared` names were recorded, each with
    /// its declared unit.
    pub fn check_against(&self, declared: &[(String, &'static str)]) -> Result<(), String> {
        for (name, _, unit) in &self.entries {
            match declared.iter().find(|(n, _)| n == name) {
                None => return Err(format!("undeclared metric {name}")),
                Some((_, u)) if u != unit => {
                    return Err(format!("metric {name} has unit {unit}, declared {u}"))
                }
                Some(_) => {}
            }
        }
        for (name, _) in declared {
            if self.get(name).is_none() {
                return Err(format!("declared metric {name} was not recorded"));
            }
        }
        Ok(())
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// End-to-end metrics every workload prints in an untraced run.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = PRESETS
        .iter()
        .map(|p| (format!("apc_p25_ms.{p}"), "ms"))
        .collect();
    v.push(("setup_s".into(), "s"));
    v
}

/// Per-layer metrics every workload prints in a traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for phase in ["tp", "gp", "vc"] {
        add(format!("apc.{phase}_us.p50"), "us");
    }
    for p in PRESETS {
        add(format!("apc.graph_us.p50.{p}"), "us");
    }
    for p in &PRESETS[1..] {
        add(format!("exec.wait_us.{p}"), "us");
        add(format!("exec.idle_us.{p}"), "us");
        add(format!("exec.busy_share.{p}"), "ratio");
    }
    for p in ["busy", "hybrid", "plan"] {
        add(format!("exec.spin_iters.{p}"), "count");
    }
    for p in ["sleep", "hybrid"] {
        add(format!("exec.parks_per_cycle.{p}"), "count");
    }
    add("exec.steal_hit_ratio.ws".into(), "ratio");
    for class in DSP_CLASSES {
        add(format!("dsp.{class}_us"), "us");
    }
    add("dsp.exec_us".into(), "us");
    add("sim.bound_us".into(), "us");
    for p in PRESETS {
        add(format!("sim.gap.{p}"), "ratio");
    }
    add("setup.engine_s".into(), "s");
    add("setup.warmup_s".into(), "s");
    add("setup.plan_compile_ms".into(), "ms");
    for p in PRESETS {
        add(format!("soundcard.apc_p50_ms.{p}"), "ms");
        add(format!("soundcard.tail_ms.{p}"), "ms");
        add(format!("soundcard.tail_q.{p}"), "%");
        add(format!("soundcard.samples.{p}"), "count");
        add(format!("soundcard.miss_per_10k.{p}"), "count");
    }
    add("host.steal_pct".into(), "%");
    add("gen.late_p50_us".into(), "us");
    add("gen.late_p99_us".into(), "us");
    add("trace.overhead_pct".into(), "%");
    v
}

/// Node-class keys of the `dsp.*` metrics, in `WorkProfile` order.
pub const DSP_CLASSES: [&str; 6] = ["sp", "fx", "channel", "mixer", "master", "bookkeeping"];

/// The cost class of a graph node, from its name (see `graphbuild`).
pub fn dsp_class(node_name: &str) -> usize {
    const MASTER: [&str; 7] = [
        "MasterBuffer",
        "AudioOut",
        "RecordBuffer",
        "CueBuffer",
        "MonitorBuffer",
        "AudioSampler",
        "BroadcastSink",
    ];
    if node_name.starts_with("SP") || node_name.starts_with("NetSrc") {
        0
    } else if node_name.starts_with("FX") {
        1
    } else if node_name.starts_with("Channel") {
        2
    } else if node_name.starts_with("Mixer") {
        3
    } else if MASTER.iter().any(|m| node_name.starts_with(m)) {
        4
    } else {
        5
    }
}

/// One latency series: every packet served for a preset (or a workload).
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// APC wall time of every packet, in ms: from the cycle's start (its
    /// due instant, or the previous hand-over if that was later) to the
    /// hand-over.
    pub apc_ms: Vec<f64>,
    /// Due → hand-over latency of every packet, in ms (APC wall time
    /// plus the wait a late predecessor imposed).
    pub latency_ms: Vec<f64>,
    /// Packets delivered after their deadline.
    pub late: u64,
    /// Slots skipped while this series was being served.
    pub xruns: u64,
}

impl Series {
    /// Record a packet for the slot due at `due_ns`, started at
    /// `start_ns` and handed over at `done_ns`.
    pub fn serve(&mut self, pacer: &Pacer, due_ns: u64, start_ns: u64, done_ns: u64) {
        self.apc_ms.push((done_ns - start_ns) as f64 / 1e6);
        self.latency_ms.push((done_ns - due_ns) as f64 / 1e6);
        if pacer.is_late(due_ns, done_ns) {
            self.late += 1;
        }
    }

    /// Slots that fell due for this series (served + skipped).
    pub fn slots(&self) -> u64 {
        self.latency_ms.len() as u64 + self.xruns
    }

    /// APC wall time at quantile `q`.
    pub fn apc_ms(&self, q: f64) -> f64 {
        percentile(&sorted(&self.apc_ms), q)
    }

    /// Record the non-gating `soundcard.*` metrics under `key`: the
    /// median APC wall time; the latency tail at the highest percentile
    /// with ten samples beyond it, with that quantile and the sample count
    /// beside it; and late-plus-xrun slots per 10k due slots.
    pub fn put_tails(&self, m: &mut Metrics, key: &str) {
        m.put(
            format!("soundcard.apc_p50_ms.{key}"),
            self.apc_ms(0.5),
            "ms",
        );
        let s = sorted(&self.latency_ms);
        let (q, tail) = match tail_quantile(s.len()) {
            Some(q) => (q, percentile(&s, q)),
            // Too few samples for any tail: report the maximum, at q = 1.
            None => (1.0, s.last().copied().unwrap_or(0.0)),
        };
        m.put(format!("soundcard.tail_ms.{key}"), tail, "ms");
        m.put(format!("soundcard.tail_q.{key}"), q * 100.0, "%");
        m.put(format!("soundcard.samples.{key}"), s.len() as f64, "count");
        let misses = (self.late + self.xruns) as f64;
        m.put(
            format!("soundcard.miss_per_10k.{key}"),
            misses * 1e4 / self.slots().max(1) as f64,
            "count",
        );
    }
}

/// Pacer lateness: how late the generator started served slots.
#[derive(Debug, Default, Clone)]
pub struct Lateness(pub Vec<f64>);

impl Lateness {
    /// Record one slot start (`start_ns ≥ due_ns` by construction).
    pub fn record(&mut self, due_ns: u64, start_ns: u64) {
        self.0.push(start_ns.saturating_sub(due_ns) as f64 / 1e3);
    }

    /// Record `gen.late_p50_us` / `gen.late_p99_us`.
    pub fn put(&self, m: &mut Metrics) {
        let s = sorted(&self.0);
        m.put("gen.late_p50_us", percentile(&s, 0.5), "us");
        m.put("gen.late_p99_us", percentile(&s, 0.99), "us");
    }
}

/// Host CPU steal as a share of all CPU time between two `/proc/stat`
/// samples; 0 where the file is unavailable.
#[derive(Debug, Clone, Copy)]
pub struct StealProbe {
    start: Option<(u64, u64)>,
}

impl StealProbe {
    /// Take the first sample.
    pub fn start() -> Self {
        StealProbe {
            start: read_cpu_times(),
        }
    }

    /// Steal share (%) since [`start`](Self::start).
    pub fn steal_pct(&self) -> f64 {
        match (self.start, read_cpu_times()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1.saturating_sub(s0)) as f64 * 100.0 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`.
fn read_cpu_times() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_and_every_preset_tail_are_declared() {
        assert!(end_to_end()
            .iter()
            .any(|(n, u)| n == "setup_s" && *u == "s"));
        let layer = per_layer();
        for p in PRESETS {
            let name = format!("soundcard.tail_ms.{p}");
            assert!(layer.iter().any(|(n, _)| *n == name), "lacks {name}");
        }
    }

    #[test]
    fn check_against_catches_missing_extra_and_unit_drift() {
        let declared = vec![("a".to_string(), "ms"), ("b".to_string(), "s")];
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        assert!(m.check_against(&declared).is_err(), "b missing");
        m.put("b", 2.0, "s");
        assert!(m.check_against(&declared).is_ok());
        m.put("c", 3.0, "s");
        assert!(m.check_against(&declared).is_err(), "c undeclared");
        let mut u = Metrics::default();
        u.put("a", 1.0, "us");
        u.put("b", 1.0, "s");
        assert!(u.check_against(&declared).is_err(), "unit drift");
    }

    #[test]
    fn series_tails_and_misses() {
        let p = Pacer::new(1_000_000);
        let mut s = Series::default();
        for i in 0..1_000u64 {
            // 1..=1000 µs latency; the last 5 are beyond one period.
            let lat = if i >= 995 { 1_500_000 } else { (i + 1) * 1_000 };
            s.serve(&p, 0, 0, lat);
        }
        s.xruns = 5;
        let mut m = Metrics::default();
        s.put_tails(&mut m, "x");
        assert_eq!(m.get("soundcard.tail_q.x"), Some(99.0));
        assert_eq!(m.get("soundcard.samples.x"), Some(1_000.0));
        // 5 late + 5 xruns over 1005 due slots.
        let want = 10.0 * 1e4 / 1_005.0;
        assert!((m.get("soundcard.miss_per_10k.x").unwrap() - want).abs() < 1e-9);
    }

    #[test]
    fn node_names_map_to_cost_classes() {
        assert_eq!(dsp_class("SPA1"), 0);
        assert_eq!(dsp_class("NetSrcB"), 0);
        assert_eq!(dsp_class("FXC4"), 1);
        assert_eq!(dsp_class("ChannelD"), 2);
        assert_eq!(dsp_class("Mixer[ABCD]"), 3);
        assert_eq!(dsp_class("CueBuffer[AB]"), 4);
        assert_eq!(dsp_class("AudioOut1"), 4);
        assert_eq!(dsp_class("LevelMeterA"), 5);
        assert_eq!(dsp_class("StatsCollector"), 5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(true, 10, 0, &m);
        let parsed = djstar_stats::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(10));
        let v = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|s| s.get("value"))
            .and_then(|v| v.as_f64());
        assert_eq!(v, Some(0.5));
    }
}

/// `BENCHMARK.json` must declare exactly the workloads and metrics this
/// crate emits, with the same units.
#[cfg(test)]
mod declared {
    use super::*;
    use djstar_stats::json::Json;
    use std::collections::BTreeMap;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(section: &str) -> BTreeMap<String, String> {
        let json = benchmark_json();
        let Some(Json::Array(items)) = json.get(section) else {
            panic!("{section} is not an array");
        };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn emitted(table: fn() -> Vec<(String, &'static str)>) -> BTreeMap<String, String> {
        let all: BTreeMap<String, String> = table()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(all.len(), table().len(), "a metric is declared twice");
        all
    }

    #[test]
    fn workload_names_match() {
        let json = benchmark_json();
        let Some(Json::Array(items)) = json.get("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn end_to_end_metrics_match() {
        assert_eq!(declared("end_to_end"), emitted(end_to_end));
    }

    #[test]
    fn per_layer_metrics_match() {
        assert_eq!(declared("per_layer"), emitted(per_layer));
    }
}
