//! The paced loop every workload shares.
//!
//! A workload is six *units*, one per preset in [`PRESETS`] order, all
//! on one 2-lane `VenuePool`: SEQ on 1 lane, BUSY, SLEEP, WS, HYBRID and
//! PLAN on 2. Each round serves one block of [`BLOCK`] packets per unit,
//! in an order shuffled from `--seed`, so host drift hits every preset
//! alike and every unit ends with the same packet count. What a unit does
//! in one slot is up to the workload ([`Units::cycle`]); pacing, the
//! latency series, the cards, the checksums and the per-layer tallies are
//! kept here, so every workload reports the same metrics.

use crate::pacer::{median, Clock, Pacer};
use crate::report::{Lateness, Metrics, Series, StealProbe, PRESETS};
use crate::tally::{us, DspTally, ExecTally, Phases};
use crate::{packets, Args, Outcome, Setup, WARMUP};
use djstar_bench::{fold_checksum, CHECKSUM_SEED};
use djstar_core::exec::Strategy;
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::rng::SmallRng;
use djstar_engine::{ApcTiming, AudioEngine, AuxWork, GraphEdit, SoundCardSim};
use djstar_workload::scenario::Scenario;

/// Presets in [`PRESETS`] order.
pub const STRATEGIES: [Strategy; 6] = [
    Strategy::Sequential,
    Strategy::Busy,
    Strategy::Sleep,
    Strategy::Steal,
    Strategy::Hybrid,
    Strategy::Planned,
];

/// Packets per unit block.
pub const BLOCK: usize = 50;

/// Pool lanes a preset runs on.
pub fn lanes(s: Strategy) -> usize {
    if s == Strategy::Sequential {
        1
    } else {
        2
    }
}

/// A workload's six preset units.
pub trait Units {
    /// The engine whose cycle unit `i` times (telemetry, schedule trace).
    fn engine(&mut self, i: usize) -> &mut AudioEngine;

    /// Serve unit `i`'s packet `k` (counted per unit from 0): run one
    /// cycle, write the unit's output to `out` and return the unit
    /// engine's phase timing.
    fn cycle(&mut self, i: usize, k: usize, out: &mut AudioBuf) -> ApcTiming;

    /// Work after packet `k`'s hand-over, outside its APC time.
    fn after(&mut self, _i: usize, _k: usize) {}
}

/// Seeded unit order of every round.
pub fn round_orders(seed: u64, rounds: usize) -> Vec<[usize; 6]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..rounds)
        .map(|_| {
            let mut order = [0, 1, 2, 3, 4, 5];
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            order
        })
        .collect()
}

/// Untimed reference: a stand-alone SEQ engine on `scenario` runs the
/// units' warm-up, then `packets` packets, applying `edits[k]` with
/// `reconfigure` (no mode cache) before packet `k`. Returns the checksum
/// of every packet. Aux work never touches the audio, so the replay runs
/// the light one.
pub fn replay(
    scenario: Scenario,
    packets: usize,
    edits: &[Option<GraphEdit>],
) -> Result<u64, String> {
    let mut e = AudioEngine::with_aux(scenario, Strategy::Sequential, 1, AuxWork::light());
    e.warmup(WARMUP);
    let mut sum = CHECKSUM_SEED;
    for k in 0..packets {
        if let Some(&Some(edit)) = edits.get(k) {
            e.reconfigure(&[edit])
                .map_err(|err| format!("reference switch at packet {k}: {err}"))?;
        }
        e.run_apc();
        sum = fold_checksum(sum, &e.output());
    }
    Ok(sum)
}

/// 1 (logged) unless `got` equals the replay's checksum.
pub fn mismatch(what: &str, got: u64, want: &Result<u64, String>) -> u64 {
    match want {
        Ok(w) if *w == got => 0,
        Ok(w) => {
            eprintln!("{what}: checksum {got:x} != reference {w:x}");
            1
        }
        Err(err) => {
            eprintln!("{what}: {err}");
            1
        }
    }
}

/// Everything one paced run observed.
pub struct Drive {
    /// `[unit][traced]`.
    series: Vec<[Series; 2]>,
    /// Checksum of every packet unit `i` delivered.
    pub sums: [u64; 6],
    /// Packets every unit served.
    pub per_unit: usize,
    /// Due slots, served and skipped.
    pub slots: u64,
    /// Packets a card refused.
    pub rejected: u64,
    steal_pct: f64,
    lateness: Lateness,
    phases: Phases,
    graph_us: Vec<Vec<f64>>,
    exec: [ExecTally; 6],
    dsp: DspTally,
}

/// Rounds of a run: as many as `args.seconds` of slots fill, at least
/// two, and an even number in a traced run so traced and untraced rounds
/// are equal in number.
fn rounds(args: &Args) -> usize {
    let rounds = (packets(args.seconds) as usize / (BLOCK * 6)).max(2);
    if args.trace {
        rounds + rounds % 2
    } else {
        rounds
    }
}

/// Packets every unit serves in a run.
pub fn unit_packets(args: &Args) -> usize {
    rounds(args) * BLOCK
}

/// Run the paced loop for `args.seconds`. With `args.trace`, traced and
/// untraced rounds alternate: telemetry on every unit and the schedule
/// trace of the SEQ unit in the traced ones.
pub fn drive(args: &Args, units: &mut impl Units) -> Drive {
    let period = SoundCardSim::paper_default().deadline_ns();
    let rounds = rounds(args);
    let orders = round_orders(args.seed, rounds);

    let mut series: Vec<[Series; 2]> = vec![Default::default(); 6];
    let mut cards: Vec<SoundCardSim> = (0..6).map(|_| SoundCardSim::paper_default()).collect();
    let mut sums = [CHECKSUM_SEED; 6];
    let mut lateness = Lateness::default();
    let mut phases = Phases::default();
    let mut graph_us: Vec<Vec<f64>> = vec![Vec::new(); 6];
    let mut exec = [ExecTally::default(); 6];
    let mut dsp = DspTally::default();
    let mut out = AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES);

    let steal = StealProbe::start();
    let clock = Clock::start();
    let mut pacer = Pacer::new(period);
    for (r, order) in orders.iter().enumerate() {
        let traced = args.trace && r % 2 == 1;
        for &i in order {
            if traced {
                let e = units.engine(i);
                e.set_telemetry(true);
                e.executor_mut().set_tracing(i == 0);
            }
            let s = &mut series[i][traced as usize];
            for k in r * BLOCK..(r + 1) * BLOCK {
                let x0 = pacer.xruns();
                let (_, due) = pacer.claim(clock.now_ns());
                s.xruns += pacer.xruns() - x0;
                let start = clock.wait_until(due);
                let t = units.cycle(i, k, &mut out);
                let done = clock.now_ns();
                cards[i].submit(&out, done - due);
                s.serve(&pacer, due, start, done);
                sums[i] = fold_checksum(sums[i], &out);
                if traced {
                    phases.add(&t);
                    graph_us[i].push(us(t.graph));
                    let x = units.engine(i).executor_mut();
                    if let Some(trace) = x.take_trace() {
                        dsp.add(x.topology(), &trace);
                    }
                } else {
                    lateness.record(due, start);
                }
                units.after(i, k);
            }
            if traced {
                let e = units.engine(i);
                if let Some(ring) = e.take_telemetry() {
                    exec[i].add(&ring);
                }
                e.set_telemetry(false);
                e.executor_mut().set_tracing(false);
            }
        }
    }
    Drive {
        series,
        sums,
        per_unit: rounds * BLOCK,
        slots: pacer.slots(),
        rejected: cards.iter().map(|c| c.rejected()).sum(),
        steal_pct: steal.steal_pct(),
        lateness,
        phases,
        graph_us,
        exec,
        dsp,
    }
}

impl Drive {
    /// Units whose checksum differs from the replay's.
    pub fn mismatches(&self, workload: &str, want: &Result<u64, String>) -> u64 {
        (0..6)
            .map(|i| mismatch(&format!("{workload} {}", PRESETS[i]), self.sums[i], want))
            .sum()
    }

    /// APC wall times at quantile `q` of unit `i`'s untraced packets.
    pub fn apc_ms(&self, i: usize, q: f64) -> f64 {
        self.series[i][0].apc_ms(q)
    }

    /// Record the end-to-end metrics (untraced run) or the per-layer
    /// metrics (traced run) every workload shares. The soundcard tails,
    /// steal and pacer lateness come from the untraced packets; they are
    /// per-layer metrics in a traced run and context otherwise.
    pub fn put(&self, o: &mut Outcome, setup: &Setup, trace: bool) {
        for (i, p) in PRESETS.iter().enumerate() {
            o.e2e
                .put(format!("apc_p25_ms.{p}"), self.apc_ms(i, 0.25), "ms");
        }
        o.e2e.put("setup_s", setup.median_total(), "s");
        let m = if trace { &mut o.layer } else { &mut o.context };
        for (s, p) in self.series.iter().zip(PRESETS) {
            s[0].put_tails(m, p);
        }
        m.put("host.steal_pct", self.steal_pct, "%");
        self.lateness.put(m);
        if trace {
            self.put_layers(&mut o.layer);
            setup.put(&mut o.layer);
        }
    }

    fn put_layers(&self, m: &mut Metrics) {
        self.phases.put(m);
        let graph_p50: Vec<f64> = self.graph_us.iter().map(|v| median(v)).collect();
        for (p, g) in PRESETS.iter().zip(&graph_p50) {
            m.put(format!("apc.graph_us.p50.{p}"), *g, "us");
        }
        for i in 1..6 {
            let p = PRESETS[i];
            let lanes = lanes(STRATEGIES[i]) as u64;
            let x = &self.exec[i];
            m.put(format!("exec.wait_us.{p}"), x.wait_us(), "us");
            m.put(format!("exec.idle_us.{p}"), x.idle_us(lanes), "us");
            m.put(format!("exec.busy_share.{p}"), x.busy_share(lanes), "ratio");
        }
        for (i, p) in [(1, "busy"), (4, "hybrid"), (5, "plan")] {
            m.put(
                format!("exec.spin_iters.{p}"),
                self.exec[i].spin_iters(),
                "count",
            );
        }
        for (i, p) in [(2, "sleep"), (4, "hybrid")] {
            m.put(
                format!("exec.parks_per_cycle.{p}"),
                self.exec[i].parks_per_cycle(),
                "count",
            );
        }
        m.put(
            "exec.steal_hit_ratio.ws",
            self.exec[3].steal_hit_ratio(),
            "ratio",
        );
        self.dsp.put(m);
        // How far each preset's graph time sits above the 2-lane list
        // schedule of the traced SEQ node durations.
        let bound_us = self.dsp.bound_us();
        m.put("sim.bound_us", bound_us, "us");
        for (p, g) in PRESETS.iter().zip(&graph_p50) {
            m.put(format!("sim.gap.{p}"), g / bound_us, "ratio");
        }
        m.put("trace.overhead_pct", self.overhead_pct(), "%");
    }

    /// Median APC time of traced rounds over untraced rounds, minus one (%).
    fn overhead_pct(&self) -> f64 {
        let pooled = |t: usize| {
            let all: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| s[t].apc_ms.iter().copied())
                .collect();
            median(&all)
        };
        (pooled(1) / pooled(0) - 1.0) * 100.0
    }
}
