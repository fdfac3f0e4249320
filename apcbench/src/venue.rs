//! `venue`: one `VenueServer` on a 2-lane pool, serving two sessions per
//! period.
//!
//! * Session A (one per unit): `Scenario::paper_default()` on the unit's
//!   preset (SEQ on 1 lane, the others on 2).
//! * Session B (shared by every unit): `Scenario::two_deck_mix()` with
//!   `NetSpec::lossy(seed)` (remote decks A/B, 4 broadcast listeners) on
//!   SEQ, 1 lane — its graph runs inline on the driver while the pool
//!   worker crunches A.
//!
//! All seven use `AuxWork::light()` and are admitted with `admit_bounded`
//! at a zero bound, so no admission verdict changes which sessions run;
//! the PLAN A and B candidates are probed (`probe_session_bound`) during
//! set-up and the probe is only reported (`venue.bound_over_measured`).
//! A slot is the server's batch protocol over {A of the unit, B}:
//! `venue_prepare` both, `VenuePool::dispatch`, `run_driver_parts`,
//! `venue_finish` both.
//!
//! Correctness: untimed stand-alone sequential replays of A (the unit's
//! packet count) and B (every packet) must fold to the sessions'
//! checksums.

use crate::drive::{drive, lanes, mismatch, replay, Units, STRATEGIES};
use crate::pacer::median;
use crate::tally::us;
use crate::{repeated_setup, Args, Outcome, WARMUP};
use djstar_bench::{fold_checksum, CHECKSUM_SEED};
use djstar_core::exec::Strategy;
use djstar_dsp::buffer::AudioBuf;
use djstar_engine::{ApcTiming, AudioEngine, AuxWork, SessionSpec, SoundCardSim, VenueServer};
use djstar_workload::netspec::NetSpec;
use djstar_workload::scenario::Scenario;
use std::time::{Duration, Instant};

/// Admission safety margin of the server (reported bound only).
const MARGIN: f64 = 0.1;

fn spec_a(strategy: Strategy) -> SessionSpec {
    SessionSpec {
        scenario: Scenario::paper_default(),
        strategy,
        threads: lanes(strategy),
        aux: AuxWork::light(),
    }
}

fn spec_b(seed: u64) -> SessionSpec {
    let mut scenario = Scenario::two_deck_mix();
    scenario.net = NetSpec::lossy(seed);
    SessionSpec {
        scenario,
        strategy: Strategy::Sequential,
        threads: 1,
        aux: AuxWork::light(),
    }
}

struct Rig {
    server: VenueServer,
    /// Session A of every unit.
    a: [u32; 6],
    b: u32,
    b_out: AudioBuf,
    b_card: SoundCardSim,
    b_sum: u64,
    /// `venue_prepare`, dispatch + driver parts, `venue_finish` (µs).
    spans: [Vec<f64>; 3],
    /// Mean jitter-buffer depth of B's remote decks, per packet.
    depth: Vec<f64>,
    /// Probed bounds of PLAN A plus B (ns).
    bound_ns: u64,
    probe_ms: f64,
}

impl Units for Rig {
    fn engine(&mut self, i: usize) -> &mut AudioEngine {
        self.server.engine_mut(self.a[i]).expect("session a")
    }

    fn cycle(&mut self, i: usize, _k: usize, out: &mut AudioBuf) -> ApcTiming {
        let (a, b) = (self.a[i], self.b);
        let pool = self.server.pool().clone();
        let t0 = Instant::now();
        let prep_a = self.engine(i).venue_prepare();
        let prep_b = self.server.engine_mut(b).expect("b").venue_prepare();
        let t1 = Instant::now();
        pool.dispatch();
        pool.run_driver_parts();
        let t2 = Instant::now();
        let ta = self.engine(i).venue_finish(prep_a);
        let eb = self.server.engine_mut(b).expect("b");
        eb.venue_finish(prep_b);
        let t3 = Instant::now();

        let audio_out = eb.node_map().audio_out;
        eb.executor_mut().read_output(audio_out, &mut self.b_out);
        let d = eb.net_depths();
        self.depth.push(f64::from(d[0] + d[1]) / 2.0);
        let ea = self.server.engine_mut(a).expect("a");
        let audio_out = ea.node_map().audio_out;
        ea.executor_mut().read_output(audio_out, out);

        self.b_card.submit(&self.b_out, (t3 - t0).as_nanos() as u64);
        self.b_sum = fold_checksum(self.b_sum, &self.b_out);
        for (v, d) in self.spans.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2]) {
            v.push(us(d));
        }
        ta
    }
}

fn build(seed: u64) -> (Rig, f64, f64) {
    let t0 = Instant::now();
    let period = SoundCardSim::paper_default().deadline_ns();
    let mut server = VenueServer::new(2, Duration::from_nanos(period), MARGIN);
    let tp = Instant::now();
    let bound_ns = VenueServer::probe_session_bound(&spec_a(Strategy::Planned))
        + VenueServer::probe_session_bound(&spec_b(seed));
    let probe_ms = tp.elapsed().as_secs_f64() * 1e3;
    // The set is fixed: admit with a zero bound so the admission verdict
    // can never change which sessions run.
    let mut admit = |spec| {
        server
            .admit_bounded(spec, 0)
            .expect("a zero bound is always admissible")
    };
    let a = STRATEGIES.map(|s| admit(spec_a(s)));
    let b = admit(spec_b(seed));
    let engine_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    server.run_cycles(WARMUP);
    let warmup_s = t1.elapsed().as_secs_f64();
    let rig = Rig {
        server,
        a,
        b,
        b_out: AudioBuf::zeroed(2, djstar_dsp::BUFFER_FRAMES),
        b_card: SoundCardSim::paper_default(),
        b_sum: CHECKSUM_SEED,
        spans: Default::default(),
        depth: Vec::new(),
        bound_ns,
        probe_ms,
    };
    (rig, engine_s, warmup_s)
}

pub fn run(args: &Args) -> Outcome {
    let (mut rig, setup) = repeated_setup(|| build(args.seed));
    let d = drive(args, &mut rig);
    let eb = rig.server.engine_mut(rig.b).expect("b");
    let net = eb.net_stats();
    let remote_frames = (eb.cycles_run() * 2).max(1) as f64;
    let Rig {
        b_card,
        b_sum,
        spans,
        depth,
        bound_ns,
        probe_ms,
        server,
        ..
    } = rig;
    // Stop the pool worker first, so the two replays are the only two
    // threads running.
    drop(server);
    let (want_a, want_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| replay(spec_a(Strategy::Sequential).scenario, d.per_unit, &[]));
        let b = scope.spawn(|| replay(spec_b(args.seed).scenario, d.per_unit * 6, &[]));
        (a.join().expect("replay A"), b.join().expect("replay B"))
    });
    let mismatched = d.mismatches("venue A", &want_a) + mismatch("venue B", b_sum, &want_b);

    let rejected = d.rejected + b_card.rejected();
    let mut o = Outcome::new(d.slots, rejected + mismatched);
    d.put(&mut o, &setup, args.trace);
    let m = &mut o.context;
    m.put("venue.prepare_us", median(&spans[0]), "us");
    m.put("venue.pool_us", median(&spans[1]), "us");
    m.put("venue.finish_us", median(&spans[2]), "us");
    // Σ probed bound of PLAN A and B over the measured p99 of PLAN's
    // untraced slots.
    let p99_ns = d.apc_ms(5, 0.99) * 1e6;
    m.put(
        "venue.bound_over_measured",
        bound_ns as f64 / p99_ns,
        "ratio",
    );
    m.put(
        "net.concealed_per_10k",
        net.concealed as f64 * 1e4 / remote_frames,
        "count",
    );
    m.put(
        "net.lost_per_10k",
        net.lost as f64 * 1e4 / remote_frames,
        "count",
    );
    m.put("net.depth_p50", median(&depth), "count");
    m.put("setup.admission_probe_ms", probe_ms, "ms");
    o
}
