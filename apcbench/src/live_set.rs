//! `live-set`: the paper's own evaluation, all six presets side by side.
//!
//! `Scenario::paper_default()` (4 decks, 67 nodes, `WorkProfile::
//! paper_scale()`, no calibration) with `AuxWork::paper_scale()`. One
//! engine per preset on one 2-lane `VenuePool`; each slot is one
//! `run_apc`. Every unit must fold to the checksum of an untimed
//! stand-alone SEQ replay.

use crate::drive::{drive, lanes, replay, Units, STRATEGIES};
use crate::{repeated_setup, Args, Outcome, WARMUP};
use djstar_core::exec::VenuePool;
use djstar_dsp::buffer::AudioBuf;
use djstar_engine::{ApcTiming, AudioEngine, AuxWork};
use djstar_workload::scenario::Scenario;
use std::sync::Arc;
use std::time::Instant;

struct Rig {
    /// Keeps the shared pool alive alongside its sessions.
    _pool: Arc<VenuePool>,
    engines: Vec<AudioEngine>,
}

impl Units for Rig {
    fn engine(&mut self, i: usize) -> &mut AudioEngine {
        &mut self.engines[i]
    }

    fn cycle(&mut self, i: usize, _k: usize, out: &mut AudioBuf) -> ApcTiming {
        let e = &mut self.engines[i];
        let t = e.run_apc();
        let audio_out = e.node_map().audio_out;
        e.executor_mut().read_output(audio_out, out);
        t
    }
}

fn build() -> (Rig, f64, f64) {
    let t0 = Instant::now();
    let scenario = Scenario::paper_default();
    let pool = Arc::new(VenuePool::new(2));
    let mut engines: Vec<AudioEngine> = STRATEGIES
        .iter()
        .map(|&s| {
            AudioEngine::on_pool(scenario.clone(), s, lanes(s), AuxWork::paper_scale(), &pool)
        })
        .collect();
    let engine_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for e in &mut engines {
        e.warmup(WARMUP);
    }
    let warmup_s = t1.elapsed().as_secs_f64();
    (
        Rig {
            _pool: pool,
            engines,
        },
        engine_s,
        warmup_s,
    )
}

pub fn run(args: &Args) -> Outcome {
    let (mut rig, setup) = repeated_setup(build);
    let d = drive(args, &mut rig);
    drop(rig);
    let want = replay(Scenario::paper_default(), d.per_unit, &[]);
    let mismatched = d.mismatches("live-set", &want);
    let mut o = Outcome::new(d.slots, d.rejected + mismatched);
    d.put(&mut o, &setup, args.trace);
    o
}
