//! `mode-walk`: writes beside reads.
//!
//! The `live-set` units under a mode walk: a deck load/unload or FX edit
//! arrives every `SWITCH_PERIOD` packets of each unit, the same script for
//! all six. The script is a chain of excursions from the home shape (the
//! paper set): a seeded `shape_walk` of `EXCURSION` switches out, then
//! the same edits undone in reverse order back home. Each engine runs as
//! E19 ships it: blueprint cache armed, the one-edit neighbourhood
//! precompiled at set-up and after every commit. The switch (`stage_edits` + `commit`)
//! lands inside the slot it arrives in; the precompile runs after that
//! slot's packet is handed over and is timed as its own span, outside APC
//! time.
//!
//! Correctness: an untimed sequential replay of the same packet count and
//! switch script, applied with `reconfigure` (no cache), must fold to
//! every unit's checksum.

use crate::drive::{drive, lanes, replay, unit_packets, Units, STRATEGIES};
use crate::pacer::median;
use crate::tally::us;
use crate::{repeated_setup, Args, Outcome, WARMUP};
use djstar_core::exec::VenuePool;
use djstar_dsp::buffer::AudioBuf;
use djstar_dsp::rng::SmallRng;
use djstar_engine::{ApcTiming, AudioEngine, AuxWork, GraphEdit};
use djstar_workload::scenario::Scenario;
use djstar_workload::switches::{shape_walk, SwitchAction};
use std::sync::Arc;
use std::time::Instant;

/// Packets of a unit between its switches.
pub const SWITCH_PERIOD: usize = 25;

/// Switches of one excursion away from the home shape. Returning home
/// after a few switches keeps the mix of live shapes, and so the cycle
/// cost of a run, the same from seed to seed: one long walk drifts, and
/// the shapes it happened to visit set a run's APC times (their lower
/// quartile spread 0.15 over ten seeds).
pub const EXCURSION: usize = 3;

/// Blueprint-cache capacity (as E19 runs it).
pub const CACHE_CAPACITY: usize = 32;

fn to_edit(a: SwitchAction) -> GraphEdit {
    match a {
        SwitchAction::LoadDeck(d) => GraphEdit::LoadDeck(d),
        SwitchAction::UnloadDeck(d) => GraphEdit::UnloadDeck(d),
        SwitchAction::InsertFxSlot(d) => GraphEdit::InsertFxSlot(d),
        SwitchAction::RemoveFxSlot(d) => GraphEdit::RemoveFxSlot(d),
    }
}

/// The action that undoes `a`.
fn inverse(a: SwitchAction) -> SwitchAction {
    match a {
        SwitchAction::LoadDeck(d) => SwitchAction::UnloadDeck(d),
        SwitchAction::UnloadDeck(d) => SwitchAction::LoadDeck(d),
        SwitchAction::InsertFxSlot(d) => SwitchAction::RemoveFxSlot(d),
        SwitchAction::RemoveFxSlot(d) => SwitchAction::InsertFxSlot(d),
    }
}

/// The switch of every unit packet (`None` for most): excursions out
/// and back, one switch every `SWITCH_PERIOD` packets from packet
/// `SWITCH_PERIOD` on.
fn switch_script(seed: u64, packets: usize) -> Vec<Option<GraphEdit>> {
    let switches = packets.saturating_sub(1) / SWITCH_PERIOD;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order = Vec::with_capacity(switches + 2 * EXCURSION);
    while order.len() < switches {
        let out = shape_walk(EXCURSION, 1, rng.next_u64());
        let out = out.events().iter().map(|ev| ev.action);
        order.extend(out.clone().map(to_edit));
        order.extend(out.rev().map(|a| to_edit(inverse(a))));
    }
    let mut v = vec![None; packets];
    for (j, e) in order.into_iter().take(switches).enumerate() {
        v[(j + 1) * SWITCH_PERIOD] = Some(e);
    }
    v
}

struct Rig {
    _pool: Arc<VenuePool>,
    engines: Vec<AudioEngine>,
    edits: Vec<Option<GraphEdit>>,
    /// Did unit `i`'s current packet commit a switch?
    switched: [bool; 6],
    switches: u64,
    failed: u64,
    stage_us: Vec<f64>,
    commit_us: Vec<f64>,
    precompile_ms: Vec<f64>,
}

impl Units for Rig {
    fn engine(&mut self, i: usize) -> &mut AudioEngine {
        &mut self.engines[i]
    }

    fn cycle(&mut self, i: usize, k: usize, out: &mut AudioBuf) -> ApcTiming {
        let e = &mut self.engines[i];
        if let Some(edit) = self.edits[k] {
            self.switches += 1;
            let t0 = Instant::now();
            let staged = e.stage_edits(&[edit]);
            let t1 = Instant::now();
            let ok = match staged {
                Ok(st) => e.commit(st).is_ok(),
                Err(err) => {
                    eprintln!("mode-walk: unit {i} stage at packet {k}: {err}");
                    false
                }
            };
            if ok {
                self.stage_us.push(us(t1 - t0));
                self.commit_us.push(us(t1.elapsed()));
                self.switched[i] = true;
            } else {
                self.failed += 1;
            }
        }
        let t = e.run_apc();
        let audio_out = e.node_map().audio_out;
        e.executor_mut().read_output(audio_out, out);
        t
    }

    fn after(&mut self, i: usize, _k: usize) {
        if std::mem::take(&mut self.switched[i]) {
            let t0 = Instant::now();
            self.engines[i].precompile_neighborhood();
            self.precompile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

fn build(edits: &[Option<GraphEdit>]) -> (Rig, f64, f64) {
    let t0 = Instant::now();
    let pool = Arc::new(VenuePool::new(2));
    let mut engines: Vec<AudioEngine> = STRATEGIES
        .iter()
        .map(|&s| {
            let mut e = AudioEngine::on_pool(
                Scenario::paper_default(),
                s,
                lanes(s),
                AuxWork::paper_scale(),
                &pool,
            );
            e.enable_mode_cache(CACHE_CAPACITY);
            e.precompile_neighborhood();
            e
        })
        .collect();
    let engine_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for e in &mut engines {
        e.warmup(WARMUP);
    }
    let warmup_s = t1.elapsed().as_secs_f64();
    let rig = Rig {
        _pool: pool,
        engines,
        edits: edits.to_vec(),
        switched: [false; 6],
        switches: 0,
        failed: 0,
        stage_us: Vec::new(),
        commit_us: Vec::new(),
        precompile_ms: Vec::new(),
    };
    (rig, engine_s, warmup_s)
}

pub fn run(args: &Args) -> Outcome {
    let edits = switch_script(args.seed, unit_packets(args));
    let (mut rig, setup) = repeated_setup(|| build(&edits));
    let d = drive(args, &mut rig);
    let (hits, lookups) = rig.engines.iter().fold((0, 0), |(h, l), e| {
        let s = e.mode_cache().map(|c| c.stats()).unwrap_or_default();
        (h + s.hits, l + s.hits + s.misses)
    });
    let Rig {
        switches,
        failed,
        stage_us,
        commit_us,
        precompile_ms,
        ..
    } = rig;

    let want = replay(Scenario::paper_default(), edits.len(), &edits);
    let mismatched = d.mismatches("mode-walk", &want);
    let mut o = Outcome::new(d.slots + switches, failed + d.rejected + mismatched);
    d.put(&mut o, &setup, args.trace);
    let switch_us: Vec<f64> = stage_us
        .iter()
        .zip(&commit_us)
        .map(|(s, c)| s + c)
        .collect();
    let m = &mut o.context;
    m.put("switch_p50_us", median(&switch_us), "us");
    m.put("modes.stage_us.p50", median(&stage_us), "us");
    m.put("modes.commit_us.p50", median(&commit_us), "us");
    m.put(
        "modes.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put("modes.precompile_ms.p50", median(&precompile_ms), "ms");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_excursion_returns_home() {
        let script = switch_script(7, 5_000);
        let edits: Vec<GraphEdit> = script.iter().flatten().copied().collect();
        assert_eq!(edits.len(), 4_999 / SWITCH_PERIOD);
        for (k, e) in script.iter().enumerate() {
            assert_eq!(e.is_some(), k > 0 && k % SWITCH_PERIOD == 0, "packet {k}");
        }
        // Net deck and FX count per deck after each complete excursion.
        let mut net = [0i64; 8];
        for (j, &e) in edits.iter().enumerate() {
            match e {
                GraphEdit::LoadDeck(d) => net[d] += 1,
                GraphEdit::UnloadDeck(d) => net[d] -= 1,
                GraphEdit::InsertFxSlot(d) => net[4 + d] += 1,
                GraphEdit::RemoveFxSlot(d) => net[4 + d] -= 1,
                other => panic!("unexpected edit {other:?}"),
            }
            if (j + 1) % (2 * EXCURSION) == 0 {
                assert_eq!(net, [0; 8], "not home after switch {j}");
            }
        }
        assert_ne!(script, switch_script(8, 5_000), "the seed picks the walk");
    }
}
