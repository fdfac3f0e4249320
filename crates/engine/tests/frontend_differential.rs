//! Deck-parallel front end vs the serial one: every pooled preset, at 2 and
//! 4 lanes, solo and on a shared pool, must render **bit-exactly** what a
//! 1-lane SEQ engine renders — every cycle, while controller nudges and
//! deck unload/reload edits hit both.
//!
//! With more than one lane, `run_apc` runs each deck's timecode processing
//! and graph preprocessing on lane `d % lanes` of the executor's pool; SEQ
//! runs the same per-deck code inline. Paper-scale aux work makes the
//! forked phases long enough that the lanes genuinely overlap. The
//! engine-private front-end state (decoded speeds, the aux sink) is held
//! to the same bar by a unit test in `apc.rs`.

use djstar_core::exec::{Strategy, VenuePool};
use djstar_dsp::AudioBuf;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::events::{ControlEvent, EventQueue};
use djstar_workload::scenario::Scenario;
use std::sync::Arc;

const CYCLES: u64 = 48;

const POOLED: [Strategy; 5] = [
    Strategy::Busy,
    Strategy::Sleep,
    Strategy::Steal,
    Strategy::Hybrid,
    Strategy::Planned,
];

fn fold_checksum(buf: &AudioBuf) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &s in buf.samples() {
        acc = (acc ^ s.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}

/// The control script for `cycle`: periodic platter nudges on rotating
/// decks, deck 2 unloaded then reloaded, deck 3 unloaded for good.
fn events_at(cycle: u64) -> Vec<ControlEvent> {
    let mut evs = Vec::new();
    if cycle % 6 == 1 {
        evs.push(ControlEvent::Nudge(cycle as usize % 4, 0.25));
    }
    match cycle {
        12 => evs.push(ControlEvent::DeckLoadState(2, false)),
        24 => evs.push(ControlEvent::DeckLoadState(2, true)),
        36 => evs.push(ControlEvent::DeckLoadState(3, false)),
        _ => {}
    }
    evs
}

/// Apply `cycle`'s script, commit any topology edit it requested, run one
/// APC and return the output checksum.
fn step(engine: &mut AudioEngine, cycle: u64) -> u64 {
    let mut q = EventQueue::standard();
    for ev in events_at(cycle) {
        q.push(cycle, ev);
    }
    engine.apply_events(&mut q);
    let edits = engine.take_pending_edits();
    if !edits.is_empty() {
        engine.reconfigure(&edits).expect("deck edit commits");
    }
    engine.run_apc();
    fold_checksum(&engine.output())
}

fn reference_checksums() -> Vec<u64> {
    let mut seq = AudioEngine::with_aux(
        Scenario::light_test(),
        Strategy::Sequential,
        1,
        AuxWork::paper_scale(),
    );
    (0..CYCLES).map(|c| step(&mut seq, c)).collect()
}

fn assert_matches(engine: &mut AudioEngine, want: &[u64], label: &str) {
    for (c, &w) in want.iter().enumerate() {
        let got = step(engine, c as u64);
        assert_eq!(got, w, "{label} diverged from 1-lane SEQ at cycle {c}");
    }
}

#[test]
fn solo_engines_match_serial_front_end_bit_for_bit() {
    let want = reference_checksums();
    for threads in [2, 4] {
        for strategy in POOLED {
            let mut e = AudioEngine::with_aux(
                Scenario::light_test(),
                strategy,
                threads,
                AuxWork::paper_scale(),
            );
            assert_matches(&mut e, &want, &format!("solo {strategy:?}@{threads}"));
        }
    }
}

#[test]
fn pool_engines_match_serial_front_end_bit_for_bit() {
    let want = reference_checksums();
    // A 4-lane pool serves both lane counts, so the 2-lane engines also
    // cover forks whose extra pool lanes have no decks.
    let pool = Arc::new(VenuePool::new(4));
    for threads in [2, 4] {
        for strategy in POOLED {
            let mut e = AudioEngine::on_pool(
                Scenario::light_test(),
                strategy,
                threads,
                AuxWork::paper_scale(),
                &pool,
            );
            assert_matches(&mut e, &want, &format!("on_pool {strategy:?}@{threads}"));
        }
    }
}
