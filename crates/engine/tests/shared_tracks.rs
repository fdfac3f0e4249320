//! Proof that engines, PLAN's compile probe and venue admission probes
//! synthesize each distinct track once and share its samples.
//!
//! A counting `#[global_allocator]` counts allocations of exactly one
//! track's sample buffer. The tests use a track length no other buffer in
//! the engine has, so that count is the number of syntheses. Own
//! integration binary because a global allocator is process-wide; the
//! tests take `SERIAL` so they never count concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Track length of every scenario here, and its sample buffer in bytes.
const TRACK_SECS: f32 = 1.5;
const TRACK_BYTES: usize = (TRACK_SECS * 44_100.0) as usize * std::mem::size_of::<f32>();

struct CountingAlloc;

static SYNTHESES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == TRACK_BYTES && layout.align() == std::mem::align_of::<f32>() {
            SYNTHESES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use djstar_core::exec::{Strategy, VenuePool};
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::venue::{SessionSpec, VenueServer};
use djstar_workload::scenario::Scenario;

/// Serializes the tests of this binary (one synthesis counter).
static SERIAL: Mutex<()> = Mutex::new(());

/// The light test scenario on tracks no other test plays, and the number
/// of distinct tracks it loads (one per active deck).
fn scenario(seed_offset: u64) -> (Scenario, u64) {
    let mut s = Scenario::light_test();
    s.track_secs = TRACK_SECS;
    for d in &mut s.decks {
        d.track_seed += seed_offset;
    }
    let tracks = s.decks.iter().filter(|d| d.active).count() as u64;
    (s, tracks)
}

/// Syntheses while `f` runs.
fn syntheses<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = SYNTHESES.load(Ordering::SeqCst);
    let out = f();
    (out, SYNTHESES.load(Ordering::SeqCst) - before)
}

#[test]
fn six_presets_on_one_pool_synthesize_each_track_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (scenario, tracks) = scenario(0x1000);
    let pool = Arc::new(VenuePool::new(2));
    let build = || {
        Strategy::ALL
            .iter()
            .map(|&s| {
                let lanes = if s == Strategy::Sequential { 1 } else { 2 };
                AudioEngine::on_pool(scenario.clone(), s, lanes, AuxWork::light(), &pool)
            })
            .collect::<Vec<_>>()
    };
    let (mut engines, n) = syntheses(build);
    assert_eq!(engines.len(), 6);
    assert_eq!(n, tracks, "six engines of one scenario share one synthesis");
    for e in &mut engines {
        e.warmup(2);
    }
    // Every engine dropped: the next rig pays for synthesis again.
    drop(engines);
    let (_engines, n) = syntheses(build);
    assert_eq!(n, tracks, "a fresh rig synthesizes afresh");
}

#[test]
fn plan_compile_probe_shares_the_engines_tracks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (scenario, tracks) = scenario(0x2000);
    let (mut engine, n) =
        syntheses(|| AudioEngine::with_aux(scenario, Strategy::Planned, 2, AuxWork::light()));
    assert_eq!(n, tracks, "the compile probe reuses the engine's tracks");
    engine.warmup(2);
}

#[test]
fn venue_admission_probe_shares_the_sessions_tracks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (scenario, tracks) = scenario(0x3000);
    let mut server = VenueServer::new(2, Duration::from_secs(1), 0.1);
    let spec = SessionSpec {
        scenario,
        strategy: Strategy::Planned,
        threads: 2,
        aux: AuxWork::light(),
    };
    let (admitted, n) = syntheses(|| server.admit(spec));
    admitted.expect("a 1 s deadline admits one light session");
    assert_eq!(n, tracks, "probe, PLAN compile probe and session share");
    server.run_cycles(2);
}
