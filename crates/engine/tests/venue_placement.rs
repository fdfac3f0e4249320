//! Sequential venue sessions on pool lanes. A 1-lane session is placed on
//! the pool lane with the least work already staged for the batch, so on a
//! 2-lane pool two sequential sessions run side by side — one on the
//! driver, one on the pool worker — instead of back to back on the driver.
//! This battery holds the placed path to a solo sequential engine bit for
//! bit, every packet, with the telemetry ring and the flight recorder
//! armed and under a fault storm, and checks that a session's graph time
//! ends at its own completion rather than when the driver collects it.

use djstar_core::exec::Strategy;
use djstar_core::flight::FlightConfig;
use djstar_engine::apc::{AudioEngine, AuxWork};
use djstar_engine::venue::{SessionSpec, VenueServer};
use djstar_workload::faults::FaultSpec;
use djstar_workload::scenario::Scenario;
use djstar_workload::NetSpec;
use std::time::Duration;

const CYCLES: usize = 60;

fn spec(strategy: Strategy, threads: usize, lossy: Option<u64>) -> SessionSpec {
    let mut scenario = Scenario::light_test();
    if let Some(seed) = lossy {
        scenario.net = NetSpec::lossy(seed);
    }
    SessionSpec {
        scenario,
        strategy,
        threads,
        aux: AuxWork::light(),
    }
}

/// Serve `specs` from one `lanes`-lane venue for [`CYCLES`] cycles in
/// lockstep with a solo sequential engine per session, and require every
/// packet of every session to match its reference. Every session records
/// telemetry and a flight window, which must come back tagged with the
/// session's id; `storm` arms a fault storm on every session.
fn lockstep(lanes: usize, specs: &[SessionSpec], storm: bool) {
    let mut venue = VenueServer::new(lanes, Duration::from_secs(1), 0.0);
    let ids: Vec<u32> = specs
        .iter()
        .map(|s| venue.admit_bounded(s.clone(), 1).expect("admit"))
        .collect();
    let mut refs: Vec<AudioEngine> = specs
        .iter()
        .map(|s| AudioEngine::with_aux(s.scenario.clone(), Strategy::Sequential, 1, s.aux))
        .collect();
    for (k, &id) in ids.iter().enumerate() {
        let e = venue.engine_mut(id).unwrap();
        e.set_telemetry(true);
        e.set_flight_recorder(Some(FlightConfig::default()));
        if storm {
            let spec = FaultSpec::storm(0x5EED + k as u64).with_iters(40_000, 20_000, 60_000);
            e.set_faults(Some(&spec));
        }
    }
    for cycle in 0..CYCLES {
        venue.run_cycle();
        for (&id, reference) in ids.iter().zip(refs.iter_mut()) {
            reference.run_apc();
            let want = reference.output();
            let got = venue.engine_mut(id).unwrap().output();
            assert_eq!(
                got.samples(),
                want.samples(),
                "session {id} diverged at cycle {cycle}"
            );
        }
    }
    for (&id, reference) in ids.iter().zip(refs.iter_mut()) {
        let nodes = reference.executor_mut().topology().len() as u64;
        let e = venue.engine_mut(id).unwrap();
        assert_eq!(e.net_stats(), reference.net_stats(), "session {id} packets");
        let ring = e.take_telemetry().expect("telemetry armed");
        assert_eq!(ring.session(), id, "ring keeps the session tag");
        assert_eq!(ring.len(), CYCLES, "session {id}: one record per cycle");
        for rec in ring.iter() {
            assert_eq!(rec.totals().nodes_executed, nodes, "session {id}");
        }
        let window = e.take_flight_window().expect("recorder armed");
        assert_eq!(window.session, id, "window keeps the session tag");
        assert_eq!(
            window.cycles.len(),
            CYCLES,
            "session {id}: one stamp per cycle"
        );
        assert!(!window.spans.is_empty(), "session {id} recorded no spans");
        for c in &window.cycles {
            assert!(c.end_ns >= c.start_ns, "session {id}: stamp runs backwards");
        }
    }
}

#[test]
fn two_sequential_sessions_split_over_two_lanes_stay_bit_exact() {
    // A stages first and takes lane 0 (the driver); B goes to lane 1.
    lockstep(
        2,
        &[
            spec(Strategy::Sequential, 1, None),
            spec(Strategy::Sequential, 1, Some(0x1055)),
        ],
        false,
    );
}

#[test]
fn placed_sequential_sessions_stay_bit_exact_under_a_fault_storm() {
    lockstep(
        2,
        &[
            spec(Strategy::Sequential, 1, Some(0xA)),
            spec(Strategy::Sequential, 1, Some(0xB)),
        ],
        true,
    );
}

#[test]
fn sequential_sessions_beside_a_two_lane_session_stay_bit_exact() {
    // On three lanes the 2-lane BUSY session holds lanes 0-1, so the first
    // sequential session lands on lane 2 and the second ties to lane 0.
    lockstep(
        3,
        &[
            spec(Strategy::Busy, 2, None),
            spec(Strategy::Sequential, 1, None),
            spec(Strategy::Sequential, 1, Some(0xC)),
        ],
        true,
    );
}

#[test]
fn graph_time_ends_at_the_sessions_own_completion() {
    // The driver finishes each session only after a deliberate delay; the
    // reported graph time must not grow by it.
    const DELAY: Duration = Duration::from_millis(200);
    let mut venue = VenueServer::new(2, Duration::from_secs(1), 0.0);
    let ids: Vec<u32> = [
        spec(Strategy::Sequential, 1, None),
        spec(Strategy::Sequential, 1, None),
        spec(Strategy::Busy, 2, None),
        spec(Strategy::Steal, 2, None),
    ]
    .into_iter()
    .map(|s| venue.admit_bounded(s, 1).expect("admit"))
    .collect();
    venue.run_cycles(3);
    let pool = venue.pool().clone();
    for _ in 0..3 {
        let preps: Vec<_> = ids
            .iter()
            .map(|&id| venue.engine_mut(id).unwrap().venue_prepare())
            .collect();
        assert!(
            preps.iter().all(|p| p.epoch.is_some()),
            "every session stages"
        );
        pool.dispatch();
        pool.run_driver_parts();
        std::thread::sleep(DELAY);
        for (&id, prep) in ids.iter().zip(preps) {
            let t = venue.engine_mut(id).unwrap().venue_finish(prep);
            assert!(
                t.graph < DELAY,
                "session {id}: graph time {:?} absorbed the delay",
                t.graph
            );
        }
    }
}
