//! Paced, fixed-workload APC benchmark for the DJ Star engine.
//!
//! ```text
//! apcbench --workload <live-set|mode-walk|venue> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives one seeded workload through the engine's public API, paced to
//! the sound-card period (128 frames @ 44.1 kHz), checks the audio, and
//! prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Every workload reports
//! the same metrics: `--trace 0` the end-to-end ones, `--trace 1` (a
//! separate traced run) the per-layer ones. A `context` line before it
//! holds what is not declared in `BENCHMARK.json`: the non-gating tails
//! of an untraced run and the figures of the layers only one workload
//! drives. See `README.md` next to this crate for the workloads, the
//! metric map and the measured spread.

mod drive;
mod live_set;
mod mode_walk;
mod pacer;
mod report;
mod tally;
mod venue;

use report::{end_to_end, per_layer, result_line, Metrics, WORKLOADS};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

/// Unpaced cycles every engine runs before the first timed cycle.
pub const WARMUP: usize = 64;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 4;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run hands back to the printer.
#[derive(Debug)]
pub struct Outcome {
    /// Due slots plus switches.
    pub attempted: u64,
    /// Rejected packets, checksum mismatches and stage/commit errors.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Undeclared figures, printed on their own line: the tails, steal
    /// and pacer lateness of an untraced run, and the workload's own
    /// layers (modes, venue, net).
    pub context: Metrics,
    /// Per-layer metrics (traced run).
    pub layer: Metrics,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            e2e: Metrics::default(),
            context: Metrics::default(),
            layer: Metrics::default(),
        }
    }
}

/// Set-up durations of every repetition (s).
#[derive(Debug, Default, Clone)]
pub struct Setup {
    total: Vec<f64>,
    engine: Vec<f64>,
    warmup: Vec<f64>,
}

impl Setup {
    /// Median complete set-up time.
    pub fn median_total(&self) -> f64 {
        pacer::median(&self.total)
    }

    /// Record `setup.engine_s`, `setup.warmup_s` and
    /// `setup.plan_compile_ms` (one stand-alone PLAN compile of the
    /// paper set on 2 lanes, timed outside `setup_s`).
    pub fn put(&self, m: &mut Metrics) {
        m.put("setup.engine_s", pacer::median(&self.engine), "s");
        m.put("setup.warmup_s", pacer::median(&self.warmup), "s");
        let t = Instant::now();
        let bp = djstar_engine::AudioEngine::compile_plan(
            &djstar_workload::scenario::Scenario::paper_default(),
            2,
        );
        std::hint::black_box(bp);
        m.put(
            "setup.plan_compile_ms",
            t.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
    }
}

/// Build a workload's rig [`SETUP_REPS`] times, keeping the last. The
/// first repetition is timed from process start. `build` returns the rig
/// with its engine-build and warm-up durations (s).
pub fn repeated_setup<T>(mut build: impl FnMut() -> (T, f64, f64)) -> (T, Setup) {
    let mut setup = Setup::default();
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            *PROCESS_START.get().expect("set in main")
        } else {
            Instant::now()
        };
        // Drop the previous rig first so repetitions never overlap.
        drop(rig.take());
        let (r, engine, warmup) = build();
        setup.total.push(t0.elapsed().as_secs_f64());
        setup.engine.push(engine);
        setup.warmup.push(warmup);
        rig = Some(r);
    }
    (rig.expect("at least one repetition"), setup)
}

/// Packets a run of `seconds` serves at the sound-card period.
pub fn packets(seconds: u64) -> u64 {
    let period = djstar_engine::SoundCardSim::paper_default().deadline_ns();
    seconds * 1_000_000_000 / period
}

fn main() -> ExitCode {
    PROCESS_START.get_or_init(Instant::now);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("apcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = match args.workload.as_str() {
        "live-set" => live_set::run(&args),
        "mode-walk" => mode_walk::run(&args),
        "venue" => venue::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    println!("{{\"context\": {}}}", o.context.to_json());
    let (metrics, declared) = if args.trace {
        (o.layer, per_layer())
    } else {
        (o.e2e, end_to_end())
    };
    if let Err(e) = metrics.check_against(&declared) {
        eprintln!("apcbench: {e}");
        return ExitCode::from(3);
    }
    println!(
        "{}",
        result_line(o.failed == 0, o.attempted, o.failed, &metrics)
    );
    ExitCode::SUCCESS
}
