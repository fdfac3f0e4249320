//! Synthetic club-track generation.
//!
//! Tracks are mono PCM at 44.1 kHz, assembled from a kick drum (exponentially
//! decaying sine), off-beat hats (filtered noise bursts), a sawtooth bass
//! line and a sine lead. The arrangement alternates every four bars between
//! *loud* (all layers) and *quiet* (bass + lead at reduced level) sections:
//! this is the engine of the bimodal node-cost distribution (Fig. 9),
//! because the effect nodes' data-dependent cost follows signal energy.

use djstar_dsp::rng::SmallRng;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// Stylistic presets for the synthesizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackStyle {
    /// Four-on-the-floor with heavy kick and bass.
    House,
    /// Sparser kick pattern, more noise/hats.
    Breakbeat,
    /// Sustained pads, little percussion (lowest energy variance).
    Ambient,
}

/// A mono PCM track.
///
/// The samples are immutable once synthesized, and cloning a track shares
/// them (an `Arc` bump, no copy): every deck, engine and probe that plays
/// the same track reads one buffer.
#[derive(Debug, Clone)]
pub struct Track {
    samples: Arc<[f32]>,
    sample_rate: u32,
    bpm: f32,
}

impl Track {
    /// The PCM samples.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Tempo in beats per minute.
    pub fn bpm(&self) -> f32 {
        self.bpm
    }

    /// Track length in seconds.
    pub fn duration_secs(&self) -> f32 {
        self.samples.len() as f32 / self.sample_rate as f32
    }

    /// RMS level of the sample window `[start, start+len)` (silence outside).
    pub fn window_rms(&self, start: usize, len: usize) -> f32 {
        if len == 0 {
            return 0.0;
        }
        let sum: f32 = (start..start + len)
            .map(|i| self.samples.get(i).copied().unwrap_or(0.0).powi(2))
            .sum();
        (sum / len as f32).sqrt()
    }
}

/// Synthesize a deterministic track.
///
/// `seed` selects note material; `bpm` the tempo; `seconds` the length.
pub fn synth_track(seed: u64, bpm: f32, seconds: f32, style: TrackStyle) -> Track {
    let sr = 44_100u32;
    let n = (seconds * sr as f32) as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut samples = vec![0.0f32; n];

    let beat_len = (60.0 / bpm * sr as f32) as usize;
    let bar_len = beat_len * 4;
    // Minor-pentatonic-ish root offsets for the bass line.
    let scale = [0, 3, 5, 7, 10];
    let root_hz = 55.0 * 2f32.powf(rng.below(5) as f32 / 12.0);
    let bass_notes: Vec<f32> = (0..8)
        .map(|_| root_hz * 2f32.powf(scale[rng.below(scale.len())] as f32 / 12.0))
        .collect();
    let lead_notes: Vec<f32> = (0..16)
        .map(|_| root_hz * 4.0 * 2f32.powf(scale[rng.below(scale.len())] as f32 / 12.0))
        .collect();

    let (kick_every, hat_level, pad_level) = match style {
        TrackStyle::House => (1, 0.25, 0.0),
        TrackStyle::Breakbeat => (2, 0.4, 0.0),
        TrackStyle::Ambient => (4, 0.05, 0.3),
    };

    let mut noise_state = seed as u32 | 1;
    let mut noise = move || {
        noise_state ^= noise_state << 13;
        noise_state ^= noise_state >> 17;
        noise_state ^= noise_state << 5;
        (noise_state as f32 / u32::MAX as f32) * 2.0 - 1.0
    };

    for (i, out) in samples.iter_mut().enumerate() {
        let t = i as f32 / sr as f32;
        let bar = i / bar_len;
        let in_bar = i % bar_len;
        let beat = in_bar / beat_len;
        let in_beat = in_bar % beat_len;
        // Loud / quiet alternation every 4 bars.
        let loud = (bar / 4).is_multiple_of(2);
        let section_gain = if loud { 1.0 } else { 0.35 };

        let mut s = 0.0f32;
        // Kick: 55 Hz decaying sine with a downward pitch sweep.
        if beat.is_multiple_of(kick_every) && loud {
            let tt = in_beat as f32 / sr as f32;
            let pitch = 55.0 + 140.0 * (-tt * 40.0).exp();
            s += 0.9 * (-tt * 18.0).exp() * (core::f32::consts::TAU * pitch * tt).sin();
        }
        // Hat: noise burst on the off-beat.
        let off = in_bar + beat_len / 2;
        let hat_pos = off % beat_len;
        if hat_pos < beat_len / 8 && loud {
            let tt = hat_pos as f32 / sr as f32;
            s += hat_level * (-tt * 200.0).exp() * noise();
        }
        // Bass: saw following the note sequence, eighth notes.
        let eighth = (in_bar * 8 / bar_len + bar * 8) % bass_notes.len();
        let f_bass = bass_notes[eighth];
        let saw = 2.0 * ((t * f_bass).fract()) - 1.0;
        s += 0.35 * section_gain * saw;
        // Lead: sine arpeggio, sixteenth notes.
        let sixteenth = (in_bar * 16 / bar_len + bar * 16) % lead_notes.len();
        s += 0.18 * section_gain * (core::f32::consts::TAU * lead_notes[sixteenth] * t).sin();
        // Ambient pad.
        if pad_level > 0.0 {
            s += pad_level * (core::f32::consts::TAU * root_hz * 2.0 * t).sin() * 0.5;
        }
        *out = (s * 0.8).clamp(-1.0, 1.0);
    }
    Track {
        samples: samples.into(),
        sample_rate: sr,
        bpm,
    }
}

/// The exact inputs of one synthesis (`f32`s by bits).
#[derive(Clone, Copy, PartialEq, Eq)]
struct TrackKey {
    seed: u64,
    bpm: u32,
    seconds: u32,
    style: TrackStyle,
}

impl TrackKey {
    fn new(seed: u64, bpm: f32, seconds: f32, style: TrackStyle) -> Self {
        TrackKey {
            seed,
            bpm: bpm.to_bits(),
            seconds: seconds.to_bits(),
            style,
        }
    }
}

/// One live track: its synthesis inputs, its samples and sample rate.
type Entry = (TrackKey, Weak<[f32]>, u32);

/// Every track some holder in this process still plays. Entries are weak:
/// the store never keeps samples alive by itself, so once the last holder
/// drops a track its memory goes and the next request synthesizes afresh.
static LIVE: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn find(live: &[Entry], key: TrackKey, bpm: f32) -> Option<Track> {
    let (_, weak, sample_rate) = live.iter().find(|(k, ..)| *k == key)?;
    Some(Track {
        samples: weak.upgrade()?,
        sample_rate: *sample_rate,
        bpm,
    })
}

/// The track [`synth_track`] would return for these inputs, if some holder
/// in this process still has it — sharing its samples. Never synthesizes.
pub fn live_track(seed: u64, bpm: f32, seconds: f32, style: TrackStyle) -> Option<Track> {
    let live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
    find(&live, TrackKey::new(seed, bpm, seconds, style), bpm)
}

/// [`synth_track`], run once per distinct track for as long as it lives: a
/// track that some holder in this process still has (see [`live_track`])
/// is shared, and only a miss runs the synthesizer. The content is
/// bit-identical to `synth_track` either way.
///
/// Concurrent misses on one key each synthesize; the first to finish is
/// stored and the others return its samples, so holders share one buffer.
pub fn shared_track(seed: u64, bpm: f32, seconds: f32, style: TrackStyle) -> Track {
    if let Some(track) = live_track(seed, bpm, seconds, style) {
        return track;
    }
    let track = synth_track(seed, bpm, seconds, style);
    let key = TrackKey::new(seed, bpm, seconds, style);
    let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(first) = find(&live, key, bpm) {
        return first;
    }
    live.retain(|(k, weak, _)| *k != key && weak.strong_count() > 0);
    live.push((key, Arc::downgrade(&track.samples), track.sample_rate));
    track
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = synth_track(7, 128.0, 2.0, TrackStyle::House);
        let b = synth_track(7, 128.0, 2.0, TrackStyle::House);
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth_track(1, 128.0, 1.0, TrackStyle::House);
        let b = synth_track(2, 128.0, 1.0, TrackStyle::House);
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn length_and_bounds() {
        let t = synth_track(3, 120.0, 1.5, TrackStyle::Breakbeat);
        assert_eq!(t.samples().len(), (1.5 * 44_100.0) as usize);
        assert!((t.duration_secs() - 1.5).abs() < 1e-3);
        assert!(t.samples().iter().all(|s| s.abs() <= 1.0 && s.is_finite()));
    }

    #[test]
    fn loud_and_quiet_sections_alternate() {
        // 128 bpm, bar = 60/128*4 s ≈ 1.875 s; sections switch every 4 bars
        // = 7.5 s. Synthesize 16 s and compare the first section's RMS with
        // the second's.
        let t = synth_track(5, 128.0, 16.0, TrackStyle::House);
        let sr = t.sample_rate() as usize;
        let loud_rms = t.window_rms(sr, sr); // second 1-2 (loud section)
        let quiet_rms = t.window_rms(8 * sr, sr); // second 8-9 (quiet section)
        assert!(
            loud_rms > quiet_rms * 1.5,
            "loud {loud_rms} vs quiet {quiet_rms}"
        );
    }

    #[test]
    fn house_is_louder_than_ambient() {
        let h = synth_track(9, 125.0, 4.0, TrackStyle::House);
        let a = synth_track(9, 125.0, 4.0, TrackStyle::Ambient);
        assert!(h.window_rms(0, h.samples().len()) > a.window_rms(0, a.samples().len()));
    }

    // The store is process-wide and tests run in parallel: every store
    // test uses seeds no other test asks for.

    #[test]
    fn shared_track_is_bit_identical_to_synth_track() {
        for (i, style) in [
            TrackStyle::House,
            TrackStyle::Breakbeat,
            TrackStyle::Ambient,
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 0x5_7A4E_0000 + i as u64;
            let want = synth_track(seed, 127.5, 1.25, style);
            let got = shared_track(seed, 127.5, 1.25, style);
            let bits = |t: &Track| t.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{style:?}");
            assert_eq!(got.sample_rate(), want.sample_rate());
            assert_eq!(got.bpm(), want.bpm());
        }
    }

    #[test]
    fn live_holders_share_one_allocation() {
        let seed = 0x5_7A4E_0010;
        assert!(live_track(seed, 128.0, 0.5, TrackStyle::House).is_none());
        let a = shared_track(seed, 128.0, 0.5, TrackStyle::House);
        let b = shared_track(seed, 128.0, 0.5, TrackStyle::House);
        let c = live_track(seed, 128.0, 0.5, TrackStyle::House).expect("a is live");
        assert_eq!(a.samples().as_ptr(), b.samples().as_ptr());
        assert_eq!(a.samples().as_ptr(), c.samples().as_ptr());
        assert_eq!(a.clone().samples().as_ptr(), a.samples().as_ptr());
        // Any input that differs, even by one bit, is another track.
        let other = shared_track(seed, 128.0f32.next_up(), 0.5, TrackStyle::House);
        assert_ne!(other.samples().as_ptr(), a.samples().as_ptr());
        assert!(live_track(seed, 128.0, 0.5, TrackStyle::Ambient).is_none());
    }

    #[test]
    fn dropping_every_holder_forces_a_fresh_synthesis() {
        let seed = 0x5_7A4E_0020;
        let a = shared_track(seed, 122.0, 0.5, TrackStyle::Breakbeat);
        let b = a.clone();
        drop(a);
        assert!(live_track(seed, 122.0, 0.5, TrackStyle::Breakbeat).is_some());
        drop(b);
        // Nothing outlives its last holder, so the next call cannot share.
        assert!(live_track(seed, 122.0, 0.5, TrackStyle::Breakbeat).is_none());
        let again = shared_track(seed, 122.0, 0.5, TrackStyle::Breakbeat);
        let want = synth_track(seed, 122.0, 0.5, TrackStyle::Breakbeat);
        assert_eq!(again.samples(), want.samples());
    }

    #[test]
    fn concurrent_misses_return_identical_samples() {
        let seed = 0x5_7A4E_0030;
        let start = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            [(); 2]
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        shared_track(seed, 131.0, 1.0, TrackStyle::House)
                    })
                })
                .map(|h| h.join().unwrap())
        });
        assert_eq!(a.samples(), b.samples());
        // The slower miss adopts the faster one's samples.
        assert_eq!(a.samples().as_ptr(), b.samples().as_ptr());
        assert_eq!(
            a.samples(),
            synth_track(seed, 131.0, 1.0, TrackStyle::House).samples()
        );
    }

    #[test]
    fn window_rms_out_of_range_is_silent() {
        let t = synth_track(1, 120.0, 0.5, TrackStyle::House);
        assert_eq!(t.window_rms(10_000_000, 128), 0.0);
        assert_eq!(t.window_rms(0, 0), 0.0);
    }
}
