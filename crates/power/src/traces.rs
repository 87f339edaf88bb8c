//! Input trace generation — the paper's "typical input traces to aid power
//! estimation". DSP inputs are time-correlated, which is what makes
//! resource sharing between unrelated operations *cost* switching energy;
//! the generator therefore produces band-limited random walks.

use hsyn_util::Rng;

/// A set of input traces: one stream of `width`-bit samples per primary
/// input.
#[derive(Clone, Debug)]
pub struct TraceSet {
    /// `samples[i][n]` = value of input `i` at iteration `n`.
    pub samples: Vec<Vec<i64>>,
    /// Datapath bit width.
    pub width: u32,
}

impl TraceSet {
    /// Wrap externally produced streams (one per primary input) into a
    /// trace set — the entry point for co-simulation harnesses and fuzzers
    /// that synthesize their own stimuli instead of using [`dsp_default`].
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `1..=32` or the streams have unequal
    /// lengths.
    pub fn new(samples: Vec<Vec<i64>>, width: u32) -> Self {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        let len = samples.first().map_or(0, Vec::len);
        assert!(
            samples.iter().all(|s| s.len() == len),
            "input streams must have equal lengths"
        );
        TraceSet { samples, width }
    }

    /// Number of iterations the traces cover.
    pub fn len(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    /// Whether the trace set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of inputs covered.
    pub fn input_count(&self) -> usize {
        self.samples.len()
    }
}

/// The "typical DSP" stimulus: `n_samples` samples for each of `n_inputs`
/// inputs at `width` bits, deterministically from `seed`. Each input is a
/// random walk from a random start in the middle half of the range,
/// stepping by at most 1/16 of full scale and clipped to the range.
///
/// # Panics
///
/// Panics if `width` is not in `1..=32`.
pub fn dsp_default(n_inputs: usize, n_samples: usize, width: u32, seed: u64) -> TraceSet {
    assert!((1..=32).contains(&width), "width must be in 1..=32");
    let mut rng = Rng::seed_from_u64(seed);
    let max = (1i64 << (width - 1)) - 1;
    let min = -(1i64 << (width - 1));
    let step = ((1i64 << (width - 1)) / 16).max(1);
    let samples = (0..n_inputs)
        .map(|_| {
            let mut v: i64 = rng.range_i64(min / 2, max / 2);
            (0..n_samples)
                .map(|_| {
                    v = (v + rng.range_i64(-step, step)).clamp(min, max);
                    v
                })
                .collect()
        })
        .collect();
    TraceSet { samples, width }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let a = dsp_default(3, 64, 16, 42);
        let b = dsp_default(3, 64, 16, 42);
        assert_eq!(a.samples, b.samples);
        let c = dsp_default(3, 64, 16, 43);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn shapes_and_ranges() {
        let t = dsp_default(4, 50, 12, 7);
        assert_eq!(t.input_count(), 4);
        assert_eq!(t.len(), 50);
        let max = (1i64 << 11) - 1;
        for s in &t.samples {
            assert!(s.iter().all(|&v| v >= -(max + 1) && v <= max));
        }
    }

    #[test]
    fn samples_are_time_correlated() {
        // White noise toggles half the bits per sample (within 0.05 over
        // 512 samples); the walk's steps of 1/16 full scale leave the top
        // bits mostly still, at about 0.40 over seeds 0..20.
        let width = 16;
        let t = dsp_default(1, 512, width, 1);
        let s = &t.samples[0];
        let toggles: u32 = s
            .windows(2)
            .map(|w| (((w[0] ^ w[1]) as u64) & 0xffff).count_ones())
            .sum();
        let rate = f64::from(toggles) / (f64::from(width) * (s.len() - 1) as f64);
        assert!(
            rate < 0.45,
            "toggle rate {rate} should be below white noise's"
        );
    }

    #[test]
    #[should_panic(expected = "width must be")]
    fn rejects_zero_width() {
        dsp_default(1, 4, 0, 0);
    }
}
