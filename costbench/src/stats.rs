//! The benchmark's own arithmetic: percentiles, the tail rule, the
//! crash-to-recovery gap, the failed-op fraction and the layer-time
//! accounting check.

/// Tail percentiles tried from the top, in parts per million.
const TAIL_LADDER_PPM: [u64; 6] = [999_990, 999_900, 999_000, 990_000, 900_000, 500_000];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `ppm` among `n` samples:
/// `ceil(n · ppm / 10⁶)`, at least 1.
fn rank(n: usize, ppm: u64) -> usize {
    let r = (n as u128 * ppm as u128).div_ceil(1_000_000) as usize;
    r.max(1)
}

/// The nearest-rank percentile `ppm` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[u64], ppm: u64) -> u64 {
    sorted[rank(sorted.len(), ppm) - 1]
}

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in parts per million (990_000 = p99).
    pub ppm: u64,
    /// The sample at that percentile.
    pub value: u64,
    /// Samples beyond it.
    pub beyond: usize,
    /// All samples.
    pub n: usize,
}

impl Tail {
    /// Picks the tail of `sorted` (ascending); `None` below 20 samples,
    /// where not even the median has ten samples beyond it.
    pub fn of(sorted: &[u64]) -> Option<Tail> {
        let n = sorted.len();
        TAIL_LADDER_PPM.iter().find_map(|&ppm| {
            let r = rank(n, ppm);
            let beyond = n.checked_sub(r)?;
            (n > 0 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
                ppm,
                value: sorted[r - 1],
                beyond,
                n,
            })
        })
    }

    /// "p99.9"-style label.
    pub fn label(&self) -> String {
        let pct = self.ppm as f64 / 10_000.0;
        format!("p{}", trim_float(pct))
    }
}

fn trim_float(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// The median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// A host cost per unit of work over windows that cycle through
/// `distinct` seeds (window `i` ran seed `i % distinct`): each seed's
/// median cost over its repeats, summed over the seeds, divided by the
/// seeds' work. A seed's work repeats exactly, so only its cost needs a
/// median; summing over seeds keeps every run weighing the same seed mix.
///
/// # Panics
///
/// Panics when fewer than `distinct` windows are given.
pub fn seed_medians_pooled(cost_and_work: &[(f64, f64)], distinct: usize) -> f64 {
    let cost: f64 = (0..distinct)
        .map(|k| {
            let repeats: Vec<f64> = cost_and_work
                .iter()
                .skip(k)
                .step_by(distinct)
                .map(|c| c.0)
                .collect();
            median(&repeats)
        })
        .sum();
    let work: f64 = cost_and_work[..distinct].iter().map(|c| c.1).sum();
    if work == 0.0 {
        0.0
    } else {
        cost / work
    }
}

/// Per-deployment speed scales from calibration readings taken around
/// the deployments: `readings[i]` before deployment `i`, and one after
/// the last. Deployment `i` is scaled by `reference` over the mean of the
/// two readings that bracket it, so a host time times its scale reads as
/// on a machine where the calibration kernel takes `reference`.
///
/// # Panics
///
/// Panics on fewer than two readings.
pub fn speed_scales(readings: &[f64], reference: f64) -> Vec<f64> {
    assert!(readings.len() >= 2, "a deployment needs a reading on each side");
    readings
        .windows(2)
        .map(|pair| reference / ((pair[0] + pair[1]) / 2.0))
        .collect()
}

/// Simulated ms from `crash_us` to the first completion strictly after it;
/// `None` when no op completed after the crash.
pub fn unavail_ms(crash_us: u64, completions_us: impl IntoIterator<Item = u64>) -> Option<f64> {
    completions_us
        .into_iter()
        .filter(|&t| t > crash_us)
        .min()
        .map(|t| (t - crash_us) as f64 / 1e3)
}

/// Client work that did not succeed on its first try, as a share of all
/// attempts: `(retries + unanswered + refused) / (completed + refused +
/// unanswered + retries)`. Each retry (after a timeout, `Redirect` or
/// `Retry`) is an extra attempt; an op still unanswered at the deadline,
/// or refused outright, is an attempt that failed.
pub fn failed_op_frac(completed: u64, refused: u64, retries: u64, unanswered: u64) -> f64 {
    let failed = retries + unanswered + refused;
    let attempts = completed + failed;
    if attempts == 0 {
        return 0.0;
    }
    failed as f64 / attempts as f64
}

/// Host nanoseconds of one traced window, split by layer. The driver's
/// self time is what the measured `run_until` time leaves after every
/// wrapped layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Wall time inside `run_until`.
    pub total_ns: u64,
    /// Inside protocol-engine calls.
    pub engine_ns: u64,
    /// Inside the latency and loss models.
    pub simnet_ns: u64,
    /// Inside the codec round-trip check.
    pub codec_ns: u64,
}

impl LayerTimes {
    /// The driver's self time, or an error when the wrapped layers claim
    /// more than the whole window (overlapping or double-counted spans).
    pub fn driver_ns(&self) -> Result<u64, String> {
        let wrapped = self.engine_ns + self.simnet_ns + self.codec_ns;
        self.total_ns.checked_sub(wrapped).ok_or_else(|| {
            format!(
                "layer self times exceed run_until: engine {} + simnet {} + codec {} > total {} ns",
                self.engine_ns, self.simnet_ns, self.codec_ns, self.total_ns
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: u64) -> Vec<u64> {
        (1..=n).collect()
    }

    #[test]
    fn tail_needs_twenty_samples_for_the_median() {
        assert_eq!(Tail::of(&[]), None);
        assert_eq!(Tail::of(&ramp(1)), None);
        assert_eq!(Tail::of(&ramp(19)), None);
        let t = Tail::of(&ramp(20)).unwrap();
        assert_eq!((t.ppm, t.value, t.beyond, t.n), (500_000, 10, 10, 20));
    }

    #[test]
    fn tail_climbs_the_ladder_at_exact_thresholds() {
        let t = Tail::of(&ramp(99)).unwrap();
        assert_eq!(t.ppm, 500_000, "p90 of 99 leaves only 9 beyond");
        let t = Tail::of(&ramp(100)).unwrap();
        assert_eq!((t.ppm, t.value, t.beyond), (900_000, 90, 10));
        let t = Tail::of(&ramp(999)).unwrap();
        assert_eq!(t.ppm, 900_000, "p99 of 999 is rank 990, 9 beyond");
        let t = Tail::of(&ramp(1000)).unwrap();
        assert_eq!((t.ppm, t.value, t.beyond), (990_000, 990, 10));
        let t = Tail::of(&ramp(10_000)).unwrap();
        assert_eq!((t.ppm, t.value, t.beyond), (999_000, 9990, 10));
        let t = Tail::of(&ramp(1_000_000)).unwrap();
        assert_eq!((t.ppm, t.beyond), (999_990, 10));
        assert_eq!(t.label(), "p99.999");
    }

    #[test]
    fn tail_labels() {
        let t = Tail {
            ppm: 990_000,
            value: 0,
            beyond: 10,
            n: 1000,
        };
        assert_eq!(t.label(), "p99");
        let t = Tail { ppm: 999_000, ..t };
        assert_eq!(t.label(), "p99.9");
        let t = Tail { ppm: 500_000, ..t };
        assert_eq!(t.label(), "p50");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 500_000), 5);
        assert_eq!(percentile(&v, 900_000), 9);
        assert_eq!(percentile(&v, 1), 1);
        assert_eq!(percentile(&[7], 500_000), 7);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn seed_medians_pool_per_seed_medians() {
        // Two seeds: seed 0 does 10 units in 100, 300, 110; seed 1 does 30
        // units in 60, 64.
        let w = [
            (100.0, 10.0),
            (60.0, 30.0),
            (300.0, 10.0),
            (64.0, 30.0),
            (110.0, 10.0),
        ];
        assert_eq!(seed_medians_pooled(&w, 2), (110.0 + 62.0) / 40.0);
        assert_eq!(seed_medians_pooled(&w[..2], 2), 160.0 / 40.0);
        assert_eq!(seed_medians_pooled(&[(5.0, 0.0)], 1), 0.0);
    }

    #[test]
    fn speed_scales_use_the_bracketing_readings() {
        // Four readings bracket three deployments; the machine slows down
        // to half speed and recovers.
        let s = speed_scales(&[10.0, 10.0, 30.0, 10.0], 10.0);
        assert_eq!(s, vec![1.0, 0.5, 0.5]);
        assert_eq!(speed_scales(&[20.0, 20.0], 10.0), vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "reading on each side")]
    fn speed_scales_need_a_closing_reading() {
        speed_scales(&[10.0], 10.0);
    }

    #[test]
    fn unavail_is_gap_to_first_completion_after_the_crash() {
        // Completions in arbitrary order; the one at the crash instant does
        // not count as recovery.
        let done = [1_000, 9_000, 5_000, 12_000, 5_500, 30_000];
        assert_eq!(unavail_ms(5_000, done), Some(0.5));
        assert_eq!(unavail_ms(5_600, done), Some(3.4));
        assert_eq!(unavail_ms(0, done), Some(1.0));
        assert_eq!(unavail_ms(30_000, done), None);
        assert_eq!(unavail_ms(5_000, []), None);
    }

    #[test]
    fn failed_op_frac_counts_retries_unanswered_and_refused() {
        assert_eq!(failed_op_frac(0, 0, 0, 0), 0.0);
        assert_eq!(failed_op_frac(90, 0, 0, 10), 0.1);
        assert_eq!(failed_op_frac(95, 0, 3, 2), 0.05);
        assert_eq!(failed_op_frac(96, 4, 0, 0), 0.04);
        assert_eq!(failed_op_frac(0, 1, 4, 1), 1.0);
    }

    #[test]
    fn layer_times_sum_to_the_window() {
        let t = LayerTimes {
            total_ns: 1_000,
            engine_ns: 600,
            simnet_ns: 50,
            codec_ns: 100,
        };
        let driver = t.driver_ns().unwrap();
        assert_eq!(driver, 250);
        assert_eq!(driver + t.engine_ns + t.simnet_ns + t.codec_ns, t.total_ns);
        let all_engine = LayerTimes {
            total_ns: 10,
            engine_ns: 10,
            ..LayerTimes::default()
        };
        assert_eq!(all_engine.driver_ns(), Ok(0));
        let overlapping = LayerTimes {
            total_ns: 100,
            engine_ns: 90,
            simnet_ns: 20,
            codec_ns: 0,
        };
        assert!(overlapping.driver_ns().is_err());
    }
}
