//! The fully-dynamic comparator used by the max-pooling module (§IV-A).
//!
//! Dynamic comparators draw no static current, but suffer *metastability*
//! when their inputs are nearly equal: decision time grows as
//! `τ·ln(swing/|Δ|)` and energy peaks. RedEye suppresses this by forcing an
//! arbitrary decision when the comparator misses its time slot — harmless
//! for max pooling, because a forced decision only ever picks between two
//! nearly-identical values.

use crate::calib::{COMPARATOR_DECISION_TIME, SWING};
use crate::{Seconds, Volts};
use redeye_tensor::NoiseSource;

/// Outcome of one comparator decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorDecision {
    /// `true` if the comparator declared `a > b`.
    pub a_greater: bool,
    /// Whether the decision was forced by the metastability timeout.
    pub forced: bool,
    /// Time the decision took (capped at the time slot).
    pub time: Seconds,
}

/// Behavioral model of the dynamic comparator.
#[derive(Debug, Clone)]
pub struct Comparator {
    /// Input-referred RMS noise.
    noise_rms: Volts,
    /// Regeneration time constant.
    tau: Seconds,
    /// Allocated decision time slot; exceeding it forces a decision.
    time_slot: Seconds,
    forced: u64,
}

impl Comparator {
    /// Creates a comparator with the calibrated 0.18 µm defaults:
    /// 0.3 mV input-referred noise, τ = 100 ps, 2 ns time slot.
    pub fn new() -> Self {
        Comparator {
            noise_rms: Volts::new(3e-4),
            tau: Seconds::new(1e-10),
            time_slot: COMPARATOR_DECISION_TIME,
            forced: 0,
        }
    }

    /// Overrides the input-referred noise (for corner studies).
    pub fn with_noise(mut self, noise_rms: Volts) -> Self {
        self.noise_rms = noise_rms;
        self
    }

    /// Overrides the decision time slot.
    pub fn with_time_slot(mut self, slot: Seconds) -> Self {
        self.time_slot = slot;
        self
    }

    /// Compares two voltages, modeling input noise and metastability.
    ///
    /// Generic over the noise source so decisions can draw either from the
    /// sequential [`redeye_tensor::Rng`] or from a deterministic per-site
    /// [`redeye_tensor::SiteRng`] in parallel executors.
    pub fn compare<R: NoiseSource>(&mut self, a: f64, b: f64, rng: &mut R) -> ComparatorDecision {
        let delta = (a - b) + f64::from(rng.standard_normal()) * self.noise_rms.value();
        // Regeneration time grows logarithmically as |Δ| shrinks.
        let time = if delta == 0.0 {
            Seconds::new(f64::INFINITY)
        } else {
            self.tau * (SWING.value() / delta.abs()).ln().max(0.0)
        };
        if time.value() > self.time_slot.value() {
            // Timeout: force an arbitrary decision (paper §IV-A). The forced
            // decision costs the maximum (full-slot) time but no extra
            // energy beyond the per-decision charge of the cost model.
            self.forced += 1;
            ComparatorDecision {
                a_greater: rng.chance(0.5),
                forced: true,
                time: self.time_slot,
            }
        } else {
            ComparatorDecision {
                a_greater: delta > 0.0,
                forced: false,
                time,
            }
        }
    }

    /// Number of decisions forced by the metastability timeout.
    pub fn forced_decisions(&self) -> u64 {
        self.forced
    }
}

impl Default for Comparator {
    fn default() -> Self {
        Comparator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_tensor::Rng;

    #[test]
    fn clear_differences_decide_correctly() {
        let mut c = Comparator::new();
        let mut rng = Rng::seed_from(1);
        for _ in 0..100 {
            let d = c.compare(0.5, -0.5, &mut rng);
            assert!(d.a_greater);
            assert!(!d.forced);
        }
        assert_eq!(c.forced_decisions(), 0);
    }

    #[test]
    fn sub_threshold_ties_are_forced() {
        // Without noise, a difference below swing·exp(−slot/τ) regenerates
        // too slowly and must be forced.
        let mut c = Comparator::new().with_noise(Volts::new(0.0));
        let mut rng = Rng::seed_from(2);
        let d = c.compare(1e-10, 0.0, &mut rng);
        assert!(d.forced);
        assert_eq!(c.forced_decisions(), 1);
        // With realistic input noise, the same tie is almost always resolved
        // by the noise itself before the slot expires.
        let mut noisy = Comparator::new();
        let forced = (0..2000)
            .filter(|_| noisy.compare(1e-10, 0.0, &mut rng).forced)
            .count();
        assert!(forced < 20, "noise resolves ties: forced {forced}/2000");
    }

    #[test]
    fn forced_decisions_are_unbiased() {
        let mut c = Comparator::new().with_time_slot(Seconds::new(0.0));
        let mut rng = Rng::seed_from(3);
        // Zero time slot: every decision is forced.
        let ups = (0..2000)
            .filter(|_| c.compare(0.4, 0.4, &mut rng).a_greater)
            .count();
        assert_eq!(c.forced_decisions(), 2000);
        assert!((800..1200).contains(&ups), "coin flip, got {ups}/2000");
    }

    #[test]
    fn decision_time_grows_near_tie() {
        let mut c = Comparator::new().with_noise(Volts::new(0.0));
        let mut rng = Rng::seed_from(4);
        let far = c.compare(0.5, 0.0, &mut rng).time;
        let near = c.compare(0.001, 0.0, &mut rng).time;
        assert!(near.value() > far.value());
    }
}
