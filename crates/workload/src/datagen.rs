//! Seeded synthetic data generators.
//!
//! All generators are deterministic given a seed so that every experiment
//! listed under the README's "Paper experiment harnesses" can be regenerated
//! exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded generator of synthetic columns.
#[derive(Debug)]
pub struct DataGenerator {
    rng: StdRng,
}

impl DataGenerator {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> DataGenerator {
        DataGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `n` integers uniform in `[low, high)`.
    pub fn uniform_ints(&mut self, n: usize, low: i64, high: i64) -> Vec<i64> {
        let (low, high) = if low < high {
            (low, high)
        } else {
            (high, low + 1)
        };
        (0..n).map(|_| self.rng.gen_range(low..high)).collect()
    }

    /// `n` approximately Gaussian floats (sum of 12 uniforms) with the given
    /// mean and standard deviation.
    pub fn gaussian(&mut self, n: usize, mean: f64, std_dev: f64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let s: f64 = (0..12).map(|_| self.rng.gen_range(0.0..1.0)).sum();
                mean + (s - 6.0) * std_dev
            })
            .collect()
    }

    /// `n` Zipf-like integer ranks in `[1, universe]`: rank `r` is drawn with
    /// probability proportional to `1/r^exponent`. Used for skewed categorical
    /// attributes (e.g. user ids in a monitoring stream).
    pub fn zipf(&mut self, n: usize, universe: u64, exponent: f64) -> Vec<i64> {
        let universe = universe.max(1);
        let weights: Vec<f64> = (1..=universe)
            .map(|r| 1.0 / (r as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        (0..n)
            .map(|_| {
                let mut target = self.rng.gen_range(0.0..total);
                for (i, w) in weights.iter().enumerate() {
                    if target < *w {
                        return (i + 1) as i64;
                    }
                    target -= w;
                }
                universe as i64
            })
            .collect()
    }

    /// A daily-periodic monitoring signal: `n` samples of a sinusoidal load with
    /// Gaussian noise, `period` samples per "day".
    pub fn periodic_load(
        &mut self,
        n: usize,
        period: usize,
        base: f64,
        amplitude: f64,
        noise: f64,
    ) -> Vec<f64> {
        let period = period.max(1) as f64;
        let noise_samples = self.gaussian(n, 0.0, noise);
        (0..n)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * (i as f64 % period) / period;
                base + amplitude * phase.sin() + noise_samples[i]
            })
            .collect()
    }

    /// A brightness-like signal for the sky-survey scenario: mostly faint
    /// background noise with occasional brighter sources.
    pub fn sky_brightness(&mut self, n: usize) -> Vec<f64> {
        let mut sky = self.gaussian(n, 10.0, 1.5);
        for value in &mut sky {
            let source = if self.rng.gen_range(0.0..1.0) < 0.001 {
                self.rng.gen_range(5.0..15.0)
            } else {
                0.0
            };
            *value = (*value + source).max(0.0);
        }
        sky
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = DataGenerator::new(7).uniform_ints(100, 0, 50);
        let b = DataGenerator::new(7).uniform_ints(100, 0, 50);
        let c = DataGenerator::new(8).uniform_ints(100, 0, 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_ints_in_range() {
        let v = DataGenerator::new(1).uniform_ints(1000, -5, 5);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| (-5..5).contains(&x)));
        // degenerate range doesn't panic
        let w = DataGenerator::new(1).uniform_ints(10, 5, 5);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn gaussian_statistics() {
        let v = DataGenerator::new(3).gaussian(20_000, 100.0, 5.0);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 5.0).abs() < 0.5, "std {}", var.sqrt());
    }

    #[test]
    fn zipf_is_skewed() {
        let v = DataGenerator::new(4).zipf(10_000, 100, 1.2);
        assert!(v.iter().all(|&x| (1..=100).contains(&x)));
        let ones = v.iter().filter(|&&x| x == 1).count();
        let fifties = v.iter().filter(|&&x| x == 50).count();
        assert!(ones > 10 * fifties.max(1), "ones={ones} fifties={fifties}");
    }

    #[test]
    fn periodic_load_oscillates() {
        let v = DataGenerator::new(5).periodic_load(1000, 100, 50.0, 20.0, 0.1);
        assert_eq!(v.len(), 1000);
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 65.0);
        assert!(min < 35.0);
    }

    #[test]
    fn sky_brightness_non_negative() {
        let v = DataGenerator::new(6).sky_brightness(10_000);
        assert!(v.iter().all(|&x| x >= 0.0));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean > 8.0 && mean < 12.0);
    }
}
