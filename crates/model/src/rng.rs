//! A small, in-repo, seed-deterministic random number generator.
//!
//! Every stochastic component in the workspace (carbon noise, latency
//! jitter, Monte Carlo estimation, HBSS sampling, workload input selection)
//! draws from this generator so that experiment results are bit-stable
//! across machines and independent of external crate version bumps. The
//! implementation is the reference PCG-XSH-RR 64/32 generator of O'Neill.

/// A PCG-XSH-RR 64/32 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use caribou_model::rng::Pcg32;
///
/// let mut a = Pcg32::seed(42);
/// let mut b = Pcg32::seed(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

/// The SplitMix64 increment ("golden gamma").
const SPLITMIX_GAMMA: u64 = 0x9e3779b97f4a7c15;

/// SplitMix64's avalanching finalizer: a cheap bijective mix whose output
/// is statistically independent of small input deltas.
///
/// This is the primitive behind [`SeedSplitter`]: hashing a label chain
/// through `mix64` yields seeds that are a pure function of the labels —
/// no generator state is consumed, so deriving seed N does not depend on
/// whether seeds 0..N-1 were derived first. That property is what makes
/// parallel solver evaluation order-independent.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A stateless seed splitter (SplitMix-style).
///
/// Unlike [`Pcg32::fork`], which advances the parent generator and
/// therefore makes every derived stream depend on derivation *order*,
/// `SeedSplitter` derives streams purely from the values absorbed into
/// it. Two splitters fed the same labels in the same sequence produce the
/// same stream no matter what happened elsewhere — the foundation of the
/// solver engine's "bit-identical at any worker count" guarantee.
///
/// # Examples
///
/// ```
/// use caribou_model::rng::SeedSplitter;
///
/// let a = SeedSplitter::new(42).absorb(7).absorb(3).rng();
/// let b = SeedSplitter::new(42).absorb(7).absorb(3).rng();
/// assert_eq!(a, b);
/// let c = SeedSplitter::new(42).absorb(7).absorb(4).rng();
/// assert_ne!(b, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSplitter {
    state: u64,
}

impl SeedSplitter {
    /// Starts a splitter from a root seed.
    pub fn new(root: u64) -> Self {
        SeedSplitter { state: mix64(root) }
    }

    /// Absorbs one label (a region index, an hour's bit pattern, a salt)
    /// into the derivation chain.
    #[must_use]
    pub fn absorb(self, label: u64) -> Self {
        SeedSplitter {
            state: mix64(self.state ^ label),
        }
    }

    /// The derived 64-bit seed.
    pub fn seed(self) -> u64 {
        self.state
    }

    /// A generator on the derived seed, with a stream selector also
    /// derived from it so distinct seeds never share a PCG stream.
    pub fn rng(self) -> Pcg32 {
        Pcg32::seed_stream(self.state, mix64(self.state))
    }
}

impl Pcg32 {
    /// Creates a generator from a seed with the default stream.
    pub fn seed(seed: u64) -> Self {
        Self::seed_stream(seed, 0xda3e39cb94b95bdb)
    }

    /// Creates a generator from a seed and an explicit stream selector.
    ///
    /// Two generators with the same seed but different streams produce
    /// uncorrelated sequences; this is used to give each subsystem its own
    /// stream derived from one experiment master seed.
    pub fn seed_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Derives a child generator; useful for forking deterministic
    /// sub-streams (e.g. one per Monte Carlo batch).
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9e3779b97f4a7c15);
        Self::seed_stream(s, s.rotate_left(17) | 1)
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits give a uniformly spaced grid in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_bounded(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless method.
        let mut m = (self.next_u32() as u64).wrapping_mul(bound as u64);
        let mut lo = m as u32;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = (self.next_u32() as u64).wrapping_mul(bound as u64);
                lo = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Returns a uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `len > u32::MAX as usize`.
    pub fn next_index(&mut self, len: usize) -> usize {
        assert!(len <= u32::MAX as usize, "len too large");
        self.next_bounded(len as u32) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        // Box–Muller; the unused second variate is discarded to keep the
        // generator state a pure function of draw count.
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Returns a normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Returns a log-normal sample with the given log-space parameters.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Returns an exponential sample with the given rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "lambda must be positive");
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Returns a Poisson sample with the given mean using inversion for
    /// small means and normal approximation above 60.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 60.0 {
            let s = self.normal(mean, mean.sqrt());
            return s.max(0.0).round() as u64;
        }
        // Knuth's inversion.
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of the slice.
    ///
    /// Returns `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_index(slice.len())])
        }
    }

    /// Samples an index according to the given non-negative weights.
    ///
    /// Returns `None` if the weights are empty or sum to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        self.choose_weighted_summed(weights, total)
    }

    /// [`Self::choose_weighted`] for a caller that draws from the same
    /// weights many times: `total` is their sum, taken once. The draw is
    /// the same when `total` is the same left-fold sum of the positive
    /// finite weights, in order, that `choose_weighted` takes.
    pub fn choose_weighted_summed(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 && w.is_finite() {
                if target < *w {
                    return Some(i);
                }
                target -= *w;
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg32::seed(7);
        let mut b = Pcg32::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::seed(1);
        let mut b = Pcg32::seed(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn streams_are_uncorrelated() {
        let mut a = Pcg32::seed_stream(1, 10);
        let mut b = Pcg32::seed_stream(1, 11);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::seed(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bounded_respects_bound() {
        let mut rng = Pcg32::seed(4);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(7) < 7);
        }
    }

    #[test]
    fn bounded_covers_all_values() {
        let mut rng = Pcg32::seed(5);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.next_bounded(5) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = Pcg32::seed(6);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = Pcg32::seed(8);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_mean_roughly_correct() {
        let mut rng = Pcg32::seed(9);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.poisson(3.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        let big = (0..n).map(|_| rng.poisson(100.0) as f64).sum::<f64>() / n as f64;
        assert!((big - 100.0).abs() < 1.0, "mean {big}");
    }

    #[test]
    fn weighted_choice_matches_weights() {
        let mut rng = Pcg32::seed(10);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_choice_degenerate_cases() {
        let mut rng = Pcg32::seed(11);
        assert_eq!(rng.choose_weighted(&[]), None);
        assert_eq!(rng.choose_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.choose_weighted(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seed(12);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut parent = Pcg32::seed(13);
        let mut child = parent.fork(99);
        let same = (0..64)
            .filter(|_| parent.next_u32() == child.next_u32())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0..10_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn seed_splitter_is_order_free() {
        // Deriving other streams first must not perturb a derivation —
        // the property Pcg32::fork lacks.
        let direct = SeedSplitter::new(5).absorb(1).absorb(2).seed();
        for noise in 0..16u64 {
            let _ = SeedSplitter::new(5).absorb(noise).seed();
            let again = SeedSplitter::new(5).absorb(1).absorb(2).seed();
            assert_eq!(direct, again);
        }
    }

    #[test]
    fn seed_splitter_labels_change_stream() {
        let mut a = SeedSplitter::new(9).absorb(0).rng();
        let mut b = SeedSplitter::new(9).absorb(1).rng();
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }
}
