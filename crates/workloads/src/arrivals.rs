//! Open-loop arrival processes for the sustained-load generator.
//!
//! `caribou loadgen` drives a benchmark DAG with a fixed number of
//! invocations whose arrival times come from one of three seeded
//! processes:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at a constant
//!   rate, the classic open-loop load model;
//! * [`ArrivalProcess::Diurnal`] — a non-homogeneous Poisson process
//!   whose rate follows the Azure-Functions-2021-shaped diurnal curve of
//!   [`crate::traces`] (business-hours peak, overnight trough, ~3:1);
//! * [`ArrivalProcess::Bursty`] — a square-wave spike profile: baseline
//!   Poisson traffic with periodic windows at a multiple of the base
//!   rate, exercising same-tick batching and buffer-pool reuse.
//!
//! All three generate by Lewis thinning: candidate gaps are exponential
//! at the process's peak rate and kept with probability `rate(t)/peak`,
//! so the sequence is sorted, deterministic in the RNG, and independent
//! of how the consumer later shards it across workers.

use caribou_model::rng::Pcg32;

use crate::traces::diurnal_rate;

/// Spike multiplier applied to the base rate inside a bursty window.
pub const BURST_FACTOR: f64 = 8.0;
/// Period of the bursty square wave, seconds.
pub const BURST_PERIOD_S: f64 = 600.0;
/// Fraction of each period spent inside the spike.
pub const BURST_DUTY: f64 = 0.05;

/// A seeded open-loop arrival process with a configured mean rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate_per_s`.
    Poisson {
        /// Mean arrival rate, invocations per second.
        rate_per_s: f64,
    },
    /// Poisson arrivals whose rate is diurnally modulated around
    /// `rate_per_s` (mean multiplier 1.0 over a day).
    Diurnal {
        /// Mean arrival rate, invocations per second.
        rate_per_s: f64,
    },
    /// Baseline Poisson at `rate_per_s` with periodic spikes at
    /// [`BURST_FACTOR`] times the base rate.
    Bursty {
        /// Baseline arrival rate, invocations per second.
        rate_per_s: f64,
    },
}

impl ArrivalProcess {
    /// Parses a process name from the CLI (`poisson`, `diurnal`,
    /// `bursty`).
    pub fn parse(name: &str, rate_per_s: f64) -> Result<Self, String> {
        if !(rate_per_s.is_finite() && rate_per_s > 0.0) {
            return Err(format!("arrival rate must be positive, got {rate_per_s}"));
        }
        match name {
            "poisson" => Ok(ArrivalProcess::Poisson { rate_per_s }),
            "diurnal" => Ok(ArrivalProcess::Diurnal { rate_per_s }),
            "bursty" => Ok(ArrivalProcess::Bursty { rate_per_s }),
            other => Err(format!(
                "unknown arrival process `{other}` (expected poisson, diurnal, or bursty)"
            )),
        }
    }

    /// Instantaneous arrival rate at simulation time `t` seconds.
    fn rate_at(&self, t: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Diurnal { rate_per_s } => {
                rate_per_s * diurnal_rate((t / 3600.0) % 24.0)
            }
            ArrivalProcess::Bursty { rate_per_s } => {
                let phase = (t / BURST_PERIOD_S).fract();
                if phase < BURST_DUTY {
                    rate_per_s * BURST_FACTOR
                } else {
                    rate_per_s
                }
            }
        }
    }

    /// The rate the thinning envelope must dominate.
    fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            // diurnal_rate maxes just below 1.0 + 0.55 + 0.12.
            ArrivalProcess::Diurnal { rate_per_s } => rate_per_s * 1.7,
            ArrivalProcess::Bursty { rate_per_s } => rate_per_s * BURST_FACTOR,
        }
    }

    /// Generates the first `n` arrival times (seconds from 0, sorted) by
    /// Lewis thinning. Deterministic in `rng`.
    pub fn generate(&self, n: usize, rng: &mut Pcg32) -> Vec<f64> {
        let mut gen = ArrivalGen::new(*self, rng.clone());
        let mut out = Vec::with_capacity(n);
        gen.fill(&mut out, n);
        *rng = gen.rng;
        out
    }

    /// A streaming generator over this process: yields the same sequence
    /// as [`ArrivalProcess::generate`] without materializing it, so a
    /// consumer's memory stays independent of the invocation count.
    pub fn stream(&self, rng: Pcg32) -> ArrivalGen {
        ArrivalGen::new(*self, rng)
    }
}

/// Streaming Lewis-thinning arrival generator. Produces exactly the
/// sequence [`ArrivalProcess::generate`] would, one arrival at a time:
/// the thinning state is one running timestamp plus the RNG, so callers
/// can pull arrivals round by round with O(round) memory.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: Pcg32,
    peak: f64,
    t: f64,
}

impl ArrivalGen {
    /// Starts the stream at t = 0 with the given generator.
    pub fn new(process: ArrivalProcess, rng: Pcg32) -> Self {
        ArrivalGen {
            peak: process.peak_rate(),
            process,
            rng,
            t: 0.0,
        }
    }

    /// The next arrival time, seconds from 0 (monotonically increasing).
    pub fn next_arrival(&mut self) -> f64 {
        loop {
            self.t += self.rng.exponential(self.peak);
            if self.rng.next_f64() * self.peak <= self.process.rate_at(self.t) {
                return self.t;
            }
        }
    }

    /// Appends the next `n` arrivals to `buf`.
    pub fn fill(&mut self, buf: &mut Vec<f64>, n: usize) {
        buf.reserve(n);
        for _ in 0..n {
            let t = self.next_arrival();
            buf.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_processes() {
        assert_eq!(
            ArrivalProcess::parse("poisson", 2.0).unwrap(),
            ArrivalProcess::Poisson { rate_per_s: 2.0 }
        );
        assert!(matches!(
            ArrivalProcess::parse("diurnal", 1.0).unwrap(),
            ArrivalProcess::Diurnal { .. }
        ));
        assert!(matches!(
            ArrivalProcess::parse("bursty", 1.0).unwrap(),
            ArrivalProcess::Bursty { .. }
        ));
        assert!(ArrivalProcess::parse("weibull", 1.0).is_err());
        assert!(ArrivalProcess::parse("poisson", 0.0).is_err());
        assert!(ArrivalProcess::parse("poisson", f64::NAN).is_err());
    }

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        for p in [
            ArrivalProcess::Poisson { rate_per_s: 5.0 },
            ArrivalProcess::Diurnal { rate_per_s: 5.0 },
            ArrivalProcess::Bursty { rate_per_s: 5.0 },
        ] {
            let a = p.generate(2000, &mut Pcg32::seed(42));
            let b = p.generate(2000, &mut Pcg32::seed(42));
            assert_eq!(a, b);
            assert_eq!(a.len(), 2000);
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{p:?} unsorted");
            assert!(a.iter().all(|t| t.is_finite() && *t > 0.0));
        }
    }

    #[test]
    fn stream_matches_batch_generation() {
        for p in [
            ArrivalProcess::Poisson { rate_per_s: 5.0 },
            ArrivalProcess::Diurnal { rate_per_s: 5.0 },
            ArrivalProcess::Bursty { rate_per_s: 5.0 },
        ] {
            let batch = p.generate(1000, &mut Pcg32::seed(42));
            let mut gen = p.stream(Pcg32::seed(42));
            // Pull in uneven pieces: the stream state carries across fills.
            let mut streamed = Vec::new();
            gen.fill(&mut streamed, 7);
            gen.fill(&mut streamed, 500);
            for _ in 0..493 {
                streamed.push(gen.next_arrival());
            }
            assert_eq!(batch, streamed, "{p:?}");
        }
    }

    #[test]
    fn poisson_hits_the_configured_rate() {
        let p = ArrivalProcess::Poisson { rate_per_s: 10.0 };
        let a = p.generate(20_000, &mut Pcg32::seed(7));
        let measured = a.len() as f64 / a.last().unwrap();
        assert!((measured / 10.0 - 1.0).abs() < 0.05, "rate {measured}");
    }

    #[test]
    fn diurnal_arrivals_are_modulated() {
        // High volume over several days; peak hours must outdraw trough
        // hours by well over the homogeneous ratio.
        let p = ArrivalProcess::Diurnal { rate_per_s: 2.0 };
        let a = p.generate(300_000, &mut Pcg32::seed(11));
        let count_in = |from_h: f64, to_h: f64| {
            a.iter()
                .filter(|t| {
                    let hod = (**t / 3600.0) % 24.0;
                    hod >= from_h && hod < to_h
                })
                .count()
        };
        let peak = count_in(13.0, 17.0);
        let trough = count_in(1.0, 5.0);
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} trough {trough}"
        );
    }

    #[test]
    fn bursty_spike_windows_are_denser() {
        let p = ArrivalProcess::Bursty { rate_per_s: 2.0 };
        let a = p.generate(100_000, &mut Pcg32::seed(13));
        let in_spike = a
            .iter()
            .filter(|t| (**t / BURST_PERIOD_S).fract() < BURST_DUTY)
            .count();
        let spike_share = in_spike as f64 / a.len() as f64;
        // Spikes cover 5% of wall time at 8x rate: expected share
        // 0.4/(0.4+0.95) ~ 0.30.
        assert!(
            (0.2..0.4).contains(&spike_share),
            "spike share {spike_share}"
        );
    }
}
