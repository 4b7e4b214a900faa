//! Message-delay models for simulated links.

use clocksync_time::{Ext, ExtNanos, Nanos};
use rand::Rng;

/// The longest tail a heavy-tailed delay draws above its floor; the cap
/// keeps clock arithmetic comfortably inside `i64`.
pub const HEAVY_TAIL_CAP: Nanos = Nanos::new(1_000_000_000_000_000);

/// A distribution of one-way message delays.
///
/// Distributions know their support so scenarios can declare *truthful*
/// delay assumptions (bounds that the sampled delays provably satisfy).
#[derive(Debug, Clone, PartialEq)]
pub enum DelayDistribution {
    /// Every message takes exactly this long.
    Constant(Nanos),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Smallest possible delay.
        lo: Nanos,
        /// Largest possible delay.
        hi: Nanos,
    },
    /// `floor + scale·(U^{−1/α} − 1)` — a shifted Pareto tail. Support is
    /// `[floor, +∞)`: the model for links where a minimum delay exists
    /// (transmission + processing) but no useful upper bound does. Heavier
    /// tails for smaller `alpha`.
    HeavyTail {
        /// Minimum possible delay.
        floor: Nanos,
        /// Tail scale.
        scale: Nanos,
        /// Pareto shape (`> 0`); values near 1 are very heavy-tailed.
        alpha: f64,
    },
}

impl DelayDistribution {
    /// A constant delay.
    pub fn constant(d: Nanos) -> DelayDistribution {
        assert!(d >= Nanos::ZERO, "delays must be nonnegative");
        DelayDistribution::Constant(d)
    }

    /// A uniform delay on `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ lo ≤ hi`.
    pub fn uniform(lo: Nanos, hi: Nanos) -> DelayDistribution {
        assert!(
            Nanos::ZERO <= lo && lo <= hi,
            "uniform delay requires 0 <= lo <= hi"
        );
        DelayDistribution::Uniform { lo, hi }
    }

    /// A heavy-tailed delay with the given floor, scale and Pareto shape.
    ///
    /// # Panics
    ///
    /// Panics unless `floor ≥ 0`, `scale > 0` and `alpha > 0`.
    pub fn heavy_tail(floor: Nanos, scale: Nanos, alpha: f64) -> DelayDistribution {
        assert!(floor >= Nanos::ZERO, "delay floor must be nonnegative");
        assert!(scale > Nanos::ZERO, "scale must be positive");
        assert!(alpha > 0.0, "alpha must be positive");
        DelayDistribution::HeavyTail {
            floor,
            scale,
            alpha,
        }
    }

    /// Draws one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Nanos {
        match *self {
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Uniform { lo, hi } => {
                if lo == hi {
                    lo
                } else {
                    Nanos::new(rng.gen_range(lo.as_nanos()..=hi.as_nanos()))
                }
            }
            DelayDistribution::HeavyTail {
                floor,
                scale,
                alpha,
            } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let tail = scale.as_nanos() as f64 * (u.powf(-1.0 / alpha) - 1.0);
                let tail = tail.min(HEAVY_TAIL_CAP.as_nanos() as f64);
                floor + Nanos::new(tail as i64)
            }
        }
    }

    /// The smallest delay this distribution can produce.
    pub fn support_min(&self) -> Nanos {
        match *self {
            DelayDistribution::Constant(d) => d,
            DelayDistribution::Uniform { lo, .. } => lo,
            DelayDistribution::HeavyTail { floor, .. } => floor,
        }
    }

    /// The largest delay this distribution can produce (`+∞` for
    /// heavy-tailed).
    pub fn support_max(&self) -> ExtNanos {
        match *self {
            DelayDistribution::Constant(d) => Ext::Finite(d),
            DelayDistribution::Uniform { hi, .. } => Ext::Finite(hi),
            DelayDistribution::HeavyTail { .. } => Ext::PosInf,
        }
    }
}

/// The delay behaviour of one bidirectional link.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkModel {
    /// Directions draw independently from their own distributions.
    Independent {
        /// Forward (`low id → high id`) delay distribution.
        forward: DelayDistribution,
        /// Backward delay distribution.
        backward: DelayDistribution,
    },
    /// Both directions share a *common unknown base* delay drawn once per
    /// execution, plus an independent per-message jitter uniform on
    /// `[0, spread]`. Any two messages (in any directions) therefore differ
    /// by at most `spread` — the workload the round-trip-bias model (§6.2)
    /// describes: congestion moves both directions together.
    Correlated {
        /// Distribution of the shared base delay.
        base: DelayDistribution,
        /// Maximum per-message jitter above the base.
        spread: Nanos,
    },
}

impl LinkModel {
    /// A symmetric independent link.
    pub fn symmetric(d: DelayDistribution) -> LinkModel {
        LinkModel::Independent {
            forward: d.clone(),
            backward: d,
        }
    }

    /// Resolves per-execution randomness (the correlated base) and returns
    /// a sampler for individual messages.
    pub fn resolve<R: Rng + ?Sized>(&self, rng: &mut R) -> ResolvedLink {
        match self {
            LinkModel::Independent { forward, backward } => ResolvedLink {
                forward: forward.clone(),
                backward: backward.clone(),
                bias_bound: None,
            },
            LinkModel::Correlated { base, spread } => {
                let b = base.sample(rng);
                let jittered = DelayDistribution::uniform(b, b + *spread);
                ResolvedLink {
                    forward: jittered.clone(),
                    backward: jittered,
                    bias_bound: Some(*spread),
                }
            }
        }
    }
}

/// A link with its per-execution randomness fixed; samples per-message
/// delays.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedLink {
    /// Forward per-message distribution.
    pub forward: DelayDistribution,
    /// Backward per-message distribution.
    pub backward: DelayDistribution,
    /// If the link is correlated, a certified bound on the round-trip bias.
    pub bias_bound: Option<Nanos>,
}

impl ResolvedLink {
    /// Samples a delay in the forward (`true`) or backward direction.
    pub fn sample<R: Rng + ?Sized>(&self, forward: bool, rng: &mut R) -> Nanos {
        if forward {
            self.forward.sample(rng)
        } else {
            self.backward.sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn constant_always_returns_itself() {
        let d = DelayDistribution::constant(Nanos::new(42));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), Nanos::new(42));
        }
        assert_eq!(d.support_min(), Nanos::new(42));
        assert_eq!(d.support_max(), Ext::Finite(Nanos::new(42)));
    }

    #[test]
    fn uniform_stays_in_support() {
        let d = DelayDistribution::uniform(Nanos::new(10), Nanos::new(20));
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!(s >= Nanos::new(10) && s <= Nanos::new(20));
        }
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let d = DelayDistribution::uniform(Nanos::new(5), Nanos::new(5));
        assert_eq!(d.sample(&mut rng()), Nanos::new(5));
    }

    #[test]
    fn heavy_tail_respects_floor_and_varies() {
        let d = DelayDistribution::heavy_tail(Nanos::new(100), Nanos::new(50), 1.5);
        let mut r = rng();
        let samples: Vec<Nanos> = (0..500).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&s| s >= Nanos::new(100)));
        assert!(samples.iter().any(|&s| s > Nanos::new(150)));
        assert_eq!(d.support_max(), Ext::PosInf);
    }

    #[test]
    #[should_panic(expected = "0 <= lo <= hi")]
    fn inverted_uniform_panics() {
        let _ = DelayDistribution::uniform(Nanos::new(5), Nanos::new(1));
    }

    #[test]
    #[should_panic(expected = "0 <= lo <= hi")]
    fn negative_floor_is_rejected() {
        let _ = DelayDistribution::uniform(Nanos::new(-1), Nanos::from_millis(1));
    }

    #[test]
    fn correlated_link_certifies_its_bias() {
        let model = LinkModel::Correlated {
            base: DelayDistribution::uniform(Nanos::new(1_000), Nanos::new(100_000)),
            spread: Nanos::new(500),
        };
        let mut r = rng();
        let resolved = model.resolve(&mut r);
        assert_eq!(resolved.bias_bound, Some(Nanos::new(500)));
        // Every pair of samples (either direction) differs by ≤ spread.
        let samples: Vec<Nanos> = (0..200)
            .map(|i| resolved.sample(i % 2 == 0, &mut r))
            .collect();
        let min = samples.iter().copied().min().unwrap();
        let max = samples.iter().copied().max().unwrap();
        assert!(max - min <= Nanos::new(500));
    }

    #[test]
    fn independent_link_has_no_bias_certificate() {
        let model = LinkModel::symmetric(DelayDistribution::constant(Nanos::new(5)));
        let resolved = model.resolve(&mut rng());
        assert_eq!(resolved.bias_bound, None);
        assert_eq!(resolved.sample(true, &mut rng()), Nanos::new(5));
    }
}
