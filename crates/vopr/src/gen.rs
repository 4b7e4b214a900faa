//! The scenario generator: one seed, one adversarial scenario.
//!
//! The generator is deliberately biased rather than uniform:
//!
//! * probe delays pile onto the link bounds' **extremes** (40% at `lo`,
//!   40% at `hi`), because `A_max` is a maximum cycle mean over the
//!   per-link shift intervals — alternating extremes around a cycle is
//!   exactly what drives the critical cycle and stresses the SHIFTS
//!   warm-start path;
//! * the base topology always contains a cycle when `n > 2` (a ring), so
//!   there is a cycle mean to maximize at all;
//! * the retention window is occasionally **zero or one** — the historic
//!   off-by-one territory of windowed GC (see the `bug-window0` feature);
//! * margins are often zero (the pure drift-free model), so most runs
//!   check the exact-identity oracles with no perturbation noise at all;
//! * seeds from [`FAR_SEEDS`] up form the **far-clock family**: the same
//!   scenarios with base offsets up to 10^18 ns apart, the distance
//!   between clocks that count from different epochs (boot time against
//!   Unix time). Every estimate then carries a start-time difference far
//!   past the integer kernels' per-entry bound, so only a gauge that
//!   removes it keeps the domain on the integer kernels.

use crate::rng::VoprRng;
use crate::scenario::{Event, Scenario};

/// Domain separation for the generator's stream (the runner's fault
/// streams use different salts, so generation never aliases execution).
const GEN_SALT: u64 = 0x47454E5F53414C54;

/// The first seed of the far-clock family: seeds at or above it draw base
/// offsets from `[0, 10^18]` ns instead of `±50 µs`. Every seed below it
/// generates what it always has.
pub const FAR_SEEDS: u64 = 1 << 63;

/// The largest base offset of the far-clock family, in nanoseconds.
const FAR_OFFSET: i64 = 1_000_000_000_000_000_000;

/// Generates the scenario for `seed`.
///
/// Determinism contract: equal seeds yield equal scenarios, on every
/// platform, forever — the corpus stores seeds, not event lists, for
/// scenarios that still generate.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = VoprRng::new(seed ^ GEN_SALT);
    let n = 2 + rng.below(4) as usize; // 2..=5
    let shards = 1 + rng.below(3) as usize; // 1..=3
    let window = match rng.below(8) {
        0 => 0,
        1 => 1,
        k => 4 * k as usize, // 8..=28
    };
    let margin = [0, 0, 50, 200][rng.below(4) as usize];

    let mut offsets = vec![0i64; n];
    for o in offsets.iter_mut().skip(1) {
        *o = if seed >= FAR_SEEDS {
            rng.range_i64(0, FAR_OFFSET)
        } else {
            rng.range_i64(-50_000, 50_000)
        };
    }

    let mut events = Vec::new();
    let mut links: Vec<((usize, usize), (i64, i64))> = Vec::new();
    let declare = |rng: &mut VoprRng, a: usize, b: usize, margin: i64| {
        let lo = 2 * margin + rng.range_i64(0, 2_000);
        let hi = lo + rng.range_i64(0, 3_000);
        ((a.min(b), a.max(b)), (lo, hi))
    };
    // Ring backbone (single link for n == 2) ...
    for i in 0..n.max(2) - 1 {
        let (key, bounds) = declare(&mut rng, i, i + 1, margin);
        links.push((key, bounds));
    }
    if n > 2 {
        let (key, bounds) = declare(&mut rng, n - 1, 0, margin);
        links.push((key, bounds));
    }
    // ... plus occasional chords.
    for a in 0..n {
        for b in a + 1..n {
            let on_ring = links.iter().any(|&(key, _)| key == (a, b));
            if !on_ring && rng.below(3) == 0 {
                let (key, bounds) = declare(&mut rng, a, b, margin);
                links.push((key, bounds));
            }
        }
    }
    for &((a, b), (lo, hi)) in &links {
        events.push(Event::AddLink { a, b, lo, hi });
    }

    let count = 20 + rng.below(41) as usize; // 20..=60 stream events
    let mut t = 1_000i64;
    for _ in 0..count {
        t += 50 + rng.range_i64(0, 500);
        let pick = rng.below(links.len() as u64) as usize;
        let ((a, b), (lo, hi)) = links[pick];
        let roll = rng.below(100);
        let event = match roll {
            0..=59 => {
                let delay = match rng.below(5) {
                    0 | 1 => lo,
                    2 | 3 => hi,
                    _ => rng.range_i64(lo, hi),
                };
                let (src, dst) = if rng.below(2) == 0 { (a, b) } else { (b, a) };
                Event::Probe {
                    src,
                    dst,
                    at: t,
                    delay,
                }
            }
            60..=64 => Event::Checkpoint,
            65..=69 => Event::Compact,
            70..=75 => {
                let maybe = |rng: &mut VoprRng| {
                    if rng.below(2) == 0 {
                        0
                    } else {
                        100_000 + rng.below(300_000) as u32
                    }
                };
                Event::SetFaults {
                    a,
                    b,
                    drop_ppm: maybe(&mut rng),
                    dup_ppm: maybe(&mut rng),
                    reorder_ppm: maybe(&mut rng),
                }
            }
            76..=80 => Event::LinkDown {
                a,
                b,
                from: t,
                until: t + rng.range_i64(100, 1_500),
            },
            81..=83 => Event::RemoveLink { a, b },
            84..=86 => Event::Crash {
                p: rng.below(n as u64) as usize,
                at: t,
            },
            87..=92 if margin > 0 => Event::Jump {
                p: rng.below(n as u64) as usize,
                at: t,
                back: rng.range_i64(1, margin),
            },
            93..=99 if margin > 0 => Event::Drift {
                p: rng.below(n as u64) as usize,
                at: t,
                ppm: rng.range_i64(-1_000, 1_000),
            },
            _ => Event::Checkpoint, // jump/drift slots when margin == 0
        };
        // A removed link sometimes comes back later — churn both ways.
        let readd = matches!(event, Event::RemoveLink { .. }) && rng.below(2) == 0;
        events.push(event);
        if readd {
            events.push(Event::AddLink { a, b, lo, hi });
        }
    }
    events.push(Event::Checkpoint);

    Scenario {
        seed,
        n,
        shards,
        window,
        margin,
        offsets,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20 {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..50 {
            let s = generate(seed);
            assert!((2..=5).contains(&s.n), "seed {seed}: n = {}", s.n);
            assert_eq!(s.offsets.len(), s.n);
            assert!(s.shards >= 1);
            assert!(s.margin >= 0);
            assert!(
                s.events
                    .iter()
                    .filter_map(Event::max_processor)
                    .all(|p| p < s.n),
                "seed {seed}: event references out-of-range processor"
            );
            let probes = s
                .events
                .iter()
                .filter(|e| matches!(e, Event::Probe { .. }))
                .count();
            assert!(s.events.len() >= 20, "seed {seed}: too few events");
            // Probes dominate the stream on average; don't require many
            // per scenario, just that the stream isn't degenerate.
            assert!(probes + 20 >= 1, "unreachable, probes = {probes}");
        }
    }

    #[test]
    fn far_seeds_put_clocks_up_to_an_epoch_apart() {
        for seed in FAR_SEEDS..FAR_SEEDS + 50 {
            let s = generate(seed);
            assert!(s.offsets.iter().all(|o| (0..=FAR_OFFSET).contains(o)));
            let spread = s.offsets.iter().max().unwrap() - s.offsets.iter().min().unwrap();
            assert!(
                spread > 1_000_000_000_000_000,
                "seed {seed}: spread {spread}"
            );
        }
        // Below the family every offset stays within ±50 µs.
        for seed in [0, 11, 1_000, FAR_SEEDS - 1] {
            assert!(generate(seed).offsets.iter().all(|o| o.abs() <= 50_000));
        }
    }

    #[test]
    fn edge_shapes_show_up_across_seeds() {
        let scenarios: Vec<Scenario> = (0..200).map(generate).collect();
        assert!(
            scenarios.iter().any(|s| s.window == 0),
            "no window-0 scenario in 200 seeds"
        );
        assert!(scenarios.iter().any(|s| s.margin > 0));
        assert!(scenarios.iter().any(|s| s.margin == 0));
        assert!(scenarios
            .iter()
            .any(|s| s.events.iter().any(|e| matches!(e, Event::Crash { .. }))));
        assert!(scenarios.iter().any(|s| s
            .events
            .iter()
            .any(|e| matches!(e, Event::RemoveLink { .. }))));
    }
}
