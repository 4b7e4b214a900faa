//! Seeded inputs: topologies with per-link delay bounds, simulated
//! executions for the batch and resync arms, and the tightening and
//! ingest observation streams. Everything here is a pure function of the
//! workload and the seed.

use clocksync::{BatchObservation, DelayRange, LinkAssumption};
use clocksync_model::ProcessorId;
use clocksync_sim::{DelayDistribution, LinkModel, SimRun, Simulation};
use clocksync_time::{ClockTime, Nanos, RealTime};

/// SplitMix64: a small, fully specified generator, so inputs depend on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The graph family of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A ring plus `n/2` random chords: a WAN-like sparse graph.
    Wan(usize),
    /// Every pair linked.
    Complete(usize),
}

impl Shape {
    pub fn n(self) -> usize {
        match self {
            Shape::Wan(n) | Shape::Complete(n) => n,
        }
    }

    /// Undirected edges `(a, b)` with `a < b`, without duplicates.
    fn edges(self, rng: &mut Rng) -> Vec<(usize, usize)> {
        let mut edges = std::collections::BTreeSet::new();
        let mut add = |a: usize, b: usize| {
            if a != b {
                edges.insert((a.min(b), a.max(b)));
            }
        };
        match self {
            Shape::Wan(n) => {
                for i in 0..n {
                    add(i, (i + 1) % n);
                }
                for _ in 0..n / 2 {
                    let (a, b) = (rng.below(n), rng.below(n));
                    add(a, b);
                }
            }
            Shape::Complete(n) => {
                for a in 0..n {
                    for b in a + 1..n {
                        add(a, b);
                    }
                }
            }
        }
        edges.into_iter().collect()
    }
}

/// One declared link: symmetric delay bounds `[lo, hi]` (ns). Simulated
/// traffic stays inside `[lo + margin, hi - margin]`, which leaves room
/// for the tightening stream to move the extremes outward.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    pub a: usize,
    pub b: usize,
    pub lo: i64,
    pub hi: i64,
    pub margin: i64,
}

/// A domain: its links with heterogeneous bounds.
#[derive(Debug, Clone)]
pub struct Domain {
    pub n: usize,
    pub links: Vec<Link>,
}

impl Domain {
    pub fn generate(shape: Shape, rng: &mut Rng) -> Domain {
        let links = shape
            .edges(rng)
            .into_iter()
            .map(|(a, b)| {
                let lo = rng.range(20_000, 200_000);
                let width = rng.range(200_000, 800_000);
                Link {
                    a,
                    b,
                    lo,
                    hi: lo + width,
                    margin: width / 4,
                }
            })
            .collect();
        Domain {
            n: shape.n(),
            links,
        }
    }

    /// Runs the probe protocol over the domain: two round trips per link,
    /// delays uniform in each link's inner band.
    pub fn simulate(&self, seed: u64) -> SimRun {
        let sim = self
            .links
            .iter()
            .fold(Simulation::builder(self.n), |b, l| {
                b.link(
                    l.a,
                    l.b,
                    LinkModel::symmetric(DelayDistribution::uniform(
                        Nanos::new(l.lo + l.margin),
                        Nanos::new(l.hi - l.margin),
                    )),
                    LinkAssumption::symmetric_bounds(DelayRange::new(
                        Nanos::new(l.lo),
                        Nanos::new(l.hi),
                    )),
                )
            })
            .probes(2)
            .build();
        sim.run(seed)
    }

    /// The `serve` protocol's registration command for this domain.
    pub fn register_command(&self, name: &str) -> String {
        let links: Vec<String> = self
            .links
            .iter()
            .map(|l| {
                format!(
                    r#"{{"a":{},"b":{},"lo_ns":{},"hi_ns":{}}}"#,
                    l.a, l.b, l.lo, l.hi
                )
            })
            .collect();
        format!(
            r#"{{"t":"domain","domain":"{name}","n":{},"links":[{}]}}"#,
            self.n,
            links.join(",")
        )
    }
}

/// Real send times of generated traffic start here, after every
/// simulated start (the simulator spreads starts over 5 ms), so all clock
/// readings are non-negative.
const STREAM_EPOCH_NS: i64 = 1_000_000_000;

/// One message between hidden-offset clocks: real send time `t`, true
/// delay `d`.
fn message(starts: &[RealTime], src: usize, dst: usize, t: i64, d: i64) -> BatchObservation {
    let clock = |p: usize, real: i64| ClockTime::from_nanos(real - starts[p].as_nanos());
    BatchObservation {
        src: ProcessorId(src),
        dst: ProcessorId(dst),
        send_clock: clock(src, t),
        recv_clock: clock(dst, t + d),
    }
}

/// The warm-resync stream: observation `j` tightens one directed link's
/// delay extreme by one nanosecond past everything seen so far (alternately
/// the low and the high side), so every step is a real tightening of one
/// `m̃ls` entry while staying inside the declared bounds.
pub struct TighteningStream {
    order: Vec<(usize, bool)>,
    starts: Vec<RealTime>,
    next: usize,
}

impl TighteningStream {
    pub fn new(domain: &Domain, starts: &[RealTime], rng: &mut Rng) -> TighteningStream {
        let mut order: Vec<(usize, bool)> = (0..domain.links.len())
            .flat_map(|i| [(i, false), (i, true)])
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        TighteningStream {
            order,
            starts: starts.to_vec(),
            next: 0,
        }
    }

    pub fn next(&mut self, domain: &Domain) -> BatchObservation {
        let j = self.next;
        self.next += 1;
        let (i, backward) = self.order[j % self.order.len()];
        let round = (j / self.order.len()) as i64;
        let l = domain.links[i];
        // Even rounds push the low extreme down, odd rounds the high one up.
        let step = round / 2 + 1;
        assert!(step < l.margin, "tightening stream exhausted its margin");
        let d = if round % 2 == 0 {
            l.lo + l.margin - step
        } else {
            l.hi - l.margin + step
        };
        let (src, dst) = if backward { (l.b, l.a) } else { (l.a, l.b) };
        message(
            &self.starts,
            src,
            dst,
            STREAM_EPOCH_NS + j as i64 * 1_000,
            d,
        )
    }
}

/// Observations `first..first + len` of the ingest stream: random links
/// in random directions, delays uniform in each link's inner band, one
/// microsecond apart. A pure function of `(seed, first, len)`.
pub fn ingest_batch(
    domain: &Domain,
    starts: &[RealTime],
    seed: u64,
    first: u64,
    len: usize,
) -> Vec<BatchObservation> {
    stream(domain, starts, seed, first, len, |rng| {
        rng.below(2 * domain.links.len())
    })
}

/// Observations `first..first + len` of the prefill stream: like
/// [`ingest_batch`], but observation `i` travels on directed link
/// `i mod 2m` (`m` links), so `k · 2m` observations put exactly `k` on
/// every directed link.
pub fn prefill_batch(
    domain: &Domain,
    starts: &[RealTime],
    seed: u64,
    first: u64,
    len: usize,
) -> Vec<BatchObservation> {
    let directed = 2 * domain.links.len() as u64;
    let mut i = first;
    stream(domain, starts, seed, first, len, |_| {
        i += 1;
        ((i - 1) % directed) as usize
    })
}

/// Observations `first..first + len`, each on the directed link (`2l`
/// forward, `2l + 1` backward for link `l`) that `pick` returns.
fn stream(
    domain: &Domain,
    starts: &[RealTime],
    seed: u64,
    first: u64,
    len: usize,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<BatchObservation> {
    let mut rng = Rng::new(seed ^ first.wrapping_mul(0xA24B_AED4_963E_E407));
    (0..len)
        .map(|r| {
            let directed = pick(&mut rng);
            let l = domain.links[directed / 2];
            let d = rng.range(l.lo + l.margin, l.hi - l.margin + 1);
            let (src, dst) = if directed.is_multiple_of(2) {
                (l.a, l.b)
            } else {
                (l.b, l.a)
            };
            let t = STREAM_EPOCH_NS + (first as i64 + r as i64) * 1_000;
            message(starts, src, dst, t, d)
        })
        .collect()
}

/// The `serve` protocol's batch command.
pub fn batch_command(domain: &str, batch: &[BatchObservation]) -> String {
    let rows: Vec<String> = batch
        .iter()
        .map(|o| {
            format!(
                "[{},{},{},{}]",
                o.src.index(),
                o.dst.index(),
                o.send_clock.as_nanos(),
                o.recv_clock.as_nanos()
            )
        })
        .collect();
    format!(
        r#"{{"t":"batch","domain":"{domain}","obs":[{}]}}"#,
        rows.join(",")
    )
}
