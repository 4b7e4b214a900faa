//! Timing statistics, host-speed normalization and the hidden-truth
//! soundness check shared by the arms.

use std::time::{Duration, Instant};

use clocksync_time::{Ratio, RealTime};

/// Slack for comparing float-converted exact quantities, in ns.
pub const TOLERANCE_NS: f64 = 1e-3;

pub fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Median (mean of the middle two for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-instance samples of one timed operation, raw and normalized.
pub struct Timings {
    raw: Vec<Vec<f64>>,
    norm: Vec<Vec<f64>>,
}

impl Timings {
    pub fn new(instances: usize) -> Timings {
        Timings {
            raw: vec![Vec::new(); instances],
            norm: vec![Vec::new(); instances],
        }
    }

    /// One sample of `ns` on instance `i`, taken when the host ran at
    /// `scale` (see [`Reference::scale`]).
    pub fn push(&mut self, i: usize, ns: f64, scale: f64) {
        self.raw[i].push(ns);
        self.norm[i].push(ns * scale);
    }

    /// Mean over instances of each instance's median: a run's figure
    /// averages over its instances, and the medians shed stragglers.
    /// Returns `(raw, normalized)` ns.
    pub fn summary(&self) -> (f64, f64) {
        let stat = |v: &[Vec<f64>]| mean(&v.iter().map(|t| median(t)).collect::<Vec<_>>());
        (stat(&self.raw), stat(&self.norm))
    }
}

/// A fixed reference computation, timed next to the measured operations.
///
/// The host's speed swings by up to 1.7x for seconds at a time (other
/// tenants on shared cores); no run length averages that away. So every
/// reported time is normalized: wall time × `NOMINAL_REFERENCE_NS` / the
/// reference kernel's wall time at the same moment — the time the
/// operation would take on a host where the kernel takes exactly the
/// nominal time. Program changes move the normalized figure; host speed
/// swings move the operation and the kernel together. The kernel is the
/// benchmark's own code, so no program change can move it.
pub struct Reference {
    last_ns: f64,
    taken: Instant,
}

/// The reference kernel's nominal duration, about its duration on a
/// 2.1 GHz Xeon vCPU.
pub const NOMINAL_REFERENCE_NS: f64 = 200_000.0;

/// The kernel is re-timed once this much time has passed since it was
/// last timed.
const REFERENCE_EVERY: Duration = Duration::from_millis(5);

impl Reference {
    pub fn new() -> Reference {
        Reference {
            last_ns: reference_kernel_ns(),
            taken: Instant::now(),
        }
    }

    /// The factor turning a wall time measured now into a normalized one.
    pub fn scale(&mut self) -> f64 {
        if self.taken.elapsed() >= REFERENCE_EVERY {
            self.last_ns = reference_kernel_ns();
            self.taken = Instant::now();
        }
        NOMINAL_REFERENCE_NS / self.last_ns
    }
}

/// Accumulates the raw and normalized time spent in a sequence of steps,
/// re-reading the host speed before each.
pub struct Stopwatch {
    reference: Reference,
    pub raw_ns: f64,
    pub norm_ns: f64,
}

impl Stopwatch {
    pub fn new() -> Stopwatch {
        Stopwatch {
            reference: Reference::new(),
            raw_ns: 0.0,
            norm_ns: 0.0,
        }
    }

    pub fn time<T>(&mut self, step: impl FnOnce() -> T) -> T {
        let scale = self.reference.scale();
        let start = Instant::now();
        let out = step();
        let ns = ns_since(start);
        self.raw_ns += ns;
        self.norm_ns += ns * scale;
        out
    }
}

/// Best of two runs of two Floyd–Warshall passes over fixed matrices: a
/// 40-node i64 one, and a 24-node i128 one that folds every candidate
/// through an i128 remainder. Together they mix narrow and wide integer
/// arithmetic as the exact-rational pipeline does, so the kernel and the
/// pipeline slow down alike when the host does.
fn reference_kernel_ns() -> f64 {
    (0..2)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(floyd_warshall::<i64, 40>(false));
            std::hint::black_box(floyd_warshall::<i128, 24>(true));
            ns_since(start)
        })
        .fold(f64::INFINITY, f64::min)
}

fn floyd_warshall<T, const N: usize>(fold_remainders: bool) -> (Vec<T>, i128)
where
    T: Copy + Ord + std::ops::Add<Output = T> + From<u16> + Into<i128>,
{
    let modulus = std::hint::black_box(1_000_003i128);
    let mut d: Vec<T> = (0..N * N)
        .map(|i| T::from(((i * 7919) % 1000) as u16 + 1))
        .collect();
    let mut acc = 0i128;
    for k in 0..N {
        for i in 0..N {
            let dik = d[i * N + k];
            for j in 0..N {
                let via = dik + d[k * N + j];
                if fold_remainders {
                    acc ^= (via.into() * 2_654_435_761) % modulus;
                }
                if via < d[i * N + j] {
                    d[i * N + j] = via;
                }
            }
        }
    }
    (d, acc)
}

pub fn as_f64(values: &[Ratio]) -> Vec<f64> {
    values.iter().map(|r| r.to_f64()).collect()
}

/// The real worst disagreement of corrected clocks, which only an
/// observer who knows the hidden start times can compute.
pub fn true_discrepancy(starts: &[RealTime], corrections: &[f64]) -> f64 {
    let adjusted = starts
        .iter()
        .zip(corrections)
        .map(|(s, x)| s.as_nanos() as f64 - x);
    let (lo, hi) = adjusted.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), a| {
        (lo.min(a), hi.max(a))
    });
    hi - lo
}
