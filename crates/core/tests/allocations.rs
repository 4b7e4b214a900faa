//! Evidence and local estimates live per declared link, so neither batch
//! synchronization nor the online engine allocates an `n × n` table wider
//! than an `i64` count: the closure's counts are the widest table either
//! builds. A warm step builds only one table that size: the copy of the
//! cached closure its outcome keeps. Observing a message relaxes the
//! cache in place, and the corrections pass forms its weights as it goes.
//!
//! A counting global allocator records, while a call runs, the largest
//! single allocation and how many allocations reach `8·n²` bytes, so the
//! check reads allocation sizes, not the host's memory or timing. This
//! binary holds one test: a second one running alongside would allocate
//! into the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use clocksync::{
    BatchObservation, DelayRange, LinkAssumption, Network, OnlineSynchronizer, Synchronizer,
};
use clocksync_model::{Execution, ExecutionBuilder, ProcessorId};
use clocksync_time::{ClockTime, Nanos, RealTime};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TABLE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
static TABLES: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        if size >= TABLE_BYTES.load(Ordering::Relaxed) {
            TABLES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter only reads the requested size.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one call allocated.
#[derive(Debug, Clone, Copy)]
struct Allocated {
    /// The largest single allocation, in bytes.
    largest: usize,
    /// Allocations of at least `table_bytes`.
    tables: usize,
}

/// Runs `f`, returning its result and what it allocated, counting the
/// allocations of at least `table_bytes` bytes as tables.
fn allocations<R>(table_bytes: usize, f: impl FnOnce() -> R) -> (R, Allocated) {
    LARGEST.store(0, Ordering::Relaxed);
    TABLES.store(0, Ordering::Relaxed);
    TABLE_BYTES.store(table_bytes, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let result = f();
    ARMED.store(false, Ordering::Relaxed);
    let allocated = Allocated {
        largest: LARGEST.load(Ordering::Relaxed),
        tables: TABLES.load(Ordering::Relaxed),
    };
    (result, allocated)
}

/// The real start time of processor `p`'s clock, in ns.
fn start(p: usize) -> i64 {
    (p * 7_919 % 10_000) as i64
}

/// An `n`-node ring with chords to the node seven ahead, one round trip per
/// link between clocks that start up to 10 µs apart: 2n links, so the
/// 256-node domain is sparse enough for Johnson and the 64-node one runs
/// the dense kernel.
fn domain(n: usize) -> (Network, Execution) {
    let bounds = LinkAssumption::symmetric_bounds(DelayRange::new(Nanos::ZERO, Nanos::new(9_000)));
    let mut net = Network::builder(n);
    let mut exec = ExecutionBuilder::new(n);
    for p in 0..n {
        exec = exec.start(ProcessorId(p), RealTime::from_nanos(start(p)));
    }
    for p in 0..n {
        for (k, q) in [(p + 1) % n, (p + 7) % n].into_iter().enumerate() {
            let (a, b) = (ProcessorId(p), ProcessorId(q));
            net = net.link(a, b, bounds.clone());
            let at = RealTime::from_nanos(100_000 + 10_000 * (2 * p + k) as i64);
            let (there, back) = (1_000 + (p * 37 % 500) as i64, 1_200 + (q * 53 % 700) as i64);
            exec = exec.round_trips(
                a,
                b,
                1,
                at,
                Nanos::ZERO,
                Nanos::new(there),
                Nanos::new(back),
            );
        }
    }
    (net.build(), exec.build().expect("a valid execution"))
}

/// The report of a message from `src` to `dst` sent at real time `at` ns
/// with delay `d` ns: both endpoints' clock readings.
fn message(src: usize, dst: usize, at: i64, d: i64) -> BatchObservation {
    BatchObservation {
        src: ProcessorId(src),
        dst: ProcessorId(dst),
        send_clock: ClockTime::from_nanos(at - start(src)),
        recv_clock: ClockTime::from_nanos(at + d - start(dst)),
    }
}

#[test]
fn no_call_allocates_an_n_by_n_table_wider_than_a_count() {
    for n in [256, 64] {
        let (net, exec) = domain(n);
        let views = exec.views();
        let (bound, table) = (16 * n * n, 8 * n * n);
        let check = |what: &str, allocated: Allocated| {
            assert!(
                allocated.largest < bound,
                "n = {n}: {what} allocated {} bytes at once, at least 16·n² = {bound}",
                allocated.largest
            );
        };
        // The calls of a warm step: how many n × n tables each allocates.
        let tables = |what: &str, allocated: Allocated, expected: usize| {
            check(what, allocated);
            assert_eq!(
                allocated.tables, expected,
                "n = {n}: {what} made {} allocations of at least 8·n² = {table} bytes",
                allocated.tables
            );
        };

        let sync = Synchronizer::new(net.clone());
        let (batch, allocated) = allocations(table, || sync.synchronize(views));
        let batch = batch.expect("a consistent execution");
        check("synchronize", allocated);

        let (mut online, allocated) = allocations(table, || OnlineSynchronizer::new(net.clone()));
        check("OnlineSynchronizer::new", allocated);
        let (ingested, allocated) = allocations(table, || online.ingest_views(views));
        ingested.expect("matching sizes");
        check("ingest_views", allocated);
        let (cold, allocated) = allocations(table, || online.outcome());
        check("a cold outcome", allocated);
        assert_eq!(cold.expect("consistent"), batch);

        // Faster messages on link 0–1 tighten it: a batch, then one
        // message, each followed by a warm outcome, which copies the cache
        // and allocates no other table that size.
        let stream = [
            message(0, 1, 10_000_000, 900),
            message(1, 0, 10_001_000, 800),
        ];
        let (applied, allocated) = allocations(table, || online.ingest_batch(&stream));
        assert_eq!(applied, Ok(2));
        tables("ingest_batch", allocated, 0);
        let (warm, allocated) = allocations(table, || online.outcome());
        warm.expect("consistent");
        tables("a warm outcome", allocated, 1);
        let m = message(0, 1, 10_002_000, 850);
        let (_, allocated) = allocations(table, || {
            online.observe_message(m.src, m.dst, m.send_clock, m.recv_clock)
        });
        tables("observe_message", allocated, 0);
        let (warm, allocated) = allocations(table, || online.outcome());
        warm.expect("consistent");
        tables("a warm outcome", allocated, 1);
    }
}
