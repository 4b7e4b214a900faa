//! A `batch` command decodes in one pass: no JSON tree, no allocation
//! per observation, and transient memory about the size of the decoded
//! observations. The tree walk this replaced took 653 allocations for a
//! 64-observation frame and 40,979 for a 4,096-observation one, and held
//! about 6.5 times the frame's bytes.
//!
//! A counting global allocator records, while the decode runs, how many
//! allocations it makes and the most bytes live at once, so the check
//! reads work counts, not the host's timing. This binary holds one test:
//! a second one running alongside would allocate into the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use clocksync_cli::serve::{decode_command, Command};
use clocksync_obs::Recorder;

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        // Saturating: a block allocated before arming may be freed after.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size))
        });
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters only read the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    /// Counted as an allocation of the new size that holds the old block
    /// until it returns, as a moving reallocation does.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one decode allocated.
#[derive(Debug, Clone, Copy)]
struct Allocated {
    allocations: usize,
    /// The most bytes live at once, over what was live before.
    peak_bytes: usize,
}

fn allocations<R>(f: impl FnOnce() -> R) -> (R, Allocated) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let result = f();
    ARMED.store(false, Ordering::Relaxed);
    let allocated = Allocated {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    };
    (result, allocated)
}

/// A batch frame as perfbench's prefill and `loadgen` send them: rows on
/// the links of a 192-node domain, with nanosecond readings of ten digits.
fn frame(rows: usize) -> String {
    let obs: Vec<String> = (0..rows)
        .map(|i| {
            let (src, dst) = (i * 7 % 192, (i * 7 + 1) % 192);
            let send = 1_000_000_000 + 10_000 * i as i64;
            format!("[{src},{dst},{send},{}]", send + 150_000 + (i % 600) as i64)
        })
        .collect();
    format!(
        r#"{{"t":"batch","domain":"bench-0","obs":[{}]}}"#,
        obs.join(",")
    )
}

#[test]
fn a_batch_frame_decodes_in_a_few_allocations_and_about_its_own_size() {
    let recorder = Recorder::disabled();
    for rows in [64, 4096] {
        let text = frame(rows);
        let (command, allocated) = allocations(|| decode_command(&text, &recorder));
        match command {
            Ok(Command::Batch(batch)) => assert_eq!(batch.observations.len(), rows),
            other => panic!("{rows} rows decoded as {other:?}"),
        }
        assert!(
            allocated.allocations <= 32,
            "{rows} rows: {allocated:?} for a {}-byte frame",
            text.len()
        );
        assert!(
            allocated.peak_bytes <= 2 * text.len(),
            "{rows} rows: {allocated:?} for a {}-byte frame",
            text.len()
        );
    }
}
