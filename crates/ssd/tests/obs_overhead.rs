//! A skewed-overwrite workload through the SSD's byte interface, driven
//! three ways: page-sized (4 KiB) device calls, extent-sized span calls
//! (the batching the cluster OSD performs per object I/O), and span calls
//! through the observability entry point with a no-op recorder. The three
//! do identical logical work, so they must end with identical wear.
//!
//! `obs_overhead_noop` also holds the no-op recorder's throughput to a
//! floor of the plain span path's. It times the workload, so it exists
//! only in release builds and is ignored by default:
//!
//! ```text
//! cargo test --release -p edm-ssd --test obs_overhead -- --ignored
//! ```

use edm_obs::NoopRecorder;
use edm_ssd::{Geometry, LatencyModel, Ssd, WearStats};

#[derive(Clone, Copy, Debug)]
enum Mode {
    PerPage,
    Span,
    SpanObsNoop,
}

const MODES: [Mode; 3] = [Mode::PerPage, Mode::Span, Mode::SpanObsNoop];

/// 128 blocks × 32 pages, 8 % OP: small enough that the mapping tables
/// stay cache-resident, so a timed run measures per-call FTL overhead
/// rather than DRAM misses.
fn geometry() -> Geometry {
    Geometry {
        page_size: 4096,
        pages_per_block: 32,
        blocks: 128,
        over_provision_ppt: 80,
    }
}

fn write_extent(ssd: &mut Ssd, offset: u64, pages: u64, mode: Mode) {
    let ps = ssd.geometry().page_size;
    match mode {
        Mode::Span => {
            ssd.write(offset, pages * ps).unwrap();
        }
        Mode::SpanObsNoop => {
            ssd.write_obs(offset, pages * ps, &mut NoopRecorder)
                .unwrap();
        }
        Mode::PerPage => {
            for p in 0..pages {
                ssd.write(offset + p * ps, ps).unwrap();
            }
        }
    }
}

/// Fills the live range (55 % of the exported pages) once, then
/// overwrites `span_pages`-page extents until `page_writes` pages have
/// been written, 90 % of them in the hot tenth of the extents. Extent
/// alignment keeps every mode on the same logical page sequence.
/// Returns the device and the number of pages written.
fn drive(page_writes: u64, span_pages: u64, mode: Mode) -> (Ssd, u64) {
    let g = geometry();
    let mut ssd = Ssd::new(g, LatencyModel::PAPER);
    let extent_bytes = span_pages * g.page_size;
    let live_extents = (g.exported_pages() * 11 / 20) / span_pages;
    let hot_extents = (live_extents / 10).max(1);
    let mut written = 0u64;
    for e in 0..live_extents {
        write_extent(&mut ssd, e * extent_bytes, span_pages, mode);
        written += span_pages;
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    while written < page_writes {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x >> 11;
        let extent = if r % 10 < 9 {
            r % hot_extents
        } else {
            r % live_extents
        };
        write_extent(&mut ssd, extent * extent_bytes, span_pages, mode);
        written += span_pages;
    }
    (ssd, written)
}

fn wear_after(page_writes: u64, span_pages: u64, mode: Mode) -> (u64, WearStats) {
    let (ssd, written) = drive(page_writes, span_pages, mode);
    ssd.check_invariants().unwrap();
    (written, ssd.wear().clone())
}

#[test]
fn span_per_page_and_noop_recorder_writes_leave_identical_wear() {
    let [per_page, span, noop] = MODES.map(|m| wear_after(100_000, 32, m));
    assert!(span.1.block_erases > 0, "the workload must exercise GC");
    assert_eq!(per_page, span, "span and per-page writes diverged");
    assert_eq!(noop, span, "writing through a no-op recorder changed wear");
}

/// 100k page writes in 32-page spans, best of 5 repetitions with the
/// three modes interleaved within each, so machine-load drift perturbs
/// them alike. The no-op recorder must keep at least 0.85 of the plain
/// span path's pages/s.
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "timing floor; run in release with -- --ignored"]
#[allow(clippy::disallowed_methods)] // wall-clock timing of the workload
fn obs_overhead_noop() {
    use std::time::Instant;

    const PAGE_WRITES: u64 = 100_000;
    const FLOOR: f64 = 0.85;
    let mut best = [f64::INFINITY; 3];
    let mut written = 0;
    for _ in 0..5 {
        for (slot, &mode) in MODES.iter().enumerate() {
            let started = Instant::now();
            // Bound, not `_`: the device drops after the clock is read.
            let (_ssd, pages) = drive(PAGE_WRITES, 32, mode);
            best[slot] = best[slot].min(started.elapsed().as_secs_f64());
            written = pages;
        }
    }
    let [per_page, span, noop] = best.map(|wall| written as f64 / wall);
    println!(
        "per-page {per_page:.0} pages/s, span {span:.0} pages/s, \
         span + no-op recorder {noop:.0} pages/s ({:.3}x of span)",
        noop / span
    );
    assert!(
        noop >= span * FLOOR,
        "no-op recorder overhead too high: {noop:.0} pages/s with it vs \
         {span:.0} without (floor {FLOOR})"
    );
}
