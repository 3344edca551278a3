//! edm-perf: tracked performance harness.
//!
//! Runs pinned workloads with wall-clock timing and appends the results
//! to `BENCH_edm.json`, so simulator throughput is tracked the same way
//! the paper's figures are:
//!
//! * `ftl_micro_*` — a skewed-overwrite microbenchmark through the SSD's
//!   byte interface (≥1M page writes at full size), run twice: once as
//!   page-sized (4 KiB) device calls, once as extent-sized span calls —
//!   the same batching the cluster OSD performs per object I/O. The two
//!   variants perform identical logical work (the span path is
//!   bit-identical by construction — the harness asserts the erase counts
//!   and wear stats match), so their ratio isolates the per-call overhead
//!   the span batching removes.
//! * `fig5_*` — one end-to-end cluster cell per trace class (harvard
//!   presets + the Fig. 3 random workload), timing the full
//!   synthesize → build → warm-up → replay pipeline.
//! * `snapshot_save` / `snapshot_restore` — encode/decode throughput of a
//!   real mid-run checkpoint (the `edm-snap` single-file format), with
//!   the round trip asserted byte-identical.
//!
//! `--smoke` shrinks every workload to a few seconds' worth for CI-style
//! sanity runs (`scripts/check.sh`); the JSON schema is identical.

use std::time::Instant;

use edm_cluster::{MigrationSchedule, SnapManifest};
use edm_harness::bench::{write_cells, BenchCell};
use edm_harness::runner::{run_cell, Cell, RunConfig};
use edm_harness::Scenario;
use edm_obs::NoopRecorder;
use edm_snap::SnapshotFile;
use edm_ssd::{Geometry, LatencyModel, Ssd, WearStats};

/// The microbenchmark's fixed geometry: 128 blocks × 32 pages, 8 % OP —
/// small enough that the mapping tables stay cache-resident, so the
/// measurement isolates per-call FTL overhead rather than DRAM misses.
fn micro_geometry() -> Geometry {
    Geometry {
        page_size: 4096,
        pages_per_block: 32,
        blocks: 128,
        over_provision_ppt: 80,
    }
}

/// Skewed extent-aligned overwrites: 90 % of extents land in the hot
/// tenth of the live range. Extent alignment keeps the page-by-page and
/// span variants on the exact same logical access sequence.
/// How the microbenchmark drives the SSD.
#[derive(Clone, Copy, PartialEq)]
enum MicroMode {
    /// Page-sized (4 KiB) device calls.
    PerPage,
    /// Extent-sized span calls (the cluster OSD's batching).
    Span,
    /// Span calls through the observability entry point with a no-op
    /// recorder — isolates the cost of the `&mut dyn Recorder` plumbing.
    SpanObsNoop,
}

fn ftl_micro(page_writes: u64, span_pages: u64, mode: MicroMode) -> (f64, u64, WearStats) {
    let g = micro_geometry();
    let mut ssd = Ssd::new(g, LatencyModel::PAPER);
    let ps = g.page_size;
    let live_extents = (g.exported_pages() * 11 / 20) / span_pages;
    let hot_extents = (live_extents / 10).max(1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
    let started = Instant::now();
    // Fill the live range once, then hammer it with skewed overwrites.
    let mut written = 0u64;
    for e in 0..live_extents {
        write_extent(&mut ssd, e * span_pages * ps, span_pages, ps, mode);
        written += span_pages;
    }
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
        write_extent(&mut ssd, extent * span_pages * ps, span_pages, ps, mode);
        written += span_pages;
    }
    let wall = started.elapsed().as_secs_f64();
    ssd.check_invariants().expect("SSD invariants violated");
    (wall, written, ssd.wear().clone())
}

fn write_extent(ssd: &mut Ssd, offset: u64, pages: u64, page_size: u64, mode: MicroMode) {
    match mode {
        MicroMode::Span => {
            ssd.write(offset, pages * page_size)
                .expect("span write failed");
        }
        MicroMode::SpanObsNoop => {
            ssd.write_obs(offset, pages * page_size, &mut NoopRecorder)
                .expect("span write failed");
        }
        MicroMode::PerPage => {
            for p in 0..pages {
                ssd.write(offset + p * page_size, page_size)
                    .expect("page write failed");
            }
        }
    }
}

fn run_micro(
    page_writes: u64,
    span_pages: u64,
    reps: u32,
    obs_floor: f64,
    results: &mut Vec<BenchCell>,
) {
    // Best-of-N wall time: the workload is deterministic, so the fastest
    // repetition is the least-perturbed measurement of the same work. The
    // modes are interleaved within each repetition so machine-load drift
    // over the measurement window perturbs all three alike.
    const MODES: [MicroMode; 3] = [MicroMode::PerPage, MicroMode::Span, MicroMode::SpanObsNoop];
    let mut bests: [Option<(f64, u64, WearStats)>; 3] = [None, None, None];
    for _ in 0..reps {
        for (slot, &mode) in MODES.iter().enumerate() {
            let run = ftl_micro(page_writes, span_pages, mode);
            if bests[slot].as_ref().is_none_or(|b| run.0 < b.0) {
                bests[slot] = Some(run);
            }
        }
    }
    let mut bests = bests
        .into_iter()
        .map(|b| b.expect("at least one repetition"));
    let (page_wall, page_written, page_stats) = bests.next().unwrap();
    let (span_wall, span_written, span_stats) = bests.next().unwrap();
    let (obs_wall, obs_written, obs_stats) = bests.next().unwrap();
    assert_eq!(page_written, span_written);
    assert_eq!(obs_written, span_written);
    assert_eq!(
        page_stats, span_stats,
        "span and per-page variants diverged — determinism broken"
    );
    assert_eq!(
        obs_stats, span_stats,
        "obs and plain span variants diverged — recording is not read-only"
    );
    let page_ops = page_written as f64 / page_wall;
    let span_ops = span_written as f64 / span_wall;
    let obs_ops = obs_written as f64 / obs_wall;
    assert!(
        obs_ops >= span_ops * obs_floor,
        "no-op recorder overhead too high: {obs_ops:.0} pages/s with obs vs \
         {span_ops:.0} without (floor {obs_floor})"
    );
    results.push(BenchCell {
        name: "ftl_micro_per_page".into(),
        wall_ms: page_wall * 1e3,
        ops_per_sec: page_ops,
        erases: page_stats.block_erases,
    });
    results.push(BenchCell {
        name: "ftl_micro_span".into(),
        wall_ms: span_wall * 1e3,
        ops_per_sec: span_ops,
        erases: span_stats.block_erases,
    });
    results.push(BenchCell {
        name: "obs_overhead_noop".into(),
        wall_ms: obs_wall * 1e3,
        ops_per_sec: obs_ops,
        erases: obs_stats.block_erases,
    });
    println!(
        "ftl_micro: {page_written} page writes, per-page {:.0} pages/s, span {:.0} pages/s \
         ({:.2}x), {} erases",
        page_ops,
        span_ops,
        span_ops / page_ops,
        page_stats.block_erases
    );
    println!(
        "obs_overhead_noop: {:.0} pages/s ({:.3}x of span)",
        obs_ops,
        obs_ops / span_ops
    );
}

fn run_fig5_cells(scale: f64, results: &mut Vec<BenchCell>) {
    let cfg = RunConfig {
        scale,
        schedule: MigrationSchedule::Midpoint,
        response_window_us: None,
        jobs: None,
    };
    for (trace, policy) in [
        ("home02", "EDM-HDF"),
        ("deasna", "EDM-CDF"),
        ("lair62", "CMT"),
        ("random", "Baseline"),
    ] {
        let cell = Cell::new(trace, policy, 8);
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        let report = run_cell(&cell, &cfg);
        let wall = started.elapsed().as_secs_f64();
        let ops = report.completed_ops as f64 / wall;
        println!(
            "fig5_{trace}_{policy}: {:.1} ms wall, {:.0} ops/s, {} erases",
            wall * 1e3,
            ops,
            report.aggregate_erases()
        );
        results.push(BenchCell {
            name: format!("fig5_{trace}_{policy}"),
            wall_ms: wall * 1e3,
            ops_per_sec: ops,
            erases: report.aggregate_erases(),
        });
    }
}

/// Times the snapshot format itself: `snapshot_save` re-encodes a real
/// mid-run checkpoint to disk (asserting the round trip is byte-identical
/// — the encoder is canonical), `snapshot_restore` parses and
/// CRC-verifies it back into sections. Best-of-N on a deterministic
/// input, throughput in snapshot bytes/s.
fn run_snapshot_cells(scale: f64, reps: u32, results: &mut Vec<BenchCell>) {
    let dir = std::env::temp_dir().join(format!("edm-perf-snap-{}", std::process::id()));
    let scenario = Scenario::parse(&format!(
        "trace deasna\nscale {scale}\nosds 8\npolicy EDM-HDF\nschedule every-tick\n"
    ))
    .expect("snapshot-cell scenario");
    scenario
        .run_with_obs_checkpointed(&mut NoopRecorder, Some((0, dir.clone())))
        .expect("snapshot-cell run failed");
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir unreadable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    snaps.sort();
    let path = snaps.last().expect("run produced no checkpoints").clone();
    let bytes = std::fs::read(&path).expect("checkpoint unreadable");
    let erases: u64 = SnapManifest::from_snapshot(
        &SnapshotFile::from_bytes(&bytes).expect("checkpoint does not parse"),
    )
    .expect("checkpoint has no manifest")
    .per_osd_erases
    .iter()
    .sum();

    let rewrite = dir.join("rewrite.snap");
    let mut save_wall = f64::INFINITY;
    for _ in 0..reps {
        let snap = SnapshotFile::from_bytes(&bytes).expect("checkpoint does not parse");
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        snap.write_to(&rewrite).expect("rewrite failed");
        save_wall = save_wall.min(started.elapsed().as_secs_f64());
        assert_eq!(
            std::fs::read(&rewrite).expect("rewrite unreadable"),
            bytes,
            "snapshot round trip is not byte-identical"
        );
    }
    // Restore is far below the OS timer's useful resolution for small
    // checkpoints, and a single timed call once reported a nonsense
    // tens-of-GB/s rate. Each repetition therefore loops the parse until
    // a wall-clock floor is reached and divides by the iteration count;
    // best-of-N over those honest per-call means.
    let restore_wall = best_of_floored(reps, 0.02, || {
        // Parsing alone only splits the byte stream; opening a reader per
        // section is what runs the CRC over every body, which is the work
        // a real restore pays before trusting the data.
        let reparsed = SnapshotFile::from_bytes(&bytes).expect("checkpoint does not parse");
        let names: Vec<String> = reparsed.section_names().map(String::from).collect();
        for name in &names {
            reparsed.reader(name).expect("section CRC mismatch");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    for (name, wall) in [
        ("snapshot_save", save_wall),
        ("snapshot_restore", restore_wall),
    ] {
        let bps = bytes.len() as f64 / wall;
        println!(
            "{name}: {:.3} ms for {} bytes ({:.1} MB/s)",
            wall * 1e3,
            bytes.len(),
            bps / 1e6
        );
        results.push(BenchCell {
            name: name.into(),
            wall_ms: wall * 1e3,
            ops_per_sec: bps,
            erases,
        });
    }
}

/// Best-of-`reps` mean wall time per call of `op`, where each repetition
/// loops `op` until `floor_s` seconds have elapsed. The floor keeps
/// sub-microsecond operations honest: a single call sits below the
/// timer's useful resolution and reports garbage rates.
fn best_of_floored(reps: u32, floor_s: f64, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut iters = 0u64;
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        loop {
            op();
            iters += 1;
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= floor_s {
                best = best.min(elapsed / iters as f64);
                break;
            }
        }
    }
    best
}

/// Calendar-vs-heap event queue microbenchmark, shaped like the
/// simulator's hot loop: a steady population of pending events where each
/// pop schedules a successor a short, skewed distance into the future
/// (request/completion chains), so the calendar's rolling window stays
/// loaded the way a replay loads it. Both queues process the identical
/// sequence; the fold of popped entries is asserted equal, re-verifying
/// order equivalence while timing. `ops_per_sec` is pop+push pairs/s.
fn run_equeue_cells(events: u64, reps: u32, results: &mut Vec<BenchCell>) {
    use edm_cluster::equeue::{CalendarQueue, EventQueue, HeapQueue};

    fn drive<Q: EventQueue<u64>>(q: &mut Q, events: u64) -> u64 {
        let mut seq = 0u64;
        for i in 0..4096u64 {
            q.push(i % 97, seq, i);
            seq += 1;
        }
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut acc = 0u64;
        for _ in 0..events {
            let (at, _, v) = q.pop().expect("population is steady");
            acc = acc.wrapping_add(v.wrapping_mul(31).wrapping_add(at));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 90 % short hops (completion chains), 10 % long (wear ticks).
            let delta = if (x >> 33) % 10 < 9 {
                (x >> 40) % 64 + 1
            } else {
                (x >> 40) % 4096 + 1
            };
            q.push(at + delta, seq, v);
            seq += 1;
        }
        acc
    }

    let mut heap_wall = f64::INFINITY;
    let mut cal_wall = f64::INFINITY;
    let mut heap_acc = 0u64;
    let mut cal_acc = 0u64;
    for _ in 0..reps {
        let mut q = HeapQueue::new();
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        heap_acc = drive(&mut q, events);
        heap_wall = heap_wall.min(started.elapsed().as_secs_f64());

        let mut q = CalendarQueue::new();
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        cal_acc = drive(&mut q, events);
        cal_wall = cal_wall.min(started.elapsed().as_secs_f64());
    }
    assert_eq!(
        heap_acc, cal_acc,
        "calendar and heap queues popped different sequences"
    );
    for (name, wall) in [
        ("event_queue_heap", heap_wall),
        ("event_queue_calendar", cal_wall),
    ] {
        println!(
            "{name}: {} events in {:.1} ms ({:.0} events/s)",
            events,
            wall * 1e3,
            events as f64 / wall
        );
        results.push(BenchCell {
            name: name.into(),
            wall_ms: wall * 1e3,
            ops_per_sec: events as f64 / wall,
            erases: 0,
        });
    }
    println!(
        "event_queue: calendar is {:.2}x of heap",
        heap_wall / cal_wall
    );
}

/// The datacenter-scale cell: one large cluster replayed on the
/// sequential engine (see the `scale` experiment). `ops_per_sec` is
/// replayed trace ops/s. Smoke runs use the 16-OSD smoke shape under
/// the same cell name; the tracked numbers come from full runs of the
/// 1024-OSD shape.
fn run_scale_cells(smoke: bool, results: &mut Vec<BenchCell>) {
    use edm_harness::experiments::scale;
    let cfg = if smoke {
        scale::ScaleConfig::smoke(0.002)
    } else {
        scale::ScaleConfig::datacenter(0.02, 0)
    };
    let run = scale::run(&cfg);
    println!("{}", scale::render(&cfg, &run));
    results.push(BenchCell {
        name: "scale_1024osd".into(),
        wall_ms: run.wall_s * 1e3,
        ops_per_sec: run.report.completed_ops as f64 / run.wall_s,
        erases: run.report.aggregate_erases(),
    });
}

/// Times a full workspace scan by the static analyzer. The auditor runs
/// on every `cargo test` and in `scripts/check.sh`, so its wall time is
/// part of the edit-compile-check loop and worth tracking like any
/// other hot path. `ops_per_sec` is files scanned per second.
fn run_audit_cell(reps: u32, results: &mut Vec<BenchCell>) {
    let cwd = std::env::current_dir().expect("cwd");
    let root = edm_audit::find_workspace_root(&cwd).expect("workspace root above cwd");
    let mut wall = f64::INFINITY;
    let mut scanned = 0usize;
    for _ in 0..reps {
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        let outcome = edm_audit::audit_workspace(&root).expect("workspace scan failed");
        wall = wall.min(started.elapsed().as_secs_f64());
        assert!(
            outcome.is_clean(),
            "edm-audit found unsuppressed findings:\n{}",
            outcome.render_text()
        );
        scanned = outcome.files_scanned;
    }
    let fps = scanned as f64 / wall;
    println!(
        "audit_workspace: {:.3} ms for {scanned} files ({fps:.0} files/s)",
        wall * 1e3
    );
    results.push(BenchCell {
        name: "audit_workspace".into(),
        wall_ms: wall * 1e3,
        ops_per_sec: fps,
        erases: 0,
    });
}

/// Times only the auditor's semantic layer — symbol-graph construction
/// plus the interprocedural passes (det.taint fixpoint, lock-order
/// simulation, unit inference) — over the pre-loaded workspace sources.
/// Splitting this from `audit_workspace` keeps the cost of the new
/// analyses visible separately from lexing/parsing/rule I/O.
/// `ops_per_sec` is files analyzed per second.
fn run_audit_semantic_cell(reps: u32, results: &mut Vec<BenchCell>) {
    let cwd = std::env::current_dir().expect("cwd");
    let root = edm_audit::find_workspace_root(&cwd).expect("workspace root above cwd");
    // Loading (lex + parse) happens once, outside the timed region.
    let files = edm_audit::load_workspace_sources(&root).expect("workspace sources");
    let mut wall = f64::INFINITY;
    for _ in 0..reps {
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        let findings = edm_audit::semantic_findings(&files);
        wall = wall.min(started.elapsed().as_secs_f64());
        // Raw findings here are pre-suppression; the workspace budget
        // allows a handful, but an explosion means a rule regressed.
        assert!(
            findings.len() < 50,
            "semantic pass exploded to {} raw findings",
            findings.len()
        );
    }
    let fps = files.len() as f64 / wall;
    println!(
        "audit_semantic: {:.3} ms for {} files ({fps:.0} files/s)",
        wall * 1e3,
        files.len()
    );
    results.push(BenchCell {
        name: "audit_semantic".into(),
        wall_ms: wall * 1e3,
        ops_per_sec: fps,
        erases: 0,
    });
}

/// Times the edm-serve ingest path: the daemon's `LiveWorld` fed the
/// dumped op stream of the fuzz-corpus live scenario, line by line,
/// through the same `apply_line` entry point the HTTP daemon drives —
/// parse, placement lookup, device I/O, wear ticks, and any migrations
/// they trigger, all in-process with a no-op recorder. `ops_per_sec` is
/// ingested op lines per second: the ceiling on what one daemon session
/// can absorb before the HTTP layer even matters.
fn run_serve_ingest_cell(scale: f64, reps: u32, results: &mut Vec<BenchCell>) {
    use edm_serve::{dump_ops, ApplyOutcome, LiveWorld};

    let scenario = || {
        Scenario::parse(&format!(
            "trace random\nscale {scale}\nschedule every-tick\nlambda 0.05\n"
        ))
        .expect("serve-cell scenario")
    };
    let ops = dump_ops(&scenario());
    let lines: Vec<&str> = ops.lines().collect();
    let mut wall = f64::INFINITY;
    let mut baseline = None;
    let mut erases = 0u64;
    for _ in 0..reps {
        let mut world = LiveWorld::new(scenario()).expect("live world rejected the scenario");
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        for line in &lines {
            match world.apply_line(line, &mut NoopRecorder) {
                ApplyOutcome::Applied { .. } => {}
                other => panic!("corpus op line rejected: {other:?}"),
            }
        }
        wall = wall.min(started.elapsed().as_secs_f64());
        let stats = world.stats();
        assert_eq!(stats.applied_ops, lines.len() as u64);
        assert!(stats.ticks > 0, "ingest never crossed a wear tick");
        assert!(stats.moved_objects > 0, "ingest never migrated");
        // Same stream, same world: repetitions must be bit-identical.
        match &baseline {
            None => baseline = Some(stats),
            Some(first) => assert_eq!(
                *first, stats,
                "serve ingest diverged across repetitions — determinism broken"
            ),
        }
        erases = (0..world.cluster().config.osds)
            .map(|o| {
                world
                    .cluster()
                    .osd(edm_cluster::OsdId(o))
                    .ssd()
                    .wear()
                    .block_erases
            })
            .sum();
    }
    let ops_s = lines.len() as f64 / wall;
    println!(
        "serve_ingest: {} op lines in {:.1} ms ({ops_s:.0} ops/s), {erases} erases",
        lines.len(),
        wall * 1e3
    );
    results.push(BenchCell {
        name: "serve_ingest".into(),
        wall_ms: wall * 1e3,
        ops_per_sec: ops_s,
        erases,
    });
}

/// Times the `edm-spec` conformance replay over the obs smoke journal
/// (the same shape `check.sh spec` verifies). `ops_per_sec` is journal
/// events verified per second — the per-event cost of the gate step.
fn run_spec_cell(reps: u32, results: &mut Vec<BenchCell>) {
    let s = Scenario::parse(
        "trace home02\nscale 0.004\nosds 8\ngroups 4\npolicy EDM-HDF\n\
         schedule midpoint\nforce true\n",
    )
    .expect("spec smoke scenario");
    let mut rec = edm_obs::MemoryRecorder::new(edm_obs::ObsLevel::Events);
    s.run_with_obs(&mut rec).expect("spec smoke run failed");
    let mut journal = Vec::new();
    rec.write_jsonl(&mut journal)
        .expect("journal render failed");
    let journal = String::from_utf8(journal).expect("journal is UTF-8");

    let mut wall = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..reps {
        #[allow(clippy::disallowed_methods)] // wall-clock timing at the process boundary
        let started = Instant::now();
        let report = edm_spec::verify_journal(&journal);
        wall = wall.min(started.elapsed().as_secs_f64());
        assert!(
            report.ok(),
            "smoke journal must conform: {:?}",
            report.violation
        );
        events = report.events;
    }
    let eps = events as f64 / wall;
    println!(
        "spec_check: {:.3} ms for {events} events ({eps:.0} events/s)",
        wall * 1e3
    );
    results.push(BenchCell {
        name: "spec_check".into(),
        wall_ms: wall * 1e3,
        ops_per_sec: eps,
        erases: 0,
    });
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut results = Vec::new();
    if smoke {
        // A few seconds total: enough to catch harness rot, not enough to
        // be a meaningful measurement — hence the extra repetitions (each
        // ~2 ms) and the loose overhead floor.
        run_micro(100_000, 32, 5, 0.85, &mut results);
        run_fig5_cells(0.001, &mut results);
        run_equeue_cells(200_000, 3, &mut results);
        run_scale_cells(true, &mut results);
        run_snapshot_cells(0.001, 3, &mut results);
        run_serve_ingest_cell(0.002, 3, &mut results);
        run_audit_cell(3, &mut results);
        run_audit_semantic_cell(3, &mut results);
        run_spec_cell(3, &mut results);
    } else {
        // The 0.95 floor is a regression guard, not the measurement: the
        // recorded `obs_overhead_noop` cell is the actual overhead number
        // (at parity on quiet machines), while the floor only has to stay
        // clear of shared-container scheduling noise (~5 % tail even with
        // interleaved best-of-7).
        run_micro(1_500_000, 32, 7, 0.95, &mut results);
        run_fig5_cells(0.005, &mut results);
        run_equeue_cells(2_000_000, 5, &mut results);
        run_scale_cells(false, &mut results);
        run_snapshot_cells(0.005, 7, &mut results);
        run_serve_ingest_cell(0.01, 5, &mut results);
        run_audit_cell(7, &mut results);
        run_audit_semantic_cell(7, &mut results);
        run_spec_cell(7, &mut results);
    }
    // Merge-preserving: cells owned by other tools (edm-fuzz's
    // fuzz_throughput) survive a perf rewrite.
    write_cells("BENCH_edm.json", &results).expect("writing BENCH_edm.json failed");
    println!("wrote BENCH_edm.json ({} entries)", results.len());
}
