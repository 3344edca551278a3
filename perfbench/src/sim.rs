//! One repetition of a simulator workload (`paper16`, `dc1024`,
//! `journal_verify`), run in its own process.
//!
//! The replay goes through `run_trace_obs_keep` on the default
//! sequential engine, exactly as `edm-sim` runs a scenario; the only
//! difference is that the trace comes from the benchmark's seed.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use edm_cluster::{run_trace_obs_keep, Cluster, OsdId, RunReport};
use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel, Recorder};
use edm_scenario::{report_digest, Scenario};

use crate::input::seeded_trace;
use crate::ledger::{Ledger, TimedMigrator, TimedRecorder};
use crate::out::Out;
use crate::proc::{peak_rss_mb, run_until};

/// Runs one repetition and reports its measurements to `out`.
/// `journal` is `Some((path, edm-probe))` for `journal_verify`.
pub fn rep(
    scenario: &Scenario,
    seed: u64,
    traced: bool,
    journal: Option<(&Path, &Path)>,
    out: &mut Out,
) -> Result<(), String> {
    let start = Instant::now();
    let trace = seeded_trace(scenario, seed);
    let synth_s = start.elapsed().as_secs_f64();
    let records = trace.records.len() as u64;
    out.attempted(records);
    let build = Instant::now();
    let cluster = scenario.build_cluster(&trace)?;
    let mut policy = scenario.build_policy()?;
    let build_s = build.elapsed().as_secs_f64();
    let setup_s = start.elapsed().as_secs_f64();

    let mut memory = MemoryRecorder::new(ObsLevel::Events);
    let mut noop = NoopRecorder;
    let inner: &mut dyn Recorder = if journal.is_some() {
        &mut memory
    } else {
        &mut noop
    };
    let options = scenario.sim_options();
    let replay = Instant::now();
    let (report, cluster, replay_s) = if traced {
        let ledger = Ledger::default();
        let mut migrator = TimedMigrator {
            inner: policy.as_mut(),
            ledger: &ledger,
        };
        let mut recorder = TimedRecorder::new(inner, &ledger);
        let (report, cluster) =
            run_trace_obs_keep(cluster, &trace, &mut migrator, options, &mut recorder);
        let replay_s = replay.elapsed().as_secs_f64();
        ledger_lines(&ledger, &recorder, replay_s, out);
        (report, cluster, replay_s)
    } else {
        let (report, cluster) =
            run_trace_obs_keep(cluster, &trace, policy.as_mut(), options, inner);
        (report, cluster, replay.elapsed().as_secs_f64())
    };

    check_run(&report, &cluster, records, out);
    out.value("workload.synth_s", synth_s);
    out.value("workload.records", records as f64);
    out.value("cluster.build_s", build_s);
    out.value("setup_s", setup_s);
    out.value("replay_s", replay_s);
    out.text("digest", &format!("{:#018x}", report_digest(&report)));
    out.value("sim_erase_rsd", report.erase_rsd());
    out.value("sim_aggregate_erases", report.aggregate_erases() as f64);
    out.value("sim_mean_response_ms", report.mean_response_us / 1e3);

    let mut work_s = replay_s;
    let mut probe_peak_mb = 0.0;
    if let Some((path, probe)) = journal {
        let encode = Instant::now();
        write_journal(&memory, path)?;
        let encode_s = encode.elapsed().as_secs_f64();
        drop(memory);
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        let mut cmd = Command::new(probe);
        cmd.arg("--verify").arg(path);
        let verify = Instant::now();
        let run = run_until(cmd, None)?;
        let verify_s = verify.elapsed().as_secs_f64();
        std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let events = verified_events(&run.stdout);
        if !run.success || !run.stdout.contains("conformant:") || events.is_none() {
            out.fail(
                records,
                "edm-probe --verify did not report a conformant journal",
            );
        }
        let events = events.unwrap_or(0);
        work_s += encode_s + verify_s;
        probe_peak_mb = run.peak_rss_mb;
        out.value("obs.encode_s", encode_s);
        out.value("obs.journal_bytes", bytes as f64);
        out.value("obs.bytes_per_op", bytes as f64 / records as f64);
        out.value("spec.events", events as f64);
        out.value("spec.verify_s", verify_s);
        out.value("spec.events_per_s", events as f64 / verify_s);
    }
    out.value("work_s", work_s);
    let own_peak_mb = peak_rss_mb(std::process::id()).unwrap_or(0.0);
    out.value("peak_rss_mb", own_peak_mb.max(probe_peak_mb));
    Ok(())
}

/// The output checks every simulator repetition must pass.
fn check_run(report: &RunReport, cluster: &Cluster, records: u64, out: &mut Out) {
    if report.completed_ops != records {
        out.fail(
            records - report.completed_ops.min(records),
            &format!(
                "completed {} of {records} trace records",
                report.completed_ops
            ),
        );
    }
    for osd in 0..cluster.config.osds {
        if let Err(e) = cluster.osd(OsdId(osd)).ssd().check_invariants() {
            out.fail(records, &format!("osd{osd}: {e}"));
        }
    }
}

/// Per-layer lines of a traced replay.
fn ledger_lines(ledger: &Ledger, recorder: &TimedRecorder<'_>, replay_s: f64, out: &mut Out) {
    let ssd_s = ledger.ssd.get().as_secs_f64();
    let core_s = ledger.core().as_secs_f64();
    let obs_s = ledger.obs.get().as_secs_f64();
    let self_s = replay_s - ssd_s - core_s - obs_s;
    let events = ledger.events.get();
    let ssd_calls = ledger.ssd_calls.get();
    let access_calls = ledger.access_calls.get();
    let counter = |name| recorder.counter_value(name) as f64;
    out.value("cluster.events", events as f64);
    out.value("cluster.self_s", self_s);
    out.value("cluster.ns_per_event", ratio(self_s * 1e9, events as f64));
    out.value("cluster.subops", counter("sim.subops_enqueued"));
    out.value("cluster.ticks", counter("sim.ticks"));
    out.value("cluster.moves_started", counter("sim.moves_started"));
    out.value("cluster.moved_objects", counter("sim.moved_objects"));
    out.value("cluster.moved_bytes", counter("sim.moved_bytes"));
    out.value(
        "cluster.move_completion",
        ratio(counter("sim.moved_objects"), counter("sim.moves_started")),
    );
    out.value("ssd.calls", ssd_calls as f64);
    out.value("ssd.busy_s", ssd_s);
    out.value("ssd.ns_per_call", ratio(ssd_s * 1e9, ssd_calls as f64));
    ssd_counters(
        counter("ftl.gc_invocations"),
        counter("ftl.block_erases"),
        counter("ftl.gc_page_moves"),
        counter("ftl.wear_level_swaps"),
        out,
    );
    out.value("core.access_calls", access_calls as f64);
    out.value("core.access_s", ledger.access.get().as_secs_f64());
    out.value(
        "core.ns_per_access",
        ratio(ledger.access.get().as_secs_f64() * 1e9, access_calls as f64),
    );
    out.value("core.tick_calls", ledger.tick_calls.get() as f64);
    out.value("core.tick_s", ledger.tick.get().as_secs_f64());
    out.value("core.plan_calls", ledger.plan_calls.get() as f64);
    out.value("core.plan_s", ledger.plan.get().as_secs_f64());
    out.value("core.moves_planned", ledger.moves_planned.get() as f64);
    out.value(
        "core.plan_yield",
        ratio(
            counter("sim.moved_objects"),
            ledger.moves_planned.get() as f64,
        ),
    );
    out.value("obs.events", ledger.obs_events.get() as f64);
    out.value("obs.event_s", obs_s);
    for (layer, secs) in [
        ("cluster", self_s),
        ("ssd", ssd_s),
        ("core", core_s),
        ("obs", obs_s),
    ] {
        out.value(&format!("{layer}.share"), secs / replay_s);
    }
}

/// The FTL counters, shared by the simulator ledger and the daemon's
/// `/metrics` scrape.
pub fn ssd_counters(gc: f64, erases: f64, gc_moves: f64, wl_swaps: f64, out: &mut Out) {
    out.value("ssd.gc_invocations", gc);
    out.value("ssd.block_erases", erases);
    out.value("ssd.gc_page_moves", gc_moves);
    out.value("ssd.wear_level_swaps", wl_swaps);
    out.value("ssd.gc_moves_per_erase", ratio(gc_moves, erases));
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn write_journal(memory: &MemoryRecorder, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    memory
        .write_jsonl(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The event count of `edm-probe --verify`'s `<path>: N events checked`.
fn verified_events(stdout: &str) -> Option<u64> {
    stdout.lines().find_map(|line| {
        let (_, rest) = line.rsplit_once(": ")?;
        rest.strip_suffix(" component tags")?;
        rest.split_whitespace().next()?.parse().ok()
    })
}
