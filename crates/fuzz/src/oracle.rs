//! The differential oracle panel.
//!
//! One scenario is executed several ways that the repo's contracts say
//! must agree exactly:
//!
//! | oracle               | what must hold                                          |
//! |----------------------|---------------------------------------------------------|
//! | `harness`            | a generated (valid) scenario runs without error          |
//! | `ftl_equiv`          | span and per-page FTL calls produce identical wear      |
//! | `obs_transparent`    | report digest identical with obs off vs `events`        |
//! | `policy_invariants`  | trigger/plan/journal/cluster invariants (§III.B–D)      |
//! | `resume_digest`      | checkpoint at a wear tick + resume reproduces the digest |
//! | `snapshot_roundtrip` | snapshot decode→encode is byte-identical                |
//! | `spec_conformance`   | every journaled event is a legal edm-spec transition    |
//! | `model_assessor`     | mean-field fast path never publishes a worsening plan   |
//!
//! All checks are pure functions of the scenario (the only randomness —
//! which checkpoint to resume from — is seeded from the scenario text),
//! so a failure found at seed S replays from the `.scn` alone.

use std::path::{Path, PathBuf};

use edm_harness::{report_digest, resume_snapshot, Scenario};
use edm_obs::{Event, MemoryRecorder, NoopRecorder, ObsLevel};
use edm_snap::SnapshotFile;
use edm_ssd::{Geometry, LatencyModel, Ssd};
use edm_workload::FileOp;

use crate::rng::Rng;

/// A failed oracle: which one, and a one-line diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    pub oracle: &'static str,
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Side statistics of a green battery (for throughput/coverage output).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    pub checkpoints: usize,
    pub journal_events: usize,
    pub migrations_triggered: u64,
    pub failed_osds: usize,
}

fn fail(oracle: &'static str, detail: impl Into<String>) -> OracleFailure {
    OracleFailure {
        oracle,
        detail: detail.into(),
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the full oracle battery for one scenario. `work_dir` hosts the
/// checkpoint files of the resume oracle (the caller owns cleanup of the
/// directory itself; the battery clears its own subdirectory first).
///
/// An engine panic inside any run is caught and reported as an
/// `engine_panic` oracle failure, so a crashing scenario shrinks like any
/// other instead of killing the fuzzing session.
pub fn check_scenario(s: &Scenario, work_dir: &Path) -> Result<OracleStats, OracleFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_scenario_impl(s, work_dir)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|m| (*m).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(fail("engine_panic", format!("simulation panicked: {msg}")))
    })
}

fn check_scenario_impl(s: &Scenario, work_dir: &Path) -> Result<OracleStats, OracleFailure> {
    let mut stats = OracleStats::default();

    // Reference run: observability off.
    let base = s
        .run()
        .map_err(|e| fail("harness", format!("baseline run failed: {e}")))?;
    let base_digest = report_digest(&base);

    // Differential run: full event journal on, end-state cluster kept.
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    let (obs_report, cluster) = s
        .run_with_obs_keep(&mut rec)
        .map_err(|e| fail("harness", format!("events run failed: {e}")))?;
    let obs_digest = report_digest(&obs_report);
    if obs_digest != base_digest {
        return Err(fail(
            "obs_transparent",
            format!(
                "digest {base_digest:#018x} with obs off vs {obs_digest:#018x} with events — \
                 recording perturbed the simulation"
            ),
        ));
    }
    stats.journal_events = rec.journal().len();
    stats.migrations_triggered = obs_report.migrations_triggered;
    stats.failed_osds = obs_report.failed_osds.len();

    check_policy_invariants(s, &rec, &obs_report, &cluster)?;

    check_spec_conformance(&rec)?;

    check_resume_and_roundtrip(s, work_dir, base_digest, &mut stats)?;

    check_ftl_equivalence(s)?;

    check_model_assessor(s)?;

    Ok(stats)
}

/// Oracle `model_assessor`: re-run the scenario with the analytic
/// mean-field plan assessor (`edm-model`) in place of the projection
/// loop. The fast path's contract is that it never publishes a plan the
/// projection reference rejects — its trim ends with a reference
/// `assess_plan` guardrail — so under the model assessor every journaled
/// `PlanAssessment` must still predict a non-worsening RSD and the
/// end-state cluster must satisfy its structural invariants. Skipped for
/// CMT, which has no plan assessor, and when the drawn scenario already
/// ran the model path through the main battery.
fn check_model_assessor(s: &Scenario) -> Result<(), OracleFailure> {
    if s.policy == "CMT" || s.assessor == edm_core::Assessor::Model {
        return Ok(());
    }
    let mut m = s.clone();
    m.assessor = edm_core::Assessor::Model;
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    let (report, cluster) = m
        .run_with_obs_keep(&mut rec)
        .map_err(|e| fail("model_assessor", format!("model-assessor run failed: {e}")))?;
    for entry in rec.journal() {
        if let Event::PlanAssessment {
            rsd_before,
            rsd_after,
            ..
        } = &entry.event
        {
            if rsd_after.is_nan() || *rsd_after > *rsd_before + 1e-9 {
                return Err(fail(
                    "model_assessor",
                    format!(
                        "t={}us model-assessed plan worsens RSD: {rsd_before:.6} -> \
                         {rsd_after:.6} — the fast path published a plan the projection \
                         reference must have rejected",
                        entry.t_us
                    ),
                ));
            }
        }
    }
    cluster
        .check_invariants(&report.failed_osds, true)
        .map_err(|e| fail("model_assessor", format!("end-state cluster: {e}")))?;
    Ok(())
}

/// Oracle `spec_conformance`: the event journal of the obs run must be
/// accepted by the `edm-spec` abstract state machine — every event a
/// legal EDM transition (placement, remap bijection, migration
/// lifecycle, trigger semantics, plan consistency, GC/wear accounting).
fn check_spec_conformance(rec: &MemoryRecorder) -> Result<(), OracleFailure> {
    let text = journal_text(rec, "spec_conformance")?;
    if let Some(v) = edm_spec::verify_journal(&text).violation {
        return Err(fail(
            "spec_conformance",
            format!("journal line {}: {}", v.line, v.message),
        ));
    }
    Ok(())
}

fn journal_text(rec: &MemoryRecorder, oracle: &'static str) -> Result<String, OracleFailure> {
    let mut out = Vec::new();
    rec.write_jsonl(&mut out)
        .map_err(|e| fail(oracle, format!("journal render failed: {e}")))?;
    String::from_utf8(out).map_err(|e| fail(oracle, format!("journal is not UTF-8: {e}")))
}

/// Oracle `policy_invariants`: every journaled trigger evaluation is
/// internally consistent with its λ, every EDM plan assessment predicts a
/// non-worsening RSD, the end-state cluster satisfies its structural
/// invariants (capacity, one-to-one remap overlay, directory/catalog
/// agreement, RAID-5 group distinctness — except under CMT, which
/// balances load across group boundaries by design), and the migration
/// counters in the journal reconcile with the report and the erase
/// totals.
fn check_policy_invariants(
    s: &Scenario,
    rec: &MemoryRecorder,
    report: &edm_cluster::RunReport,
    cluster: &edm_cluster::Cluster,
) -> Result<(), OracleFailure> {
    for entry in rec.journal() {
        match &entry.event {
            Event::TriggerEval {
                policy,
                rsd,
                lambda,
                mean,
                triggered,
                sources,
                destinations,
                ..
            } => {
                let decision = edm_core::TriggerDecision {
                    rsd: *rsd,
                    mean: *mean,
                    triggered: *triggered,
                    sources: sources.iter().map(|&d| d as usize).collect(),
                    destinations: destinations.iter().map(|&d| d as usize).collect(),
                };
                decision.validate(*lambda).map_err(|e| {
                    fail(
                        "policy_invariants",
                        format!(
                            "t={}us {policy} trigger evaluation inconsistent: {e}",
                            entry.t_us
                        ),
                    )
                })?;
            }
            Event::PlanAssessment {
                rsd_before,
                rsd_after,
                ..
            } if rsd_after.is_nan() || *rsd_after > *rsd_before + 1e-9 => {
                return Err(fail(
                    "policy_invariants",
                    format!(
                        "t={}us planned RSD worsens: {rsd_before:.6} -> {rsd_after:.6} \
                         (EDM must only migrate towards balance)",
                        entry.t_us
                    ),
                ));
            }
            _ => {}
        }
    }

    cluster
        .check_invariants(&report.failed_osds, s.policy != "CMT")
        .map_err(|e| fail("policy_invariants", format!("end-state cluster: {e}")))?;

    let remap_len = cluster.catalog.remap().len() as u64;
    if report.remap_entries != remap_len {
        return Err(fail(
            "policy_invariants",
            format!(
                "report says {} remap entries but the catalog holds {remap_len}",
                report.remap_entries
            ),
        ));
    }
    let moved = rec.counter_value("sim.moved_objects");
    if moved != report.moved_objects {
        return Err(fail(
            "policy_invariants",
            format!(
                "journal counted {moved} completed moves but the report says {}",
                report.moved_objects
            ),
        ));
    }
    // Migration traffic must be accounted in the erase/write totals: every
    // migrated byte is re-written on its destination device, so host page
    // writes must at least cover the moved bytes.
    let page_size = cluster
        .osds
        .first()
        .map(|o| o.ssd().geometry().page_size)
        .unwrap_or(4096);
    let moved_bytes = rec.counter_value("sim.moved_bytes");
    let written_bytes = report.aggregate_write_pages().saturating_mul(page_size);
    if written_bytes < moved_bytes {
        return Err(fail(
            "policy_invariants",
            format!(
                "{moved_bytes} migrated bytes exceed {written_bytes} host-written bytes — \
                 migration traffic missing from wear accounting (scenario {})",
                s.policy
            ),
        ));
    }
    Ok(())
}

/// Oracles `resume_digest` and `snapshot_roundtrip`: re-run the scenario
/// cutting a checkpoint at every wear tick, resume from one of them
/// (seeded choice), and require the resumed digest — and the checkpointed
/// run's own digest — to equal the uninterrupted one. The chosen
/// checkpoint must also survive decode→encode byte-identically.
fn check_resume_and_roundtrip(
    s: &Scenario,
    work_dir: &Path,
    base_digest: u64,
    stats: &mut OracleStats,
) -> Result<(), OracleFailure> {
    let ckpt_dir = work_dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| {
        fail(
            "harness",
            format!("cannot create {}: {e}", ckpt_dir.display()),
        )
    })?;

    let ck_report = s
        .run_with_obs_checkpointed(&mut NoopRecorder, Some((0, ckpt_dir.clone())))
        .map_err(|e| fail("harness", format!("checkpointed run failed: {e}")))?;
    let ck_digest = report_digest(&ck_report);
    if ck_digest != base_digest {
        return Err(fail(
            "resume_digest",
            format!(
                "digest {base_digest:#018x} plain vs {ck_digest:#018x} while cutting \
                 checkpoints — checkpointing perturbed the run"
            ),
        ));
    }

    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .map_err(|e| {
            fail(
                "harness",
                format!("cannot list {}: {e}", ckpt_dir.display()),
            )
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    snaps.sort();
    stats.checkpoints = snaps.len();
    if snaps.is_empty() {
        // Run too short to cross a wear tick — nothing to resume from.
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        return Ok(());
    }

    // The only randomness of the battery, seeded from the scenario text so
    // a replayed `.scn` picks the same checkpoint.
    let mut pick_rng = Rng::new(fnv1a(&s.to_text()));
    let picked = match snaps.get(pick_rng.below(snaps.len() as u64) as usize) {
        Some(p) => p.clone(),
        None => {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            return Ok(());
        }
    };

    let bytes = std::fs::read(&picked)
        .map_err(|e| fail("harness", format!("cannot read {}: {e}", picked.display())))?;
    let snap = SnapshotFile::from_bytes(&bytes).map_err(|e| {
        fail(
            "snapshot_roundtrip",
            format!("{} does not decode: {e}", picked.display()),
        )
    })?;
    if snap.to_bytes() != bytes {
        return Err(fail(
            "snapshot_roundtrip",
            format!(
                "{} re-encodes to different bytes — snapshot encoding is not canonical",
                picked.display()
            ),
        ));
    }

    let (embedded, resumed) = resume_snapshot(&picked, &mut NoopRecorder)
        .map_err(|e| fail("resume_digest", format!("resume failed: {e}")))?;
    if embedded != *s {
        return Err(fail(
            "resume_digest",
            format!(
                "embedded scenario round-trips differently:\n{}vs\n{}",
                embedded.to_text(),
                s.to_text()
            ),
        ));
    }
    let resumed_digest = report_digest(&resumed);
    if resumed_digest != base_digest {
        return Err(fail(
            "resume_digest",
            format!(
                "digest {base_digest:#018x} uninterrupted vs {resumed_digest:#018x} resumed \
                 from {} ({} checkpoints)",
                picked.display(),
                snaps.len()
            ),
        ));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(())
}

/// Oracle `ftl_equiv`: the scenario's write stream, replayed against two
/// identical micro SSDs — one through extent-sized span calls, one split
/// into page-sized calls — must leave bit-identical wear state (the
/// span-batching contract of PR 1, here exercised on fuzzed streams
/// instead of the perf harness's fixed skew).
fn check_ftl_equivalence(s: &Scenario) -> Result<(), OracleFailure> {
    const MAX_EXTENTS: u64 = 20_000;
    let g = Geometry {
        page_size: 4096,
        pages_per_block: 32,
        blocks: 128,
        over_provision_ppt: 80,
    };
    let ps = g.page_size;
    // Keep the live range at ~55 % of exported space so GC has headroom
    // (the same regime the perf harness uses).
    let live_pages = (g.exported_pages() * 11 / 20).max(16);
    let mut span = Ssd::new(g, LatencyModel::PAPER);
    let mut pages = Ssd::new(g, LatencyModel::PAPER);

    let trace = s.synth_trace();
    let mut extents = 0u64;
    for r in &trace.records {
        let FileOp::Write { offset, len } = r.op else {
            continue;
        };
        let span_pages = (len / ps).clamp(1, 8);
        let start = (r.file.0.wrapping_mul(2654435761).wrapping_add(offset / ps))
            % (live_pages - span_pages + 1);
        span.write(start * ps, span_pages * ps)
            .map_err(|e| fail("ftl_equiv", format!("span write failed: {e}")))?;
        for p in 0..span_pages {
            pages
                .write((start + p) * ps, ps)
                .map_err(|e| fail("ftl_equiv", format!("per-page write failed: {e}")))?;
        }
        extents += 1;
        if extents >= MAX_EXTENTS {
            break;
        }
    }

    span.check_invariants()
        .map_err(|e| fail("ftl_equiv", format!("span-side SSD invariants: {e}")))?;
    pages
        .check_invariants()
        .map_err(|e| fail("ftl_equiv", format!("page-side SSD invariants: {e}")))?;
    if span.wear() != pages.wear() {
        return Err(fail(
            "ftl_equiv",
            format!(
                "wear diverged after {extents} extents from trace {}: span {:?} vs per-page {:?}",
                trace.name,
                span.wear(),
                pages.wear()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("edm-fuzz-test-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    #[test]
    fn default_scenario_passes_all_oracles() {
        let s = Scenario {
            scale: 0.002,
            osds: 8,
            ..Scenario::default()
        };
        let dir = tmp_dir("default");
        let stats = check_scenario(&s, &dir).expect("oracles must hold on the default scenario");
        assert!(stats.checkpoints > 0, "run should cross a wear tick");
        assert!(stats.journal_events > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_scenario_passes_all_oracles() {
        let s = Scenario::parse(
            "scale 0.002\nosds 8\npolicy EDM-CDF\nschedule every-tick\nfail 150000 1 rebuild\n",
        )
        .expect("parse");
        let dir = tmp_dir("failure");
        let stats = check_scenario(&s, &dir).expect("oracles must hold under failure injection");
        assert_eq!(stats.failed_osds, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn component_affine_scenario_passes_all_oracles() {
        // The datacenter smoke shape: stride 2 over 4 groups splits the
        // cluster into 2 placement components, one client set each.
        let s = Scenario::parse(
            "scale 0.002\nosds 16\ngroups 4\nobjects_per_file 2\nschedule every-tick\n\
             stride 2\naffinity component\n",
        )
        .expect("parse");
        let dir = tmp_dir("component");
        check_scenario(&s, &dir).expect("oracles must hold on a component-affine scenario");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_failure_renders_its_name() {
        let f = fail("resume_digest", "boom");
        assert_eq!(f.to_string(), "[resume_digest] boom");
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so the checkpoint pick (and thus replay behaviour) can
        // never drift silently.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
