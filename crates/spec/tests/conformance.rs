//! The spec's own conformance battery: a hand-built legal journal
//! covering every event kind must be accepted, and every seeded
//! mutation class must be rejected with a line-numbered violation.

use edm_obs::{Event, MemoryRecorder, ObsLevel, Recorder};
use edm_spec::{mutate, verify_journal, Spec, SpecReport};

fn jsonl(rec: &MemoryRecorder) -> String {
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn meta_event() -> Event {
    Event::RunMeta {
        osds: 4,
        groups: 2,
        objects_per_file: 2,
        capacity_bytes: 1 << 30,
        blocks_per_osd: 8,
    }
}

/// One EDM planning round: per-OSD wear inputs, the trigger evaluation
/// they imply (recomputed through the same mirror the spec replays, so
/// the journal is exactly self-consistent), a one-move plan, and its
/// assessment.
fn plan_round(r: &mut MemoryRecorder, t: u64, ecs: [f64; 4], object: u64, source: u64, dest: u64) {
    r.set_now(t);
    for (osd, ec) in ecs.iter().enumerate() {
        r.event(Event::WearModelInput {
            osd: osd as u32,
            wc_pages: 100,
            utilization: 0.5,
            erase_estimate: *ec,
        });
    }
    let (rsd, mean, triggered, sources, destinations) = Spec::recompute_trigger(&ecs, 0.1);
    r.event(Event::TriggerEval {
        policy: "EDM-HDF",
        metric: "erase_estimate",
        rsd,
        lambda: 0.1,
        mean,
        triggered,
        sources,
        destinations,
    });
    r.event(Event::PlanChosen {
        policy: "EDM-HDF",
        moves: 1,
        moved_bytes: 4096,
        objects: vec![object],
        sources: vec![source],
        destinations: vec![dest],
    });
    r.event(Event::PlanAssessment {
        rsd_before: rsd,
        rsd_after: rsd * 0.5,
        moved_bytes: 4096,
        moved_write_pages: 1,
    });
}

/// A small legal journal exercising every event kind: a GC pass, two
/// EDM planning rounds, a completed migration, an aborted migration
/// (source device failure), a RAID-5 rebuild after a second failure,
/// and a repeat block erase for the wear-monotonicity site.
fn sample_journal() -> String {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(meta_event());

    r.set_now(10);
    r.event(Event::OpEnqueue {
        osd: 0,
        depth: 1,
        mover: false,
    });
    r.event(Event::OpDequeue { osd: 0, depth: 0 });
    r.set_device(Some(0));
    r.event(Event::GcInvoked {
        free_blocks: 1,
        low_watermark: 2,
        high_watermark: 4,
    });
    r.event(Event::GcVictim {
        block: 3,
        valid_pages: 2,
        policy: "greedy",
    });
    r.event(Event::BlockErase {
        block: 3,
        erase_count: 1,
        moved_pages: 2,
    });
    r.set_device(None);

    // Object 0 (file 0, index 0) sits at home OSD 0; move it within
    // group 0 to OSD 2.
    plan_round(&mut r, 20, [300.0, 100.0, 100.0, 100.0], 0, 0, 2);
    r.set_now(30);
    r.event(Event::MigrationStart {
        object: 0,
        source: 0,
        dest: 2,
        bytes: 4096,
    });
    r.set_now(40);
    r.event(Event::MigrationFinish {
        object: 0,
        source: 0,
        dest: 2,
        bytes: 4096,
    });
    r.event(Event::RemapUpdate { object: 0, dest: 2 });

    // Object 4 (file 2, index 0) sits at home OSD 2; its move aborts
    // when OSD 2 dies mid-copy.
    plan_round(&mut r, 42, [100.0, 100.0, 300.0, 100.0], 4, 2, 0);
    r.set_now(43);
    r.event(Event::MigrationStart {
        object: 4,
        source: 2,
        dest: 0,
        bytes: 4096,
    });
    r.set_now(44);
    r.event(Event::DeviceFailed { osd: 2 });
    r.event(Event::MigrationAbort {
        object: 4,
        source: 2,
        dest: 0,
        bytes: 4096,
    });

    // A second failure loses object 1 (home OSD 1); rebuild it within
    // group 1 onto OSD 3.
    r.set_now(50);
    r.event(Event::DeviceFailed { osd: 1 });
    r.event(Event::RebuildStart {
        object: 1,
        dest: 3,
        bytes: 2048,
    });
    r.set_now(60);
    r.event(Event::RebuildFinish {
        object: 1,
        dest: 3,
        bytes: 2048,
    });
    r.event(Event::RemapUpdate { object: 1, dest: 3 });

    r.set_now(70);
    r.set_device(Some(0));
    r.event(Event::BlockErase {
        block: 3,
        erase_count: 2,
        moved_pages: 0,
    });
    r.event(Event::WearLevelSwap {
        block: 1,
        valid_pages: 4,
        wear_spread: 2,
    });
    r.set_device(None);
    r.event(Event::QueueDepth { osd: 0, depth: 0 });

    r.counter("sim.ticks", 3);
    jsonl(&r)
}

fn assert_ok(report: &SpecReport) {
    assert!(
        report.violation.is_none(),
        "unexpected violation: {:?}",
        report.violation
    );
}

#[test]
fn sample_journal_is_conformant_and_covers_every_kind() {
    let journal = sample_journal();
    let report = verify_journal(&journal);
    assert_ok(&report);
    assert_eq!(report.events, 33);
    assert!(report.trailers >= 1, "counter trailer expected");
    assert_eq!(
        report.lines,
        report.trailers as usize + report.events as usize
    );
    assert_eq!(
        report.kinds_seen(),
        SpecReport::kinds_known(),
        "sample journal must exercise the full transition function, saw {:?}",
        report.kind_counts.keys().collect::<Vec<_>>()
    );
}

#[test]
fn every_mutation_class_is_rejected_with_a_line_number() {
    let journal = sample_journal();
    assert_ok(&verify_journal(&journal));
    let total = journal.lines().count();
    for &class in mutate::MUTATIONS {
        for seed in 0..4u64 {
            let mutated = mutate::mutate(&journal, class, seed)
                .unwrap_or_else(|| panic!("no mutation site for class {class}"));
            assert_ne!(mutated, journal, "{class} seed {seed} was a no-op");
            let report = verify_journal(&mutated);
            let v = report
                .violation
                .unwrap_or_else(|| panic!("mutated journal accepted: {class} seed {seed}"));
            assert!(
                v.line >= 1 && v.line <= total + 1,
                "{class} seed {seed}: violation line {} out of range ({})",
                v.line,
                v.message
            );
        }
    }
}

#[test]
fn empty_journal_is_trivially_conformant() {
    let report = verify_journal("");
    assert_ok(&report);
    assert_eq!(report.events, 0);
}

#[test]
fn event_after_trailer_section_is_rejected() {
    let mut journal = sample_journal();
    journal.push_str("{\"t_us\":80,\"kind\":\"queue_depth\",\"osd\":0,\"depth\":0}\n");
    let v = verify_journal(&journal).violation.expect("must reject");
    assert!(v.message.contains("trailer"), "{}", v.message);
}

#[test]
fn event_before_run_meta_is_rejected() {
    let journal = "{\"t_us\":5,\"kind\":\"queue_depth\",\"osd\":0,\"depth\":0}\n";
    let v = verify_journal(journal).violation.expect("must reject");
    assert_eq!(v.line, 1);
    assert!(v.message.contains("run_meta"), "{}", v.message);
}

#[test]
fn duplicate_run_meta_is_rejected() {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(meta_event());
    r.event(meta_event());
    let v = verify_journal(&jsonl(&r)).violation.expect("must reject");
    assert_eq!(v.line, 2);
}

#[test]
fn rebuild_beyond_capacity_is_rejected() {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(Event::RunMeta {
        osds: 4,
        groups: 2,
        objects_per_file: 2,
        capacity_bytes: 1000,
        blocks_per_osd: 8,
    });
    r.set_now(10);
    r.event(Event::DeviceFailed { osd: 1 });
    r.event(Event::RebuildStart {
        object: 1,
        dest: 3,
        bytes: 4096,
    });
    r.set_now(20);
    r.event(Event::RebuildFinish {
        object: 1,
        dest: 3,
        bytes: 4096,
    });
    r.event(Event::RemapUpdate { object: 1, dest: 3 });
    let v = verify_journal(&jsonl(&r)).violation.expect("must reject");
    assert!(v.message.contains("capacity"), "{}", v.message);
}

#[test]
fn queue_model_catches_a_depth_jump() {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(meta_event());
    r.set_now(10);
    r.event(Event::OpEnqueue {
        osd: 0,
        depth: 1,
        mover: false,
    });
    r.event(Event::OpEnqueue {
        osd: 0,
        depth: 3,
        mover: false,
    });
    let v = verify_journal(&jsonl(&r)).violation.expect("must reject");
    assert!(v.message.contains("queue model"), "{}", v.message);
}

#[test]
fn gc_above_low_watermark_is_rejected() {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(meta_event());
    r.set_now(10);
    r.set_device(Some(0));
    r.event(Event::GcInvoked {
        free_blocks: 5,
        low_watermark: 2,
        high_watermark: 4,
    });
    let v = verify_journal(&jsonl(&r)).violation.expect("must reject");
    assert!(v.message.contains("watermark"), "{}", v.message);
}

#[test]
fn trigger_verdict_must_match_rsd_vs_lambda() {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(meta_event());
    r.set_now(10);
    r.event(Event::TriggerEval {
        policy: "CMT",
        metric: "ewma_latency_us",
        rsd: 0.05,
        lambda: 0.1,
        mean: 100.0,
        triggered: true,
        sources: vec![],
        destinations: vec![],
    });
    let v = verify_journal(&jsonl(&r)).violation.expect("must reject");
    assert!(v.message.contains("triggered"), "{}", v.message);
}

#[test]
fn out_of_range_osd_is_rejected() {
    let mut r = MemoryRecorder::new(ObsLevel::Events);
    r.set_now(0);
    r.event(meta_event());
    r.set_now(10);
    r.event(Event::QueueDepth { osd: 9, depth: 0 });
    let v = verify_journal(&jsonl(&r)).violation.expect("must reject");
    assert!(v.message.contains("out of range"), "{}", v.message);
}

#[test]
fn unparseable_line_is_line_numbered() {
    let journal = sample_journal() + "not json\n";
    let v = verify_journal(&journal).violation.expect("must reject");
    assert_eq!(v.line, sample_journal().lines().count() + 1);
    assert!(v.message.contains("JSON"), "{}", v.message);
}
