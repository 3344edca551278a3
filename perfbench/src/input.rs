//! Benchmark inputs, generated from the run's seed.
//!
//! The program under test never sees the seed: the benchmark overrides
//! the Harvard preset's `WorkloadSpec::seed`, synthesizes the trace
//! itself, and hands the program only the generated trace (or, for the
//! daemon, op lines derived from it). At the preset's own seed every
//! input here equals what the program would generate for itself; the
//! self-tests and `--selfcheck` prove that.

use edm_scenario::Scenario;
use edm_workload::synth::synthesize;
use edm_workload::{harvard, FileId, FileOp, Trace};

/// The seed the Harvard preset itself uses for `scenario.trace`.
pub fn preset_seed(scenario: &Scenario) -> u64 {
    harvard::spec(&scenario.trace).seed
}

/// `Scenario::synth_trace`, with the workload seed replaced by `seed`.
///
/// `Scenario` has no seed key, so the inode-stride transform it applies
/// after synthesis is re-created here line for line.
pub fn seeded_trace(scenario: &Scenario, seed: u64) -> Trace {
    let mut spec = harvard::spec(&scenario.trace);
    spec.seed = seed;
    let mut trace = synthesize(&spec.scaled(scenario.scale));
    let stride = scenario.stride;
    if stride > 1 {
        trace.file_sizes = trace
            .file_sizes
            .iter()
            .map(|(&f, &size)| (FileId(f.0 * stride), size))
            .collect();
        let groups = scenario.groups as u64;
        let components = if groups.is_multiple_of(stride) {
            groups / stride
        } else {
            1
        };
        for r in &mut trace.records {
            if components > 1 {
                let component = (r.file.0 % components) as u32;
                r.user = r.user * components as u32 + component;
            }
            r.file = FileId(r.file.0 * stride);
        }
    }
    trace
}

/// The daemon's op stream for a seeded trace: every read and write of
/// `trace` as an ingest line (`r|w <file> <offset> <len>`), mapped onto
/// the files of `catalog` (the trace the daemon builds its cluster from)
/// and clamped to their sizes. Opens and closes carry no data and are
/// dropped, exactly as `edm-serve --dump-ops` drops them.
pub fn ingest_lines(catalog: &Trace, trace: &Trace) -> Vec<String> {
    let files: Vec<(FileId, u64)> = catalog
        .file_sizes
        .iter()
        .filter(|(_, &size)| size > 0)
        .map(|(&f, &size)| (f, size))
        .collect();
    assert!(!files.is_empty(), "the daemon's catalog has no data files");
    let mut lines = Vec::with_capacity(trace.records.len());
    for record in &trace.records {
        let (tag, offset, len) = match record.op {
            FileOp::Read { offset, len } => ('r', offset, len),
            FileOp::Write { offset, len } => ('w', offset, len),
            FileOp::Open | FileOp::Close => continue,
        };
        let (file, size) = match catalog.file_sizes.get(&record.file) {
            Some(&size) if size > 0 => (record.file, size),
            _ => files[(record.file.0 % files.len() as u64) as usize],
        };
        let len = len.clamp(1, size);
        let offset = offset.min(size - len);
        lines.push(format!("{tag} {} {offset} {len}", file.0));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_cluster::{ClientAffinity, MigrationSchedule};
    use edm_obs::NoopRecorder;
    use edm_serve::{dump_ops, ApplyOutcome, LiveWorld};

    fn paper_shape() -> Scenario {
        Scenario {
            scale: 0.003,
            ..Scenario::default()
        }
    }

    /// `dc1024`'s stride and affinity on a shape small enough for a test.
    fn strided_shape() -> Scenario {
        Scenario {
            scale: 0.003,
            osds: 32,
            groups: 8,
            objects_per_file: 4,
            stride: 4,
            affinity: ClientAffinity::Component,
            schedule: MigrationSchedule::EveryTick,
            ..Scenario::default()
        }
    }

    fn ingest_shape() -> Scenario {
        Scenario {
            trace: "lair62".into(),
            scale: 0.003,
            policy: "EDM-CDF".into(),
            schedule: MigrationSchedule::EveryTick,
            ..Scenario::default()
        }
    }

    #[test]
    fn preset_seed_reproduces_the_programs_own_trace() {
        for scenario in [paper_shape(), strided_shape(), ingest_shape()] {
            let ours = seeded_trace(&scenario, preset_seed(&scenario));
            assert_eq!(ours.fingerprint(), scenario.synth_trace().fingerprint());
        }
    }

    #[test]
    fn another_seed_gives_another_trace_of_the_same_shape() {
        let scenario = strided_shape();
        let preset = scenario.synth_trace();
        let other = seeded_trace(&scenario, 7);
        assert_ne!(other.fingerprint(), preset.fingerprint());
        assert_eq!(other.file_sizes.len(), preset.file_sizes.len());
        assert!(other
            .records
            .iter()
            .all(|r| r.file.0 % scenario.stride == 0));
    }

    #[test]
    fn preset_seed_op_stream_is_dump_ops() {
        let scenario = ingest_shape();
        let lines = ingest_lines(
            &scenario.synth_trace(),
            &seeded_trace(&scenario, preset_seed(&scenario)),
        );
        let ours: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(ours, dump_ops(&scenario));
    }

    #[test]
    fn every_generated_op_line_is_accepted_by_the_daemon() {
        let scenario = ingest_shape();
        let catalog = scenario.synth_trace();
        for seed in [1, 0xBEEF] {
            let mut world = LiveWorld::new(scenario.clone()).expect("valid ingest scenario");
            for line in ingest_lines(&catalog, &seeded_trace(&scenario, seed)) {
                let outcome = world.apply_line(&line, &mut NoopRecorder);
                assert!(
                    matches!(outcome, ApplyOutcome::Applied { .. }),
                    "{line}: {outcome:?}"
                );
            }
            assert_eq!(world.rejected_lines(), 0);
        }
    }
}
