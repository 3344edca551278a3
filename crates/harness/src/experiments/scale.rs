//! Datacenter-scale experiment (extension): one large cluster replayed
//! on the sequential engine, timed, with its determinism digest.
//!
//! The paper's evaluation stops at 16–20 OSDs; Serifos-style cloud
//! deployments run thousands of SSDs. This experiment replays one
//! workload on a large cluster and reports wall time, replayed ops/s
//! and the report digest, so a change to the engine can be checked for
//! both speed and bit-identical physics at that shape.
//!
//! The shape uses the inode-stride transform and component client
//! affinity: with `objects_per_file ≤ stride` and `groups % stride == 0`,
//! every file's objects stay inside one aligned block of `stride`
//! groups, so the cluster splits into `groups / stride` placement
//! components and no client's records cross one (see DESIGN.md §11).

use std::time::Instant;

use edm_cluster::{ClientAffinity, MigrationSchedule, RunReport};

use crate::report::{render_table, report_digest};
use crate::scenario::Scenario;

/// Parameters of one scale run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    pub trace: String,
    pub policy: String,
    /// Trace scale factor in (0, 1].
    pub scale: f64,
    pub osds: u32,
    pub groups: u32,
    pub objects_per_file: u32,
    /// Inode stride (see module docs); must satisfy
    /// `objects_per_file ≤ stride` and `groups % stride == 0`.
    pub stride: u64,
}

/// Rejects a nonzero shard count. The argument survives only so existing
/// callers of [`ScaleConfig::datacenter`] and [`ScaleConfig::scenario`]
/// keep compiling; the engine is sequential and honours no other value.
fn assert_sequential(shards: u32) {
    assert!(
        shards == 0,
        "the engine is sequential; shards must be 0, got {shards}"
    );
}

impl ScaleConfig {
    /// The headline configuration: 1024 OSDs in 32 groups, RAID-5 over
    /// 4 objects, stride 4 → 8 placement components. At `scale = 1.0`
    /// the home02 trace replays ≥ 10⁷ operations. `shards` must be 0.
    pub fn datacenter(scale: f64, shards: u32) -> Self {
        assert_sequential(shards);
        ScaleConfig {
            trace: "home02".into(),
            policy: "EDM-HDF".into(),
            scale,
            osds: 1024,
            groups: 32,
            objects_per_file: 4,
            stride: 4,
        }
    }

    /// A seconds-scale variant for CI smoke runs: 16 OSDs in 4 groups,
    /// RAID-5 over 2 objects, stride 2 → 2 components.
    pub fn smoke(scale: f64) -> Self {
        ScaleConfig {
            trace: "home02".into(),
            policy: "EDM-HDF".into(),
            scale,
            osds: 16,
            groups: 4,
            objects_per_file: 2,
            stride: 2,
        }
    }

    /// The scenario this configuration runs: every-tick migration under
    /// component client affinity. `shards` must be 0.
    pub fn scenario(&self, shards: u32) -> Scenario {
        assert_sequential(shards);
        Scenario {
            trace: self.trace.clone(),
            scale: self.scale,
            osds: self.osds,
            groups: self.groups,
            objects_per_file: self.objects_per_file,
            policy: self.policy.clone(),
            schedule: MigrationSchedule::EveryTick,
            stride: self.stride,
            affinity: ClientAffinity::Component,
            ..Scenario::default()
        }
    }
}

/// One timed run.
#[derive(Debug)]
pub struct ScaleRun {
    pub wall_s: f64,
    pub digest: u64,
    pub report: RunReport,
}

/// Runs the configuration once and times it.
pub fn run(cfg: &ScaleConfig) -> ScaleRun {
    let scenario = cfg.scenario(0);
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now(); // edm-audit: allow(det.wallclock, "wall-clock timing IS this experiment's measurement; it never feeds back into the simulation")
                                  // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
    let report = scenario.run().expect("scale scenario failed");
    let wall_s = started.elapsed().as_secs_f64();
    ScaleRun {
        wall_s,
        digest: report_digest(&report),
        report,
    }
}

pub fn render(cfg: &ScaleConfig, run: &ScaleRun) -> String {
    let rows = vec![vec![
        format!("{} OSDs / {} groups", cfg.osds, cfg.groups),
        format!("{:.2}", run.wall_s),
        format!(
            "{:.0}",
            run.report.completed_ops as f64 / run.wall_s.max(1e-9)
        ),
        format!("{:#018x}", run.digest),
    ]];
    render_table(&["shape", "wall s", "replayed ops/s", "digest"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "shards must be 0")]
    fn nonzero_shards_panics() {
        ScaleConfig::smoke(0.01).scenario(2);
    }
}
