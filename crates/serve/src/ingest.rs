//! Ingest mode: a live, serialized mirror of the engine's op-service
//! path.
//!
//! Replay mode drives the full discrete-event engine; ingest mode cannot
//! — operations arrive from the network with no future to schedule
//! against. [`LiveWorld`] therefore applies each operation *immediately*
//! against the same cluster substrate (catalog, striping, OSDs, FTL),
//! advancing a virtual clock by the service time of what it just did:
//!
//! * file ops map through the RAID layout exactly like the engine
//!   ([`issue`-path parity]: same `on_access` pages, same device calls,
//!   same `Wc` accounting, same EWMA update) but execute serially, with
//!   no queueing — virtual time advances by the summed sub-op service
//!   times;
//! * wear-monitor ticks fire whenever the clock crosses the scenario's
//!   `wear_tick_us` boundary: policy tick, trigger evaluation, Algorithm
//!   1 planning (`plan_obs`, journaling its trigger/plan/assessment
//!   exactly as in batch runs), capacity sanitation mirroring the
//!   engine's `fire_migration`, and instant move execution (device
//!   read-plus-write for wear realism, `migration_start`/
//!   `migration_finish`/`remap_update` journaled in the engine's order);
//! * no queue-depth events are emitted — there are no queues — which by
//!   the conformance spec's rules leaves the queue model trivially
//!   satisfied, so `edm-probe --verify` accepts ingest journals.
//!
//! Crash recovery: [`LiveWorld::checkpoint_now`] snapshots the scenario
//! text, clock, counters, cluster, and policy state at a tick boundary;
//! [`LiveWorld::resume`] rebuilds the world and then *replays the dedup*:
//! the first `applied_ops` valid operations of a re-fed stream are
//! skipped without touching state. Feeding the full op stream to a
//! resumed daemon therefore converges on the exact state of an
//! uninterrupted run — the recovery property the serve gate checks.

use std::path::{Path, PathBuf};

use edm_cluster::migrate::validate_plan;
use edm_cluster::osd::OsdError;
use edm_cluster::{
    AccessEvent, AccessKind, Cluster, MigrationSchedule, Migrator, MoveAction, OsdId,
};
use edm_obs::{Event, Recorder};
use edm_scenario::Scenario;
use edm_snap::{SnapError, SnapWriter, SnapshotFile};
use edm_workload::{FileId, FileOp};

/// Layout version of the `serve-live` snapshot section.
const SNAP_VERSION: u64 = 1;

/// Snapshot section holding the live-world scalar state.
const SECTION: &str = "serve-live";

/// Pages an access `[offset, offset + len)` touches (mirror of the
/// cluster crate's internal accounting).
fn pages_spanned(offset: u64, len: u64, page_size: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    (offset + len - 1) / page_size - offset / page_size + 1
}

/// What [`LiveWorld::apply_line`] did with one operation line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The operation mutated the world; `ticked` reports whether a wear
    /// tick fired afterwards (the daemon's checkpoint-safe point).
    Applied { ticked: bool },
    /// The operation was consumed by resume dedup: an earlier
    /// incarnation already applied it.
    Replayed,
    /// The line failed validation; nothing was mutated.
    Rejected(String),
}

/// Counter snapshot for `/stats` and `/healthz` rendering. Every field
/// here is *convergent*: an interrupted-and-resumed session re-fed the
/// same stream finishes with the same values as an uninterrupted one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    pub applied_ops: u64,
    pub reads: u64,
    pub writes: u64,
    pub ticks: u64,
    pub migration_evaluations: u64,
    pub migrations_triggered: u64,
    pub failed_moves: u64,
    pub moved_objects: u64,
    pub moved_bytes: u64,
}

/// The ingest-mode world: cluster + policy + virtual clock.
pub struct LiveWorld {
    scenario: Scenario,
    cluster: Cluster,
    policy: Box<dyn Migrator>,
    page_size: u64,
    now_us: u64,
    next_tick_us: u64,
    /// Valid operations to silently skip after a resume (dedup).
    skip_remaining: u64,
    /// Operations consumed by dedup this incarnation.
    skipped_ops: u64,
    /// Lines rejected by validation this incarnation.
    rejected_lines: u64,
    stats: LiveStats,
    last_error: Option<String>,
}

impl LiveWorld {
    /// Builds a fresh world from a scenario. Ingest mode requires the
    /// continuous (`every-tick`) schedule — there is no trace midpoint
    /// to anchor one-shot migration on — and rejects injected failures,
    /// which only make sense against the engine's queues.
    pub fn new(scenario: Scenario) -> Result<LiveWorld, String> {
        if scenario.schedule != MigrationSchedule::EveryTick {
            return Err("ingest mode requires `schedule every-tick`".to_string());
        }
        if !scenario.failures.is_empty() {
            return Err("ingest mode does not support injected failures".to_string());
        }
        let trace = scenario.synth_trace();
        let cluster = scenario.build_cluster(&trace)?;
        let policy = scenario.build_policy()?;
        let page_size = cluster.osd(OsdId(0)).ssd().geometry().page_size;
        let next_tick_us = cluster.config.wear_tick_us;
        Ok(LiveWorld {
            scenario,
            cluster,
            policy,
            page_size,
            now_us: 0,
            next_tick_us,
            skip_remaining: 0,
            skipped_ops: 0,
            rejected_lines: 0,
            stats: LiveStats::default(),
            last_error: None,
        })
    }

    /// Emits the journal preamble (call once, right after constructing
    /// the recorder). Mirrors the engine's `run_meta` record.
    pub fn emit_run_meta(&self, obs: &mut dyn Recorder) {
        if !obs.events_on() {
            return;
        }
        let geometry = self.cluster.osd(OsdId(0)).ssd().geometry();
        let blocks = geometry.blocks as u64;
        obs.set_now(0);
        obs.event(Event::RunMeta {
            osds: self.cluster.config.osds,
            groups: self.cluster.config.groups,
            objects_per_file: self.cluster.config.objects_per_file,
            capacity_bytes: self.cluster.osd(OsdId(0)).capacity_bytes(),
            blocks_per_osd: blocks,
        });
    }

    // ---- accessors ------------------------------------------------------

    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn policy_name(&self) -> String {
        self.policy.name().to_string()
    }

    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    pub fn stats(&self) -> LiveStats {
        self.stats
    }

    /// Operations consumed by resume dedup this incarnation.
    pub fn skipped_ops(&self) -> u64 {
        self.skipped_ops
    }

    /// Valid operations still owed to the dedup skip window.
    pub fn skip_remaining(&self) -> u64 {
        self.skip_remaining
    }

    pub fn rejected_lines(&self) -> u64 {
        self.rejected_lines
    }

    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// The policy's current plan against the live cluster state,
    /// without journaling or applying anything (the `/plan` endpoint).
    /// Read-only by the `plan_obs` contract.
    pub fn preview_plan(&mut self) -> Vec<MoveAction> {
        let view = self.cluster.view(self.now_us);
        self.policy.plan_obs(&view, &mut edm_obs::NoopRecorder)
    }

    // ---- op application -------------------------------------------------

    /// Validates and applies one operation line (`r|w <file> <offset>
    /// <len>`). Validation is complete before any mutation, so a
    /// rejected line leaves the world untouched — which is also what
    /// keeps resume dedup aligned: only *valid* lines consume the skip
    /// window, and validation is deterministic across incarnations.
    pub fn apply_line(&mut self, line: &str, obs: &mut dyn Recorder) -> ApplyOutcome {
        let (file, op) = match parse_op_line(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.rejected_lines += 1;
                return ApplyOutcome::Rejected(e);
            }
        };
        let Some(file_size) = self.cluster.catalog.file(file).map(|m| m.size) else {
            self.rejected_lines += 1;
            return ApplyOutcome::Rejected(format!("unknown file {}", file.0));
        };
        let (offset, len, write) = match op {
            FileOp::Read { offset, len } => (offset, len, false),
            FileOp::Write { offset, len } => (offset, len, true),
            // parse_op_line only produces reads and writes.
            FileOp::Open | FileOp::Close => {
                self.rejected_lines += 1;
                return ApplyOutcome::Rejected("open/close are not ingestible".to_string());
            }
        };
        if len == 0 {
            self.rejected_lines += 1;
            return ApplyOutcome::Rejected("zero-length I/O".to_string());
        }
        let layout = *self.cluster.catalog.layout();
        // Bound the line before mapping it: the mapper builds one group of
        // object I/Os per stripe unit and does not guard `offset + len`
        // against wrapping. A file's objects hold `rows` stripe rows, so
        // this is the accept set of the per-object size check below.
        let data_bytes = layout
            .rows(file_size)
            .saturating_mul(layout.row_data_bytes());
        if offset.checked_add(len).is_none_or(|end| end > data_bytes) {
            self.rejected_lines += 1;
            return ApplyOutcome::Rejected(format!(
                "I/O beyond file {}: {len} bytes at offset {offset}, file holds {data_bytes}",
                file.0
            ));
        }
        let ios = if write {
            layout.map_write(offset, len)
        } else {
            layout.map_read(offset, len)
        };
        let placement = *self.cluster.catalog.placement();
        // Full validation pass before any mutation.
        for io in &ios {
            let object = placement.object_id(file, io.object_index);
            let Some(size) = self.cluster.object_size(object) else {
                self.rejected_lines += 1;
                return ApplyOutcome::Rejected(format!(
                    "file {} has no object index {}",
                    file.0, io.object_index
                ));
            };
            if io.offset + io.len > size {
                self.rejected_lines += 1;
                return ApplyOutcome::Rejected(format!(
                    "I/O beyond file {}: object {} is {} bytes, sub-op wants [{}, {})",
                    file.0,
                    object,
                    size,
                    io.offset,
                    io.offset + io.len
                ));
            }
        }
        // The line is valid: it consumes the dedup window or applies.
        if self.skip_remaining > 0 {
            self.skip_remaining -= 1;
            self.skipped_ops += 1;
            return ApplyOutcome::Replayed;
        }
        obs.set_now(self.now_us);
        let mut service_us = 0u64;
        for io in ios {
            let object = placement.object_id(file, io.object_index);
            self.policy.on_access(AccessEvent {
                now_us: self.now_us,
                object,
                kind: if io.kind.is_write() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                pages: pages_spanned(io.offset, io.len, self.page_size),
            });
            let osd = self.cluster.catalog.locate(object);
            obs.set_device(Some(osd.0));
            let device = if io.kind.is_write() {
                self.cluster
                    .osd_mut(osd)
                    .write_object_obs(object, io.offset, io.len, obs)
            } else {
                self.cluster
                    .osd_mut(osd)
                    .read_object(object, io.offset, io.len)
            };
            obs.set_device(None);
            let device_us = match device {
                Ok(t) => t.as_micros(),
                // Unreachable after validation; record rather than panic
                // (a daemon must not die on a protocol-level surprise).
                Err(e) => {
                    self.last_error = Some(format!("device op on {osd}: {e}"));
                    0
                }
            };
            let sub_service = self.cluster.config.osd_overhead_us + device_us;
            self.cluster.osd_mut(osd).record_service(sub_service);
            obs.latency("subop_sojourn_us", sub_service);
            service_us += sub_service;
        }
        self.now_us += service_us;
        self.stats.applied_ops += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        obs.counter("serve.ops_applied", 1);
        let mut ticked = false;
        if self.now_us >= self.next_tick_us {
            self.run_tick(obs);
            ticked = true;
            while self.next_tick_us <= self.now_us {
                self.next_tick_us += self.cluster.config.wear_tick_us;
            }
        }
        ApplyOutcome::Applied { ticked }
    }

    // ---- wear-monitor tick ----------------------------------------------

    /// The live tick body: mirror of the engine's `handle_tick` under the
    /// continuous schedule, minus queue sampling (there are no queues).
    fn run_tick(&mut self, obs: &mut dyn Recorder) {
        obs.set_now(self.now_us);
        obs.counter("sim.ticks", 1);
        self.stats.ticks += 1;
        self.policy.on_tick(self.now_us);
        self.fire_migration(obs);
        for o in 0..self.cluster.config.osds {
            self.cluster.osd_mut(OsdId(o)).reset_wc_window();
        }
        self.policy.on_window_reset();
    }

    /// Mirror of the engine's `fire_migration`: plan, validate, capacity-
    /// sanitize, then (unlike the engine's queued transfer) execute each
    /// accepted move instantly.
    fn fire_migration(&mut self, obs: &mut dyn Recorder) {
        let view = self.cluster.view(self.now_us);
        obs.counter("sim.migration_evaluations", 1);
        self.stats.migration_evaluations += 1;
        let plan = self.policy.plan_obs(&view, obs);
        if plan.is_empty() {
            return;
        }
        let placement = *self.cluster.catalog.placement();
        if let Err(e) = validate_plan(&plan, &view, false, |o| placement.group_of(o)) {
            // A structurally invalid plan is a policy bug; the batch
            // engine aborts, a daemon drops the round and keeps serving.
            self.last_error = Some(format!(
                "policy {} produced invalid plan: {e}",
                self.policy.name()
            ));
            self.stats.failed_moves += plan.len() as u64;
            return;
        }
        // Capacity sanitation, exactly as in the engine (§III.B.5 "to
        // avoid disk saturation"). No pending-move exclusion: live moves
        // complete within the tick, so none are ever in flight here.
        let mut projected_free: Vec<i64> = (0..self.cluster.config.osds)
            .map(|o| self.cluster.osd(OsdId(o)).free_bytes() as i64)
            .collect();
        let reserve = (self.cluster.osd(OsdId(0)).capacity_bytes() as f64
            * self.cluster.config.dest_free_reserve) as i64;
        let mut accepted = Vec::new();
        for action in plan {
            let size = self.cluster.object_size(action.object).unwrap_or(0) as i64;
            let Some(dest_free) = projected_free.get_mut(action.dest.0 as usize) else {
                self.stats.failed_moves += 1;
                continue;
            };
            if *dest_free - size < reserve {
                self.stats.failed_moves += 1;
                continue;
            }
            *dest_free -= size;
            if let Some(source_free) = projected_free.get_mut(action.source.0 as usize) {
                *source_free += size;
            }
            accepted.push(action);
        }
        if accepted.is_empty() {
            return;
        }
        self.stats.migrations_triggered += 1;
        for action in accepted {
            self.execute_move(action, obs);
        }
    }

    /// Executes one accepted move instantly: allocate at the destination,
    /// copy through the devices (wear + `Wc` accounting), drop the
    /// source, update the catalog — journaling the engine's exact event
    /// sequence (`migration_start` … `migration_finish`, `remap_update`).
    fn execute_move(&mut self, action: MoveAction, obs: &mut dyn Recorder) {
        let Some(size) = self.cluster.object_size(action.object) else {
            self.stats.failed_moves += 1;
            return;
        };
        match self
            .cluster
            .osd_mut(action.dest)
            .create_object(action.object, size, false)
        {
            Ok(_) => {}
            Err(OsdError::NoSpace { .. }) => {
                self.stats.failed_moves += 1;
                return;
            }
            Err(e) => {
                self.last_error =
                    Some(format!("move of {} to {}: {e}", action.object, action.dest));
                self.stats.failed_moves += 1;
                return;
            }
        }
        obs.counter("sim.moves_started", 1);
        if obs.events_on() {
            obs.event(Event::MigrationStart {
                object: action.object.0,
                source: action.source.0,
                dest: action.dest.0,
                bytes: size,
            });
        }
        // The copy is charged to the devices (read wear at the source,
        // write wear + Wc at the destination) but not to the clock: the
        // whole move lands at the tick instant.
        obs.set_device(Some(action.source.0));
        let read = self
            .cluster
            .osd_mut(action.source)
            .read_whole_object(action.object);
        obs.set_device(Some(action.dest.0));
        let write = read.and_then(|_| {
            self.cluster
                .osd_mut(action.dest)
                .write_object_obs(action.object, 0, size, obs)
        });
        obs.set_device(None);
        if let Err(e) = write {
            // Roll the half-made copy back so the catalog stays coherent.
            self.last_error = Some(format!("move copy of {} failed: {e}", action.object));
            let _ = self
                .cluster
                .osd_mut(action.dest)
                .remove_object(action.object);
            self.stats.failed_moves += 1;
            return;
        }
        if let Err(e) = self
            .cluster
            .osd_mut(action.source)
            .remove_object(action.object)
        {
            self.last_error = Some(format!("dropping source copy of {}: {e}", action.object));
            let _ = self
                .cluster
                .osd_mut(action.dest)
                .remove_object(action.object);
            self.stats.failed_moves += 1;
            return;
        }
        self.cluster.catalog.record_move(action.object, action.dest);
        obs.counter("sim.moved_objects", 1);
        obs.counter("sim.moved_bytes", size);
        if obs.events_on() {
            obs.event(Event::MigrationFinish {
                object: action.object.0,
                source: action.source.0,
                dest: action.dest.0,
                bytes: size,
            });
            obs.event(Event::RemapUpdate {
                object: action.object.0,
                dest: action.dest.0,
            });
        }
        self.stats.moved_objects += 1;
        self.stats.moved_bytes += size;
    }

    // ---- crash recovery -------------------------------------------------

    /// Cuts a checkpoint into `dir`. Only call at a tick boundary (the
    /// daemon does so on `Applied { ticked: true }` or between ops) —
    /// the world holds no mid-decision state there by construction.
    pub fn checkpoint_now(&self, dir: &Path) -> Result<PathBuf, SnapError> {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return Err(SnapError::Io(format!(
                "creating checkpoint dir {}: {e}",
                dir.display()
            )));
        }
        let mut snap = SnapshotFile::new();
        let mut w = SnapWriter::new();
        w.put_u64(SNAP_VERSION);
        w.put_str(&self.scenario.to_text());
        w.put_str(self.policy.name());
        w.put_u64(self.now_us);
        w.put_u64(self.next_tick_us);
        w.put_u64(self.stats.applied_ops);
        w.put_u64(self.stats.reads);
        w.put_u64(self.stats.writes);
        w.put_u64(self.stats.ticks);
        w.put_u64(self.stats.migration_evaluations);
        w.put_u64(self.stats.migrations_triggered);
        w.put_u64(self.stats.failed_moves);
        w.put_u64(self.stats.moved_objects);
        w.put_u64(self.stats.moved_bytes);
        snap.push_section(SECTION, w);
        snap.push("cluster", &self.cluster);
        let mut pw = SnapWriter::new();
        self.policy.save_state(&mut pw);
        snap.push_section("policy", pw);
        let path = dir.join(format!("ckpt_{:020}.snap", self.now_us));
        snap.write_to(&path)?;
        Ok(path)
    }

    /// Rebuilds a world from a checkpoint. The resumed world skips the
    /// first `applied_ops` valid operations it is fed, so the host can
    /// (and the gate does) re-feed the entire op stream.
    pub fn resume(path: &Path) -> Result<LiveWorld, String> {
        let snap = SnapshotFile::read_from(path)
            .map_err(|e| format!("{}: cannot read checkpoint: {e}", path.display()))?;
        let mut r = snap
            .reader(SECTION)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let version = r.take_u64();
        if version != SNAP_VERSION {
            return Err(format!(
                "{}: serve-live snapshot version {version}, expected {SNAP_VERSION}",
                path.display()
            ));
        }
        let scenario_text = r.take_string();
        let policy_name = r.take_string();
        let now_us = r.take_u64();
        let next_tick_us = r.take_u64();
        let stats = LiveStats {
            applied_ops: r.take_u64(),
            reads: r.take_u64(),
            writes: r.take_u64(),
            ticks: r.take_u64(),
            migration_evaluations: r.take_u64(),
            migrations_triggered: r.take_u64(),
            failed_moves: r.take_u64(),
            moved_objects: r.take_u64(),
            moved_bytes: r.take_u64(),
        };
        r.finish(SECTION)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let scenario = Scenario::parse(&scenario_text)
            .map_err(|e| format!("{}: embedded scenario: {e}", path.display()))?;
        let mut policy = scenario.build_policy()?;
        if policy.name() != policy_name {
            return Err(format!(
                "{}: checkpoint was cut under policy {policy_name:?}, scenario builds {:?}",
                path.display(),
                policy.name()
            ));
        }
        let cluster: Cluster = snap
            .decode("cluster")
            .map_err(|e| format!("{}: cluster section: {e}", path.display()))?;
        {
            let mut pr = snap
                .reader("policy")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            policy.load_state(&mut pr);
            pr.finish("policy")
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let page_size = cluster.osd(OsdId(0)).ssd().geometry().page_size;
        Ok(LiveWorld {
            scenario,
            cluster,
            policy,
            page_size,
            now_us,
            next_tick_us,
            skip_remaining: stats.applied_ops,
            skipped_ops: 0,
            rejected_lines: 0,
            stats,
            last_error: None,
        })
    }
}

/// Parses one op line: `r <file> <offset> <len>` or `w <file> <offset>
/// <len>` (decimal integers).
fn parse_op_line(line: &str) -> Result<(FileId, FileOp), String> {
    let mut it = line.split_ascii_whitespace();
    let kind = it.next().ok_or("empty line")?;
    let mut num = |what: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("missing {what}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    let file = FileId(num("file id")?);
    let offset = num("offset")?;
    let len = num("length")?;
    if it.next().is_some() {
        return Err("trailing tokens after <len>".to_string());
    }
    let op = match kind {
        "r" => FileOp::Read { offset, len },
        "w" => FileOp::Write { offset, len },
        other => return Err(format!("unknown op {other:?} (expected r or w)")),
    };
    Ok((file, op))
}

/// Renders a scenario's synthesized trace as ingest protocol lines
/// (reads and writes only; opens and closes carry no device work). This
/// is what `edm-serve --dump-ops` prints, and what the serve gate feeds
/// back through `POST /ingest`.
pub fn dump_ops(scenario: &Scenario) -> String {
    let trace = scenario.synth_trace();
    let mut out = String::new();
    for record in &trace.records {
        match record.op {
            FileOp::Read { offset, len } => {
                out.push_str(&format!("r {} {} {}\n", record.file.0, offset, len));
            }
            FileOp::Write { offset, len } => {
                out.push_str(&format!("w {} {} {}\n", record.file.0, offset, len));
            }
            FileOp::Open | FileOp::Close => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel};

    fn scenario() -> Scenario {
        Scenario {
            trace: "random".into(),
            scale: 0.002,
            osds: 8,
            groups: 4,
            schedule: MigrationSchedule::EveryTick,
            lambda: 0.05,
            ..Scenario::default()
        }
    }

    #[test]
    fn rejects_wrong_schedule_and_failures() {
        let mut s = scenario();
        s.schedule = MigrationSchedule::Midpoint;
        assert!(LiveWorld::new(s)
            .err()
            .expect("must fail")
            .contains("every-tick"));
        let mut s = scenario();
        s.failures = vec![edm_cluster::FailureSpec {
            at_us: 1,
            osd: OsdId(0),
            rebuild: false,
        }];
        assert!(LiveWorld::new(s)
            .err()
            .expect("must fail")
            .contains("failures"));
    }

    #[test]
    fn parse_op_line_accepts_and_rejects() {
        assert_eq!(
            parse_op_line("w 3 0 4096").unwrap(),
            (
                FileId(3),
                FileOp::Write {
                    offset: 0,
                    len: 4096
                }
            )
        );
        assert_eq!(
            parse_op_line("r 12 512 100").unwrap(),
            (
                FileId(12),
                FileOp::Read {
                    offset: 512,
                    len: 100
                }
            )
        );
        assert!(parse_op_line("x 1 2 3").is_err());
        assert!(parse_op_line("w 1 2").is_err());
        assert!(parse_op_line("w 1 2 3 4").is_err());
        assert!(parse_op_line("w one 2 3").is_err());
    }

    #[test]
    fn invalid_lines_do_not_mutate() {
        let mut w = LiveWorld::new(scenario()).unwrap();
        let mut obs = MemoryRecorder::new(ObsLevel::Off);
        assert!(matches!(
            w.apply_line("w 999999999 0 1", &mut obs),
            ApplyOutcome::Rejected(_)
        ));
        assert!(matches!(
            w.apply_line("garbage", &mut obs),
            ApplyOutcome::Rejected(_)
        ));
        assert_eq!(w.stats().applied_ops, 0);
        assert_eq!(w.rejected_lines(), 2);
        assert_eq!(w.now_us(), 0);
    }

    #[test]
    fn out_of_range_lines_are_rejected_before_mapping() {
        let mut w = LiveWorld::new(scenario()).unwrap();
        let mut obs = MemoryRecorder::new(ObsLevel::Off);
        let meta = w.cluster().catalog.files().next().unwrap().clone();
        let layout = *w.cluster().catalog.layout();
        let data_bytes = layout.rows(meta.size) * layout.row_data_bytes();
        let f = meta.file.0;
        let last = format!("w {f} {} 1", data_bytes - 1);
        let cases = [
            // `offset + len` wraps past u64::MAX.
            format!("w {f} 18446744073709551605 100"),
            format!("r {f} 18446744073709551605 100"),
            // A valid offset with a 2^60-byte length: mapped first, it
            // would build one object I/O group per 64 KiB stripe unit.
            format!("w {f} 0 {}", 1u64 << 60),
            format!("r {f} 0 {}", 1u64 << 60),
            // One byte past the last stripe row.
            format!("w {f} {data_bytes} 1"),
            format!("r {f} {} 2", data_bytes - 1),
        ];
        for line in &cases {
            assert!(
                matches!(w.apply_line(line, &mut obs), ApplyOutcome::Rejected(_)),
                "{line}"
            );
        }
        assert_eq!(w.rejected_lines(), cases.len() as u64);
        assert_eq!(w.stats().applied_ops, 0);
        assert_eq!(w.now_us(), 0);
        // The last byte of the last row is still in range.
        assert!(matches!(
            w.apply_line(&last, &mut obs),
            ApplyOutcome::Applied { .. }
        ));
    }

    #[test]
    fn repeated_ingest_of_one_stream_is_bit_identical() {
        let ops = dump_ops(&scenario());
        let ingest = || {
            let mut w = LiveWorld::new(scenario()).unwrap();
            for line in ops.lines() {
                assert!(
                    matches!(
                        w.apply_line(line, &mut NoopRecorder),
                        ApplyOutcome::Applied { .. }
                    ),
                    "dump_ops line rejected: {line}"
                );
            }
            w.stats()
        };
        let first = ingest();
        assert_eq!(first.applied_ops, ops.lines().count() as u64);
        assert!(first.ticks > 0, "ingest never crossed a wear tick");
        assert!(first.moved_objects > 0, "ingest never migrated");
        assert_eq!(first, ingest());
    }

    #[test]
    fn ops_advance_time_and_fire_ticks() {
        let mut w = LiveWorld::new(scenario()).unwrap();
        let mut obs = MemoryRecorder::new(ObsLevel::Events);
        w.emit_run_meta(&mut obs);
        let ops = dump_ops(w.scenario());
        let lines: Vec<&str> = ops.lines().collect();
        assert!(lines.len() > 500, "scenario too small to exercise ticks");
        let mut ticked = 0u64;
        for line in &lines {
            match w.apply_line(line, &mut obs) {
                ApplyOutcome::Applied { ticked: t } => ticked += t as u64,
                ApplyOutcome::Rejected(e) => panic!("dump_ops line rejected: {e}"),
                ApplyOutcome::Replayed => panic!("fresh world must not dedup"),
            }
        }
        assert!(w.now_us() > 0);
        assert!(
            ticked > 0,
            "the full op stream must cross at least one wear tick"
        );
        assert_eq!(w.stats().ticks, ticked);
        assert_eq!(obs.counter_value("sim.ticks"), ticked);
        assert_eq!(w.stats().applied_ops, lines.len() as u64);
        // Journal time is non-decreasing (canonical order holds).
        let mut last = 0;
        for e in obs.journal() {
            assert!(e.t_us >= last);
            last = e.t_us;
        }
    }

    #[test]
    fn checkpoint_resume_converges_with_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("edm-serve-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ops = dump_ops(&scenario());
        let lines: Vec<&str> = ops.lines().take(3000).collect();

        // Uninterrupted run.
        let mut a = LiveWorld::new(scenario()).unwrap();
        let mut obs_a = MemoryRecorder::new(ObsLevel::Metrics);
        for line in &lines {
            a.apply_line(line, &mut obs_a);
        }

        // Interrupted at op 1000, resumed, re-fed the FULL stream.
        let mut b1 = LiveWorld::new(scenario()).unwrap();
        let mut obs_b = MemoryRecorder::new(ObsLevel::Metrics);
        for line in lines.iter().take(1000) {
            b1.apply_line(line, &mut obs_b);
        }
        let path = b1.checkpoint_now(&dir).unwrap();
        drop(b1);
        let mut b2 = LiveWorld::resume(&path).unwrap();
        let mut obs_b2 = MemoryRecorder::new(ObsLevel::Metrics);
        for line in &lines {
            b2.apply_line(line, &mut obs_b2);
        }

        assert_eq!(b2.skipped_ops(), 1000);
        assert_eq!(a.stats(), b2.stats());
        assert_eq!(a.now_us(), b2.now_us());
        // Device-level state converges too: wear, placement, free space.
        for o in 0..a.cluster().config.osds {
            let (oa, ob) = (a.cluster().osd(OsdId(o)), b2.cluster().osd(OsdId(o)));
            assert_eq!(
                oa.ssd().wear().block_erases,
                ob.ssd().wear().block_erases,
                "osd {o}"
            );
            assert_eq!(oa.free_bytes(), ob.free_bytes(), "osd {o}");
            assert_eq!(oa.object_count(), ob.object_count(), "osd {o}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
