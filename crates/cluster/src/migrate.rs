//! The migration-policy interface between the cluster simulator and the
//! schemes under study (EDM-HDF, EDM-CDF, CMT, and the no-op baseline).
//!
//! The cluster drives a [`Migrator`] through three hooks:
//!
//! * [`Migrator::on_access`] — every object-level I/O (the EDM access
//!   tracker updates object temperature here, Fig. 4);
//! * [`Migrator::on_tick`] — the wear-monitor tick, every simulated
//!   minute (§III.B.2);
//! * [`Migrator::plan`] — asked at the migration point; returns the data
//!   movement actions, each "indicated by a triple (oid, source_id,
//!   dest_id)" (§III.B.5).

use edm_snap::{SnapReader, SnapWriter, Snapshot};
use serde::{Deserialize, Serialize};

use crate::ids::{GroupId, ObjectId, OsdId};

/// Kind of access presented to the policy's tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    Read,
    Write,
}

/// One object access, as seen by the access tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessEvent {
    pub now_us: u64,
    pub object: ObjectId,
    pub kind: AccessKind,
    /// Flash pages touched by the access.
    pub pages: u64,
}

/// Per-OSD state exposed to policies at planning time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OsdView {
    pub osd: OsdId,
    pub group: GroupId,
    /// Host page writes since the start of the measurement period — the
    /// `Wc` of the wear model (Eq. 1/4).
    pub wc_pages: u64,
    /// Disk utilization `u` of the wear model (live bytes / capacity).
    pub utilization: f64,
    /// Actual measured block erases so far (ground truth; policies use the
    /// *model* instead, the simulator uses this for reporting).
    pub measured_erases: u64,
    /// EWMA of serviced I/O latency, µs — CMT's load factor (§V intro).
    pub ewma_latency_us: f64,
    /// Free exported bytes remaining on the device.
    pub free_bytes: u64,
    /// Exported capacity in bytes.
    pub capacity_bytes: u64,
}

/// Per-object state exposed to policies at planning time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ObjectView {
    pub object: ObjectId,
    /// Where the object currently lives (after any prior remapping).
    pub osd: OsdId,
    pub size_bytes: u64,
    /// True if the object already has a remapping-table entry; §III.C
    /// prefers re-migrating those to bound table growth.
    pub remapped: bool,
}

/// Snapshot handed to [`Migrator::plan`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterView {
    pub now_us: u64,
    pub page_size: u64,
    /// Flash pages per block (`Np` of Eq. 1).
    pub pages_per_block: u32,
    pub osds: Vec<OsdView>,
    pub objects: Vec<ObjectView>,
}

impl ClusterView {
    pub fn osd(&self, id: OsdId) -> &OsdView {
        &self.osds[id.0 as usize]
    }

    /// Objects currently living on `osd`.
    pub fn objects_on(&self, osd: OsdId) -> impl Iterator<Item = &ObjectView> {
        self.objects.iter().filter(move |o| o.osd == osd)
    }
}

/// One migration action — the paper's `(oid, source_id, dest_id)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveAction {
    pub object: ObjectId,
    pub source: OsdId,
    pub dest: OsdId,
}

/// A migration scheme, driven by the cluster simulator.
pub trait Migrator {
    /// Human-readable policy name used in reports ("Baseline", "CMT",
    /// "EDM-HDF", "EDM-CDF").
    fn name(&self) -> &str;

    /// Called for every object-level I/O the cluster services.
    fn on_access(&mut self, _event: AccessEvent) {}

    /// Called every wear-monitor tick (§III.B.2: every simulated minute).
    fn on_tick(&mut self, _now_us: u64) {}

    /// Called at the migration point; returns the movement triples (empty
    /// = no migration). `view.osds[i].wc_pages` covers the measurement
    /// window chosen by the simulator.
    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction>;

    /// [`plan`](Self::plan) with an observability sink. The engine always
    /// calls this entry point; policies that journal their decision
    /// process (trigger evaluations, wear-model inputs, chosen plans)
    /// override it and make `plan` delegate here with a no-op recorder.
    /// Recording must be read-only: the returned plan is identical at
    /// every obs level.
    fn plan_obs(
        &mut self,
        view: &ClusterView,
        _obs: &mut dyn edm_obs::Recorder,
    ) -> Vec<MoveAction> {
        self.plan(view)
    }

    /// Called when the simulator closes a measurement window (continuous
    /// mode resets the per-window write counters each wear tick so the
    /// policy sees per-period rates, §III.B.2). Policies with their own
    /// windowed counters reset them here.
    fn on_window_reset(&mut self) {}

    /// Whether requests to an object must block while it is in flight.
    /// EDM blocks ("all the requests related to the objects being moved
    /// are blocked", §V.D); Sorrento-style CMT copies lazily and keeps
    /// serving from the source, so it overrides this to `false`.
    fn blocking_moves(&self) -> bool {
        true
    }

    /// Unused: nothing in the workspace calls or overrides this. It stays
    /// declared, with its default body, only because the `perfbench/`
    /// ledger's `TimedMigrator` forwards it; remove both together.
    fn parallel_safe(&self) -> bool {
        false
    }

    /// Serializes the policy's mutable state into a checkpoint. Stateless
    /// policies keep the default no-op; stateful ones (the EDM access
    /// tracker) must write everything [`load_state`](Self::load_state)
    /// needs to continue bit-identically.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`save_state`](Self::save_state). The
    /// engine only resumes a checkpoint whose recorded policy name matches
    /// this policy, so the byte layouts always agree.
    fn load_state(&mut self, _r: &mut SnapReader) {}
}

impl Snapshot for MoveAction {
    fn save(&self, w: &mut SnapWriter) {
        self.object.save(w);
        self.source.save(w);
        self.dest.save(w);
    }
    fn load(r: &mut SnapReader) -> Self {
        MoveAction {
            object: ObjectId::load(r),
            source: OsdId::load(r),
            dest: OsdId::load(r),
        }
    }
}

/// The paper's baseline: hash placement, never migrates.
#[derive(Debug, Default, Clone)]
pub struct NoMigration;

impl Migrator for NoMigration {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn plan(&mut self, _view: &ClusterView) -> Vec<MoveAction> {
        Vec::new()
    }
}

/// Validates a plan against structural rules; the simulator refuses plans
/// that violate them. Returns the first violation.
pub fn validate_plan(
    plan: &[MoveAction],
    view: &ClusterView,
    intra_group_only: bool,
    group_of: impl Fn(OsdId) -> GroupId,
) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for (i, m) in plan.iter().enumerate() {
        if m.source == m.dest {
            return Err(format!("action {i}: source == dest ({})", m.source));
        }
        if !seen.insert(m.object) {
            return Err(format!("action {i}: object {} moved twice", m.object));
        }
        let obj = view
            .objects
            .iter()
            .find(|o| o.object == m.object)
            .ok_or_else(|| format!("action {i}: unknown object {}", m.object))?;
        if obj.osd != m.source {
            return Err(format!(
                "action {i}: object {} lives on {}, not {}",
                m.object, obj.osd, m.source
            ));
        }
        if intra_group_only && group_of(m.source) != group_of(m.dest) {
            return Err(format!(
                "action {i}: cross-group move {} -> {}",
                m.source, m.dest
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> ClusterView {
        ClusterView {
            now_us: 0,
            page_size: 4096,
            pages_per_block: 32,
            osds: (0..4)
                .map(|i| OsdView {
                    osd: OsdId(i),
                    group: GroupId(i % 2),
                    wc_pages: 0,
                    utilization: 0.5,
                    measured_erases: 0,
                    ewma_latency_us: 0.0,
                    free_bytes: 1 << 20,
                    capacity_bytes: 1 << 21,
                })
                .collect(),
            objects: vec![
                ObjectView {
                    object: ObjectId(1),
                    osd: OsdId(0),
                    size_bytes: 4096,
                    remapped: false,
                },
                ObjectView {
                    object: ObjectId(2),
                    osd: OsdId(1),
                    size_bytes: 4096,
                    remapped: true,
                },
            ],
        }
    }

    fn group(o: OsdId) -> GroupId {
        GroupId(o.0 % 2)
    }

    #[test]
    fn baseline_never_plans() {
        let mut b = NoMigration;
        assert_eq!(b.name(), "Baseline");
        assert!(b.plan(&view()).is_empty());
    }

    #[test]
    fn valid_intra_group_plan_passes() {
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        }];
        validate_plan(&plan, &view(), true, group).unwrap();
    }

    #[test]
    fn cross_group_move_rejected() {
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(1),
        }];
        assert!(validate_plan(&plan, &view(), true, group)
            .unwrap_err()
            .contains("cross-group"));
        // ...but allowed when the rule is off (CMT has no group rule).
        validate_plan(&plan, &view(), false, group).unwrap();
    }

    #[test]
    fn wrong_source_rejected() {
        let plan = vec![MoveAction {
            object: ObjectId(2),
            source: OsdId(0),
            dest: OsdId(2),
        }];
        assert!(validate_plan(&plan, &view(), true, group)
            .unwrap_err()
            .contains("lives on"));
    }

    #[test]
    fn duplicate_object_rejected() {
        let m = MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        };
        assert!(validate_plan(&[m, m], &view(), true, group)
            .unwrap_err()
            .contains("moved twice"));
    }

    #[test]
    fn self_move_rejected() {
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(0),
        }];
        assert!(validate_plan(&plan, &view(), false, group)
            .unwrap_err()
            .contains("source == dest"));
    }

    #[test]
    fn objects_on_filters_by_osd() {
        let v = view();
        assert_eq!(v.objects_on(OsdId(0)).count(), 1);
        assert_eq!(v.objects_on(OsdId(3)).count(), 0);
    }
}
