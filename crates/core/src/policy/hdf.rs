//! EDM-HDF: Hot-Data-First migration (§III.B.4–5).
//!
//! HDF rebalances wear by moving the most write-frequently accessed
//! objects from hot devices to cold ones: Eq. 4 says fewer pages written
//! means fewer erases, and thanks to workload skew a small number of
//! write-hot objects carries most of the write volume, so HDF minimizes
//! the data moved (and hence the write amplification of migration itself).

use edm_cluster::{AccessEvent, ClusterView, Migrator, MoveAction};
use edm_snap::{SnapReader, SnapWriter, Snapshot};

use crate::alg1::calculate_hdf;
use crate::config::{Assessor, EdmConfig};
use crate::evaluate::{assess_plan_obs, trim_to_improvement, trim_to_improvement_model};
use crate::plan::{dest_budget_bytes, distribute, Destination, Selected};
use crate::policy::{emit_plan_chosen, emit_wear_inputs, members_by_group};
use crate::temperature::AccessTracker;
use crate::trigger;
use crate::wear_model::WearModel;

/// The Hot-Data-First policy.
pub struct EdmHdf {
    cfg: EdmConfig,
    tracker: AccessTracker,
}

impl EdmHdf {
    pub fn new(cfg: EdmConfig) -> Self {
        // edm-audit: allow(panic.expect, "constructor contract: callers pass validated EDM configuration")
        cfg.validate().expect("invalid EDM configuration");
        let tracker = match cfg.tracker_capacity {
            Some(cap) => AccessTracker::with_capacity(cfg.temperature_interval_us, cap),
            None => AccessTracker::new(cfg.temperature_interval_us),
        };
        EdmHdf { tracker, cfg }
    }

    pub fn config(&self) -> &EdmConfig {
        &self.cfg
    }

    pub fn tracker(&self) -> &AccessTracker {
        &self.tracker
    }
}

impl Default for EdmHdf {
    fn default() -> Self {
        EdmHdf::new(EdmConfig::default())
    }
}

impl Migrator for EdmHdf {
    fn name(&self) -> &str {
        "EDM-HDF"
    }

    fn on_access(&mut self, event: AccessEvent) {
        self.tracker.record(event);
    }

    fn on_window_reset(&mut self) {
        self.tracker.reset_window();
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.tracker.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) {
        self.tracker = AccessTracker::load(r);
    }

    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
        self.plan_obs(view, &mut edm_obs::NoopRecorder)
    }

    fn plan_obs(&mut self, view: &ClusterView, obs: &mut dyn edm_obs::Recorder) -> Vec<MoveAction> {
        let model = WearModel {
            pages_per_block: view.pages_per_block,
            sigma: self.cfg.sigma,
        };
        // Cluster-wide wear-imbalance trigger (§III.B.2), computed from the
        // model, not from device-internal counters the MDS cannot see.
        let ecs: Vec<f64> = view
            .osds
            .iter()
            .map(|o| model.erase_count(o.wc_pages as f64, o.utilization))
            .collect();
        emit_wear_inputs(view, &ecs, obs);
        let decision =
            trigger::evaluate_obs(&ecs, self.cfg.lambda, "EDM-HDF", "erase_estimate", obs);
        if !self.cfg.force && !decision.triggered {
            return Vec::new();
        }
        // §III.B.2: sources are the devices with Ec − Ēc > Ēc·λ;
        // destinations are the devices below the cluster-wide average.
        // Algorithm 1 runs over whole groups, but only trigger-qualified
        // devices actually shed or absorb objects.
        let is_source = |o: &edm_cluster::OsdId| decision.sources.contains(&(o.0 as usize));
        let is_dest = |o: &edm_cluster::OsdId| decision.destinations.contains(&(o.0 as usize));

        let mut plan = Vec::new();
        for (_, members) in members_by_group(view) {
            if members.len() < 2 {
                continue;
            }
            let wc: Vec<f64> = members
                .iter()
                .map(|&m| view.osd(m).wc_pages as f64)
                .collect();
            let u: Vec<f64> = members.iter().map(|&m| view.osd(m).utilization).collect();
            // Algorithm 1 (HDF variant): how many page writes to shift.
            let amounts = calculate_hdf(&wc, &u, &model, &self.cfg.alg1);

            let mut dests: Vec<Destination> = members
                .iter()
                .zip(&amounts.delta)
                .filter(|(m, &d)| d > 0.0 && is_dest(m))
                .map(|(&m, &d)| Destination {
                    osd: m,
                    demand: d,
                    budget_bytes: dest_budget_bytes(view, m, self.cfg.dest_free_reserve),
                })
                .collect();
            if dests.is_empty() {
                continue;
            }

            for (&source, &delta) in members.iter().zip(&amounts.delta) {
                if delta >= 0.0 || !is_source(&source) {
                    continue;
                }
                let needed = -delta;
                // Candidates: objects on the source that actually received
                // writes this window, hottest (write temperature) first;
                // ties prefer already-remapped objects so the remapping
                // table does not grow (§III.C).
                let mut candidates: Vec<(Selected, f64, bool)> = view
                    .objects_on(source)
                    .filter_map(|o| {
                        let heat = self.tracker.heat(o.object, view.now_us);
                        if heat.window_write_pages == 0 {
                            return None;
                        }
                        Some((
                            Selected {
                                object: o.object,
                                source,
                                weight: heat.window_write_pages as f64,
                                size_bytes: o.size_bytes,
                            },
                            heat.write_temp,
                            o.remapped,
                        ))
                    })
                    .collect();
                candidates.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        // edm-audit: allow(panic.expect, "temperatures are finite by construction (sums of decayed counters)")
                        .expect("temperatures are finite")
                        .then(b.2.cmp(&a.2))
                        .then(a.0.object.cmp(&b.0.object))
                });
                let mut selected = Vec::new();
                let mut cum = 0.0;
                for (s, _, _) in candidates {
                    if cum >= needed {
                        break;
                    }
                    cum += s.weight;
                    selected.push(s);
                }
                plan.extend(distribute(&selected, &mut dests));
            }
        }
        // Whole-object selection can overshoot Algorithm 1's demand; never
        // publish a plan the model predicts makes the imbalance worse.
        let plan = match self.cfg.assessor {
            Assessor::Projection => trim_to_improvement(view, plan, &self.tracker, &model),
            Assessor::Model => trim_to_improvement_model(view, plan, &self.tracker, &model),
        };
        emit_plan_chosen("EDM-HDF", view, &plan, obs);
        if obs.events_on() {
            assess_plan_obs(view, &plan, &self.tracker, &model, obs);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::view;
    use edm_cluster::{AccessKind, ObjectId, OsdId};

    fn heat_object(p: &mut EdmHdf, obj: u64, writes: u64, pages: u64) {
        for _ in 0..writes {
            p.on_access(AccessEvent {
                now_us: 500_000,
                object: ObjectId(obj),
                kind: AccessKind::Write,
                pages,
            });
        }
    }

    /// 4 OSDs in 2 groups; OSD 0 is write-hot, OSD 2 (same group) is cold.
    fn hot_cold_view() -> edm_cluster::ClusterView {
        view(
            2,
            &[
                (100_000, 0.7, 0.0),
                (20_000, 0.6, 0.0),
                (5_000, 0.6, 0.0),
                (20_000, 0.6, 0.0),
            ],
            // Objects 0..4 on OSD 0, 4..6 on OSD 2.
            &[
                (0, 1 << 20),
                (0, 1 << 20),
                (0, 1 << 20),
                (0, 1 << 20),
                (2, 1 << 20),
                (2, 1 << 20),
            ],
        )
    }

    #[test]
    fn moves_hottest_written_objects_from_hot_to_cold() {
        let mut p = EdmHdf::default();
        heat_object(&mut p, 0, 50, 100); // hottest
        heat_object(&mut p, 1, 30, 100);
        heat_object(&mut p, 2, 5, 100);
        let plan = p.plan(&hot_cold_view());
        assert!(!plan.is_empty());
        // All moves intra-group: 0 -> 2 only.
        for m in &plan {
            assert_eq!(m.source, OsdId(0));
            assert_eq!(m.dest, OsdId(2));
        }
        // The hottest object moves first.
        assert_eq!(plan[0].object, ObjectId(0));
    }

    #[test]
    fn moves_are_intra_group_always() {
        let mut p = EdmHdf::default();
        for obj in 0..4 {
            heat_object(&mut p, obj, 10, 50);
        }
        let v = hot_cold_view();
        for m in p.plan(&v) {
            assert_eq!(m.source.0 % 2, m.dest.0 % 2, "cross-group move {m:?}");
        }
    }

    #[test]
    fn cold_objects_never_selected() {
        let mut p = EdmHdf::default();
        heat_object(&mut p, 0, 50, 100);
        // Objects 1..4 never written ⇒ not candidates even though the
        // source must shed a lot.
        let plan = p.plan(&hot_cold_view());
        assert!(plan.iter().all(|m| m.object == ObjectId(0)));
    }

    #[test]
    fn balanced_cluster_with_trigger_check_stays_put() {
        let cfg = EdmConfig {
            force: false,
            ..EdmConfig::default()
        };
        let mut p = EdmHdf::new(cfg);
        heat_object(&mut p, 0, 10, 10);
        let v = view(2, &[(10_000, 0.6, 0.0); 4], &[(0, 1 << 20), (1, 1 << 20)]);
        assert!(p.plan(&v).is_empty());
    }

    #[test]
    fn forced_plan_on_balanced_cluster_is_empty_anyway() {
        // Algorithm 1 finds nothing to shift when wear is equal.
        let mut p = EdmHdf::default();
        heat_object(&mut p, 0, 10, 10);
        let v = view(2, &[(10_000, 0.6, 0.0); 4], &[(0, 1 << 20)]);
        assert!(p.plan(&v).is_empty());
    }

    #[test]
    fn selection_stops_once_demand_met() {
        let mut p = EdmHdf::default();
        // Object 0 alone covers the needed shift (without overshooting it
        // so far that the improvement guard would drop the move).
        heat_object(&mut p, 0, 60, 1000);
        heat_object(&mut p, 1, 1, 1);
        let plan = p.plan(&hot_cold_view());
        assert_eq!(plan.len(), 1, "one object suffices: {plan:?}");
        assert_eq!(plan[0].object, ObjectId(0));
    }

    #[test]
    fn plans_that_overfill_the_destination_are_trimmed_to_empty() {
        let mut p = EdmHdf::default();
        // The only movable object is a 350 MB near-cold blob on the most
        // worn device. It fits the destination's free-space budget, but
        // the projection prices the destination at ~94% utilization —
        // GC amplification there outweighs the small rate shift, so the
        // improvement guard drops the move and publishes nothing.
        heat_object(&mut p, 0, 20, 100);
        let v = view(
            2,
            &[
                (30_000, 0.6, 0.0),
                (28_000, 0.6, 0.0),
                (26_000, 0.6, 0.0),
                (28_000, 0.6, 0.0),
            ],
            &[(0, 350 << 20)],
        );
        let plan = p.plan(&v);
        assert!(
            plan.is_empty(),
            "overfilling move must not be published: {plan:?}"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(EdmHdf::default().name(), "EDM-HDF");
    }

    #[test]
    fn plan_obs_journals_the_decision_and_changes_nothing() {
        use edm_obs::{Event, MemoryRecorder, ObsLevel};
        let v = hot_cold_view();
        let baseline = {
            let mut p = EdmHdf::default();
            heat_object(&mut p, 0, 50, 100);
            heat_object(&mut p, 1, 30, 100);
            p.plan(&v)
        };
        assert!(!baseline.is_empty());
        let mut p = EdmHdf::default();
        heat_object(&mut p, 0, 50, 100);
        heat_object(&mut p, 1, 30, 100);
        let mut rec = MemoryRecorder::new(ObsLevel::Events);
        let plan = p.plan_obs(&v, &mut rec);
        assert_eq!(plan, baseline, "recording must be read-only");
        // One wear-model input per OSD, then the trigger verdict.
        assert_eq!(rec.count_kind("wear_model_input"), v.osds.len());
        let trigger = rec
            .journal()
            .iter()
            .find_map(|e| match &e.event {
                Event::TriggerEval {
                    policy,
                    metric,
                    rsd,
                    lambda,
                    triggered,
                    ..
                } => Some((*policy, *metric, *rsd, *lambda, *triggered)),
                _ => None,
            })
            .expect("trigger evaluation journaled");
        assert_eq!(trigger.0, "EDM-HDF");
        assert_eq!(trigger.1, "erase_estimate");
        assert!(trigger.2 > trigger.3, "rsd above lambda in this view");
        assert!(trigger.4);
        // The chosen plan and its predicted effect close the journal.
        let chosen = rec
            .journal()
            .iter()
            .find_map(|e| match &e.event {
                Event::PlanChosen {
                    policy,
                    moves,
                    objects,
                    ..
                } => Some((*policy, *moves, objects.clone())),
                _ => None,
            })
            .expect("chosen plan journaled");
        assert_eq!(chosen.0, "EDM-HDF");
        assert_eq!(chosen.1, plan.len() as u64);
        assert_eq!(
            chosen.2,
            plan.iter().map(|m| m.object.0).collect::<Vec<_>>()
        );
        assert_eq!(rec.count_kind("plan_assessment"), 1);
    }

    #[test]
    fn plan_obs_with_metrics_level_keeps_journal_empty() {
        use edm_obs::{MemoryRecorder, ObsLevel};
        let mut p = EdmHdf::default();
        heat_object(&mut p, 0, 50, 100);
        let mut rec = MemoryRecorder::new(ObsLevel::Metrics);
        let plan = p.plan_obs(&hot_cold_view(), &mut rec);
        assert!(!plan.is_empty());
        assert!(rec.journal().is_empty());
    }
}
