//! EDM-CDF: Cold-Data-First migration (§III.B.4–5).
//!
//! CDF trades a little extra moved data for near-zero impact on foreground
//! requests: it cools a hot SSD by *reducing its utilization* — moving
//! rarely-accessed objects away — instead of relocating the write-hot set.
//! Cold candidates (temperature below a threshold) are sorted by size,
//! largest first, to minimize the number of moved objects and hence the
//! remapping-table growth (§III.C); sources below 50 % utilization are
//! never drained further because the wear model is flat there (Fig. 3).

use edm_cluster::{AccessEvent, ClusterView, Migrator, MoveAction};
use edm_snap::{SnapReader, SnapWriter, Snapshot};

use crate::alg1::calculate_cdf;
use crate::config::{Assessor, EdmConfig};
use crate::evaluate::{assess_plan_obs, trim_to_improvement, trim_to_improvement_model};
use crate::plan::{dest_budget_bytes, distribute, Destination, Selected};
use crate::policy::{emit_plan_chosen, emit_wear_inputs, members_by_group};
use crate::temperature::AccessTracker;
use crate::trigger;
use crate::wear_model::WearModel;

/// The Cold-Data-First policy.
pub struct EdmCdf {
    cfg: EdmConfig,
    tracker: AccessTracker,
}

impl EdmCdf {
    pub fn new(cfg: EdmConfig) -> Self {
        // edm-audit: allow(panic.expect, "constructor contract: callers pass validated EDM configuration")
        cfg.validate().expect("invalid EDM configuration");
        let tracker = match cfg.tracker_capacity {
            Some(cap) => AccessTracker::with_capacity(cfg.temperature_interval_us, cap),
            None => AccessTracker::new(cfg.temperature_interval_us),
        };
        EdmCdf { tracker, cfg }
    }

    pub fn config(&self) -> &EdmConfig {
        &self.cfg
    }

    pub fn tracker(&self) -> &AccessTracker {
        &self.tracker
    }
}

impl Default for EdmCdf {
    fn default() -> Self {
        EdmCdf::new(EdmConfig::default())
    }
}

impl Migrator for EdmCdf {
    fn name(&self) -> &str {
        "EDM-CDF"
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
        let ecs: Vec<f64> = view
            .osds
            .iter()
            .map(|o| model.erase_count(o.wc_pages as f64, o.utilization))
            .collect();
        emit_wear_inputs(view, &ecs, obs);
        let decision =
            trigger::evaluate_obs(&ecs, self.cfg.lambda, "EDM-CDF", "erase_estimate", obs);
        if !self.cfg.force && !decision.triggered {
            return Vec::new();
        }
        // §III.B.2: only devices with Ec − Ēc > Ēc·λ shed objects; only
        // devices below the cluster-wide average absorb them.
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
            // Algorithm 1 (CDF variant): how much utilization to shed.
            let amounts = calculate_cdf(&wc, &u, &model, &self.cfg.alg1);

            let mut dests: Vec<Destination> = members
                .iter()
                .zip(&amounts.delta)
                .filter(|(m, &d)| d > 0.0 && is_dest(m))
                .map(|(&m, &d)| {
                    let capacity = view.osd(m).capacity_bytes as f64;
                    Destination {
                        osd: m,
                        demand: d * capacity, // Δu expressed in bytes
                        budget_bytes: dest_budget_bytes(view, m, self.cfg.dest_free_reserve),
                    }
                })
                .collect();
            if dests.is_empty() {
                continue;
            }

            for (&source, &delta) in members.iter().zip(&amounts.delta) {
                if delta >= 0.0 || !is_source(&source) {
                    continue;
                }
                // Never migrate cold data off a device below 50 %
                // utilization (§III.B.5); Algorithm 1 already respects
                // this, so the check is a belt-and-braces guard.
                if view.osd(source).utilization < self.cfg.alg1.min_source_utilization {
                    continue;
                }
                let needed_bytes = -delta * view.osd(source).capacity_bytes as f64;
                // Cold candidates: total temperature below the threshold,
                // largest first to minimize the number of moved objects;
                // ties prefer already-remapped objects (§III.C).
                let mut candidates: Vec<(Selected, bool)> = view
                    .objects_on(source)
                    .filter_map(|o| {
                        let heat = self.tracker.heat(o.object, view.now_us);
                        if heat.total_temp >= self.cfg.cold_threshold {
                            return None;
                        }
                        Some((
                            Selected {
                                object: o.object,
                                source,
                                weight: o.size_bytes as f64,
                                size_bytes: o.size_bytes,
                            },
                            o.remapped,
                        ))
                    })
                    .collect();
                candidates.sort_by(|a, b| {
                    b.0.size_bytes
                        .cmp(&a.0.size_bytes)
                        .then(b.1.cmp(&a.1))
                        .then(a.0.object.cmp(&b.0.object))
                });
                let mut selected = Vec::new();
                let mut cum = 0.0;
                for (s, _) in candidates {
                    if cum >= needed_bytes {
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
        emit_plan_chosen("EDM-CDF", view, &plan, obs);
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

    fn touch(p: &mut EdmCdf, obj: u64, times: u64) {
        for _ in 0..times {
            p.on_access(AccessEvent {
                now_us: 500_000,
                object: ObjectId(obj),
                kind: AccessKind::Read,
                pages: 1,
            });
        }
    }

    /// Two groups; OSD 0 is full and write-hot, OSD 2 (same group) is
    /// emptier.
    fn full_hot_view() -> edm_cluster::ClusterView {
        view(
            2,
            &[
                (100_000, 0.85, 0.0),
                (20_000, 0.60, 0.0),
                (20_000, 0.55, 0.0),
                (20_000, 0.60, 0.0),
            ],
            &[
                (0, 8 << 20), // big cold object
                (0, 4 << 20),
                (0, 1 << 20),
                (2, 1 << 20),
            ],
        )
    }

    #[test]
    fn moves_cold_objects_largest_first() {
        let mut p = EdmCdf::default();
        touch(&mut p, 2, 50); // object 2 is hot -> not a candidate
        let plan = p.plan(&full_hot_view());
        assert!(!plan.is_empty());
        assert_eq!(plan[0].object, ObjectId(0), "largest cold object first");
        assert!(plan.iter().all(|m| m.object != ObjectId(2)));
        for m in &plan {
            assert_eq!(m.source, OsdId(0));
            assert_eq!(m.dest, OsdId(2), "intra-group destination");
        }
    }

    #[test]
    fn source_below_half_utilization_is_left_alone() {
        let mut p = EdmCdf::default();
        let v = view(
            2,
            &[
                (100_000, 0.45, 0.0), // hottest wear but u < 0.5
                (10_000, 0.60, 0.0),
                (10_000, 0.55, 0.0),
                (10_000, 0.60, 0.0),
            ],
            &[(0, 1 << 20), (0, 1 << 20)],
        );
        assert!(p.plan(&v).is_empty());
    }

    #[test]
    fn trigger_check_blocks_balanced_cluster() {
        let cfg = EdmConfig {
            force: false,
            ..EdmConfig::default()
        };
        let mut p = EdmCdf::new(cfg);
        let v = view(2, &[(10_000, 0.6, 0.0); 4], &[(0, 1 << 20)]);
        assert!(p.plan(&v).is_empty());
    }

    #[test]
    fn hot_objects_excluded_even_when_demand_unmet() {
        let mut p = EdmCdf::default();
        // Heat everything on the source above the threshold.
        for obj in 0..3 {
            touch(&mut p, obj, 10);
        }
        let plan = p.plan(&full_hot_view());
        assert!(plan.is_empty(), "no cold candidates ⇒ no moves: {plan:?}");
    }

    #[test]
    fn selects_all_cold_in_size_order_when_demand_unmet() {
        let mut p = EdmCdf::default();
        // The utilization gap (~12 % of 1 GiB) dwarfs the 13 MB of cold
        // data: every cold object moves, largest first.
        let plan = p.plan(&full_hot_view());
        assert_eq!(plan.len(), 3, "{plan:?}");
        assert_eq!(plan[0].object, ObjectId(0));
        assert_eq!(plan[1].object, ObjectId(1));
        assert_eq!(plan[2].object, ObjectId(2));
    }

    #[test]
    fn moves_stop_at_needed_bytes() {
        // A tight per-round shed cap (0.5 % of 1 GiB ≈ 5.4 MB) bounds the
        // demand, so the largest cold object alone covers it.
        let mut cfg = EdmConfig::default();
        cfg.alg1.stop_rsd = 0.0;
        cfg.alg1.max_shed_per_device = 0.005;
        let mut p = EdmCdf::new(cfg);
        let v = view(
            2,
            &[
                (50_000, 0.70, 0.0),
                (20_000, 0.60, 0.0),
                (20_000, 0.55, 0.0),
                (20_000, 0.60, 0.0),
            ],
            &[(0, 8 << 20), (0, 4 << 20), (0, 1 << 20), (2, 1 << 20)],
        );
        let plan = p.plan(&v);
        assert_eq!(plan.len(), 1, "{plan:?}");
        assert_eq!(plan[0].object, ObjectId(0));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(EdmCdf::default().name(), "EDM-CDF");
    }
}
