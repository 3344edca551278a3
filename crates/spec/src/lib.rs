#![forbid(unsafe_code)]
//! edm-spec: an abstract EDM state machine replayed against the edm-obs
//! JSONL journal.
//!
//! [`verify_journal`] parses a journal produced by `edm-sim --obs
//! events` (or any [`edm_obs::MemoryRecorder::write_jsonl`] dump) and
//! checks that every event is a legal transition of the paper's
//! protocol:
//!
//! * **Placement** — objects only migrate within their SSD group
//!   (§III.C) unless the journal was recorded under the CMT baseline,
//!   which the paper's §III.D comparison explicitly allows to move
//!   cross-group; rebuild destinations always stay in the lost
//!   object's group.
//! * **Remap bijection** — every `remap_update` immediately follows the
//!   `migration_finish`/`rebuild_finish` that justifies it and agrees
//!   on `(object, dest)`, so the replayed location table stays exactly
//!   one entry per object.
//! * **Migration lifecycle** — `migration_start` requires a planned
//!   object at its tracked location on a live source; no object is
//!   in-flight twice; `migration_finish`/`migration_abort` must match
//!   the start byte-for-byte; aborts only happen when an endpoint
//!   device failed; nothing is left in flight at end of journal.
//! * **Trigger semantics** (§III.B.2) — a `trigger_eval` over the
//!   `erase_estimate` metric must be preceded by one `wear_model_input`
//!   per OSD, and the spec recomputes mean, RSD, the rsd-vs-λ verdict,
//!   and the source/destination partition bit-for-bit from those
//!   inputs (f64 `Display` round-trips exactly, so the comparison is
//!   exact equality, not a tolerance).
//! * **Plan consistency** — `plan_chosen` follows a same-tick
//!   `trigger_eval` of the same policy, its `sources` are exactly the
//!   tracked locations of its objects, EDM plans draw sources and
//!   destinations from the trigger partition, and the paired
//!   `plan_assessment` never projects a worse RSD (the
//!   trim-to-improvement contract).
//! * **GC/wear accounting** — `block_erase` counts are strictly
//!   monotone (+1) per `(osd, block)`; `wear_level_swap` conservation:
//!   once every block of a device has been seen, the reported spread
//!   equals max−min of the replayed counts.
//! * **Order** — journals are written in insertion order, which is
//!   virtual-time order: `t_us` never decreases from one event to the
//!   next.

use std::collections::{BTreeMap, BTreeSet};

use edm_obs::json::{self, JsonValue};
use edm_obs::Event;

pub mod mutate;

/// Every journal event kind the state machine understands, in the
/// order they are declared in [`edm_obs::Event`]. The denominator of
/// the coverage report.
pub const EVENT_KINDS: &[&str] = &[
    "run_meta",
    "gc_invoked",
    "gc_victim",
    "block_erase",
    "wear_level_swap",
    "op_enqueue",
    "op_dequeue",
    "queue_depth",
    "remap_update",
    "wear_model_input",
    "trigger_eval",
    "plan_chosen",
    "plan_assessment",
    "migration_start",
    "migration_finish",
    "migration_abort",
    "device_failed",
    "rebuild_start",
    "rebuild_finish",
];

/// Metric-trailer record kinds appended after the event stream by
/// [`edm_obs::MemoryRecorder::write_jsonl`].
const TRAILER_KINDS: &[&str] = &["counter", "gauge", "hist"];

/// The first illegal transition found in a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// 1-based journal line number.
    pub line: usize,
    pub message: String,
}

/// Outcome of replaying one journal through the spec.
#[derive(Debug, Clone, Default)]
pub struct SpecReport {
    /// Non-empty journal lines examined (events + trailers).
    pub lines: usize,
    /// Event lines legally consumed by the state machine.
    pub events: u64,
    /// Metric trailer records (counters, gauges, histograms).
    pub trailers: u64,
    /// Per-kind event counts, for the coverage report.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// First violation, if any. `None` means the journal conforms.
    pub violation: Option<Violation>,
}

impl SpecReport {
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }

    /// Distinct event kinds exercised by the journal.
    pub fn kinds_seen(&self) -> usize {
        self.kind_counts.len()
    }

    /// Total event kinds the state machine models.
    pub fn kinds_known() -> usize {
        EVENT_KINDS.len()
    }
}

/// Cluster shape from the `run_meta` preamble, plus the placement rule
/// mirrored from `edm-cluster` (the spec must not depend on the crates
/// it certifies, so the paper's placement math is restated here).
#[derive(Debug, Clone, Copy)]
struct Meta {
    osds: u32,
    groups: u32,
    objects_per_file: u32,
    capacity_bytes: u64,
    blocks_per_osd: u64,
}

impl Meta {
    fn group_of(&self, osd: u32) -> u32 {
        osd % self.groups
    }

    /// Home OSD of an object id: the paper's continuous rule when the
    /// group size divides the cluster, group-first otherwise.
    fn home_osd(&self, object: u64) -> u32 {
        let k = self.objects_per_file as u64;
        let file = object / k;
        let index = object % k;
        if self.osds.is_multiple_of(self.groups) {
            return ((file + index) % self.osds as u64) as u32;
        }
        let group = ((file + index) % self.groups as u64) as u32;
        let members = (self.osds - group).div_ceil(self.groups);
        let slot = (file / self.groups as u64) % members as u64;
        group + slot as u32 * self.groups
    }
}

#[derive(Debug, Clone, Copy)]
struct Move {
    source: u32,
    dest: u32,
    bytes: u64,
    line: usize,
}

#[derive(Debug, Clone, Copy)]
struct Rebuild {
    dest: u32,
    bytes: u64,
    line: usize,
    /// Set when any device fails while the rebuild is in flight:
    /// rebuild aborts are event-less, so from then on the spec cannot
    /// tell whether this rebuild is still running.
    maybe_aborted: bool,
}

#[derive(Debug, Clone)]
struct Trigger {
    t_us: u64,
    policy: &'static str,
    sources: Vec<u64>,
    destinations: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    t_us: u64,
    line: usize,
    policy: &'static str,
    moved_bytes: u64,
    assessed: bool,
}

/// The incremental state machine. [`verify_journal`] drives it line by
/// line; `edm-fuzz` and tests may also drive it directly.
#[derive(Debug, Default)]
pub struct Spec {
    meta: Option<Meta>,
    /// Timestamp of the previous event; `t_us` never decreases.
    last_t_us: Option<u64>,

    /// Object → current OSD overlay; objects absent sit at their home.
    location: BTreeMap<u64, u32>,
    /// Object → size in bytes, pinned by the first event that carries
    /// it; every later mention must agree.
    object_bytes: BTreeMap<u64, u64>,
    /// A finish event was seen and the very next event must be the
    /// matching `remap_update`: `(finish line, object, dest)`.
    expect_remap: Option<(usize, u64, u32)>,

    failed: Vec<bool>,
    /// Replayed queue length per OSD; `None` after an event-less queue
    /// edit (device failure drain, migration-finish redirect).
    qlen: Vec<Option<u64>>,

    inflight: BTreeMap<u64, Move>,
    rebuilds: BTreeMap<u64, Rebuild>,
    /// Outstanding planned-move credit per object (plans may re-list
    /// an object that is already moving; `fire` skips it silently).
    planned: BTreeMap<u64, u64>,
    /// Net migrated/rebuilt bytes per OSD — a lower bound on usage
    /// growth, checked against the exported capacity.
    net_bytes: Vec<i128>,

    /// Pending `wear_model_input` batch: erase estimates indexed by
    /// OSD, which must be immediately followed by the `trigger_eval`
    /// that consumed them.
    wear_batch: Vec<f64>,
    wear_t: u64,
    last_trigger: Option<Trigger>,
    last_plan: Option<Plan>,
    policy_label: Option<&'static str>,

    /// `(osd, block)` → last journaled erase count.
    erase_counts: BTreeMap<(u32, u64), u64>,
    /// Distinct blocks seen per OSD, to know when wear-spread
    /// conservation becomes checkable.
    blocks_seen: Vec<u64>,
}

impl Spec {
    pub fn new() -> Spec {
        Spec::default()
    }

    fn meta(&self) -> Result<Meta, String> {
        self.meta
            .ok_or_else(|| "event before run_meta preamble".to_string())
    }

    /// Current OSD of an object under the replayed remap overlay.
    fn locate(&self, meta: &Meta, object: u64) -> u32 {
        self.location
            .get(&object)
            .copied()
            .unwrap_or_else(|| meta.home_osd(object))
    }

    fn check_osd(&self, meta: &Meta, what: &str, osd: u32) -> Result<(), String> {
        if osd >= meta.osds {
            return Err(format!(
                "{what} OSD {osd} out of range (cluster has {})",
                meta.osds
            ));
        }
        Ok(())
    }

    fn pin_bytes(&mut self, object: u64, bytes: u64, what: &str) -> Result<(), String> {
        match self.object_bytes.get(&object) {
            Some(&known) if known != bytes => Err(format!(
                "{what} carries {bytes} bytes for object {object} but the journal earlier pinned it at {known}"
            )),
            Some(_) => Ok(()),
            None => {
                self.object_bytes.insert(object, bytes);
                Ok(())
            }
        }
    }

    /// Mirror of the trigger evaluation (§III.B.2) over the journaled
    /// per-OSD erase estimates: mean, population RSD, rsd-vs-λ, and the
    /// source/destination partition, in the exact floating-point
    /// operation order of `edm_core::trigger::evaluate`.
    pub fn recompute_trigger(ecs: &[f64], lambda: f64) -> (f64, f64, bool, Vec<u64>, Vec<u64>) {
        let n = ecs.len();
        if n == 0 {
            return (0.0, 0.0, false, vec![], vec![]);
        }
        let mean = ecs.iter().sum::<f64>() / n as f64;
        let rsd = if mean > 0.0 {
            let var = ecs.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n as f64;
            var.sqrt() / mean
        } else {
            0.0
        };
        let triggered = rsd > lambda;
        let mut sources: Vec<usize> = (0..n).filter(|&i| ecs[i] - mean > mean * lambda).collect();
        sources.sort_by(|&a, &b| {
            ecs[b]
                .partial_cmp(&ecs[a])
                // edm-audit: allow(panic.expect, "erase estimates are checked finite before recomputation")
                .expect("finite")
        });
        let mut destinations: Vec<usize> = (0..n).filter(|&i| ecs[i] < mean).collect();
        destinations.sort_by(|&a, &b| {
            ecs[a]
                .partial_cmp(&ecs[b])
                // edm-audit: allow(panic.expect, "erase estimates are checked finite before recomputation")
                .expect("finite")
        });
        (
            rsd,
            mean,
            triggered,
            sources.into_iter().map(|i| i as u64).collect(),
            destinations.into_iter().map(|i| i as u64).collect(),
        )
    }

    /// Feeds one event line to the state machine.
    ///
    /// `scope_osd` is the line-level `"osd"` device scope (present on
    /// FTL events).
    pub fn step(
        &mut self,
        line: usize,
        t_us: u64,
        scope_osd: Option<u32>,
        ev: &Event,
    ) -> Result<(), String> {
        if let Some(prev) = self.last_t_us {
            if t_us < prev {
                return Err(format!(
                    "journal out of order: t_us={t_us} after t_us={prev}"
                ));
            }
        }
        self.last_t_us = Some(t_us);

        // A finish event pins the very next event to its remap_update.
        if let Some((fline, obj, dest)) = self.expect_remap {
            match ev {
                Event::RemapUpdate { object, dest: d } if *object == obj && *d == dest => {}
                _ => {
                    return Err(format!(
                        "finish at line {fline} must be followed immediately by remap_update(object={obj}, dest={dest}), found {}",
                        ev.kind()
                    ))
                }
            }
        }
        // A wear_model_input batch must run uninterrupted into the
        // trigger_eval that consumes it.
        if !self.wear_batch.is_empty()
            && !matches!(ev, Event::WearModelInput { .. } | Event::TriggerEval { .. })
        {
            return Err(format!(
                "wear_model_input batch ({} inputs) interrupted by {} before any trigger_eval",
                self.wear_batch.len(),
                ev.kind()
            ));
        }

        match *ev {
            Event::RunMeta {
                osds,
                groups,
                objects_per_file,
                capacity_bytes,
                blocks_per_osd,
            } => {
                if self.meta.is_some() {
                    return Err("duplicate run_meta".into());
                }
                if t_us != 0 {
                    return Err(format!(
                        "run_meta at t_us={t_us}, must open the journal at t=0"
                    ));
                }
                if osds == 0 || groups == 0 || objects_per_file == 0 {
                    return Err(format!(
                        "degenerate cluster shape: osds={osds} groups={groups} objects_per_file={objects_per_file}"
                    ));
                }
                if groups > osds {
                    return Err(format!("more groups ({groups}) than OSDs ({osds})"));
                }
                self.meta = Some(Meta {
                    osds,
                    groups,
                    objects_per_file,
                    capacity_bytes,
                    blocks_per_osd,
                });
                self.failed = vec![false; osds as usize];
                self.qlen = vec![None; osds as usize];
                self.net_bytes = vec![0; osds as usize];
                self.blocks_seen = vec![0; osds as usize];
            }

            // ---- FTL (device-scoped) events ----------------------------
            Event::GcInvoked {
                free_blocks,
                low_watermark,
                high_watermark,
            } => {
                let m = self.meta()?;
                let osd = scope_osd.ok_or("gc_invoked without device scope")?;
                self.check_osd(&m, "gc_invoked", osd)?;
                if low_watermark > high_watermark {
                    return Err(format!(
                        "gc_invoked watermarks inverted: low {low_watermark} > high {high_watermark}"
                    ));
                }
                if free_blocks > low_watermark {
                    return Err(format!(
                        "gc_invoked with {free_blocks} free blocks, above the low watermark {low_watermark}"
                    ));
                }
            }
            Event::GcVictim { block, .. } => {
                let m = self.meta()?;
                let osd = scope_osd.ok_or("gc_victim without device scope")?;
                self.check_osd(&m, "gc_victim", osd)?;
                if block >= m.blocks_per_osd {
                    return Err(format!(
                        "gc_victim block {block} out of range (device has {})",
                        m.blocks_per_osd
                    ));
                }
            }
            Event::BlockErase {
                block, erase_count, ..
            } => {
                let m = self.meta()?;
                let osd = scope_osd.ok_or("block_erase without device scope")?;
                self.check_osd(&m, "block_erase", osd)?;
                if block >= m.blocks_per_osd {
                    return Err(format!(
                        "block_erase block {block} out of range (device has {})",
                        m.blocks_per_osd
                    ));
                }
                match self.erase_counts.get(&(osd, block)) {
                    // Warm-up erases predate the journal, so the first
                    // observation may sit anywhere ≥ 1; after that the
                    // count must step by exactly one.
                    None => {
                        if erase_count == 0 {
                            return Err(format!(
                                "block_erase of osd {osd} block {block} with erase_count 0 (an erase just happened)"
                            ));
                        }
                        self.blocks_seen[osd as usize] += 1;
                    }
                    Some(&prev) => {
                        if erase_count != prev + 1 {
                            return Err(format!(
                                "block_erase count not monotone for osd {osd} block {block}: {prev} then {erase_count} (expected {})",
                                prev + 1
                            ));
                        }
                    }
                }
                self.erase_counts.insert((osd, block), erase_count);
            }
            Event::WearLevelSwap {
                block, wear_spread, ..
            } => {
                let m = self.meta()?;
                let osd = scope_osd.ok_or("wear_level_swap without device scope")?;
                self.check_osd(&m, "wear_level_swap", osd)?;
                if block >= m.blocks_per_osd {
                    return Err(format!(
                        "wear_level_swap block {block} out of range (device has {})",
                        m.blocks_per_osd
                    ));
                }
                // Conservation: once every block of the device has been
                // journaled, the replayed counts are the device's true
                // counts and the reported spread must equal max − min.
                if self.blocks_seen[osd as usize] == m.blocks_per_osd {
                    let counts = self
                        .erase_counts
                        .range((osd, 0)..=(osd, u64::MAX))
                        .map(|(_, &c)| c);
                    let (mut min, mut max) = (u64::MAX, 0u64);
                    for c in counts {
                        min = min.min(c);
                        max = max.max(c);
                    }
                    if wear_spread != max - min {
                        return Err(format!(
                            "wear_level_swap on osd {osd} reports spread {wear_spread} but the replayed erase counts span {}",
                            max - min
                        ));
                    }
                }
            }

            // ---- Queue events ------------------------------------------
            Event::OpEnqueue { osd, depth, .. } => {
                let m = self.meta()?;
                self.check_osd(&m, "op_enqueue", osd)?;
                if self.failed[osd as usize] {
                    return Err(format!("op_enqueue on failed OSD {osd}"));
                }
                if depth == 0 {
                    return Err("op_enqueue with depth 0 (depth includes the arrival)".into());
                }
                if let Some(q) = self.qlen[osd as usize] {
                    if depth != q + 1 {
                        return Err(format!(
                            "op_enqueue on osd {osd} reports depth {depth}, queue model says {}",
                            q + 1
                        ));
                    }
                }
                self.qlen[osd as usize] = Some(depth);
            }
            Event::OpDequeue { osd, depth } => {
                let m = self.meta()?;
                self.check_osd(&m, "op_dequeue", osd)?;
                if self.failed[osd as usize] {
                    return Err(format!("op_dequeue on failed OSD {osd}"));
                }
                if let Some(q) = self.qlen[osd as usize] {
                    if q == 0 || depth != q - 1 {
                        return Err(format!(
                            "op_dequeue on osd {osd} reports depth {depth}, queue model says {}",
                            q.saturating_sub(1)
                        ));
                    }
                }
                self.qlen[osd as usize] = Some(depth);
            }
            Event::QueueDepth { osd, depth } => {
                let m = self.meta()?;
                self.check_osd(&m, "queue_depth", osd)?;
                if let Some(q) = self.qlen[osd as usize] {
                    // The sample counts waiting requests plus at most
                    // one in service.
                    if depth != q && depth != q + 1 {
                        return Err(format!(
                            "queue_depth sample on osd {osd} reports {depth}, queue model says {q} (+1 in service)"
                        ));
                    }
                }
            }

            // ---- Remap -------------------------------------------------
            Event::RemapUpdate { object, dest } => {
                let m = self.meta()?;
                self.check_osd(&m, "remap_update", dest)?;
                if self.expect_remap.take().is_none() {
                    return Err(format!(
                        "remap_update(object={object}, dest={dest}) without a directly preceding migration_finish/rebuild_finish"
                    ));
                }
                // The (object, dest) match against the finish was
                // enforced by the adjacency barrier above.
                self.location.insert(object, dest);
            }

            // ---- EDM decision events -----------------------------------
            Event::WearModelInput {
                osd,
                utilization,
                erase_estimate,
                ..
            } => {
                let m = self.meta()?;
                self.check_osd(&m, "wear_model_input", osd)?;
                if osd as usize != self.wear_batch.len() {
                    return Err(format!(
                        "wear_model_input batch out of order: osd {osd} at batch position {}",
                        self.wear_batch.len()
                    ));
                }
                if self.wear_batch.is_empty() {
                    self.wear_t = t_us;
                } else if t_us != self.wear_t {
                    return Err(format!(
                        "wear_model_input batch spans t_us {} and {t_us}",
                        self.wear_t
                    ));
                }
                if !(utilization.is_finite() && utilization >= 0.0) {
                    return Err(format!(
                        "wear_model_input utilization {utilization} not finite/non-negative"
                    ));
                }
                if !(erase_estimate.is_finite() && erase_estimate >= 0.0) {
                    return Err(format!(
                        "wear_model_input erase_estimate {erase_estimate} not finite/non-negative"
                    ));
                }
                self.wear_batch.push(erase_estimate);
            }
            Event::TriggerEval {
                policy,
                metric,
                rsd,
                lambda,
                mean,
                triggered,
                ref sources,
                ref destinations,
            } => {
                let m = self.meta()?;
                self.check_policy(policy)?;
                if !(rsd.is_finite() && rsd >= 0.0) {
                    return Err(format!("trigger_eval rsd {rsd} not finite/non-negative"));
                }
                if !(mean.is_finite() && mean >= 0.0) {
                    return Err(format!("trigger_eval mean {mean} not finite/non-negative"));
                }
                if !(lambda.is_finite() && lambda >= 0.0) {
                    return Err(format!(
                        "trigger_eval lambda {lambda} not finite/non-negative"
                    ));
                }
                if triggered != (rsd > lambda) {
                    return Err(format!(
                        "trigger_eval verdict inconsistent: triggered={triggered} but rsd {rsd} vs lambda {lambda}"
                    ));
                }
                for &s in sources.iter().chain(destinations.iter()) {
                    if s >= m.osds as u64 {
                        return Err(format!("trigger_eval names OSD {s}, out of range"));
                    }
                }
                if let Some(both) = sources.iter().find(|s| destinations.contains(s)) {
                    return Err(format!(
                        "trigger_eval lists OSD {both} as both source and destination"
                    ));
                }
                if metric == "erase_estimate" {
                    // The wear-model inputs for this evaluation must
                    // directly precede it — one per OSD, same tick.
                    if self.wear_batch.len() != m.osds as usize || self.wear_t != t_us {
                        return Err(format!(
                            "trigger_eval over erase_estimate needs {} same-tick wear_model_input records, found {}",
                            m.osds,
                            self.wear_batch.len()
                        ));
                    }
                    let (e_rsd, e_mean, e_trig, e_src, e_dst) =
                        Spec::recompute_trigger(&self.wear_batch, lambda);
                    if rsd != e_rsd || mean != e_mean || triggered != e_trig {
                        return Err(format!(
                            "trigger_eval disagrees with the wear_model_input stream: journal (rsd={rsd}, mean={mean}, triggered={triggered}), recomputed (rsd={e_rsd}, mean={e_mean}, triggered={e_trig})"
                        ));
                    }
                    if *sources != e_src || *destinations != e_dst {
                        return Err(format!(
                            "trigger_eval partition disagrees with the wear_model_input stream: journal sources {sources:?} dests {destinations:?}, recomputed sources {e_src:?} dests {e_dst:?}"
                        ));
                    }
                    self.wear_batch.clear();
                } else if !self.wear_batch.is_empty() {
                    return Err(format!(
                        "trigger_eval over {metric} arrived while a wear_model_input batch was pending"
                    ));
                }
                self.last_trigger = Some(Trigger {
                    t_us,
                    policy,
                    sources: sources.clone(),
                    destinations: destinations.clone(),
                });
            }
            Event::PlanChosen {
                policy,
                moves,
                moved_bytes,
                ref objects,
                ref sources,
                ref destinations,
            } => {
                let m = self.meta()?;
                self.check_policy(policy)?;
                if let Some(prev) = self.last_plan {
                    if is_edm(prev.policy) && !prev.assessed {
                        return Err(format!(
                            "plan_chosen at line {} was never assessed before the next plan",
                            prev.line
                        ));
                    }
                }
                let trig = self
                    .last_trigger
                    .as_ref()
                    .ok_or_else(|| "plan_chosen without a preceding trigger_eval".to_string())?;
                if trig.t_us != t_us || trig.policy != policy {
                    return Err(format!(
                        "plan_chosen({policy}) at t_us={t_us} does not follow its own trigger_eval ({} at t_us={})",
                        trig.policy, trig.t_us
                    ));
                }
                if moves != objects.len() as u64 {
                    return Err(format!(
                        "plan_chosen moves={moves} but lists {} objects",
                        objects.len()
                    ));
                }
                if !is_sorted_strict(sources) || !is_sorted_strict(destinations) {
                    return Err(
                        "plan_chosen source/destination sets not sorted and deduplicated".into(),
                    );
                }
                for &o in sources.iter().chain(destinations.iter()) {
                    if o >= m.osds as u64 {
                        return Err(format!("plan_chosen names OSD {o}, out of range"));
                    }
                }
                if is_edm(policy) {
                    // EDM draws its endpoints from the trigger partition.
                    if let Some(s) = sources.iter().find(|s| !trig.sources.contains(s)) {
                        return Err(format!(
                            "plan_chosen source OSD {s} is not a trigger source"
                        ));
                    }
                    if let Some(d) = destinations.iter().find(|d| !trig.destinations.contains(d)) {
                        return Err(format!(
                            "plan_chosen destination OSD {d} is not a trigger destination"
                        ));
                    }
                }
                let mut seen = BTreeSet::new();
                let mut expected_sources = BTreeSet::new();
                for &obj in objects {
                    if !seen.insert(obj) {
                        return Err(format!("plan_chosen moves object {obj} twice"));
                    }
                    expected_sources.insert(self.locate(&m, obj) as u64);
                }
                let expected: Vec<u64> = expected_sources.into_iter().collect();
                if *sources != expected {
                    return Err(format!(
                        "plan_chosen sources {sources:?} disagree with the tracked object locations {expected:?}"
                    ));
                }
                for &obj in objects {
                    *self.planned.entry(obj).or_insert(0) += 1;
                }
                self.last_plan = Some(Plan {
                    t_us,
                    line,
                    policy,
                    moved_bytes,
                    assessed: false,
                });
            }
            Event::PlanAssessment {
                rsd_before,
                rsd_after,
                moved_bytes,
                ..
            } => {
                self.meta()?;
                let plan = self
                    .last_plan
                    .as_mut()
                    .ok_or_else(|| "plan_assessment without a preceding plan_chosen".to_string())?;
                if plan.t_us != t_us {
                    return Err(format!(
                        "plan_assessment at t_us={t_us} does not pair with the plan_chosen at t_us={}",
                        plan.t_us
                    ));
                }
                if plan.assessed {
                    return Err("duplicate plan_assessment for one plan_chosen".into());
                }
                if !is_edm(plan.policy) {
                    return Err(format!(
                        "plan_assessment after a {} plan (only EDM re-runs the wear model)",
                        plan.policy
                    ));
                }
                if !(rsd_before.is_finite()
                    && rsd_before >= 0.0
                    && rsd_after.is_finite()
                    && rsd_after >= 0.0)
                {
                    return Err(format!(
                        "plan_assessment RSDs not finite/non-negative: before {rsd_before}, after {rsd_after}"
                    ));
                }
                // Trim-to-improvement contract: a published plan never
                // projects a worse imbalance.
                if rsd_after > rsd_before + 1e-9 {
                    return Err(format!(
                        "plan_assessment projects a worse RSD: {rsd_before} -> {rsd_after}"
                    ));
                }
                if moved_bytes != plan.moved_bytes {
                    return Err(format!(
                        "plan_assessment moved_bytes {moved_bytes} disagrees with plan_chosen {}",
                        plan.moved_bytes
                    ));
                }
                plan.assessed = true;
            }

            // ---- Migration lifecycle -----------------------------------
            Event::MigrationStart {
                object,
                source,
                dest,
                bytes,
            } => {
                let m = self.meta()?;
                self.check_osd(&m, "migration_start source", source)?;
                self.check_osd(&m, "migration_start dest", dest)?;
                if source == dest {
                    return Err(format!(
                        "migration_start of object {object} onto its own OSD {source}"
                    ));
                }
                if self.failed[source as usize] || self.failed[dest as usize] {
                    return Err(format!(
                        "migration_start of object {object} touches a failed device ({source} -> {dest})"
                    ));
                }
                let loc = self.locate(&m, object);
                if loc != source {
                    return Err(format!(
                        "migration_start claims object {object} is on OSD {source}, but it is on {loc}"
                    ));
                }
                // Intra-group rule (§III.C); the CMT baseline is the
                // paper's explicit cross-group comparison point.
                if self.policy_label != Some("CMT") && m.group_of(source) != m.group_of(dest) {
                    return Err(format!(
                        "migration_start of object {object} crosses groups: {source} (group {}) -> {dest} (group {})",
                        m.group_of(source),
                        m.group_of(dest)
                    ));
                }
                match self.planned.get_mut(&object) {
                    Some(credit) if *credit > 0 => *credit -= 1,
                    _ => {
                        return Err(format!(
                            "migration_start of object {object} without a plan_chosen listing it"
                        ))
                    }
                }
                if self.inflight.contains_key(&object) {
                    return Err(format!("object {object} is already migrating"));
                }
                if let Some(r) = self.rebuilds.get(&object) {
                    if !r.maybe_aborted {
                        return Err(format!("object {object} is mid-rebuild and cannot migrate"));
                    }
                }
                self.pin_bytes(object, bytes, "migration_start")?;
                self.inflight.insert(
                    object,
                    Move {
                        source,
                        dest,
                        bytes,
                        line,
                    },
                );
            }
            Event::MigrationFinish {
                object,
                source,
                dest,
                bytes,
            } => {
                let m = self.meta()?;
                let mv = self.inflight.remove(&object).ok_or_else(|| {
                    format!("migration_finish of object {object} that never started")
                })?;
                if (mv.source, mv.dest, mv.bytes) != (source, dest, bytes) {
                    return Err(format!(
                        "migration_finish of object {object} ({source} -> {dest}, {bytes} B) does not match its start at line {} ({} -> {}, {} B)",
                        mv.line, mv.source, mv.dest, mv.bytes
                    ));
                }
                if self.failed[dest as usize] {
                    return Err(format!(
                        "migration_finish of object {object} onto failed OSD {dest} (should have aborted)"
                    ));
                }
                self.net_bytes[dest as usize] += bytes as i128;
                self.net_bytes[source as usize] -= bytes as i128;
                if self.net_bytes[dest as usize] > m.capacity_bytes as i128 {
                    return Err(format!(
                        "OSD {dest} accumulated more migrated bytes than its {} B capacity",
                        m.capacity_bytes
                    ));
                }
                // The source queue was edited without events (queued
                // mover chunks redirected), so its replayed length is
                // no longer known.
                self.qlen[source as usize] = None;
                self.expect_remap = Some((line, object, dest));
            }
            Event::MigrationAbort {
                object,
                source,
                dest,
                bytes,
            } => {
                self.meta()?;
                let mv = self.inflight.remove(&object).ok_or_else(|| {
                    format!("migration_abort of object {object} that never started")
                })?;
                if (mv.source, mv.dest, mv.bytes) != (source, dest, bytes) {
                    return Err(format!(
                        "migration_abort of object {object} ({source} -> {dest}, {bytes} B) does not match its start at line {} ({} -> {}, {} B)",
                        mv.line, mv.source, mv.dest, mv.bytes
                    ));
                }
                if !self.failed[source as usize] && !self.failed[dest as usize] {
                    return Err(format!(
                        "migration_abort of object {object} with both endpoints alive"
                    ));
                }
            }

            // ---- Failure / recovery ------------------------------------
            Event::DeviceFailed { osd } => {
                let m = self.meta()?;
                self.check_osd(&m, "device_failed", osd)?;
                if self.failed[osd as usize] {
                    return Err(format!("device_failed for already-failed OSD {osd}"));
                }
                self.failed[osd as usize] = true;
                // Queue drains and redirects around a failure are
                // event-less; every replayed queue length is stale.
                for q in &mut self.qlen {
                    *q = None;
                }
                // Rebuild aborts are event-less too: any in-flight
                // rebuild may silently die with this failure.
                for r in self.rebuilds.values_mut() {
                    r.maybe_aborted = true;
                }
            }
            Event::RebuildStart {
                object,
                dest,
                bytes,
            } => {
                let m = self.meta()?;
                self.check_osd(&m, "rebuild_start", dest)?;
                if self.failed[dest as usize] {
                    return Err(format!(
                        "rebuild_start of object {object} onto failed OSD {dest}"
                    ));
                }
                let loc = self.locate(&m, object);
                if !self.failed[loc as usize] {
                    return Err(format!(
                        "rebuild_start of object {object} whose OSD {loc} is alive"
                    ));
                }
                if m.group_of(dest) != m.group_of(loc) {
                    return Err(format!(
                        "rebuild_start of object {object} leaves its group: {loc} (group {}) -> {dest} (group {})",
                        m.group_of(loc),
                        m.group_of(dest)
                    ));
                }
                if let Some(r) = self.rebuilds.get(&object) {
                    if !r.maybe_aborted {
                        return Err(format!("object {object} is already being rebuilt"));
                    }
                }
                if self.inflight.contains_key(&object) {
                    return Err(format!(
                        "rebuild_start of object {object} while it is mid-migration (the failure must abort the move first)"
                    ));
                }
                self.pin_bytes(object, bytes, "rebuild_start")?;
                self.rebuilds.insert(
                    object,
                    Rebuild {
                        dest,
                        bytes,
                        line,
                        maybe_aborted: false,
                    },
                );
            }
            Event::RebuildFinish {
                object,
                dest,
                bytes,
            } => {
                let m = self.meta()?;
                let rb = self.rebuilds.remove(&object).ok_or_else(|| {
                    format!("rebuild_finish of object {object} that never started")
                })?;
                if (rb.dest, rb.bytes) != (dest, bytes) {
                    return Err(format!(
                        "rebuild_finish of object {object} (dest {dest}, {bytes} B) does not match its start at line {} (dest {}, {} B)",
                        rb.line, rb.dest, rb.bytes
                    ));
                }
                if self.failed[dest as usize] {
                    return Err(format!(
                        "rebuild_finish of object {object} onto failed OSD {dest}"
                    ));
                }
                self.net_bytes[dest as usize] += bytes as i128;
                if self.net_bytes[dest as usize] > m.capacity_bytes as i128 {
                    return Err(format!(
                        "OSD {dest} accumulated more rebuilt bytes than its {} B capacity",
                        m.capacity_bytes
                    ));
                }
                self.expect_remap = Some((line, object, dest));
            }
        }
        Ok(())
    }

    /// One migration policy drives a run; every journaled label must
    /// agree with the first one seen.
    fn check_policy(&mut self, policy: &'static str) -> Result<(), String> {
        match self.policy_label {
            None => {
                self.policy_label = Some(policy);
                Ok(())
            }
            Some(p) if p == policy => Ok(()),
            Some(p) => Err(format!(
                "policy label changed mid-journal: {p} then {policy}"
            )),
        }
    }

    /// End-of-journal obligations: nothing may be left half-done.
    pub fn finish(&self) -> Result<(), String> {
        if let Some((fline, obj, dest)) = self.expect_remap {
            return Err(format!(
                "journal ends between the finish at line {fline} and its remap_update(object={obj}, dest={dest})"
            ));
        }
        if !self.wear_batch.is_empty() {
            return Err(format!(
                "journal ends with a dangling wear_model_input batch of {} records",
                self.wear_batch.len()
            ));
        }
        if let Some((&obj, mv)) = self.inflight.iter().next() {
            return Err(format!(
                "journal ends with object {obj} still migrating (started at line {})",
                mv.line
            ));
        }
        if let Some((&obj, rb)) = self.rebuilds.iter().find(|(_, r)| !r.maybe_aborted) {
            return Err(format!(
                "journal ends with object {obj} still rebuilding (started at line {})",
                rb.line
            ));
        }
        if let Some(plan) = self.last_plan {
            if is_edm(plan.policy) && !plan.assessed {
                return Err(format!(
                    "journal ends with the plan_chosen at line {} never assessed",
                    plan.line
                ));
            }
        }
        Ok(())
    }
}

fn is_edm(policy: &str) -> bool {
    policy == "EDM-HDF" || policy == "EDM-CDF"
}

fn is_sorted_strict(v: &[u64]) -> bool {
    v.windows(2).all(|w| match w {
        [a, b] => a < b,
        _ => true,
    })
}

/// Replays a JSONL journal through the state machine, stopping at the
/// first violation.
pub fn verify_journal(text: &str) -> SpecReport {
    let mut spec = Spec::new();
    let mut report = SpecReport::default();
    let mut last_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        last_line = line;
        report.lines += 1;
        macro_rules! fail {
            ($($arg:tt)*) => {{
                report.violation = Some(Violation { line, message: format!($($arg)*) });
                return report;
            }};
        }
        let v = match json::parse(raw) {
            Ok(v) => v,
            Err(e) => fail!("unparseable JSON: {e}"),
        };
        let Some(kind) = v.get("kind").and_then(JsonValue::as_str) else {
            fail!("record without a \"kind\" field");
        };
        if TRAILER_KINDS.contains(&kind) {
            report.trailers += 1;
            continue;
        }
        if report.trailers > 0 {
            fail!("event record after the metric trailer section");
        }
        let Some(t_us) = v.get("t_us").and_then(JsonValue::as_u64) else {
            fail!("event without a t_us timestamp");
        };
        let scope_osd = match v.get("osd").map(JsonValue::as_u64) {
            None => None,
            Some(Some(o)) if o <= u32::MAX as u64 => Some(o as u32),
            _ => fail!("malformed device scope \"osd\""),
        };
        let ev = match Event::from_json(&v) {
            Ok(ev) => ev,
            Err(e) => fail!("malformed {kind} event: {e}"),
        };
        report.events += 1;
        *report.kind_counts.entry(ev.kind()).or_insert(0) += 1;
        if let Err(message) = spec.step(line, t_us, scope_osd, &ev) {
            report.violation = Some(Violation { line, message });
            return report;
        }
    }
    if let Err(message) = spec.finish() {
        report.violation = Some(Violation {
            line: last_line,
            message,
        });
    }
    report
}
