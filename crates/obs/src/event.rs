//! The structured event vocabulary of the journal.
//!
//! Every variant is flat and uses raw integer ids (`u32` OSD index,
//! `u64` object id) because `edm-obs` sits below the crates that define
//! the typed ids. Variants map 1:1 onto JSONL records via
//! [`Event::kind`] and [`Event::write_fields`]; the journal line itself
//! (time key, optional device scope) is added by the recorder.

use crate::json;
use crate::json::{Record, Value};

/// The `&'static str` labels that may appear in journal events.
/// [`Event::from_record`] interns against this list so a parsed [`Event`] is
/// field-for-field the same type as an emitted one; an unknown label is
/// a parse error (the journal vocabulary is closed, like the event set).
const KNOWN_LABELS: &[&str] = &[
    // GC victim policies (VictimPolicy::label).
    "greedy",
    "fifo",
    "cost_benefit",
    // Migration policies (TriggerEval / PlanChosen `policy`).
    "Baseline",
    "CMT",
    "EDM-HDF",
    "EDM-CDF",
    // Trigger metrics.
    "erase_estimate",
    "ewma_latency_us",
];

fn intern(s: &str) -> Result<&'static str, String> {
    KNOWN_LABELS
        .iter()
        .find(|k| **k == s)
        .copied()
        .ok_or_else(|| format!("unknown label {s:?}"))
}

/// One journal event. Field names match the emitted JSON keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    // ---- Run preamble --------------------------------------------------
    /// The cluster shape the journal was recorded against, emitted once
    /// at t=0. The conformance spec keys its placement, capacity, and
    /// wear bookkeeping off this record.
    RunMeta {
        osds: u32,
        groups: u32,
        objects_per_file: u32,
        /// Per-OSD exported capacity in bytes (uniform across the cluster).
        capacity_bytes: u64,
        /// Physical blocks per OSD (for wear-spread conservation checks).
        blocks_per_osd: u64,
    },

    // ---- FTL (device) events -------------------------------------------
    /// GC entered because the free pool fell below the low watermark.
    GcInvoked {
        free_blocks: u64,
        low_watermark: u64,
        high_watermark: u64,
    },
    /// A victim block was selected for cleaning.
    GcVictim {
        block: u64,
        valid_pages: u64,
        policy: &'static str,
    },
    /// A block was erased (after relocating `moved_pages` valid pages).
    BlockErase {
        block: u64,
        erase_count: u64,
        moved_pages: u64,
    },
    /// Static wear leveling relocated a cold block.
    WearLevelSwap {
        block: u64,
        valid_pages: u64,
        wear_spread: u64,
    },

    // ---- Cluster (engine) events ---------------------------------------
    /// A sub-op entered an OSD queue; `depth` includes the new arrival.
    OpEnqueue { osd: u32, depth: u64, mover: bool },
    /// A sub-op left the queue and began service.
    OpDequeue { osd: u32, depth: u64 },
    /// Periodic per-OSD queue depth sample (taken on engine ticks).
    QueueDepth { osd: u32, depth: u64 },
    /// The remapping table recorded an object move.
    RemapUpdate { object: u64, dest: u32 },

    // ---- EDM decision events -------------------------------------------
    /// Per-OSD wear-model input at a trigger evaluation (Eq. 4 operands).
    WearModelInput {
        osd: u32,
        wc_pages: u64,
        utilization: f64,
        erase_estimate: f64,
    },
    /// A wear/load trigger evaluation: RSD of the per-device estimates
    /// against the λ threshold (§III.B.2).
    TriggerEval {
        policy: &'static str,
        metric: &'static str,
        rsd: f64,
        lambda: f64,
        mean: f64,
        triggered: bool,
        sources: Vec<u64>,
        destinations: Vec<u64>,
    },
    /// The migration plan a policy settled on.
    PlanChosen {
        policy: &'static str,
        moves: u64,
        moved_bytes: u64,
        objects: Vec<u64>,
        sources: Vec<u64>,
        destinations: Vec<u64>,
    },
    /// Predicted effect of the chosen plan (wear model re-run, §IV).
    PlanAssessment {
        rsd_before: f64,
        rsd_after: f64,
        moved_bytes: u64,
        moved_write_pages: u64,
    },
    /// An object migration began copying.
    MigrationStart {
        object: u64,
        source: u32,
        dest: u32,
        bytes: u64,
    },
    /// An object migration finished (dest durable, source dropped).
    MigrationFinish {
        object: u64,
        source: u32,
        dest: u32,
        bytes: u64,
    },
    /// An in-flight migration was abandoned because its source or
    /// destination device failed; any partial destination copy is gone.
    MigrationAbort {
        object: u64,
        source: u32,
        dest: u32,
        bytes: u64,
    },

    // ---- Failure / recovery events -------------------------------------
    /// A device failed; its queue drains degraded and its objects are lost
    /// until rebuilt.
    DeviceFailed { osd: u32 },
    /// A RAID-5 rebuild of a lost object began onto `dest`.
    RebuildStart { object: u64, dest: u32, bytes: u64 },
    /// A rebuild completed; the object is durable on `dest`.
    RebuildFinish { object: u64, dest: u32, bytes: u64 },
}

impl Event {
    /// The `kind` discriminator written to (and dispatched on from) JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunMeta { .. } => "run_meta",
            Event::GcInvoked { .. } => "gc_invoked",
            Event::GcVictim { .. } => "gc_victim",
            Event::BlockErase { .. } => "block_erase",
            Event::WearLevelSwap { .. } => "wear_level_swap",
            Event::OpEnqueue { .. } => "op_enqueue",
            Event::OpDequeue { .. } => "op_dequeue",
            Event::QueueDepth { .. } => "queue_depth",
            Event::RemapUpdate { .. } => "remap_update",
            Event::WearModelInput { .. } => "wear_model_input",
            Event::TriggerEval { .. } => "trigger_eval",
            Event::PlanChosen { .. } => "plan_chosen",
            Event::PlanAssessment { .. } => "plan_assessment",
            Event::MigrationStart { .. } => "migration_start",
            Event::MigrationFinish { .. } => "migration_finish",
            Event::MigrationAbort { .. } => "migration_abort",
            Event::DeviceFailed { .. } => "device_failed",
            Event::RebuildStart { .. } => "rebuild_start",
            Event::RebuildFinish { .. } => "rebuild_finish",
        }
    }

    /// Appends this event's payload fields to a partially built JSON
    /// object (after `{` or previous fields).
    pub fn write_fields(&self, out: &mut String) {
        match self {
            Event::RunMeta {
                osds,
                groups,
                objects_per_file,
                capacity_bytes,
                blocks_per_osd,
            } => {
                json::field_u64(out, "osds", *osds as u64);
                json::field_u64(out, "groups", *groups as u64);
                json::field_u64(out, "objects_per_file", *objects_per_file as u64);
                json::field_u64(out, "capacity_bytes", *capacity_bytes);
                json::field_u64(out, "blocks_per_osd", *blocks_per_osd);
            }
            Event::GcInvoked {
                free_blocks,
                low_watermark,
                high_watermark,
            } => {
                json::field_u64(out, "free_blocks", *free_blocks);
                json::field_u64(out, "low_watermark", *low_watermark);
                json::field_u64(out, "high_watermark", *high_watermark);
            }
            Event::GcVictim {
                block,
                valid_pages,
                policy,
            } => {
                json::field_u64(out, "block", *block);
                json::field_u64(out, "valid_pages", *valid_pages);
                json::field_str(out, "policy", policy);
            }
            Event::BlockErase {
                block,
                erase_count,
                moved_pages,
            } => {
                json::field_u64(out, "block", *block);
                json::field_u64(out, "erase_count", *erase_count);
                json::field_u64(out, "moved_pages", *moved_pages);
            }
            Event::WearLevelSwap {
                block,
                valid_pages,
                wear_spread,
            } => {
                json::field_u64(out, "block", *block);
                json::field_u64(out, "valid_pages", *valid_pages);
                json::field_u64(out, "wear_spread", *wear_spread);
            }
            Event::OpEnqueue { osd, depth, mover } => {
                json::field_u64(out, "osd", *osd as u64);
                json::field_u64(out, "depth", *depth);
                json::field_bool(out, "mover", *mover);
            }
            Event::OpDequeue { osd, depth } => {
                json::field_u64(out, "osd", *osd as u64);
                json::field_u64(out, "depth", *depth);
            }
            Event::QueueDepth { osd, depth } => {
                json::field_u64(out, "osd", *osd as u64);
                json::field_u64(out, "depth", *depth);
            }
            Event::RemapUpdate { object, dest } => {
                json::field_u64(out, "object", *object);
                json::field_u64(out, "dest", *dest as u64);
            }
            Event::WearModelInput {
                osd,
                wc_pages,
                utilization,
                erase_estimate,
            } => {
                json::field_u64(out, "osd", *osd as u64);
                json::field_u64(out, "wc_pages", *wc_pages);
                json::field_f64(out, "utilization", *utilization);
                json::field_f64(out, "erase_estimate", *erase_estimate);
            }
            Event::TriggerEval {
                policy,
                metric,
                rsd,
                lambda,
                mean,
                triggered,
                sources,
                destinations,
            } => {
                json::field_str(out, "policy", policy);
                json::field_str(out, "metric", metric);
                json::field_f64(out, "rsd", *rsd);
                json::field_f64(out, "lambda", *lambda);
                json::field_f64(out, "mean", *mean);
                json::field_bool(out, "triggered", *triggered);
                json::field_arr_u64(out, "sources", sources);
                json::field_arr_u64(out, "destinations", destinations);
            }
            Event::PlanChosen {
                policy,
                moves,
                moved_bytes,
                objects,
                sources,
                destinations,
            } => {
                json::field_str(out, "policy", policy);
                json::field_u64(out, "moves", *moves);
                json::field_u64(out, "moved_bytes", *moved_bytes);
                json::field_arr_u64(out, "objects", objects);
                json::field_arr_u64(out, "sources", sources);
                json::field_arr_u64(out, "destinations", destinations);
            }
            Event::PlanAssessment {
                rsd_before,
                rsd_after,
                moved_bytes,
                moved_write_pages,
            } => {
                json::field_f64(out, "rsd_before", *rsd_before);
                json::field_f64(out, "rsd_after", *rsd_after);
                json::field_u64(out, "moved_bytes", *moved_bytes);
                json::field_u64(out, "moved_write_pages", *moved_write_pages);
            }
            Event::MigrationStart {
                object,
                source,
                dest,
                bytes,
            }
            | Event::MigrationFinish {
                object,
                source,
                dest,
                bytes,
            }
            | Event::MigrationAbort {
                object,
                source,
                dest,
                bytes,
            } => {
                json::field_u64(out, "object", *object);
                json::field_u64(out, "source", *source as u64);
                json::field_u64(out, "dest", *dest as u64);
                json::field_u64(out, "bytes", *bytes);
            }
            Event::DeviceFailed { osd } => {
                json::field_u64(out, "osd", *osd as u64);
            }
            Event::RebuildStart {
                object,
                dest,
                bytes,
            }
            | Event::RebuildFinish {
                object,
                dest,
                bytes,
            } => {
                json::field_u64(out, "object", *object);
                json::field_u64(out, "dest", *dest as u64);
                json::field_u64(out, "bytes", *bytes);
            }
        }
    }

    /// Decodes a journal record (one JSONL line read into a [`Record`])
    /// back into the event it was written from — the conformance spec's
    /// input contract. Inverse of [`Event::kind`] + [`Event::write_fields`]:
    /// `from_record(written) == original` for every variant whose float
    /// fields are finite. Returns `Err` for trailer records (`counter`,
    /// `gauge`, `hist`), unknown kinds, and missing or ill-typed fields.
    pub fn from_record(r: &Record<'_>) -> Result<Event, String> {
        let kind = r
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing kind")?;
        let u = |key: &str| -> Result<u64, String> {
            r.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{kind}: missing or non-integer {key:?}"))
        };
        let u32of = |key: &str| -> Result<u32, String> {
            u32::try_from(u(key)?).map_err(|_| format!("{kind}: {key:?} exceeds u32"))
        };
        // Non-finite floats are journaled as null; read them back as NaN
        // so the record still decodes (NaN != NaN keeps them visible to
        // the spec's consistency checks).
        let f = |key: &str| -> Result<f64, String> {
            match r.get(key) {
                Some(v) if v.is_null() => Ok(f64::NAN),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("{kind}: non-numeric {key:?}")),
                None => Err(format!("{kind}: missing {key:?}")),
            }
        };
        let b = |key: &str| -> Result<bool, String> {
            r.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("{kind}: missing or non-boolean {key:?}"))
        };
        let s = |key: &str| -> Result<&'static str, String> {
            let raw = r
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{kind}: missing or non-string {key:?}"))?;
            intern(&raw).map_err(|e| format!("{kind}: {key}: {e}"))
        };
        let arr = |key: &str| -> Result<Vec<u64>, String> {
            r.get(key)
                .and_then(Value::items)
                .ok_or_else(|| format!("{kind}: missing or non-array {key:?}"))?
                .map(|it| {
                    it.as_u64()
                        .ok_or_else(|| format!("{kind}: non-integer element in {key:?}"))
                })
                .collect()
        };
        Ok(match &*kind {
            "run_meta" => Event::RunMeta {
                osds: u32of("osds")?,
                groups: u32of("groups")?,
                objects_per_file: u32of("objects_per_file")?,
                capacity_bytes: u("capacity_bytes")?,
                blocks_per_osd: u("blocks_per_osd")?,
            },
            "gc_invoked" => Event::GcInvoked {
                free_blocks: u("free_blocks")?,
                low_watermark: u("low_watermark")?,
                high_watermark: u("high_watermark")?,
            },
            "gc_victim" => Event::GcVictim {
                block: u("block")?,
                valid_pages: u("valid_pages")?,
                policy: s("policy")?,
            },
            "block_erase" => Event::BlockErase {
                block: u("block")?,
                erase_count: u("erase_count")?,
                moved_pages: u("moved_pages")?,
            },
            "wear_level_swap" => Event::WearLevelSwap {
                block: u("block")?,
                valid_pages: u("valid_pages")?,
                wear_spread: u("wear_spread")?,
            },
            "op_enqueue" => Event::OpEnqueue {
                osd: u32of("osd")?,
                depth: u("depth")?,
                mover: b("mover")?,
            },
            "op_dequeue" => Event::OpDequeue {
                osd: u32of("osd")?,
                depth: u("depth")?,
            },
            "queue_depth" => Event::QueueDepth {
                osd: u32of("osd")?,
                depth: u("depth")?,
            },
            "remap_update" => Event::RemapUpdate {
                object: u("object")?,
                dest: u32of("dest")?,
            },
            "wear_model_input" => Event::WearModelInput {
                osd: u32of("osd")?,
                wc_pages: u("wc_pages")?,
                utilization: f("utilization")?,
                erase_estimate: f("erase_estimate")?,
            },
            "trigger_eval" => Event::TriggerEval {
                policy: s("policy")?,
                metric: s("metric")?,
                rsd: f("rsd")?,
                lambda: f("lambda")?,
                mean: f("mean")?,
                triggered: b("triggered")?,
                sources: arr("sources")?,
                destinations: arr("destinations")?,
            },
            "plan_chosen" => Event::PlanChosen {
                policy: s("policy")?,
                moves: u("moves")?,
                moved_bytes: u("moved_bytes")?,
                objects: arr("objects")?,
                sources: arr("sources")?,
                destinations: arr("destinations")?,
            },
            "plan_assessment" => Event::PlanAssessment {
                rsd_before: f("rsd_before")?,
                rsd_after: f("rsd_after")?,
                moved_bytes: u("moved_bytes")?,
                moved_write_pages: u("moved_write_pages")?,
            },
            "migration_start" => Event::MigrationStart {
                object: u("object")?,
                source: u32of("source")?,
                dest: u32of("dest")?,
                bytes: u("bytes")?,
            },
            "migration_finish" => Event::MigrationFinish {
                object: u("object")?,
                source: u32of("source")?,
                dest: u32of("dest")?,
                bytes: u("bytes")?,
            },
            "migration_abort" => Event::MigrationAbort {
                object: u("object")?,
                source: u32of("source")?,
                dest: u32of("dest")?,
                bytes: u("bytes")?,
            },
            "device_failed" => Event::DeviceFailed { osd: u32of("osd")? },
            "rebuild_start" => Event::RebuildStart {
                object: u("object")?,
                dest: u32of("dest")?,
                bytes: u("bytes")?,
            },
            "rebuild_finish" => Event::RebuildFinish {
                object: u("object")?,
                dest: u32of("dest")?,
                bytes: u("bytes")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_emits_parseable_fields() {
        let events = vec![
            Event::RunMeta {
                osds: 8,
                groups: 4,
                objects_per_file: 2,
                capacity_bytes: 1 << 30,
                blocks_per_osd: 256,
            },
            Event::GcInvoked {
                free_blocks: 2,
                low_watermark: 3,
                high_watermark: 6,
            },
            Event::GcVictim {
                block: 7,
                valid_pages: 1,
                policy: "greedy",
            },
            Event::BlockErase {
                block: 7,
                erase_count: 12,
                moved_pages: 1,
            },
            Event::WearLevelSwap {
                block: 9,
                valid_pages: 4,
                wear_spread: 5,
            },
            Event::OpEnqueue {
                osd: 1,
                depth: 3,
                mover: false,
            },
            Event::OpDequeue { osd: 1, depth: 2 },
            Event::QueueDepth { osd: 0, depth: 9 },
            Event::RemapUpdate {
                object: 42,
                dest: 3,
            },
            Event::WearModelInput {
                osd: 2,
                wc_pages: 1000,
                utilization: 0.7,
                erase_estimate: 55.5,
            },
            Event::TriggerEval {
                policy: "EDM-HDF",
                metric: "erase_estimate",
                rsd: 0.31,
                lambda: 0.2,
                mean: 100.0,
                triggered: true,
                sources: vec![0],
                destinations: vec![2, 3],
            },
            Event::PlanChosen {
                policy: "EDM-HDF",
                moves: 2,
                moved_bytes: 1 << 21,
                objects: vec![4, 9],
                sources: vec![0],
                destinations: vec![2],
            },
            Event::PlanAssessment {
                rsd_before: 0.31,
                rsd_after: 0.12,
                moved_bytes: 1 << 21,
                moved_write_pages: 512,
            },
            Event::MigrationStart {
                object: 4,
                source: 0,
                dest: 2,
                bytes: 1 << 20,
            },
            Event::MigrationFinish {
                object: 4,
                source: 0,
                dest: 2,
                bytes: 1 << 20,
            },
            Event::MigrationAbort {
                object: 4,
                source: 0,
                dest: 2,
                bytes: 1 << 20,
            },
            Event::DeviceFailed { osd: 5 },
            Event::RebuildStart {
                object: 11,
                dest: 6,
                bytes: 1 << 19,
            },
            Event::RebuildFinish {
                object: 11,
                dest: 6,
                bytes: 1 << 19,
            },
        ];
        for e in events {
            let mut line = String::from("{");
            json::field_str(&mut line, "kind", e.kind());
            e.write_fields(&mut line);
            line.push('}');
            let r = Record::parse(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(r.get("kind").unwrap().as_str().as_deref(), Some(e.kind()));
            let back = Event::from_record(&r).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "{line}");
        }
    }

    #[test]
    fn from_record_rejects_bad_records() {
        let cases = [
            ("{\"t_us\":0}", "missing kind"),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}",
                "unknown",
            ),
            ("{\"kind\":\"no_such_event\"}", "unknown"),
            ("{\"kind\":\"device_failed\"}", "osd"),
            ("{\"kind\":\"block_erase\",\"block\":-1}", "block"),
            (
                "{\"kind\":\"gc_victim\",\"block\":1,\"valid_pages\":0,\"policy\":\"mystery\"}",
                "unknown label",
            ),
            (
                "{\"kind\":\"trigger_eval\",\"policy\":\"EDM-HDF\",\"metric\":\"erase_estimate\",\
                 \"rsd\":0.1,\"lambda\":0.2,\"mean\":1.0,\"triggered\":true,\"sources\":[1,\"x\"],\
                 \"destinations\":[]}",
                "sources",
            ),
        ];
        for (line, needle) in cases {
            let r = Record::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let err = Event::from_record(&r).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip_as_nan() {
        let e = Event::PlanAssessment {
            rsd_before: f64::NAN,
            rsd_after: f64::INFINITY,
            moved_bytes: 1,
            moved_write_pages: 2,
        };
        let mut line = String::from("{");
        json::field_str(&mut line, "kind", e.kind());
        e.write_fields(&mut line);
        line.push('}');
        assert!(line.contains("\"rsd_before\":null"));
        let back = Event::from_record(&Record::parse(&line).unwrap()).unwrap();
        match back {
            Event::PlanAssessment {
                rsd_before,
                rsd_after,
                ..
            } => {
                assert!(rsd_before.is_nan());
                assert!(rsd_after.is_nan());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Integers over the whole `u64` domain: the record decoder reads
    /// plain digits exactly, so values past 2^53 (where `f64` aliases
    /// neighbours) round-trip too.
    fn json_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1u64),
            Just((1u64 << 53) + 1),
            Just(u64::MAX),
            any::<u64>(),
        ]
    }

    fn json_u32() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()]
    }

    /// Finite floats incl. boundary magnitudes (non-finite values are
    /// covered by `non_finite_floats_round_trip_as_nan`: they journal as
    /// null by design, which is not an identity round-trip).
    fn json_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
            Just(-f64::MAX),
            -1.0e9..1.0e9f64,
        ]
    }

    fn label() -> impl Strategy<Value = &'static str> {
        (0..KNOWN_LABELS.len() as u64).prop_map(|i| KNOWN_LABELS[i as usize])
    }

    fn vec_u64() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(json_u64(), 0..6)
    }

    fn arb_event() -> impl Strategy<Value = Event> {
        prop_oneof![
            (json_u32(), json_u32(), json_u32(), json_u64(), json_u64()).prop_map(
                |(osds, groups, objects_per_file, capacity_bytes, blocks_per_osd)| {
                    Event::RunMeta {
                        osds,
                        groups,
                        objects_per_file,
                        capacity_bytes,
                        blocks_per_osd,
                    }
                }
            ),
            (json_u64(), json_u64(), json_u64()).prop_map(
                |(free_blocks, low_watermark, high_watermark)| Event::GcInvoked {
                    free_blocks,
                    low_watermark,
                    high_watermark,
                }
            ),
            (json_u64(), json_u64(), label()).prop_map(|(block, valid_pages, policy)| {
                Event::GcVictim {
                    block,
                    valid_pages,
                    policy,
                }
            }),
            (json_u64(), json_u64(), json_u64()).prop_map(|(block, erase_count, moved_pages)| {
                Event::BlockErase {
                    block,
                    erase_count,
                    moved_pages,
                }
            }),
            (json_u64(), json_u64(), json_u64()).prop_map(|(block, valid_pages, wear_spread)| {
                Event::WearLevelSwap {
                    block,
                    valid_pages,
                    wear_spread,
                }
            }),
            (json_u32(), json_u64(), any::<bool>())
                .prop_map(|(osd, depth, mover)| Event::OpEnqueue { osd, depth, mover }),
            (json_u32(), json_u64()).prop_map(|(osd, depth)| Event::OpDequeue { osd, depth }),
            (json_u32(), json_u64()).prop_map(|(osd, depth)| Event::QueueDepth { osd, depth }),
            (json_u64(), json_u32()).prop_map(|(object, dest)| Event::RemapUpdate { object, dest }),
            (json_u32(), json_u64(), json_f64(), json_f64()).prop_map(
                |(osd, wc_pages, utilization, erase_estimate)| Event::WearModelInput {
                    osd,
                    wc_pages,
                    utilization,
                    erase_estimate,
                }
            ),
            (
                label(),
                label(),
                json_f64(),
                json_f64(),
                json_f64(),
                any::<bool>(),
                vec_u64(),
                vec_u64()
            )
                .prop_map(
                    |(policy, metric, rsd, lambda, mean, triggered, sources, destinations)| {
                        Event::TriggerEval {
                            policy,
                            metric,
                            rsd,
                            lambda,
                            mean,
                            triggered,
                            sources,
                            destinations,
                        }
                    }
                ),
            (
                label(),
                json_u64(),
                json_u64(),
                vec_u64(),
                vec_u64(),
                vec_u64()
            )
                .prop_map(
                    |(policy, moves, moved_bytes, objects, sources, destinations)| {
                        Event::PlanChosen {
                            policy,
                            moves,
                            moved_bytes,
                            objects,
                            sources,
                            destinations,
                        }
                    }
                ),
            (json_f64(), json_f64(), json_u64(), json_u64()).prop_map(
                |(rsd_before, rsd_after, moved_bytes, moved_write_pages)| {
                    Event::PlanAssessment {
                        rsd_before,
                        rsd_after,
                        moved_bytes,
                        moved_write_pages,
                    }
                }
            ),
            (json_u64(), json_u32(), json_u32(), json_u64()).prop_map(
                |(object, source, dest, bytes)| Event::MigrationStart {
                    object,
                    source,
                    dest,
                    bytes,
                }
            ),
            (json_u64(), json_u32(), json_u32(), json_u64()).prop_map(
                |(object, source, dest, bytes)| Event::MigrationFinish {
                    object,
                    source,
                    dest,
                    bytes,
                }
            ),
            (json_u64(), json_u32(), json_u32(), json_u64()).prop_map(
                |(object, source, dest, bytes)| Event::MigrationAbort {
                    object,
                    source,
                    dest,
                    bytes,
                }
            ),
            json_u32().prop_map(|osd| Event::DeviceFailed { osd }),
            (json_u64(), json_u32(), json_u64()).prop_map(|(object, dest, bytes)| {
                Event::RebuildStart {
                    object,
                    dest,
                    bytes,
                }
            }),
            (json_u64(), json_u32(), json_u64()).prop_map(|(object, dest, bytes)| {
                Event::RebuildFinish {
                    object,
                    dest,
                    bytes,
                }
            }),
        ]
    }

    proptest! {
        /// The spec's input contract: every event the recorder can write
        /// decodes back to the identical value through the JSON layer.
        #[test]
        fn event_round_trips_through_json(e in arb_event()) {
            let mut line = String::from("{");
            json::field_str(&mut line, "kind", e.kind());
            e.write_fields(&mut line);
            line.push('}');
            let r = Record::parse(&line).map_err(|err| {
                TestCaseError::fail(format!("{line}: {err}"))
            })?;
            let back = Event::from_record(&r).map_err(|err| {
                TestCaseError::fail(format!("{line}: {err}"))
            })?;
            // NaN never round-trips by equality; json_f64() keeps floats
            // finite, so bit-for-bit equality is the contract here.
            prop_assert_eq!(back, e, "{}", line);
        }
    }
}
