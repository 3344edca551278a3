//! Engine ↔ spec conformance: real simulator runs, journaled at full
//! event level, replayed through the `edm-spec` abstract state machine.
//! Every journaled event must be a legal EDM transition — this is the
//! in-tree closure of the loop the `spec_conformance` fuzz oracle and
//! the `check.sh spec` gate step exercise on scenario corpora.

use edm_harness::Scenario;
use edm_obs::json::{self, JsonValue};
use edm_obs::{MemoryRecorder, ObsLevel};
use edm_spec::{verify_journal, SpecReport};

fn journal_of(s: &Scenario) -> String {
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    s.run_with_obs(&mut rec).expect("scenario run failed");
    let mut out = Vec::new();
    rec.write_jsonl(&mut out).expect("journal render failed");
    String::from_utf8(out).expect("journal is UTF-8")
}

fn assert_conformant(journal: &str) -> SpecReport {
    let report = verify_journal(journal);
    assert!(
        report.violation.is_none(),
        "engine journal violates the spec: line {} — {}",
        report.violation.as_ref().map_or(0, |v| v.line),
        report.violation.as_ref().map_or("", |v| v.message.as_str()),
    );
    assert!(report.events > 0, "events run produced an empty journal");
    report
}

#[test]
fn edm_hdf_run_conforms_to_the_spec() {
    let s = Scenario::parse("scale 0.002\nosds 8\npolicy EDM-HDF\nschedule every-tick\n")
        .expect("parse");
    let report = assert_conformant(&journal_of(&s));
    // A planning run must actually exercise the planning transitions.
    for kind in ["run_meta", "block_erase", "trigger_eval", "plan_chosen"] {
        assert!(
            report.kind_counts.contains_key(kind),
            "journal never exercised {kind}"
        );
    }
}

#[test]
fn cmt_run_conforms_to_the_spec() {
    // CMT balances load across group boundaries by design; the spec's
    // same-group rule must recognize the policy exemption.
    let s =
        Scenario::parse("scale 0.002\nosds 8\npolicy CMT\nschedule every-tick\n").expect("parse");
    assert_conformant(&journal_of(&s));
}

#[test]
fn failure_and_rebuild_run_conforms_to_the_spec() {
    let s = Scenario::parse(
        "scale 0.002\nosds 8\npolicy EDM-CDF\nschedule every-tick\nfail 150000 1 rebuild\n",
    )
    .expect("parse");
    let report = assert_conformant(&journal_of(&s));
    assert!(
        report.kind_counts.contains_key("device_failed"),
        "failure injection left no device_failed event"
    );
}

#[test]
fn component_affine_journal_conforms_and_its_queue_model_is_enforced() {
    // The datacenter smoke shape: stride 2 over 4 groups yields two
    // placement components, one client set each.
    let s = Scenario::parse(
        "scale 0.002\nosds 16\ngroups 4\nobjects_per_file 2\nschedule every-tick\n\
         stride 2\naffinity component\n",
    )
    .expect("parse");
    let journal = journal_of(&s);
    let report = assert_conformant(&journal);
    assert!(
        report.kind_counts.contains_key("queue_depth"),
        "every-tick run journaled no queue_depth samples"
    );

    // Bump the first tick-time queue sample of an OSD the queue model
    // already tracks (it has seen an enqueue) by two: neither "waiting"
    // nor "waiting + 1 in service" can explain it, so the spec must
    // reject it on every journal, component-affine ones included.
    let mut lines: Vec<String> = journal.lines().map(str::to_string).collect();
    let mut tracked = std::collections::BTreeSet::new();
    let mut target = None;
    for (i, line) in lines.iter().enumerate() {
        let v = json::parse(line).expect("journal line parses");
        let kind = v.get("kind").and_then(JsonValue::as_str);
        let osd = v.get("osd").and_then(JsonValue::as_u64);
        match (kind, osd) {
            (Some("op_enqueue"), Some(o)) => {
                tracked.insert(o);
            }
            (Some("queue_depth"), Some(o)) if tracked.contains(&o) => {
                let depth = v.get("depth").and_then(JsonValue::as_u64).expect("depth");
                target = Some((i, depth));
                break;
            }
            _ => {}
        }
    }
    let (i, depth) = target.expect("a queue_depth sample of a tracked OSD");
    lines[i] = lines[i].replace(
        &format!("\"depth\":{depth}"),
        &format!("\"depth\":{}", depth + 2),
    );
    let mutated = lines.join("\n") + "\n";
    let v = verify_journal(&mutated)
        .violation
        .expect("a bumped queue_depth sample must be rejected");
    assert_eq!(v.line, i + 1, "{}", v.message);
    assert!(v.message.contains("queue model"), "{}", v.message);
}
