//! The record decoder and the tree parser accept the same lines.
//!
//! `json::Record` is the journal readers' decoder and `json::parse` the
//! tree reader used everywhere else; the spec's verdicts depend on them
//! agreeing. Every line below, and every seeded byte flip and truncation
//! of real journal lines, must be accepted by both or rejected by both
//! with the same message, and an accepted object's fields must decode to
//! the tree's values.

use edm_obs::json::{self, JsonValue, Record, Value};

/// Lines as `MemoryRecorder::write_jsonl` writes them.
const JOURNAL_LINES: &[&str] = &[
    r#"{"t_us":0,"kind":"run_meta","osds":16,"groups":4,"objects_per_file":4,"capacity_bytes":16035840,"blocks_per_osd":133}"#,
    r#"{"t_us":0,"kind":"op_enqueue","osd":15,"depth":1,"mover":false}"#,
    r#"{"t_us":1720,"osd":4,"kind":"gc_invoked","free_blocks":1,"low_watermark":2,"high_watermark":4}"#,
    r#"{"t_us":807440,"kind":"trigger_eval","policy":"EDM-HDF","metric":"erase_estimate","rsd":0.5336642372100233,"lambda":0.1,"mean":41.542933661042326,"triggered":true,"sources":[12,11,10,5,9,3,2,4],"destinations":[14,0,1,15,7,13,6,8]}"#,
    r#"{"t_us":807440,"kind":"wear_model_input","osd":0,"wc_pages":451,"utilization":0.6498084291187739,"erase_estimate":15.386154058861994}"#,
    r#"{"t_us":807440,"kind":"plan_chosen","policy":"EDM-HDF","moves":9,"moved_bytes":4587520,"objects":[202,423,203,420,200,98,201,422,99],"sources":[2,3,4,5,9,10,11,12],"destinations":[0,1,6,7,8,13,14,15]}"#,
    r#"{"t_us":807440,"kind":"plan_assessment","rsd_before":null,"rsd_after":0.20774201026262376,"moved_bytes":4587520,"moved_write_pages":8355}"#,
    r#"{"kind":"hist","name":"response_us","count":53015,"p50":4095,"p95":65535,"p99":131071,"max":161000}"#,
];

/// Edge lines, valid and not.
const EDGE_LINES: &[&str] = &[
    "",
    " ",
    "{}",
    " { } ",
    "{",
    "}",
    "[]",
    "[1,2]",
    "[1,2,]",
    "5",
    "\"x\"",
    "null",
    "nul",
    "truex",
    "{\"a\":1} extra",
    "{\"a\":1}}",
    "{\"a\":1,}",
    "{\"a\" 1}",
    "{\"a\":1 \"b\":2}",
    "{\"a\":}",
    "{a:1}",
    "{\"a\":01}",
    "{\"a\":-01}",
    "{\"a\":1.0}",
    "{\"a\":1e3}",
    "{\"a\":1E+3}",
    "{\"a\":-0}",
    "{\"a\":+1}",
    "{\"a\":.5}",
    "{\"a\":5.}",
    "{\"a\":1e}",
    "{\"a\":-}",
    "{\"a\":1-2}",
    "{\"a\":--1}",
    "{\"a\":1.2.3}",
    "{\"a\":inf}",
    "{\"a\":NaN}",
    "{\"a\":18446744073709551616}",
    "{\"a\":9007199254740993}",
    "{\"a\":[1,[2,{\"b\":[3,{}]}],{\"c\":null}]}",
    "{\"a\":{\"b\":{\"c\":[true,false,null]}}}",
    "{\"a\":[1,2}",
    "{\"a\":{\"b\":1]}",
    "{\"a\":1,\"a\":2}",
    "{\"kind\":\"x\",\"kind\":\"y\"}",
    " \t{ \"a\" :\t1 ,\r\n\"b\" : [ 1 , 2 ] , \"c\" : { } } \n",
    "{\"a\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"}",
    "{\"a\":\"\\u0041\\u00e9\\ud800\"}",
    "{\"a\":\"\\u+041\"}",
    "{\"a\":\"\\u-041\"}",
    "{\"a\":\"\\u00\"}",
    "{\"a\":\"\\u00zz\"}",
    "{\"a\":\"\\u00é\"}",
    "{\"a\":\"\\x\"}",
    "{\"a\":\"\\\"}",
    "{\"a\":\"unterminated}",
    "{\"k\\u0069nd\":\"esc\"}",
    "{\"a\":\"héllo wörld\"}",
    "{\"a\":\"tab\there\"}",
    "{\"\":1}",
];

/// Both readers agree on `line`; returns whether it was accepted.
fn check_parity(line: &str) -> bool {
    let tree = json::parse(line);
    let rec = Record::parse(line);
    match (&tree, &rec) {
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "different errors for {line:?}");
            return false;
        }
        (Ok(_), Err(e)) => panic!("record rejects what parse accepts: {line:?}: {e}"),
        (Err(e), Ok(_)) => panic!("record accepts what parse rejects: {line:?}: {e}"),
        (Ok(_), Ok(_)) => {}
    }
    let (tree, rec) = (tree.unwrap(), rec.unwrap());
    let JsonValue::Obj(fields) = &tree else {
        assert_eq!(rec.fields().count(), 0, "{line:?}");
        return true;
    };
    assert_eq!(rec.fields().count(), fields.len(), "{line:?}");
    for ((key, _), (rkey, _)) in fields.iter().zip(rec.fields()) {
        assert_eq!(key, rkey, "{line:?}");
    }
    for (key, _) in fields {
        let want = tree.get(key).unwrap();
        let got = rec.get(key).unwrap();
        assert_value(want, got, line);
    }
    true
}

fn assert_value(want: &JsonValue, got: Value, line: &str) {
    assert_eq!(
        &json::parse(got.raw()).unwrap(),
        want,
        "{line:?}: raw span {:?}",
        got.raw()
    );
    assert_eq!(got.is_null(), *want == JsonValue::Null, "{line:?}");
    assert_eq!(got.as_bool(), want.as_bool(), "{line:?}");
    assert_eq!(got.as_str().as_deref(), want.as_str(), "{line:?}");
    assert_eq!(
        got.as_f64().map(f64::to_bits),
        want.as_f64().map(f64::to_bits),
        "{line:?}"
    );
    // Exact integers agree with the f64 route wherever f64 is exact.
    match (got.as_u64(), want.as_u64()) {
        (Some(a), Some(b)) if b < 1 << 53 => assert_eq!(a, b, "{line:?}"),
        (Some(_), Some(_)) => {}
        (None, Some(b)) => assert_eq!(b, u64::MAX, "{line:?}: only overflow may differ"),
        (a, b) => assert_eq!(a, b, "{line:?}"),
    }
    match (got.items(), want.as_arr()) {
        (Some(items), Some(arr)) => {
            let items: Vec<Value> = items.collect();
            assert_eq!(items.len(), arr.len(), "{line:?}");
            for (g, w) in items.into_iter().zip(arr) {
                assert_value(w, g, line);
            }
        }
        (None, None) => {}
        _ => panic!("{line:?}: array-ness differs"),
    }
}

#[test]
fn edge_lines_agree() {
    let mut accepted = 0;
    for line in EDGE_LINES.iter().chain(JOURNAL_LINES) {
        if check_parity(line) {
            accepted += 1;
        }
    }
    // Both kinds of verdict are exercised.
    assert!(accepted > 20 && accepted < EDGE_LINES.len(), "{accepted}");
}

#[test]
fn numbers_agree_exhaustively_over_short_spellings() {
    // Every spelling of up to four characters from the number alphabet.
    const ALPHABET: &[u8] = b"-+.eE019";
    let mut spellings = vec![String::new()];
    let mut frontier = vec![String::new()];
    for _ in 0..4 {
        let mut next = Vec::new();
        for s in &frontier {
            for &c in ALPHABET {
                let mut t = s.clone();
                t.push(c as char);
                next.push(t);
            }
        }
        spellings.extend(next.iter().cloned());
        frontier = next;
    }
    for s in spellings {
        check_parity(&format!("{{\"n\":{s}}}"));
        check_parity(&format!("[{s}]"));
    }
}

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[test]
fn seeded_byte_flips_and_truncations_of_journal_lines_agree() {
    // Replacement bytes that steer the scanners into every branch.
    const BYTES: &[u8] = b"{}[]\":,\\ -+.eE0159tfnlu\t";
    let mut rng = Rng(0x5eed);
    let mut rejected = 0;
    for line in JOURNAL_LINES {
        for cut in 0..=line.len() {
            if line.is_char_boundary(cut) && !check_parity(&line[..cut]) {
                rejected += 1;
            }
        }
        for _ in 0..2000 {
            let mut bytes = line.as_bytes().to_vec();
            for _ in 0..1 + rng.next() % 3 {
                let at = (rng.next() % bytes.len() as u64) as usize;
                bytes[at] = BYTES[(rng.next() % BYTES.len() as u64) as usize];
            }
            let mutated = String::from_utf8(bytes).unwrap();
            if !check_parity(&mutated) {
                rejected += 1;
            }
        }
    }
    assert!(rejected > 1000, "{rejected}");
}
