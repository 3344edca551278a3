//! Seeded journal mutator — the spec's self-test.
//!
//! A conformance checker that accepts everything is worthless, so every
//! gate run proves the spec *rejects*: [`mutate`] derives an illegal
//! journal from a legal one, one deterministic seeded edit per
//! mutation class, and the caller asserts [`crate::verify_journal`]
//! reports a line-numbered violation for each class in [`MUTATIONS`].

use edm_obs::json::{self, JsonValue};

/// Every mutation class the self-test must prove rejected.
pub const MUTATIONS: &[&str] = &[
    "drop_finish",        // remove a migration_finish: lifecycle left open
    "duplicate_start",    // start the same migration twice
    "reorder_events",     // swap adjacent events across a time step
    "retarget_remap",     // point a remap_update at the wrong OSD
    "retarget_migration", // send a migration to an out-of-group OSD
    "corrupt_trigger",    // flip the rsd-vs-lambda verdict
    "skip_erase",         // make a block's erase count jump
    "orphan_finish",      // finish a migration that is not in flight
];

/// Deterministic splitmix64 stream for seeded candidate selection.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one seeded mutation of `class` to a JSONL journal. Returns
/// `None` when the journal has no site for that class (e.g. no
/// migration to retarget).
pub fn mutate(journal: &str, class: &str, seed: u64) -> Option<String> {
    let mut rng = Rng(seed);
    let mut lines: Vec<String> = journal.lines().map(str::to_string).collect();
    let parsed: Vec<Option<JsonValue>> = lines.iter().map(|l| json::parse(l).ok()).collect();

    let kind_of = |v: &JsonValue| {
        v.get("kind")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    let of_kind = |kind: &str| -> Vec<usize> {
        parsed
            .iter()
            .enumerate()
            .filter(|(_, v)| v.as_ref().and_then(&kind_of).as_deref() == Some(kind))
            .map(|(i, _)| i)
            .collect()
    };
    let u64_field = |i: usize, key: &str| -> Option<u64> { parsed[i].as_ref()?.get(key)?.as_u64() };
    let osds = of_kind("run_meta")
        .first()
        .and_then(|&i| u64_field(i, "osds"))
        .unwrap_or(1)
        .max(1);

    match class {
        "drop_finish" => {
            let sites = of_kind("migration_finish");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            lines.remove(i);
        }
        "duplicate_start" => {
            let sites = of_kind("migration_start");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let copy = lines[i].clone();
            lines.insert(i + 1, copy);
        }
        "reorder_events" => {
            // Adjacent event lines with strictly increasing timestamps:
            // swapping them breaks the journal's time order.
            let sites: Vec<usize> = (0..lines.len().saturating_sub(1))
                .filter(
                    |&i| match (u64_field(i, "t_us"), u64_field(i + 1, "t_us")) {
                        (Some(a), Some(b)) => a < b,
                        _ => false,
                    },
                )
                .collect();
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            lines.swap(i, i + 1);
        }
        "retarget_remap" => {
            let sites = of_kind("remap_update");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let dest = u64_field(i, "dest")?;
            lines[i] = rewrite_u64(parsed[i].as_ref()?, "dest", (dest + 1) % osds)?;
        }
        "retarget_migration" => {
            let sites = of_kind("migration_start");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let source = u64_field(i, "source")?;
            let dest = u64_field(i, "dest")?;
            let mut new_dest = (dest + 1) % osds;
            if new_dest == source {
                new_dest = (new_dest + 1) % osds;
            }
            lines[i] = rewrite_u64(parsed[i].as_ref()?, "dest", new_dest)?;
        }
        "corrupt_trigger" => {
            let sites = of_kind("trigger_eval");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let triggered = parsed[i].as_ref()?.get("triggered")?.as_bool()?;
            lines[i] = rewrite(
                parsed[i].as_ref()?,
                "triggered",
                JsonValue::Bool(!triggered),
            )?;
        }
        "skip_erase" => {
            let sites = of_kind("block_erase");
            if sites.is_empty() {
                return None;
            }
            // Prefer a repeat erase of some (osd, block): bumping its
            // count breaks the +1 monotonicity. Fall back to zeroing a
            // first-seen count, which is impossible right after an
            // erase.
            let mut seen = std::collections::BTreeSet::new();
            let mut repeat = None;
            for &i in &sites {
                let site = (u64_field(i, "osd"), u64_field(i, "block"));
                if !seen.insert(site) {
                    repeat = Some(i);
                }
            }
            match repeat {
                Some(i) => {
                    let count = u64_field(i, "erase_count")?;
                    lines[i] = rewrite_u64(parsed[i].as_ref()?, "erase_count", count + 1)?;
                }
                None => {
                    let i = sites[rng.pick(sites.len())];
                    lines[i] = rewrite_u64(parsed[i].as_ref()?, "erase_count", 0)?;
                }
            }
        }
        "orphan_finish" => {
            let sites = of_kind("migration_finish");
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.pick(sites.len())];
            let copy = lines[i].clone();
            // Past its remap_update, the finish has no in-flight move.
            let at = (i + 2).min(lines.len());
            lines.insert(at, copy);
        }
        _ => return None,
    }
    let mut out = lines.join("\n");
    out.push('\n');
    Some(out)
}

fn rewrite_u64(v: &JsonValue, key: &str, value: u64) -> Option<String> {
    rewrite(v, key, JsonValue::Num(value as f64))
}

/// Re-renders an object line with one field replaced, preserving field
/// order.
fn rewrite(v: &JsonValue, key: &str, value: JsonValue) -> Option<String> {
    let JsonValue::Obj(fields) = v else {
        return None;
    };
    if !fields.iter().any(|(k, _)| k == key) {
        return None;
    }
    let fields: Vec<(String, JsonValue)> = fields
        .iter()
        .map(|(k, old)| {
            let v = if k == key { value.clone() } else { old.clone() };
            (k.clone(), v)
        })
        .collect();
    Some(render(&JsonValue::Obj(fields)))
}

/// Minimal JSON writer for mutated lines. Integer-valued numbers print
/// without a fraction (f64 `Display` is exact for journal magnitudes).
fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => {
            use std::fmt::Write as _;
            let _ = write!(out, "{n}");
        }
        JsonValue::Str(s) => render_str(s, out),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(k, out);
                out.push(':');
                render_into(val, out);
            }
            out.push('}');
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
