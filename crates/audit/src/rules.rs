//! The rule engine: every audit rule, run over the significant
//! (comment-free) token stream of each workspace file.
//!
//! Rules are lexical heuristics, tuned to this codebase and biased
//! toward *catching* violations: a false positive costs one explanatory
//! pragma, a false negative silently breaks replayability. Each rule
//! documents its scope; DESIGN.md §8 records the rationale.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use crate::source::{FileKind, SourceFile};

/// Registry of every rule id with a one-line description. The pragma
/// checker rejects `allow(...)` of ids not listed here.
pub const RULES: &[(&str, &str)] = &[
    (
        "det.map_iter",
        "iteration over HashMap/HashSet in simulation-state crates (unordered)",
    ),
    (
        "det.thread_order",
        "thread spawn / cross-thread aggregation primitive (mpsc, Mutex, RwLock) in simulation-state crates or the serve daemon",
    ),
    (
        "det.suppression_budget",
        "deterministic-core crate exceeds its frozen det.* pragma budget",
    ),
    (
        "det.wallclock",
        "Instant::now/SystemTime::now outside harness bins and bench",
    ),
    (
        "det.ambient_rng",
        "ambient randomness (thread_rng, OsRng, from_entropy, rand::random)",
    ),
    (
        "det.env_read",
        "process-environment read (std::env) outside harness bins and bench",
    ),
    ("panic.unwrap", ".unwrap() in non-test library code"),
    ("panic.expect", ".expect(...) in non-test library code"),
    (
        "panic.panic",
        "panic!/todo!/unimplemented! in non-test library code",
    ),
    ("panic.unreachable", "unreachable! in non-test library code"),
    (
        "panic.slice_index",
        "slice indexing by integer literal in non-test library code",
    ),
    (
        "num.lossy_cast",
        "lossy `as` cast in wear/erase accounting files",
    ),
    (
        "num.float_eq",
        "==/!= against a float literal in wear/erase accounting files",
    ),
    (
        "snap.field_coverage",
        "Snapshot impl whose save or load path misses a struct field",
    ),
    (
        "unsafe.forbid_missing",
        "library crate root without #![forbid(unsafe_code)]",
    ),
    ("pragma.malformed", "unparseable edm-audit pragma"),
    (
        "pragma.unknown_rule",
        "pragma allows a rule id that does not exist",
    ),
    ("pragma.unused", "pragma that suppressed nothing"),
    (
        "ci.workflow_gate",
        "CI workflow does not invoke every scripts/check.sh step",
    ),
    (
        "spec.event_coverage",
        "journal Event variant never matched in the edm-spec transition function",
    ),
    (
        "det.taint",
        "nondeterministic value (wallclock, RNG, env, thread id, hash iteration) flows into sim state, a snapshot section, or the journal",
    ),
    (
        "conc.lock_order",
        "inconsistent lock acquisition order, or a lock held across a blocking call",
    ),
    (
        "conc.shared_state",
        "non-Sync state (Rc/RefCell/Cell) reachable from a spawned closure",
    ),
    (
        "unit.time",
        "arithmetic/comparison mixing a time unit (us/ms/ns) with another unit",
    ),
    (
        "unit.wear",
        "arithmetic/comparison mixing wear/erase/page/block/byte units",
    ),
];

pub fn rule_exists(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

/// Crates whose `src` holds simulation state: map iteration order there
/// can reach the event sequence, so `det.map_iter` applies.
const SIM_STATE_CRATES: &[&str] = &["ssd", "cluster", "core", "workload"];

/// `det.thread_order` additionally covers the serve daemon (lib and
/// bin): its server thread shares a control block with the session
/// thread, so every cross-thread primitive there must argue — in a
/// pragma — that no simulation state crosses the thread boundary and
/// the observable result is independent of scheduler interleaving.
fn in_thread_order_scope(file: &SourceFile) -> bool {
    match file.kind {
        FileKind::LibSrc => {
            SIM_STATE_CRATES.contains(&file.crate_name.as_str()) || file.crate_name == "serve"
        }
        FileKind::BinSrc => file.crate_name == "serve",
        _ => false,
    }
}

/// Files under the `num.*` rules: wear/erase accounting, where a lossy
/// cast or an exact float compare skews endurance results silently.
fn in_numeric_scope(path: &str) -> bool {
    path.ends_with("/wear.rs") || path.ends_with("/temperature.rs") || path.contains("/policy/")
}

/// Convenience view over one file's significant tokens.
struct View<'a> {
    src: &'a str,
    toks: &'a [Token],
}

impl<'a> View<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks[i].text(self.src)
    }
    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }
    fn is(&self, i: usize, s: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.text(self.src) == s)
    }
    fn is_ident(&self, i: usize, s: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == s)
    }
    fn line(&self, i: usize) -> u32 {
        self.toks[i].line
    }
    /// Two puncts form a glued operator (`==`, `::`) only when adjacent.
    fn glued(&self, i: usize) -> bool {
        i + 1 < self.toks.len() && self.toks[i].end == self.toks[i + 1].start
    }
}

/// Runs every applicable rule over `file`, appending findings.
pub fn check_file(file: &SourceFile, findings: &mut Vec<Finding>) {
    let v = View {
        src: &file.src,
        toks: &file.sig,
    };
    let f = |rule: &'static str, line: u32, message: String| Finding {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        chain: Vec::new(),
    };
    let in_test = |line: u32| file.in_cfg_test(line);
    let lib = file.kind == FileKind::LibSrc;
    // Harness bins own the process boundary (CLI args, wall-clock cell
    // timing); the audit and fuzz bins are repo tooling. Everything else
    // must stay deterministic.
    let tool_bin = file.kind == FileKind::BinSrc
        && (file.crate_name == "harness"
            || file.crate_name == "audit"
            || file.crate_name == "fuzz");
    let ambient_exempt = matches!(
        file.kind,
        FileKind::Bench | FileKind::TestCode | FileKind::Example
    ) || tool_bin;

    // --- det.map_iter ------------------------------------------------
    if lib && SIM_STATE_CRATES.contains(&file.crate_name.as_str()) {
        let decls = hash_container_idents(&v);
        for i in 0..v.toks.len() {
            if in_test(v.line(i)) {
                continue;
            }
            // ident.iter() / .keys() / .values() / .drain() / …
            if v.kind(i) == Some(TokKind::Ident)
                && decls.contains(v.text(i))
                && v.is(i + 1, ".")
                && v.kind(i + 2) == Some(TokKind::Ident)
            {
                let m = v.text(i + 2);
                const ITER_METHODS: &[&str] = &[
                    "iter",
                    "iter_mut",
                    "keys",
                    "values",
                    "values_mut",
                    "drain",
                    "into_iter",
                    "into_keys",
                    "into_values",
                    "retain",
                ];
                if ITER_METHODS.contains(&m) && v.is(i + 3, "(") {
                    findings.push(f(
                        "det.map_iter",
                        v.line(i),
                        format!(
                            "`.{m}()` on hash container `{}` iterates in unspecified order",
                            v.text(i)
                        ),
                    ));
                }
            }
            // for … in [&|&mut] [self.]ident { … }
            if v.is_ident(i, "for") {
                if let Some((name, line)) = for_loop_over(&v, i, &decls) {
                    findings.push(f(
                        "det.map_iter",
                        line,
                        format!(
                            "`for` loop over hash container `{name}` iterates in unspecified order"
                        ),
                    ));
                }
            }
        }
    }

    // --- det.thread_order --------------------------------------------
    // Threads themselves are allowed (the serve daemon and the harness
    // runner depend on them); what this rule polices is the *aggregation idiom*. Any
    // spawn or cross-thread channel/lock in simulation-state library
    // code must carry a pragma arguing that the observable result is
    // independent of scheduler interleaving — e.g. workers mutate
    // disjoint `&mut` slots read back in index order after the join.
    // mpsc receive order, lock acquisition order, and atomic RMW
    // interleavings are all scheduler-dependent; folding results in any
    // of those orders silently breaks the replay digest.
    if in_thread_order_scope(file) {
        for i in 0..v.toks.len() {
            if in_test(v.line(i)) {
                continue;
            }
            if v.is_ident(i, "spawn")
                && (v.is(i.wrapping_sub(1), ".") || v.is(i.wrapping_sub(1), ":"))
            {
                findings.push(f(
                    "det.thread_order",
                    v.line(i),
                    "`spawn` creates a worker thread — results must be aggregated in a \
                     scheduler-independent order"
                        .to_string(),
                ));
            }
            for prim in ["mpsc", "Mutex", "RwLock"] {
                if v.is_ident(i, prim) {
                    findings.push(f(
                        "det.thread_order",
                        v.line(i),
                        format!("`{prim}` aggregates across threads in scheduler-dependent order"),
                    ));
                }
            }
        }
    }

    // --- det.wallclock / det.ambient_rng / det.env_read --------------
    if !ambient_exempt {
        for i in 0..v.toks.len() {
            if in_test(v.line(i)) {
                continue;
            }
            if (v.is_ident(i, "Instant") || v.is_ident(i, "SystemTime"))
                && v.is(i + 1, ":")
                && v.is(i + 2, ":")
                && v.is_ident(i + 3, "now")
            {
                findings.push(f(
                    "det.wallclock",
                    v.line(i),
                    format!("`{}::now()` reads the wall clock", v.text(i)),
                ));
            }
            if v.is_ident(i, "thread_rng")
                || v.is_ident(i, "OsRng")
                || v.is_ident(i, "from_entropy")
                || (v.is_ident(i, "rand")
                    && v.is(i + 1, ":")
                    && v.is(i + 2, ":")
                    && v.is_ident(i + 3, "random"))
            {
                findings.push(f(
                    "det.ambient_rng",
                    v.line(i),
                    format!("`{}` draws ambient (unseeded) randomness", v.text(i)),
                ));
            }
            if v.is_ident(i, "env") && v.is(i + 1, ":") && v.is(i + 2, ":") {
                const ENV_READS: &[&str] = &[
                    "var",
                    "var_os",
                    "vars",
                    "args",
                    "args_os",
                    "temp_dir",
                    "current_dir",
                ];
                if let Some(TokKind::Ident) = v.kind(i + 3) {
                    let m = v.text(i + 3);
                    if ENV_READS.contains(&m) {
                        findings.push(f(
                            "det.env_read",
                            v.line(i),
                            format!("`env::{m}` reads the process environment"),
                        ));
                    }
                }
            }
        }
    }

    // --- panic.* -----------------------------------------------------
    if lib {
        for i in 0..v.toks.len() {
            if in_test(v.line(i)) {
                continue;
            }
            if v.is(i, ".") && v.kind(i + 1) == Some(TokKind::Ident) && v.is(i + 2, "(") {
                match v.text(i + 1) {
                    "unwrap" => findings.push(f(
                        "panic.unwrap",
                        v.line(i + 1),
                        "`.unwrap()` panics on the error path".to_string(),
                    )),
                    "expect" => findings.push(f(
                        "panic.expect",
                        v.line(i + 1),
                        "`.expect(...)` panics on the error path".to_string(),
                    )),
                    _ => {}
                }
            }
            if v.kind(i) == Some(TokKind::Ident) && v.is(i + 1, "!") {
                match v.text(i) {
                    "panic" | "todo" | "unimplemented" => findings.push(f(
                        "panic.panic",
                        v.line(i),
                        format!("`{}!` aborts the simulation", v.text(i)),
                    )),
                    "unreachable" => findings.push(f(
                        "panic.unreachable",
                        v.line(i),
                        "`unreachable!` aborts if the impossible happens".to_string(),
                    )),
                    _ => {}
                }
            }
            // ident[<int literal>] — indexing that panics out of bounds.
            // `!` before `[` is a macro (vec![…]); `<` before means a
            // generic argument list, not an expression.
            if v.kind(i) == Some(TokKind::Ident)
                && v.is(i + 1, "[")
                && v.kind(i + 2) == Some(TokKind::Int)
                && v.is(i + 3, "]")
            {
                findings.push(f(
                    "panic.slice_index",
                    v.line(i),
                    format!(
                        "`{}[{}]` panics when the index is out of bounds",
                        v.text(i),
                        v.text(i + 2)
                    ),
                ));
            }
        }
    }

    // --- num.* -------------------------------------------------------
    if lib && in_numeric_scope(&file.rel_path) {
        const NARROWING: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
        for i in 0..v.toks.len() {
            if in_test(v.line(i)) {
                continue;
            }
            if v.is_ident(i, "as")
                && v.kind(i + 1) == Some(TokKind::Ident)
                && NARROWING.contains(&v.text(i + 1))
            {
                findings.push(f(
                    "num.lossy_cast",
                    v.line(i),
                    format!(
                        "`as {}` can silently truncate wear accounting",
                        v.text(i + 1)
                    ),
                ));
            }
            // `== 1.0` / `1.0 !=` — exact float comparison.
            let eq = (v.is(i, "=") && v.glued(i) && v.is(i + 1, "="))
                || (v.is(i, "!") && v.glued(i) && v.is(i + 1, "="));
            if eq {
                let lhs_float = i > 0 && v.kind(i - 1) == Some(TokKind::Float);
                let rhs_float = v.kind(i + 2) == Some(TokKind::Float);
                if lhs_float || rhs_float {
                    findings.push(f(
                        "num.float_eq",
                        v.line(i),
                        "exact comparison against a float literal".to_string(),
                    ));
                }
            }
        }
    }
}

/// Identifiers in this file declared with a HashMap/HashSet type or
/// initialized from `HashMap::…`/`HashSet::…`. Lexical, so a name
/// declared as a hash container *anywhere* in the file taints every
/// use of that name — bias toward catching.
fn hash_container_idents(v: &View<'_>) -> BTreeSet<String> {
    let mut decls = BTreeSet::new();
    for i in 0..v.toks.len() {
        if v.kind(i) != Some(TokKind::Ident) {
            continue;
        }
        let name = v.text(i);
        if name == "HashMap" || name == "HashSet" {
            // Walk back over `: & mut std :: collections ::` noise to the
            // declared identifier.
            let mut j = i;
            let mut saw_colon = false;
            while j > 0 {
                j -= 1;
                let t = v.text(j);
                match t {
                    ":" => saw_colon = true,
                    "&" | "mut" | "std" | "collections" => {}
                    "=" => {
                        // `let x = HashMap::new()` — identifier before `=`.
                        if v.kind(j.wrapping_sub(1)) == Some(TokKind::Ident) && j >= 1 {
                            decls.insert(v.text(j - 1).to_string());
                        }
                        break;
                    }
                    _ => {
                        if saw_colon && v.kind(j) == Some(TokKind::Ident) {
                            decls.insert(t.to_string());
                        }
                        break;
                    }
                }
            }
        }
    }
    decls
}

/// If the `for` loop starting at token `i` iterates directly over a
/// declared hash container (`for x in &self.map`), returns the
/// container name and loop line. Method-call iterations are caught by
/// the `.iter()`-family check instead.
fn for_loop_over(v: &View<'_>, i: usize, decls: &BTreeSet<String>) -> Option<(String, u32)> {
    // Find `in` at bracket depth 0 (patterns may contain tuples).
    let mut j = i + 1;
    let mut depth = 0i32;
    loop {
        match v.toks.get(j)? {
            t if t.text(v.src) == "(" || t.text(v.src) == "[" => depth += 1,
            t if t.text(v.src) == ")" || t.text(v.src) == "]" => depth -= 1,
            t if t.kind == TokKind::Ident && t.text(v.src) == "in" && depth == 0 => break,
            t if t.text(v.src) == "{" => return None, // no `in`: not a loop
            _ => {}
        }
        j += 1;
        if j > i + 64 {
            return None;
        }
    }
    // Expression tokens until the body `{`: accept only the simple
    // direct-iteration shape.
    let mut name: Option<String> = None;
    let mut k = j + 1;
    loop {
        let t = v.toks.get(k)?;
        let txt = t.text(v.src);
        if txt == "{" {
            break;
        }
        match txt {
            "&" | "mut" | "self" | "." => {}
            _ if t.kind == TokKind::Ident && decls.contains(txt) => {
                name = Some(txt.to_string());
            }
            _ => return None, // any other shape: method calls etc.
        }
        k += 1;
        if k > j + 8 {
            return None;
        }
    }
    name.map(|n| (n, v.line(i)))
}

// ---------------------------------------------------------------------
// Workspace-level rules: Snapshot field coverage and forbid(unsafe_code).
// ---------------------------------------------------------------------

/// Named-field structs collected across the workspace:
/// (crate, struct name) → candidate field lists (one per definition
/// site, to survive same-name structs in different modules).
pub type StructTable = BTreeMap<(String, String), Vec<Vec<String>>>;

/// Pass A: record every `struct Name { field: Type, … }` in `file`,
/// straight off the AST.
pub fn collect_structs(file: &SourceFile, table: &mut StructTable) {
    for s in file.ast.structs() {
        if s.fields.is_empty() {
            continue;
        }
        table
            .entry((file.crate_name.clone(), s.name.clone()))
            .or_default()
            .push(s.fields.iter().map(|f| f.name.clone()).collect());
    }
}

/// Pass B: for every `impl Snapshot for T` in `file` (found on the
/// AST), check that each field of `T` (when `T` is a named-field struct
/// in the same crate) appears in both the `save` and the `load` body.
pub fn check_snapshot_coverage(
    file: &SourceFile,
    table: &StructTable,
    findings: &mut Vec<Finding>,
) {
    if file.kind != FileKind::LibSrc {
        return;
    }
    let mut impls: Vec<(&crate::ast::ImplBlock, u32)> = Vec::new();
    collect_impls(&file.ast.items, &mut impls);
    for (imp, impl_line) in impls {
        if imp.trait_name.as_deref() != Some("Snapshot") || file.in_cfg_test(impl_line) {
            continue;
        }
        let tname = &imp.type_name;
        let key = (file.crate_name.clone(), tname.clone());
        let Some(candidates) = table.get(&key) else {
            continue;
        };
        let save_idents = fn_body_idents(file, imp, "save");
        let load_idents = fn_body_idents(file, imp, "load");
        // Same-name structs in different modules: report only if the
        // check fails for every candidate definition, and report the
        // candidate with the fewest missing fields.
        let mut best: Option<Vec<String>> = None;
        for fields in candidates {
            let mut missing = Vec::new();
            for field in fields {
                let in_save = save_idents.contains(field.as_str());
                let in_load = load_idents.contains(field.as_str());
                if !in_save || !in_load {
                    let side = match (in_save, in_load) {
                        (false, false) => "save and load paths",
                        (false, true) => "save path",
                        _ => "load path",
                    };
                    missing.push(format!("`{field}` missing from the {side}"));
                }
            }
            if missing.is_empty() {
                best = None;
                break;
            }
            if best.as_ref().is_none_or(|b| missing.len() < b.len()) {
                best = Some(missing);
            }
        }
        if let Some(missing) = best {
            for m in missing {
                findings.push(Finding {
                    rule: "snap.field_coverage",
                    path: file.rel_path.clone(),
                    line: impl_line,
                    message: format!("Snapshot impl for `{tname}`: field {m}"),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// Every impl block in the file (recursing through inline modules),
/// with its declaration line.
fn collect_impls<'a>(
    items: &'a [crate::ast::Item],
    out: &mut Vec<(&'a crate::ast::ImplBlock, u32)>,
) {
    for item in items {
        match &item.kind {
            crate::ast::ItemKind::Impl(imp) => out.push((imp, item.line)),
            crate::ast::ItemKind::Mod(m) => collect_impls(&m.items, out),
            _ => {}
        }
    }
}

/// All ident texts inside the body of `fn <name>` of an impl block.
fn fn_body_idents<'s>(
    file: &'s SourceFile,
    imp: &crate::ast::ImplBlock,
    name: &str,
) -> BTreeSet<&'s str> {
    let mut out = BTreeSet::new();
    let Some(decl) = imp.fns.iter().find(|f| f.name == name) else {
        return out;
    };
    let Some((lo, hi)) = decl.body_range else {
        return out;
    };
    for t in lo..hi.min(file.sig.len()) {
        if file.sig[t].kind == TokKind::Ident {
            out.insert(file.sig[t].text(&file.src));
        }
    }
    out
}

/// `spec.event_coverage`: every variant of the journal `Event` enum
/// (crates/obs/src/event.rs) must be matched somewhere in the edm-spec
/// transition function (crates/spec/src) as `Event::<Name>`. A new
/// event kind the conformance checker silently ignores is a hole in the
/// spec: the journal would grow behaviour the state machine never
/// certifies. Workspace-level — it needs both crates' sources at once.
pub fn check_spec_event_coverage(files: &[SourceFile], findings: &mut Vec<Finding>) {
    const EVENT_DECL: &str = "crates/obs/src/event.rs";
    const SPEC_SRC: &str = "crates/spec/src/";
    let Some(decl) = files.iter().find(|f| f.rel_path == EVENT_DECL) else {
        return;
    };
    let variants = event_enum_variants(decl);
    if variants.is_empty() || !files.iter().any(|f| f.rel_path.starts_with(SPEC_SRC)) {
        return;
    }
    let mut matched: BTreeSet<&str> = BTreeSet::new();
    for f in files.iter().filter(|f| f.rel_path.starts_with(SPEC_SRC)) {
        let v = View {
            src: &f.src,
            toks: &f.sig,
        };
        for i in 0..v.toks.len() {
            if v.is_ident(i, "Event")
                && v.is(i + 1, ":")
                && v.is(i + 2, ":")
                && v.kind(i + 3) == Some(TokKind::Ident)
            {
                matched.insert(v.text(i + 3));
            }
        }
    }
    for (name, line) in &variants {
        if !matched.contains(name.as_str()) {
            findings.push(Finding {
                rule: "spec.event_coverage",
                path: decl.rel_path.clone(),
                line: *line,
                message: format!(
                    "`Event::{name}` is never matched in the edm-spec transition \
                     function (crates/spec/src) — the spec cannot certify journals \
                     that carry it"
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// The variant names (and declaration lines) of `pub enum Event` in the
/// given file, straight off the AST.
fn event_enum_variants(file: &SourceFile) -> Vec<(String, u32)> {
    file.ast
        .enums()
        .into_iter()
        .find(|e| e.name == "Event")
        .map(|e| e.variants.clone())
        .unwrap_or_default()
}

/// The frozen `det.*` pragma budget of each deterministic-core crate:
/// exactly as many determinism suppressions as the crate carried when
/// the budget was set. Growing a crate must not quietly grow its set of
/// "trust me" escapes from the determinism rules — a new suppression in
/// the core is a design event, and the way to admit one is to raise the
/// number here in the same change, where review can see it. Tooling
/// crates (harness, audit, fuzz) and the serve daemon own the process
/// boundary and are deliberately unbudgeted.
const DET_PRAGMA_BUDGETS: &[(&str, usize)] = &[
    ("ssd", 0),
    ("cluster", 2),
    ("core", 0),
    ("model", 0),
    ("workload", 1),
    ("snap", 0),
    ("obs", 0),
    ("spec", 0),
    ("scenario", 0),
];

/// `det.suppression_budget`: counts `det.*`, `conc.*`, and `unit.*`
/// pragmas under each budgeted crate's `src/` (every file kind — a
/// suppression in a bin or test module still normalizes an escape
/// hatch) and fires on any crate over its frozen allowance.
/// Workspace-level: the count is a property of the whole crate,
/// reported once at its root.
pub fn check_suppression_budget(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let budgeted = |rule: &str| {
        rule.starts_with("det.") || rule.starts_with("conc.") || rule.starts_with("unit.")
    };
    for (krate, budget) in DET_PRAGMA_BUDGETS {
        let prefix = format!("crates/{krate}/src/");
        let mut sites = Vec::new();
        for f in files.iter().filter(|f| f.rel_path.starts_with(&prefix)) {
            // Typo'd rule ids are already `pragma.unknown_rule` findings;
            // the budget counts only suppressions that actually bind.
            for p in f
                .pragmas
                .iter()
                .filter(|p| budgeted(&p.rule) && rule_exists(&p.rule))
            {
                sites.push(format!("{}:{} ({})", f.rel_path, p.line, p.rule));
            }
        }
        if sites.len() > *budget {
            findings.push(Finding {
                rule: "det.suppression_budget",
                path: format!("crates/{krate}/src/lib.rs"),
                line: 1,
                message: format!(
                    "crate `{krate}` carries {} det.*/conc.*/unit.* suppressions against \
                     a frozen budget of {budget} [{}] — admitting a new one means raising \
                     the budget in edm-audit's DET_PRAGMA_BUDGETS, in the same change",
                    sites.len(),
                    sites.join(", ")
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Library crate roots must carry `#![forbid(unsafe_code)]`.
pub fn check_forbid_unsafe(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !(file.rel_path.starts_with("crates/") && file.rel_path.ends_with("/src/lib.rs")) {
        return;
    }
    let v = View {
        src: &file.src,
        toks: &file.sig,
    };
    for i in 0..v.toks.len() {
        if v.is(i, "#")
            && v.is(i + 1, "!")
            && v.is(i + 2, "[")
            && v.is_ident(i + 3, "forbid")
            && v.is(i + 4, "(")
            && v.is_ident(i + 5, "unsafe_code")
        {
            return;
        }
    }
    findings.push(Finding {
        rule: "unsafe.forbid_missing",
        path: file.rel_path.clone(),
        line: 1,
        message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        chain: Vec::new(),
    });
}
