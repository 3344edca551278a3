//! `conc.lock_order` / `conc.shared_state` — the static race-detector
//! layer over the serve daemon, the harness runner, and the obs
//! buffers.
//!
//! Lock identity is *declared*, not guessed: a lock is a struct field
//! (or `let`-bound local) whose type names `Mutex`/`RwLock` or a
//! workspace `type` alias that resolves to one. `.lock()/.read()/
//! .write()` only count as acquisitions on such a receiver, which keeps
//! `io::Read::read` and friends out of the picture. Functions whose
//! return statement acquires a known lock are acquire-and-return-guard
//! helpers (`lock_ingest` in serve/state.rs), so calls to them acquire
//! interprocedurally.
//!
//! From per-function acquisition simulation the checker builds a global
//! lock-order graph (edges `A → B` = B acquired while A held, with
//! witness sites). An `A → B` edge coexisting with `B → A` is an
//! inconsistent acquisition order — the classic deadlock shape — and
//! fires `conc.lock_order` at both witnesses with the full chain.
//! Blocking calls (`recv`, `join`, `accept`, …, transitively through
//! workspace calls) made while a guard is live also fire
//! `conc.lock_order`. `conc.shared_state` flags spawn statements whose
//! closure captures a non-`Sync` local or field (`Rc`, `RefCell`,
//! `Cell`).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{FnDecl, ItemKind, StmtKind};
use crate::report::Finding;
use crate::source::SourceFile;
use crate::symgraph::SymGraph;

/// Blocking calls when made with zero arguments (`join` with arguments
/// is `slice::join`; `recv` and `accept` take none on channels and
/// listeners) — plus the always-blocking set.
const BLOCKING_NOARG: &[&str] = &["recv", "join", "accept", "park"];
const BLOCKING_ANYARG: &[&str] = &[
    "recv_timeout",
    "sleep",
    "park_timeout",
    "wait",
    "wait_timeout",
];

/// Non-`Sync` wrapper types a spawned closure must not capture.
const NON_SYNC: &[&str] = &["Rc", "RefCell", "Cell"];

#[derive(Default)]
struct LockWorld {
    /// Type names that denote a lock (`Mutex`, `RwLock`, plus aliases).
    lock_types: BTreeSet<String>,
    /// fn index → lock id its return statement acquires (guard-returning
    /// helpers).
    guard_fns: BTreeMap<usize, String>,
    /// fn index → first blocking cause ("desc", path, line), propagated
    /// transitively through resolved workspace calls.
    blocking: BTreeMap<usize, (String, String, u32)>,
}

pub fn check_conc(graph: &SymGraph<'_>, findings: &mut Vec<Finding>) {
    let scope = graph.analyzable();
    let mut world = LockWorld {
        lock_types: lock_type_names(graph.files),
        ..LockWorld::default()
    };

    // Direct blocking causes, then transitive propagation (bounded).
    for &i in &scope {
        let file = graph.file_of(i);
        if let Some((desc, line)) = direct_blocking(graph.fns[i].ctx.decl) {
            world
                .blocking
                .insert(i, (desc, file.rel_path.clone(), line));
        }
    }
    for _ in 0..8 {
        let mut grew = Vec::new();
        for &i in &scope {
            if world.blocking.contains_key(&i) {
                continue;
            }
            for &(callee, line) in &graph.fns[i].edges {
                if let Some((desc, ..)) = world.blocking.get(&callee) {
                    let file = graph.file_of(i);
                    grew.push((
                        i,
                        (
                            format!("{desc} via `{}()`", graph.fns[callee].ctx.decl.name),
                            file.rel_path.clone(),
                            line,
                        ),
                    ));
                    break;
                }
            }
        }
        if grew.is_empty() {
            break;
        }
        for (i, v) in grew {
            world.blocking.entry(i).or_insert(v);
        }
    }

    // Guard-returning helpers: return statement acquires a known lock.
    for &i in &scope {
        let decl = graph.fns[i].ctx.decl;
        for stmt in &decl.body {
            if stmt.kind != StmtKind::Return {
                continue;
            }
            for call in &stmt.calls {
                if let Some(lock) = acquisition(graph, i, call, &world, &BTreeMap::new()) {
                    world.guard_fns.insert(i, lock);
                }
            }
        }
    }

    // Per-fn acquisition simulation → global order edges + blocking
    // findings.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for &i in &scope {
        simulate(graph, i, &world, &mut edges, findings);
        check_shared_state(graph, i, findings);
    }

    // Inconsistent order: A→B and B→A both witnessed.
    for ((a, b), (path, line)) in &edges {
        if a >= b {
            continue; // report each cycle once, from the lesser pair
        }
        if let Some((rpath, rline)) = edges.get(&(b.clone(), a.clone())) {
            findings.push(Finding {
                rule: "conc.lock_order",
                path: path.clone(),
                line: *line,
                message: format!(
                    "inconsistent lock order: `{b}` acquired under `{a}` here, but `{a}` \
                     acquired under `{b}` at {rpath}:{rline}"
                ),
                chain: vec![
                    format!("{path}:{line}: `{a}` then `{b}`"),
                    format!("{rpath}:{rline}: `{b}` then `{a}`"),
                ],
            });
            findings.push(Finding {
                rule: "conc.lock_order",
                path: rpath.clone(),
                line: *rline,
                message: format!(
                    "inconsistent lock order: `{a}` acquired under `{b}` here, but `{b}` \
                     acquired under `{a}` at {path}:{line}"
                ),
                chain: vec![
                    format!("{rpath}:{rline}: `{b}` then `{a}`"),
                    format!("{path}:{line}: `{a}` then `{b}`"),
                ],
            });
        }
    }
}

/// `Mutex`/`RwLock` plus workspace `type` aliases whose right-hand side
/// names one (serve's `type Lock<T> = std::sync::Mutex<T>`).
fn lock_type_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out: BTreeSet<String> = ["Mutex", "RwLock"].iter().map(|s| s.to_string()).collect();
    // One alias hop is enough for this workspace.
    for _ in 0..2 {
        for f in files {
            collect_aliases(f, &f.ast.items, &mut out);
        }
    }
    out
}

fn collect_aliases(f: &SourceFile, items: &[crate::ast::Item], out: &mut BTreeSet<String>) {
    for item in items {
        match &item.kind {
            ItemKind::Other("type") => {
                let texts: Vec<&str> = (item.lo..item.hi)
                    .filter_map(|i| f.sig.get(i).map(|t| t.text(&f.src)))
                    .collect();
                // `type <Name> … = … <LockType> …`
                if let Some(eq) = texts.iter().position(|t| *t == "=") {
                    if texts[eq..].iter().any(|t| out.contains(*t)) {
                        if let Some(name) = texts.iter().skip(1).find(|t| {
                            t.chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_')
                                && **t != "type"
                                && **t != "pub"
                        }) {
                            out.insert((*name).to_string());
                        }
                    }
                }
            }
            ItemKind::Mod(m) => collect_aliases(f, &m.items, out),
            _ => {}
        }
    }
}

/// Does this type text name a lock (word match, not substring)?
fn ty_is_lock(ty: &str, lock_types: &BTreeSet<String>) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| lock_types.contains(w))
}

fn ty_is_non_sync(ty: &str) -> bool {
    ty.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| NON_SYNC.contains(&w))
}

/// First direct blocking call in `decl`, with description and line.
fn direct_blocking(decl: &FnDecl) -> Option<(String, u32)> {
    for stmt in &decl.body {
        for call in &stmt.calls {
            if blocking_call(&call.callee, call.method, call.args.len()) {
                return Some((format!("blocking call `{}()`", call.callee), call.line));
            }
        }
    }
    None
}

fn blocking_call(callee: &str, method: bool, nargs: usize) -> bool {
    let last = callee.rsplit("::").next().unwrap_or(callee);
    if BLOCKING_ANYARG.contains(&last) {
        // `sleep`/`wait` as free names are common; require a path or
        // method shape so `fn sleep` locals don't trip it.
        return method || callee.contains("::");
    }
    BLOCKING_NOARG.contains(&last) && nargs == 0 && (method || callee.contains("::"))
}

/// If `call` acquires a lock, returns the lock's stable id.
/// `local_locks` maps let-bound lock locals to ids.
fn acquisition(
    graph: &SymGraph<'_>,
    fn_idx: usize,
    call: &crate::ast::Call,
    world: &LockWorld,
    local_locks: &BTreeMap<String, String>,
) -> Option<String> {
    if call.method && matches!(call.callee.as_str(), "lock" | "read" | "write") {
        let recv = call.recv.as_deref()?;
        let head = recv.split('.').next().unwrap_or(recv);
        if let Some(id) = local_locks.get(recv).or_else(|| local_locks.get(head)) {
            return Some(id.clone());
        }
        if let Some(field_path) = recv.strip_prefix("self.") {
            let field = field_path.split('.').next().unwrap_or(field_path);
            let owner = graph.fns[fn_idx].ctx.owner?;
            let file = graph.file_of(fn_idx);
            let ty = graph.field_type(&file.crate_name, owner, field)?;
            if ty_is_lock(ty, &world.lock_types) {
                return Some(format!("{owner}::{field}"));
            }
        }
        return None;
    }
    // Guard-returning helper call.
    let callee = graph.resolve(fn_idx, call)?;
    world.guard_fns.get(&callee).cloned()
}

/// Walks one function, tracking held guards; records order edges and
/// blocking-under-lock findings.
fn simulate(
    graph: &SymGraph<'_>,
    fn_idx: usize,
    world: &LockWorld,
    edges: &mut BTreeMap<(String, String), (String, u32)>,
    findings: &mut Vec<Finding>,
) {
    let decl = graph.fns[fn_idx].ctx.decl;
    let file = graph.file_of(fn_idx);
    // Guard-returning helpers intentionally end with a live guard.
    let is_guard_fn = world.guard_fns.contains_key(&fn_idx);
    let mut local_locks: BTreeMap<String, String> = BTreeMap::new();
    // (lock id, guard names — empty = statement-temporary, line)
    let mut held: Vec<(String, Vec<String>, u32)> = Vec::new();
    for stmt in &decl.body {
        // New lock locals: `let m = Mutex::new(…)` / `Arc::new(Mutex::new(…))`.
        if let StmtKind::Let { names } = &stmt.kind {
            let makes_lock = stmt.calls.iter().any(|c| {
                c.callee
                    .rsplit("::")
                    .nth(1)
                    .is_some_and(|ty| world.lock_types.contains(ty))
                    && c.callee.ends_with("::new")
            });
            if makes_lock {
                for n in names {
                    local_locks.insert(n.clone(), format!("{}::{n}", decl.name));
                }
            }
        }
        let mut temp_acquired = 0usize;
        for call in &stmt.calls {
            if let Some(lock) = acquisition(graph, fn_idx, call, world, &local_locks) {
                // Reentrant same-lock acquisition is a self-deadlock, but
                // the flattened skeleton can't see branch exclusivity —
                // only record cross-lock order edges.
                for (prev, _, _) in &held {
                    if *prev != lock {
                        edges
                            .entry((prev.clone(), lock.clone()))
                            .or_insert_with(|| (file.rel_path.clone(), call.line));
                    }
                }
                let names = match &stmt.kind {
                    StmtKind::Let { names } => names.clone(),
                    _ => Vec::new(),
                };
                if names.is_empty() {
                    temp_acquired += 1;
                }
                held.push((lock, names, call.line));
            }
        }
        // Blocking while a guard is live.
        if !held.is_empty() {
            let mut blocked: Option<(String, u32)> = None;
            for call in &stmt.calls {
                if blocking_call(&call.callee, call.method, call.args.len()) {
                    blocked = Some((format!("`{}()`", call.callee), call.line));
                    break;
                }
                if acquisition(graph, fn_idx, call, world, &local_locks).is_none() {
                    if let Some(callee) = graph.resolve(fn_idx, call) {
                        if let Some((desc, bpath, bline)) = world.blocking.get(&callee) {
                            blocked = Some((
                                format!(
                                    "`{}()` ({desc} at {bpath}:{bline})",
                                    graph.fns[callee].ctx.decl.name
                                ),
                                call.line,
                            ));
                            break;
                        }
                    }
                }
            }
            if let (Some((desc, line)), Some((lock, _, acq_line))) = (blocked, held.first()) {
                findings.push(Finding {
                    rule: "conc.lock_order",
                    path: file.rel_path.clone(),
                    line,
                    message: format!("lock `{lock}` held across blocking call {desc}"),
                    chain: vec![
                        format!("{}:{}: acquires `{lock}`", file.rel_path, acq_line),
                        format!(
                            "{}:{}: blocks on {desc} while holding it",
                            file.rel_path, line
                        ),
                    ],
                });
            }
        }
        // Explicit releases and statement-temporary guards.
        for call in &stmt.calls {
            if call.callee == "drop" && !call.method {
                if let Some(dropped) = call.args.first().and_then(|a| a.first()) {
                    held.retain(|(_, names, _)| !names.iter().any(|n| n == dropped));
                }
            }
        }
        if temp_acquired > 0 {
            held.retain(|(_, names, _)| !names.is_empty());
        }
        let _ = is_guard_fn; // guards returned by helpers stay held by design
    }
}

/// `conc.shared_state`: a spawn statement that references a known
/// non-`Sync` local or field.
fn check_shared_state(graph: &SymGraph<'_>, fn_idx: usize, findings: &mut Vec<Finding>) {
    let decl = graph.fns[fn_idx].ctx.decl;
    let file = graph.file_of(fn_idx);
    // Locals bound from Rc/RefCell/Cell constructors or annotated so.
    let mut non_sync: BTreeMap<&str, &str> = BTreeMap::new();
    for stmt in &decl.body {
        if let StmtKind::Let { names } = &stmt.kind {
            let wrapper = stmt.calls.iter().find_map(|c| {
                let ty = c.callee.rsplit("::").nth(1)?;
                NON_SYNC.contains(&ty).then_some(ty)
            });
            let from_ty = stmt
                .idents
                .iter()
                .find_map(|p| NON_SYNC.iter().find(|t| *t == p).copied());
            if let Some(ty) = wrapper.or(from_ty) {
                for n in names {
                    non_sync.insert(n.as_str(), ty);
                }
            }
        }
    }
    for stmt in &decl.body {
        // Closure arguments read through the matching `)`, so the spawn
        // call's arg paths see captures even when the closure body spans
        // statements of its own.
        let mut candidates: Vec<&String> = stmt.idents.iter().collect();
        let mut spawns = false;
        for c in &stmt.calls {
            if c.callee == "spawn" || c.callee.ends_with("::spawn") {
                spawns = true;
                candidates.extend(c.args.iter().flatten());
            }
        }
        if !spawns {
            continue;
        }
        candidates.sort();
        candidates.dedup();
        for path in candidates {
            let head = path.split('.').next().unwrap_or(path);
            if let Some(ty) = non_sync.get(head) {
                findings.push(Finding {
                    rule: "conc.shared_state",
                    path: file.rel_path.clone(),
                    line: stmt.line,
                    message: format!(
                        "non-Sync `{ty}` value `{head}` is reachable from a spawned closure"
                    ),
                    chain: vec![format!(
                        "{}:{}: `{head}` (a `{ty}`) captured by spawn",
                        file.rel_path, stmt.line
                    )],
                });
            }
            // Fields: `self.x` where x is an Rc/RefCell/Cell field.
            if let Some(field_path) = path.strip_prefix("self.") {
                let field = field_path.split('.').next().unwrap_or(field_path);
                if let Some(owner) = graph.fns[fn_idx].ctx.owner {
                    if let Some(ty) = graph.field_type(&file.crate_name, owner, field) {
                        if ty_is_non_sync(ty) {
                            findings.push(Finding {
                                rule: "conc.shared_state",
                                path: file.rel_path.clone(),
                                line: stmt.line,
                                message: format!(
                                    "non-Sync field `{owner}::{field}` is reachable from a \
                                     spawned closure"
                                ),
                                chain: vec![format!(
                                    "{}:{}: `self.{field}` captured by spawn",
                                    file.rel_path, stmt.line
                                )],
                            });
                        }
                    }
                }
            }
        }
    }
}
