//! Workspace symbol graph: every function in every file, a conservative
//! call-resolution heuristic, and the resolved call edges the
//! interprocedural rules (taint, lock-order) walk.
//!
//! Resolution is name-based, not type-based — there is no type checker
//! here. The bias is asymmetric on purpose: an edge is added only when
//! the callee name resolves *uniquely* (after preferring the caller's
//! own crate), so the graph under-approximates calls but never invents
//! them. External calls (`std::…`, vendor crates) resolve to nothing,
//! which is exactly what the rules want: taint sources and blocking
//! calls are recognized by name pattern instead.

use std::collections::BTreeMap;

use crate::ast::{Call, FnCtx, StructDecl};
use crate::source::{FileKind, SourceFile};

/// One function node: its declaration context plus resolved call edges.
pub struct FnNode<'a> {
    /// Index of the owning file in the graph's file slice.
    pub file_idx: usize,
    pub ctx: FnCtx<'a>,
    /// Resolved calls: (callee fn index, call-site line).
    pub edges: Vec<(usize, u32)>,
    /// Dotted assignment targets written by this fn, with lines
    /// (`self.t_us`, `entry.wear`, …) — the "who writes which fields"
    /// half of the graph.
    pub writes: Vec<(String, u32)>,
}

/// The workspace symbol graph. Borrows the audited files.
pub struct SymGraph<'a> {
    pub files: &'a [SourceFile],
    pub fns: Vec<FnNode<'a>>,
    /// Simple name → fn indices bearing it.
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// (crate, struct name) → declaration, for field-type lookups.
    structs: BTreeMap<(&'a str, &'a str), &'a StructDecl>,
}

impl<'a> SymGraph<'a> {
    pub fn build(files: &'a [SourceFile]) -> Self {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<&'a str, Vec<usize>> = BTreeMap::new();
        let mut structs = BTreeMap::new();
        for (file_idx, f) in files.iter().enumerate() {
            for s in f.ast.structs() {
                structs
                    .entry((f.crate_name.as_str(), s.name.as_str()))
                    .or_insert(s);
            }
            for ctx in f.ast.fns() {
                let idx = fns.len();
                let writes = ctx
                    .decl
                    .body
                    .iter()
                    .filter_map(|s| match &s.kind {
                        crate::ast::StmtKind::Assign { target } => Some((target.clone(), s.line)),
                        _ => None,
                    })
                    .collect();
                by_name.entry(&ctx.decl.name).or_default().push(idx);
                fns.push(FnNode {
                    file_idx,
                    ctx,
                    edges: Vec::new(),
                    writes,
                });
            }
        }
        let mut g = SymGraph {
            files,
            fns,
            by_name,
            structs,
        };
        for i in 0..g.fns.len() {
            let mut edges = Vec::new();
            for stmt in &g.fns[i].ctx.decl.body {
                for call in &stmt.calls {
                    if let Some(callee) = g.resolve(i, call) {
                        edges.push((callee, call.line));
                    }
                }
            }
            edges.dedup();
            g.fns[i].edges = edges;
        }
        g
    }

    pub fn file_of(&self, fn_idx: usize) -> &'a SourceFile {
        &self.files[self.fns[fn_idx].file_idx]
    }

    /// The struct declared as `(crate, name)`, if any.
    pub fn struct_decl(&self, krate: &str, name: &str) -> Option<&'a StructDecl> {
        self.structs.get(&(krate, name)).copied()
    }

    /// The declared type of field `field` on struct `name` in `krate`.
    pub fn field_type(&self, krate: &str, name: &str, field: &str) -> Option<&'a str> {
        self.struct_decl(krate, name)?
            .fields
            .iter()
            .find(|f| f.name == field)
            .map(|f| f.ty.as_str())
    }

    /// Resolves a call site in fn `from` to a workspace function.
    ///
    /// `Owner::name` path calls must match a fn in an `impl Owner` (or a
    /// free fn when no owner matches nothing — external paths like
    /// `Instant::now` resolve to `None`). Bare and method calls match by
    /// simple name. Ambiguity after preferring the caller's crate and
    /// file resolves to `None`.
    pub fn resolve(&self, from: usize, call: &Call) -> Option<usize> {
        let (owner, name) = match call.callee.rsplit_once("::") {
            Some((path, last)) => (path.rsplit("::").next(), last),
            None => (None, call.callee.as_str()),
        };
        if name.is_empty() {
            return None;
        }
        // A let-bound local or parameter shadows workspace fns: a bare
        // call to that name is a closure/fn-pointer call, not resolvable.
        if owner.is_none() && !call.method {
            let caller = self.fns[from].ctx.decl;
            let shadowed = caller.params.iter().any(|p| p.name == name)
                || caller.body.iter().any(|s| match &s.kind {
                    crate::ast::StmtKind::Let { names } => names.iter().any(|n| n == name),
                    _ => false,
                });
            if shadowed {
                return None;
            }
        }
        let cands = self.by_name.get(name)?;
        let mut c: Vec<usize> = match owner {
            Some(o) => {
                let matched: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].ctx.owner == Some(o))
                    .collect();
                if matched.is_empty() {
                    return None; // external type path (std, vendor)
                }
                matched
            }
            None => cands.clone(),
        };
        // Never resolve into test code from non-test code.
        if !self.fns[from].ctx.in_test {
            c.retain(|&i| !self.fns[i].ctx.in_test);
        }
        if c.len() > 1 {
            let home = &self.file_of(from).crate_name;
            let same_file: Vec<usize> = c
                .iter()
                .copied()
                .filter(|&i| self.fns[i].file_idx == self.fns[from].file_idx)
                .collect();
            if let [only] = same_file.as_slice() {
                return Some(*only);
            }
            let same_crate: Vec<usize> = c
                .iter()
                .copied()
                .filter(|&i| &self.file_of(i).crate_name == home)
                .collect();
            if let [only] = same_crate.as_slice() {
                return Some(*only);
            }
            return None; // genuinely ambiguous: no edge
        }
        c.first().copied()
    }

    /// Resolves a bare/method callee *name* from fn `from` — the unit
    /// checker's entry for call operands.
    pub fn resolve_simple(&self, from: usize, name: &str, method: bool) -> Option<usize> {
        self.resolve(
            from,
            &Call {
                callee: name.to_string(),
                method,
                recv: None,
                line: 0,
                args: Vec::new(),
            },
        )
    }

    /// Indices of fns in analyzable (non-tool, non-test) library or
    /// binary code — the default scope for the semantic rules.
    pub fn analyzable(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| {
                let f = self.file_of(i);
                let tool = matches!(f.crate_name.as_str(), "harness" | "audit" | "fuzz");
                !tool
                    && matches!(f.kind, FileKind::LibSrc | FileKind::BinSrc)
                    && !self.fns[i].ctx.in_test
            })
            .collect()
    }
}
