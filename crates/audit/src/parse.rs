//! The item-level Rust parser behind the semantic rules.
//!
//! Input is a file's significant-token stream (comments already
//! stripped); output is an [`Ast`]. The parser is **total**: any token
//! stream produces an AST without panicking, with unrecognized
//! constructs consumed as [`ItemKind::Other`] ("unparsed"). Top-level
//! item ranges partition the stream — every token attributed, no
//! overlap, strictly increasing — which the workspace property test
//! asserts file by file.
//!
//! What it deliberately does not do: expression typing, pattern
//! grammar, macro expansion. Function bodies reduce to the statement
//! skeleton documented in [`crate::ast`].

use crate::ast::{
    Ast, Call, EnumDecl, FieldDecl, FnDecl, ImplBlock, Item, ItemKind, ModDecl, Param, Stmt,
    StmtKind, StructDecl,
};
use crate::lexer::{TokKind, Token};

/// Parses a significant-token stream into an AST.
pub fn parse(src: &str, sig: &[Token]) -> Ast {
    let p = Parser { src, toks: sig };
    Ast {
        items: p.parse_items(0, sig.len()),
    }
}

/// Keywords that can never be identifier reads in the skeleton.
const KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "move", "if", "else", "match", "for", "while", "loop", "in", "return",
    "break", "continue", "fn", "pub", "use", "as", "impl", "struct", "enum", "mod", "trait",
    "type", "const", "static", "where", "dyn", "crate", "super", "unsafe", "async", "await",
    "extern", "true", "false",
];

struct Parser<'s> {
    src: &'s str,
    toks: &'s [Token],
}

impl<'s> Parser<'s> {
    fn text(&self, i: usize) -> &'s str {
        self.toks.get(i).map_or("", |t| t.text(self.src))
    }

    fn kind(&self, i: usize) -> Option<TokKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    fn is(&self, i: usize, s: &str) -> bool {
        self.text(i) == s
    }

    fn is_ident(&self, i: usize) -> bool {
        self.kind(i) == Some(TokKind::Ident)
    }

    /// Two puncts form a glued operator (`::`, `->`, `=>`) only when
    /// byte-adjacent.
    fn glued(&self, i: usize) -> bool {
        match (self.toks.get(i), self.toks.get(i + 1)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    /// `::` starting at token `i`?
    fn is_path_sep(&self, i: usize) -> bool {
        self.is(i, ":") && self.glued(i) && self.is(i + 1, ":")
    }

    /// Index just past the bracket matching the opener at `open`
    /// (clamped to `hi`). Counts `(`/`[`/`{` uniformly so mixed nesting
    /// stays balanced even on malformed input.
    fn skip_balanced(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < hi {
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Skips a generics list starting at a `<`. `>` that belongs to a
    /// glued `->` (as in `F: Fn() -> T`) does not close the list.
    fn skip_generics(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0i64;
        let mut i = open;
        while i < hi {
            let t = self.text(i);
            if t == "<" {
                depth += 1;
            } else if t == ">" {
                let arrow = i > 0 && self.is(i - 1, "-") && self.glued(i - 1);
                if !arrow {
                    depth -= 1;
                    if depth <= 0 {
                        return i + 1;
                    }
                }
            } else if t == "(" || t == "[" {
                i = self.skip_balanced(i, hi);
                continue;
            } else if t == "{" || t == ";" {
                // Malformed generics: bail rather than swallow the body.
                return i;
            }
            i += 1;
        }
        hi
    }

    /// Whitespace-joined text of a token range (for types and paths).
    fn join(&self, lo: usize, hi: usize) -> String {
        let mut out = String::new();
        for i in lo..hi.min(self.toks.len()) {
            let t = self.text(i);
            if !out.is_empty() && t != ":" && !self.text(i - 1).ends_with(':') {
                out.push(' ');
            }
            out.push_str(t);
        }
        out
    }

    // ---- items ----------------------------------------------------------

    /// Parses `[lo, hi)` into items whose ranges tile it exactly.
    fn parse_items(&self, lo: usize, hi: usize) -> Vec<Item> {
        let mut items = Vec::new();
        let mut i = lo;
        while i < hi {
            let item = self.parse_item(i, hi);
            debug_assert!(item.hi > i, "parser must make progress");
            i = item.hi.max(i + 1);
            items.push(item);
        }
        items
    }

    /// Parses one item starting at `lo`; always consumes at least one
    /// token.
    fn parse_item(&self, lo: usize, hi: usize) -> Item {
        let mut i = lo;
        let mut cfg_test = false;
        let mut test_attr = false;
        // Leading attributes. Inner attributes (`#![…]`) belong to the
        // enclosing scope: emitted as standalone "attr" items.
        while self.is(i, "#") && i < hi {
            let inner = self.is(i + 1, "!");
            let open = if inner { i + 2 } else { i + 1 };
            if !self.is(open, "[") {
                break;
            }
            let end = self.skip_balanced(open, hi);
            if inner {
                if i == lo {
                    return self.mk(lo, end, ItemKind::Other("attr"));
                }
                break;
            }
            let attr = self.join(open + 1, end.saturating_sub(1));
            if attr.starts_with("cfg") && attr.contains("test") {
                cfg_test = true;
            }
            if attr == "test" || attr.starts_with("test ") || attr.contains("tokio :: test") {
                test_attr = true;
            }
            i = end;
        }
        if i >= hi {
            return self.mk(lo, hi.max(lo + 1), ItemKind::Other("attr"));
        }
        // Visibility and leading modifiers.
        let mut j = i;
        if self.is(j, "pub") {
            j += 1;
            if self.is(j, "(") {
                j = self.skip_balanced(j, hi);
            }
        }
        while matches!(self.text(j), "unsafe" | "async" | "extern") {
            if self.is(j, "extern") && self.kind(j + 1) == Some(TokKind::Str) {
                j += 1; // extern "C"
            }
            j += 1;
        }
        // `const fn` vs `const NAME`.
        if self.is(j, "const") && self.is(j + 1, "fn") {
            j += 1;
        }
        let test = test_attr || cfg_test;
        match self.text(j) {
            "fn" => {
                let (decl, end) = self.parse_fn(j, hi, test);
                self.mk(lo, end, ItemKind::Fn(decl))
            }
            "struct" | "union" => {
                let (decl, end) = self.parse_struct(j, hi);
                self.mk(lo, end, ItemKind::Struct(decl))
            }
            "enum" => {
                let (decl, end) = self.parse_enum(j, hi);
                self.mk(lo, end, ItemKind::Enum(decl))
            }
            "impl" => {
                let (block, end) = self.parse_impl(j, hi);
                self.mk(lo, end, ItemKind::Impl(block))
            }
            "mod" => {
                let name = if self.is_ident(j + 1) {
                    self.text(j + 1).to_string()
                } else {
                    String::new()
                };
                if self.is(j + 2, ";") {
                    return self.mk(
                        lo,
                        j + 3,
                        ItemKind::Mod(ModDecl {
                            name,
                            cfg_test,
                            items: Vec::new(),
                        }),
                    );
                }
                let mut k = j + 1;
                while k < hi && !self.is(k, "{") && !self.is(k, ";") {
                    k += 1;
                }
                if !self.is(k, "{") {
                    return self.mk(lo, (k + 1).min(hi.max(lo + 1)), ItemKind::Other("unparsed"));
                }
                let end = self.skip_balanced(k, hi);
                let items = self.parse_items(k + 1, end.saturating_sub(1));
                self.mk(
                    lo,
                    end,
                    ItemKind::Mod(ModDecl {
                        name,
                        cfg_test,
                        items,
                    }),
                )
            }
            "use" => {
                let mut k = j + 1;
                while k < hi && !self.is(k, ";") {
                    if self.is(k, "{") {
                        k = self.skip_balanced(k, hi);
                        continue;
                    }
                    k += 1;
                }
                let path = self.join(j + 1, k);
                self.mk(lo, (k + 1).min(hi), ItemKind::Use(path))
            }
            "trait" => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("trait"))
            }
            "const" | "static" | "type" => {
                let label = match self.text(j) {
                    "static" => "static",
                    "type" => "type",
                    _ => "const",
                };
                let end = self.consume_to_semi(j, hi);
                self.mk(lo, end, ItemKind::Other(label))
            }
            "macro_rules" => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("macro"))
            }
            "extern" => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("extern"))
            }
            // Item-position macro invocation: `proptest! { … }`,
            // `id_snapshot!(OsdId, …);`.
            _ if self.is_ident(j) && self.is(j + 1, "!") => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("macro"))
            }
            _ => {
                let end = self.consume_to_block_or_semi(j, hi);
                self.mk(lo, end, ItemKind::Other("unparsed"))
            }
        }
    }

    fn mk(&self, lo: usize, hi: usize, kind: ItemKind) -> Item {
        Item {
            kind,
            lo,
            hi: hi.max(lo + 1),
            line: self.line(lo),
        }
    }

    /// Consumes through the next top-level `;`.
    fn consume_to_semi(&self, lo: usize, hi: usize) -> usize {
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                ";" => return i + 1,
                "(" | "[" | "{" => {
                    i = self.skip_balanced(i, hi);
                    continue;
                }
                "}" | ")" | "]" => return i + 1, // stray closer: consume it
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Consumes through a balanced `{…}` block or a `;`, whichever
    /// comes first.
    fn consume_to_block_or_semi(&self, lo: usize, hi: usize) -> usize {
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                ";" => return i + 1,
                "{" => return self.skip_balanced(i, hi),
                "(" | "[" => {
                    i = self.skip_balanced(i, hi);
                    continue;
                }
                "}" | ")" | "]" => return i + 1,
                _ => {}
            }
            i += 1;
        }
        hi
    }

    // ---- fn -------------------------------------------------------------

    /// At the `fn` keyword: parses signature and body skeleton.
    fn parse_fn(&self, at: usize, hi: usize, test: bool) -> (FnDecl, usize) {
        let name = if self.is_ident(at + 1) {
            self.text(at + 1).to_string()
        } else {
            String::new()
        };
        let line = self.line(at);
        let mut i = at + 2;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        let mut params = Vec::new();
        let mut params_end = i;
        if self.is(i, "(") {
            params_end = self.skip_balanced(i, hi);
            params = self.parse_params(i + 1, params_end.saturating_sub(1));
        }
        // Return type.
        let mut ret = None;
        let mut j = params_end;
        if self.is(j, "-") && self.glued(j) && self.is(j + 1, ">") {
            let ret_lo = j + 2;
            let mut k = ret_lo;
            while k < hi && !matches!(self.text(k), "{" | ";" | "where") {
                if self.is(k, "(") || self.is(k, "[") {
                    k = self.skip_balanced(k, hi);
                    continue;
                }
                if self.is(k, "<") {
                    k = self.skip_generics(k, hi);
                    continue;
                }
                k += 1;
            }
            ret = Some(self.join(ret_lo, k));
            j = k;
        }
        // Where clause.
        while j < hi && !matches!(self.text(j), "{" | ";") {
            if self.is(j, "(") || self.is(j, "[") {
                j = self.skip_balanced(j, hi);
                continue;
            }
            j += 1;
        }
        if self.is(j, ";") {
            return (
                FnDecl {
                    name,
                    line,
                    test,
                    params,
                    ret,
                    body: Vec::new(),
                    body_range: None,
                },
                j + 1,
            );
        }
        let body_end = self.skip_balanced(j, hi);
        let body = self.parse_body(j + 1, body_end.saturating_sub(1));
        (
            FnDecl {
                name,
                line,
                test,
                params,
                ret,
                body,
                body_range: Some((j, body_end)),
            },
            body_end,
        )
    }

    /// Parses a comma-separated parameter list in `[lo, hi)`.
    fn parse_params(&self, lo: usize, hi: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut start = lo;
        let mut depth = 0i64;
        let mut i = lo;
        while i <= hi {
            let at_end = i == hi;
            if at_end || (depth == 0 && self.is(i, ",")) {
                if i > start {
                    out.push(self.parse_param(start, i));
                }
                start = i + 1;
                if at_end {
                    break;
                }
            } else {
                match self.text(i) {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if !(i > 0 && self.is(i - 1, "-") && self.glued(i - 1)) => depth -= 1,
                    _ => {}
                }
            }
            i += 1;
        }
        out
    }

    fn parse_param(&self, lo: usize, hi: usize) -> Param {
        // Receiver: any `self` before a top-level `:` means `&mut self`
        // and friends (a typed `self: Box<Self>` still names self).
        let colon = (lo..hi).find(|&i| self.is(i, ":") && !self.is_path_sep(i));
        let pat_hi = colon.unwrap_or(hi);
        if (lo..pat_hi).any(|i| self.is(i, "self")) {
            return Param {
                name: "self".to_string(),
                ty: "Self".to_string(),
            };
        }
        let name = (lo..pat_hi)
            .find(|&i| self.is_ident(i) && !matches!(self.text(i), "mut" | "ref"))
            .map(|i| self.text(i).to_string())
            .unwrap_or_default();
        let ty = colon.map(|c| self.join(c + 1, hi)).unwrap_or_default();
        Param { name, ty }
    }

    // ---- struct / enum --------------------------------------------------

    fn parse_struct(&self, at: usize, hi: usize) -> (StructDecl, usize) {
        let name = if self.is_ident(at + 1) {
            self.text(at + 1).to_string()
        } else {
            String::new()
        };
        let mut i = at + 2;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        // Tuple struct or unit struct: no named fields.
        while i < hi && !matches!(self.text(i), "{" | "(" | ";") {
            i += 1;
        }
        if self.is(i, "(") {
            let end = self.skip_balanced(i, hi);
            let end = if self.is(end, ";") { end + 1 } else { end };
            return (
                StructDecl {
                    name,
                    fields: Vec::new(),
                },
                end,
            );
        }
        if !self.is(i, "{") {
            return (
                StructDecl {
                    name,
                    fields: Vec::new(),
                },
                (i + 1).min(hi.max(at + 1)),
            );
        }
        let end = self.skip_balanced(i, hi);
        let fields = self.parse_fields(i + 1, end.saturating_sub(1));
        (StructDecl { name, fields }, end)
    }

    /// Named fields inside a struct body: `[vis] name: Type,`.
    fn parse_fields(&self, lo: usize, hi: usize) -> Vec<FieldDecl> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            // Skip field attributes and visibility.
            if self.is(i, "#") && self.is(i + 1, "[") {
                i = self.skip_balanced(i + 1, hi);
                continue;
            }
            if self.is(i, "pub") {
                i += 1;
                if self.is(i, "(") {
                    i = self.skip_balanced(i, hi);
                }
                continue;
            }
            if self.is_ident(i) && self.is(i + 1, ":") && !self.is_path_sep(i + 1) {
                let name = self.text(i).to_string();
                let line = self.line(i);
                // Type runs to the next top-level comma.
                let mut k = i + 2;
                let mut depth = 0i64;
                while k < hi {
                    match self.text(k) {
                        "," if depth == 0 => break,
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ">" if !(self.is(k - 1, "-") && self.glued(k - 1)) => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                out.push(FieldDecl {
                    name,
                    ty: self.join(i + 2, k),
                    line,
                });
                i = k + 1;
                continue;
            }
            i += 1;
        }
        out
    }

    fn parse_enum(&self, at: usize, hi: usize) -> (EnumDecl, usize) {
        let name = if self.is_ident(at + 1) {
            self.text(at + 1).to_string()
        } else {
            String::new()
        };
        let mut i = at + 2;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        while i < hi && !matches!(self.text(i), "{" | ";") {
            i += 1;
        }
        if !self.is(i, "{") {
            return (
                EnumDecl {
                    name,
                    variants: Vec::new(),
                },
                (i + 1).min(hi.max(at + 1)),
            );
        }
        let end = self.skip_balanced(i, hi);
        let mut variants = Vec::new();
        let mut j = i + 1;
        let body_hi = end.saturating_sub(1);
        let mut expect = true;
        while j < body_hi {
            match self.text(j) {
                "#" if self.is(j + 1, "[") => {
                    j = self.skip_balanced(j + 1, body_hi);
                    continue;
                }
                "(" | "{" | "[" => {
                    j = self.skip_balanced(j, body_hi);
                    continue;
                }
                "," => expect = true,
                "=" => expect = false, // discriminant expr
                _ => {
                    if expect && self.is_ident(j) {
                        variants.push((self.text(j).to_string(), self.line(j)));
                        expect = false;
                    }
                }
            }
            j += 1;
        }
        (EnumDecl { name, variants }, end)
    }

    // ---- impl -----------------------------------------------------------

    fn parse_impl(&self, at: usize, hi: usize) -> (ImplBlock, usize) {
        let mut i = at + 1;
        if self.is(i, "<") {
            i = self.skip_generics(i, hi);
        }
        // Header up to `{`: optional `Trait for` then the type path.
        let mut header_end = i;
        while header_end < hi && !matches!(self.text(header_end), "{" | ";") {
            if self.is(header_end, "(") || self.is(header_end, "[") {
                header_end = self.skip_balanced(header_end, hi);
                continue;
            }
            header_end += 1;
        }
        let mut for_at = None;
        let mut k = i;
        while k < header_end {
            if self.is(k, "for") && !self.is(k + 1, "<") {
                for_at = Some(k);
                break;
            }
            if self.is(k, "<") {
                k = self.skip_generics(k, hi.min(header_end));
                continue;
            }
            k += 1;
        }
        let last_seg = |lo: usize, hi_: usize| -> String {
            let mut last = String::new();
            let mut m = lo;
            while m < hi_ {
                if self.is(m, "<") {
                    m = self.skip_generics(m, hi_);
                    continue;
                }
                if self.is_ident(m) && !matches!(self.text(m), "dyn" | "where") {
                    last = self.text(m).to_string();
                }
                m += 1;
            }
            last
        };
        let (trait_name, type_name) = match for_at {
            Some(f) => (Some(last_seg(i, f)), last_seg(f + 1, header_end)),
            None => (None, last_seg(i, header_end)),
        };
        if !self.is(header_end, "{") {
            return (
                ImplBlock {
                    trait_name,
                    type_name,
                    fns: Vec::new(),
                },
                (header_end + 1).min(hi.max(at + 1)),
            );
        }
        let end = self.skip_balanced(header_end, hi);
        let inner = self.parse_items(header_end + 1, end.saturating_sub(1));
        let fns = inner
            .into_iter()
            .filter_map(|it| match it.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .collect();
        (
            ImplBlock {
                trait_name,
                type_name,
                fns,
            },
            end,
        )
    }

    // ---- statement skeleton ---------------------------------------------

    /// Splits a body's token range into the flat statement skeleton:
    /// segments between `;` (at bracket depth 0), `{`, and `}`.
    fn parse_body(&self, lo: usize, hi: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut depth: u32 = 1;
        let mut start = lo;
        let mut bracket = 0i64; // ( and [ nesting — `;` inside stays put
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                "{" => {
                    self.flush_stmt(start, i, depth, false, &mut out);
                    depth += 1;
                    start = i + 1;
                }
                "}" => {
                    let tail = depth == 1; // closing the body itself
                    self.flush_stmt(start, i, depth, tail, &mut out);
                    depth = depth.saturating_sub(1).max(1);
                    start = i + 1;
                }
                "(" | "[" => bracket += 1,
                ")" | "]" => bracket -= 1,
                ";" if bracket <= 0 => {
                    self.flush_stmt(start, i, depth, false, &mut out);
                    start = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        self.flush_stmt(start, hi, depth, true, &mut out);
        out
    }

    fn flush_stmt(&self, lo: usize, hi: usize, depth: u32, tail: bool, out: &mut Vec<Stmt>) {
        if lo >= hi {
            return;
        }
        let kind = self.classify_stmt(lo, hi, tail);
        out.push(Stmt {
            line: self.line(lo),
            lo,
            hi,
            depth,
            kind,
            calls: self.collect_calls(lo, hi),
            idents: self.collect_paths(lo, hi),
        });
    }

    fn classify_stmt(&self, lo: usize, hi: usize, tail: bool) -> StmtKind {
        if self.is(lo, "let") {
            // Bound names: idents in the pattern (before any top-level
            // `:` type ascription or the `=`), skipping path heads and
            // constructor names.
            let mut names = Vec::new();
            let mut i = lo + 1;
            while i < hi && !self.is(i, "=") {
                match self.text(i) {
                    ":" if !self.is_path_sep(i) => {
                        // Type ascription: skip to `=` at depth 0.
                        while i < hi && !self.is(i, "=") {
                            if matches!(self.text(i), "(" | "[" | "{") {
                                i = self.skip_balanced(i, hi);
                                continue;
                            }
                            i += 1;
                        }
                        break;
                    }
                    _ if self.is_ident(i)
                        && !matches!(self.text(i), "mut" | "ref" | "box")
                        && !self.is(i + 1, "(")
                        && !self.is_path_sep(i + 1) =>
                    {
                        names.push(self.text(i).to_string());
                    }
                    _ => {}
                }
                i += 1;
            }
            return StmtKind::Let { names };
        }
        if self.is(lo, "return") || self.is(lo, "break") {
            return StmtKind::Return;
        }
        // Assignment: a dotted place at the start, then `=` (or a glued
        // compound `+=`-family op).
        let mut i = lo;
        while self.is(i, "*") {
            i += 1; // deref assignment target
        }
        let place_start = i;
        let mut place_end = i;
        while place_end < hi {
            if self.is_ident(place_end)
                || (place_end > place_start && self.kind(place_end) == Some(TokKind::Int))
            {
                place_end += 1;
                if self.is(place_end, ".") {
                    place_end += 1;
                    continue;
                }
                break;
            }
            break;
        }
        if place_end > place_start {
            let mut op = place_end;
            // Compound: `+= -= *= /= %= &= |= ^= <<= >>=`.
            if matches!(self.text(op), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
                && self.glued(op)
                && self.is(op + 1, "=")
            {
                op += 1;
            }
            let plain_eq = self.is(op, "=")
                && !(self.glued(op) && matches!(self.text(op + 1), "=" | ">"))
                && !(op > lo && self.is(op - 1, "=")); // `==`
            if plain_eq && op < hi {
                let target = self.path_text(place_start, place_end);
                if !target.is_empty() {
                    return StmtKind::Assign { target };
                }
            }
        }
        if tail {
            return StmtKind::Return;
        }
        StmtKind::Other
    }

    /// Joined dotted path text over `[lo, hi)` (idents, `.`, tuple
    /// indices).
    fn path_text(&self, lo: usize, hi: usize) -> String {
        let mut out = String::new();
        for i in lo..hi {
            let t = self.text(i);
            if self.is_ident(i) || t == "." || self.kind(i) == Some(TokKind::Int) {
                out.push_str(t);
            }
        }
        out
    }

    /// Calls whose callee token lies within `[lo, hi)`. Argument paths
    /// are read through the matching `)`, which may extend past `hi`
    /// (statement splitting stops at `{` even inside call arguments).
    fn collect_calls(&self, lo: usize, hi: usize) -> Vec<Call> {
        let mut out = Vec::new();
        for i in lo..hi {
            if !(self.is_ident(i) && self.is(i + 1, "(")) {
                continue;
            }
            if KEYWORDS.contains(&self.text(i)) {
                continue;
            }
            // Walk the `::` chain backwards to the path head.
            let mut head = i;
            while head >= 2
                && self.is_path_sep(head - 2)
                && self.is_ident(head.checked_sub(3).unwrap_or(usize::MAX).min(head))
            {
                // head-3 is the previous segment: `seg :: seg`
                if head < 3 || !self.is_ident(head - 3) {
                    break;
                }
                head -= 3;
            }
            let mut callee = String::new();
            let mut seg = head;
            while seg <= i {
                callee.push_str(self.text(seg));
                if seg < i {
                    callee.push_str("::");
                }
                seg += 3;
            }
            // Method call? The token before the path head is a `.`.
            let method = head > 0 && self.is(head - 1, ".");
            let recv = if method && head >= 2 {
                // Receiver: dotted place ending at head-2.
                let mut r_lo = head - 1; // exclusive walk backwards
                loop {
                    let prev = r_lo.checked_sub(1);
                    match prev {
                        Some(p) if self.is_ident(p) || self.kind(p) == Some(TokKind::Int) => {
                            r_lo = p;
                            match r_lo.checked_sub(1) {
                                Some(pp) if self.is(pp, ".") => r_lo = pp,
                                _ => break,
                            }
                        }
                        _ => break,
                    }
                }
                let text = self.path_text(r_lo, head - 1);
                if text.is_empty() || text.starts_with('.') {
                    None
                } else {
                    Some(text)
                }
            } else {
                None
            };
            // Arguments: top-level comma split inside the matching parens.
            let close = self.skip_balanced(i + 1, self.toks.len());
            let mut args = Vec::new();
            let mut a_start = i + 2;
            let mut depth = 0i64;
            let arg_hi = close.saturating_sub(1);
            let mut k = i + 2;
            while k <= arg_hi {
                let end_now = k == arg_hi;
                if end_now || (depth == 0 && self.is(k, ",")) {
                    if k > a_start {
                        args.push(self.collect_paths(a_start, k));
                    }
                    a_start = k + 1;
                    if end_now {
                        break;
                    }
                } else {
                    match self.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        _ => {}
                    }
                }
                k += 1;
            }
            out.push(Call {
                callee,
                method,
                recv,
                line: self.line(i),
                args,
            });
        }
        out
    }

    /// Maximal dotted identifier paths read in `[lo, hi)`: excludes
    /// callee names (ident directly before `(` or `!`), `::`-path
    /// segments, struct-literal/ascription labels (ident before a lone
    /// `:`), idents after `as`, and keywords.
    fn collect_paths(&self, lo: usize, hi: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi {
            if !self.is_ident(i) || KEYWORDS.contains(&self.text(i)) {
                i += 1;
                continue;
            }
            // Skip `::`-path chains entirely (types, enum ctors, fns).
            if self.is_path_sep(i + 1) {
                while i < hi && (self.is_ident(i) || self.is_path_sep(i)) {
                    if self.is_path_sep(i) {
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                continue;
            }
            // Part of a longer dotted path already emitted?
            if i > lo && self.is(i - 1, ".") {
                i += 1;
                continue;
            }
            // Cast target after `as`.
            if i > lo && self.is(i - 1, "as") {
                i += 1;
                continue;
            }
            // Walk the dotted path forward.
            let start = i;
            let mut end = i + 1;
            while self.is(end, ".")
                && (self.is_ident(end + 1) || self.kind(end + 1) == Some(TokKind::Int))
            {
                end += 2;
            }
            // Trailing segment is a method callee: drop it, keep the
            // receiver (registered as a read).
            let mut path_end = end;
            if self.is(end, "(") && end > start + 1 && self.is(end.saturating_sub(2), ".") {
                path_end = end - 2;
            } else if self.is(end, "(") || self.is(end, "!") {
                // Free-fn callee or macro name: not a read at all.
                i = end;
                continue;
            }
            // Struct-literal label / ascription: `ident :` (not `::`).
            if path_end == start + 1 && self.is(path_end, ":") && !self.is_path_sep(path_end) {
                i = path_end + 1;
                continue;
            }
            let text = self.path_text(start, path_end);
            if !text.is_empty() {
                out.push(text);
            }
            i = end.max(i + 1);
        }
        out
    }
}
