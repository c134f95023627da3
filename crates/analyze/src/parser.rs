//! Item-level parsing: brace-matched extraction of structs, enums,
//! impls, and fns from the token stream.
//!
//! This is deliberately *not* a Rust grammar. It is a robust skeleton
//! parser: it finds item keywords at brace depth 0, matches the
//! delimiters that bound each item, and records exactly the facts the
//! semantic rule packs need — field lists with their type identifiers,
//! impl heads split into trait and self type, fn body token ranges, and
//! per-fn method-call indices. Anything it does not understand it skips
//! without ever panicking or failing to advance; unknown syntax costs
//! coverage, never correctness.
//!
//! Two annotation forms are recognized in comments (scanned from raw
//! source so they work in both `//` and `///` positions):
//!
//! * `glacsweb: derived-state` — on a struct field's line or the line
//!   above it, marks the field as derived (memo/cache) state.
//! * `glacsweb: draw-budget(N)` — in the doc comment of a fn, declares
//!   that every execution path through the fn retires exactly N raw RNG
//!   draws.

use crate::lexer::{Tok, TokKind};

/// What kind of item a table entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `struct Name { ... }` (or unit/tuple struct).
    Struct,
    /// `enum Name { ... }`.
    Enum,
    /// `fn name(...) { ... }` at module or impl level.
    Fn,
    /// `impl [Trait for] Type { ... }`.
    Impl,
    /// `trait Name { ... }` (body not descended into).
    Trait,
    /// `mod name { ... }` (contents are parsed into the same table).
    Mod,
    /// `macro_rules! name { ... }` (body is opaque).
    MacroRules,
    /// `name!(args...)` at item position — the macro name and argument
    /// identifiers are recorded so convention macros act as markers.
    MacroInvocation,
}

/// One named field of a struct.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// Every identifier appearing in the field's type (`BTreeMap`,
    /// `String`, `Load` for `BTreeMap<String, Load>`).
    pub ty_idents: Vec<String>,
    /// Set when a `derived-state` annotation covers this field.
    pub annotated_derived: bool,
    /// Set when the field carries `#[serde(skip)]`: a derived serde impl
    /// leaves it off the wire.
    pub serde_skip: bool,
}

/// One entry of the item table.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item kind.
    pub kind: ItemKind,
    /// Item name (struct/enum/fn/trait/mod/macro name; for impls, the
    /// self type's head identifier).
    pub name: String,
    /// For impls: the implemented trait's final path segment, if any.
    pub trait_name: Option<String>,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// Byte offset of the item's first token.
    pub lo: u32,
    /// Byte offset one past the item's last token.
    pub hi: u32,
    /// Token index range `[open_brace, close_brace]` of the item's braced
    /// body, when it has one.
    pub body: Option<(usize, usize)>,
    /// Named fields (structs only).
    pub fields: Vec<FieldDef>,
    /// Idents listed in `#[derive(...)]` attributes on this item.
    pub derives: Vec<String>,
    /// Child items: fns inside an impl, items inside a mod.
    pub children: Vec<Item>,
    /// Declared raw-draw budget from a `draw-budget(N)` annotation (fns).
    pub budget: Option<u64>,
    /// Method names invoked in the body via `.name(` (fns), with lines.
    pub calls: Vec<(String, u32)>,
    /// Argument identifiers of a macro invocation.
    pub macro_args: Vec<String>,
    /// `true` if the item sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// `true` for a fn declared bare `pub` (not `pub(crate)` and the like).
    pub is_pub: bool,
}

impl Item {
    fn new(kind: ItemKind, name: String, tok: &Tok, in_test: bool) -> Item {
        Item {
            kind,
            name,
            trait_name: None,
            line: tok.line,
            lo: tok.lo,
            hi: tok.hi,
            fields: Vec::new(),
            derives: Vec::new(),
            children: Vec::new(),
            body: None,
            budget: None,
            calls: Vec::new(),
            macro_args: Vec::new(),
            in_test,
            is_pub: false,
        }
    }
}

/// One comment annotation found in raw source.
#[derive(Debug, Clone)]
pub struct Annotation {
    /// 1-based line the annotation comment sits on.
    pub line: u32,
    /// Parsed form.
    pub kind: AnnotationKind,
}

/// The recognized annotation forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationKind {
    /// `glacsweb: derived-state`.
    DerivedState,
    /// `glacsweb: draw-budget(N)`.
    DrawBudget(u64),
}

/// Parses `src`/`toks` into an item table and attaches annotations.
/// `mask` is the `#[cfg(test)]` token mask from [`crate::rules::test_mask`].
pub fn parse_items(src: &str, toks: &[Tok], mask: &[bool]) -> Vec<Item> {
    let mut items = Vec::new();
    parse_block(toks, mask, 0, toks.len(), &mut items);
    let anns = scan_annotations(src);
    if !anns.is_empty() {
        apply_annotations(&mut items, &anns);
    }
    items
}

/// Max lines between a `draw-budget` annotation and the fn it documents.
const BUDGET_ATTACH_WINDOW: u32 = 32;

fn scan_annotations(src: &str) -> Vec<Annotation> {
    // Markers are assembled from fragments so this file's own string
    // literals never scan as annotations when the analyzer runs on
    // itself (the same trick the suppression scanner uses).
    let derived: String = ["glacsweb", ": derived-state"].concat();
    let budget: String = ["glacsweb", ": draw-budget("].concat();
    let mut out = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx as u32 + 1;
        let Some(comment) = raw.find("//").map(|p| &raw[p..]) else {
            continue;
        };
        if comment.contains(&derived) {
            out.push(Annotation {
                line,
                kind: AnnotationKind::DerivedState,
            });
        }
        if let Some(pos) = comment.find(&budget) {
            let rest = &comment[pos + budget.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            if let (Ok(n), Some(')')) = (digits.parse::<u64>(), rest.chars().nth(digits.len())) {
                out.push(Annotation {
                    line,
                    kind: AnnotationKind::DrawBudget(n),
                });
            }
        }
    }
    out
}

fn apply_annotations(items: &mut [Item], anns: &[Annotation]) {
    for item in items.iter_mut() {
        for field in item.fields.iter_mut() {
            // Derived-state annotation: on the field's line or the line
            // directly above.
            if anns.iter().any(|a| {
                a.kind == AnnotationKind::DerivedState
                    && (a.line == field.line || a.line + 1 == field.line)
            }) {
                field.annotated_derived = true;
            }
        }
        if item.kind == ItemKind::Fn {
            // Budget annotation: nearest one in the doc block above.
            item.budget = anns
                .iter()
                .filter_map(|a| match a.kind {
                    AnnotationKind::DrawBudget(n)
                        if a.line < item.line && item.line - a.line <= BUDGET_ATTACH_WINDOW =>
                    {
                        Some((item.line - a.line, n))
                    }
                    _ => None,
                })
                .min()
                .map(|(_, n)| n);
        }
        apply_annotations(&mut item.children, anns);
    }
}

/// Index one past the delimiter closing the group opened at `i` (which
/// must hold `open`). Returns `end` if unmatched. Never panics.
fn skip_group(toks: &[Tok], i: usize, end: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < end {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    end
}

/// Index one past a generic parameter list opened at `i` (which must
/// hold `<`). Honours `>>` closing two levels.
fn skip_angles(toks: &[Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < end {
        match toks[j].text.as_str() {
            "<" if toks[j].kind == TokKind::Punct => depth += 1,
            "<<" if toks[j].kind == TokKind::Punct => depth += 2,
            ">" if toks[j].kind == TokKind::Punct => depth -= 1,
            ">>" if toks[j].kind == TokKind::Punct => depth -= 2,
            _ => {}
        }
        j += 1;
        if depth <= 0 {
            return j;
        }
    }
    end
}

/// Advances past an item that ends at `;`, skipping delimited groups so
/// an array repeat (`[0; 4]`) or a const block never terminates early.
fn skip_to_semi(toks: &[Tok], mut i: usize, end: usize) -> usize {
    while i < end {
        match toks[i].text.as_str() {
            "(" if toks[i].kind == TokKind::Punct => i = skip_group(toks, i, end, "(", ")"),
            "[" if toks[i].kind == TokKind::Punct => i = skip_group(toks, i, end, "[", "]"),
            "{" if toks[i].kind == TokKind::Punct => i = skip_group(toks, i, end, "{", "}"),
            ";" if toks[i].kind == TokKind::Punct => return i + 1,
            _ => i += 1,
        }
    }
    end
}

fn masked(mask: &[bool], i: usize) -> bool {
    mask.get(i).copied().unwrap_or(false)
}

/// Walks one brace level collecting items into `out`.
fn parse_block(toks: &[Tok], mask: &[bool], start: usize, end: usize, out: &mut Vec<Item>) {
    let mut i = start;
    let mut derives: Vec<String> = Vec::new();
    while i < end {
        let t = &toks[i];
        // Outer attribute: harvest derive lists, skip the rest.
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let after = skip_group(toks, i + 1, end, "[", "]");
            collect_derives(
                &toks[i + 2..after.saturating_sub(1).max(i + 2)],
                &mut derives,
            );
            i = after;
            continue;
        }
        // Inner attribute `#![...]`.
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
            if toks.get(i + 2).is_some_and(|n| n.is_punct("[")) {
                i = skip_group(toks, i + 2, end, "[", "]");
            } else {
                i += 2;
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            // Stray group at item level: step over it wholesale.
            i = match t.text.as_str() {
                "{" => skip_group(toks, i, end, "{", "}"),
                "(" => skip_group(toks, i, end, "(", ")"),
                "[" => skip_group(toks, i, end, "[", "]"),
                _ => i + 1,
            };
            continue;
        }
        match t.text.as_str() {
            // Visibility / qualifier prefixes: keep pending derives.
            "pub" => {
                i += 1;
                if toks.get(i).is_some_and(|n| n.is_punct("(")) {
                    i = skip_group(toks, i, end, "(", ")");
                }
            }
            "unsafe" | "async" | "default" => i += 1,
            "const" | "extern"
                if toks.get(i + 1).is_some_and(|n| {
                    n.is_ident("fn") || n.kind == TokKind::Str || n.is_ident("unsafe")
                }) =>
            {
                // `const fn`, `extern "C" fn`: let the fn arm handle it.
                i += 1;
            }
            "struct" => {
                let (item, next) = parse_struct(toks, mask, i, end, &mut derives);
                out.push(item);
                i = next;
            }
            "enum" => {
                let (item, next) = parse_enum(toks, mask, i, end, &mut derives);
                out.push(item);
                i = next;
            }
            "fn" => {
                let (item, next) = parse_fn(toks, mask, i, end);
                out.push(item);
                derives.clear();
                i = next;
            }
            "impl" => {
                let (item, next) = parse_impl(toks, mask, i, end);
                out.push(item);
                derives.clear();
                i = next;
            }
            "trait" => {
                let name = ident_after(toks, i, end);
                let mut item = Item::new(ItemKind::Trait, name, t, masked(mask, i));
                let body_open = find_body_open(toks, i + 1, end);
                if let Some(b) = body_open {
                    let close = skip_group(toks, b, end, "{", "}");
                    item.body = Some((b, close.saturating_sub(1)));
                    item.hi = toks[close.saturating_sub(1).min(end - 1)].hi;
                    i = close;
                } else {
                    i = skip_to_semi(toks, i + 1, end);
                }
                out.push(item);
                derives.clear();
            }
            "mod" => {
                let name = ident_after(toks, i, end);
                let mut item = Item::new(ItemKind::Mod, name, t, masked(mask, i));
                if let Some(b) = find_body_or_semi(toks, i + 1, end) {
                    let close = skip_group(toks, b, end, "{", "}");
                    item.body = Some((b, close.saturating_sub(1)));
                    parse_block(
                        toks,
                        mask,
                        b + 1,
                        close.saturating_sub(1),
                        &mut item.children,
                    );
                    i = close;
                } else {
                    i = skip_to_semi(toks, i + 1, end);
                }
                out.push(item);
                derives.clear();
            }
            "macro_rules" => {
                // `macro_rules ! name { opaque }` — never descend.
                let name = ident_after(toks, i + 1, end);
                let mut item = Item::new(ItemKind::MacroRules, name, t, masked(mask, i));
                let mut j = i + 1;
                while j < end && !toks[j].is_punct("{") {
                    j += 1;
                }
                let close = if j < end {
                    skip_group(toks, j, end, "{", "}")
                } else {
                    end
                };
                item.hi = toks[close.saturating_sub(1).min(end - 1)].hi;
                out.push(item);
                derives.clear();
                i = close;
            }
            "use" | "static" | "type" => {
                i = skip_to_semi(toks, i + 1, end);
                derives.clear();
            }
            "const" | "extern" => {
                i = skip_to_semi(toks, i + 1, end);
                derives.clear();
            }
            _ => {
                // Macro invocation at item position: `name!(...)` etc.
                if toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
                {
                    let (open, close) = match toks[i + 2].text.as_str() {
                        "(" => ("(", ")"),
                        "[" => ("[", "]"),
                        _ => ("{", "}"),
                    };
                    let after = skip_group(toks, i + 2, end, open, close);
                    let mut item = Item::new(
                        ItemKind::MacroInvocation,
                        t.text.clone(),
                        t,
                        masked(mask, i),
                    );
                    item.macro_args = toks[i + 3..after.saturating_sub(1).max(i + 3)]
                        .iter()
                        .filter(|a| a.kind == TokKind::Ident)
                        .map(|a| a.text.clone())
                        .collect();
                    item.hi = toks[after.saturating_sub(1).min(end - 1)].hi;
                    out.push(item);
                    i = after;
                    if toks.get(i).is_some_and(|n| n.is_punct(";")) {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
                derives.clear();
            }
        }
    }
}

/// Harvests `derive(A, B, ...)` identifiers from attribute body tokens.
fn collect_derives(body: &[Tok], out: &mut Vec<String>) {
    if body.first().is_some_and(|t| t.is_ident("derive")) {
        out.extend(
            body.iter()
                .skip(1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone()),
        );
    }
}

fn ident_after(toks: &[Tok], i: usize, end: usize) -> String {
    toks.get(i + 1)
        .filter(|_| i + 1 < end)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .unwrap_or_default()
}

/// First `{` at paren/bracket depth 0 in `start..end`, stopping at a
/// depth-0 `;` (which means the item has no body).
fn find_body_open(toks: &[Tok], start: usize, end: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = start;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" if toks[j].kind == TokKind::Punct => depth += 1,
            ")" | "]" if toks[j].kind == TokKind::Punct => depth = depth.saturating_sub(1),
            "{" if toks[j].kind == TokKind::Punct && depth == 0 => return Some(j),
            ";" if toks[j].kind == TokKind::Punct && depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

fn find_body_or_semi(toks: &[Tok], start: usize, end: usize) -> Option<usize> {
    find_body_open(toks, start, end)
}

fn parse_struct(
    toks: &[Tok],
    mask: &[bool],
    i: usize,
    end: usize,
    derives: &mut Vec<String>,
) -> (Item, usize) {
    let mut item = Item::new(
        ItemKind::Struct,
        ident_after(toks, i, end),
        &toks[i],
        masked(mask, i),
    );
    item.derives = std::mem::take(derives);
    let mut j = i + 2.min(end - i);
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        j = skip_angles(toks, j, end);
    }
    while j < end {
        match toks[j].text.as_str() {
            "(" if toks[j].kind == TokKind::Punct => {
                // Tuple struct: skip the field group, then run to `;`.
                j = skip_group(toks, j, end, "(", ")");
                j = skip_to_semi(toks, j, end);
                item.hi = toks[j.saturating_sub(1).min(end - 1)].hi;
                return (item, j);
            }
            "{" if toks[j].kind == TokKind::Punct => {
                let close = skip_group(toks, j, end, "{", "}");
                item.body = Some((j, close.saturating_sub(1)));
                item.fields = parse_fields(toks, j + 1, close.saturating_sub(1));
                item.hi = toks[close.saturating_sub(1).min(end - 1)].hi;
                return (item, close);
            }
            ";" if toks[j].kind == TokKind::Punct => {
                item.hi = toks[j].hi;
                return (item, j + 1);
            }
            _ => j += 1,
        }
    }
    (item, end)
}

fn parse_enum(
    toks: &[Tok],
    mask: &[bool],
    i: usize,
    end: usize,
    derives: &mut Vec<String>,
) -> (Item, usize) {
    let mut item = Item::new(
        ItemKind::Enum,
        ident_after(toks, i, end),
        &toks[i],
        masked(mask, i),
    );
    item.derives = std::mem::take(derives);
    if let Some(b) = find_body_open(toks, i + 1, end) {
        let close = skip_group(toks, b, end, "{", "}");
        item.body = Some((b, close.saturating_sub(1)));
        item.hi = toks[close.saturating_sub(1).min(end - 1)].hi;
        (item, close)
    } else {
        let next = skip_to_semi(toks, i + 1, end);
        item.hi = toks[next.saturating_sub(1).min(end - 1)].hi;
        (item, next)
    }
}

/// Splits a struct body into named fields. Commas inside `()`, `[]`,
/// `{}`, or generic `<>` do not split.
fn parse_fields(toks: &[Tok], start: usize, end: usize) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    let mut j = start;
    while j < end {
        // Skip field attributes, noting `#[serde(skip)]`, and visibility.
        let mut serde_skip = false;
        while j < end && toks[j].is_punct("#") && toks.get(j + 1).is_some_and(|n| n.is_punct("[")) {
            let close = skip_group(toks, j + 1, end, "[", "]");
            serde_skip |= close == j + 7
                && toks[j + 2..j + 6]
                    .iter()
                    .map(|t| t.text.as_str())
                    .eq(["serde", "(", "skip", ")"]);
            j = close;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("pub")) {
            j += 1;
            if toks.get(j).is_some_and(|t| t.is_punct("(")) {
                j = skip_group(toks, j, end, "(", ")");
            }
        }
        if j >= end {
            break;
        }
        let name_tok = &toks[j];
        let named = name_tok.kind == TokKind::Ident
            && toks
                .get(j + 1)
                .filter(|_| j + 1 < end)
                .is_some_and(|t| t.is_punct(":"));
        // Advance to the comma ending this field (depth-aware).
        let mut depth = 0i64;
        let mut k = if named { j + 2 } else { j };
        let ty_start = k;
        while k < end {
            let tk = &toks[k];
            if tk.kind == TokKind::Punct {
                match tk.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    "," if depth <= 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        if named {
            fields.push(FieldDef {
                name: name_tok.text.clone(),
                line: name_tok.line,
                ty_idents: toks[ty_start..k.min(end)]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .collect(),
                annotated_derived: false,
                serde_skip,
            });
        }
        j = k + 1;
    }
    fields
}

fn parse_fn(toks: &[Tok], mask: &[bool], i: usize, end: usize) -> (Item, usize) {
    let mut item = Item::new(
        ItemKind::Fn,
        ident_after(toks, i, end),
        &toks[i],
        masked(mask, i),
    );
    item.is_pub = bare_pub_before(toks, i);
    match find_body_open(toks, i + 1, end) {
        Some(b) => {
            let close = skip_group(toks, b, end, "{", "}");
            item.body = Some((b, close.saturating_sub(1)));
            item.hi = toks[close.saturating_sub(1).min(end - 1)].hi;
            // Method-call index: `.name(` inside the body.
            let body_end = close.saturating_sub(1);
            let mut k = b + 1;
            while k + 2 <= body_end {
                if toks[k].is_punct(".")
                    && toks[k + 1].kind == TokKind::Ident
                    && toks.get(k + 2).is_some_and(|t| t.is_punct("("))
                {
                    item.calls
                        .push((toks[k + 1].text.clone(), toks[k + 1].line));
                    k += 2;
                } else {
                    k += 1;
                }
            }
            (item, close)
        }
        None => {
            let next = skip_to_semi(toks, i + 1, end);
            (item, next)
        }
    }
}

/// `true` if the `fn` keyword at `i` is preceded, across its qualifiers
/// (`const`, `async`, `unsafe`, `extern "C"`), by a bare `pub`.
fn bare_pub_before(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.kind == TokKind::Str
            || matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
        {
            continue;
        }
        return t.is_ident("pub");
    }
    false
}

fn parse_impl(toks: &[Tok], mask: &[bool], i: usize, end: usize) -> (Item, usize) {
    let mut item = Item::new(ItemKind::Impl, String::new(), &toks[i], masked(mask, i));
    let mut h = i + 1;
    if toks.get(h).is_some_and(|t| t.is_punct("<")) {
        h = skip_angles(toks, h, end);
    }
    let body_open = find_body_open(toks, h, end);
    let head_end = body_open.unwrap_or(end);
    // Split the head at a depth-0 `for`.
    let mut angle = 0i64;
    let mut for_at: Option<usize> = None;
    for (j, t) in toks.iter().enumerate().take(head_end).skip(h) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
        } else if t.is_ident("for") && angle <= 0 {
            for_at = Some(j);
            break;
        }
    }
    let (trait_range, ty_range) = match for_at {
        Some(f) => ((h, f), (f + 1, head_end)),
        None => ((h, h), (h, head_end)),
    };
    item.trait_name = last_head_ident(toks, trait_range.0, trait_range.1);
    item.name = first_head_ident(toks, ty_range.0, ty_range.1).unwrap_or_default();
    if let Some(b) = body_open {
        let close = skip_group(toks, b, end, "{", "}");
        item.body = Some((b, close.saturating_sub(1)));
        item.hi = toks[close.saturating_sub(1).min(end - 1)].hi;
        parse_block(
            toks,
            mask,
            b + 1,
            close.saturating_sub(1),
            &mut item.children,
        );
        // Impl children inherit the impl's test masking (a cfg(test) impl
        // masks the `impl` token but inner fns carry their own indices).
        if item.in_test {
            for c in item.children.iter_mut() {
                c.in_test = true;
            }
        }
        (item, close)
    } else {
        (item, skip_to_semi(toks, h, end))
    }
}

/// Last identifier at angle depth 0 — the trait's final path segment
/// (`serde :: Serialize` → `Serialize`).
fn last_head_ident(toks: &[Tok], start: usize, end: usize) -> Option<String> {
    let mut angle = 0i64;
    let mut found = None;
    for t in toks.iter().take(end).skip(start) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
        } else if t.kind == TokKind::Ident && angle <= 0 && t.text != "dyn" && t.text != "mut" {
            found = Some(t.text.clone());
        }
    }
    found
}

/// First identifier at angle depth 0 — the self type's head
/// (`EventQueue < E >` → `EventQueue`).
fn first_head_ident(toks: &[Tok], start: usize, end: usize) -> Option<String> {
    let mut angle = 0i64;
    for t in toks.iter().take(end).skip(start) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
        } else if t.kind == TokKind::Ident
            && angle <= 0
            && !matches!(t.text.as_str(), "dyn" | "mut" | "where")
        {
            return Some(t.text.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn parse(src: &str) -> Vec<Item> {
        let toks = lex(src);
        let (mask, _) = test_mask(&toks);
        parse_items(src, &toks, &mask)
    }

    #[test]
    fn struct_fields_with_generics() {
        let items = parse(
            "pub struct LoadSet {\n    loads: BTreeMap<String, Load>,\n    total: TotalCache,\n}",
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "LoadSet");
        let names: Vec<&str> = items[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["loads", "total"]);
        assert!(items[0].fields[0].ty_idents.iter().any(|t| t == "Load"));
    }

    #[test]
    fn derives_are_harvested() {
        let items = parse("#[derive(Debug, Clone, PartialEq)]\nstruct S { a: u32 }");
        assert_eq!(items[0].derives, ["Debug", "Clone", "PartialEq"]);
    }

    #[test]
    fn impl_head_splits_trait_and_type() {
        let items = parse("impl<E: Serialize> Serialize for EventQueue<E> { fn f(&self) {} }");
        assert_eq!(items[0].kind, ItemKind::Impl);
        assert_eq!(items[0].trait_name.as_deref(), Some("Serialize"));
        assert_eq!(items[0].name, "EventQueue");
        assert_eq!(items[0].children.len(), 1);
        assert_eq!(items[0].children[0].name, "f");
    }

    #[test]
    fn inherent_impl_has_no_trait() {
        let items = parse("impl PowerRail { fn step(&mut self) { self.taper.get(); } }");
        assert_eq!(items[0].trait_name, None);
        assert_eq!(items[0].name, "PowerRail");
        let calls: Vec<&str> = items[0].children[0]
            .calls
            .iter()
            .map(|(c, _)| c.as_str())
            .collect();
        assert_eq!(calls, ["get"]);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let items = parse(
            "macro_rules! gen {\n ($t:ty) => { impl Fake for $t { fn g() {} } };\n}\nfn real() {}",
        );
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, [ItemKind::MacroRules, ItemKind::Fn]);
        assert_eq!(items[1].name, "real");
    }

    #[test]
    fn macro_invocations_record_args() {
        let items = parse("derived_state_serde!(OuStepCache);");
        assert_eq!(items[0].kind, ItemKind::MacroInvocation);
        assert_eq!(items[0].name, "derived_state_serde");
        assert_eq!(items[0].macro_args, ["OuStepCache"]);
    }

    #[test]
    fn mods_recurse_and_tests_are_masked() {
        let items = parse(
            "mod inner { struct A { x: u32 } }\n#[cfg(test)]\nmod tests { struct B { y: u32 } }",
        );
        assert_eq!(items.len(), 2);
        assert!(!items[0].in_test);
        assert_eq!(items[0].children[0].name, "A");
        assert!(items[1].in_test);
    }

    #[test]
    fn annotations_attach_to_fields_and_fns() {
        let src = "struct S {\n    // glacsweb: derived-state\n    memo: u32,\n    real: u32,\n}\n\
                   /// Does things.\n/// glacsweb: draw-budget(4)\nfn wake() { }\n";
        let items = parse(src);
        assert!(
            items[0].fields[0].annotated_derived,
            "{:?}",
            items[0].fields
        );
        assert!(!items[0].fields[1].annotated_derived);
        assert_eq!(items[1].budget, Some(4));
    }

    #[test]
    fn fn_without_body_and_tuple_structs() {
        let items = parse("struct T(u32, f64);\ntrait X { fn sig(&self); }\nfn has() -> u32 { 1 }");
        assert_eq!(items[0].kind, ItemKind::Struct);
        assert!(items[0].fields.is_empty());
        assert_eq!(items[1].kind, ItemKind::Trait);
        assert_eq!(items[2].name, "has");
        assert!(items[2].body.is_some());
    }

    #[test]
    fn bare_pub_is_recorded_on_fns() {
        let items = parse(
            "pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\npub const unsafe fn d() {}\n\
             impl S { pub fn e(&self) {} pub(super) fn f(&self) {} }",
        );
        let fns: Vec<(&str, bool)> = items
            .iter()
            .flat_map(|i| std::iter::once(i).chain(&i.children))
            .filter(|i| i.kind == ItemKind::Fn)
            .map(|i| (i.name.as_str(), i.is_pub))
            .collect();
        assert_eq!(
            fns,
            [
                ("a", true),
                ("b", false),
                ("c", false),
                ("d", true),
                ("e", true),
                ("f", false)
            ]
        );
    }

    #[test]
    fn parser_is_total_on_unbalanced_garbage() {
        // Must terminate without panicking whatever it is fed.
        for src in [
            "}}}}{{{",
            "struct",
            "impl for {",
            "fn f( {",
            "#[",
            "struct S { a: u32",
            "mod m { fn",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn byte_spans_are_in_bounds() {
        let src = "struct S { a: u32 }\nimpl S { fn m(&self) { self.a; } }";
        for item in parse(src) {
            assert!(item.lo <= item.hi);
            assert!((item.hi as usize) <= src.len());
        }
    }
}
