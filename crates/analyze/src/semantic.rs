//! The semantic rule packs: item-level invariants the token rules
//! cannot express.
//!
//! Analysis is two-phase. [`extract_facts`] reduces one file's item
//! table to a [`FileFacts`] — a pure function of the file's text, which
//! is what lets files analyze in parallel. [`check`] then joins the
//! facts of every file into a workspace item table and runs three packs:
//!
//! * **snapshot-coverage** — a type with hand-written GLACSNAP serde
//!   must mention every non-derived field in both its `Serialize` and
//!   `Deserialize` impls (and in `PartialEq` where hand-written), so a
//!   field added without threading it through snapshot/resume is a CI
//!   failure rather than a silent resume corruption.
//! * **rng-draw-budget** — a fn annotated `glacsweb: draw-budget(N)`
//!   must retire exactly N raw draws on every execution path, counting
//!   through branches, matches, and `self.` method calls; an unbalanced
//!   branch desynchronizes the naive and sleep-leaping streams.
//! * **derived-state** — memo/cache fields (annotated, `*Memo`/`*Cache`
//!   typed, or `*_buf`/`*_cache`/`*_memo`/`*_scratch` named) must be
//!   invisible to equality and serialize as null, enforcing the
//!   derived-state convention mechanically.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::parser::{Item, ItemKind};
use crate::rules::{classify, Finding, RuleId};

/// Saturation cap for draw-interval arithmetic: large enough that any
/// real budget mismatch is still visible.
pub const DRAW_CAP: u64 = 1_000_000;

/// RNG methods that retire raw draws, with their (min, max) weight.
/// `normal` is Box–Muller: either serves a memoized spare (0 raws) or
/// generates a fresh pair (2 raws).
const DRAW_WEIGHTS: &[(&str, u64, u64)] = &[
    ("f64", 1, 1),
    ("below", 1, 1),
    ("uniform", 1, 1),
    ("bernoulli", 1, 1),
    ("exponential", 1, 1),
    ("weibull", 1, 1),
    ("choose", 1, 1),
    ("fork", 1, 1),
    ("normal", 0, 2),
];

/// Field-name suffixes that mark derived state by convention.
const DERIVED_NAME_SUFFIXES: &[&str] = &["_buf", "_scratch", "_memo", "_cache"];

/// How many draws a region of code can retire, as a tree mirroring the
/// region's control flow.
#[derive(Debug)]
pub enum DrawTree {
    /// Sequential composition: intervals add.
    Seq(Vec<DrawTree>),
    /// Alternative paths: intervals hull.
    Branch(Vec<DrawTree>),
    /// A direct draw call.
    Leaf {
        /// Minimum raws retired.
        lo: u64,
        /// Maximum raws retired.
        hi: u64,
        /// Source line of the call.
        line: u32,
    },
    /// A `self.method(...)` call, resolved against the fn table.
    Call {
        /// Method name.
        name: String,
        /// Source line of the call.
        line: u32,
    },
    /// A non-literal `skip_raw(...)`: tops the stream up to the budget.
    Balance {
        /// Source line of the call.
        line: u32,
    },
    /// A loop body that may execute any number of times.
    Loop {
        /// The body's tree.
        body: Box<DrawTree>,
        /// Source line of the loop keyword.
        line: u32,
    },
}

/// One named field of a struct.
#[derive(Debug)]
pub struct FieldFact {
    /// Field name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// Identifiers of the field's type.
    pub ty: Vec<String>,
    /// `derived-state` annotation present.
    pub annotated: bool,
}

/// One struct definition.
#[derive(Debug)]
pub struct StructFact {
    /// Type name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
    /// `#[derive(...)]` identifiers.
    pub derives: Vec<String>,
    /// Named fields.
    pub fields: Vec<FieldFact>,
}

/// One hand-written trait impl the packs care about
/// (`Serialize` / `Deserialize` / `PartialEq`).
#[derive(Debug)]
pub struct ImplFact {
    /// Trait's final path segment.
    pub trait_name: String,
    /// Self type's head identifier.
    pub ty: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Every identifier in the impl body.
    pub idents: BTreeSet<String>,
    /// Body mentions `Null` (null-serde convention marker).
    pub mentions_null: bool,
}

/// One fn definition with its draw tree.
#[derive(Debug)]
pub struct FnFact {
    /// Fn name.
    pub name: String,
    /// Enclosing impl's self type, if any.
    pub ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared budget from a `draw-budget(N)` annotation.
    pub budget: Option<u64>,
    /// The body's draw tree.
    pub tree: DrawTree,
}

/// Everything the semantic packs need to know about one file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative path.
    pub rel: String,
    /// Struct definitions.
    pub structs: Vec<StructFact>,
    /// Relevant hand-written impls.
    pub impls: Vec<ImplFact>,
    /// Fn definitions.
    pub fns: Vec<FnFact>,
    /// Types marked null-serde via convention-macro invocations
    /// (`derived_state_serde!(T)` and the like).
    pub macro_marks: Vec<String>,
}

/// Reduces a parsed file to its semantic facts. Test items contribute
/// nothing.
pub fn extract_facts(rel: &str, toks: &[Tok], items: &[Item]) -> FileFacts {
    let mut facts = FileFacts {
        rel: rel.to_string(),
        ..FileFacts::default()
    };
    walk(toks, items, None, &mut facts);
    facts
}

fn walk(toks: &[Tok], items: &[Item], impl_ty: Option<&str>, facts: &mut FileFacts) {
    for item in items {
        if item.in_test {
            continue;
        }
        match item.kind {
            ItemKind::Struct => facts.structs.push(StructFact {
                name: item.name.clone(),
                line: item.line,
                derives: item.derives.clone(),
                fields: item
                    .fields
                    .iter()
                    .map(|f| FieldFact {
                        name: f.name.clone(),
                        line: f.line,
                        ty: f.ty_idents.clone(),
                        annotated: f.annotated_derived,
                    })
                    .collect(),
            }),
            ItemKind::Impl => {
                if let Some(tr) = item.trait_name.as_deref() {
                    if matches!(tr, "Serialize" | "Deserialize" | "PartialEq") {
                        let idents = body_idents(toks, item.body);
                        facts.impls.push(ImplFact {
                            trait_name: tr.to_string(),
                            ty: item.name.clone(),
                            line: item.line,
                            mentions_null: idents.contains("Null"),
                            idents,
                        });
                    }
                }
                walk(toks, &item.children, Some(&item.name), facts);
            }
            ItemKind::Fn => {
                let tree = item
                    .body
                    .map(|(open, close)| build_tree(toks, open + 1, close))
                    .unwrap_or(DrawTree::Seq(Vec::new()));
                facts.fns.push(FnFact {
                    name: item.name.clone(),
                    ty: impl_ty.map(str::to_string),
                    line: item.line,
                    budget: item.budget,
                    tree,
                });
            }
            ItemKind::Mod => walk(toks, &item.children, None, facts),
            ItemKind::MacroInvocation
                if item.name.contains("derived_state") || item.name.ends_with("_serde") =>
            {
                facts.macro_marks.extend(item.macro_args.iter().cloned());
            }
            _ => {}
        }
    }
}

fn body_idents(toks: &[Tok], body: Option<(usize, usize)>) -> BTreeSet<String> {
    let Some((open, close)) = body else {
        return BTreeSet::new();
    };
    toks[open..=close.min(toks.len().saturating_sub(1))]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

// ---------------------------------------------------------------------
// Draw-tree construction.
// ---------------------------------------------------------------------

/// Builds the draw tree of the token range `start..end`.
pub fn build_tree(toks: &[Tok], start: usize, end: usize) -> DrawTree {
    let mut nodes = Vec::new();
    build_seq(toks, start, end.min(toks.len()), &mut nodes);
    DrawTree::Seq(nodes)
}

fn build_seq(toks: &[Tok], start: usize, end: usize, out: &mut Vec<DrawTree>) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "if" => {
                    i = build_if(toks, i, end, out);
                    continue;
                }
                "match" => {
                    i = build_match(toks, i, end, out);
                    continue;
                }
                "while" | "for" | "loop" => {
                    let line = t.line;
                    let open = find_block(toks, i + 1, end);
                    let Some(b) = open else {
                        i += 1;
                        continue;
                    };
                    // Loop-header draws repeat per iteration too: fold
                    // them into the loop body.
                    let mut body = Vec::new();
                    build_seq(toks, i + 1, b, &mut body);
                    let close = close_of(toks, b, end);
                    build_seq(toks, b + 1, close, &mut body);
                    out.push(DrawTree::Loop {
                        body: Box::new(DrawTree::Seq(body)),
                        line,
                    });
                    i = close + 1;
                    continue;
                }
                _ => {}
            }
            // `self.method(...)`: a call worth resolving.
            if t.text == "self"
                && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
                && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
                && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
                && i + 3 < end
            {
                let name = &toks[i + 2].text;
                if !DRAW_WEIGHTS.iter().any(|(m, _, _)| m == name) {
                    out.push(DrawTree::Call {
                        name: name.clone(),
                        line: toks[i + 2].line,
                    });
                    i += 3;
                    continue;
                }
            }
        }
        // `.draw_method(` with an RNG-ish receiver.
        if t.is_punct(".")
            && i + 2 < end
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct("(")
        {
            let name = toks[i + 1].text.as_str();
            let line = toks[i + 1].line;
            if name == "skip_raw" {
                let args_end = close_of_punct(toks, i + 2, end, "(", ")");
                let args = &toks[i + 3..args_end.min(end)];
                if let [only] = args {
                    if only.kind == TokKind::Int {
                        let n = parse_int(&only.text).min(DRAW_CAP);
                        out.push(DrawTree::Leaf { lo: n, hi: n, line });
                        i = args_end + 1;
                        continue;
                    }
                }
                out.push(DrawTree::Balance { line });
                i = args_end + 1;
                continue;
            }
            if let Some((_, lo, hi)) = DRAW_WEIGHTS.iter().find(|(m, _, _)| *m == name) {
                if receiver_is_rng(toks, i) {
                    out.push(DrawTree::Leaf {
                        lo: *lo,
                        hi: *hi,
                        line,
                    });
                    i += 3;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// `true` if the tokens just before the `.` at `dot` look like an RNG
/// receiver (`rng.f64()`, `self.st.rng[s].normal(...)`).
fn receiver_is_rng(toks: &[Tok], dot: usize) -> bool {
    let from = dot.saturating_sub(6);
    toks[from..dot]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("rng"))
}

fn parse_int(text: &str) -> u64 {
    let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
    digits.replace('_', "").parse().unwrap_or(0)
}

/// First `{` at paren/bracket depth 0 in `start..end`.
fn find_block(toks: &[Tok], start: usize, end: usize) -> Option<usize> {
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

/// Index of the `}` closing the `{` at `open` (or `end - 1` if unmatched).
fn close_of(toks: &[Tok], open: usize, end: usize) -> usize {
    close_of_punct(toks, open, end, "{", "}")
}

fn close_of_punct(toks: &[Tok], open: usize, end: usize, op: &str, cl: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < end {
        if toks[j].is_punct(op) {
            depth += 1;
        } else if toks[j].is_punct(cl) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end.saturating_sub(1)
}

/// Parses `if cond { } [else if ... | else { }]` into cond + branch
/// nodes. Returns the index after the construct.
fn build_if(toks: &[Tok], i: usize, end: usize, out: &mut Vec<DrawTree>) -> usize {
    let Some(open) = find_block(toks, i + 1, end) else {
        return i + 1;
    };
    // Condition draws happen on every path through the `if`.
    build_seq(toks, i + 1, open, out);
    let close = close_of(toks, open, end);
    let mut then_nodes = Vec::new();
    build_seq(toks, open + 1, close, &mut then_nodes);
    let mut next = close + 1;
    let mut else_nodes = Vec::new();
    if next < end && toks[next].is_ident("else") {
        if next + 1 < end && toks[next + 1].is_ident("if") {
            next = build_if(toks, next + 1, end, &mut else_nodes);
        } else if next + 1 < end && toks[next + 1].is_punct("{") {
            let eclose = close_of(toks, next + 1, end);
            build_seq(toks, next + 2, eclose, &mut else_nodes);
            next = eclose + 1;
        } else {
            next += 1;
        }
    }
    out.push(DrawTree::Branch(vec![
        DrawTree::Seq(then_nodes),
        DrawTree::Seq(else_nodes),
    ]));
    next
}

/// Parses `match scrutinee { arms }` into scrutinee + branch-of-arms
/// nodes. Returns the index after the construct.
fn build_match(toks: &[Tok], i: usize, end: usize, out: &mut Vec<DrawTree>) -> usize {
    let Some(open) = find_block(toks, i + 1, end) else {
        return i + 1;
    };
    build_seq(toks, i + 1, open, out);
    let close = close_of(toks, open, end);
    let mut arms = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Pattern (and guard) up to the depth-0 `=>`.
        let mut depth = 0i64;
        let arm_start = j;
        while j < close {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=>" if depth <= 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= close {
            break;
        }
        let mut arm_nodes = Vec::new();
        build_seq(toks, arm_start, j, &mut arm_nodes); // guard draws
        j += 1; // past `=>`
        if j < close && toks[j].is_punct("{") {
            let bclose = close_of(toks, j, close);
            build_seq(toks, j + 1, bclose, &mut arm_nodes);
            j = bclose + 1;
        } else {
            // Expression body: to the `,` at depth 0.
            let mut depth = 0i64;
            let body_start = j;
            while j < close {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth <= 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            build_seq(toks, body_start, j, &mut arm_nodes);
        }
        if j < close && toks[j].is_punct(",") {
            j += 1;
        }
        arms.push(DrawTree::Seq(arm_nodes));
    }
    if !arms.is_empty() {
        out.push(DrawTree::Branch(arms));
    }
    close + 1
}

// ---------------------------------------------------------------------
// Workspace-level checks.
// ---------------------------------------------------------------------

fn is_derived_field(f: &FieldFact) -> bool {
    f.annotated
        || DERIVED_NAME_SUFFIXES.iter().any(|s| f.name.ends_with(s))
        || f.ty
            .iter()
            .any(|t| t.ends_with("Memo") || t.ends_with("Cache"))
}

fn is_memo_type(name: &str) -> bool {
    name.ends_with("Memo") || name.ends_with("Cache")
}

struct Table<'a> {
    /// Struct name -> (file, fact); names defined more than once are
    /// dropped (ambiguous joins would misattribute impls).
    structs: BTreeMap<&'a str, (&'a str, &'a StructFact)>,
    /// (type, trait) -> merged impl facts across the workspace (the
    /// orphan rule keeps a type's impls in its own crate, and type
    /// names are workspace-unique in practice).
    impls: BTreeMap<(&'a str, &'a str), MergedImpl<'a>>,
    /// Types marked null-serde by convention macros.
    marks: BTreeSet<&'a str>,
    /// (impl type, fn name) -> fns (for call resolution).
    methods: BTreeMap<(&'a str, &'a str), Vec<(&'a str, &'a FnFact)>>,
    /// fn name -> fns (fallback resolution when globally unique).
    by_name: BTreeMap<&'a str, Vec<(&'a str, &'a FnFact)>>,
}

struct MergedImpl<'a> {
    file: &'a str,
    line: u32,
    idents: BTreeSet<&'a str>,
    mentions_null: bool,
}

fn build_table<'a>(facts: &'a [&'a FileFacts]) -> Table<'a> {
    let mut structs: BTreeMap<&str, Vec<(&str, &StructFact)>> = BTreeMap::new();
    let mut table = Table {
        structs: BTreeMap::new(),
        impls: BTreeMap::new(),
        marks: BTreeSet::new(),
        methods: BTreeMap::new(),
        by_name: BTreeMap::new(),
    };
    for ff in facts {
        if !classify(&ff.rel).is_lib {
            continue;
        }
        for s in &ff.structs {
            structs.entry(&s.name).or_default().push((&ff.rel, s));
        }
        for im in &ff.impls {
            let entry = table
                .impls
                .entry((&im.ty, &im.trait_name))
                .or_insert(MergedImpl {
                    file: &ff.rel,
                    line: im.line,
                    idents: BTreeSet::new(),
                    mentions_null: false,
                });
            entry.idents.extend(im.idents.iter().map(String::as_str));
            entry.mentions_null |= im.mentions_null;
        }
        table
            .marks
            .extend(ff.macro_marks.iter().map(String::as_str));
        for f in &ff.fns {
            let ty = f.ty.as_deref().unwrap_or("");
            table
                .methods
                .entry((ty, &f.name))
                .or_default()
                .push((&ff.rel, f));
            table.by_name.entry(&f.name).or_default().push((&ff.rel, f));
        }
    }
    for (name, defs) in structs {
        if let [one] = defs.as_slice() {
            table.structs.insert(name, *one);
        }
    }
    table
}

/// Runs every semantic pack over the workspace facts.
pub fn check(facts: &[&FileFacts]) -> Vec<Finding> {
    let table = build_table(facts);
    let mut out = Vec::new();
    check_serde_packs(&table, &mut out);
    check_draw_budgets(&table, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, rule: RuleId, file: &str, line: u32, message: String) {
    out.push(Finding {
        rule,
        file: file.to_string(),
        line,
        message,
        suppressed: false,
    });
}

fn check_serde_packs(table: &Table<'_>, out: &mut Vec<Finding>) {
    for (&name, &(file, s)) in &table.structs {
        let ser = table.impls.get(&(name, "Serialize"));
        let de = table.impls.get(&(name, "Deserialize"));
        let eq = table.impls.get(&(name, "PartialEq"));
        let derives = |d: &str| s.derives.iter().any(|x| x == d);

        if is_memo_type(name) || table.marks.contains(name) {
            // The memo type itself: a hand-written Serialize must be the
            // null-serde form.
            if let Some(im) = ser {
                if !im.mentions_null {
                    push(
                        out,
                        RuleId::DerivedState,
                        im.file,
                        im.line,
                        format!(
                            "memo type `{name}` has a hand-written `Serialize` that does \
                             not serialize as `Value::Null`"
                        ),
                    );
                }
            }
            continue;
        }

        let participates =
            derives("Serialize") || derives("Deserialize") || ser.is_some() || de.is_some();

        // Pack: snapshot-coverage.
        if participates {
            if let Some(im) = ser {
                for f in s.fields.iter().filter(|f| !is_derived_field(f)) {
                    if !im.idents.contains(f.name.as_str()) {
                        push(
                            out,
                            RuleId::SnapshotCoverage,
                            im.file,
                            im.line,
                            format!(
                                "hand-written `Serialize` for `{name}` never mentions field \
                                 `{}`; the field is dropped from every snapshot",
                                f.name
                            ),
                        );
                    }
                }
            }
            if let Some(im) = de {
                for f in s.fields.iter().filter(|f| !is_derived_field(f)) {
                    if !im.idents.contains(f.name.as_str()) {
                        push(
                            out,
                            RuleId::SnapshotCoverage,
                            im.file,
                            im.line,
                            format!(
                                "hand-written `Deserialize` for `{name}` never mentions field \
                                 `{}`; restore cannot rebuild it",
                                f.name
                            ),
                        );
                    }
                }
            }
            if let Some(im) = eq {
                for f in s.fields.iter().filter(|f| !is_derived_field(f)) {
                    if !im.idents.contains(f.name.as_str()) {
                        push(
                            out,
                            RuleId::SnapshotCoverage,
                            im.file,
                            im.line,
                            format!(
                                "hand-written `PartialEq` for `{name}` never compares field \
                                 `{}`; snapshot equivalence checks cannot see it",
                                f.name
                            ),
                        );
                    }
                }
            }
        }

        // Pack: derived-state.
        for f in s.fields.iter().filter(|f| is_derived_field(f)) {
            if let Some(im) = eq {
                if im.idents.contains(f.name.as_str()) {
                    push(
                        out,
                        RuleId::DerivedState,
                        im.file,
                        im.line,
                        format!(
                            "hand-written `PartialEq` for `{name}` compares derived field \
                             `{}`; memo/cache state must be invisible to equality",
                            f.name
                        ),
                    );
                }
            }
            if let Some(im) = ser {
                if im.idents.contains(f.name.as_str()) {
                    push(
                        out,
                        RuleId::DerivedState,
                        im.file,
                        im.line,
                        format!(
                            "hand-written `Serialize` for `{name}` writes derived field \
                             `{}`; memo/cache state must serialize as null",
                            f.name
                        ),
                    );
                }
            }
            if eq.is_none() && derives("PartialEq") {
                let neutral = f.ty.iter().any(|t| {
                    table.marks.contains(t.as_str())
                        || table.impls.contains_key(&(t.as_str(), "PartialEq"))
                });
                if !neutral {
                    push(
                        out,
                        RuleId::DerivedState,
                        file,
                        f.line,
                        format!(
                            "`derive(PartialEq)` on `{name}` includes derived field `{}` \
                             whose type has no always-equal `PartialEq` impl",
                            f.name
                        ),
                    );
                }
            }
            if ser.is_none() && derives("Serialize") {
                let null_serde = f.ty.iter().any(|t| {
                    table.marks.contains(t.as_str())
                        || table
                            .impls
                            .get(&(t.as_str(), "Serialize"))
                            .is_some_and(|im| im.mentions_null)
                });
                if !null_serde {
                    push(
                        out,
                        RuleId::DerivedState,
                        file,
                        f.line,
                        format!(
                            "`derive(Serialize)` on `{name}` includes derived field `{}` \
                             whose type does not serialize as `Value::Null`",
                            f.name
                        ),
                    );
                }
            }
        }
    }
}

fn check_draw_budgets(table: &Table<'_>, out: &mut Vec<Finding>) {
    for ((ty, _), fns) in &table.methods {
        for (file, f) in fns {
            let Some(budget) = f.budget else {
                continue;
            };
            let mut stack = vec![(ty.to_string(), f.name.clone())];
            let mut reported = false;
            let (lo, hi) = eval(
                &f.tree,
                table,
                ty,
                budget,
                &mut stack,
                out,
                file,
                &mut reported,
            );
            if !reported && (lo, hi) != (budget, budget) {
                push(
                    out,
                    RuleId::RngDrawBudget,
                    file,
                    f.line,
                    format!(
                        "`{}` declares draw-budget({budget}) but its paths retire between \
                         {lo} and {hi} raw draws",
                        f.name
                    ),
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn eval(
    tree: &DrawTree,
    table: &Table<'_>,
    self_ty: &str,
    budget: u64,
    stack: &mut Vec<(String, String)>,
    out: &mut Vec<Finding>,
    file: &str,
    reported: &mut bool,
) -> (u64, u64) {
    match tree {
        DrawTree::Leaf { lo, hi, .. } => (*lo, *hi),
        DrawTree::Seq(children) => {
            let mut lo = 0u64;
            let mut hi = 0u64;
            for c in children {
                if let DrawTree::Balance { line } = c {
                    if hi > budget && !*reported {
                        push(
                            out,
                            RuleId::RngDrawBudget,
                            file,
                            *line,
                            format!(
                                "a path reaching this balancing `skip_raw` may already have \
                                 retired {hi} raw draws, exceeding the declared budget of \
                                 {budget}"
                            ),
                        );
                        *reported = true;
                    }
                    lo = budget;
                    hi = budget;
                    continue;
                }
                let (clo, chi) = eval(c, table, self_ty, budget, stack, out, file, reported);
                lo = (lo + clo).min(DRAW_CAP);
                hi = (hi + chi).min(DRAW_CAP);
            }
            (lo, hi)
        }
        DrawTree::Branch(arms) => {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for a in arms {
                let (alo, ahi) = eval(a, table, self_ty, budget, stack, out, file, reported);
                lo = lo.min(alo);
                hi = hi.max(ahi);
            }
            if arms.is_empty() {
                (0, 0)
            } else {
                (lo, hi)
            }
        }
        DrawTree::Balance { .. } => {
            // A balance outside a Seq (degenerate); treat as a top-up.
            (budget, budget)
        }
        DrawTree::Loop { body, line } => {
            let (blo, bhi) = eval(body, table, self_ty, budget, stack, out, file, reported);
            if bhi > 0 {
                if !*reported {
                    push(
                        out,
                        RuleId::RngDrawBudget,
                        file,
                        *line,
                        "RNG draws inside a loop cannot satisfy a fixed draw budget".to_string(),
                    );
                    *reported = true;
                }
                (blo, DRAW_CAP)
            } else {
                (0, 0)
            }
        }
        DrawTree::Call { name, .. } => {
            let resolved = table
                .methods
                .get(&(self_ty, name.as_str()))
                .and_then(|v| match v.as_slice() {
                    [one] => Some(*one),
                    _ => None,
                })
                .or_else(|| {
                    table
                        .by_name
                        .get(name.as_str())
                        .and_then(|v| match v.as_slice() {
                            [one] => Some(*one),
                            _ => None,
                        })
                });
            let Some((cfile, cf)) = resolved else {
                return (0, 0);
            };
            let key = (cf.ty.clone().unwrap_or_default(), cf.name.clone());
            if stack.contains(&key) {
                return (0, 0);
            }
            stack.push(key);
            let callee_ty = cf.ty.as_deref().unwrap_or("");
            let r = eval(
                &cf.tree, table, callee_ty, budget, stack, out, cfile, reported,
            );
            stack.pop();
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;
    use crate::rules::test_mask;

    fn facts_of(rel: &str, src: &str) -> FileFacts {
        let toks = lex(src);
        let (mask, _) = test_mask(&toks);
        let items = parse_items(src, &toks, &mask);
        extract_facts(rel, &toks, &items)
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let facts: Vec<FileFacts> = files.iter().map(|(rel, src)| facts_of(rel, src)).collect();
        let refs: Vec<&FileFacts> = facts.iter().collect();
        check(&refs)
    }

    #[test]
    fn tree_counts_if_else_chain() {
        let src = "fn f(&mut self) { let rng = &mut self.rng; \
                   if rng.f64() < 0.5 { } else if rng.f64() < 0.5 { } else { } }";
        let toks = lex(src);
        let (mask, _) = test_mask(&toks);
        let items = parse_items(src, &toks, &mask);
        let facts = extract_facts("crates/fleet/src/x.rs", &toks, &items);
        let table = build_table(&[]);
        let mut out = Vec::new();
        let mut reported = false;
        let (lo, hi) = eval(
            &facts.fns[0].tree,
            &table,
            "",
            9,
            &mut Vec::new(),
            &mut out,
            "f",
            &mut reported,
        );
        assert_eq!((lo, hi), (1, 2));
    }

    #[test]
    fn budget_ok_with_balance() {
        let findings = run(&[(
            "crates/fleet/src/k.rs",
            "/// glacsweb: draw-budget(3)\n\
             fn wake(&mut self) { let rng = &mut self.rng;\n\
               if rng.f64() < 0.5 { let _ = rng.normal(0.0, 1.0); }\n\
               rng.skip_raw(n - used);\n}",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != RuleId::RngDrawBudget),
            "{findings:?}"
        );
    }

    #[test]
    fn budget_overflow_at_balance_fires_once() {
        let findings = run(&[(
            "crates/fleet/src/k.rs",
            "/// glacsweb: draw-budget(1)\n\
             fn wake(&mut self) { let rng = &mut self.rng;\n\
               let _ = rng.f64(); let _ = rng.f64();\n\
               rng.skip_raw(n - used);\n}",
        )]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::RngDrawBudget)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn budget_mismatch_without_balance() {
        let findings = run(&[(
            "crates/fleet/src/k.rs",
            "/// glacsweb: draw-budget(2)\n\
             fn wake(&mut self) { let rng = &mut self.rng;\n\
               if c { let _ = rng.f64(); }\n}",
        )]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::RngDrawBudget)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("between 0 and 1"));
    }

    #[test]
    fn budget_resolves_self_calls() {
        let findings = run(&[(
            "crates/fleet/src/k.rs",
            "impl Site {\n\
               /// glacsweb: draw-budget(1)\n\
               fn wake(&mut self) { self.helper(); }\n\
               fn helper(&mut self) { let rng = &mut self.rng; let _ = rng.f64(); }\n\
             }",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != RuleId::RngDrawBudget),
            "{findings:?}"
        );
    }

    #[test]
    fn draws_in_loops_are_flagged() {
        let findings = run(&[(
            "crates/fleet/src/k.rs",
            "/// glacsweb: draw-budget(1)\n\
             fn wake(&mut self) { let rng = &mut self.rng;\n\
               while t < end { let _ = rng.f64(); }\n}",
        )]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::RngDrawBudget)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("loop"));
    }

    const MEMO_IMPLS: &str = "struct FooMemo { v: f64 }\n\
        impl PartialEq for FooMemo { fn eq(&self, _: &Self) -> bool { true } }\n\
        impl Serialize for FooMemo { fn to_value(&self) -> Value { Value::Null } }\n";

    #[test]
    fn coverage_flags_missing_serialize_field() {
        let findings = run(&[(
            "crates/power/src/r.rs",
            "struct Rail { a: u32, b: u32 }\n\
             impl Serialize for Rail { fn to_value(&self) -> Value { self.a.to_value() } }\n\
             impl Deserialize for Rail { fn from_value(v: &Value) -> R { Rail { a: x(v), b: y(v) } } }",
        )]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::SnapshotCoverage)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("`b`"), "{}", hits[0].message);
    }

    #[test]
    fn coverage_is_quiet_when_fields_are_covered() {
        let findings = run(&[(
            "crates/power/src/r.rs",
            "struct Rail { a: u32, memo_buf: Vec<f64> }\n\
             impl Serialize for Rail { fn to_value(&self) -> Value { self.a.to_value() } }\n\
             impl Deserialize for Rail { fn from_value(v: &Value) -> R { Rail { a: x(v), memo_buf: Vec::new() } } }",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != RuleId::SnapshotCoverage),
            "{findings:?}"
        );
    }

    #[test]
    fn derived_state_flags_memo_in_partial_eq() {
        let src = format!(
            "{MEMO_IMPLS}\n\
             struct Rail {{ a: u32, taper: FooMemo }}\n\
             impl Serialize for Rail {{ fn to_value(&self) -> Value {{ self.a.to_value() }} }}\n\
             impl PartialEq for Rail {{ fn eq(&self, o: &Self) -> bool {{ \
               self.a == o.a && self.taper == o.taper }} }}"
        );
        let findings = run(&[("crates/power/src/r.rs", &src)]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::DerivedState)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("taper"));
    }

    #[test]
    fn derived_state_flags_derive_partial_eq_without_neutral_eq() {
        let findings = run(&[(
            "crates/power/src/r.rs",
            "#[derive(PartialEq)]\nstruct S {\n    // glacsweb: derived-state\n    scratch: Vec<f64>,\n}",
        )]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::DerivedState)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
    }

    #[test]
    fn derived_state_trusts_macro_marked_types() {
        let findings = run(&[
            (
                "crates/env/src/c.rs",
                "struct StepCache { v: f64 }\nderived_state_serde!(StepCache);\n\
                 impl PartialEq for StepCache { fn eq(&self, _: &Self) -> bool { true } }",
            ),
            (
                "crates/fleet/src/s.rs",
                "#[derive(PartialEq, Serialize)]\nstruct Site { a: u32, ou_cache: StepCache }",
            ),
        ]);
        assert!(
            findings.iter().all(|f| f.rule != RuleId::DerivedState),
            "{findings:?}"
        );
    }

    #[test]
    fn memo_type_with_non_null_serialize_is_flagged() {
        let findings = run(&[(
            "crates/power/src/m.rs",
            "struct BarMemo { v: f64 }\n\
             impl Serialize for BarMemo { fn to_value(&self) -> Value { self.v.to_value() } }",
        )]);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == RuleId::DerivedState)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("BarMemo"));
    }

    #[test]
    fn non_lib_files_are_out_of_scope() {
        let findings = run(&[(
            "crates/power/tests/r.rs",
            "struct Rail { a: u32 }\n\
             impl Serialize for Rail { fn to_value(&self) -> Value { Value::Null } }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
