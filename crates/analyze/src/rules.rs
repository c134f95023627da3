//! The rule table: what is forbidden, where, and why.
//!
//! Every rule is scoped to *library* code of a named set of crates —
//! `#[cfg(test)]` modules, `tests/`, `examples/`, and `src/bin/` are
//! exempt, because a test asserting on wall-clock elapsed time or
//! indexing a fixture vector is fine. The scoping mirrors the invariants
//! the rules protect:
//!
//! * **determinism** (sim, env, core, sweep, obs, snapshot): the sweep engine
//!   promises byte-identical output at any thread count, and every
//!   experiment promises same-seed reproducibility — including the
//!   telemetry export. One `HashMap` iteration or one wall-clock read
//!   silently breaks both.
//! * **panic-freedom** (station, server, power, faults, link, obs,
//!   snapshot, service): the paper's field lesson is that the deployed system must never die
//!   unrecoverably; the simulated control paths hold themselves to the
//!   same bar so that fault-injection campaigns exercise recovery code,
//!   not unwinding.
//! * **numeric-safety** (power crate, station schedule/power-state math):
//!   battery and scheduling arithmetic must not truncate units through
//!   `as` casts or compare floats with `==`.
//! * **crate-hygiene** (every `src/lib.rs`): `#![forbid(unsafe_code)]`
//!   and `#![warn(missing_docs)]` are mandatory.
//! * **dead-pub** (every crate's library code): a bare `pub fn` that no
//!   other file names is public API without a caller (see
//!   [`semantic`](crate::semantic)).

use crate::lexer::{Tok, TokKind};

/// Identifies one rule of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Nondeterminism sources in deterministic simulation code.
    Determinism,
    /// Panicking constructs in always-up control paths.
    PanicFreedom,
    /// Truncating casts / float equality in unit math.
    NumericSafety,
    /// Allocation-happy constructs in per-substep hot paths.
    PerfHygiene,
    /// Missing mandatory crate-level attributes.
    CrateHygiene,
    /// Malformed or unused suppression ledger entries.
    SuppressionHygiene,
    /// Snapshot serde/equality impls missing named fields.
    SnapshotCoverage,
    /// Wake-path branches diverging from the declared RNG draw budget.
    RngDrawBudget,
    /// Memo/cache fields visible to equality or serialized non-null.
    DerivedState,
    /// Bare `pub fn`s of library code that no other file names.
    DeadPub,
}

impl RuleId {
    /// The kebab-case name used in diagnostics and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Determinism => "determinism",
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::NumericSafety => "numeric-safety",
            RuleId::PerfHygiene => "perf-hygiene",
            RuleId::CrateHygiene => "crate-hygiene",
            RuleId::SuppressionHygiene => "suppression-hygiene",
            RuleId::SnapshotCoverage => "snapshot-coverage",
            RuleId::RngDrawBudget => "rng-draw-budget",
            RuleId::DerivedState => "derived-state",
            RuleId::DeadPub => "dead-pub",
        }
    }

    /// All rules, in reporting order.
    pub const ALL: [RuleId; 10] = [
        RuleId::Determinism,
        RuleId::PanicFreedom,
        RuleId::NumericSafety,
        RuleId::PerfHygiene,
        RuleId::CrateHygiene,
        RuleId::SuppressionHygiene,
        RuleId::SnapshotCoverage,
        RuleId::RngDrawBudget,
        RuleId::DerivedState,
        RuleId::DeadPub,
    ];

    /// Parses a rule name as written in a suppression comment.
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// One-line description for reports.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::Determinism => {
                "no unordered-container iteration, wall clocks, ambient RNG, or \
                 environment reads in sim/env/core/sweep/obs/snapshot library code"
            }
            RuleId::PanicFreedom => {
                "no unwrap/expect/panic!/unreachable!/slice indexing in \
                 station/server/power/faults/link/obs/snapshot/service library code"
            }
            RuleId::NumericSafety => {
                "no integer `as` casts or float `==` in battery/power/schedule math"
            }
            RuleId::PerfHygiene => {
                "no `format!`, `.to_string()`, `.collect::<Vec<_>>()`, or \
                 `.clone()` in the env/power/event-scheduling/service hot paths"
            }
            RuleId::CrateHygiene => {
                "every crate must carry #![forbid(unsafe_code)] and #![warn(missing_docs)]"
            }
            RuleId::SuppressionHygiene => {
                "every `glacsweb: allow(...)` entry must name a real rule, carry a \
                 written reason, and actually suppress something"
            }
            RuleId::SnapshotCoverage => {
                "every named field of a GLACSNAP-codec type must appear in its \
                 hand-written Serialize, Deserialize, and PartialEq impls"
            }
            RuleId::RngDrawBudget => {
                "every branch of a `glacsweb: draw-budget(N)`-annotated fn must \
                 retire exactly N raw draws from its SimRng stream"
            }
            RuleId::DerivedState => {
                "memo/cache fields must serialize as Value::Null and stay \
                 invisible to PartialEq"
            }
            RuleId::DeadPub => {
                "every bare `pub fn` of a crate's library code must be named by \
                 some other file; otherwise delete it or drop the `pub`"
            }
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Set during ledger matching if a suppression covers this finding.
    pub suppressed: bool,
}

/// How a file is classified for rule scoping.
#[derive(Debug, Clone)]
pub struct FileScope {
    /// `Some("station")` for `crates/station/src/...`; `None` for the
    /// root facade and for top-level `tests/` / `examples/`.
    pub crate_name: Option<String>,
    /// `true` only for non-bin files under a `src/` directory — the code
    /// that other crates can link against.
    pub is_lib: bool,
    /// `true` for `src/lib.rs` of any workspace crate (hygiene scope).
    pub is_crate_root: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileScope {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, in_src, under) = match parts.as_slice() {
        ["crates", name, "src", rest @ ..] => (Some((*name).to_string()), true, rest.to_vec()),
        ["crates", name, ..] => (Some((*name).to_string()), false, Vec::new()),
        ["src", rest @ ..] => (None, true, rest.to_vec()),
        _ => (None, false, Vec::new()),
    };
    let is_bin = under.first() == Some(&"bin");
    FileScope {
        crate_name,
        is_lib: in_src && !is_bin,
        is_crate_root: in_src && !is_bin && under == ["lib.rs"],
    }
}

/// Crates whose library code must be deterministic. The obs crate is in
/// scope because telemetry feeds byte-identity checks: a recorder that
/// consulted wall time or hashed-by-address maps would break them.
pub const DETERMINISM_CRATES: &[&str] = &["sim", "env", "core", "sweep", "obs", "snapshot"];
/// Crates whose library code must be panic-free. The snapshot crate is in
/// scope because checkpoints are parsed from disk: any byte sequence must
/// come back as a typed `SnapshotError`, never a panic. The service crate
/// is in scope because it parses hostile bytes off a socket: a panicking
/// worker thread would silently shrink the pool until the server hangs.
pub const PANIC_CRATES: &[&str] = &[
    "station", "server", "power", "faults", "link", "obs", "snapshot", "service",
];

/// `true` if the numeric-safety rule applies to this file: all of the
/// power crate's unit math, plus the station's schedule and power-state
/// tables (the Table II threshold logic).
fn numeric_scope(rel: &str) -> bool {
    rel.starts_with("crates/power/src/")
        || rel == "crates/station/src/schedule.rs"
        || rel == "crates/station/src/power_state.rs"
}

/// `true` if the perf-hygiene rule applies to this file: the modules the
/// O(events) kernel rewrite made allocation-free, where every substep of
/// every simulated half-hour executes — plus the fleet event kernel,
/// whose wake handler runs a million times per simulated fleet-month,
/// and the station's daily window path (the probe fetch protocol and
/// firmware, the through-ice radio, the CF card, the inter-processor
/// bus and the upload queue), which runs for every station every day. A
/// stray `format!` or defensive `.clone()` here is a per-tick heap
/// allocation that whole-run throughput hides until it has already
/// regressed. The service crate's request→response path is held to the
/// same bar: its steady state is allocation-free by construction
/// (borrowed `Request<'a>` slices, reused response buffers), and this
/// rule is what keeps casual allocations from creeping back in. So is
/// the replay client that measures it (responses parsed in place,
/// transcript lines in one arena) and the MD5 the §VI update check runs
/// three times per station. So are the §III state rules in the
/// server's `state_sync.rs`, which every state report and override
/// query runs. So is the telemetry store, whose counter and histogram
/// calls run inside every observed station window.
fn perf_scope(rel: &str) -> bool {
    rel.starts_with("crates/env/src/")
        || rel.starts_with("crates/power/src/")
        || rel == "crates/sim/src/event.rs"
        || rel == "crates/fleet/src/kernel.rs"
        || rel == "crates/probe/src/protocol.rs"
        || rel == "crates/probe/src/firmware.rs"
        || rel == "crates/link/src/probe_radio.rs"
        || rel == "crates/hw/src/storage.rs"
        || rel == "crates/hw/src/bus.rs"
        || rel == "crates/station/src/data.rs"
        || rel == "crates/station/src/md5.rs"
        || rel == "crates/service/src/http.rs"
        || rel == "crates/service/src/core.rs"
        || rel == "crates/service/src/load.rs"
        || rel == "crates/server/src/state_sync.rs"
        || rel == "crates/obs/src/memory.rs"
}

fn in_scope(scope: &FileScope, crates: &[&str]) -> bool {
    scope.is_lib
        && scope
            .crate_name
            .as_deref()
            .is_some_and(|c| crates.contains(&c))
}

/// Identifiers that, appearing at all in deterministic code, break the
/// same-seed contract. `HashMap`/`HashSet` are banned outright (not just
/// their iteration) because the cheap lexical check cannot see through a
/// binding to its later iteration — and the ordered containers are never
/// slower at the sizes this workspace uses.
const NONDETERMINISTIC_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "unordered container (iteration order varies per process); use BTreeMap",
    ),
    (
        "HashSet",
        "unordered container (iteration order varies per process); use BTreeSet",
    ),
    ("Instant", "wall-clock read in simulated time"),
    ("SystemTime", "wall-clock read in simulated time"),
    (
        "thread_rng",
        "ambient OS-seeded RNG; use a seeded SimRng stream",
    ),
    (
        "from_entropy",
        "ambient OS-seeded RNG; use a seeded SimRng stream",
    ),
    ("OsRng", "ambient OS-seeded RNG; use a seeded SimRng stream"),
    (
        "available_parallelism",
        "machine-dependent value; results must not depend on host core count",
    ),
];

/// Integer target types of an `as` cast that can truncate or wrap.
const INT_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Keywords before `[` that make the bracket an array literal or type,
/// not an indexing expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "in", "if", "else", "match", "break", "continue", "move", "mut", "ref", "let",
    "static", "const", "as", "dyn", "impl", "for", "while", "loop", "where", "fn", "type", "use",
    "pub", "crate", "super", "mod", "enum", "struct", "trait", "union", "extern", "unsafe",
    "async", "await", "yield", "box",
];

/// Computes, per token, whether it falls inside a `#[cfg(test)]` /
/// `#[test]` item. Returns the mask plus the (start, end) line ranges of
/// the masked regions so the suppression scanner can skip them too.
pub fn test_mask(toks: &[Tok]) -> (Vec<bool>, Vec<(u32, u32)>) {
    let mut mask = vec![false; toks.len()];
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let attr_end = match balanced(toks, i + 1, "[", "]") {
                Some(e) => e,
                None => break,
            };
            if attr_is_test(&toks[i + 2..attr_end]) {
                // Mask this attribute, any further attributes, and the
                // item that follows (to its `;` or matching `}`).
                let start = i;
                let mut j = attr_end + 1;
                while j < toks.len()
                    && toks[j].is_punct("#")
                    && toks.get(j + 1).is_some_and(|t| t.is_punct("["))
                {
                    match balanced(toks, j + 1, "[", "]") {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                let mut end = j;
                while end < toks.len() {
                    if toks[end].is_punct(";") {
                        break;
                    }
                    if toks[end].is_punct("{") {
                        end = balanced(toks, end, "{", "}").unwrap_or(toks.len() - 1);
                        break;
                    }
                    end += 1;
                }
                let end = end.min(toks.len() - 1);
                for m in mask.iter_mut().take(end + 1).skip(start) {
                    *m = true;
                }
                ranges.push((toks[start].line, toks[end].line));
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    (mask, ranges)
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold the `open_p` punct), honouring nesting.
fn balanced(toks: &[Tok], open: usize, open_p: &str, close_p: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_p) {
            depth += 1;
        } else if t.is_punct(close_p) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// `true` if attribute body tokens mark a test item: `#[test]`, or any
/// `cfg(...)` whose predicate mentions `test` (covers `cfg(test)` and
/// `cfg(any(test, ...))`).
fn attr_is_test(body: &[Tok]) -> bool {
    match body.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => body.iter().skip(1).any(|t| t.is_ident("test")),
        _ => false,
    }
}

/// Runs every token-level rule over one file.
pub fn check_tokens(rel: &str, toks: &[Tok], mask: &[bool]) -> Vec<Finding> {
    let scope = classify(rel);
    let mut out = Vec::new();
    let push = |out: &mut Vec<Finding>, rule: RuleId, line: u32, message: String| {
        out.push(Finding {
            rule,
            file: rel.to_string(),
            line,
            message,
            suppressed: false,
        });
    };

    let determinism = in_scope(&scope, DETERMINISM_CRATES);
    let panic_free = in_scope(&scope, PANIC_CRATES);
    let numeric = scope.is_lib && numeric_scope(rel);
    let perf = scope.is_lib && perf_scope(rel);

    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let next = toks
            .get(i + 1)
            .filter(|_| !mask.get(i + 1).copied().unwrap_or(true));
        let prev = if i > 0 { toks.get(i - 1) } else { None };

        if determinism && t.kind == TokKind::Ident {
            if let Some((_, why)) = NONDETERMINISTIC_IDENTS
                .iter()
                .find(|(name, _)| t.text == *name)
            {
                push(
                    &mut out,
                    RuleId::Determinism,
                    t.line,
                    format!("`{}`: {why}", t.text),
                );
            }
            // `env::var` and friends.
            if t.text == "env"
                && next.is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| {
                    matches!(n.text.as_str(), "var" | "var_os" | "vars" | "vars_os")
                        && n.kind == TokKind::Ident
                })
            {
                push(
                    &mut out,
                    RuleId::Determinism,
                    t.line,
                    format!(
                        "`env::{}`: environment reads make results host-dependent",
                        toks[i + 2].text
                    ),
                );
            }
        }

        if panic_free {
            // `.unwrap(` / `.expect(` — exact method names only, so
            // `unwrap_or_else` and `expect_err` do not fire.
            if t.is_punct(".")
                && next.is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
            {
                push(
                    &mut out,
                    RuleId::PanicFreedom,
                    toks[i + 1].line,
                    format!(
                        "`.{}()` can panic; return a typed error or document the \
                         invariant in the suppression ledger",
                        toks[i + 1].text
                    ),
                );
            }
            // Panicking macros.
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && next.is_some_and(|n| n.is_punct("!"))
            {
                push(
                    &mut out,
                    RuleId::PanicFreedom,
                    t.line,
                    format!(
                        "`{}!` aborts the control path; convert to a typed error",
                        t.text
                    ),
                );
            }
            // Indexing: `[` whose previous token is an expression tail.
            if t.is_punct("[") {
                let indexing = prev.is_some_and(|p| match p.kind {
                    TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                    TokKind::Int => true, // tuple field then index: `x.0[i]`
                    TokKind::Punct => p.text == ")" || p.text == "]" || p.text == "?",
                    _ => false,
                });
                if indexing {
                    push(
                        &mut out,
                        RuleId::PanicFreedom,
                        t.line,
                        "slice/array indexing can panic; use .get()/.get_mut(), \
                         iterators, or pattern matching"
                            .to_string(),
                    );
                }
            }
        }

        if perf {
            // `format!(...)` — a fresh String per call.
            if t.is_ident("format") && next.is_some_and(|n| n.is_punct("!")) {
                push(
                    &mut out,
                    RuleId::PerfHygiene,
                    t.line,
                    "`format!` allocates a String on every substep; precompute \
                     the text or write into a reused buffer"
                        .to_string(),
                );
            }
            // `.to_string()` — a fresh String per call (the service hot
            // path writes into reused buffers instead).
            if t.is_punct(".")
                && next.is_some_and(|n| n.is_ident("to_string"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
            {
                push(
                    &mut out,
                    RuleId::PerfHygiene,
                    toks[i + 1].line,
                    "`.to_string()` allocates a String on every call; borrow \
                     the &str or append into a reused buffer"
                        .to_string(),
                );
            }
            // `.collect::<Vec<...>>` — materializing an iterator.
            if t.is_punct(".")
                && next.is_some_and(|n| n.is_ident("collect"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 3).is_some_and(|n| n.is_punct("<"))
                && toks.get(i + 4).is_some_and(|n| n.is_ident("Vec"))
            {
                push(
                    &mut out,
                    RuleId::PerfHygiene,
                    toks[i + 1].line,
                    "`.collect::<Vec<_>>()` materializes a fresh Vec; fold the \
                     iterator directly or reuse a scratch buffer"
                        .to_string(),
                );
            }
            // `.clone()` — exact method name, so `.cloned()` on iterators
            // does not fire.
            if t.is_punct(".")
                && next.is_some_and(|n| n.is_ident("clone"))
                && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
            {
                push(
                    &mut out,
                    RuleId::PerfHygiene,
                    toks[i + 1].line,
                    "`.clone()` in a hot path copies per substep; borrow, \
                     Copy, or hoist the copy out of the loop"
                        .to_string(),
                );
            }
        }

        if numeric {
            // `as <int>` casts.
            if t.is_ident("as")
                && next.is_some_and(|n| {
                    n.kind == TokKind::Ident && INT_CAST_TARGETS.contains(&n.text.as_str())
                })
            {
                push(
                    &mut out,
                    RuleId::NumericSafety,
                    t.line,
                    format!(
                        "`as {}` can truncate or wrap; use From/TryFrom or a \
                         checked conversion",
                        toks[i + 1].text
                    ),
                );
            }
            // Float equality against a literal.
            if (t.is_punct("==") || t.is_punct("!="))
                && (prev.is_some_and(|p| p.kind == TokKind::Float)
                    || toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float))
            {
                push(
                    &mut out,
                    RuleId::NumericSafety,
                    t.line,
                    format!(
                        "float `{}` comparison; compare against an epsilon instead",
                        t.text
                    ),
                );
            }
        }
    }

    if scope.is_crate_root {
        for (attr, inner) in [("forbid", "unsafe_code"), ("warn", "missing_docs")] {
            let present = toks.windows(7).any(|w| {
                w[0].is_punct("#")
                    && w[1].is_punct("!")
                    && w[2].is_punct("[")
                    && w[3].is_ident(attr)
                    && w[4].is_punct("(")
                    && w[5].is_ident(inner)
                    && w[6].is_punct(")")
            });
            if !present {
                push(
                    &mut out,
                    RuleId::CrateHygiene,
                    1,
                    format!("crate root is missing `#![{attr}({inner})]`"),
                );
            }
        }
    }

    out
}
