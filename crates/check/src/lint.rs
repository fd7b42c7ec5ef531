//! `spk_lint`: repo-invariant lints that clippy cannot express,
//! implemented as a hand-rolled line scanner (no syn — the offline
//! build has no proc-macro dependencies to lean on).
//!
//! # Rule catalogue
//!
//! | rule | invariant |
//! |------|-----------|
//! | `safety-comment` | every `unsafe` block / `unsafe impl` is preceded (≤ 10 lines, skipping blanks/attributes/sibling impls) or trailed on the same line by a `// SAFETY:` comment |
//! | `instant-now` | no `Instant::now()` outside `crates/obs` (timing flows through `spk_obs` spans / `spk_obs::now`); `crates/shims`, `crates/bench`, tests and benches are exempt |
//! | `no-unwrap` | no `.unwrap()` / `.expect(` in `crates/server/src` outside `#[cfg(test)]` modules — request paths must degrade, not abort |
//! | `shim-parity` | every `rand::` / `rayon::` / `proptest::` item referenced in the workspace exists in the matching `crates/shims` crate (the Standing-constraints footgun, caught with a readable message before rustc's) |
//! | `bench-schema` | every checked-in `BENCH_*.json` carries the `spk_obs.run_report.v1` schema tag |
//!
//! A violation can be waived with a `spk-lint: allow(<rule>)` comment
//! on the same line or the line above — waivers are themselves
//! greppable, which is the point.
//!
//! The scanner strips comments and blanks string contents before
//! matching (so `".unwrap()"` inside a string literal never fires),
//! handling nested block comments, raw strings, and the char-literal /
//! lifetime ambiguity.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see the module docs).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Names of all rules, for diagnostics/docs.
pub const RULES: [&str; 5] = [
    "safety-comment",
    "instant-now",
    "no-unwrap",
    "shim-parity",
    "bench-schema",
];

// ---------------------------------------------------------------------
// Source model: one scanned line = code text (strings blanked) +
// comment text.
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct ScanLine {
    /// Code with comments removed and string/char contents blanked
    /// (delimiters kept, so token shapes survive).
    code: String,
    /// Concatenated comment text on the line (line + block pieces).
    comment: String,
}

#[derive(Clone, Copy, PartialEq)]
enum ScanState {
    Normal,
    LineComment,
    Block(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Splits Rust source into per-line code/comment channels. This is a
/// lexer-lite: enough fidelity that the substring rules below cannot
/// be fooled by comments or string contents.
fn scan_source(src: &str) -> Vec<ScanLine> {
    let mut lines = Vec::new();
    let mut cur = ScanLine::default();
    let mut state = ScanState::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            if state == ScanState::LineComment {
                state = ScanState::Normal;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            ScanState::Normal => match c {
                '/' if next == Some('/') => {
                    state = ScanState::LineComment;
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = ScanState::Block(1);
                    i += 2;
                }
                '"' => {
                    cur.code.push('"');
                    state = ScanState::Str;
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // r"..." / r#"..."# / br#"..."# — count hashes.
                    let mut j = i + 1;
                    if chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    cur.code.push('"');
                    state = ScanState::RawStr(hashes);
                    i = j + 1;
                }
                '\'' => {
                    // Lifetime ('a) vs char literal ('x'): a lifetime
                    // is a quote + ident NOT closed by another quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphanumeric() || n == '_')
                        && chars.get(i + 2) != Some(&'\'');
                    if is_lifetime {
                        cur.code.push('\'');
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        state = ScanState::Char;
                        i += 1;
                    }
                }
                _ => {
                    cur.code.push(c);
                    i += 1;
                }
            },
            ScanState::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            ScanState::Block(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        ScanState::Normal
                    } else {
                        ScanState::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = ScanState::Block(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            ScanState::Str => match c {
                '\\' => {
                    i += 2;
                }
                '"' => {
                    cur.code.push('"');
                    state = ScanState::Normal;
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            },
            ScanState::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h as usize) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        state = ScanState::Normal;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                i += 1;
            }
            ScanState::Char => match c {
                '\\' => {
                    i += 2;
                }
                '\'' => {
                    cur.code.push('\'');
                    state = ScanState::Normal;
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            },
        }
    }
    lines.push(cur);
    lines
}

/// `r"`, `r#`, `b"`, `br"`, `br#` at position `i` (and not part of an
/// identifier like `for` or `barrier`).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'r') {
            j += 1;
        } else {
            return chars.get(j) == Some(&'"');
        }
    } else if chars[j] == 'r' {
        j += 1;
    } else {
        return false;
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Is line `idx` (0-based) waived for `rule`? Checks the line's own
/// comment and the full previous line.
fn waived(lines: &[ScanLine], idx: usize, rule: &str) -> bool {
    let needle = format!("spk-lint: allow({rule})");
    if lines[idx].comment.contains(&needle) {
        return true;
    }
    idx > 0 && lines[idx - 1].comment.contains(&needle)
}

// ---------------------------------------------------------------------
// Directory walk
// ---------------------------------------------------------------------

fn walk_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn word_at(code: &str, pos: usize, word: &str) -> bool {
    let bytes = code.as_bytes();
    let end = pos + word.len();
    if pos > 0 {
        let prev = bytes[pos - 1] as char;
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    if let Some(&after) = bytes.get(end) {
        let after = after as char;
        if after.is_alphanumeric() || after == '_' {
            return false;
        }
    }
    true
}

/// Finds standalone occurrences of `word` in `code` (token-boundary
/// checked both sides).
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = code[from..].find(word) {
        let pos = from + off;
        if word_at(code, pos, word) {
            return Some(pos);
        }
        from = pos + word.len();
    }
    None
}

/// `safety-comment`: every `unsafe` block or `unsafe impl` must carry
/// a `SAFETY:` comment — same line, or within the 10 preceding lines
/// (blank lines, attributes, and sibling `unsafe impl` lines don't
/// break the association, so one comment can cover a Send+Sync pair
/// only when it sits directly above both; per-impl comments are the
/// convention this rule pushes toward).
fn rule_safety_comment(file: &str, lines: &[ScanLine], out: &mut Vec<Violation>) {
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = find_word(&line.code, "unsafe") else {
            continue;
        };
        let after = line.code[pos + "unsafe".len()..].trim_start();
        // `unsafe fn` declarations document their contract in rustdoc
        // (`# Safety`); the block-level rule targets *uses*.
        if after.starts_with("fn") {
            continue;
        }
        let what = if after.starts_with("impl") {
            "unsafe impl"
        } else {
            "unsafe block"
        };
        if line.comment.contains("SAFETY:") {
            continue;
        }
        let mut found = false;
        for back in (0..idx).rev().take(10) {
            let prev = &lines[back];
            let code = prev.code.trim();
            if prev.comment.contains("SAFETY:") {
                found = true;
                break;
            }
            let skippable = code.is_empty()
                || code.starts_with("#[")
                || code.starts_with("#![")
                || (!prev.comment.is_empty() && code.is_empty())
                || find_word(code, "unsafe").is_some();
            if !skippable {
                break;
            }
        }
        if !found && !waived(lines, idx, "safety-comment") {
            out.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: "safety-comment",
                message: format!("{what} without a preceding `// SAFETY:` comment justifying it"),
            });
        }
    }
}

/// `instant-now`: timing flows through `crates/obs` (spans or
/// `spk_obs::now()`); everything else calling `Instant::now()`
/// directly bypasses the observability layer's single clock.
fn rule_instant_now(file: &str, lines: &[ScanLine], out: &mut Vec<Violation>) {
    let exempt = file.starts_with("crates/obs/")
        || file.starts_with("crates/shims/")
        || file.starts_with("crates/bench/")
        || file.contains("/tests/")
        || file.contains("/benches/");
    if exempt {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.code.contains("Instant::now") && !waived(lines, idx, "instant-now") {
            out.push(Violation {
                file: file.to_string(),
                line: idx + 1,
                rule: "instant-now",
                message: "Instant::now() outside crates/obs — use spk_obs::now() or a span \
                          so timing stays on the observability clock"
                    .to_string(),
            });
        }
    }
}

/// `no-unwrap`: `spk_server` request paths must not abort. Test
/// modules (`#[cfg(test)] mod …`) are skipped by brace tracking.
fn rule_no_unwrap(file: &str, lines: &[ScanLine], out: &mut Vec<Violation>) {
    if !file.starts_with("crates/server/src/") {
        return;
    }
    let mut in_test_mod = false;
    let mut pending_cfg_test = false;
    let mut depth: i64 = 0;
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if !in_test_mod {
            if code.contains("#[cfg(test)]") {
                pending_cfg_test = true;
            } else if pending_cfg_test {
                if find_word(code, "mod").is_some() {
                    in_test_mod = true;
                    pending_cfg_test = false;
                    depth = 0;
                } else if !code.trim().is_empty() {
                    pending_cfg_test = false;
                }
            }
        }
        if in_test_mod {
            depth += code.matches('{').count() as i64;
            depth -= code.matches('}').count() as i64;
            if depth <= 0 && code.contains('}') {
                in_test_mod = false;
            }
            continue;
        }
        for pat in [".unwrap()", ".expect("] {
            if code.contains(pat) && !waived(lines, idx, "no-unwrap") {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: "no-unwrap",
                    message: format!(
                        "`{pat}` in a spk_server non-test path — request handling must \
                         degrade (return an error / count a metric), not abort the worker"
                    ),
                });
            }
        }
    }
}

// ---- shim parity ----------------------------------------------------

const SHIM_CRATES: [&str; 3] = ["rand", "rayon", "proptest"];

/// Collects the public surface of one shim crate: item names, macro
/// names, re-exports, and module file stems.
fn shim_surface(shim_src: &Path) -> io::Result<BTreeSet<String>> {
    let mut names = BTreeSet::new();
    let mut files = Vec::new();
    walk_rs_files(shim_src, &mut files)?;
    for path in &files {
        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
            if stem != "lib" && stem != "main" {
                names.insert(stem.to_string());
            }
        }
        let src = fs::read_to_string(path)?;
        for line in scan_source(&src) {
            let code = line.code.trim();
            for prefix in [
                "pub fn ",
                "pub struct ",
                "pub enum ",
                "pub trait ",
                "pub mod ",
                "pub type ",
                "pub const ",
                "pub static ",
                "macro_rules! ",
                "pub(crate) fn ",
            ] {
                if let Some(rest) = code.strip_prefix(prefix) {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() {
                        names.insert(name);
                    }
                }
            }
            if let Some(rest) = code.strip_prefix("pub use ") {
                // `pub use path::{A, B as C, D};` — every exposed name.
                let rest = rest.trim_end_matches(';');
                let items: &str = match rest.rfind('{') {
                    Some(open) => rest[open + 1..].trim_end_matches('}'),
                    None => rest.rsplit("::").next().unwrap_or(rest),
                };
                for item in items.split(',') {
                    let item = item.trim();
                    let exposed = match item.rsplit(" as ").next() {
                        Some(alias) => alias,
                        None => item,
                    };
                    let name: String = exposed
                        .trim()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    if !name.is_empty() && name != "self" {
                        names.insert(name);
                    }
                }
            }
        }
    }
    Ok(names)
}

/// Extracts the first path segment(s) referenced after `crate_name::`
/// in a line of code, expanding one level of `{...}` groups.
fn referenced_items(code: &str, crate_name: &str) -> Vec<String> {
    let needle = format!("{crate_name}::");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find(&needle) {
        let pos = from + off;
        if !word_at(code, pos, crate_name) {
            from = pos + needle.len();
            continue;
        }
        let rest = &code[pos + needle.len()..];
        if let Some(stripped) = rest.strip_prefix('{') {
            for item in stripped.split(['}', ';']).next().unwrap_or("").split(',') {
                let seg: String = item
                    .trim()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !seg.is_empty() && seg != "self" {
                    out.push(seg);
                }
            }
        } else {
            let seg: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !seg.is_empty() {
                out.push(seg);
            }
        }
        from = pos + needle.len();
    }
    out
}

/// `shim-parity`: references to shim crates must resolve against the
/// shim's actual surface — with a message pointing at the Standing
/// constraint, instead of rustc's "unresolved import" an hour later.
fn rule_shim_parity(
    root: &Path,
    files: &[(String, Vec<ScanLine>)],
    out: &mut Vec<Violation>,
) -> io::Result<()> {
    for crate_name in SHIM_CRATES {
        let shim_src = root.join("crates/shims").join(crate_name).join("src");
        if !shim_src.is_dir() {
            continue;
        }
        let surface = shim_surface(&shim_src)?;
        for (file, lines) in files {
            if file.starts_with("crates/shims/") {
                continue;
            }
            for (idx, line) in lines.iter().enumerate() {
                for item in referenced_items(&line.code, crate_name) {
                    if !surface.contains(&item) && !waived(lines, idx, "shim-parity") {
                        out.push(Violation {
                            file: file.clone(),
                            line: idx + 1,
                            rule: "shim-parity",
                            message: format!(
                                "`{crate_name}::{item}` is not provided by \
                                 crates/shims/{crate_name} — the offline shims only carry \
                                 the subset the workspace uses (see Standing constraints \
                                 in ROADMAP.md); extend the shim first"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// `bench-schema`: checked-in bench baselines must be v1 run reports
/// (obs-check validates structure in CI; this catches hand-edited or
/// legacy files before that).
fn rule_bench_schema(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let body = fs::read_to_string(entry.path())?;
            if !body.contains("spk_obs.run_report.v1") {
                out.push(Violation {
                    file: name.clone(),
                    line: 1,
                    rule: "bench-schema",
                    message: "checked-in bench baseline lacks the `spk_obs.run_report.v1` \
                              schema tag — regenerate it with the bench's JSON writer"
                        .to_string(),
                });
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs every rule over the workspace rooted at `root` (the directory
/// containing the workspace `Cargo.toml`).
pub fn run(root: &Path) -> io::Result<LintReport> {
    let mut paths = Vec::new();
    walk_rs_files(root, &mut paths)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = fs::read_to_string(path)?;
        files.push((rel(root, path), scan_source(&src)));
    }
    let mut violations = Vec::new();
    for (file, lines) in &files {
        rule_safety_comment(file, lines, &mut violations);
        rule_instant_now(file, lines, &mut violations);
        rule_no_unwrap(file, lines, &mut violations);
    }
    rule_shim_parity(root, &files, &mut violations)?;
    rule_bench_schema(root, &mut violations)?;
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintReport {
        violations,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<ScanLine> {
        scan_source(src)
    }

    #[test]
    fn scanner_strips_comments_and_strings() {
        let src = "let x = \"// not a comment .unwrap()\"; // real comment\n";
        let scanned = lines(src);
        assert!(!scanned[0].code.contains("unwrap"));
        assert!(scanned[0].comment.contains("real comment"));
    }

    #[test]
    fn scanner_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(s: &'a str) -> &'a str { s }\nlet r = r#\"unsafe { }\"#;\n";
        let scanned = lines(src);
        assert!(scanned[0].code.contains("'a"));
        assert!(!scanned[1].code.contains("unsafe"));
    }

    #[test]
    fn scanner_handles_nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let y = 1;\n";
        let scanned = lines(src);
        assert!(scanned[0].code.contains("let y"));
        assert!(!scanned[0].code.contains("outer"));
    }

    #[test]
    fn safety_rule_fires_and_respects_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        let mut v = Vec::new();
        rule_safety_comment("x.rs", &lines(bad), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");

        let good = "// SAFETY: g has no invariants here\nfn f() { unsafe { g() } }\n";
        let mut v = Vec::new();
        rule_safety_comment("x.rs", &lines(good), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_rule_skips_unsafe_fn_decl() {
        let src = "unsafe fn alloc(&self) {}\n";
        let mut v = Vec::new();
        rule_safety_comment("x.rs", &lines(src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn no_unwrap_skips_test_mod_and_unwrap_or() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() { None::<u32>.unwrap(); }\n}\n";
        let mut v = Vec::new();
        rule_no_unwrap("crates/server/src/service.rs", &lines(src), &mut v);
        assert!(v.is_empty(), "{v:?}");

        let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let mut v = Vec::new();
        rule_no_unwrap("crates/server/src/service.rs", &lines(bad), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn waiver_suppresses() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
                   // spk-lint: allow(no-unwrap)\n  x.unwrap()\n}\n";
        let mut v = Vec::new();
        rule_no_unwrap("crates/server/src/service.rs", &lines(src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn referenced_items_expands_groups() {
        let items = referenced_items("use rand::{Rng, SeedableRng};", "rand");
        assert_eq!(items, vec!["Rng".to_string(), "SeedableRng".to_string()]);
        let items = referenced_items("let r = rand::rngs::StdRng::seed_from_u64(1);", "rand");
        assert_eq!(items, vec!["rngs".to_string()]);
    }
}
