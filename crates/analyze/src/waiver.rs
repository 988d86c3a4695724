//! `analyze.toml` — span-pinned waivers with content hashes.
//!
//! A waiver grants one finding at one location, and only while the
//! flagged line's content is unchanged:
//!
//! ```toml
//! [[waiver]]
//! lint = "lossy-cast"
//! path = "crates/linalg/src/matrix.rs"
//! line = 42
//! hash = "9f8e7d6c5b4a3f21"          # content hash from the diagnostic
//! reason = "dims come from Table::shape, bounded by construction"
//! ```
//!
//! All five keys are required and `reason` must be a real justification
//! (non-empty, not a `TODO`). Staleness is two-sided and fatal:
//!
//! * a finding whose waiver hash no longer matches the line text means
//!   the code changed under the waiver — the waiver is reported stale
//!   and the finding stands;
//! * a waiver that matches no finding at all means the code it excused
//!   moved or disappeared — reported stale so dead waivers cannot
//!   accumulate and silently excuse future findings.
//!
//! The hash comes straight off the diagnostic (`--format json` emits
//! it, as does `--emit-waivers`), so pinning a reviewed finding is
//! copy-paste, not archaeology.
//!
//! The env-var registry lives in the same file: every
//! `std::env::var("PERFPREDICT_*")` read in the workspace must match a
//! declared `[[env]]` entry with a one-line doc string, so runtime
//! knobs cannot accumulate undocumented:
//!
//! ```toml
//! [[env]]
//! name = "PERFPREDICT_LOG"
//! doc = "console telemetry verbosity: off / info / debug (unset means off)"
//! ```
//!
//! The `env-registry` pass enforces both directions (see
//! [`crate::index`]): an undeclared read is a finding at the read site,
//! and a declared entry no process reads is stale, exactly like a
//! waiver matching no finding.
//!
//! The parser is a deliberate TOML subset (`[[waiver]]`/`[[env]]`
//! tables with string/integer scalars and `#` comments) — enough for
//! this file format, zero dependencies, and strict about anything it
//! does not understand.

use fault::{Error, Result};

/// One parsed waiver entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub lint: String,
    pub path: String,
    pub line: usize,
    pub hash: String,
    pub reason: String,
    /// Line in `analyze.toml` where this entry starts (for messages).
    pub defined_at: usize,
}

/// One declared environment variable from the `[[env]]` registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvDecl {
    pub name: String,
    pub doc: String,
    /// Line in `analyze.toml` where this entry starts (for messages).
    pub defined_at: usize,
}

/// Everything `analyze.toml` configures.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub waivers: Vec<Waiver>,
    pub envs: Vec<EnvDecl>,
}

/// Parse the waiver file text into waivers only — the historical
/// surface, kept for callers that lint ad-hoc file lists where the env
/// registry does not apply.
pub fn parse(text: &str, source_name: &str) -> Result<Vec<Waiver>> {
    parse_config(text, source_name).map(|c| c.waivers)
}

/// Parse the full config: `[[waiver]]` and `[[env]]` tables. Strict:
/// unknown keys, missing keys, empty/TODO reasons and docs, and
/// malformed lines are `Error::InvalidInput`.
pub fn parse_config(text: &str, source_name: &str) -> Result<Config> {
    let mut config = Config::default();
    let mut current: Option<Partial> = None;
    let finish = |p: Partial, config: &mut Config| -> Result<()> {
        match p {
            Partial::Waiver(w) => config.waivers.push(w.finish(source_name)?),
            Partial::Env(e) => config.envs.push(e.finish(source_name)?),
        }
        Ok(())
    };
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[waiver]]" || line == "[[env]]" {
            if let Some(p) = current.take() {
                finish(p, &mut config)?;
            }
            current = Some(if line == "[[waiver]]" {
                Partial::Waiver(PartialWaiver::new(lineno))
            } else {
                Partial::Env(PartialEnv::new(lineno))
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(Error::invalid(format!(
                "{source_name}:{lineno}: expected `key = value`, `[[waiver]]`, or `[[env]]`, \
                 got `{line}`"
            )));
        };
        let Some(p) = current.as_mut() else {
            return Err(Error::invalid(format!(
                "{source_name}:{lineno}: `{}` before the first [[waiver]]/[[env]] table",
                key.trim()
            )));
        };
        match p {
            Partial::Waiver(w) => w.set(key.trim(), value.trim(), source_name, lineno)?,
            Partial::Env(e) => e.set(key.trim(), value.trim(), source_name, lineno)?,
        }
    }
    if let Some(p) = current.take() {
        finish(p, &mut config)?;
    }
    Ok(config)
}

enum Partial {
    Waiver(PartialWaiver),
    Env(PartialEnv),
}

#[derive(Default)]
struct PartialEnv {
    defined_at: usize,
    name: Option<String>,
    doc: Option<String>,
}

impl PartialEnv {
    fn new(defined_at: usize) -> PartialEnv {
        PartialEnv {
            defined_at,
            ..PartialEnv::default()
        }
    }

    fn set(&mut self, key: &str, value: &str, src: &str, lineno: usize) -> Result<()> {
        let unquote = |v: &str| -> Result<String> {
            let inner = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| {
                    Error::invalid(format!("{src}:{lineno}: `{key}` must be a quoted string"))
                })?;
            Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
        };
        match key {
            "name" => self.name = Some(unquote(value)?),
            "doc" => self.doc = Some(unquote(value)?),
            other => {
                return Err(Error::invalid(format!(
                    "{src}:{lineno}: unknown env key `{other}` (expected name/doc)"
                )))
            }
        }
        Ok(())
    }

    fn finish(self, src: &str) -> Result<EnvDecl> {
        let at = self.defined_at;
        let missing = |k: &str| {
            Error::invalid(format!(
                "{src}:{at}: env entry is missing required key `{k}`"
            ))
        };
        let e = EnvDecl {
            name: self.name.ok_or_else(|| missing("name"))?,
            doc: self.doc.ok_or_else(|| missing("doc"))?,
            defined_at: at,
        };
        if e.name.trim().is_empty() || e.name.contains(|c: char| c.is_whitespace()) {
            return Err(Error::invalid(format!(
                "{src}:{at}: env `name` must be a single non-empty variable name"
            )));
        }
        let d = e.doc.trim();
        if d.is_empty()
            || d.eq_ignore_ascii_case("todo")
            || d.to_ascii_lowercase().contains("todo:")
        {
            return Err(Error::invalid(format!(
                "{src}:{at}: env `doc` must be a real one-line description, not empty/TODO"
            )));
        }
        Ok(e)
    }
}

/// Strip a `#` comment, respecting `"…"` strings. Escapes are tracked
/// only inside a string, and `\\` is consumed as a complete pair, so a
/// string ending in an escaped backslash (`"ends with \\"`) still
/// closes and the comment after it is stripped.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false; // this char is consumed by the escape
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '#' {
            return &line[..i];
        }
    }
    line
}

#[derive(Default)]
struct PartialWaiver {
    defined_at: usize,
    lint: Option<String>,
    path: Option<String>,
    line: Option<usize>,
    hash: Option<String>,
    reason: Option<String>,
}

impl PartialWaiver {
    fn new(defined_at: usize) -> PartialWaiver {
        PartialWaiver {
            defined_at,
            ..PartialWaiver::default()
        }
    }

    fn set(&mut self, key: &str, value: &str, src: &str, lineno: usize) -> Result<()> {
        let unquote = |v: &str| -> Result<String> {
            let inner = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| {
                    Error::invalid(format!("{src}:{lineno}: `{key}` must be a quoted string"))
                })?;
            Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
        };
        match key {
            "lint" => self.lint = Some(unquote(value)?),
            "path" => self.path = Some(unquote(value)?),
            "hash" => self.hash = Some(unquote(value)?),
            "reason" => self.reason = Some(unquote(value)?),
            "line" => {
                self.line = Some(value.parse::<usize>().map_err(|_| {
                    Error::invalid(format!("{src}:{lineno}: `line` must be an integer"))
                })?)
            }
            other => {
                return Err(Error::invalid(format!(
                    "{src}:{lineno}: unknown waiver key `{other}`"
                )))
            }
        }
        Ok(())
    }

    fn finish(self, src: &str) -> Result<Waiver> {
        let at = self.defined_at;
        let missing =
            |k: &str| Error::invalid(format!("{src}:{at}: waiver is missing required key `{k}`"));
        let w = Waiver {
            lint: self.lint.ok_or_else(|| missing("lint"))?,
            path: self.path.ok_or_else(|| missing("path"))?,
            line: self.line.ok_or_else(|| missing("line"))?,
            hash: self.hash.ok_or_else(|| missing("hash"))?,
            reason: self.reason.ok_or_else(|| missing("reason"))?,
            defined_at: at,
        };
        let r = w.reason.trim();
        if r.is_empty()
            || r.eq_ignore_ascii_case("todo")
            || r.to_ascii_lowercase().contains("todo:")
        {
            return Err(Error::invalid(format!(
                "{src}:{at}: waiver reason must be a real justification, not empty/TODO"
            )));
        }
        if w.hash.len() != 16 || !w.hash.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(Error::invalid(format!(
                "{src}:{at}: waiver hash must be 16 hex digits (copy it from the diagnostic)"
            )));
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# header comment
[[waiver]]
lint = "lossy-cast"
path = "crates/x/src/y.rs"
line = 42                       # trailing comment
hash = "0123456789abcdef"
reason = "k is a column index, bounded by Table::width() <= 64"
"#;

    #[test]
    fn parses_a_valid_entry() {
        let w = parse(GOOD, "analyze.toml").expect("fixture parses");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].lint, "lossy-cast");
        assert_eq!(w[0].line, 42);
        assert_eq!(w[0].hash, "0123456789abcdef");
    }

    #[test]
    fn rejects_missing_reason_and_todo_reason() {
        let no_reason = GOOD.replace(
            "reason = \"k is a column index, bounded by Table::width() <= 64\"",
            "",
        );
        assert!(parse(&no_reason, "t").is_err(), "missing reason must fail");
        let todo = GOOD.replace(
            "k is a column index, bounded by Table::width() <= 64",
            "TODO",
        );
        assert!(parse(&todo, "t").is_err(), "TODO reason must fail");
    }

    #[test]
    fn rejects_bad_hash_and_unknown_keys() {
        let bad_hash = GOOD.replace("0123456789abcdef", "xyz");
        assert!(parse(&bad_hash, "t").is_err(), "non-hex hash must fail");
        let unknown = GOOD.replace("line = 42", "spam = 42");
        assert!(parse(&unknown, "t").is_err(), "unknown key must fail");
    }

    #[test]
    fn rejects_keys_outside_a_table() {
        assert!(parse("lint = \"x\"\n", "t").is_err());
    }

    #[test]
    fn strip_comment_handles_escapes() {
        // Escaped backslash before the closing quote: the string still
        // closes and the trailing comment is stripped.
        assert_eq!(
            strip_comment(r#"reason = "ends with \\" # note"#).trim_end(),
            r#"reason = "ends with \\""#
        );
        // Escaped quote stays inside the string; `#` after it strips.
        assert_eq!(
            strip_comment(r#"reason = "a \" b" # note"#).trim_end(),
            r#"reason = "a \" b""#
        );
        // A `#` inside the string is content, not a comment.
        assert_eq!(
            strip_comment(r#"reason = "issue #42, see tracker""#),
            r#"reason = "issue #42, see tracker""#
        );
        // Double escaped backslash pair, then a real comment.
        assert_eq!(
            strip_comment(r#"path = "a\\\\" # four"#).trim_end(),
            r#"path = "a\\\\""#
        );
    }

    #[test]
    fn env_table_parses_alongside_waivers() {
        let text = format!(
            "{GOOD}\n[[env]]\nname = \"PERFPREDICT_LOG\"\ndoc = \"console sink verbosity\"\n"
        );
        let c = parse_config(&text, "analyze.toml").expect("mixed tables parse");
        assert_eq!(c.waivers.len(), 1);
        assert_eq!(c.envs.len(), 1);
        assert_eq!(c.envs[0].name, "PERFPREDICT_LOG");
        assert_eq!(c.envs[0].doc, "console sink verbosity");
    }

    #[test]
    fn env_table_rejects_todo_doc_and_bad_name() {
        let todo = "[[env]]\nname = \"PERFPREDICT_X\"\ndoc = \"TODO\"\n";
        assert!(parse_config(todo, "t").is_err(), "TODO doc must fail");
        let spaced = "[[env]]\nname = \"TWO WORDS\"\ndoc = \"d\"\n";
        assert!(
            parse_config(spaced, "t").is_err(),
            "name with space must fail"
        );
        let missing = "[[env]]\nname = \"PERFPREDICT_X\"\n";
        assert!(parse_config(missing, "t").is_err(), "missing doc must fail");
        let unknown = "[[env]]\nname = \"PERFPREDICT_X\"\ndoc = \"d\"\nreason = \"x\"\n";
        assert!(
            parse_config(unknown, "t").is_err(),
            "waiver key in env must fail"
        );
    }

    #[test]
    fn escaped_backslash_reason_round_trips() {
        let text = "[[waiver]]\nlint = \"lossy-cast\"\npath = \"c/x.rs\"\nline = 1\n\
                    hash = \"0123456789abcdef\"\nreason = \"ends with \\\\\" # cmt\n";
        let w = parse(text, "t").expect("escaped backslash before closing quote parses");
        assert_eq!(w[0].reason, "ends with \\");
    }
}
