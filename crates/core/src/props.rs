//! Properties-file configuration (the Configuration Loader of paper Fig. 2).
//!
//! "When a positioning method is chosen, the system opens a generated
//! properties file for configuring the relevant parameters" (paper §5).
//! This module implements that format: `key = value` lines, `#` comments,
//! with typed getters and round-trip writing. It is the text surface of
//! every layer's configuration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// A parsed properties file: ordered `key → value` pairs.
///
/// Every lookup is logged: [`Properties::keys_read`] lists the keys some
/// getter asked for, so after handing a set to the loaders, the keys set
/// but never read are the misspelled or meaningless ones. The log belongs
/// to one value: a clone starts with an empty log, and equality and
/// `Debug` look at the entries only.
#[derive(Default)]
pub struct Properties {
    entries: BTreeMap<String, String>,
    reads: Mutex<BTreeSet<String>>,
}

impl Clone for Properties {
    fn clone(&self) -> Self {
        Properties {
            entries: self.entries.clone(),
            reads: Mutex::default(),
        }
    }
}

impl PartialEq for Properties {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl fmt::Debug for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Properties")
            .field("entries", &self.entries)
            .finish()
    }
}

/// Errors from parsing or typed access.
#[derive(Debug, Clone, PartialEq)]
pub enum PropsError {
    /// A non-comment line without `=`.
    MalformedLine { line: u32, text: String },
    /// Key missing.
    Missing(String),
    /// Value present but not parseable as the requested type.
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
}

impl fmt::Display for PropsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropsError::MalformedLine { line, text } => {
                write!(f, "line {line}: malformed property '{text}'")
            }
            PropsError::Missing(k) => write!(f, "missing property '{k}'"),
            PropsError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "property '{key}' = '{value}' is not a valid {expected}")
            }
        }
    }
}

impl std::error::Error for PropsError {}

impl Properties {
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse properties text.
    pub fn parse(text: &str) -> Result<Self, PropsError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(PropsError::MalformedLine {
                    line: i as u32 + 1,
                    text: line.to_string(),
                });
            };
            entries.insert(k.trim().to_string(), v.trim().to_string());
        }
        Ok(Properties {
            entries,
            reads: Mutex::default(),
        })
    }

    /// Serialize back to properties text (sorted by key).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.entries {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }

    pub fn set(&mut self, key: &str, value: impl fmt::Display) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Look `key` up (every typed getter goes through here), logging the
    /// lookup for [`Properties::keys_read`].
    pub fn get(&self, key: &str) -> Option<&str> {
        self.reads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.to_string());
        self.entries.get(key).map(String::as_str)
    }

    /// Every `(key, value)` pair, sorted by key. Not logged as lookups.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Every key looked up through this value so far — set or not — in
    /// sorted order.
    pub fn keys_read(&self) -> Vec<String> {
        let reads = self.reads.lock().unwrap_or_else(PoisonError::into_inner);
        reads.iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is set. A presence check, not a read: it is not
    /// logged.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Required string.
    pub fn str_req(&self, key: &str) -> Result<&str, PropsError> {
        self.get(key)
            .ok_or_else(|| PropsError::Missing(key.to_string()))
    }

    /// Optional f64 with default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, PropsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| PropsError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "number",
            }),
        }
    }

    /// Optional u64 with default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, PropsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| PropsError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "integer",
            }),
        }
    }

    /// Optional usize with default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, PropsError> {
        Ok(self.u64_or(key, default as u64)? as usize)
    }

    /// Optional bool with default (`true/false/yes/no/1/0`).
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool, PropsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.to_ascii_lowercase().as_str() {
                "true" | "yes" | "1" => Ok(true),
                "false" | "no" | "0" => Ok(false),
                _ => Err(PropsError::BadValue {
                    key: key.to_string(),
                    value: v.to_string(),
                    expected: "boolean",
                }),
            },
        }
    }

    /// Optional string with default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# Vita moving-object layer
object.count = 120
object.max_speed = 1.8
pattern.intention = destination

// another comment style
lifespan.min_s = 60
noise.enabled = yes
";

    #[test]
    fn parse_and_typed_access() {
        let p = Properties::parse(SAMPLE).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.usize_or("object.count", 0).unwrap(), 120);
        assert!((p.f64_or("object.max_speed", 0.0).unwrap() - 1.8).abs() < 1e-12);
        assert_eq!(p.str_or("pattern.intention", "x"), "destination");
        assert_eq!(p.u64_or("lifespan.min_s", 0).unwrap(), 60);
        assert!(p.bool_or("noise.enabled", false).unwrap());
        // Defaults for absent keys.
        assert_eq!(p.usize_or("absent", 7).unwrap(), 7);
        assert!(!p.bool_or("absent", false).unwrap());
        assert_eq!(p.str_or("absent", "d"), "d");
    }

    #[test]
    fn round_trip() {
        let p = Properties::parse(SAMPLE).unwrap();
        let text = p.to_text();
        let q = Properties::parse(&text).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = Properties::parse("a = 1\nnot a property\n").unwrap_err();
        match err {
            PropsError::MalformedLine { line, .. } => assert_eq!(line, 2),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn bad_values_reported() {
        let p = Properties::parse("n = abc\n").unwrap();
        assert!(matches!(
            p.f64_or("n", 0.0),
            Err(PropsError::BadValue { .. })
        ));
        assert!(matches!(p.u64_or("n", 0), Err(PropsError::BadValue { .. })));
        assert!(matches!(
            p.bool_or("n", false),
            Err(PropsError::BadValue { .. })
        ));
    }

    #[test]
    fn required_key() {
        let p = Properties::parse("a = 1\n").unwrap();
        assert_eq!(p.str_req("a").unwrap(), "1");
        assert!(matches!(p.str_req("b"), Err(PropsError::Missing(_))));
    }

    #[test]
    fn set_and_contains() {
        let mut p = Properties::new();
        assert!(p.is_empty());
        p.set("x.y", 3.5);
        assert!(p.contains("x.y"));
        assert_eq!(p.get("x.y"), Some("3.5"));
    }

    #[test]
    fn lookups_are_logged_per_value() {
        let p = Properties::parse("a = 1\nb = 2\nc = x\n").unwrap();
        assert!(p.keys_read().is_empty());
        assert_eq!(p.u64_or("a", 0).unwrap(), 1);
        assert_eq!(p.str_or("missing", "d"), "d");
        // Presence checks and iteration are not lookups.
        assert!(p.contains("b"));
        assert_eq!(
            p.iter().collect::<Vec<_>>(),
            [("a", "1"), ("b", "2"), ("c", "x")]
        );
        assert_eq!(p.keys_read(), ["a", "missing"]);
        // A clone has its own, empty log and still compares equal.
        let q = p.clone();
        assert!(q.keys_read().is_empty());
        assert_eq!(p, q);
    }

    #[test]
    fn values_may_contain_equals() {
        let p = Properties::parse("formula = a=b+c\n").unwrap();
        assert_eq!(p.get("formula"), Some("a=b+c"));
    }
}
