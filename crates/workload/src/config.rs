//! `AppConfig` — the one typed, validated configuration surface.
//!
//! Every experiment binary and example used to grow its own ad-hoc flag
//! plumbing; this module replaces that with a single declarative config
//! covering the simulation setting, the serving gateway, and the
//! multi-SLO request classes. Files load from
//! JSON or a TOML subset (sections, `[[classes]]` array-of-tables, scalar
//! and array values, `#` comments); unknown keys are rejected so typos
//! fail loudly instead of silently taking defaults.
//!
//! The crate sits at the bottom of the workspace DAG, so the sections are
//! plain data: the binaries turn them into the upper crates' richer types
//! rather than this module depending on them.

use crate::class::{validate_classes, RequestClass};
use crate::error::DbatError;
use serde::{Deserialize, Error, Value};
use std::path::Path;

/// Reject keys outside the known set (typo protection).
fn expect_keys(v: &Value, ctx: &str, known: &[&str]) -> Result<(), Error> {
    if let Some(m) = v.as_object() {
        for k in m.keys() {
            if !known.contains(&k.as_str()) {
                return Err(Error::new(format!(
                    "unknown key `{k}` in {ctx} (known: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    } else {
        Err(Error::new(format!("{ctx} must be a table/object")))
    }
}

/// Read `key`, falling back to `default` when absent or null.
fn take<T: Deserialize>(v: &Value, key: &str, default: T) -> Result<T, Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => T::deserialize(x).map_err(|e| e.in_field(key)),
    }
}

/// Simulation setting: workload horizon, SLO, decision cadence.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSection {
    /// Latency SLO (seconds) on the constrained percentile.
    pub slo: f64,
    /// Constrained percentile (the paper uses p95).
    pub percentile: f64,
    /// Seconds between controller decisions.
    pub decision_interval_s: f64,
    /// Workload horizon in seconds.
    pub horizon_s: f64,
    /// Seed for workload generation.
    pub seed: u64,
    /// Synthetic workload kind (`azure`, `twitter`, `alibaba`, `map`).
    pub workload: String,
}

impl Default for SimSection {
    fn default() -> Self {
        SimSection {
            slo: 0.1,
            percentile: 95.0,
            decision_interval_s: 60.0,
            horizon_s: 3600.0,
            seed: 42,
            workload: "azure".to_string(),
        }
    }
}

impl Deserialize for SimSection {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        expect_keys(
            v,
            "[sim]",
            &[
                "slo",
                "percentile",
                "decision_interval_s",
                "horizon_s",
                "seed",
                "workload",
            ],
        )?;
        let d = SimSection::default();
        Ok(SimSection {
            slo: take(v, "slo", d.slo)?,
            percentile: take(v, "percentile", d.percentile)?,
            decision_interval_s: take(v, "decision_interval_s", d.decision_interval_s)?,
            horizon_s: take(v, "horizon_s", d.horizon_s)?,
            seed: take(v, "seed", d.seed)?,
            workload: take(v, "workload", d.workload)?,
        })
    }
}

impl SimSection {
    pub(crate) fn validate(&self) -> Result<(), DbatError> {
        if !(self.slo > 0.0 && self.slo.is_finite()) {
            return Err(DbatError::config("sim.slo must be finite and > 0"));
        }
        if !(self.percentile > 0.0 && self.percentile <= 100.0) {
            return Err(DbatError::config("sim.percentile must be in (0, 100]"));
        }
        if !(self.decision_interval_s > 0.0 && self.decision_interval_s.is_finite()) {
            return Err(DbatError::config(
                "sim.decision_interval_s must be finite and > 0",
            ));
        }
        if !(self.horizon_s > 0.0 && self.horizon_s.is_finite()) {
            return Err(DbatError::config("sim.horizon_s must be finite and > 0"));
        }
        Ok(())
    }
}

/// Serving-gateway knobs (live gateway example and load harness).
#[derive(Clone, Debug, PartialEq)]
pub struct GatewaySection {
    /// Number of batcher lanes (0 ⇒ one per worker).
    pub lanes: u64,
    /// Number of worker threads.
    pub workers: u64,
    /// Per-lane admission queue capacity (0 ⇒ unbounded).
    pub queue_capacity: u64,
    /// Reject (with retry-after) instead of blocking when the queue fills.
    pub backpressure: bool,
    /// Wall-clock speedup of the live replay (60 ⇒ 1 min/s).
    pub speedup: f64,
    /// Portion of the trace to serve, in trace seconds.
    pub horizon_s: f64,
    /// Seconds to keep the process alive after the drain (metric scrapes).
    pub linger_s: f64,
    /// Bind address of the pull-based metrics exporter; `None` disables.
    pub metrics_addr: Option<String>,
}

impl Default for GatewaySection {
    fn default() -> Self {
        GatewaySection {
            lanes: 1,
            workers: 2,
            queue_capacity: 0,
            backpressure: false,
            speedup: 60.0,
            horizon_s: 120.0,
            linger_s: 0.0,
            metrics_addr: None,
        }
    }
}

impl Deserialize for GatewaySection {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        expect_keys(
            v,
            "[gateway]",
            &[
                "lanes",
                "workers",
                "queue_capacity",
                "backpressure",
                "speedup",
                "horizon_s",
                "linger_s",
                "metrics_addr",
            ],
        )?;
        let d = GatewaySection::default();
        Ok(GatewaySection {
            lanes: take(v, "lanes", d.lanes)?,
            workers: take(v, "workers", d.workers)?,
            queue_capacity: take(v, "queue_capacity", d.queue_capacity)?,
            backpressure: take(v, "backpressure", d.backpressure)?,
            speedup: take(v, "speedup", d.speedup)?,
            horizon_s: take(v, "horizon_s", d.horizon_s)?,
            linger_s: take(v, "linger_s", d.linger_s)?,
            metrics_addr: take(v, "metrics_addr", d.metrics_addr)?,
        })
    }
}

impl GatewaySection {
    pub(crate) fn validate(&self) -> Result<(), DbatError> {
        if self.workers == 0 {
            return Err(DbatError::config("gateway.workers must be >= 1"));
        }
        if !(self.speedup > 0.0 && self.speedup.is_finite()) {
            return Err(DbatError::config("gateway.speedup must be finite and > 0"));
        }
        if !(self.horizon_s > 0.0 && self.horizon_s.is_finite()) {
            return Err(DbatError::config(
                "gateway.horizon_s must be finite and > 0",
            ));
        }
        if !(self.linger_s >= 0.0 && self.linger_s.is_finite()) {
            return Err(DbatError::config(
                "gateway.linger_s must be finite and >= 0",
            ));
        }
        Ok(())
    }
}

/// One request class in the config file. The class id is its position in
/// the `[[classes]]` list.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassSpec {
    /// Latency SLO (seconds) — required.
    pub(crate) slo: f64,
    /// Relative traffic weight.
    pub(crate) weight: f64,
}

impl Deserialize for ClassSpec {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        expect_keys(v, "[[classes]]", &["slo", "weight"])?;
        let slo = match v.get("slo") {
            Some(x) => f64::deserialize(x).map_err(|e| e.in_field("slo"))?,
            None => return Err(Error::new("[[classes]] entry is missing `slo`")),
        };
        Ok(ClassSpec {
            slo,
            weight: take(v, "weight", 1.0)?,
        })
    }
}

/// The whole application configuration. Every section is optional in the
/// file and takes its documented defaults when absent.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AppConfig {
    pub sim: SimSection,
    pub gateway: GatewaySection,
    /// Multi-SLO request classes; empty ⇒ the single-class setting with
    /// `sim.slo` as the one SLO.
    pub classes: Vec<ClassSpec>,
}

impl Deserialize for AppConfig {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        expect_keys(v, "config root", &["sim", "gateway", "classes"])?;
        Ok(AppConfig {
            sim: take(v, "sim", SimSection::default())?,
            gateway: take(v, "gateway", GatewaySection::default())?,
            classes: take(v, "classes", Vec::new())?,
        })
    }
}

impl AppConfig {
    /// Check every section and the class list.
    pub(crate) fn validate(&self) -> Result<(), DbatError> {
        self.sim.validate()?;
        self.gateway.validate()?;
        if !self.classes.is_empty() {
            validate_classes(&self.request_classes())?;
        }
        Ok(())
    }

    /// The configured request classes with dense ids. With no `[[classes]]`
    /// entries this is the single class `{id 0, sim.slo}`.
    pub fn request_classes(&self) -> Vec<RequestClass> {
        if self.classes.is_empty() {
            return vec![RequestClass::new(0, self.sim.slo)];
        }
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| RequestClass::with_weight(i as u16, c.slo, c.weight))
            .collect()
    }

    /// Resolve a binary's configuration from its command line:
    /// `--config <path>` loads a TOML/JSON file (documented defaults
    /// when absent), then any number of `--set section.key=value` flags
    /// override single fields, values parsing like TOML scalars
    /// (`--set sim.slo=0.08`, `--set sim.workload="twitter"`).
    /// Flags the binary defines for itself are ignored here, so
    /// `from_args` composes with local argument handling.
    pub fn from_args<I>(args: I) -> Result<AppConfig, DbatError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut path: Option<String> = None;
        let mut sets: Vec<(String, String)> = Vec::new();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--config" => {
                    path = Some(
                        it.next()
                            .ok_or_else(|| DbatError::config("--config needs a file path"))?,
                    );
                }
                "--set" => {
                    let kv = it
                        .next()
                        .ok_or_else(|| DbatError::config("--set needs `section.key=value`"))?;
                    let (k, val) = kv
                        .split_once('=')
                        .ok_or_else(|| DbatError::config("--set expects `section.key=value`"))?;
                    sets.push((k.trim().to_string(), val.trim().to_string()));
                }
                _ => {}
            }
        }
        let mut v = match &path {
            Some(p) => {
                let p = Path::new(p);
                let text = std::fs::read_to_string(p)
                    .map_err(|e| DbatError::config(format!("read {}: {e}", p.display())))?;
                match p.extension().and_then(|e| e.to_str()) {
                    Some("json") => serde_json::from_str::<Value>(&text)
                        .map_err(|e| DbatError::config(format!("config: {e}")))?,
                    Some("toml") | None => parse_toml(&text)?,
                    Some(other) => {
                        return Err(DbatError::config(format!(
                            "unsupported config extension `.{other}` (use .toml or .json)"
                        )))
                    }
                }
            }
            None => Value::Object(serde::Map::new()),
        };
        for (key, raw) in &sets {
            // TOML scalar syntax, with a bare-word convenience fallback
            // (`--set sim.workload=twitter` needs no shell quoting);
            // type mismatches still fail loudly at deserialization.
            let parsed = parse_toml_value(raw).unwrap_or_else(|_| Value::String(raw.to_string()));
            set_dotted(&mut v, key, parsed)?;
        }
        AppConfig::from_value(&v)
    }

    /// Deserialise a parsed TOML/JSON document and validate it.
    fn from_value(v: &Value) -> Result<AppConfig, DbatError> {
        let cfg =
            AppConfig::deserialize(v).map_err(|e| DbatError::config(format!("config: {e}")))?;
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Insert `value` at a dotted path (`sim.slo`), creating intermediate
/// tables. Paths through non-tables are rejected (`classes.0.slo` is not
/// supported — override the whole `classes` array instead).
fn set_dotted(root: &mut Value, path: &str, value: Value) -> Result<(), DbatError> {
    let parts: Vec<&str> = path.split('.').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(DbatError::config(format!(
            "--set: empty segment in `{path}`"
        )));
    }
    let Some((last, parents)) = parts.split_last() else {
        return Err(DbatError::config(format!("--set: empty path `{path}`")));
    };
    let mut cur = root;
    for (i, part) in parents.iter().enumerate() {
        let Value::Object(m) = cur else {
            return Err(DbatError::config(format!(
                "--set {path}: `{}` is not a table",
                parts[..i].join(".")
            )));
        };
        cur = m
            .entry(part.to_string())
            .or_insert_with(|| Value::Object(serde::Map::new()));
    }
    let Value::Object(m) = cur else {
        return Err(DbatError::config(format!(
            "--set {path}: `{}` is not a table",
            parents.join(".")
        )));
    };
    m.insert(last.to_string(), value);
    Ok(())
}

/// Parse the TOML subset the config surface uses into the serde `Value`
/// model: `[section]` and `[a.b]` tables, `[[name]]` array-of-tables,
/// `key = value` with string/bool/number/array values, `#` comments.
pub(crate) fn parse_toml(s: &str) -> Result<Value, DbatError> {
    let mut root = serde::Map::new();
    // Path of the table the current `key = value` lines land in; the final
    // `usize` is the index within an array-of-tables (usize::MAX = plain).
    let mut cur: Vec<(String, usize)> = Vec::new();
    for (lineno, raw) in s.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        let err = |msg: &str| DbatError::config(format!("TOML line {}: {msg}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim();
            if name.is_empty() {
                return Err(err("empty [[table]] name"));
            }
            let arr = root
                .entry(name.to_string())
                .or_insert_with(|| Value::Array(Vec::new()));
            let Value::Array(items) = arr else {
                return Err(err(&format!("`{name}` is not an array of tables")));
            };
            items.push(Value::Object(serde::Map::new()));
            cur = vec![(name.to_string(), items.len() - 1)];
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            if name.is_empty() {
                return Err(err("empty [table] name"));
            }
            cur = name
                .split('.')
                .map(|p| (p.trim().to_string(), usize::MAX))
                .collect();
        } else if let Some((key, val)) = line.split_once('=') {
            let key = key.trim().trim_matches('"').to_string();
            if key.is_empty() {
                return Err(err("empty key"));
            }
            let value = parse_toml_value(val.trim())
                .map_err(|m| err(&format!("value for `{key}`: {m}")))?;
            let table =
                resolve_table(&mut root, &cur).ok_or_else(|| err("section path is not a table"))?;
            if table.insert(key.clone(), value).is_some() {
                return Err(err(&format!("duplicate key `{key}`")));
            }
        } else {
            return Err(err("expected `[section]`, `[[table]]`, or `key = value`"));
        }
    }
    Ok(Value::Object(root))
}

/// Walk (and create) the table at `path` under `root`.
fn resolve_table<'a>(
    root: &'a mut serde::Map,
    path: &[(String, usize)],
) -> Option<&'a mut serde::Map> {
    let mut m = root;
    for (key, idx) in path {
        let slot = m
            .entry(key.clone())
            .or_insert_with(|| Value::Object(serde::Map::new()));
        if *idx == usize::MAX {
            match slot {
                Value::Object(inner) => m = inner,
                _ => return None,
            }
        } else {
            match slot {
                Value::Array(items) => match items.get_mut(*idx) {
                    Some(Value::Object(inner)) => m = inner,
                    _ => return None,
                },
                _ => return None,
            }
        }
    }
    Some(m)
}

/// Drop a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_toml_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    if let Some(body) = s.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err("unterminated string".to_string());
        };
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    other => return Err(format!("bad escape {other:?}")),
                }
            } else {
                out.push(c);
            }
        }
        return Ok(Value::String(out));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err("unterminated array".to_string());
        };
        let mut items = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_toml_value(part)?);
            }
        }
        return Ok(Value::Array(items));
    }
    let cleaned: String = s.chars().filter(|&c| c != '_').collect();
    cleaned
        .parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("cannot parse `{s}`"))
}

/// Split on commas outside quotes and brackets.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut buf = String::new();
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                parts.push(std::mem::take(&mut buf));
                continue;
            }
            _ => {}
        }
        buf.push(c);
    }
    if !buf.trim().is_empty() {
        parts.push(buf);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_toml(s: &str) -> Result<AppConfig, DbatError> {
        AppConfig::from_value(&parse_toml(s)?)
    }

    const SAMPLE: &str = r#"
# multi-SLO experiment
[sim]
slo = 0.1
percentile = 95.0
horizon_s = 600.0
workload = "twitter"

[gateway]
lanes = 4
workers = 4
speedup = 120.0
metrics_addr = "127.0.0.1:9184"

[[classes]]
slo = 0.08
weight = 3.0

[[classes]]
slo = 0.5
"#;

    #[test]
    fn toml_sample_parses() {
        let cfg = from_toml(SAMPLE).unwrap();
        assert_eq!(cfg.sim.workload, "twitter");
        assert_eq!(cfg.sim.horizon_s, 600.0);
        // Missing keys take the documented defaults.
        assert_eq!(cfg.sim.decision_interval_s, 60.0);
        assert_eq!(cfg.gateway.lanes, 4);
        assert_eq!(cfg.gateway.metrics_addr.as_deref(), Some("127.0.0.1:9184"));
        assert_eq!(cfg.classes.len(), 2);
        assert_eq!(cfg.classes[1].weight, 1.0);
        let rc = cfg.request_classes();
        assert_eq!(rc[0].id, 0);
        assert_eq!(rc[1].slo, 0.5);
    }

    #[test]
    fn empty_config_is_all_defaults() {
        let cfg = from_toml("").unwrap();
        assert_eq!(cfg, AppConfig::default());
        assert_eq!(cfg.request_classes(), vec![RequestClass::new(0, 0.1)]);
    }

    #[test]
    fn unknown_keys_rejected() {
        assert!(from_toml("[sim]\nslo_target = 0.1\n").is_err());
        assert!(from_toml("[simulation]\nslo = 0.1\n").is_err());
    }

    /// No code reads a `[controller]` or `[faults]` section, so naming one
    /// fails with the unknown-key error, by file and by `--set`.
    #[test]
    fn removed_sections_are_unknown_keys() {
        let a = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let unknown = |r: Result<AppConfig, DbatError>, key: &str| {
            let err = r.unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown key `{key}` in config root")),
                "unexpected error: {err}"
            );
        };
        for (toml, set, key) in [
            (
                "[controller]\nscoring = \"fast\"\n",
                "controller.scoring=fast",
                "controller",
            ),
            (
                "[controller]\ngamma = 0.8\n",
                "controller.gamma=0.8",
                "controller",
            ),
            (
                "[faults]\nintensity = 0.3\n",
                "faults.intensity=0.3",
                "faults",
            ),
        ] {
            unknown(from_toml(toml), key);
            unknown(AppConfig::from_args(a(&["--set", set])), key);
        }
    }

    #[test]
    fn invalid_values_rejected() {
        assert!(from_toml("[sim]\nslo = -0.1\n").is_err());
        assert!(from_toml("[[classes]]\nweight = 1.0\n").is_err());
    }

    #[test]
    fn toml_parser_edges() {
        // Comments inside strings survive; duplicate keys are rejected.
        let v = parse_toml("[a]\ns = \"x # y\" # trailing\n").unwrap();
        assert_eq!(v.field("a").field("s").as_str(), Some("x # y"));
        assert!(parse_toml("[a]\nk = 1\nk = 2\n").is_err());
        assert!(parse_toml("nonsense\n").is_err());
        let v = parse_toml("[a.b]\nxs = [1, 2, 3]\n").unwrap();
        assert_eq!(
            v.field("a").field("b").field("xs"),
            &Value::Array(vec![
                Value::Number(1.0),
                Value::Number(2.0),
                Value::Number(3.0)
            ])
        );
    }

    #[test]
    fn from_args_defaults_file_and_overrides() {
        let a = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // No flags: the documented defaults.
        let cfg = AppConfig::from_args(a(&[])).unwrap();
        assert_eq!(cfg, AppConfig::default());
        // --set alone overrides a default; bare words act as strings.
        let cfg = AppConfig::from_args(a(&[
            "--set",
            "sim.slo=0.08",
            "--set",
            "sim.workload=azure",
            "--ignored-local-flag",
        ]))
        .unwrap();
        assert_eq!(cfg.sim.slo, 0.08);
        assert_eq!(cfg.sim.workload, "azure");
        // --config file, then --set wins over the file.
        let dir = std::env::temp_dir().join(format!("dbat_from_args_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.toml");
        std::fs::write(&path, SAMPLE).unwrap();
        let cfg = AppConfig::from_args(a(&[
            "--config",
            path.to_str().unwrap(),
            "--set",
            "gateway.workers=16",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(cfg.sim.workload, "twitter"); // from the file
        assert_eq!(cfg.gateway.workers, 16); // flag beats file
                                             // Errors stay loud: bad path segment, type mismatch, bad value.
        assert!(AppConfig::from_args(a(&["--set", "sim..slo=1"])).is_err());
        assert!(AppConfig::from_args(a(&["--set", "sim.slo=nope"])).is_err());
        assert!(AppConfig::from_args(a(&["--set", "sim.slo.deep=1"])).is_err());
        assert!(AppConfig::from_args(a(&["--config"])).is_err());
    }

    #[test]
    fn set_creates_absent_sections() {
        let a = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A file that never mentions [gateway]; --set must create the
        // section on the way down, not die on the missing table.
        let dir = std::env::temp_dir().join(format!("dbat_set_absent_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("minimal.toml");
        std::fs::write(&path, "[sim]\nslo = 0.2\n").unwrap();
        let cfg = AppConfig::from_args(a(&[
            "--config",
            path.to_str().unwrap(),
            "--set",
            "gateway.workers=16",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(cfg.sim.slo, 0.2);
        assert_eq!(cfg.gateway.workers, 16);
        // The rest of the created section keeps its defaults.
        assert_eq!(cfg.gateway.lanes, GatewaySection::default().lanes);
    }

    #[test]
    fn set_parses_bool_and_negative_scalars() {
        let a = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Bools land as bools, not the bare-word string fallback.
        let cfg = AppConfig::from_args(a(&["--set", "gateway.backpressure=true"])).unwrap();
        assert!(cfg.gateway.backpressure);
        let cfg = AppConfig::from_args(a(&["--set", "gateway.backpressure=false"])).unwrap();
        assert!(!cfg.gateway.backpressure);
        // Negative scalars parse as numbers; every negative-hostile field
        // then rejects them through validation with its own message,
        // proving the value did not silently become a string.
        let err = AppConfig::from_args(a(&["--set", "sim.slo=-0.5"])).unwrap_err();
        assert!(
            err.to_string().contains("sim.slo must be finite and > 0"),
            "unexpected error: {err}"
        );
        let err = AppConfig::from_args(a(&["--set", "gateway.linger_s=-1"])).unwrap_err();
        assert!(
            err.to_string().contains("gateway.linger_s"),
            "unexpected error: {err}"
        );
        assert_eq!(parse_toml_value("-2.5").unwrap(), Value::Number(-2.5));
    }

    #[test]
    fn set_malformed_paths_error_clearly() {
        let a = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Missing `=` names the expected shape.
        let err = AppConfig::from_args(a(&["--set", "sim.slo"])).unwrap_err();
        assert!(
            err.to_string().contains("section.key=value"),
            "unexpected error: {err}"
        );
        // Empty path segment is called out with the offending path.
        let err = AppConfig::from_args(a(&["--set", ".slo=1"])).unwrap_err();
        assert!(
            err.to_string().contains("empty segment"),
            "unexpected error: {err}"
        );
        // A path through an array (per-class overrides are unsupported)
        // fails instead of scribbling over the classes list.
        let dir =
            std::env::temp_dir().join(format!("dbat_set_malformed_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("classes.toml");
        std::fs::write(&path, "[[classes]]\nslo = 0.1\n").unwrap();
        let err = AppConfig::from_args(a(&[
            "--config",
            path.to_str().unwrap(),
            "--set",
            "classes.0.slo=0.2",
        ]))
        .unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            err.to_string().contains("not a table"),
            "unexpected error: {err}"
        );
    }
}
