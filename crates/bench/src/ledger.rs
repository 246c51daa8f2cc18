//! The reproduction ledger: every experiment's typed summary, the paper's
//! value beside each key the paper reports, and the shape claims
//! EXPERIMENTS.md states, each checked in the mode it is stated for. The
//! `repro` binary writes it as `REPRO_fast.json` (`DEEPBAT_FAST=1`) or
//! `REPRO.json`.

use crate::experiments::{multiclass, policies, surrogate, tokens, workload};
use crate::settings::Models;
use crate::ExpSettings;
use dbat_telemetry::{log_info, Telemetry};
use serde::{Map, Serialize, Value};
use std::sync::Arc;

/// What EXPERIMENTS.md records for a shape claim, and so the modes it is
/// checked in: a claim the fast mode is too small to show is checked in
/// full mode only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Claim {
    Reproduced,
    ReproducedInFull,
    NotReproduced,
    NotReproducedInFull,
}

impl Claim {
    fn checked(self, fast: bool) -> bool {
        !fast || matches!(self, Claim::Reproduced | Claim::NotReproduced)
    }

    fn recorded(self) -> bool {
        matches!(self, Claim::Reproduced | Claim::ReproducedInFull)
    }
}

/// `(record, key, holds)` for each shape claim of an experiment.
pub(crate) type Claims = Vec<(Claim, &'static str, bool)>;

/// An experiment's summary as the ledger needs it.
pub(crate) trait Summary: Serialize {
    /// `(key, ours, paper)` for every key of the summary the paper reports
    /// a value for.
    fn paper(&self) -> Vec<(&'static str, f64, f64)> {
        Vec::new()
    }

    /// The shape claims made about this experiment.
    fn claims(&self) -> Claims {
        Vec::new()
    }
}

/// An experiment's ledger entry in `fast` or full mode, and a message for
/// every claim of that mode whose outcome differs from the recorded one.
fn entry(name: &str, summary: &dyn Summary, fast: bool) -> (Value, Vec<String>) {
    let paper: Map = (summary.paper().into_iter())
        .map(|(key, ours, paper)| {
            let pair = serde_json::json!({ "ours": ours, "paper": paper });
            (key.to_string(), pair)
        })
        .collect();
    let status = |holds: bool| ["not reproduced", "reproduced"][usize::from(holds)];
    let mut claims = Map::new();
    let mut mismatches = Vec::new();
    for (record, key, holds) in summary.claims() {
        if !record.checked(fast) {
            continue;
        }
        if holds != record.recorded() {
            let (recorded, measured) = (status(record.recorded()), status(holds));
            mismatches.push(format!(
                "{name}.claims.{key}: recorded {recorded}, measured {measured}"
            ));
        }
        claims.insert(key.to_string(), Value::String(status(holds).to_string()));
    }
    let entry = serde_json::json!({
        "measured": summary.serialize(),
        "paper": Value::Object(paper),
        "claims": Value::Object(claims),
    });
    (entry, mismatches)
}

type Run = fn(&ExpSettings, &Models) -> Box<dyn Summary>;

/// Every experiment, in run order.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig01", |s, _| Box::new(workload::fig01(s))),
    ("fig04", |s, _| Box::new(workload::fig04(s))),
    ("fig05", |s, _| Box::new(workload::fig05(s))),
    ("train_model", |_, m| Box::new(surrogate::train_model(m))),
    ("fig06", |s, m| Box::new(policies::fig06(s, m))),
    ("fig07", |s, m| Box::new(policies::fig07(s, m))),
    ("fig08", |s, m| Box::new(policies::fig08(s, m))),
    ("fig09", |s, m| Box::new(policies::fig09(s, m))),
    ("fig10", |s, m| Box::new(policies::fig10(s, m))),
    ("fig11", |s, m| Box::new(policies::fig11(s, m))),
    ("fig12", |s, m| Box::new(policies::fig12(s, m))),
    ("fig13", |s, m| Box::new(surrogate::fig13(s, m))),
    ("fig14", |s, m| Box::new(surrogate::fig14(s, m))),
    ("fig15", |s, m| Box::new(surrogate::fig15(s, &m.hub))),
    ("tbl_prediction_time", |s, m| {
        Box::new(surrogate::tbl_prediction_time(s, m))
    }),
    ("abl_gamma", |s, m| Box::new(policies::abl_gamma(s, m))),
    ("abl_coldstart", |s, m| {
        Box::new(workload::abl_coldstart(s, &m.hub))
    }),
    ("abl_replicas", |s, m| {
        Box::new(surrogate::abl_replicas(s, &m.hub))
    }),
    ("abl_faults", |s, m| Box::new(policies::abl_faults(s, m))),
    ("abl_multiclass", |s, m| {
        Box::new(multiclass::abl_multiclass(s, m))
    }),
    ("abl_tokens", |s, m| Box::new(tokens::abl_tokens(s, &m.hub))),
];

/// Run the named experiments (all of them when `names` is empty),
/// publishing their training, decisions and measured intervals to `hub`,
/// and assemble the ledger, with a message for every claim whose outcome
/// differs from the recorded one. Unknown names are an error.
pub fn run(
    s: &ExpSettings,
    names: &[String],
    hub: &Arc<Telemetry>,
) -> Result<(Value, Vec<String>), String> {
    if let Some(bad) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|(name, _)| name == n))
    {
        return Err(format!("unknown experiment `{bad}`"));
    }
    let models = Models::new(s, hub.clone());
    let mut experiments = Map::new();
    let mut mismatches = Vec::new();
    for &(name, run) in EXPERIMENTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        log_info!("repro", "running {name}…");
        let (entry, wrong) = entry(name, &*run(s, &models), s.fast);
        experiments.insert(name.to_string(), entry);
        mismatches.extend(wrong);
    }
    let ledger = serde_json::json!({
        "mode": if s.fast { "fast" } else { "full" },
        "settings": format!("{s:?}"),
        "experiments": Value::Object(experiments),
    });
    Ok((ledger, mismatches))
}

/// JSON text, indented two spaces, with every array of scalars on one line
/// so a series reads as one row.
pub fn to_text(v: &Value) -> String {
    let mut out = String::new();
    write(&mut out, v, 0);
    out.push('\n');
    out
}

fn write(out: &mut String, v: &Value, depth: usize) {
    let nested = |x: &Value| matches!(x, Value::Array(_) | Value::Object(_));
    let (open, close, items): (char, char, Vec<(Option<&String>, &Value)>) = match v {
        Value::Object(m) if !m.is_empty() => {
            ('{', '}', m.iter().map(|(k, x)| (Some(k), x)).collect())
        }
        Value::Array(a) if a.iter().any(nested) => {
            ('[', ']', a.iter().map(|x| (None, x)).collect())
        }
        _ => return out.push_str(&serde_json::to_string(v).expect("a value serialises")),
    };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&serde_json::to_string(key).expect("a key serialises"));
            out.push_str(": ");
        }
        write(out, item, depth + 1);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_keeps_scalar_arrays_on_one_line() {
        let v = serde_json::json!({
            "a": vec![1.5, 2.0],
            "b": serde_json::json!({ "c": "x" }),
            "d": vec![serde_json::json!({ "e": 1 })],
            "f": Vec::<f64>::new(),
        });
        let text = to_text(&v);
        assert_eq!(
            text,
            "{\n  \"a\": [1.5,2],\n  \"b\": {\n    \"c\": \"x\"\n  },\n  \"d\": [\n    {\n      \
             \"e\": 1\n    }\n  ],\n  \"f\": []\n}\n"
        );
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn claims_report_only_mismatches_of_their_mode() {
        #[derive(Serialize)]
        struct S {
            x: f64,
        }
        impl Summary for S {
            fn paper(&self) -> Vec<(&'static str, f64, f64)> {
                vec![("x", self.x, 2.0)]
            }
            fn claims(&self) -> Claims {
                vec![
                    (Claim::Reproduced, "positive", self.x > 0.0),
                    (Claim::NotReproducedInFull, "large", self.x > 10.0),
                    (Claim::ReproducedInFull, "negative", self.x < 0.0),
                ]
            }
        }
        let (fast, wrong) = entry("s", &S { x: 1.0 }, true);
        assert!(wrong.is_empty(), "{wrong:?}");
        assert_eq!(fast["paper"]["x"]["paper"].as_f64(), Some(2.0));
        assert_eq!(fast["claims"].as_object().unwrap().len(), 1);
        let (full, wrong) = entry("s", &S { x: 1.0 }, false);
        assert_eq!(full["claims"]["large"].as_str(), Some("not reproduced"));
        assert_eq!(
            wrong,
            ["s.claims.negative: recorded reproduced, measured not reproduced"]
        );
    }

    /// The committed fast- and full-mode ledgers.
    fn committed() -> [Value; 2] {
        [
            include_str!("../../../REPRO_fast.json"),
            include_str!("../../../REPRO.json"),
        ]
        .map(|text| serde_json::from_str(text).expect("a committed ledger parses"))
    }

    #[test]
    fn model_free_experiments_match_the_committed_fast_ledger() {
        let [committed, _] = committed();
        let names = ["fig01", "fig04", "fig05", "abl_coldstart"].map(String::from);
        let hub = Arc::default();
        let (ledger, mismatches) = run(&ExpSettings::new(true), &names, &hub).unwrap();
        assert!(mismatches.is_empty(), "{mismatches:?}");
        for name in &names {
            assert_eq!(
                ledger["experiments"][name.as_str()],
                committed["experiments"][name.as_str()],
                "{name} differs from REPRO_fast.json (regenerate it: DEEPBAT_FAST=1 repro)"
            );
        }
    }

    #[test]
    fn fault_sweep_control_arm_equals_fig09() {
        for ledger in committed() {
            let e = &ledger["experiments"];
            let mode = ledger["mode"].as_str().unwrap_or_default();
            let control = &e["abl_faults"]["measured"]["levels"][0];
            assert_eq!(control["intensity"].as_f64(), Some(0.0));
            for policy in ["deepbat_ft", "batch"] {
                let totals = &e["fig09"]["measured"][policy]["totals"];
                assert!(
                    totals.as_object().is_some(),
                    "the {mode} ledger lacks fig09"
                );
                assert_eq!(
                    &control[policy]["totals"], totals,
                    "{policy}, {mode} ledger"
                );
            }
        }
    }

    /// The value a citation's `path` names in a ledger `entry`:
    /// `claims.<name>`, `paper.<key>` or a path into `measured` such as
    /// `sweep[2].totals.vcr_pct`.
    fn cited<'a>(entry: &'a Value, path: &str) -> Option<&'a Value> {
        if let Some(name) = path.strip_prefix("claims.") {
            return entry["claims"].get(name);
        }
        if let Some(key) = path.strip_prefix("paper.") {
            return entry["paper"].get(key);
        }
        let mut v = &entry["measured"];
        for part in path.split('.') {
            let mut steps = part.split('[');
            v = v.get(steps.next()?)?;
            for index in steps {
                let i: usize = index.strip_suffix(']')?.parse().ok()?;
                v = v.as_array()?.get(i)?;
            }
        }
        Some(v)
    }

    #[test]
    fn every_ledger_citation_in_the_docs_resolves() {
        let [fast, full] = committed();
        let mut resolved = 0;
        for (doc, text) in [
            ("EXPERIMENTS.md", include_str!("../../../EXPERIMENTS.md")),
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ] {
            let mut fenced = false;
            let prose: Vec<&str> = (text.lines())
                .filter(|line| {
                    fenced ^= line.starts_with("```");
                    !fenced && !line.starts_with("```")
                })
                .collect();
            let prose = prose.join("\n");
            // Odd segments are the backticked spans; a citation is
            // `[fast:]<experiment>.<path>`, and `fast:` names the fast ledger.
            for span in prose.split('`').skip(1).step_by(2) {
                let (ledger, citation) = match span.strip_prefix("fast:") {
                    Some(rest) => (&fast, rest),
                    None => (&full, span),
                };
                let Some((name, path)) = citation.split_once('.') else {
                    continue;
                };
                let plain = |c: char| c.is_ascii_alphanumeric() || "_.[]".contains(c);
                if !EXPERIMENTS.iter().any(|(n, _)| *n == name) || !path.chars().all(plain) {
                    continue;
                }
                let entry = &ledger["experiments"][name];
                assert!(
                    cited(entry, path).is_some(),
                    "{doc}: `{span}` names no value in the {} ledger",
                    ledger["mode"].as_str().unwrap_or_default()
                );
                resolved += 1;
            }
        }
        assert!(resolved > 150, "only {resolved} citations found");
    }
}
