//! Regenerate the reproduction ledger: every paper figure and table and
//! every ablation (γ, cold starts, label replication, faults, multi-SLO
//! groups, token-aware batching) run in one process, each surrogate model
//! loaded or trained once.
//!
//! `repro` runs everything and writes `REPRO_fast.json` under
//! `DEEPBAT_FAST=1`, `REPRO.json` otherwise. `repro fig08 fig10` runs only
//! the named experiments and prints their part of the ledger to stdout,
//! leaving the file alone. Either way the run fails, and writes nothing,
//! if a shape claim's outcome differs from the one recorded for it.

use dbat_bench::{ledger, ExpSettings};
use dbat_telemetry::log_error;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let s = ExpSettings::from_env();
    let telemetry = s.init_telemetry("repro");
    let run = ledger::run(&s, &names, &telemetry.hub);
    // Close the run's telemetry (`run.metrics`, sinks flushed) before any
    // exit below, which would skip the guard's drop.
    drop(telemetry);
    let (ledger, mismatches) = run.unwrap_or_else(|e| {
        eprintln!("repro: {e}\nusage: repro [experiment…]");
        std::process::exit(2)
    });
    let text = ledger::to_text(&ledger);
    if !mismatches.is_empty() {
        for m in &mismatches {
            log_error!("repro", "{m}");
        }
        print!("{text}");
        std::process::exit(1);
    }
    if names.is_empty() {
        let path = if s.fast {
            "REPRO_fast.json"
        } else {
            "REPRO.json"
        };
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("repro: wrote {path}");
    } else {
        print!("{text}");
    }
}
