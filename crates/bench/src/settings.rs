//! Shared experiment settings and the model cache.
//!
//! Every figure binary pulls its configuration from [`ExpSettings`] so the
//! whole evaluation is consistent (same SLO, grid, traces, seeds). Setting
//! `DEEPBAT_FAST=1` shrinks training and horizons for smoke runs.

use dbat_core::{
    fine_tune, generate_dataset, train, validation_mape_split, Surrogate, SurrogateConfig,
    TrainConfig,
};
use dbat_sim::{ConfigGrid, SimParams};
use dbat_telemetry::{log_info, log_warn, JsonlSink};
use dbat_workload::{Trace, TraceKind, HOUR};
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic seeds per trace (generation) — shared by all figures.
pub(crate) const SEED_AZURE: u64 = 11;
pub(crate) const SEED_TWITTER: u64 = 22;
pub(crate) const SEED_ALIBABA: u64 = 33;
pub(crate) const SEED_SYNTH: u64 = 44;

/// Global experiment configuration.
#[derive(Clone, Debug)]
pub struct ExpSettings {
    /// Surrogate input window length. The paper operates at 256 (Fig. 15a);
    /// we default to 128 — the adjacent point on the paper's own
    /// accuracy/time trade-off curve — because this reproduction trains on
    /// a single CPU core (see EXPERIMENTS.md).
    pub seq_len: usize,
    /// Number of (window, config) training samples.
    pub dataset_size: usize,
    pub epochs: usize,
    /// Fine-tuning dataset size / epochs for OOD traces.
    pub(crate) ft_dataset_size: usize,
    pub(crate) ft_epochs: usize,
    /// Latency SLO in seconds (paper: 0.1).
    pub slo: f64,
    /// SLO percentile (paper: 95th).
    pub percentile: f64,
    /// Search grid shared by DeepBAT, BATCH, and the ground truth.
    pub grid: ConfigGrid,
    pub params: SimParams,
    /// Controller decision interval (seconds).
    pub decision_interval: f64,
    /// Hours of trace to evaluate in the VCR figures.
    pub eval_hours: usize,
    pub fast: bool,
}

/// RAII guard returned by [`ExpSettings::init_telemetry`]. Dropping it
/// emits a final `run.metrics` event with every recorded metric and
/// flushes all sinks, so the JSONL file is complete when `main` returns.
pub struct TelemetryGuard {
    bin: String,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let t = dbat_telemetry::global();
        if t.is_enabled() {
            let mut data = serde_json::Map::new();
            data.insert(
                "bin".to_string(),
                serde_json::Value::String(self.bin.clone()),
            );
            data.insert("metrics".to_string(), t.metrics_json());
            t.emit("run.metrics", serde_json::Value::Object(data));
            t.flush();
        }
    }
}

impl ExpSettings {
    /// Enable telemetry for a figure binary: turn on the global hub and
    /// stream events as JSONL to `<cache_dir>/telemetry/<bin>.jsonl`.
    /// Hold the returned guard for the life of `main`.
    /// `DEEPBAT_TELEMETRY=0|off|false` leaves telemetry disabled.
    pub fn init_telemetry(&self, bin: &str) -> TelemetryGuard {
        let t = dbat_telemetry::global();
        if let Ok(v) = std::env::var("DEEPBAT_TELEMETRY") {
            if matches!(
                v.to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            ) {
                return TelemetryGuard {
                    bin: bin.to_string(),
                };
            }
        }
        t.enable();
        let dir = self.cache_dir().join("telemetry");
        match std::fs::create_dir_all(&dir) {
            Ok(()) => {
                let path = dir.join(format!("{bin}.jsonl"));
                match JsonlSink::create(&path) {
                    Ok(sink) => t.add_sink(Arc::new(sink)),
                    Err(e) => log_warn!("telemetry", "cannot open {}: {e}", path.display()),
                }
            }
            Err(e) => log_warn!("telemetry", "cannot create {}: {e}", dir.display()),
        }
        t.emit(
            "run.start",
            serde_json::json!({
                "bin": bin,
                "fast": self.fast,
                "slo": self.slo,
                "percentile": self.percentile,
                "seq_len": self.seq_len,
                "grid_size": self.grid.len(),
            }),
        );
        TelemetryGuard {
            bin: bin.to_string(),
        }
    }

    /// Settings from the environment (`DEEPBAT_FAST=1` for smoke runs).
    pub fn from_env() -> Self {
        let fast = std::env::var("DEEPBAT_FAST")
            .map(|v| v == "1")
            .unwrap_or(false);
        if fast {
            ExpSettings {
                seq_len: 64,
                dataset_size: 240,
                epochs: 6,
                ft_dataset_size: 80,
                ft_epochs: 3,
                slo: 0.1,
                percentile: 95.0,
                grid: ConfigGrid::paper_default(),
                params: SimParams::default(),
                decision_interval: 60.0,
                eval_hours: 3,
                fast,
            }
        } else {
            ExpSettings {
                seq_len: 128,
                dataset_size: 2000,
                epochs: 50,
                ft_dataset_size: 500,
                ft_epochs: 12,
                slo: 0.1,
                percentile: 95.0,
                grid: ConfigGrid::paper_default(),
                params: SimParams::default(),
                decision_interval: 60.0,
                eval_hours: 12,
                fast,
            }
        }
    }

    pub(crate) fn surrogate_config(&self) -> SurrogateConfig {
        SurrogateConfig {
            seq_len: self.seq_len,
            ..SurrogateConfig::default()
        }
    }

    pub(crate) fn train_config(&self) -> TrainConfig {
        // lr 3e-3 over ~50 epochs (with built-in step decay) reaches the
        // same loss plateau as the paper's 1e-3 x 100 epochs in half the
        // single-core wall-clock (see EXPERIMENTS.md).
        TrainConfig {
            epochs: self.epochs,
            lr: 3e-3,
            ..TrainConfig::default()
        }
    }

    /// Model/figure cache directory (`target/deepbat`).
    pub fn cache_dir(&self) -> PathBuf {
        let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let suffix = if self.fast { "deepbat-fast" } else { "deepbat" };
        PathBuf::from(base).join(suffix)
    }

    /// Generate (deterministically) the full 24 h trace for a kind.
    pub fn trace(&self, kind: TraceKind) -> Trace {
        let hours = if self.fast {
            self.eval_hours.max(2) as f64 + 1.0
        } else {
            24.0
        };
        kind.generate_for(self.seed_for(kind), hours * HOUR)
    }

    pub fn seed_for(&self, kind: TraceKind) -> u64 {
        match kind {
            TraceKind::AzureLike => SEED_AZURE,
            TraceKind::TwitterLike => SEED_TWITTER,
            TraceKind::AlibabaLike => SEED_ALIBABA,
            TraceKind::SyntheticMap => SEED_SYNTH,
        }
    }

    /// Load the cached base surrogate or train it on the first half of the
    /// Azure-like trace (the paper trains on Azure's first 12 hours).
    pub fn ensure_base_model(&self) -> Surrogate {
        let path = self.cache_dir().join("base.json");
        if let Ok(m) = Surrogate::load(&path) {
            if m.cfg == self.surrogate_config() {
                log_info!(
                    "deepbat",
                    "loaded cached base model from {}",
                    path.display()
                );
                return m;
            }
        }
        log_info!(
            "deepbat",
            "training base model ({} samples, {} epochs)…",
            self.dataset_size,
            self.epochs
        );
        let trace = self.trace(TraceKind::AzureLike);
        let train_horizon = trace.horizon() / 2.0; // "first 12 hours"
        let train_slice = trace.slice(0.0, train_horizon);
        let data = generate_dataset(
            &train_slice,
            &self.grid,
            &self.params,
            self.dataset_size,
            self.seq_len,
            self.slo,
            101,
        );
        let mut model = Surrogate::new(self.surrogate_config(), 2024);
        let report = train(&mut model, &data, &self.train_config());
        let rows: Vec<usize> = (data.len() * 9 / 10..data.len()).collect();
        let (cost_mape, lat_mape) = validation_mape_split(&model, &data, &rows);
        log_info!(
            "deepbat",
            "trained: val MAPE {:.2}% (cost {:.2}%, latency {:.2}%), {:.1}s/epoch",
            report.final_val_mape,
            cost_mape,
            lat_mape,
            report.secs_per_epoch
        );
        model.save(&path).expect("cache dir writable");
        model
    }

    /// Load or build the fine-tuned variant for an OOD trace (fine-tuned on
    /// the trace's first hour, §IV-C).
    pub fn ensure_finetuned(&self, kind: TraceKind) -> Surrogate {
        let path = self.cache_dir().join(format!("ft-{}.json", kind.name()));
        if let Ok(m) = Surrogate::load(&path) {
            if m.cfg == self.surrogate_config() {
                log_info!(
                    "deepbat",
                    "loaded cached fine-tuned model {}",
                    path.display()
                );
                return m;
            }
        }
        let mut model = self.ensure_base_model();
        log_info!("deepbat", "fine-tuning on first hour of {}…", kind.name());
        let trace = self.trace(kind);
        let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
        let data = generate_dataset(
            &first_hour,
            &self.grid,
            &self.params,
            self.ft_dataset_size,
            self.seq_len,
            self.slo,
            202,
        );
        let report = fine_tune(&mut model, &data, self.ft_epochs, &self.train_config());
        log_info!("deepbat", "fine-tuned: MAPE {:.2}%", report.final_val_mape);
        model.save(&path).expect("cache dir writable");
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_settings_are_smaller() {
        std::env::set_var("DEEPBAT_FAST", "1");
        let fast = ExpSettings::from_env();
        std::env::remove_var("DEEPBAT_FAST");
        let full = ExpSettings::from_env();
        assert!(fast.fast);
        assert!(!full.fast);
        assert!(fast.dataset_size < full.dataset_size);
        assert!(fast.seq_len <= full.seq_len);
        assert_ne!(fast.cache_dir(), full.cache_dir());
    }

    #[test]
    fn traces_deterministic() {
        let s = ExpSettings::from_env();
        // Use a short manual horizon to keep the test quick.
        let a = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), 600.0);
        let b = TraceKind::AzureLike.generate_for(SEED_AZURE, 600.0);
        assert_eq!(a.timestamps(), b.timestamps());
    }
}
