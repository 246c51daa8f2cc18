//! Shared experiment settings and the model cache.
//!
//! Every experiment pulls its configuration from [`ExpSettings`] so the
//! whole evaluation is consistent (same SLO, grid, traces, seeds). Setting
//! `DEEPBAT_FAST=1` shrinks training and horizons for smoke runs.

use dbat_core::{
    fine_tune, generate_dataset, train, Surrogate, SurrogateConfig, TrainConfig, TrainSample,
};
use dbat_sim::{ConfigGrid, SimParams};
use dbat_telemetry::{log_info, Telemetry};
use dbat_workload::{Trace, TraceKind, HOUR};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Deterministic seeds per trace (generation) — shared by all figures.
pub(crate) const SEED_AZURE: u64 = 11;
pub(crate) const SEED_TWITTER: u64 = 22;
pub(crate) const SEED_ALIBABA: u64 = 33;
pub(crate) const SEED_SYNTH: u64 = 44;

/// Seeds of the training recipe: the base dataset's window draw, the base
/// model's initialisation, and each fine-tuning dataset's window draw.
const SEED_BASE_DATA: u64 = 101;
const SEED_BASE_INIT: u64 = 2024;
const SEED_FT_DATA: u64 = 202;

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

/// A bench binary's telemetry, returned by [`ExpSettings::init_telemetry`]:
/// the run's hub, and on drop a final `run.metrics` event with every
/// recorded metric, all sinks flushed, so the JSONL file is complete when
/// `main` returns.
pub struct TelemetryGuard {
    pub hub: Arc<Telemetry>,
    bin: String,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        let t = &self.hub;
        if t.is_enabled() {
            let data = serde_json::json!({ "bin": self.bin, "metrics": t.metrics_json() });
            t.emit("run.metrics", data);
            t.flush();
        }
    }
}

impl ExpSettings {
    /// A bench binary's hub ([`Telemetry::from_env`]), streaming events
    /// as JSONL to `<cache_dir>/telemetry/<bin>.jsonl` and opened with a
    /// `run.start` event. Hold the returned guard for the life of `main`.
    pub fn init_telemetry(&self, bin: &str) -> TelemetryGuard {
        let path = self.cache_dir().join(format!("telemetry/{bin}.jsonl"));
        let hub = Telemetry::from_env(Some(&path));
        let data = serde_json::json!({ "bin": bin, "fast": self.fast, "slo": self.slo,
            "percentile": self.percentile, "seq_len": self.seq_len, "grid_size": self.grid.len() });
        hub.emit("run.start", data);
        TelemetryGuard {
            hub,
            bin: bin.to_string(),
        }
    }

    /// Settings from the environment (`DEEPBAT_FAST=1` for smoke runs).
    pub fn from_env() -> Self {
        ExpSettings::new(
            std::env::var("DEEPBAT_FAST")
                .map(|v| v == "1")
                .unwrap_or(false),
        )
    }

    /// The fast (smoke-scale) or full settings.
    pub(crate) fn new(fast: bool) -> Self {
        let pick = |smoke: usize, full: usize| if fast { smoke } else { full };
        ExpSettings {
            seq_len: pick(64, 128),
            dataset_size: pick(240, 2000),
            epochs: pick(6, 50),
            ft_dataset_size: pick(80, 500),
            ft_epochs: pick(3, 12),
            slo: 0.1,
            percentile: 95.0,
            grid: ConfigGrid::paper_default(),
            params: SimParams::default(),
            decision_interval: 60.0,
            eval_hours: pick(3, 12),
            fast,
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

    /// Everything the base model's weights depend on, as one string.
    fn base_recipe(&self) -> String {
        format!(
            "{self:?} {:?} {:?} trace_seed={SEED_AZURE} data_seed={SEED_BASE_DATA} \
             init_seed={SEED_BASE_INIT} kernels={}",
            self.surrogate_config(),
            self.train_config(),
            gemm_kernels()
        )
    }

    /// The base recipe plus what fine-tuning on `kind` adds to it.
    fn finetune_recipe(&self, kind: TraceKind) -> String {
        format!(
            "{} | fine-tune {} trace_seed={} data_seed={SEED_FT_DATA}",
            self.base_recipe(),
            kind.name(),
            self.seed_for(kind)
        )
    }

    /// Simulator-labelled training windows drawn from `trace`.
    fn dataset(&self, trace: &Trace, n: usize, seed: u64) -> Vec<TrainSample> {
        generate_dataset(
            trace,
            &self.grid,
            &self.params,
            n,
            self.seq_len,
            self.slo,
            seed,
        )
    }

    /// Load the cached base surrogate or train it on the first half of the
    /// Azure-like trace (the paper trains on Azure's first 12 hours),
    /// publishing a training run's report to `hub`.
    pub fn ensure_base_model(&self, hub: &Telemetry) -> Arc<Surrogate> {
        self.base_model(hub).model
    }

    fn base_model(&self, hub: &Telemetry) -> Trained {
        cached(&self.cache_dir(), "base", self.base_recipe(), || {
            log_info!(
                "deepbat",
                "training base model ({} samples, {} epochs)…",
                self.dataset_size,
                self.epochs
            );
            let trace = self.trace(TraceKind::AzureLike);
            let first_half = trace.slice(0.0, trace.horizon() / 2.0);
            let data = self.dataset(&first_half, self.dataset_size, SEED_BASE_DATA);
            let mut model = Surrogate::new(self.surrogate_config(), SEED_BASE_INIT);
            let report = train(&mut model, &data, &self.train_config());
            report.publish(hub);
            (model, report.final_val_mape)
        })
    }

    /// Load or build the fine-tuned variant for an OOD trace (fine-tuned on
    /// the trace's first hour, §IV-C).
    fn finetuned_model(&self, kind: TraceKind, hub: &Telemetry) -> Trained {
        let name = format!("ft-{}", kind.name());
        cached(&self.cache_dir(), &name, self.finetune_recipe(kind), || {
            let base = self.base_model(hub).model;
            let mut model = Arc::into_inner(base).expect("a freshly loaded model has one owner");
            log_info!("deepbat", "fine-tuning on first hour of {}…", kind.name());
            let trace = self.trace(kind);
            let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
            let data = self.dataset(&first_hour, self.ft_dataset_size, SEED_FT_DATA);
            let report = fine_tune(&mut model, &data, self.ft_epochs, &self.train_config());
            report.publish(hub);
            (model, report.final_val_mape)
        })
    }
}

/// A surrogate and the record of its training.
pub(crate) struct Trained {
    pub(crate) model: Arc<Surrogate>,
    pub(crate) record: TrainRecord,
}

/// What every experiment of one run shares: the surrogate models, each
/// loaded from the cache (or trained) at most once per process, and the
/// run's telemetry hub. The hub travels here, not in [`ExpSettings`] or
/// [`TrainConfig`], whose `Debug` text is the model cache's recipe key.
pub(crate) struct Models<'a> {
    s: &'a ExpSettings,
    pub(crate) hub: Arc<Telemetry>,
    /// The base model, then the two fine-tuned on the OOD traces the paper
    /// fine-tunes on (Alibaba-like, synthetic).
    cells: [OnceCell<Trained>; 3],
}

impl<'a> Models<'a> {
    pub(crate) fn new(s: &'a ExpSettings, hub: Arc<Telemetry>) -> Self {
        let cells = Default::default();
        Models { s, hub, cells }
    }

    pub(crate) fn base(&self) -> &Trained {
        self.cells[0].get_or_init(|| self.s.base_model(&self.hub))
    }

    pub(crate) fn finetuned(&self, kind: TraceKind) -> &Trained {
        let i = match kind {
            TraceKind::AlibabaLike => 1,
            TraceKind::SyntheticMap => 2,
            other => panic!("no fine-tuned model for {}", other.name()),
        };
        self.cells[i].get_or_init(|| self.s.finetuned_model(kind, &self.hub))
    }
}

/// What a cached checkpoint was trained under and the validation MAPE its
/// training reported, stored beside the weights as `<name>.recipe.json`.
#[derive(Serialize, Deserialize)]
pub(crate) struct TrainRecord {
    /// Every input the weights depend on (settings, architecture, training
    /// hyper-parameters, seeds, GEMM kernel family): a checkpoint is
    /// reused only under an identical recipe.
    pub(crate) recipe: String,
    /// Validation MAPE (%) over all five outputs.
    pub(crate) val_mape_pct: f64,
}

/// Load checkpoint `name` from `dir` if its record carries `recipe`;
/// otherwise train it with `train`, which returns the model and its
/// validation MAPE, and cache the weights and the record.
fn cached(
    dir: &Path,
    name: &str,
    recipe: String,
    train: impl FnOnce() -> (Surrogate, f64),
) -> Trained {
    let weights = dir.join(format!("{name}.json"));
    let record_path = dir.join(format!("{name}.recipe.json"));
    let record = std::fs::read_to_string(&record_path)
        .ok()
        .and_then(|text| serde_json::from_str::<TrainRecord>(&text).ok())
        .filter(|r| r.recipe == recipe);
    if let Some(record) = record {
        if let Ok(model) = Surrogate::load(&weights) {
            log_info!("deepbat", "loaded cached model {}", weights.display());
            let model = Arc::new(model);
            return Trained { model, record };
        }
    }
    let (model, val_mape_pct) = train();
    log_info!("deepbat", "trained {name}: val MAPE {val_mape_pct:.2}%");
    std::fs::create_dir_all(dir).expect("cache dir writable");
    model.save(&weights).expect("cache dir writable");
    let record = TrainRecord {
        recipe,
        val_mape_pct,
    };
    let text = serde_json::to_string_pretty(&record).expect("record serialises");
    std::fs::write(&record_path, text).expect("cache dir writable");
    let model = Arc::new(model);
    Trained { model, record }
}

/// The kernel family the GEMM, softmax and attention kernels run on. The
/// scalar tier rounds its products differently from the fused ones, so
/// trained weights depend on it; AVX2 and AVX-512 give the same bits and
/// share one family.
fn gemm_kernels() -> &'static str {
    if dbat_linalg::kernel_tier().fused() {
        "fma"
    } else {
        "scalar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_settings_are_smaller() {
        let fast = ExpSettings::new(true);
        let full = ExpSettings::new(false);
        assert!(fast.fast);
        assert!(!full.fast);
        assert!(fast.dataset_size < full.dataset_size);
        assert!(fast.seq_len <= full.seq_len);
        assert_ne!(fast.cache_dir(), full.cache_dir());
    }

    #[test]
    fn a_checkpoint_is_retrained_under_another_recipe() {
        let dir = std::env::temp_dir().join(format!("dbat-bench-cache-{}", std::process::id()));
        let s = ExpSettings::new(true);
        let more_epochs = ExpSettings {
            epochs: s.epochs + 1,
            ..s.clone()
        };
        let more_data = ExpSettings {
            dataset_size: s.dataset_size + 1,
            ..s.clone()
        };
        assert_ne!(s.base_recipe(), more_epochs.base_recipe());
        assert_ne!(s.base_recipe(), more_data.base_recipe());
        assert_ne!(
            s.finetune_recipe(TraceKind::AlibabaLike),
            s.finetune_recipe(TraceKind::SyntheticMap)
        );
        let trainings = std::cell::Cell::new(0);
        let fetch = |settings: &ExpSettings| {
            let trained = cached(&dir, "base", settings.base_recipe(), || {
                trainings.set(trainings.get() + 1);
                let model = Surrogate::new(settings.surrogate_config(), 1);
                (model, trainings.get() as f64)
            });
            trained.record.val_mape_pct
        };
        assert_eq!(fetch(&s), 1.0, "an empty cache trains");
        assert_eq!(fetch(&s), 1.0, "the same recipe loads");
        assert_eq!(fetch(&more_epochs), 2.0, "another recipe retrains");
        assert_eq!(fetch(&more_epochs), 2.0);
        assert_eq!(fetch(&s), 3.0, "the cache holds the last recipe only");
        assert_eq!(trainings.get(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traces_deterministic() {
        let s = ExpSettings::new(false);
        // Use a short manual horizon to keep the test quick.
        let a = TraceKind::AzureLike.generate_for(s.seed_for(TraceKind::AzureLike), 600.0);
        let b = TraceKind::AzureLike.generate_for(SEED_AZURE, 600.0);
        assert_eq!(a.timestamps(), b.timestamps());
    }
}
