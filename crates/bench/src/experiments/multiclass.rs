//! Ablation: multi-SLO serving over heterogeneous function groups against
//! one configuration for every class.
//!
//! The workload mixes three request classes with tight, mid and loose
//! latency SLOs. For each scorer (the ground-truth oracle sweep, the
//! DeepBAT surrogate, the BATCH analytic model) the experiment plans
//!
//! * [`joint_decide`]: the HarmonyBatch-style merge of compatible SLOs into
//!   function groups, each with its own `(M, B, T)`;
//! * [`single_config_baseline`]: one pool for every class, its config
//!   chosen against the tightest SLO (the best a single config can do);
//!
//! and evaluates both plans with the ground-truth multi-queue simulator.

use super::r;
use crate::ledger::Claim::Reproduced;
use crate::ledger::{Claims, Summary};
use crate::settings::Models;
use crate::ExpSettings;
use dbat_analytic::AnalyticGroupScorer;
use dbat_core::SurrogateGroupScorer;
use dbat_sim::{
    joint_decide, simulate_batching_multi, single_config_baseline, GroupScorer, JointDecision,
    OracleGroupScorer,
};
use dbat_workload::{ClassedTrace, RequestClass, TraceKind};
use serde::Serialize;
use std::collections::BTreeMap;

/// Seed of the Azure-like arrivals (the class labels draw from it too).
const SEED: u64 = 42;

/// The request classes, by id.
#[derive(Serialize)]
pub(crate) struct Classes {
    pub slo_ms: Vec<f64>,
    pub weight: Vec<f64>,
    pub requests: Vec<usize>,
}

/// A plan and its ground-truth outcome; the per-class series are indexed
/// by class id.
#[derive(Serialize)]
pub(crate) struct Plan {
    pub groups: usize,
    pub feasible: bool,
    pub predicted_cost_uusd: f64,
    pub total_cost_uusd: f64,
    pub p95_ms: Vec<f64>,
    pub slo_met: Vec<bool>,
    pub attainment_pct: Vec<f64>,
    pub cost_uusd: Vec<f64>,
}

/// One scorer's joint plan against its single-config baseline.
#[derive(Serialize)]
pub(crate) struct Scored {
    pub joint: Plan,
    pub single: Plan,
    /// Joint against single total cost.
    pub cost_saving_pct: f64,
}

/// Ablation: joint heterogeneous groups against one config for all, on a
/// one-hour Azure-like trace (10 minutes in fast mode).
#[derive(Serialize)]
pub(crate) struct AblMulticlass {
    pub horizon_s: f64,
    pub requests: usize,
    pub classes: Classes,
    pub scorers: BTreeMap<String, Scored>,
}

pub(crate) fn abl_multiclass(s: &ExpSettings, m: &Models) -> AblMulticlass {
    let classes = [
        RequestClass::with_weight(0, 0.08, 1.0),
        RequestClass::with_weight(1, 0.25, 2.0),
        RequestClass::with_weight(2, 1.0, 3.0),
    ];
    let horizon = if s.fast { 600.0 } else { 3600.0 };
    let trace = TraceKind::AzureLike.generate_for(SEED, horizon);
    let classed =
        ClassedTrace::tag_weighted(trace, &classes, SEED ^ 0xC1A55).expect("valid classes");
    let p = s.percentile;
    // A plan's summary and its unrounded total cost.
    let plan = |decision: JointDecision| {
        let truth = simulate_batching_multi(&classed, &classes, &decision.groups, &s.params)
            .expect("a plan simulates");
        assert!(truth.conserved(classed.len()), "conservation violated");
        let per_class = &truth.per_class;
        let plan = Plan {
            groups: decision.groups.len(),
            feasible: decision.feasible,
            predicted_cost_uusd: r(decision.predicted_cost * 1e6, 0),
            total_cost_uusd: r(truth.total_cost * 1e6, 0),
            p95_ms: (per_class.iter())
                .map(|c| r(c.summary.percentile(p) * 1e3, 1))
                .collect(),
            slo_met: per_class.iter().map(|c| c.slo_met(p)).collect(),
            attainment_pct: per_class.iter().map(|c| r(c.attainment_pct, 1)).collect(),
            cost_uusd: per_class.iter().map(|c| r(c.cost * 1e6, 0)).collect(),
        };
        (plan, truth.total_cost)
    };
    let score = |scorer: &mut dyn GroupScorer| {
        let (joint, joint_cost) =
            plan(joint_decide(&classed, &classes, scorer).expect("joint decide"));
        let (single, single_cost) =
            plan(single_config_baseline(&classed, &classes, scorer).expect("baseline decide"));
        Scored {
            cost_saving_pct: r((1.0 - joint_cost / single_cost) * 100.0, 1),
            joint,
            single,
        }
    };
    let (grid, params) = (s.grid.clone(), s.params);
    let model = &m.base().model;
    let scorers = [
        (
            "oracle",
            score(&mut OracleGroupScorer {
                grid: grid.clone(),
                params,
                percentile: p,
            }),
        ),
        (
            "surrogate",
            score(&mut SurrogateGroupScorer::new(model, grid.clone(), p)),
        ),
        (
            "analytic",
            score(&mut AnalyticGroupScorer {
                grid,
                params,
                percentile: p,
            }),
        ),
    ];
    AblMulticlass {
        horizon_s: horizon,
        requests: classed.len(),
        classes: Classes {
            slo_ms: classes.iter().map(|c| r(c.slo * 1e3, 0)).collect(),
            weight: classes.iter().map(|c| c.weight_or_default()).collect(),
            requests: classed.class_counts(),
        },
        scorers: (scorers.into_iter())
            .map(|(name, scored)| (name.to_string(), scored))
            .collect(),
    }
}

impl Summary for AblMulticlass {
    fn claims(&self) -> Claims {
        let oracle = &self.scorers["oracle"];
        let (joint, single) = (&oracle.joint, &oracle.single);
        let cheaper = joint.total_cost_uusd < single.total_cost_uusd;
        let no_worse = (joint.slo_met.iter().zip(&single.slo_met)).all(|(j, s)| j >= s);
        vec![
            (Reproduced, "oracle_joint_cheaper_than_single", cheaper),
            (Reproduced, "oracle_joint_no_class_worse", no_worse),
            (Reproduced, "oracle_joint_feasible", joint.feasible),
        ]
    }
}
