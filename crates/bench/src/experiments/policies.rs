//! The head-to-head experiments (Figs. 6–12, the γ ablation and the fault
//! sweep): DeepBAT against BATCH, the clairvoyant oracle and its own
//! pretrained variant, each driven by [`compare::run_policy`].

use super::{non_decreasing, non_increasing, r, Hourly, Span, Totals};
use crate::compare;
use crate::ledger::Claim::{NotReproduced, NotReproducedInFull, Reproduced, ReproducedInFull};
use crate::ledger::{Claims, Summary};
use crate::settings::Models;
use crate::ExpSettings;
use dbat_core::{estimate_gamma, GracefulController, Surrogate};
use dbat_sim::{Controller, DecisionRecord, FaultPlan, LambdaConfig, RunOutcome};
use dbat_workload::{Trace, TraceKind, HOUR};
use serde::Serialize;
use std::sync::Arc;

/// Drive a policy over `[t0, t1)` of `trace`, publishing to the run's hub.
fn runner<'a>(
    s: &'a ExpSettings,
    m: &'a Models,
    trace: &'a Trace,
    t0: f64,
    t1: f64,
) -> impl Fn(&mut dyn Controller) -> RunOutcome + 'a {
    move |ctl| compare::run_policy(ctl, trace, s, &m.hub, t0, t1)
}

/// An OOD trace, the model fine-tuned on it, and γ from that model's
/// prediction error on the trace's first hour (§III-D), sampled with `seed`.
fn finetuned(
    s: &ExpSettings,
    m: &Models,
    kind: TraceKind,
    seed: u64,
) -> (Trace, Arc<Surrogate>, f64) {
    let trace = s.trace(kind);
    let model = m.finetuned(kind).model.clone();
    let first_hour = trace.slice(0.0, HOUR.min(trace.horizon()));
    let gamma = estimate_gamma(&model, &first_hour, &s.grid, &s.params, 24, seed);
    (trace, model, gamma)
}

/// The synthetic trace's sharpest previous-hour mismatch (the paper's hour
/// 3→4 is hour 2 here, see Fig. 10), shown by Figs. 9 and 11 and the fault
/// sweep.
fn burst_hour(s: &ExpSettings) -> f64 {
    if s.fast {
        1.0
    } else {
        2.0
    }
}

/// Hour `h0` of `trace`, clipped to its end.
fn hour(h0: f64, trace: &Trace) -> (f64, f64) {
    (h0 * HOUR, ((h0 + 1.0) * HOUR).min(trace.horizon()))
}

/// The number of whole hours evaluated on `trace`.
fn eval_hours(s: &ExpSettings, trace: &Trace) -> usize {
    s.eval_hours.min((trace.horizon() / HOUR) as usize)
}

/// Fig. 6 and Observation #1: a 10-minute Azure-like snapshot near the
/// evening peak (the paper's 19:40–19:50), and the same base model
/// zero-shot on the Twitter-like trace.
#[derive(Serialize)]
pub(crate) struct Fig06 {
    pub gamma: f64,
    pub deepbat: Span,
    pub batch: Span,
    pub oracle: Span,
    pub twitter_deepbat: Totals,
    pub twitter_batch: Totals,
}

pub(crate) fn fig06(s: &ExpSettings, m: &Models) -> Fig06 {
    let model = &m.base().model;
    let azure = s.trace(TraceKind::AzureLike);
    // Scaled down to the horizon in fast mode.
    let (w0, w1) = if azure.horizon() >= 20.0 * HOUR {
        (19.0 * HOUR + 40.0 * 60.0, 19.0 * HOUR + 50.0 * 60.0)
    } else {
        let w0 = azure.horizon() * 0.8;
        (w0, w0 + 600.0_f64.min(azure.horizon() * 0.1))
    };
    // γ from held-out Azure data, past the training half.
    let held_out = azure.slice(azure.horizon() / 2.0, azure.horizon() / 2.0 + HOUR);
    let gamma = estimate_gamma(model, &held_out, &s.grid, &s.params, 24, 76);
    let snapshot = runner(s, m, &azure, w0, w1);
    let twitter = s.trace(TraceKind::TwitterLike);
    let zero_shot = runner(s, m, &twitter, 0.0, (3.0 * HOUR).min(twitter.horizon()));
    let deepbat = || compare::deepbat(model.clone(), s, gamma);
    Fig06 {
        gamma: r(gamma, 3),
        deepbat: Span::of(&snapshot(&mut deepbat())),
        batch: Span::of(&snapshot(&mut compare::batch(s))),
        oracle: Span::of(&snapshot(&mut compare::oracle(s))),
        twitter_deepbat: Totals::of(&zero_shot(&mut deepbat())),
        twitter_batch: Totals::of(&zero_shot(&mut compare::batch(s))),
    }
}

impl Summary for Fig06 {
    fn claims(&self) -> Claims {
        let (d, b, o) = (
            &self.deepbat.totals,
            &self.batch.totals,
            &self.oracle.totals,
        );
        let (td, tb) = (&self.twitter_deepbat, &self.twitter_batch);
        let others_meet = b.vcr_pct + o.vcr_pct == 0.0;
        let zero_shot = td.vcr_pct + tb.vcr_pct == 0.0;
        let cheaper = d.cost_uusd <= b.cost_uusd && td.cost_uusd <= tb.cost_uusd;
        vec![
            (Reproduced, "batch_oracle_meet_slo", others_meet),
            (NotReproducedInFull, "deepbat_meets_slo", d.vcr_pct == 0.0),
            (Reproduced, "twitter_both_meet_slo", zero_shot),
            (NotReproduced, "deepbat_costs_at_most_batch", cheaper),
        ]
    }
}

/// One OOD showcase hour, interval by interval (Figs. 7 and 9).
#[derive(Serialize)]
pub(crate) struct ShowcaseHour {
    pub gamma: f64,
    /// The hour shown, counted from the trace's start.
    pub hour: f64,
    pub deepbat_ft: Span,
    pub batch: Span,
}

fn showcase_hour(s: &ExpSettings, m: &Models, kind: TraceKind, h0: f64, seed: u64) -> ShowcaseHour {
    let (trace, model, gamma) = finetuned(s, m, kind, seed);
    let (w0, w1) = hour(h0, &trace);
    let run = runner(s, m, &trace, w0, w1);
    ShowcaseHour {
        gamma: r(gamma, 3),
        hour: h0,
        deepbat_ft: Span::of(&run(&mut compare::deepbat(model, s, gamma))),
        batch: Span::of(&run(&mut compare::batch(s))),
    }
}

impl Summary for ShowcaseHour {
    fn claims(&self) -> Claims {
        let (d, b) = (&self.deepbat_ft.totals, &self.batch.totals);
        let safer = b.vcr_pct > d.vcr_pct;
        let dearer = d.cost_uusd > b.cost_uusd;
        vec![
            (ReproducedInFull, "batch_violates_more", safer),
            (Reproduced, "deepbat_costs_more", dearer),
        ]
    }
}

/// Fig. 7: the Alibaba-like trace's flat-then-peak hour (the paper's hour
/// 5→6 is hour 4 in the regenerated trace, see Fig. 8).
pub(crate) fn fig07(s: &ExpSettings, m: &Models) -> ShowcaseHour {
    let h0 = if s.fast { 1.0 } else { 4.0 };
    showcase_hour(s, m, TraceKind::AlibabaLike, h0, 77)
}

/// Fig. 9: the synthetic trace's burst hour.
pub(crate) fn fig09(s: &ExpSettings, m: &Models) -> ShowcaseHour {
    showcase_hour(
        s,
        m,
        TraceKind::SyntheticMap,
        burst_hour(s),
        FIG09_GAMMA_SEED,
    )
}

/// The seed of Fig. 9's γ estimate, which the fault sweep shares.
const FIG09_GAMMA_SEED: u64 = 79;

/// Fig. 8: per-hour VCR over the Alibaba-like trace, with the pretrained
/// model (no fine-tuning) as the ablation.
#[derive(Serialize)]
pub(crate) struct Fig08 {
    pub gamma: f64,
    pub hours: usize,
    pub batch: Hourly,
    pub deepbat_ft: Hourly,
    pub deepbat_pretrained: Hourly,
}

pub(crate) fn fig08(s: &ExpSettings, m: &Models) -> Fig08 {
    let (trace, model, gamma) = finetuned(s, m, TraceKind::AlibabaLike, 78);
    let hours = eval_hours(s, &trace);
    let run = runner(s, m, &trace, 0.0, hours as f64 * HOUR);
    let base = m.base().model.clone();
    Fig08 {
        gamma: r(gamma, 3),
        hours,
        deepbat_ft: Hourly::of(&run(&mut compare::deepbat(model, s, gamma)), hours),
        deepbat_pretrained: Hourly::of(&run(&mut compare::deepbat(base, s, 0.0)), hours),
        batch: Hourly::of(&run(&mut compare::batch(s)), hours),
    }
}

impl Summary for Fig08 {
    fn paper(&self) -> Vec<(&'static str, f64, f64)> {
        // The paper's hours 4 and 5 (fast mode runs three hours).
        let at = |h: &Hourly, i: usize| h.hourly_vcr_pct.get(i).copied();
        let (b, ft, pre) = (&self.batch, &self.deepbat_ft, &self.deepbat_pretrained);
        let pairs = [
            ("batch.hourly_vcr_pct[4]", at(b, 4), 65.9),
            ("batch.hourly_vcr_pct[5]", at(b, 5), 65.12),
            ("deepbat_ft.hourly_vcr_pct[4]", at(ft, 4), 2.27),
            ("deepbat_ft.hourly_vcr_pct[5]", at(ft, 5), 4.65),
            ("deepbat_pretrained.hourly_vcr_pct[4]", at(pre, 4), 14.18),
            ("deepbat_pretrained.hourly_vcr_pct[5]", at(pre, 5), 17.06),
        ];
        (pairs.into_iter())
            .filter_map(|(key, ours, paper)| Some((key, ours?, paper)))
            .collect()
    }

    fn claims(&self) -> Claims {
        let vcr = |h: &Hourly| h.totals.vcr_pct;
        let (b, ft) = (vcr(&self.batch), vcr(&self.deepbat_ft));
        let pre = vcr(&self.deepbat_pretrained);
        let dearer = self.deepbat_ft.totals.cost_uusd > self.batch.totals.cost_uusd;
        vec![
            (Reproduced, "batch_violates_most", b > ft && b > pre),
            (ReproducedInFull, "pretrained_between", ft < pre && pre < b),
            (
                NotReproducedInFull,
                "finetuning_3x",
                pre > 0.0 && pre >= 3.0 * ft,
            ),
            (Reproduced, "deepbat_costs_more", dearer),
        ]
    }
}

/// Fig. 10: per-hour VCR over the synthetic MAP trace.
#[derive(Serialize)]
pub(crate) struct Fig10 {
    pub gamma: f64,
    pub hours: usize,
    pub batch: Hourly,
    pub deepbat_ft: Hourly,
}

pub(crate) fn fig10(s: &ExpSettings, m: &Models) -> Fig10 {
    let (trace, model, gamma) = finetuned(s, m, TraceKind::SyntheticMap, 80);
    let hours = eval_hours(s, &trace);
    let run = runner(s, m, &trace, 0.0, hours as f64 * HOUR);
    Fig10 {
        gamma: r(gamma, 3),
        hours,
        deepbat_ft: Hourly::of(&run(&mut compare::deepbat(model, s, gamma)), hours),
        batch: Hourly::of(&run(&mut compare::batch(s)), hours),
    }
}

impl Summary for Fig10 {
    fn claims(&self) -> Claims {
        let worst = |h: &Hourly| h.hourly_vcr_pct.iter().cloned().fold(0.0, f64::max);
        let (b, d) = (&self.batch, &self.deepbat_ft);
        let safer = b.totals.vcr_pct > d.totals.vcr_pct;
        let spikes = worst(b) >= 95.0 && worst(d) < 95.0;
        vec![
            (Reproduced, "batch_violates_more", safer),
            (Reproduced, "only_batch_spikes_to_95", spikes),
        ]
    }
}

/// Fig. 11: the (M, B, T) each policy returns, minute by minute, over the
/// synthetic showcase hour.
#[derive(Serialize)]
pub(crate) struct Fig11 {
    pub hour: f64,
    pub deepbat: Vec<String>,
    pub batch: Vec<String>,
    pub oracle: Vec<String>,
    /// Share of minutes on exactly the oracle's configuration.
    pub deepbat_exact_match_pct: f64,
    pub batch_exact_match_pct: f64,
    /// Mean |memory − the oracle's memory| in MB.
    pub deepbat_mean_abs_dm_mb: f64,
    pub batch_mean_abs_dm_mb: f64,
}

pub(crate) fn fig11(s: &ExpSettings, m: &Models) -> Fig11 {
    let (trace, model, gamma) = finetuned(s, m, TraceKind::SyntheticMap, 81);
    let h0 = burst_hour(s);
    let (w0, w1) = hour(h0, &trace);
    let run = runner(s, m, &trace, w0, w1);
    let db = run(&mut compare::deepbat(model, s, gamma)).records;
    let bt = run(&mut compare::batch(s)).records;
    let or = run(&mut compare::oracle(s)).records;
    let n = or.len().max(1) as f64;
    let agree = |sched: &[DecisionRecord]| {
        let hits = sched.iter().zip(&or).filter(|(a, o)| a.config == o.config);
        r(hits.count() as f64 / n * 100.0, 1)
    };
    let mem_dev = |sched: &[DecisionRecord]| {
        let dev = (sched.iter().zip(&or))
            .map(|(a, o)| (a.config.memory_mb as f64 - o.config.memory_mb as f64).abs());
        r(dev.sum::<f64>() / n, 0)
    };
    let configs = |sched: &[DecisionRecord]| sched.iter().map(|d| d.config.to_string()).collect();
    Fig11 {
        hour: h0,
        deepbat_exact_match_pct: agree(&db),
        batch_exact_match_pct: agree(&bt),
        deepbat_mean_abs_dm_mb: mem_dev(&db),
        batch_mean_abs_dm_mb: mem_dev(&bt),
        deepbat: configs(&db),
        batch: configs(&bt),
        oracle: configs(&or),
    }
}

impl Summary for Fig11 {
    fn claims(&self) -> Claims {
        let distinct = |c: &[String]| {
            let mut c = c.to_vec();
            c.sort();
            c.dedup();
            c.len()
        };
        let adapts = distinct(&self.batch) == 1 && distinct(&self.deepbat) > 1;
        let tracks = self.deepbat_mean_abs_dm_mb < self.batch_mean_abs_dm_mb;
        vec![
            (Reproduced, "batch_frozen_deepbat_adapts", adapts),
            (NotReproduced, "deepbat_tracks_oracle", tracks),
        ]
    }
}

/// One SLO setting of Fig. 12.
#[derive(Serialize)]
pub(crate) struct SloRun {
    pub slo_ms: f64,
    pub deepbat_ft: Span,
    pub batch: Span,
    pub oracle: Span,
}

/// Fig. 12: the synthetic trace under varied SLOs (0.15 s in the paper's
/// figure, 0.05 / 0.2 / 0.25 s in its text) in hour 5, which follows a
/// strong previous-hour mismatch (Fig. 10) and is disjoint from Fig. 9's.
#[derive(Serialize)]
pub(crate) struct Fig12 {
    pub gamma: f64,
    pub hour: f64,
    pub slos: Vec<SloRun>,
}

pub(crate) fn fig12(s: &ExpSettings, m: &Models) -> Fig12 {
    let (trace, model, gamma) = finetuned(s, m, TraceKind::SyntheticMap, 82);
    let h0 = if s.fast { 1.0 } else { 5.0 };
    let (w0, w1) = hour(h0, &trace);
    let slos: &[f64] = if s.fast {
        &[0.15]
    } else {
        &[0.05, 0.15, 0.20, 0.25]
    };
    let slos = (slos.iter())
        .map(|&slo| {
            let s = &ExpSettings { slo, ..s.clone() };
            let run = runner(s, m, &trace, w0, w1);
            SloRun {
                slo_ms: r(slo * 1e3, 0),
                deepbat_ft: Span::of(&run(&mut compare::deepbat(model.clone(), s, gamma))),
                batch: Span::of(&run(&mut compare::batch(s))),
                oracle: Span::of(&run(&mut compare::oracle(s))),
            }
        })
        .collect();
    Fig12 {
        gamma: r(gamma, 3),
        hour: h0,
        slos,
    }
}

impl Summary for Fig12 {
    fn claims(&self) -> Claims {
        let vcr = |x: &SloRun| (x.deepbat_ft.totals.vcr_pct, x.batch.totals.vcr_pct);
        let low = self.slos.iter().all(|x| vcr(x).0 <= 1.7);
        let one = self.slos.iter().any(|x| vcr(x).1 > 0.0 && vcr(x).0 == 0.0);
        let all = self.slos.iter().all(|x| vcr(x).1 > 0.0);
        vec![
            (Reproduced, "deepbat_vcr_at_most_1_7", low),
            (ReproducedInFull, "batch_misses_one_slo", one),
            (NotReproducedInFull, "batch_misses_every_slo", all),
        ]
    }
}

/// One γ of the ablation.
#[derive(Serialize)]
pub(crate) struct GammaRun {
    pub gamma: f64,
    /// The operating point estimated from the prediction error.
    pub estimated: bool,
    pub totals: Totals,
}

/// Ablation: the robustness penalty γ (§III-D) trades cost for SLO
/// compliance, on up to six hours of the synthetic trace.
#[derive(Serialize)]
pub(crate) struct AblGamma {
    pub hours: usize,
    pub sweep: Vec<GammaRun>,
}

pub(crate) fn abl_gamma(s: &ExpSettings, m: &Models) -> AblGamma {
    let (trace, model, gamma_est) = finetuned(s, m, TraceKind::SyntheticMap, 90);
    let hours = eval_hours(s, &trace).min(6);
    let run = runner(s, m, &trace, 0.0, hours as f64 * HOUR);
    let sweep = ([0.0, 0.1, gamma_est, 0.5, 1.0].into_iter())
        .map(|gamma| GammaRun {
            gamma: r(gamma, 3),
            estimated: (gamma - gamma_est).abs() < 1e-12,
            totals: Totals::of(&run(&mut compare::deepbat(model.clone(), s, gamma))),
        })
        .collect();
    AblGamma { hours, sweep }
}

impl Summary for AblGamma {
    fn claims(&self) -> Claims {
        let mut by_gamma: Vec<&GammaRun> = self.sweep.iter().collect();
        by_gamma.sort_by(|a, b| a.gamma.total_cmp(&b.gamma));
        let vcr: Vec<f64> = by_gamma.iter().map(|g| g.totals.vcr_pct).collect();
        let cost: Vec<f64> = by_gamma.iter().map(|g| g.totals.cost_uusd).collect();
        let dearer = cost[cost.len() - 1] > cost[0];
        vec![
            (Reproduced, "vcr_never_rises", non_increasing(&vcr)),
            (Reproduced, "gamma_1_dearer_than_0", dearer),
            (NotReproducedInFull, "cost_monotone", non_decreasing(&cost)),
        ]
    }
}

/// One policy's run at one fault intensity.
#[derive(Serialize)]
pub(crate) struct FaultRun {
    pub totals: Totals,
    pub degraded_pct: f64,
    pub cold_starts: usize,
    pub retries: usize,
    pub lost: usize,
    /// Times the degradation wrapper engaged; `null` in the control arm,
    /// which runs unwrapped.
    pub engagements: Option<usize>,
    /// Intervals (minutes into the hour) served in degraded mode.
    pub degraded: Vec<usize>,
}

/// `inner` over `[t0, t1)` of `trace` under `plan`: unwrapped when the
/// plan is inert, behind the degradation wrapper otherwise.
fn fault_run<C: Controller>(
    mut inner: C,
    s: &ExpSettings,
    m: &Models,
    trace: &Trace,
    (t0, t1): (f64, f64),
    plan: FaultPlan,
) -> FaultRun {
    let hub = &m.hub;
    let (out, engagements) = if plan.is_inert() {
        (compare::run_policy(&mut inner, trace, s, hub, t0, t1), None)
    } else {
        let mut ctl = GracefulController::new(inner, s.slo);
        ctl.telemetry = hub.clone();
        let out = compare::run_policy_faulted(&mut ctl, trace, s, hub, t0, t1, plan);
        (out, Some(ctl.monitor.engagements()))
    };
    FaultRun {
        totals: Totals::of(&out),
        degraded_pct: r(out.degraded_rate(), 1),
        cold_starts: out.counts.cold_starts,
        retries: out.counts.retries,
        lost: out.counts.lost_requests(),
        engagements,
        degraded: (out.records.iter().enumerate())
            .filter(|(_, rec)| rec.degraded)
            .map(|(i, _)| i)
            .collect(),
    }
}

/// One fault intensity of the sweep.
#[derive(Serialize)]
pub(crate) struct FaultLevel {
    pub intensity: f64,
    /// The fault plan's seed (0 for the inert control arm).
    pub seed: u64,
    pub deepbat_ft: FaultRun,
    pub batch: FaultRun,
    /// The fixed configuration `fixed_config`.
    pub fixed: FaultRun,
}

/// Ablation: fault intensity (cold starts, failures with retries,
/// throttling, stragglers) against DeepBAT, BATCH and a fixed
/// configuration, each behind the graceful-degradation wrapper, on Fig. 9's
/// hour. Intensity 0 is the control arm: no faults and no wrapper, so its
/// DeepBAT and BATCH totals are Fig. 9's.
#[derive(Serialize)]
pub(crate) struct AblFaults {
    pub gamma: f64,
    pub hour: f64,
    pub fixed_config: String,
    pub levels: Vec<FaultLevel>,
}

pub(crate) fn abl_faults(s: &ExpSettings, m: &Models) -> AblFaults {
    let (trace, model, gamma) = finetuned(s, m, TraceKind::SyntheticMap, FIG09_GAMMA_SEED);
    let h0 = burst_hour(s);
    let window = hour(h0, &trace);
    let fixed = LambdaConfig::new(2048, 4, 0.05);
    let levels = ([0.0, 0.25, 0.5, 1.0].into_iter().enumerate())
        .map(|(i, intensity)| {
            let plan = if intensity == 0.0 {
                FaultPlan::default()
            } else {
                FaultPlan::intensity(intensity, 4242 + i as u64)
            };
            FaultLevel {
                intensity,
                seed: plan.seed,
                deepbat_ft: fault_run(
                    compare::deepbat(model.clone(), s, gamma),
                    s,
                    m,
                    &trace,
                    window,
                    plan,
                ),
                batch: fault_run(compare::batch(s), s, m, &trace, window, plan),
                fixed: fault_run(compare::fixed(s, fixed), s, m, &trace, window, plan),
            }
        })
        .collect();
    AblFaults {
        gamma: r(gamma, 3),
        hour: h0,
        fixed_config: fixed.to_string(),
        levels,
    }
}

impl AblFaults {
    /// `of` each run, level by level, for DeepBAT, BATCH and the fixed
    /// configuration.
    fn by_policy(&self, of: impl Fn(&FaultRun) -> f64) -> [Vec<f64>; 3] {
        let at =
            |run: fn(&FaultLevel) -> &FaultRun| self.levels.iter().map(|l| of(run(l))).collect();
        [at(|l| &l.deepbat_ft), at(|l| &l.batch), at(|l| &l.fixed)]
    }
}

impl Summary for AblFaults {
    fn claims(&self) -> Claims {
        let cost = self.by_policy(|run| run.totals.cost_uusd);
        // Over the faulted levels: the control arm runs unwrapped.
        let engaged = self.by_policy(|run| run.engagements.unwrap_or(0) as f64);
        vec![
            (
                Reproduced,
                "cost_rises_with_intensity",
                cost.iter().all(|c| non_decreasing(c)),
            ),
            (
                NotReproduced,
                "wrapper_engages_more_often",
                engaged.iter().all(|e| non_decreasing(&e[1..])),
            ),
        ]
    }
}
