//! Multi-SLO, multi-class serving over heterogeneous function groups.
//!
//! HarmonyBatch's observation (see PAPERS.md) is that multi-SLO traffic
//! should not share one `(M, B, T)`: partitioning request classes across
//! *heterogeneous* function groups — each with its own memory size,
//! batching policy, and therefore price point — and jointly tuning the
//! groups is where the real cost wins live. This module adds that layer
//! on top of the single-queue DES:
//!
//! * [`FunctionGroup`] — one pool (own config, optionally own
//!   pricing/profile) serving an assigned set of classes;
//! * [`ClassAssignment`] — the validated class → group map (every class
//!   served exactly once);
//! * [`simulate_faults_multi`] (and [`simulate_batching_multi`], its
//!   inert-plan call) — per-group simulation with per-class conservation,
//!   cost attribution, and latency summaries. Groups are independent
//!   buffers on an autoscaled platform, so the multi simulation
//!   decomposes exactly into one single-queue run per group over its
//!   class-filtered arrival subsequence; with one group serving one class
//!   it reproduces [`simulate_faults`] (and so, fault-free,
//!   [`crate::simulate_batching`]) **bitwise** — the correctness anchor;
//! * [`joint_decide`] — HarmonyBatch-style joint optimization: classes
//!   sorted by SLO, contiguous segments merged into groups (a group's SLO
//!   is its tightest member's), each segment's config chosen by a
//!   [`GroupScorer`] sweep, and the partition chosen by an `O(K²)`
//!   shortest-path DP minimizing total cost subject to every class's SLO.
//!
//! The scorer trait lives here (not in `dbat-core`) for the same
//! crate-DAG reason the [`crate::controller::Controller`] trait does:
//! both `dbat-core` (surrogate fast path) and `dbat-analytic` implement
//! it, and `dbat-analytic` cannot depend on `dbat-core`.

use crate::batching::SimParams;
use crate::config::{ConfigGrid, LambdaConfig};
use crate::faults::{simulate_faults, FaultCounts, FaultPlan, FaultSimOutcome};
use crate::metrics::LatencySummary;
use dbat_workload::{validate_classes, ClassId, ClassedTrace, DbatError, RequestClass};
use serde::{Deserialize, Serialize};

/// One heterogeneous function pool: its serverless config, the classes
/// routed to it, and an optional environment override (pricing/profile)
/// when the pool runs on a different platform tier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FunctionGroup {
    pub config: LambdaConfig,
    /// Classes served by this group.
    pub classes: Vec<ClassId>,
    /// Per-group environment; `None` inherits the shared [`SimParams`].
    pub(crate) params: Option<SimParams>,
}

impl FunctionGroup {
    pub fn new(config: LambdaConfig, classes: Vec<ClassId>) -> Self {
        FunctionGroup {
            config,
            classes,
            params: None,
        }
    }
}

/// Validated class → group routing map derived from a group list: every
/// class must be served by exactly one group.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClassAssignment {
    /// Group index serving each class, indexed by class id.
    group_of: Vec<u32>,
}

impl ClassAssignment {
    /// Build the map from a group list covering `n_classes` dense ids.
    pub fn from_groups(groups: &[FunctionGroup], n_classes: usize) -> Result<Self, DbatError> {
        if groups.is_empty() {
            return Err(DbatError::config("at least one function group required"));
        }
        let mut group_of = vec![u32::MAX; n_classes];
        for (g, grp) in groups.iter().enumerate() {
            grp.config.validate()?;
            for &c in &grp.classes {
                let slot = group_of.get_mut(c as usize).ok_or_else(|| {
                    DbatError::config(format!(
                        "group {g} serves class {c}, but only {n_classes} classes exist"
                    ))
                })?;
                if *slot != u32::MAX {
                    return Err(DbatError::config(format!(
                        "class {c} is served by groups {} and {g}",
                        *slot
                    )));
                }
                *slot = g as u32;
            }
        }
        if let Some(c) = group_of.iter().position(|&g| g == u32::MAX) {
            return Err(DbatError::config(format!(
                "class {c} is not served by any group"
            )));
        }
        Ok(ClassAssignment { group_of })
    }

    /// All classes onto one group (the one-size-fits-all baseline).
    pub(crate) fn single(n_classes: usize) -> Self {
        ClassAssignment {
            group_of: vec![0; n_classes],
        }
    }

    /// Group index serving `class`.
    pub fn group_of(&self, class: ClassId) -> u32 {
        self.group_of[class as usize]
    }

    pub fn n_classes(&self) -> usize {
        self.group_of.len()
    }
}

/// One group's slice of a multi-class simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupOutcome {
    pub out: FaultSimOutcome,
    /// Class of each request, parallel to `out.sim.requests`.
    pub(crate) members: Vec<ClassId>,
    /// Original index in the classed trace of each request (exactly-once
    /// audits rely on these forming a partition of `0..trace.len()`).
    pub indices: Vec<usize>,
}

/// Per-class accounting for one multi-class run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassOutcome {
    pub class: ClassId,
    /// The class's latency SLO (copied from the class set).
    pub slo: f64,
    pub requests: usize,
    /// Requests actually completed (equals `requests` without faults).
    pub served: usize,
    /// Cost attributed to this class: each batch's cost split equally
    /// across its members.
    pub cost: f64,
    /// Latency summary over the class's served requests.
    pub summary: LatencySummary,
    /// Percentage of served requests within the class SLO.
    pub attainment_pct: f64,
}

impl ClassOutcome {
    /// Does the class meet its SLO at percentile `p`?
    pub fn slo_met(&self, p: f64) -> bool {
        self.summary.percentile(p) <= self.slo
    }
}

/// Outcome of [`simulate_faults_multi`] / [`simulate_batching_multi`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MultiSimOutcome {
    /// Per-group outcomes, parallel to the input group list.
    pub groups: Vec<GroupOutcome>,
    /// Per-class accounting, indexed by class id.
    pub per_class: Vec<ClassOutcome>,
    /// Fault counts absorbed across groups (all zero under an inert plan).
    pub counts: FaultCounts,
    /// Total cost across groups.
    pub total_cost: f64,
}

impl MultiSimOutcome {
    /// Conservation check: every class's requests all served, and the
    /// group slices partition the trace.
    pub fn conserved(&self, trace_len: usize) -> bool {
        let all_served = self.per_class.iter().all(|c| c.served == c.requests);
        let sliced: usize = self.groups.iter().map(|g| g.indices.len()).sum();
        all_served && sliced == trace_len
    }
}

/// One group's slice of the trace: arrivals, their class labels, and
/// their original indices, all in arrival order.
type GroupBucket = (Vec<f64>, Vec<ClassId>, Vec<usize>);

/// Partition the trace into per-group arrival subsequences. Arrival
/// order (and the exact timestamp bits) is preserved within each group.
fn partition_by_group(
    trace: &ClassedTrace,
    assignment: &ClassAssignment,
    n_groups: usize,
) -> Result<Vec<GroupBucket>, DbatError> {
    let mut buckets: Vec<GroupBucket> = (0..n_groups).map(|_| Default::default()).collect();
    for (i, (&t, &c)) in trace
        .trace()
        .timestamps()
        .iter()
        .zip(trace.labels())
        .enumerate()
    {
        if c as usize >= assignment.n_classes() {
            return Err(DbatError::config(format!(
                "trace labels class {c}, outside the {}-class set",
                assignment.n_classes()
            )));
        }
        let g = assignment.group_of(c) as usize;
        buckets[g].0.push(t);
        buckets[g].1.push(c);
        buckets[g].2.push(i);
    }
    Ok(buckets)
}

/// Aggregate per-class accounting from per-group request records; lost
/// requests count towards `requests` only.
fn per_class_outcomes(classes: &[RequestClass], groups: &[GroupOutcome]) -> Vec<ClassOutcome> {
    let k = classes.len();
    let mut requests = vec![0usize; k];
    let mut served_n = vec![0usize; k];
    let mut cost = vec![0f64; k];
    let mut lats: Vec<Vec<f64>> = vec![Vec::new(); k];
    for g in groups {
        let sim = &g.out.sim;
        for ((r, &c), &served) in sim.requests.iter().zip(&g.members).zip(&g.out.served) {
            let c = c as usize;
            requests[c] += 1;
            if served {
                served_n[c] += 1;
                lats[c].push(r.latency());
                let b = &sim.batches[r.batch];
                cost[c] += b.cost / b.size as f64;
            }
        }
    }
    classes
        .iter()
        .enumerate()
        .map(|(c, rc)| {
            let summary = LatencySummary::from_latencies(&lats[c]);
            let within = lats[c].iter().filter(|&&l| l <= rc.slo).count();
            let attainment_pct = if lats[c].is_empty() {
                100.0
            } else {
                within as f64 / lats[c].len() as f64 * 100.0
            };
            ClassOutcome {
                class: rc.id,
                slo: rc.slo,
                requests: requests[c],
                served: served_n[c],
                cost: cost[c],
                summary,
                attainment_pct,
            }
        })
        .collect()
}

/// Simulate a class-tagged trace over heterogeneous function groups on a
/// fault-free platform: [`simulate_faults_multi`] under the inert plan.
/// With a single group serving a single class the outcome is **bitwise
/// identical** to [`crate::simulate_batching`] over the whole trace.
pub fn simulate_batching_multi(
    trace: &ClassedTrace,
    classes: &[RequestClass],
    groups: &[FunctionGroup],
    params: &SimParams,
) -> Result<MultiSimOutcome, DbatError> {
    simulate_faults_multi(trace, classes, groups, params, &FaultPlan::default())
}

/// Derive group `g`'s fault seed from the plan seed. Group 0 keeps the
/// plan's own seed so the single-group case stays bit-identical to
/// [`simulate_faults`].
fn group_seed(seed: u64, g: usize) -> u64 {
    seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Simulate a class-tagged trace over heterogeneous function groups.
///
/// Groups are independent buffers on an autoscaled platform (batches
/// never queue behind each other, within or across groups), so each
/// group runs [`simulate_faults`] over its class-filtered arrival
/// subsequence under a per-group sub-seeded copy of the plan. Lost
/// requests (shed / retry-exhausted) are excluded from the per-class
/// latency and cost accounting but still counted in
/// `per_class[c].requests`.
pub fn simulate_faults_multi(
    trace: &ClassedTrace,
    classes: &[RequestClass],
    groups: &[FunctionGroup],
    params: &SimParams,
    plan: &FaultPlan,
) -> Result<MultiSimOutcome, DbatError> {
    validate_classes(classes)?;
    plan.validate()?;
    let assignment = ClassAssignment::from_groups(groups, classes.len())?;
    let buckets = partition_by_group(trace, &assignment, groups.len())?;
    let mut outcomes = Vec::with_capacity(groups.len());
    let mut counts = FaultCounts::default();
    let mut total_cost = 0.0;
    for (g, (grp, (arrivals, members, indices))) in groups.iter().zip(buckets).enumerate() {
        let p = grp.params.as_ref().unwrap_or(params);
        let sub = plan.with_seed(group_seed(plan.seed, g));
        let out = simulate_faults(&arrivals, &grp.config, p, &sub);
        counts.absorb(&out.counts);
        total_cost += out.sim.total_cost;
        outcomes.push(GroupOutcome {
            out,
            members,
            indices,
        });
    }
    let per_class = per_class_outcomes(classes, &outcomes);
    Ok(MultiSimOutcome {
        groups: outcomes,
        per_class,
        counts,
        total_cost,
    })
}

/// One scored candidate configuration for a group.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GroupScore {
    pub config: LambdaConfig,
    /// Predicted latency (seconds) at the constrained percentile.
    pub latency: f64,
    /// Predicted total cost (USD) of serving the scored arrivals.
    pub cost: f64,
}

/// Scores every candidate `(M, B, T)` for one group's merged arrival
/// stream. Implemented by the ground-truth sweep here, the surrogate
/// fast path in `dbat-core`, and the batch model in `dbat-analytic`.
pub trait GroupScorer {
    /// Scorer label (reports/benches).
    fn name(&self) -> &'static str {
        "scorer"
    }

    /// Score the candidate grid over `arrivals` (sorted ascending).
    fn sweep(&mut self, arrivals: &[f64]) -> Vec<GroupScore>;
}

/// Ground-truth scorer: simulate every grid config over the arrivals.
pub struct OracleGroupScorer {
    pub grid: ConfigGrid,
    pub params: SimParams,
    /// Constrained percentile (the paper uses p95).
    pub percentile: f64,
}

impl GroupScorer for OracleGroupScorer {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn sweep(&mut self, arrivals: &[f64]) -> Vec<GroupScore> {
        crate::sweep::sweep(arrivals, &self.grid, &self.params)
            .into_iter()
            .map(|e| GroupScore {
                config: e.config,
                latency: e.summary.percentile(self.percentile),
                cost: e.cost_per_request * arrivals.len() as f64,
            })
            .collect()
    }
}

/// The joint decision: groups (with their chosen configs and member
/// classes), the routing map, and the scorer's predicted total cost.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JointDecision {
    pub groups: Vec<FunctionGroup>,
    pub assignment: ClassAssignment,
    /// Scorer-predicted total cost across groups.
    pub predicted_cost: f64,
    /// False when no partition met every class's SLO and the decision
    /// fell back to per-class lowest-latency groups.
    pub feasible: bool,
}

/// Cheapest feasible score for a segment, or `None` when no config meets
/// the segment SLO.
fn best_for_segment(scores: &[GroupScore], slo: f64) -> Option<GroupScore> {
    scores
        .iter()
        .filter(|s| s.latency <= slo)
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap())
        .copied()
}

/// Jointly partition classes into function groups and pick each group's
/// `(M, B, T)`, minimizing total predicted cost subject to every class's
/// SLO (HarmonyBatch-style).
///
/// Classes are sorted by SLO; only contiguous segments of that order are
/// merged (merging skips a tighter class only if it also skips every
/// looser one — the standard compatible-SLO merge). A segment's SLO is
/// its tightest member's. The optimal contiguous partition is found by a
/// shortest-path DP over `K(K+1)/2` scored segments.
///
/// When no partition is feasible the decision falls back to one group
/// per class with its lowest-latency config, mirroring the single-SLO
/// optimizer's least-bad fallback, and reports `feasible = false`.
pub fn joint_decide(
    trace: &ClassedTrace,
    classes: &[RequestClass],
    scorer: &mut dyn GroupScorer,
) -> Result<JointDecision, DbatError> {
    validate_classes(classes)?;
    let k = classes.len();
    // SLO-ascending order (ties broken by id for determinism).
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        classes[a]
            .slo
            .partial_cmp(&classes[b].slo)
            .unwrap()
            .then(classes[a].id.cmp(&classes[b].id))
    });
    let mut rank = vec![0usize; k];
    for (r, &c) in order.iter().enumerate() {
        rank[c] = r;
    }

    // Segment [i..=j] of the sorted order: merged arrivals keep trace
    // order (and exact bits); SLO is the tightest member's (= position i).
    let segment_arrivals = |i: usize, j: usize| -> Vec<f64> {
        trace
            .trace()
            .timestamps()
            .iter()
            .zip(trace.labels())
            .filter(|&(_, &c)| (i..=j).contains(&rank[c as usize]))
            .map(|(&t, _)| t)
            .collect()
    };

    // best[i][j]: cheapest feasible (config, cost) for segment [i..=j].
    let mut best: Vec<Vec<Option<GroupScore>>> = vec![vec![None; k]; k];
    for (i, row) in best.iter_mut().enumerate() {
        let slo = classes[order[i]].slo;
        for (j, slot) in row.iter_mut().enumerate().skip(i) {
            let arrivals = segment_arrivals(i, j);
            *slot = best_for_segment(&scorer.sweep(&arrivals), slo);
        }
    }

    // DP over prefixes: dp[j] = cheapest partition of sorted classes
    // 0..j (exclusive); cut[j] remembers the last segment start.
    let mut dp = vec![f64::INFINITY; k + 1];
    let mut cut = vec![usize::MAX; k + 1];
    dp[0] = 0.0;
    for j in 1..=k {
        for i in 0..j {
            if let (true, Some(s)) = (dp[i].is_finite(), &best[i][j - 1]) {
                let cost = dp[i] + s.cost;
                if cost < dp[j] {
                    dp[j] = cost;
                    cut[j] = i;
                }
            }
        }
    }

    let mut groups = Vec::new();
    let mut feasible = true;
    let mut predicted_cost = dp[k];
    if dp[k].is_finite() {
        // Reconstruct the optimal partition (segments back to front).
        let mut j = k;
        let mut segs = Vec::new();
        while j > 0 {
            let i = cut[j];
            segs.push((i, j - 1));
            j = i;
        }
        segs.reverse();
        for (i, j) in segs {
            let score = best[i][j].expect("feasible segment on optimal path");
            let members: Vec<ClassId> = order[i..=j].iter().map(|&c| classes[c].id).collect();
            groups.push(FunctionGroup::new(score.config, members));
        }
    } else {
        // No partition meets every SLO: serve each class from its own
        // group at the lowest-latency config (least-bad fallback).
        feasible = false;
        predicted_cost = 0.0;
        for r in 0..k {
            let arrivals = segment_arrivals(r, r);
            let scores = scorer.sweep(&arrivals);
            let least_bad = scores
                .iter()
                .min_by(|a, b| a.latency.partial_cmp(&b.latency).unwrap())
                .copied()
                .ok_or_else(|| DbatError::config("scorer returned no candidates"))?;
            predicted_cost += least_bad.cost;
            groups.push(FunctionGroup::new(
                least_bad.config,
                vec![classes[order[r]].id],
            ));
        }
    }
    let assignment = ClassAssignment::from_groups(&groups, k)?;
    Ok(JointDecision {
        groups,
        assignment,
        predicted_cost,
        feasible,
    })
}

/// The one-size-fits-all baseline: a single group serving every class,
/// its config chosen against the *tightest* SLO (the only config that
/// can satisfy all classes from one pool). Falls back to the
/// lowest-latency config (`feasible = false`) when nothing qualifies.
pub fn single_config_baseline(
    trace: &ClassedTrace,
    classes: &[RequestClass],
    scorer: &mut dyn GroupScorer,
) -> Result<JointDecision, DbatError> {
    validate_classes(classes)?;
    let min_slo = classes.iter().map(|c| c.slo).fold(f64::INFINITY, f64::min);
    let scores = scorer.sweep(trace.trace().timestamps());
    let (score, feasible) = match best_for_segment(&scores, min_slo) {
        Some(s) => (s, true),
        None => (
            scores
                .iter()
                .min_by(|a, b| a.latency.partial_cmp(&b.latency).unwrap())
                .copied()
                .ok_or_else(|| DbatError::config("scorer returned no candidates"))?,
            false,
        ),
    };
    let all: Vec<ClassId> = classes.iter().map(|c| c.id).collect();
    Ok(JointDecision {
        groups: vec![FunctionGroup::new(score.config, all)],
        assignment: ClassAssignment::single(classes.len()),
        predicted_cost: score.cost,
        feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_batching;
    use dbat_workload::Trace;

    fn dense(n: usize, dt: f64) -> Trace {
        Trace::new((0..n).map(|i| i as f64 * dt).collect(), n as f64 * dt)
    }

    fn two_classes() -> Vec<RequestClass> {
        vec![
            RequestClass::with_weight(0, 0.08, 1.0),
            RequestClass::with_weight(1, 0.8, 1.0),
        ]
    }

    #[test]
    fn single_group_single_class_bitwise_identical() {
        let trace = dense(700, 0.004);
        let base = simulate_batching(
            trace.timestamps(),
            &LambdaConfig::new(2048, 8, 0.05),
            &SimParams::default(),
            None,
        );
        let classed = ClassedTrace::uniform(trace, 0);
        let classes = vec![RequestClass::new(0, 0.1)];
        let groups = vec![FunctionGroup::new(
            LambdaConfig::new(2048, 8, 0.05),
            vec![0],
        )];
        let multi =
            simulate_batching_multi(&classed, &classes, &groups, &SimParams::default()).unwrap();
        assert_eq!(multi.groups.len(), 1);
        let sim = &multi.groups[0].out.sim;
        assert_eq!(sim.total_cost.to_bits(), base.total_cost.to_bits());
        assert_eq!(sim.requests.len(), base.requests.len());
        for (a, b) in sim.requests.iter().zip(&base.requests) {
            assert_eq!(a.dispatch.to_bits(), b.dispatch.to_bits());
            assert_eq!(a.completion.to_bits(), b.completion.to_bits());
        }
        assert_eq!(multi.total_cost.to_bits(), base.total_cost.to_bits());
        assert!(multi.conserved(700));
    }

    #[test]
    fn assignment_validates_exactly_once() {
        let cfg = LambdaConfig::new(1024, 4, 0.05);
        // Missing class.
        let groups = vec![FunctionGroup::new(cfg, vec![0])];
        assert!(ClassAssignment::from_groups(&groups, 2).is_err());
        // Duplicated class.
        let groups = vec![
            FunctionGroup::new(cfg, vec![0, 1]),
            FunctionGroup::new(cfg, vec![1]),
        ];
        assert!(ClassAssignment::from_groups(&groups, 2).is_err());
        // Out-of-range class.
        let groups = vec![FunctionGroup::new(cfg, vec![0, 5])];
        assert!(ClassAssignment::from_groups(&groups, 2).is_err());
        // Valid two-group split.
        let groups = vec![
            FunctionGroup::new(cfg, vec![1]),
            FunctionGroup::new(cfg, vec![0]),
        ];
        let a = ClassAssignment::from_groups(&groups, 2).unwrap();
        assert_eq!(a.group_of(0), 1);
        assert_eq!(a.group_of(1), 0);
    }

    #[test]
    fn per_class_conservation_and_cost_attribution() {
        let trace = dense(900, 0.003);
        let classes = two_classes();
        let classed = ClassedTrace::tag_weighted(trace, &classes, 11).unwrap();
        let groups = vec![
            FunctionGroup::new(LambdaConfig::new(3008, 1, 0.0), vec![0]),
            FunctionGroup::new(LambdaConfig::new(1024, 16, 0.2), vec![1]),
        ];
        let multi =
            simulate_batching_multi(&classed, &classes, &groups, &SimParams::default()).unwrap();
        assert!(multi.conserved(900));
        let counts = classed.class_counts();
        for (c, out) in multi.per_class.iter().enumerate() {
            assert_eq!(out.requests, counts[c]);
            assert_eq!(out.served, counts[c]);
        }
        // Attributed cost sums back to the total (up to float error).
        let attributed: f64 = multi.per_class.iter().map(|c| c.cost).sum();
        assert!((attributed - multi.total_cost).abs() < 1e-9 * multi.total_cost.max(1.0));
        // Group indices partition the trace exactly once.
        let mut seen = vec![false; 900];
        for g in &multi.groups {
            for &i in &g.indices {
                assert!(!seen[i], "request {i} routed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn faults_multi_tracks_lost_requests_per_class() {
        let trace = dense(600, 0.004);
        let classes = two_classes();
        let classed = ClassedTrace::tag_weighted(trace, &classes, 5).unwrap();
        let groups = vec![
            FunctionGroup::new(LambdaConfig::new(2048, 2, 0.02), vec![0]),
            FunctionGroup::new(LambdaConfig::new(1024, 8, 0.1), vec![1]),
        ];
        let plan = FaultPlan::intensity(0.8, 97);
        let multi =
            simulate_faults_multi(&classed, &classes, &groups, &SimParams::default(), &plan)
                .unwrap();
        // Conservation: requests = served + lost, classwise and in total.
        let served: usize = multi.per_class.iter().map(|c| c.served).sum();
        let requests: usize = multi.per_class.iter().map(|c| c.requests).sum();
        assert_eq!(requests, 600);
        assert_eq!(served + multi.counts.lost_requests(), 600);
        for (c, out) in multi.per_class.iter().enumerate() {
            assert_eq!(out.requests, classed.class_counts()[c]);
            assert!(out.served <= out.requests);
        }
        // Deterministic: same seed reproduces bitwise.
        let again =
            simulate_faults_multi(&classed, &classes, &groups, &SimParams::default(), &plan)
                .unwrap();
        assert_eq!(multi.total_cost.to_bits(), again.total_cost.to_bits());
        assert_eq!(multi.counts, again.counts);
    }

    #[test]
    fn single_group_faults_bitwise_identical_to_simulate_faults() {
        let trace = dense(400, 0.005);
        let plan = FaultPlan::intensity(0.6, 31);
        let cfg = LambdaConfig::new(1024, 4, 0.05);
        let base = simulate_faults(trace.timestamps(), &cfg, &SimParams::default(), &plan);
        let classed = ClassedTrace::uniform(trace, 0);
        let classes = vec![RequestClass::new(0, 0.1)];
        let groups = vec![FunctionGroup::new(cfg, vec![0])];
        let multi =
            simulate_faults_multi(&classed, &classes, &groups, &SimParams::default(), &plan)
                .unwrap();
        assert_eq!(
            multi.groups[0].out.sim.total_cost.to_bits(),
            base.sim.total_cost.to_bits()
        );
        assert_eq!(multi.groups[0].out.events, base.events);
        assert_eq!(multi.counts, base.counts);
    }

    #[test]
    fn joint_decide_splits_mixed_slo_traffic() {
        let trace = dense(1200, 0.003);
        let classes = two_classes();
        let classed = ClassedTrace::tag_weighted(trace, &classes, 23).unwrap();
        let mut scorer = OracleGroupScorer {
            grid: ConfigGrid::paper_default(),
            params: SimParams::default(),
            percentile: 95.0,
        };
        let joint = joint_decide(&classed, &classes, &mut scorer).unwrap();
        assert!(joint.feasible);
        let single = single_config_baseline(&classed, &classes, &mut scorer).unwrap();
        assert!(single.feasible);
        // The partition can never be worse than the single pool: the
        // single config is one of the candidate partitions' options.
        assert!(
            joint.predicted_cost <= single.predicted_cost + 1e-12,
            "joint {} vs single {}",
            joint.predicted_cost,
            single.predicted_cost
        );
        // Every class is served exactly once.
        assert_eq!(joint.assignment.n_classes(), 2);
        // The realized multi-class sim meets both SLOs.
        let multi =
            simulate_batching_multi(&classed, &classes, &joint.groups, &SimParams::default())
                .unwrap();
        for c in &multi.per_class {
            assert!(
                c.slo_met(95.0),
                "class {} p95 {} > slo {}",
                c.class,
                c.summary.p95,
                c.slo
            );
        }
    }

    #[test]
    fn joint_decide_falls_back_when_infeasible() {
        let trace = dense(200, 0.004);
        let classes = vec![RequestClass::new(0, 1e-9)];
        let classed = ClassedTrace::uniform(trace, 0);
        let mut scorer = OracleGroupScorer {
            grid: ConfigGrid::tiny(),
            params: SimParams::default(),
            percentile: 95.0,
        };
        let joint = joint_decide(&classed, &classes, &mut scorer).unwrap();
        assert!(!joint.feasible);
        assert_eq!(joint.groups.len(), 1);
    }

    #[test]
    fn joint_decide_merges_compatible_slos() {
        // Two classes with identical loose SLOs should share one group —
        // splitting them wastes batching density.
        let trace = dense(1500, 0.002);
        let classes = vec![RequestClass::new(0, 0.8), RequestClass::new(1, 0.8)];
        let classed = ClassedTrace::tag_weighted(trace, &classes, 9).unwrap();
        let mut scorer = OracleGroupScorer {
            grid: ConfigGrid::paper_default(),
            params: SimParams::default(),
            percentile: 95.0,
        };
        let joint = joint_decide(&classed, &classes, &mut scorer).unwrap();
        assert!(joint.feasible);
        assert_eq!(joint.groups.len(), 1, "equal SLOs should merge");
        assert_eq!(joint.groups[0].classes.len(), 2);
    }

    #[test]
    fn oracle_scorer_reads_percentile_on_the_0_100_scale() {
        // `LatencySummary::percentile` takes [0, 100] and clamps anything
        // ≤ 50 to p50, so a scorer handed the fraction 0.95 scores p50.
        let cfg = LambdaConfig::new(2048, 8, 0.05);
        let trace = dense(700, 0.004);
        let mut scorer = OracleGroupScorer {
            grid: ConfigGrid {
                memories_mb: vec![cfg.memory_mb],
                batch_sizes: vec![cfg.batch_size],
                timeouts_s: vec![cfg.timeout_s],
            },
            params: SimParams::default(),
            percentile: 95.0,
        };
        let scores = scorer.sweep(trace.timestamps());
        let summary = crate::sweep::evaluate(trace.timestamps(), &cfg, &scorer.params).summary;
        assert!(summary.p95 > summary.p50, "the two must be distinguishable");
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].latency, summary.p95);
    }
}
