//! Multi-SLO ablation: joint heterogeneous-group serving vs. the
//! one-size-fits-all baseline.
//!
//! The workload mixes request classes with different latency SLOs
//! (tight / mid / loose by default, overridable from an `AppConfig`
//! file via `--config`/`--set`). For each scorer — the ground-truth
//! oracle sweep, the DeepBAT surrogate fast path, and the BATCH
//! analytic model — the bench runs
//!
//! * [`joint_decide`]: the HarmonyBatch-style merge of compatible SLOs
//!   into heterogeneous function groups, each with its own `(M, B, T)`;
//! * [`single_config_baseline`]: one pool for every class, its config
//!   chosen against the tightest SLO (the best a single config can do);
//!
//! and evaluates **both** plans with the ground-truth multi-queue
//! simulator, reporting total cost and per-class p95/SLO attainment.
//! The gate (asserted on the oracle rows, ground truth end to end):
//! the joint decide beats the best single-config baseline on total cost
//! while every class's SLO-met status is equal or better.
//!
//! Results land in `BENCH_multiclass.json` (or `$DBAT_BENCH_OUT`). The
//! document carries no wall-clock fields (`benchmark/` is the only
//! stopwatch), so re-runs are byte-identical — CI asserts exactly that.
//!
//! ```sh
//! cargo run --release --bin abl_multiclass                     # full
//! DBAT_BENCH_QUICK=1 DEEPBAT_FAST=1 \
//!     cargo run --release --bin abl_multiclass                 # CI smoke
//! cargo run --release --bin abl_multiclass -- \
//!     --config exp.toml --set sim.workload=twitter
//! ```

use dbat_analytic::AnalyticGroupScorer;
use dbat_bench::report::{banner, f, table};
use dbat_bench::settings::ExpSettings;
use dbat_core::SurrogateGroupScorer;
use dbat_sim::{
    joint_decide, simulate_batching_multi, single_config_baseline, GroupScorer, JointDecision,
    MultiSimOutcome, OracleGroupScorer,
};
use dbat_workload::{AppConfig, ClassedTrace, RequestClass, TraceKind};

/// One evaluated plan: the decision plus its ground-truth outcome.
struct Evaluated {
    plan: JointDecision,
    truth: MultiSimOutcome,
}

fn evaluate(
    classed: &ClassedTrace,
    classes: &[RequestClass],
    plan: JointDecision,
    settings: &ExpSettings,
) -> Evaluated {
    let truth = simulate_batching_multi(classed, classes, &plan.groups, &settings.params)
        .expect("plan simulates");
    assert!(truth.conserved(classed.len()), "conservation violated");
    Evaluated { plan, truth }
}

fn run_scorer(
    name: &str,
    scorer: &mut dyn GroupScorer,
    classed: &ClassedTrace,
    classes: &[RequestClass],
    settings: &ExpSettings,
) -> (Evaluated, Evaluated) {
    let joint = joint_decide(classed, classes, scorer).expect("joint decide");
    let single = single_config_baseline(classed, classes, scorer).expect("baseline decide");
    println!(
        "  {name}: joint {} group(s) (feasible: {})",
        joint.groups.len(),
        joint.feasible
    );
    (
        evaluate(classed, classes, joint, settings),
        evaluate(classed, classes, single, settings),
    )
}

fn row(scorer: &str, plan: &str, e: &Evaluated, p: f64) -> Vec<String> {
    let met = e.truth.per_class.iter().filter(|c| c.slo_met(p)).count();
    vec![
        scorer.to_string(),
        plan.to_string(),
        e.plan.groups.len().to_string(),
        format!("{:.2}", e.truth.total_cost * 1e6),
        e.truth
            .per_class
            .iter()
            .map(|c| format!("{:.0}", c.summary.percentile(p) * 1e3))
            .collect::<Vec<_>>()
            .join("/"),
        format!("{met}/{}", e.truth.per_class.len()),
        e.truth
            .per_class
            .iter()
            .map(|c| format!("{:.1}", c.attainment_pct))
            .collect::<Vec<_>>()
            .join("/"),
    ]
}

fn class_json(e: &Evaluated, p: f64) -> Vec<serde_json::Value> {
    e.truth
        .per_class
        .iter()
        .map(|c| {
            serde_json::json!({
                "class": c.class,
                "slo_s": c.slo,
                "requests": c.requests,
                "p95_s": c.summary.percentile(p),
                "slo_met": c.slo_met(p),
                "attainment_pct": c.attainment_pct,
                "cost_usd": c.cost,
            })
        })
        .collect()
}

fn main() {
    let settings = ExpSettings::from_env();
    let quick = settings.fast
        || std::env::var("DBAT_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let app = AppConfig::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("config error: {e}");
        std::process::exit(2);
    });
    let _tel = settings.init_telemetry("abl_multiclass");
    banner(
        "abl_multiclass",
        "multi-SLO heterogeneous groups vs one-size-fits-all",
    );

    // Classes: from the config file when given, else tight/mid/loose.
    let classes = if app.classes.is_empty() {
        vec![
            RequestClass::with_weight(0, 0.08, 1.0),
            RequestClass::with_weight(1, 0.25, 2.0),
            RequestClass::with_weight(2, 1.0, 3.0),
        ]
    } else {
        app.request_classes()
    };
    let kind = TraceKind::parse(&app.sim.workload).unwrap_or(TraceKind::AzureLike);
    let horizon = if quick {
        app.sim.horizon_s.min(600.0)
    } else {
        app.sim.horizon_s
    };
    let trace = kind.generate_for(app.sim.seed, horizon);
    let classed =
        ClassedTrace::tag_weighted(trace, &classes, app.sim.seed ^ 0xC1A55).expect("valid classes");
    println!(
        "{} trace: {} requests over {horizon:.0}s, {} classes (SLOs {})",
        kind.name(),
        classed.len(),
        classes.len(),
        classes
            .iter()
            .map(|c| format!("{:.0}ms", c.slo * 1e3))
            .collect::<Vec<_>>()
            .join("/")
    );

    let p = settings.percentile;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut scorers_json = serde_json::Map::new();

    // Ground truth first: this pair carries the asserted gate.
    let mut oracle = OracleGroupScorer {
        grid: settings.grid.clone(),
        params: settings.params,
        percentile: p,
    };
    let (o_joint, o_single) = run_scorer("oracle", &mut oracle, &classed, &classes, &settings);

    // DeepBAT's surrogate fast path (the paper's decide latency story).
    let model = settings.ensure_base_model();
    let mut surrogate = SurrogateGroupScorer::new(&model, settings.grid.clone(), p);
    let (s_joint, s_single) =
        run_scorer("surrogate", &mut surrogate, &classed, &classes, &settings);

    // The BATCH analytic baseline.
    let mut analytic = AnalyticGroupScorer {
        grid: settings.grid.clone(),
        params: settings.params,
        percentile: p,
    };
    let (a_joint, a_single) = run_scorer("analytic", &mut analytic, &classed, &classes, &settings);

    for (name, joint, single) in [
        ("oracle", &o_joint, &o_single),
        ("surrogate", &s_joint, &s_single),
        ("analytic", &a_joint, &a_single),
    ] {
        rows.push(row(name, "joint", joint, p));
        rows.push(row(name, "single", single, p));
        let saving = 1.0 - joint.truth.total_cost / single.truth.total_cost;
        scorers_json.insert(
            name.to_string(),
            serde_json::json!({
                "joint": serde_json::json!({
                    "groups": joint.plan.groups.len(),
                    "feasible": joint.plan.feasible,
                    "predicted_cost_usd": joint.plan.predicted_cost,
                    "total_cost_usd": joint.truth.total_cost,
                    "per_class": class_json(joint, p),
                }),
                "single": serde_json::json!({
                    "feasible": single.plan.feasible,
                    "total_cost_usd": single.truth.total_cost,
                    "per_class": class_json(single, p),
                }),
                "cost_saving_pct": saving * 100.0,
            }),
        );
    }

    println!();
    table(
        &[
            "scorer", "plan", "groups", "cost u$", "p95 ms", "SLOs met", "attain %",
        ],
        &rows,
    );

    // --- the gate: ground-truth joint beats ground-truth single ------
    let saving = 1.0 - o_joint.truth.total_cost / o_single.truth.total_cost;
    println!(
        "\noracle joint vs single: {} saving {} ({} -> {})",
        f(saving * 100.0, 1) + "%",
        if saving > 0.0 { "✓" } else { "✗" },
        f(o_single.truth.total_cost * 1e6, 2),
        f(o_joint.truth.total_cost * 1e6, 2),
    );
    assert!(
        o_joint.truth.total_cost < o_single.truth.total_cost,
        "joint decide must beat the single-config baseline on total cost \
         ({} vs {})",
        o_joint.truth.total_cost,
        o_single.truth.total_cost
    );
    for (j, s) in o_joint
        .truth
        .per_class
        .iter()
        .zip(&o_single.truth.per_class)
    {
        assert!(
            j.slo_met(p) >= s.slo_met(p),
            "class {} SLO attainment regressed under the joint plan \
             (joint p95 {:.1} ms vs single {:.1} ms, SLO {:.0} ms)",
            j.class,
            j.summary.percentile(p) * 1e3,
            s.summary.percentile(p) * 1e3,
            j.slo * 1e3
        );
    }
    assert!(
        o_joint.plan.feasible,
        "oracle joint decide must find a feasible partition"
    );

    let doc = serde_json::json!({
        "bench": "abl_multiclass",
        "quick": quick,
        "workload": kind.name(),
        "horizon_s": horizon,
        "requests": classed.len(),
        "percentile": p,
        "classes": classes.iter().map(|c| serde_json::json!({
            "id": c.id, "slo_s": c.slo, "weight": c.weight_or_default(),
        })).collect::<Vec<_>>(),
        "scorers": serde_json::Value::Object(scorers_json),
        "gate": serde_json::json!({
            "joint_cost_usd": o_joint.truth.total_cost,
            "single_cost_usd": o_single.truth.total_cost,
            "cost_saving_pct": saving * 100.0,
            "passed": true,
        }),
    });
    let path =
        std::env::var("DBAT_BENCH_OUT").unwrap_or_else(|_| "BENCH_multiclass.json".to_string());
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialisable"),
    )
    .expect("bench output writable");
    println!("results -> {path}");
}
