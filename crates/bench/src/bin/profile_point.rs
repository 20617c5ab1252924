//! Profiling aid: per-stage timings of one exact evaluation (rate
//! re-evaluation, per-state cost rewards, CTMC assembly, absorption solve)
//! at increasing system sizes, one sweep point on the rebuild-free
//! template path (the clone-and-re-weight `legacy_point` stage it was once
//! compared against was removed with `ReachabilityGraph::reweighted`;
//! its historical rows stay in the results file), a lumped-vs-unlumped
//! head-to-head on clustered deployments (plus the 120-node lumped-only
//! point the unlumped path cannot reach), and replication throughput
//! (reps/sec) of the three stochastic backends through the shared
//! replication engine, and the scenario subsystem: structural counts of
//! each attacker/response net plus one CRN-paired comparison with its
//! zero-delta self-check. Before/after numbers live in
//! `results/profile_point.md`.
//!
//! Run with: `cargo run --release -p bench-harness --bin profile_point`
//!
//! Flags:
//! - `--out PATH`: also write the profile as canonical JSON (the
//!   machine-readable twin of the text output).
//! - `--check PATH`: diff this run against a previously written JSON
//!   snapshot. Structural counts (`states`, `edges`, replication counts)
//!   must match exactly; any `*_seconds` stage may not regress by more
//!   than the tolerance (plus a small absolute slack for sub-millisecond
//!   stages). Exits non-zero on any violation — the CI bench-trajectory
//!   gate.
//! - `--tolerance F`: fractional per-stage slowdown allowed by `--check`
//!   (default 0.25).

use engine::json::Value;
use engine::{backend_for, BackendKind, RunBudget, SamplingPlan, ScenarioSpec};
use gcsids::clustered::{
    evaluate_clustered_graph, evaluate_clustered_with_survival, ClusteredPath,
};
use gcsids::config::{ClusterTopology, SystemConfig};
use gcsids::cost::cost_breakdown;
use gcsids::metrics::ExactTemplate;
use gcsids::model::{build_clustered_model, build_model, population};
use spn::ctmc::Ctmc;
use spn::reach::{explore, ExploreOptions};
use std::process::ExitCode;
use std::time::Instant;

/// The accelerated 12-node system from the crossval fixtures: fails within
/// ~1e5 s, so every backend finishes quickly at full replication counts.
fn hot_system() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = 12;
    cfg.vote_participants = 3;
    cfg.attacker.base_rate = 1.0 / 600.0;
    cfg.detection = cfg.detection.with_interval(120.0);
    cfg
}

/// Per-stage timings of the exact pipeline at paper-default N.
fn exact_profile() -> Vec<Value> {
    let mut points = Vec::new();
    for n in [50u32, 100] {
        let mut cfg = SystemConfig::paper_default();
        cfg.node_count = n;
        let model = build_model(&cfg);
        let t0 = Instant::now();
        let template = ExactTemplate::new(&cfg).unwrap();
        let t_template = t0.elapsed();
        let graph = template.graph();

        let t0 = Instant::now();
        let mut acc = 0.0;
        for m in &graph.states {
            for (_, r) in model.net.enabled_timed(m).unwrap() {
                acc += r;
            }
        }
        let t_rates = t0.elapsed();

        let t0 = Instant::now();
        for m in &graph.states {
            acc += cost_breakdown(&cfg, &population(&model.places, m)).total();
        }
        let t_cost = t0.elapsed();

        let t0 = Instant::now();
        let ctmc = Ctmc::from_graph(graph).unwrap();
        let t_build = t0.elapsed();
        let t0 = Instant::now();
        let a = ctmc.mean_time_to_absorption().unwrap();
        let t_solve = t0.elapsed();

        // One point of a fig2 sweep: a rate-only variant (a different
        // detection interval) on the rebuild-free path — pooled scratch,
        // in-place re-weight, value-only refresh, solve. First call warms
        // the scratch pool; time the steady-state second call.
        let hot = cfg.with_tids(60.0);
        template.evaluate(&hot).unwrap();
        let t0 = Instant::now();
        let e = template.evaluate(&hot).unwrap();
        let t_template_point = t0.elapsed();
        // The template point must agree with a fresh exploration.
        let fresh = gcsids::metrics::evaluate(&hot).unwrap();
        assert!((fresh.mttsf_seconds - e.mttsf_seconds).abs() <= 1e-9 * fresh.mttsf_seconds);

        // Transient cost scales with q·t_max: time the mission-survival
        // sweep at a day-scale horizon (the regime the crossval harness
        // and fig_survival run in).
        let t0 = Instant::now();
        let horizon = 0.05 * a.mtta;
        let grid: Vec<f64> = (1..=5).map(|i| horizon * i as f64 / 5.0).collect();
        let (s, tstats) =
            ctmc.survival_curve_with_stats(&grid, &spn::ctmc::TransientOptions::default());
        let t_survival = t0.elapsed();
        println!(
            "N={n}: explore+pattern={t_template:?} rates={t_rates:?} cost={t_cost:?} \
             ctmc_build={t_build:?} solve={t_solve:?} \
             template_point={t_template_point:?} \
             survival5pt@0.05mtta={t_survival:?} (mtta={:.3e}, S(end)={:.4}, acc={acc:.1}, \
             matvecs={}, nt={}, na={}, detect={:?}, early_exit={})",
            a.mtta,
            s[4],
            tstats.matvecs,
            tstats.transient_states,
            tstats.absorbing_states,
            tstats.detection_step,
            tstats.early_exit,
        );
        points.push(Value::obj([
            ("n", Value::Num(f64::from(n))),
            ("states", Value::Num(graph.state_count() as f64)),
            ("edges", Value::Num(graph.edge_count() as f64)),
            (
                "stages",
                Value::obj([
                    (
                        "explore_pattern_seconds",
                        Value::Num(t_template.as_secs_f64()),
                    ),
                    ("rates_seconds", Value::Num(t_rates.as_secs_f64())),
                    ("cost_seconds", Value::Num(t_cost.as_secs_f64())),
                    ("ctmc_build_seconds", Value::Num(t_build.as_secs_f64())),
                    ("solve_seconds", Value::Num(t_solve.as_secs_f64())),
                    (
                        "template_point_seconds",
                        Value::Num(t_template_point.as_secs_f64()),
                    ),
                    ("survival_seconds", Value::Num(t_survival.as_secs_f64())),
                ]),
            ),
            // Transient-engine telemetry for the survival sweep above.
            // Fully deterministic (the matvec count is fixed by the Fox–Glynn
            // windows of the grid), so the snapshot gate pins every field
            // exactly — any drift is an algorithm change, not noise.
            (
                "transient",
                Value::obj([
                    ("matvecs", Value::Num(tstats.matvecs as f64)),
                    (
                        "detection_step",
                        tstats
                            .detection_step
                            .map_or(Value::Null, |s| Value::Num(s as f64)),
                    ),
                    (
                        "early_exit",
                        Value::Num(f64::from(u8::from(tstats.early_exit))),
                    ),
                    (
                        "transient_states",
                        Value::Num(f64::from(tstats.transient_states)),
                    ),
                    (
                        "absorbing_states",
                        Value::Num(f64::from(tstats.absorbing_states)),
                    ),
                ]),
            ),
        ]));
    }
    points
}

/// Symmetry lumping head-to-head on clustered deployments. The unlumped
/// flat product space grows as d^C, so the head-to-head uses three 5-node
/// clusters (still explorable unlumped); at the crossval fixture's scale —
/// ten 12-node clusters, 120 nodes — only the lumped quotient fits and
/// the unlumped cost is reported as the estimated state count.
fn clustered_profile() -> Value {
    let mut cfg = hot_system();
    cfg.node_count = 5;
    let opts = ExploreOptions::default();

    let topo3 = ClusterTopology {
        clusters: 3,
        failure_threshold: 2,
    };
    let t0 = Instant::now();
    let model = build_clustered_model(&cfg, &topo3);
    let flat_graph = explore(&model.net, &opts).unwrap();
    let (unlumped, _) = evaluate_clustered_graph(&model, &flat_graph, &[]).unwrap();
    let t_unlumped = t0.elapsed();

    let t0 = Instant::now();
    let lumped3 = evaluate_clustered_with_survival(&cfg, &topo3, &[], &opts).unwrap();
    let t_lumped3 = t0.elapsed();
    assert_eq!(lumped3.stats.path, ClusteredPath::FlatLumped);
    let rel =
        (lumped3.evaluation.mttsf_seconds - unlumped.mttsf_seconds).abs() / unlumped.mttsf_seconds;
    assert!(rel < 1e-8, "lumped/unlumped MTTSF disagree: rel={rel:.3e}");

    let topo10 = ClusterTopology {
        clusters: 10,
        failure_threshold: 3,
    };
    let fixture = hot_system();
    let t0 = Instant::now();
    let lumped10 = evaluate_clustered_with_survival(&fixture, &topo10, &[], &opts).unwrap();
    let t_lumped10 = t0.elapsed();

    println!(
        "clustered C=3 K=2 (15 nodes): unlumped {} states in {t_unlumped:?} | \
         lumped {} states in {t_lumped3:?} (reduction {:.1}x, mttsf rel diff {rel:.1e})",
        unlumped.state_count, lumped3.stats.states, lumped3.stats.reduction,
    );
    println!(
        "clustered C=10 K=3 (120 nodes): lumped {} states in {t_lumped10:?} \
         (unlumped estimate {:.3e} states, reduction {:.1}x, path {:?})",
        lumped10.stats.states,
        lumped10.stats.unlumped_state_estimate,
        lumped10.stats.reduction,
        lumped10.stats.path,
    );

    // Lumped-only scaling points: 50- and 100-node systems of the same
    // 5-node clusters. Unlumped these are d^10 and d^20 flat product
    // spaces (d ≈ 48) — far beyond any budget — so only the lumped /
    // composed exact path produces numbers here.
    let mut scaling = Vec::new();
    for (label, clusters, threshold) in [("n50", 10u32, 3u32), ("n100", 20, 5)] {
        let topo = ClusterTopology {
            clusters,
            failure_threshold: threshold,
        };
        let t0 = Instant::now();
        let l = evaluate_clustered_with_survival(&cfg, &topo, &[], &opts).unwrap();
        let dt = t0.elapsed();
        println!(
            "clustered C={clusters} K={threshold} ({} nodes): lumped {} states in {dt:?} \
             (unlumped estimate {:.3e} states, path {:?})",
            5 * clusters,
            l.stats.states,
            l.stats.unlumped_state_estimate,
            l.stats.path,
        );
        scaling.push((
            label,
            Value::obj([
                ("states", Value::Num(l.stats.states as f64)),
                ("edges", Value::Num(l.stats.edges as f64)),
                ("lumped_seconds", Value::Num(dt.as_secs_f64())),
                ("reduction", Value::Num(l.stats.reduction)),
                (
                    "unlumped_state_estimate",
                    Value::Num(l.stats.unlumped_state_estimate),
                ),
                ("mttsf", Value::Num(l.evaluation.mttsf_seconds)),
            ]),
        ));
    }

    let mut entries = vec![
        (
            "c3",
            Value::obj([
                ("unlumped_states", Value::Num(unlumped.state_count as f64)),
                ("unlumped_seconds", Value::Num(t_unlumped.as_secs_f64())),
                ("states", Value::Num(lumped3.stats.states as f64)),
                ("edges", Value::Num(lumped3.stats.edges as f64)),
                ("lumped_seconds", Value::Num(t_lumped3.as_secs_f64())),
                ("reduction", Value::Num(lumped3.stats.reduction)),
            ]),
        ),
        (
            "c10",
            Value::obj([
                ("states", Value::Num(lumped10.stats.states as f64)),
                ("edges", Value::Num(lumped10.stats.edges as f64)),
                ("lumped_seconds", Value::Num(t_lumped10.as_secs_f64())),
                ("reduction", Value::Num(lumped10.stats.reduction)),
                (
                    "unlumped_state_estimate",
                    Value::Num(lumped10.stats.unlumped_state_estimate),
                ),
            ]),
        ),
    ];
    entries.extend(scaling);
    Value::obj(entries)
}

/// Replication throughput per stochastic backend on the accelerated
/// 12-node system (the crossval fixtures' regime): a fixed 200-replication
/// plan against an adaptive plan targeting a 15% relative MTTSF CI
/// half-width.
fn replication_throughput() -> Vec<Value> {
    let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
    spec.name = "profile/replication".into();
    spec.system = hot_system();
    spec.stochastic.max_time = 5.0e6;
    spec.mobility.dt = 2.0;
    let budget = RunBudget::default();
    let mut rows = Vec::new();
    for kind in [
        BackendKind::SpnSim,
        BackendKind::Des,
        BackendKind::MobilityDes,
    ] {
        spec.backend = kind;
        spec.stochastic.sampling = SamplingPlan::Fixed(200);
        let fixed = backend_for(kind).run(&spec, &budget).unwrap();
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.15,
            min: 50,
            max: 400,
            batch: 50,
        };
        let adaptive = backend_for(kind).run(&spec, &budget).unwrap();
        let rate = |r: &engine::RunReport| r.replications.unwrap() as f64 / r.wall_seconds;
        println!(
            "throughput {:<12} fixed: {} reps in {:.3}s ({:.1} reps/s) | \
             adaptive(15%): {} reps in {:.3}s ({:.1} reps/s, target_met={})",
            kind.name(),
            fixed.replications.unwrap(),
            fixed.wall_seconds,
            rate(&fixed),
            adaptive.replications.unwrap(),
            adaptive.wall_seconds,
            rate(&adaptive),
            adaptive.target_met.unwrap(),
        );
        rows.push(Value::obj([
            ("backend", Value::Str(kind.name().to_string())),
            ("fixed_reps", Value::Num(fixed.replications.unwrap() as f64)),
            ("fixed_seconds", Value::Num(fixed.wall_seconds)),
            ("fixed_reps_per_sec", Value::Num(rate(&fixed))),
            (
                "adaptive_reps",
                Value::Num(adaptive.replications.unwrap() as f64),
            ),
            ("adaptive_seconds", Value::Num(adaptive.wall_seconds)),
            ("adaptive_reps_per_sec", Value::Num(rate(&adaptive))),
        ]));
    }
    rows
}

/// Cross-request template cache through the scenario-evaluation service's
/// runner path: 30 flat exact specs round-robined over 3 structural
/// families, evaluated on one cache-carrying [`engine::Runner`]. The
/// counters are fully deterministic (3 cold builds, 27 warm replays), so
/// the snapshot gate pins them exactly; the cold/warm stage timings ride
/// the usual tolerance.
fn service_profile() -> Value {
    let runner = engine::Runner::new();
    let spec_at = |i: u32| {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.name = format!("profile/service-{i:02}");
        spec.system = hot_system();
        spec.system.node_count = 10 + i % 3;
        spec.system = spec.system.with_tids(60.0 + (i / 3) as f64 * 15.0);
        spec
    };

    let t0 = Instant::now();
    for i in 0..3 {
        runner.run_cached(&spec_at(i)).unwrap();
    }
    let t_cold = t0.elapsed();
    let t0 = Instant::now();
    for i in 3..30 {
        runner.run_cached(&spec_at(i)).unwrap();
    }
    let t_warm = t0.elapsed();

    let stats = runner.cache().stats();
    let hit_rate = stats.hit_rate().unwrap();
    println!(
        "service cache: 3 cold builds in {t_cold:?}, 27 warm replays in {t_warm:?} \
         ({} hits / {} misses, hit_rate={hit_rate:.2})",
        stats.hits, stats.misses
    );
    Value::obj([
        ("cache_hits", Value::Num(stats.hits as f64)),
        ("cache_misses", Value::Num(stats.misses as f64)),
        ("cache_hit_rate", Value::Num(hit_rate)),
        ("cold_seconds", Value::Num(t_cold.as_secs_f64())),
        ("warm_seconds", Value::Num(t_warm.as_secs_f64())),
    ])
}

/// Scenario subsystem profile: structural counts (states/edges — exact,
/// pinned) and solve timing of each attacker-strategy / response-policy
/// net on the hot system, plus one CRN-paired comparison with its
/// paired-vs-unpaired half-widths and the self-comparison zero-delta
/// invariant (pinned exactly at 0.0).
fn scenario_profile() -> Value {
    use engine::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
    let cfg = hot_system();
    let axes: [(&str, ScenarioConfig); 6] = [
        ("baseline", ScenarioConfig::baseline()),
        (
            "burst",
            ScenarioConfig {
                attacker: AttackerStrategy::Burst {
                    on_rate: 1.0 / 5_000.0,
                    off_rate: 1.0 / 5_000.0,
                    multiplier: 6.0,
                },
                response: ResponsePolicy::Evict,
            },
        ),
        (
            "stealth",
            ScenarioConfig {
                attacker: AttackerStrategy::Stealth {
                    rate_factor: 0.5,
                    evasion: 0.3,
                },
                response: ResponsePolicy::Evict,
            },
        ),
        (
            "targeted",
            ScenarioConfig {
                attacker: AttackerStrategy::Targeted { focus: 0.8 },
                response: ResponsePolicy::Evict,
            },
        ),
        (
            "quarantine",
            ScenarioConfig {
                attacker: AttackerStrategy::Baseline,
                response: ResponsePolicy::QuarantineRejoin {
                    release_rate: 1.0 / 2_000.0,
                    false_release_prob: 0.1,
                },
            },
        ),
        (
            "throttle",
            ScenarioConfig {
                attacker: AttackerStrategy::Baseline,
                response: ResponsePolicy::RekeyThrottle {
                    max_rate: 1.0 / 1_000.0,
                },
            },
        ),
    ];
    let mut entries: Vec<(String, Value)> = Vec::new();
    for (name, sc) in axes {
        let t0 = Instant::now();
        let model = gcsids::build_scenario_model(&cfg, &sc);
        let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
        let (e, _, totals) = gcsids::evaluate_scenario_graph(&model, &graph, &[]).unwrap();
        let dt = t0.elapsed();
        println!(
            "scenario {name:<10} {} states / {} edges, MTTSF {:.4e} s, \
             E[detections] {:.3} in {dt:?}",
            graph.state_count(),
            graph.edge_count(),
            e.mttsf_seconds,
            totals.detections
        );
        entries.push((
            name.to_string(),
            Value::obj([
                ("states", Value::Num(graph.state_count() as f64)),
                ("edges", Value::Num(graph.edge_count() as f64)),
                ("mttsf", Value::Num(e.mttsf_seconds)),
                ("solve_seconds", Value::Num(dt.as_secs_f64())),
            ]),
        ));
    }

    // Paired comparison: burst variant vs baseline on the protocol DES,
    // plus the self-comparison that must difference to bitwise zero.
    let mut base = ScenarioSpec::paper_default(BackendKind::Des);
    base.name = "profile/ab-base".into();
    base.system = cfg;
    base.stochastic.sampling = SamplingPlan::Fixed(60);
    base.stochastic.max_time = 1.0e6;
    let mut variant = base.clone();
    variant.name = "profile/ab-burst".into();
    variant.scenario = Some(axes[1].1);
    let budget = RunBudget::default();
    let t0 = Instant::now();
    let ab = engine::compare(&base, &variant, &budget).unwrap();
    let t_compare = t0.elapsed();
    let self_ab = engine::compare(&base, &base, &budget).unwrap();
    println!(
        "paired compare: {} pairs in {t_compare:?}, ΔMTTSF ±{:.3e} paired \
         vs ±{:.3e} unpaired; self-compare max|Δt| = {}",
        ab.replications,
        ab.delta_mttsf.paired_halfwidth,
        ab.delta_mttsf.unpaired_halfwidth,
        self_ab.max_abs_delta_time
    );
    entries.push((
        "paired".to_string(),
        Value::obj([
            ("pairs", Value::Num(ab.replications as f64)),
            (
                "paired_halfwidth",
                Value::Num(ab.delta_mttsf.paired_halfwidth),
            ),
            (
                "unpaired_halfwidth",
                Value::Num(ab.delta_mttsf.unpaired_halfwidth),
            ),
            ("compare_seconds", Value::Num(t_compare.as_secs_f64())),
            (
                "self_max_abs_delta_time",
                Value::Num(self_ab.max_abs_delta_time),
            ),
            (
                "self_max_abs_delta_cost",
                Value::Num(self_ab.max_abs_delta_cost),
            ),
        ]),
    ));
    Value::Obj(entries.into_iter().collect())
}

/// Per-rule detlint suppression counts, so the allow-list cannot grow
/// without a visible snapshot diff. Active counts are pinned too (the
/// `--deny-all` CI gate keeps them at zero; the snapshot double-books
/// that). `files_scanned` stays informational — new files are expected.
fn detlint_profile() -> Value {
    let cwd = std::env::current_dir().unwrap();
    let root = analysis::find_workspace_root(&cwd);
    let report = analysis::scan_workspace(&root).unwrap();
    let mut entries: Vec<(String, Value)> = Vec::new();
    for (id, c) in report.counts() {
        let id = id.to_ascii_lowercase();
        entries.push((format!("active_{id}"), Value::Num(c.active as f64)));
        entries.push((format!("suppressed_{id}"), Value::Num(c.suppressed as f64)));
    }
    entries.push((
        "malformed_allows".to_string(),
        Value::Num(report.malformed_allows.len() as f64),
    ));
    entries.push((
        "stale_allows".to_string(),
        Value::Num(report.stale_allows.len() as f64),
    ));
    entries.push((
        "files_scanned".to_string(),
        Value::Num(report.files_scanned as f64),
    ));
    let suppressed: usize = report.counts().values().map(|c| c.suppressed).sum();
    println!(
        "detlint: {} files, {} suppressions, {} active",
        report.files_scanned,
        suppressed,
        report.active().count()
    );
    Value::Obj(entries.into_iter().collect())
}

/// `true` for fields that must match a snapshot exactly: structural counts
/// are deterministic, so any drift is a behavior change, not noise.
fn is_exact_key(key: &str) -> bool {
    if key.starts_with("suppressed_") || key.starts_with("active_") {
        return true;
    }
    matches!(
        key,
        "stale_allows"
            | "malformed_allows"
            | "n"
            | "states"
            | "edges"
            | "unlumped_states"
            | "unlumped_state_estimate"
            | "reduction"
            | "fixed_reps"
            | "adaptive_reps"
            | "cache_hits"
            | "cache_misses"
            | "cache_hit_rate"
            | "matvecs"
            | "detection_step"
            | "early_exit"
            | "transient_states"
            | "absorbing_states"
            | "pairs"
            | "self_max_abs_delta_time"
            | "self_max_abs_delta_cost"
    )
}

/// Absolute slack added to the timing gate so sub-millisecond stages are
/// not failed on scheduler jitter alone.
const TIMING_SLACK_SECONDS: f64 = 0.02;

/// Recursively diff a fresh profile against a snapshot. Timing leaves
/// (`*_seconds`) may not exceed `snap * (1 + tol) + slack`; exact leaves
/// must match bit-for-bit; other leaves are informational.
fn diff(fresh: &Value, snap: &Value, tol: f64, path: &str, failures: &mut Vec<String>) {
    match (fresh, snap) {
        (Value::Obj(f), Value::Obj(s)) => {
            for (key, sv) in s {
                let sub = format!("{path}/{key}");
                match f.get(key) {
                    Some(fv) => diff(fv, sv, tol, &sub, failures),
                    None => failures.push(format!("{sub}: missing from fresh profile")),
                }
            }
        }
        (Value::Arr(f), Value::Arr(s)) => {
            if f.len() != s.len() {
                failures.push(format!(
                    "{path}: length {} vs snapshot {}",
                    f.len(),
                    s.len()
                ));
                return;
            }
            for (i, (fv, sv)) in f.iter().zip(s).enumerate() {
                diff(fv, sv, tol, &format!("{path}[{i}]"), failures);
            }
        }
        (Value::Num(f), Value::Num(s)) => {
            let key = path.rsplit('/').next().unwrap_or(path);
            let key = key.split('[').next().unwrap_or(key);
            if is_exact_key(key) {
                if f != s {
                    failures.push(format!("{path}: count {f} != snapshot {s}"));
                }
            } else if key.ends_with("_seconds") && *f > s * (1.0 + tol) + TIMING_SLACK_SECONDS {
                failures.push(format!(
                    "{path}: {f:.4}s regressed past {s:.4}s (+{:.0}%)",
                    (f / s - 1.0) * 100.0
                ));
            }
        }
        _ => {
            if std::mem::discriminant(fresh) != std::mem::discriminant(snap) {
                failures.push(format!("{path}: shape changed"));
            }
        }
    }
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--out" => out_path = Some(value("--out")),
            "--check" => check_path = Some(value("--check")),
            "--tolerance" => tolerance = value("--tolerance").parse().expect("--tolerance"),
            other => panic!("unknown argument {other}"),
        }
    }

    let profile = Value::obj([
        ("exact", Value::Arr(exact_profile())),
        ("clustered", clustered_profile()),
        ("throughput", Value::Arr(replication_throughput())),
        ("service", service_profile()),
        ("scenario", scenario_profile()),
        ("detlint", detlint_profile()),
    ]);

    if let Some(path) = out_path {
        std::fs::write(&path, profile.encode() + "\n").unwrap();
        println!("profile written to {path}");
    }
    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = Value::parse(text.trim_end()).unwrap();
        let mut failures = Vec::new();
        diff(&profile, &snapshot, tolerance, "", &mut failures);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("bench check FAILED {f}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "bench check passed against {path} (tolerance {:.0}%)",
            tolerance * 100.0
        );
    }
    ExitCode::SUCCESS
}
