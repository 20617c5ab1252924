//! `replicate-mix`: the replication-kernel workload.
//!
//! A closed loop with one client over the hot 12-node cross-validation
//! system (`hot-mission`, 5-point Kaplan–Meier grid). Requests mix DES,
//! SPN-sim and mobility-DES runs across the baseline, burst, stealth,
//! targeted, quarantine and throttle scenarios (mobility takes the attacker
//! strategies only) under fixed and adaptive sampling plans, plus
//! CRN-paired `engine::compare` calls. Requests come in rounds of 37 that
//! run every distinct request once — 12 DES, 12 SPN-sim, 8 mobility-DES and
//! 5 comparisons — in seed order, so runs differ in order but not in mix.
//! Mobility-DES runs far fewer replications than the others so it does not
//! swamp the mix. No transient solve runs here.

use crate::check::{self, normalized};
use crate::trace::Tracer;
use crate::{
    explore_options, reference_path, with_threads, Args, Counters, Outcome, Pass, Rng, Timed,
};
use engine::ScenarioSpec;
use engine::{backend_for, compare, BackendKind, CacheOutcome, RunBudget, Runner, SamplingPlan};
use std::collections::BTreeMap;
use std::time::Instant;

/// Scenario inputs: the hot-mission system under each scenario.
const SCENARIOS: [(&str, &str); 6] = [
    ("baseline", include_str!("../../specs/ab-baseline.json")),
    ("burst", include_str!("../../specs/ab-burst.json")),
    ("stealth", include_str!("../../specs/ab-stealth.json")),
    ("targeted", include_str!("../../specs/ab-targeted.json")),
    ("quarantine", include_str!("../../specs/ab-quarantine.json")),
    ("throttle", include_str!("../../specs/ab-throttle.json")),
];
/// Mobility-DES models attacker strategies only: the first four scenarios.
const MOBILITY_SCENARIOS: usize = 4;
const SETUPS: usize = 9;

/// Fixed and adaptive plans per backend.
fn plans(kind: BackendKind) -> [(&'static str, SamplingPlan); 2] {
    let adaptive = |target, min, max, batch| SamplingPlan::Adaptive {
        target_rel_halfwidth: target,
        min,
        max,
        batch,
    };
    match kind {
        BackendKind::SpnSim => [
            ("fixed", SamplingPlan::Fixed(2048)),
            ("adaptive", adaptive(0.03, 256, 4096, 256)),
        ],
        BackendKind::MobilityDes => [
            ("fixed", SamplingPlan::Fixed(16)),
            ("adaptive", adaptive(0.25, 8, 32, 8)),
        ],
        _ => [
            ("fixed", SamplingPlan::Fixed(512)),
            ("adaptive", adaptive(0.05, 128, 1024, 128)),
        ],
    }
}

fn spec(kind: BackendKind, scenario: usize, plan: usize) -> Result<ScenarioSpec, String> {
    let (name, text) = SCENARIOS[scenario];
    let mut spec = ScenarioSpec::from_json(text).map_err(|e| e.to_string())?;
    let (plan_name, plan) = plans(kind)[plan];
    spec.backend = kind;
    spec.stochastic.sampling = plan;
    spec.name = format!("replicate-mix/{}/{name}/{plan_name}", kind.name());
    Ok(spec)
}

enum Request {
    Run(Box<ScenarioSpec>),
    /// CRN-paired baseline-vs-variant comparison, keyed by `key`.
    Compare {
        key: String,
        baseline: Box<ScenarioSpec>,
        variant: Box<ScenarioSpec>,
    },
}

impl Request {
    fn key(&self) -> &str {
        match self {
            Request::Run(s) => &s.name,
            Request::Compare { key, .. } => key,
        }
    }

    fn specs(&self) -> u64 {
        match self {
            Request::Run(_) => 1,
            Request::Compare { .. } => 2,
        }
    }
}

fn comparison(variant: usize) -> Result<Request, String> {
    let mut baseline = spec(BackendKind::Des, 0, 0)?;
    let mut v = spec(BackendKind::Des, variant, 0)?;
    // A paired comparison runs a fixed grid of replication pairs.
    baseline.stochastic.sampling = SamplingPlan::Fixed(256);
    v.stochastic.sampling = SamplingPlan::Fixed(256);
    Ok(Request::Compare {
        key: format!(
            "replicate-mix/compare/des/baseline-vs-{}",
            SCENARIOS[variant].0
        ),
        baseline: Box::new(baseline),
        variant: Box::new(v),
    })
}

/// The seed's request stream: rounds that each run every distinct request
/// once, in seed order.
fn requests(seed: u64, n: usize) -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut round = all_requests()?;
        rng.shuffle(&mut round);
        out.extend(round);
    }
    Ok(out)
}

/// Every distinct request: DES and SPN-sim on each scenario, mobility-DES
/// on each attacker strategy, each under both plans, and a paired
/// comparison of the baseline against each other scenario.
fn all_requests() -> Result<Vec<Request>, String> {
    let mut out = Vec::new();
    for kind in [
        BackendKind::Des,
        BackendKind::SpnSim,
        BackendKind::MobilityDes,
    ] {
        let scenarios = if kind == BackendKind::MobilityDes {
            MOBILITY_SCENARIOS
        } else {
            SCENARIOS.len()
        };
        for scenario in 0..scenarios {
            for plan in 0..2 {
                out.push(Request::Run(Box::new(spec(kind, scenario, plan)?)));
            }
        }
    }
    for variant in 1..SCENARIOS.len() {
        out.push(comparison(variant)?);
    }
    Ok(out)
}

/// Production path: `Runner::run_cached` or `engine::compare`; returns the
/// canonical output and its work counters.
fn production(runner: &Runner, req: &Request) -> Result<(String, Vec<u64>), String> {
    match req {
        Request::Run(spec) => {
            let r = runner.run_cached(spec).map_err(|e| e.to_string())?;
            check::survival_shape(&r)?;
            let outcome = r.template_cache.map(|c| c.outcome);
            Ok((normalized(&r), check::work_counters(&r, outcome)))
        }
        Request::Compare {
            baseline, variant, ..
        } => {
            let r = compare(baseline, variant, &runner.budget).map_err(|e| e.to_string())?;
            Ok((
                r.to_json(),
                vec![r.replications, r.delta_mttsf.observations],
            ))
        }
    }
}

fn check_answer(reference: &BTreeMap<String, String>, key: &str, got: &str) -> Result<(), String> {
    let want = reference
        .get(key)
        .ok_or(format!("no reference answer for {key}"))?;
    check::same(got, want)
}

fn load_reference() -> Result<BTreeMap<String, String>, String> {
    let path = reference_path("replicate-mix");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    check::load_reference(&text)
}

/// Set-up: generate the stream and warm each backend with a small run.
fn set_up(args: &Args, n: usize) -> Result<(Vec<Request>, Runner), String> {
    let reqs = requests(args.seed, n)?;
    let runner = Runner::new();
    for kind in [
        BackendKind::Des,
        BackendKind::SpnSim,
        BackendKind::MobilityDes,
    ] {
        let mut warm = spec(kind, 0, 0)?;
        warm.stochastic.sampling = SamplingPlan::Fixed(16);
        runner
            .run_cached(&warm)
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }
    Ok((reqs, runner))
}

pub fn run(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let reference = load_reference()?;
    if args.trace {
        return traced(args, origin, &reference);
    }
    // Ten rounds, replayed in a cycle for as long as the run lasts.
    let n = 10 * all_requests()?.len();
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        state = Some(set_up(args, n)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (reqs, runner) = state.expect("at least one set-up");
    let mut out = Outcome::default();
    out.notes.push(format!(
        "process start to first request: {:.6} s",
        origin.elapsed().as_secs_f64()
    ));
    let mut latencies = Vec::new();
    let mut specs_ok = 0u64;
    let start = Instant::now();
    for req in reqs.iter().cycle() {
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t = Instant::now();
        let result = production(&runner, req);
        latencies.push(t.elapsed().as_secs_f64());
        let verdict = result.and_then(|(got, _)| check_answer(&reference, req.key(), &got));
        if out.verdict(req.key(), verdict) {
            specs_ok += req.specs();
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = latencies.len();
    Timed {
        setups,
        latencies,
        specs_per_s: specs_ok as f64 / elapsed,
        throughput_note: format!("{specs_ok} specs in {n} requests over {elapsed:.3} s"),
    }
    .into_metrics(&mut out);
    Ok(out)
}

/// One traced pass: each request's cache lookup (a bypass) and replication
/// kernel (`Backend::run`), or its paired comparison, then encoding.
fn traced_pass(
    label: &str,
    origin: Instant,
    reqs: &[Request],
    reference: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut t = Tracer::new(origin, label);
    let mut c = Counters::default();
    let runner = Runner::new();
    let budget = RunBudget::default();
    let opts = explore_options(&budget);
    let mut counters = Vec::new();
    let wall = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64 + 1;
        let root = t.begin("request", None, id);
        let result: Result<(String, Vec<u64>), String> = match req {
            Request::Run(spec) => {
                let lookup = t.begin("engine.service.lookup", Some(root), id);
                let (_, outcome) = runner
                    .cache()
                    .lookup(spec, &opts)
                    .map_err(|e| e.to_string())?;
                t.end(lookup);
                t.rename(lookup, &format!("engine.service.lookup_{}", outcome.name()));
                if outcome == CacheOutcome::Bypass {
                    c.bypasses += 1;
                }
                let layer = match spec.backend {
                    BackendKind::Des => "gcsids.des",
                    BackendKind::SpnSim => "spn.sim",
                    _ => "gcsids.des_mobility",
                };
                let kernel = t.begin(layer, Some(root), id);
                let r = backend_for(spec.backend).run(spec, &budget);
                t.end(kernel);
                let encode = t.begin("engine.report.encode", Some(root), id);
                let r = r.inspect(|r| {
                    std::hint::black_box(r.to_json());
                });
                t.end(encode);
                r.map_err(|e| e.to_string()).and_then(|r| {
                    let reps = r.replications.unwrap_or(0);
                    match spec.backend {
                        BackendKind::Des => c.des_reps += reps,
                        BackendKind::SpnSim => c.sim_reps += reps,
                        _ => c.mobility_reps += reps,
                    }
                    if let SamplingPlan::Adaptive { max, .. } = spec.stochastic.sampling {
                        c.adaptive_used += reps;
                        c.adaptive_budget += max;
                    }
                    check::survival_shape(&r)?;
                    Ok((normalized(&r), check::work_counters(&r, Some(outcome))))
                })
            }
            Request::Compare {
                baseline, variant, ..
            } => {
                let span = t.begin("engine.paired.compare", Some(root), id);
                let r = compare(baseline, variant, &budget);
                t.end(span);
                let encode = t.begin("engine.report.encode", Some(root), id);
                let r = r.map(|r| (r.to_json(), r.replications, r.delta_mttsf.observations));
                t.end(encode);
                r.map_err(|e| e.to_string()).map(|(json, pairs, obs)| {
                    c.pairs += pairs;
                    (json, vec![pairs, obs])
                })
            }
        };
        t.end(root);
        let verdict = match result {
            Ok((got, work)) => {
                counters.push(work);
                check_answer(reference, req.key(), &got)
            }
            Err(e) => Err(e),
        };
        out.verdict(&format!("{label} {}", req.key()), verdict);
    }
    Ok(Pass {
        tracer: t,
        counters: c,
        work: counters,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

fn traced(
    args: &Args,
    origin: Instant,
    reference: &BTreeMap<String, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The seed's first round.
    let (reqs, runner) = set_up(args, 1)?;

    let t = Instant::now();
    let mut prod = Vec::new();
    for req in &reqs {
        let result = production(&runner, req);
        let verdict = result.and_then(|(got, work)| {
            prod.push(work);
            check_answer(reference, req.key(), &got)
        });
        out.verdict(req.key(), verdict);
    }
    let untraced_s = t.elapsed().as_secs_f64();

    out.notes.push(format!("traced requests: {}", reqs.len()));
    let nproc = traced_pass("nproc", origin, &reqs, reference, &mut out)?;
    let t1 = with_threads("1", || {
        traced_pass("t1", origin, &reqs, reference, &mut out)
    })?;
    crate::traced_outcome(&mut out, &prod, untraced_s, nproc, t1, &[]);
    Ok(out)
}

/// Recompute the committed answers through the uncached path for every
/// request the seed can draw.
pub fn write_reference() -> Result<String, String> {
    let runner = Runner::new();
    let mut answers = BTreeMap::new();
    for req in all_requests()? {
        let answer = match &req {
            Request::Run(spec) => normalized(&runner.run(spec).map_err(|e| e.to_string())?),
            Request::Compare {
                baseline, variant, ..
            } => compare(baseline, variant, &runner.budget)
                .map_err(|e| e.to_string())?
                .to_json(),
        };
        answers.insert(req.key().to_string(), answer);
    }
    let path = reference_path("replicate-mix");
    let about = "replicate-mix answers from Runner::run and engine::compare, one per \
                 request the seed can draw; canonical JSON with wall_seconds zeroed and \
                 template_cache removed";
    std::fs::write(&path, check::encode_reference(about, &answers))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
