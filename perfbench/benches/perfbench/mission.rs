//! `mission-sweep`: the paper's figure workload.
//!
//! A closed loop with one client. Each request is the 9-point T_IDS grid
//! (5 s … 1200 s) on the N = 50 family with a 5-point mission grid out to
//! 6 h, sent through `Runner::try_batch`. The seed picks the vote
//! participants m ∈ {3, 5, 7, 9} of every request; requests come in rounds
//! of one logarithmic- and one linear-detection request in seed order, so
//! every run sees the same mix of detection shapes. (The polynomial shape
//! is left out: at T_IDS = 5 s its chain is stiff and one sweep runs for
//! minutes.) Set-up warms the template cache, so every request hits it.
//! Nearly all the time is the transient sweep (`spn::transient`).

use crate::check::{self, normalized};
use crate::trace::Tracer;
use crate::{
    explore_options, matvec_cost, probe_template_build, reference_path, with_threads, Args,
    Counters, Outcome, Pass, Rng, Timed,
};
use engine::{backend_for, BackendKind, CacheOutcome, ExactBackend, RunBudget, Runner};
use engine::{ScenarioSpec, TemplateCache};
use gcsids::config::SystemConfig;
use ids::functions::RateShape;
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: u32 = 50;
/// Mission times (s): 0 to 6 h in five points.
const MISSION_GRID: [f64; 5] = [0.0, 5400.0, 10800.0, 16200.0, 21600.0];
const SHAPES: [RateShape; 2] = [RateShape::Logarithmic, RateShape::Linear];
const VOTERS: [u32; 4] = [3, 5, 7, 9];
/// Repeated set-ups per run; the median is reported.
const SETUPS: usize = 9;

fn shape_name(shape: RateShape) -> &'static str {
    match shape {
        RateShape::Logarithmic => "logarithmic",
        RateShape::Linear => "linear",
        RateShape::Polynomial => "polynomial",
    }
}

/// One request: a T_IDS sweep batch.
struct Request {
    label: String,
    specs: Vec<ScenarioSpec>,
}

fn request(shape: RateShape, m: u32) -> Request {
    let specs = SystemConfig::paper_tids_grid()
        .iter()
        .map(|&tids| {
            let mut spec =
                ScenarioSpec::paper_default(BackendKind::Exact).with_mission_times(&MISSION_GRID);
            spec.system.node_count = NODES;
            spec.system = spec
                .system
                .with_tids(tids)
                .with_vote_participants(m)
                .with_detection_shape(shape);
            spec.name = format!("mission-sweep/{}/m{m}/tids{tids}", shape_name(shape));
            spec
        })
        .collect();
    Request {
        label: format!("{}/m{m}", shape_name(shape)),
        specs,
    }
}

/// The seed's request stream: `rounds` rounds of two requests.
fn requests(seed: u64, rounds: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(2 * rounds);
    for _ in 0..rounds {
        let mut shapes = SHAPES;
        rng.shuffle(&mut shapes);
        for shape in shapes {
            out.push(request(shape, rng.pick(&VOTERS)));
        }
    }
    out
}

/// Without the mission grid: the same steady-state solve, no transient.
fn without_grid(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut s = spec.clone();
    s.mission_times.clear();
    s
}

/// Set-up: generate the request stream and warm a runner's template cache
/// (one exploration, then one steady solve per worker's scratch set).
fn set_up(args: &Args, rounds: usize) -> Result<(Vec<Request>, Runner), String> {
    let reqs = requests(args.seed, rounds);
    let runner = Runner::new();
    let warm: Vec<ScenarioSpec> = reqs[0].specs.iter().map(without_grid).collect();
    for r in runner.try_batch(&warm) {
        r.map_err(|e| format!("warm-up failed: {e}"))?;
    }
    Ok((reqs, runner))
}

fn check_report(
    reference: &BTreeMap<String, String>,
    spec: &ScenarioSpec,
    result: &Result<engine::RunReport, engine::EngineError>,
) -> Result<(), String> {
    let report = result.as_ref().map_err(|e| e.to_string())?;
    let want = reference
        .get(&spec.name)
        .ok_or(format!("no reference answer for {}", spec.name))?;
    check::same(&normalized(report), want)?;
    check::survival_shape(report)?;
    match report.template_cache.map(|c| c.outcome) {
        Some(CacheOutcome::Hit) | None => Ok(()),
        Some(other) => Err(format!("template cache {}, expected a hit", other.name())),
    }
}

fn load_reference() -> Result<BTreeMap<String, String>, String> {
    let path = reference_path("mission-sweep");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    check::load_reference(&text)
}

pub fn run(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let reference = load_reference()?;
    if args.trace {
        return traced(args, origin, &reference);
    }
    // One engine thread: at the default thread count the transient kernel
    // spawns threads on every matvec, a request takes 8-15 s and its time
    // follows the host's scheduler load. The traced run reports both.
    with_threads("1", || timed(args, origin, &reference))
}

fn timed(
    args: &Args,
    origin: Instant,
    reference: &BTreeMap<String, String>,
) -> Result<Outcome, String> {
    // Sixteen rounds, replayed in a cycle for as long as the run lasts.
    let rounds = 16;
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        state = Some(set_up(args, rounds)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (reqs, runner) = state.expect("at least one set-up");
    let mut out = Outcome::default();
    out.notes.push(format!(
        "process start to first request: {:.6} s",
        origin.elapsed().as_secs_f64()
    ));
    out.notes.push(format!(
        "engine threads in the timed phase: {}",
        rayon::current_num_threads()
    ));
    let mut latencies = Vec::new();
    let mut specs_ok = 0u64;
    let start = Instant::now();
    // Whole rounds only, so every run weighs both detection shapes equally.
    for (i, req) in reqs.iter().cycle().enumerate() {
        if i % 2 == 0 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t = Instant::now();
        let results = runner.try_batch(&req.specs);
        latencies.push(t.elapsed().as_secs_f64());
        for (spec, result) in req.specs.iter().zip(&results) {
            if out.verdict(&spec.name, check_report(reference, spec, result)) {
                specs_ok += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let n = latencies.len();
    Timed {
        setups,
        latencies,
        specs_per_s: specs_ok as f64 / elapsed,
        throughput_note: format!("{specs_ok} specs in {n} sweep requests over {elapsed:.3} s"),
    }
    .into_metrics(&mut out);
    Ok(out)
}

/// One traced pass over `reqs`: every spec's cache lookup, transient sweep
/// (`ExactBackend::run_with_template`, with the steady solve split off by a
/// probe on the same warm template) and report encoding.
fn traced_pass(
    label: &str,
    origin: Instant,
    reqs: &[Request],
    reference: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut t = Tracer::new(origin, label);
    let mut c = Counters::default();
    let budget = RunBudget::default();
    let opts = explore_options(&budget);
    let cache = TemplateCache::default();

    // Set-up as its own root span: the miss that builds the family's template.
    let first = &reqs[0].specs[0];
    let root = t.begin("setup", None, 0);
    let lookup = t.begin("engine.service.lookup_miss", Some(root), 0);
    let (template, _) = cache.lookup(first, &opts).map_err(|e| e.to_string())?;
    t.end(lookup);
    t.end(root);
    let template = template.ok_or("the N=50 family must be cacheable")?;
    let probe = probe_template_build(&first.system, &opts)?;
    t.derived(lookup, "spn.reach.explore", probe.explore_s);
    t.derived(lookup, "spn.ctmc.pattern", probe.pattern_s);
    c.reach_states += probe.states;
    c.reach_edges += probe.edges;
    let (flops, bytes) = matvec_cost(template.graph());

    let mut counters = Vec::new();
    let wall = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        let id = i as u64 + 1;
        // Probes outside the request: the steady solve alone, per spec.
        let mut steady = Vec::new();
        for spec in &req.specs {
            let p = t.begin("probe.gcsids.metrics.evaluate", None, id);
            ExactBackend::run_with_template(&template, &without_grid(spec))
                .map_err(|e| e.to_string())?;
            steady.push(t.end(p));
        }
        let root = t.begin("request", None, id);
        for (spec, steady_s) in req.specs.iter().zip(steady) {
            let lookup = t.begin("engine.service.lookup", Some(root), id);
            let (hit, outcome) = cache.lookup(spec, &opts).map_err(|e| e.to_string())?;
            t.end(lookup);
            t.rename(lookup, &format!("engine.service.lookup_{}", outcome.name()));
            match outcome {
                CacheOutcome::Hit => c.hits += 1,
                CacheOutcome::Miss => c.misses += 1,
                CacheOutcome::Bypass => c.bypasses += 1,
            }
            let hit = hit.ok_or("flat exact specs must not bypass the cache")?;
            let sweep = t.begin("spn.transient", Some(root), id);
            let result = ExactBackend::run_with_template(&hit, spec);
            t.end(sweep);
            t.derived(sweep, "gcsids.metrics.evaluate", steady_s);
            let encode = t.begin("engine.report.encode", Some(root), id);
            let encoded = result.as_ref().map(|r| r.to_json());
            t.end(encode);
            std::hint::black_box(encoded.ok());
            let verdict = check_report(reference, spec, &result);
            out.verdict(&format!("{label} {}", spec.name), verdict);
            if let Ok(r) = &result {
                let matvecs = r.transient.as_ref().map_or(0, |x| x.matvecs);
                c.matvecs += matvecs;
                c.flops += matvecs * flops;
                c.bytes += matvecs * bytes;
                counters.push(check::work_counters(r, Some(outcome)));
            }
        }
        t.end(root);
    }
    c.evictions = cache.stats().evictions;
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
    // The seed's first request: one sweep batch.
    let (reqs, runner) = set_up(args, 1)?;
    let reqs = &reqs[..1];

    // Production pass, untraced: the tracing-overhead base and the
    // reference for the work counters.
    let t = Instant::now();
    let results = runner.try_batch(&reqs[0].specs);
    let untraced_s = t.elapsed().as_secs_f64();
    let mut production = Vec::new();
    for (spec, result) in reqs[0].specs.iter().zip(&results) {
        out.verdict(&spec.name, check_report(reference, spec, result));
        if let Ok(r) = result {
            production.push(check::work_counters(r, r.template_cache.map(|c| c.outcome)));
        }
    }

    let nproc = traced_pass("nproc", origin, reqs, reference, &mut out)?;
    let t1 = with_threads("1", || traced_pass("t1", origin, reqs, reference, &mut out))?;
    out.notes.push(format!("traced request: {}", reqs[0].label));
    crate::traced_outcome(&mut out, &production, untraced_s, nproc, t1, &[]);
    Ok(out)
}

/// Recompute the committed answers through the uncached path
/// (`Backend::run`, fresh exploration) for every request the seed can draw.
pub fn write_reference() -> Result<String, String> {
    let mut answers = BTreeMap::new();
    for shape in SHAPES {
        for m in VOTERS {
            for spec in request(shape, m).specs {
                let report = backend_for(BackendKind::Exact)
                    .run(&spec, &RunBudget::default())
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                answers.insert(spec.name.clone(), normalized(&report));
            }
        }
    }
    let path = reference_path("mission-sweep");
    let about = "mission-sweep answers from the uncached exact path (Backend::run), \
                 one per spec the seed can draw; canonical RunReport JSON with \
                 wall_seconds zeroed and template_cache removed";
    std::fs::write(&path, check::encode_reference(about, &answers))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
