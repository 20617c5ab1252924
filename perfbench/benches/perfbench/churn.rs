//! `service-churn`: the scenario service under an open loop.
//!
//! An in-process `engine::service::serve` with one worker per core. The
//! generator publishes specs to the spool at a fixed arrival rate (a little
//! under half the service's drain throughput at the default seed on the
//! reference host) and polls for each `<name>.report.json` or
//! `<name>.error.json`; latency runs from when a spec was *due*. A second
//! phase publishes the same stream again, in a few bursts each drained by a
//! fresh service, which gives the throughput.
//!
//! The stream uses the template cache the opposite way from
//! `mission-sweep`: flat exact specs over eight structural families
//! (N = 10 … 80) against a four-template cache budget, so misses and LRU
//! evictions recur; exact scenario nets and the clustered system, which
//! bypass the cache; DES specs; and a fixed share of invalid specs whose
//! correct outcome is a named error file. Exact specs carry no mission
//! grid, so no transient sweep runs. The pool of 114 distinct specs has a
//! fixed composition (64 flat, eight per family; 18 scenario nets; 2
//! clustered; 24 DES; 6 invalid); the seed draws their free parameters and
//! the order of every round through the pool. The clustered system is kept
//! rare: at about 45 ms a spec, a larger share puts the 90th latency
//! percentile on the knee of the queueing tail, where it jumps between runs.
//! DES specs run 64 replications, one chunk of the replication grid.

use crate::check::{self, normalized};
use crate::trace::Tracer;
use crate::{
    median, probe_template_build, with_threads, work_dir, Args, Counters, Outcome, Pass, Rng, Timed,
};
use engine::json::Value;
use engine::service::{serve, ServiceConfig, ServiceSummary};
use engine::{backend_for, BackendKind, CacheBudget, CacheOutcome, ExactBackend, RunBudget};
use engine::{RunReport, Runner, SamplingPlan, ScenarioSpec, TemplateCache};
use gcsids::config::SystemConfig;
use ids::functions::RateShape;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, specs per second: about 40 % of the drain
/// throughput (300–350 specs/s on a 2-core AMD EPYC host), which keeps the
/// 90th latency percentile off the knee of the queueing tail.
const RATE_PER_S: f64 = 135.0;
/// Template-cache budget of the service: fewer templates than families.
const CACHE: CacheBudget = CacheBudget {
    max_templates: 4,
    max_cached_states: 4_000_000,
};
const FAMILIES: [u32; 8] = [10, 20, 30, 40, 50, 60, 70, 80];
const SHAPES: [RateShape; 3] = [
    RateShape::Logarithmic,
    RateShape::Linear,
    RateShape::Polynomial,
];
const VOTERS: [u32; 4] = [3, 5, 7, 9];
const SCENARIOS: [&str; 6] = [
    include_str!("../../specs/ab-baseline.json"),
    include_str!("../../specs/ab-burst.json"),
    include_str!("../../specs/ab-stealth.json"),
    include_str!("../../specs/ab-targeted.json"),
    include_str!("../../specs/ab-quarantine.json"),
    include_str!("../../specs/ab-throttle.json"),
];
const CLUSTERED: &str = include_str!("../../specs/clustered-mission.json");
const SETUPS: usize = 9;
/// Burst drains per run.
const DRAINS: usize = 9;
/// Specs replayed by the traced passes and the `workers = 1` drain.
const TRACED_SPECS: usize = 460;
/// A run fails rather than hang when no result arrives for this long.
const STALL: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Debug)]
enum Cat {
    Flat,
    Scenario,
    Clustered,
    Des,
    Invalid,
}

/// Distinct specs per category; the stream cycles through all of them.
const POOL: [(Cat, usize); 5] = [
    (Cat::Flat, 64),
    (Cat::Scenario, 18),
    (Cat::Clustered, 2),
    (Cat::Des, 24),
    (Cat::Invalid, 6),
];

/// One distinct spec of the pool.
struct Entry {
    cat: Cat,
    /// The published JSON document.
    text: String,
}

fn pool(seed: u64) -> Result<Vec<Entry>, String> {
    let mut rng = Rng::new(seed ^ 0xC4A3_5EED);
    let parse = |text: &str| ScenarioSpec::from_json(text).map_err(|e| e.to_string());
    let tids = SystemConfig::paper_tids_grid();
    let mut out = Vec::new();
    for (cat, count) in POOL {
        for i in 0..count {
            let name = format!("service-churn/{cat:?}/{i}").to_lowercase();
            let mut spec = match cat {
                Cat::Flat | Cat::Invalid => {
                    let mut s = ScenarioSpec::paper_default(BackendKind::Exact);
                    s.system.node_count = FAMILIES[i % FAMILIES.len()];
                    s.system = s
                        .system
                        .with_tids(rng.pick(tids))
                        .with_vote_participants(rng.pick(&VOTERS))
                        .with_detection_shape(rng.pick(&SHAPES));
                    s
                }
                Cat::Scenario => {
                    let mut s = parse(SCENARIOS[i % SCENARIOS.len()])?;
                    s.system = s.system.with_tids(rng.pick(tids));
                    s.mission_times.clear();
                    s
                }
                Cat::Clustered => {
                    let mut s = parse(CLUSTERED)?;
                    s.system = s.system.with_tids(tids[i % tids.len()]);
                    s.mission_times.clear();
                    s
                }
                Cat::Des => {
                    let mut s = parse(SCENARIOS[i % SCENARIOS.len()])?;
                    s.backend = BackendKind::Des;
                    s.stochastic.sampling = SamplingPlan::Fixed(64);
                    s.system = s
                        .system
                        .with_tids([60.0, 120.0, 240.0, 480.0][i / SCENARIOS.len()]);
                    s
                }
            };
            spec.name = name;
            let text = match (cat, i % 3) {
                // Truncated document: a parse error.
                (Cat::Invalid, 0) => {
                    let t = spec.to_json();
                    t[..t.len() / 2].to_string()
                }
                // More voters than nodes: a validation error.
                (Cat::Invalid, 1) => {
                    spec.system.node_count = 4;
                    spec.system.vote_participants = 9;
                    spec.to_json()
                }
                // Descending mission grid: a validation error.
                (Cat::Invalid, _) => {
                    spec.mission_times = vec![100.0, 50.0];
                    spec.to_json()
                }
                _ => spec.to_json(),
            };
            out.push(Entry { cat, text });
        }
    }
    Ok(out)
}

/// The seed's stream of pool indices: rounds that each publish every pool
/// entry once, in seed order.
fn stream(seed: u64, pool: &[Entry], n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n + pool.len());
    while out.len() < n {
        let mut round: Vec<usize> = (0..pool.len()).collect();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// The expected outcome of a pool entry: its uncached report, or the
/// error the service must name.
enum Expected {
    Report(String),
    Error(String),
}

fn expected(entry: &Entry) -> Expected {
    let parsed = ScenarioSpec::from_json(&entry.text).and_then(|s| s.validate().map(|()| s));
    match parsed {
        Err(e) => Expected::Error(e.to_string()),
        Ok(spec) => match Runner::new().run(&spec) {
            Ok(r) => Expected::Report(normalized(&r)),
            Err(e) => Expected::Error(e.to_string()),
        },
    }
}

/// The service's answer for `stem`, or `None` when nothing was written yet.
fn answer(results: &Path, stem: &str) -> Option<Result<String, String>> {
    let report = results.join(format!("{stem}.report.json"));
    let error = results.join(format!("{stem}.error.json"));
    if let Ok(text) = std::fs::read_to_string(&report) {
        return Some(Ok(text));
    }
    std::fs::read_to_string(&error).ok().map(Err)
}

fn done(results: &Path, stem: &str) -> bool {
    results.join(format!("{stem}.report.json")).exists()
        || results.join(format!("{stem}.error.json")).exists()
}

/// Check one served spec against the expectation for its pool entry.
fn check_served(answer: Option<Result<String, String>>, want: &Expected) -> Result<(), String> {
    match (answer, want) {
        (None, _) => Err("no result file".into()),
        (Some(Ok(text)), Expected::Report(want)) => {
            let r = RunReport::from_json(&text).map_err(|e| e.to_string())?;
            check::survival_shape(&r)?;
            check::same(&normalized(&r), want)
        }
        (Some(Err(text)), Expected::Error(want)) => {
            let v = Value::parse(&text).map_err(|e| e.to_string())?;
            let got = v
                .field("error")
                .and_then(Value::as_str)
                .map_err(|e| e.to_string())?;
            check::same(got, want)
        }
        (Some(Ok(_)), Expected::Error(e)) => Err(format!("report written, expected error {e:?}")),
        (Some(Err(e)), Expected::Report(_)) => Err(format!("error written: {e}")),
    }
}

fn publish(spool: &Path, stem: &str, text: &str) -> Result<(), String> {
    let part = spool.join(format!("{stem}.part"));
    std::fs::write(&part, text).map_err(|e| format!("publish {stem}: {e}"))?;
    std::fs::rename(&part, spool.join(format!("{stem}.json")))
        .map_err(|e| format!("publish {stem}: {e}"))
}

fn service_config(dir: &Path, phase: &str, workers: usize, drain: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(
        dir.join(phase).join("spool"),
        dir.join(phase).join("results"),
    );
    cfg.workers = workers;
    cfg.cache_budget = CACHE;
    cfg.drain = drain;
    cfg
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Open loop: publish `stream` at `RATE_PER_S` into a running service.
/// Returns each spec's latency from its due time, the generator's worst
/// lateness, and the service summary.
fn open_loop(
    cfg: &ServiceConfig,
    pool: &[Entry],
    stream: &[usize],
) -> Result<(Vec<f64>, f64, ServiceSummary), String> {
    std::fs::create_dir_all(&cfg.spool).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&cfg.results).map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let service = scope.spawn(|| serve(cfg));
        let stop = || std::fs::write(cfg.spool.join("stop"), "");
        let result = (|| {
            let due = |i: usize| i as f64 / RATE_PER_S;
            let mut latencies = vec![f64::NAN; stream.len()];
            let mut outstanding: Vec<usize> = Vec::new();
            let mut lateness: f64 = 0.0;
            let mut next = 0;
            let mut last_progress = Instant::now();
            let t0 = Instant::now();
            while next < stream.len() || !outstanding.is_empty() {
                let now = t0.elapsed().as_secs_f64();
                while next < stream.len() && due(next) <= now {
                    publish(&cfg.spool, &format!("o{next:06}"), &pool[stream[next]].text)?;
                    lateness = lateness.max(t0.elapsed().as_secs_f64() - due(next));
                    outstanding.push(next);
                    next += 1;
                }
                outstanding.retain(|&i| {
                    if done(&cfg.results, &format!("o{i:06}")) {
                        latencies[i] = t0.elapsed().as_secs_f64() - due(i);
                        last_progress = Instant::now();
                        false
                    } else {
                        true
                    }
                });
                if service.is_finished() || last_progress.elapsed() > STALL {
                    return Err("the service stopped answering".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok((latencies, lateness))
        })();
        let stopped = stop();
        let summary = service
            .join()
            .map_err(|_| "the service panicked".to_string())?
            .map_err(|e| e.to_string())?;
        stopped.map_err(|e| e.to_string())?;
        let (latencies, lateness) = result?;
        Ok((latencies, lateness, summary))
    })
}

/// Publish `stream` at once, then drain it; returns the drain time.
fn drain(
    cfg: &ServiceConfig,
    pool: &[Entry],
    stream: &[usize],
    prefix: &str,
) -> Result<(f64, ServiceSummary), String> {
    std::fs::create_dir_all(&cfg.spool).map_err(|e| e.to_string())?;
    for (i, &p) in stream.iter().enumerate() {
        publish(&cfg.spool, &format!("{prefix}{i:06}"), &pool[p].text)?;
    }
    let t = Instant::now();
    let summary = serve(cfg).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), summary))
}

/// Check every served spec of one phase; returns how many were correct.
fn check_phase(
    out: &mut Outcome,
    results: &Path,
    prefix: &str,
    stream: &[usize],
    expected: &BTreeMap<usize, Expected>,
) -> u64 {
    let mut ok = 0;
    for (i, p) in stream.iter().enumerate() {
        let stem = format!("{prefix}{i:06}");
        if out.verdict(&stem, check_served(answer(results, &stem), &expected[p])) {
            ok += 1;
        }
    }
    ok
}

/// The summary must count every spec once, and every invalid one as failed.
fn check_summary(
    out: &mut Outcome,
    phase: &str,
    s: &ServiceSummary,
    pool: &[Entry],
    stream: &[usize],
) {
    let invalid = stream
        .iter()
        .filter(|&&p| pool[p].cat == Cat::Invalid)
        .count() as u64;
    let flat = stream.iter().filter(|&&p| pool[p].cat == Cat::Flat).count() as u64;
    let bypass = stream.len() as u64 - invalid - flat;
    out.require(
        &format!(
            "{phase} summary {s:?}: expected {} processed, {invalid} failed, {flat} cacheable, {bypass} bypasses",
            stream.len() as u64 - invalid
        ),
        s.processed + s.failed == stream.len() as u64
            && s.failed == invalid
            && s.cache.hits + s.cache.misses == flat
            && s.cache.bypasses == bypass,
    );
}

fn expectations(pool: &[Entry], stream: &[usize]) -> BTreeMap<usize, Expected> {
    let mut map = BTreeMap::new();
    for &p in stream {
        map.entry(p).or_insert_with(|| expected(&pool[p]));
    }
    map
}

pub fn run(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let dir = work_dir(args);
    let n = (RATE_PER_S * args.seconds).ceil() as usize;
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(&dir);
        let p = pool(args.seed)?;
        let s = stream(args.seed, &p, n);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().as_secs_f64());
        state = Some((p, s));
    }
    let (pool, stream) = state.expect("at least one set-up");
    if args.trace {
        return traced(origin, &dir, &pool, &stream);
    }
    let mut out = Outcome::default();
    out.notes.push(format!(
        "process start to first request: {:.6} s",
        origin.elapsed().as_secs_f64()
    ));
    let open = service_config(&dir, "open", nproc(), false);
    let (latencies, lateness, open_summary) = open_loop(&open, &pool, &stream)?;
    let rss_open = crate::peak_rss_mib();
    // The same stream in DRAINS consecutive bursts, each drained by a fresh
    // service: the median burst throughput is the run's `specs_per_s`.
    let mut drains = Vec::with_capacity(DRAINS);
    for k in 0..DRAINS {
        let chunk = &stream[k * stream.len() / DRAINS..(k + 1) * stream.len() / DRAINS];
        let cfg = service_config(&dir, &format!("drain{k}"), nproc(), true);
        let (secs, summary) = drain(&cfg, &pool, chunk, "d")?;
        drains.push((cfg, chunk, secs, summary));
    }
    out.notes.push(format!(
        "peak RSS after the open loop {rss_open} MiB, after the drains {} MiB",
        crate::peak_rss_mib()
    ));

    let expected = expectations(&pool, &stream);
    check_phase(&mut out, &open.results, "o", &stream, &expected);
    check_summary(&mut out, "open loop", &open_summary, &pool, &stream);
    let mut rates = Vec::with_capacity(DRAINS);
    for (cfg, chunk, secs, summary) in &drains {
        let ok = check_phase(&mut out, &cfg.results, "d", chunk, &expected);
        check_summary(&mut out, "drain", summary, &pool, chunk);
        rates.push(ok as f64 / secs);
    }
    out.notes.push(format!(
        "open loop: {} specs at {RATE_PER_S}/s into {} workers; generator ran at most {lateness:.6} s late; cache {:?}",
        stream.len(),
        open.workers,
        open_summary.cache
    ));
    Timed {
        setups,
        latencies,
        specs_per_s: median(&rates),
        throughput_note: format!(
            "median of {DRAINS} burst drains of about {} specs by {} workers: {rates:?} specs/s",
            stream.len() / DRAINS,
            nproc()
        ),
    }
    .into_metrics(&mut out);
    Ok(out)
}

/// What one pass over the stream produced per spec.
struct Served {
    /// Canonical report, or the error message.
    answer: Result<String, String>,
    work: Vec<u64>,
}

/// Untraced production pass: `Runner::run_cached` on each spec in stream
/// order, one client, the service's cache budget. The base for the tracing
/// overhead and for the work counters.
fn production_pass(pool: &[Entry], stream: &[usize]) -> (Vec<Served>, f64) {
    let runner = Runner::with_cache(RunBudget::default(), Arc::new(TemplateCache::new(CACHE)));
    let t = Instant::now();
    let served = stream
        .iter()
        .map(|&p| {
            let r = ScenarioSpec::from_json(&pool[p].text).and_then(|s| runner.run_cached(&s));
            match r {
                Ok(r) => Served {
                    work: check::work_counters(&r, r.template_cache.map(|c| c.outcome)),
                    answer: Ok(normalized(&r)),
                },
                Err(e) => Served {
                    answer: Err(e.to_string()),
                    work: Vec::new(),
                },
            }
        })
        .collect();
    (served, t.elapsed().as_secs_f64())
}

/// Traced pass: each spec parsed, validated, looked up in the cache,
/// evaluated by the layer its kind selects, and encoded.
fn traced_pass(
    label: &str,
    origin: Instant,
    pool: &[Entry],
    stream: &[usize],
) -> Result<(Pass, Vec<Result<String, String>>), String> {
    let mut t = Tracer::new(origin, label);
    let mut c = Counters::default();
    let budget = RunBudget::default();
    let opts = crate::explore_options(&budget);
    let cache = TemplateCache::new(CACHE);
    let mut served = Vec::with_capacity(stream.len());
    let wall = Instant::now();
    for (i, &p) in stream.iter().enumerate() {
        let id = i as u64 + 1;
        let root = t.begin("request", None, id);
        let parse = t.begin("engine.spec.parse", Some(root), id);
        let spec = ScenarioSpec::from_json(&pool[p].text);
        t.end(parse);
        let validate = t.begin("engine.spec.validate", Some(root), id);
        let spec = spec.and_then(|s| s.validate().map(|()| s));
        t.end(validate);
        let mut miss = None;
        let result = spec.and_then(|spec| {
            let lookup = t.begin("engine.service.lookup", Some(root), id);
            let (template, outcome) = cache.lookup(&spec, &opts)?;
            t.end(lookup);
            t.rename(lookup, &format!("engine.service.lookup_{}", outcome.name()));
            match outcome {
                CacheOutcome::Hit => c.hits += 1,
                CacheOutcome::Miss => {
                    c.misses += 1;
                    miss = Some((lookup, spec.system.clone()));
                }
                CacheOutcome::Bypass => c.bypasses += 1,
            }
            let layer = match (&template, pool[p].cat) {
                (Some(_), _) => "gcsids.metrics.evaluate",
                (None, Cat::Clustered) => "gcsids.clustered.evaluate",
                (None, Cat::Scenario) => "gcsids.scenario_model.evaluate",
                (None, _) => "gcsids.des",
            };
            let eval = t.begin(layer, Some(root), id);
            let report = match &template {
                Some(tpl) => ExactBackend::run_with_template(tpl, &spec),
                None => backend_for(spec.backend).run(&spec, &budget),
            };
            t.end(eval);
            let report = report?;
            let states = report.state_count.unwrap_or(0) as u64;
            match pool[p].cat {
                Cat::Clustered => c.clustered_states += states,
                Cat::Scenario => c.scenario_states += states,
                Cat::Des => c.des_reps += report.replications.unwrap_or(0),
                _ => {}
            }
            let encode = t.begin("engine.report.encode", Some(root), id);
            std::hint::black_box(report.to_json());
            t.end(encode);
            Ok((report, outcome))
        });
        t.end(root);
        if let Some((lookup, system)) = miss {
            let probe = probe_template_build(&system, &opts)?;
            t.derived(lookup, "spn.reach.explore", probe.explore_s);
            t.derived(lookup, "spn.ctmc.pattern", probe.pattern_s);
            c.reach_states += probe.states;
            c.reach_edges += probe.edges;
        }
        served.push(match result {
            Ok((r, outcome)) => Served {
                answer: Ok(normalized(&r)),
                work: check::work_counters(&r, Some(outcome)),
            },
            Err(e) => Served {
                answer: Err(e.to_string()),
                work: Vec::new(),
            },
        });
    }
    c.evictions = cache.stats().evictions;
    let (work, answers) = served.into_iter().map(|s| (s.work, s.answer)).unzip();
    let pass = Pass {
        tracer: t,
        counters: c,
        work,
        wall_s: wall.elapsed().as_secs_f64(),
    };
    Ok((pass, answers))
}

fn check_pass(
    out: &mut Outcome,
    label: &str,
    answers: &[Result<String, String>],
    stream: &[usize],
    expected: &BTreeMap<usize, Expected>,
) {
    for (i, (answer, p)) in answers.iter().zip(stream).enumerate() {
        let verdict = match (answer, &expected[p]) {
            (Ok(got), Expected::Report(want)) => check::same(got, want),
            (Err(got), Expected::Error(want)) => check::same(got, want),
            (Ok(_), Expected::Error(e)) => Err(format!("report produced, expected error {e:?}")),
            (Err(e), Expected::Report(_)) => Err(format!("error: {e}")),
        };
        out.verdict(&format!("{label} spec {i}"), verdict);
    }
}

fn traced(
    origin: Instant,
    dir: &Path,
    pool: &[Entry],
    stream: &[usize],
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let open = service_config(dir, "open", nproc(), false);
    let (latencies, _, open_summary) = open_loop(&open, pool, stream)?;
    let expected = expectations(pool, stream);
    check_phase(&mut out, &open.results, "o", stream, &expected);
    check_summary(&mut out, "open loop", &open_summary, pool, stream);

    // The passes below replay the open loop's first specs.
    let stream = &stream[..stream.len().min(TRACED_SPECS)];
    out.notes.push(format!("traced specs: {}", stream.len()));
    let (prod, untraced_s) = production_pass(pool, stream);
    let (nproc, answers_n) = traced_pass("nproc", origin, pool, stream)?;
    let (t1, answers_1) = with_threads("1", || traced_pass("t1", origin, pool, stream))?;
    let w1 = service_config(dir, "drain-w1", 1, true);
    let (w1_s, w1_summary) = drain(&w1, pool, stream, "w")?;
    let w1_ok = check_phase(&mut out, &w1.results, "w", stream, &expected);
    check_summary(&mut out, "workers=1 drain", &w1_summary, pool, stream);
    let (prod_work, prod_answers): (Vec<_>, Vec<_>) =
        prod.into_iter().map(|s| (s.work, s.answer)).unzip();
    check_pass(&mut out, "production", &prod_answers, stream, &expected);
    check_pass(&mut out, "nproc", &answers_n, stream, &expected);
    check_pass(&mut out, "t1", &answers_1, stream, &expected);

    // Queue wait plus scan, claim and spool I/O: open-loop latency minus the
    // traced request time of the same spec.
    let overheads: Vec<f64> = nproc
        .tracer
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .zip(&latencies)
        .map(|(s, l)| l - s.duration())
        .collect();
    out.notes.push(
        "engine.service.overhead_s is the median over specs of open-loop latency \
         minus traced request time"
            .into(),
    );
    let extra = [
        ("engine.service.overhead_s", median(&overheads)),
        ("engine.service.processed", open_summary.processed as f64),
        ("engine.service.failed", open_summary.failed as f64),
        ("engine.service.drain_w1_specs_per_s", w1_ok as f64 / w1_s),
    ];
    crate::traced_outcome(&mut out, &prod_work, untraced_s, nproc, t1, &extra);
    Ok(out)
}
