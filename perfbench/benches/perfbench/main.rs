//! Production-path benchmark of the GCS/IDS engine.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench perfbench -- \
//!     --workload <mission-sweep|replicate-mix|service-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every request goes through the engine's public API (`Runner`,
//! `engine::compare`, `engine::service::serve`). With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it runs the traced
//! passes and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Any wrong output or work-counter drift makes `correct` false and the exit
//! code 1. See `perfbench/README.md` for the workloads and how to read the
//! traced output.

mod check;
mod churn;
mod mission;
mod mix;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Regenerate the committed reference answers instead of measuring.
    pub write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--write-reference" => {
                args.write_reference = true;
                continue;
            }
            // `cargo bench` passes this to every bench target.
            "--bench" => continue,
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and determinism drift; any entry fails the run.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// layer breakdowns).
    pub notes: Vec<String>,
    /// Spans of the traced passes, written to the trace file.
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    /// Record a request's verdict: `Err` counts as failed.
    pub fn verdict(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 20 {
                    self.errors.push(format!("{what}: {e}"));
                }
                false
            }
        }
    }

    /// A check that is not a request (drift between passes, summaries).
    pub fn require(&mut self, what: &str, ok: bool) {
        if !ok {
            self.errors.push(what.to_string());
        }
    }
}

/// Deterministic input generator (SplitMix64): the seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Percentile of `values` (`p` in [0, 1]), interpolating linearly between
/// the two nearest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = p * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// End-to-end metrics of one closed- or open-loop timed phase.
pub struct Timed {
    /// Set-up durations of the repeated set-ups (median reported).
    pub setups: Vec<f64>,
    /// Per-request latency, seconds.
    pub latencies: Vec<f64>,
    /// Specs completed correctly per second.
    pub specs_per_s: f64,
    /// How the throughput was measured, for the notes.
    pub throughput_note: String,
}

impl Timed {
    pub fn into_metrics(self, out: &mut Outcome) {
        let n = self.latencies.len();
        out.notes.push(format!(
            "setup_s: median of {} set-ups {:?}",
            self.setups.len(),
            self.setups
        ));
        out.notes
            .push(format!("specs_per_s: {}", self.throughput_note));
        if n > 0 {
            let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99]
                .iter()
                .map(|&p| format!("p{}={:.6}", p * 100.0, percentile(&self.latencies, p)))
                .collect();
            out.notes
                .push(format!("latency percentiles (s): {}", q.join(" ")));
        }
        out.notes.push(format!(
            "latency: {n} requests{}",
            if n < 100 {
                " (fewer than 100: read latency_p90_s as close to the maximum)"
            } else {
                ""
            }
        ));
        out.notes.push(format!(
            "failed_frac: {} / {} = {}",
            out.failed,
            out.attempted,
            out.failed as f64 / out.attempted.max(1) as f64
        ));
        out.metrics.extend([
            Metric {
                name: "setup_s",
                value: median(&self.setups),
                unit: "s",
            },
            Metric {
                name: "specs_per_s",
                value: self.specs_per_s,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_s",
                value: if n > 0 {
                    percentile(&self.latencies, 0.5)
                } else {
                    0.0
                },
                unit: "s",
            },
            Metric {
                name: "latency_p90_s",
                value: if n > 0 {
                    percentile(&self.latencies, 0.9)
                } else {
                    0.0
                },
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss_mib(),
                unit: "MiB",
            },
        ]);
    }
}

/// Every per-layer metric, with its unit. Each traced run prints all of
/// them; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spn.transient.self_s", "s"),
    ("spn.transient.self_t1_s", "s"),
    ("spn.transient.matvecs", "count"),
    ("spn.transient.s_per_matvec", "s"),
    ("numerics.sparse.flops_computed", "count"),
    ("numerics.sparse.bytes_computed", "bytes"),
    ("gcsids.metrics.evaluate_s", "s"),
    ("engine.service.cache_hits", "count"),
    ("engine.service.cache_misses", "count"),
    ("engine.service.cache_evictions", "count"),
    ("engine.service.cache_bypasses", "count"),
    ("engine.service.cache_hit_ratio", "ratio"),
    ("engine.service.lookup_hit_s", "s"),
    ("engine.service.lookup_miss_s", "s"),
    ("spn.reach.explore_s", "s"),
    ("spn.reach.states", "count"),
    ("spn.reach.edges", "count"),
    ("spn.ctmc.pattern_s", "s"),
    ("gcsids.clustered.evaluate_s", "s"),
    ("gcsids.clustered.states", "count"),
    ("gcsids.scenario_model.evaluate_s", "s"),
    ("gcsids.scenario_model.states", "count"),
    ("gcsids.des.self_s", "s"),
    ("gcsids.des.reps", "count"),
    ("gcsids.des.reps_per_s", "1/s"),
    ("spn.sim.self_s", "s"),
    ("spn.sim.reps", "count"),
    ("spn.sim.reps_per_s", "1/s"),
    ("gcsids.des_mobility.self_s", "s"),
    ("gcsids.des_mobility.reps", "count"),
    ("gcsids.des_mobility.reps_per_s", "1/s"),
    ("numerics.replicate.self_s", "s"),
    ("numerics.replicate.self_t1_s", "s"),
    ("numerics.replicate.adaptive_used_ratio", "ratio"),
    ("engine.paired.compare_s", "s"),
    ("engine.paired.pairs", "count"),
    ("engine.spec.parse_s", "s"),
    ("engine.report.encode_s", "s"),
    ("engine.service.overhead_s", "s"),
    ("engine.service.processed", "count"),
    ("engine.service.failed", "count"),
    ("engine.service.drain_w1_specs_per_s", "1/s"),
    ("trace.request_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Deterministic work counts of one traced pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    pub matvecs: u64,
    pub flops: u64,
    pub bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bypasses: u64,
    pub reach_states: u64,
    pub reach_edges: u64,
    pub clustered_states: u64,
    pub scenario_states: u64,
    pub des_reps: u64,
    pub sim_reps: u64,
    pub mobility_reps: u64,
    pub adaptive_used: u64,
    pub adaptive_budget: u64,
    pub pairs: u64,
}

/// Per-layer metrics of a traced pass at `nproc` threads.
pub fn layer_metrics(t: &Tracer, c: &Counters) -> BTreeMap<&'static str, f64> {
    let selfs = t.self_times();
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let transient = s("spn.transient");
    let replicate =
        s("gcsids.des") + s("spn.sim") + s("gcsids.des_mobility") + s("engine.paired.compare");
    let values = [
        ("spn.transient.self_s", transient),
        ("spn.transient.matvecs", c.matvecs as f64),
        (
            "spn.transient.s_per_matvec",
            ratio(transient, c.matvecs as f64),
        ),
        ("numerics.sparse.flops_computed", c.flops as f64),
        ("numerics.sparse.bytes_computed", c.bytes as f64),
        ("gcsids.metrics.evaluate_s", s("gcsids.metrics.evaluate")),
        ("engine.service.cache_hits", c.hits as f64),
        ("engine.service.cache_misses", c.misses as f64),
        ("engine.service.cache_evictions", c.evictions as f64),
        ("engine.service.cache_bypasses", c.bypasses as f64),
        (
            "engine.service.cache_hit_ratio",
            ratio(c.hits as f64, (c.hits + c.misses) as f64),
        ),
        (
            "engine.service.lookup_hit_s",
            t.inclusive("engine.service.lookup_hit"),
        ),
        (
            "engine.service.lookup_miss_s",
            t.inclusive("engine.service.lookup_miss"),
        ),
        ("spn.reach.explore_s", s("spn.reach.explore")),
        ("spn.reach.states", c.reach_states as f64),
        ("spn.reach.edges", c.reach_edges as f64),
        ("spn.ctmc.pattern_s", s("spn.ctmc.pattern")),
        (
            "gcsids.clustered.evaluate_s",
            s("gcsids.clustered.evaluate"),
        ),
        ("gcsids.clustered.states", c.clustered_states as f64),
        (
            "gcsids.scenario_model.evaluate_s",
            s("gcsids.scenario_model.evaluate"),
        ),
        ("gcsids.scenario_model.states", c.scenario_states as f64),
        ("gcsids.des.self_s", s("gcsids.des")),
        ("gcsids.des.reps", c.des_reps as f64),
        (
            "gcsids.des.reps_per_s",
            ratio(c.des_reps as f64, s("gcsids.des")),
        ),
        ("spn.sim.self_s", s("spn.sim")),
        ("spn.sim.reps", c.sim_reps as f64),
        ("spn.sim.reps_per_s", ratio(c.sim_reps as f64, s("spn.sim"))),
        ("gcsids.des_mobility.self_s", s("gcsids.des_mobility")),
        ("gcsids.des_mobility.reps", c.mobility_reps as f64),
        (
            "gcsids.des_mobility.reps_per_s",
            ratio(c.mobility_reps as f64, s("gcsids.des_mobility")),
        ),
        ("numerics.replicate.self_s", replicate),
        (
            "numerics.replicate.adaptive_used_ratio",
            ratio(c.adaptive_used as f64, c.adaptive_budget as f64),
        ),
        ("engine.paired.compare_s", s("engine.paired.compare")),
        ("engine.paired.pairs", c.pairs as f64),
        ("engine.spec.parse_s", s("engine.spec.parse")),
        ("engine.report.encode_s", s("engine.report.encode")),
        ("trace.request_s", t.inclusive("request")),
        ("trace.unattributed_s", s("request")),
    ];
    for (name, v) in values {
        m.insert(name, v);
    }
    m
}

/// One traced pass: its spans, work counts and wall time.
pub struct Pass {
    pub tracer: Tracer,
    pub counters: Counters,
    /// Per-request work counters, for the drift checks.
    pub work: Vec<Vec<u64>>,
    /// Wall time of the pass, probes included.
    pub wall_s: f64,
}

/// Finish a traced run: check the passes for work-counter drift (against
/// the untraced `production` pass and across thread counts), then report
/// the per-layer metrics of the all-cores pass with the one-thread rows,
/// the tracing overhead and any workload-specific `extra` values.
pub fn traced_outcome(
    out: &mut Outcome,
    production: &[Vec<u64>],
    untraced_s: f64,
    nproc: Pass,
    t1: Pass,
    extra: &[(&'static str, f64)],
) {
    let drift = check::drift("production", production, "traced", &nproc.work)
        .and_then(|()| check::drift("nproc", &nproc.work, "t1", &t1.work));
    if let Err(e) = drift {
        out.require(&e, false);
    }
    out.require(
        &format!(
            "pass counters drift: nproc {:?} vs t1 {:?}",
            nproc.counters, t1.counters
        ),
        nproc.counters == t1.counters,
    );
    let mut layers = layer_metrics(&nproc.tracer, &nproc.counters);
    let one = layer_metrics(&t1.tracer, &t1.counters);
    layers.insert("spn.transient.self_t1_s", one["spn.transient.self_s"]);
    layers.insert(
        "numerics.replicate.self_t1_s",
        one["numerics.replicate.self_s"],
    );
    layers.insert("trace.overhead_s", nproc.wall_s - untraced_s);
    layers.extend(extra.iter().copied());
    out.notes.push(format!(
        "untraced production pass {untraced_s:.6} s, traced pass {:.6} s",
        nproc.wall_s
    ));
    out.notes.push(format!(
        "spn.transient.self_s is {:.2}% of the traced request time",
        100.0 * layers["spn.transient.self_s"] / layers["trace.request_s"].max(f64::MIN_POSITIVE)
    ));
    out.notes.extend(breakdown(&nproc.tracer));
    out.notes.extend(breakdown(&t1.tracer));
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers[name],
            unit,
        })
        .collect();
    out.tracers = vec![nproc.tracer, t1.tracer];
}

/// Self time per span name inside requests, with the share of the traced
/// request time each accounts for, as note lines.
pub fn breakdown(t: &Tracer) -> Vec<String> {
    let total = t.inclusive("request");
    let request_ids: std::collections::BTreeSet<usize> =
        (0..t.spans.len()).filter(|&i| in_request(t, i)).collect();
    let mut child_time = vec![0.0; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let mut per_name: BTreeMap<&str, f64> = BTreeMap::new();
    for &i in &request_ids {
        let s = &t.spans[i];
        let name = if s.name == "request" {
            "(unattributed)"
        } else {
            s.name.as_str()
        };
        *per_name.entry(name).or_insert(0.0) += s.duration() - child_time[i];
    }
    let mut lines = vec![format!(
        "traced pass {}: {:.6} s in requests, accounted as",
        t.pass, total
    )];
    let mut sum = 0.0;
    for (name, v) in per_name {
        sum += v;
        lines.push(format!(
            "  {name:<36} {v:>12.6} s  {:>6.2}%",
            100.0 * v / total.max(f64::MIN_POSITIVE)
        ));
    }
    lines.push(format!("  {:<36} {sum:>12.6} s", "(sum)"));
    lines
}

fn in_request(t: &Tracer, mut i: usize) -> bool {
    loop {
        if t.spans[i].name == "request" {
            return true;
        }
        match t.spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// Host description recorded with every output.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"threads\":{},\"cpu\":{:?},\"commit\":{:?},\"workload\":{:?},\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        rayon::current_num_threads(),
        cpu,
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

/// Commit of the checkout when it is a git work tree, else `unknown`.
fn commit() -> String {
    let git = checkout_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Directory, inside the checkout, for the service spool and other scratch
/// files of this run; removed when the run ends.
pub fn work_dir(args: &Args) -> PathBuf {
    checkout_root().join(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_reference {
        let result = match args.workload.as_str() {
            "mission-sweep" => mission::write_reference(),
            "replicate-mix" => mix::write_reference(),
            other => Err(format!("no committed reference for workload {other:?}")),
        };
        return match result {
            Ok(path) => {
                eprintln!("perfbench: wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let host = host_line(&args);
    let outcome = match args.workload.as_str() {
        "mission-sweep" => mission::run(&args, origin),
        "replicate-mix" => mix::run(&args, origin),
        "service-churn" => churn::run(&args, origin),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(work_dir(&args));
    let _ = std::fs::remove_dir(checkout_root().join(".perfbench_work"));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{host}");
    for line in &outcome.notes {
        println!("# {line}");
    }
    for e in &outcome.errors {
        println!("# WRONG: {e}");
    }
    if !outcome.tracers.is_empty() {
        let mut text = format!("{host}\n");
        for t in &outcome.tracers {
            t.write_jsonl(&mut text);
        }
        let dir = checkout_root().join(".perfbench_out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    let correct = outcome.errors.is_empty() && outcome.failed == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        // `+ 0.0` turns a negative zero (an empty sum) into 0.
        let value = if m.value.is_finite() {
            m.value + 0.0
        } else {
            0.0
        };
        let _ = write!(
            line,
            "{}\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            m.name,
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `f` with the engine's thread count forced to `threads`.
///
/// Only call this while no other thread of the process runs: the variable
/// is process-wide, and the vendored rayon reads it on every parallel call.
pub fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let old = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let out = f();
    match old {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// Exploration limits the engine's `Runner` applies under `budget`.
pub fn explore_options(budget: &engine::RunBudget) -> spn::reach::ExploreOptions {
    spn::reach::ExploreOptions {
        max_states: budget.max_states,
        ..Default::default()
    }
}

/// What a template build costs, timed layer by layer.
pub struct BuildProbe {
    pub explore_s: f64,
    pub pattern_s: f64,
    pub states: u64,
    pub edges: u64,
}

/// Probe: explore `cfg`'s state space and build its CTMC pattern, the two
/// layers a template-cache miss runs inside `TemplateCache::lookup`.
pub fn probe_template_build(
    cfg: &gcsids::config::SystemConfig,
    opts: &spn::reach::ExploreOptions,
) -> Result<BuildProbe, String> {
    let model = gcsids::model::build_model(cfg);
    let t = Instant::now();
    let graph = spn::reach::explore(&model.net, opts).map_err(|e| e.to_string())?;
    let explore_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(spn::ctmc::CtmcTemplate::new(&graph).map_err(|e| e.to_string())?);
    let pattern_s = t.elapsed().as_secs_f64();
    Ok(BuildProbe {
        explore_s,
        pattern_s,
        states: graph.state_count() as u64,
        edges: graph.edge_count() as u64,
    })
}

/// Computed cost of one transient matvec on `graph`'s chain: the ELL block
/// is the transposed transient-to-transient part of the uniformized
/// matrix, one row per live state, padded to the largest row (in-degree
/// plus the diagonal). Returns (flops, bytes): 2 flops per padded entry;
/// 8-byte value plus 4-byte column index per padded entry, plus one 8-byte
/// read and one 8-byte write per row.
pub fn matvec_cost(graph: &spn::reach::ReachabilityGraph) -> (u64, u64) {
    let n = graph.state_count();
    let live: Vec<bool> = (0..n).map(|s| graph.exit_rate(s) > 0.0).collect();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (s, edges) in graph.edges.iter().enumerate() {
        if !live[s] {
            continue;
        }
        for e in edges {
            if live[e.target as usize] && e.target as usize != s && e.rate > 0.0 {
                pairs.push((e.target, s as u32));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut in_degree = vec![1u64; n];
    for &(t, _) in &pairs {
        in_degree[t as usize] += 1;
    }
    let rows = live.iter().filter(|&&l| l).count() as u64;
    let width = (0..n)
        .filter(|&s| live[s])
        .map(|s| in_degree[s])
        .max()
        .unwrap_or(0);
    (2 * rows * width, rows * width * 12 + rows * 16)
}

/// Root of the checkout the benchmark was built in. `cargo bench` runs the
/// benchmark from the package directory, so paths are anchored here.
pub fn checkout_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Path of a committed reference file.
pub fn reference_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.json"))
}
