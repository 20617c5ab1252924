//! The `Backend` abstraction: four evaluators, one contract.
//!
//! Every evaluator in the repository — exact CTMC absorption analysis,
//! SPN token-game simulation, protocol DES, and mobility-integrated DES —
//! implements [`Backend`]: `ScenarioSpec` in, [`RunReport`] out, under a
//! caller-supplied [`RunBudget`]. This is what lets sweeps, Pareto
//! enumeration, and cross-validation treat heterogeneous evaluators
//! uniformly instead of hand-rolling one orchestration per evaluator.

use crate::error::EngineError;
use crate::report::{
    survival_estimates_streaming, DetectionInfo, Estimate, FailureSplit, RunReport,
};
use crate::spec::{BackendKind, SamplingPlan, ScenarioSpec};
use gcsids::clustered::evaluate_clustered_with_survival;
use gcsids::des::{run_des, DesConfig, FailureCause};
use gcsids::des_mobility::{run_mobility_des, MobilityDesConfig};
use gcsids::metrics::{eviction_impulses, total_cost_reward, ExactTemplate};
use gcsids::model::{build_model, Places};
use gcsids::{
    build_scenario_model, evaluate_scenario_graph, scenario_cost_reward, scenario_impulses,
    DetectionTotals,
};
use numerics::replicate::{run_indexed, run_plan_observed, Completed, OutcomeSink, Replicate};
use numerics::rng::child_seed;
use numerics::stats::{SurvivalAccumulator, Welford};
use spn::error::SpnError;
use spn::model::{Spn, TransitionId};
use spn::reach::ExploreOptions;
use spn::reward::RewardSet;
use spn::sim::{SimOptions, SimOutcome, Simulator};
use std::time::Instant;

/// Resource limits applied to a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunBudget {
    /// Cap on tangible states explored by the exact backend.
    pub max_states: usize,
    /// Optional cap on stochastic replication budgets (clamps a fixed
    /// plan's count and an adaptive plan's `min`/`max` when smaller).
    pub max_replications: Option<u64>,
}

impl Default for RunBudget {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            max_replications: None,
        }
    }
}

impl RunBudget {
    fn plan(&self, spec: &ScenarioSpec) -> SamplingPlan {
        let plan = spec.stochastic.sampling;
        self.max_replications.map_or(plan, |cap| plan.capped(cap))
    }
}

/// A sampling-progress event: emitted once per adaptive round (and once
/// at completion for fixed plans) by the stochastic backends when run
/// through [`Backend::run_observed`]. The exact backend emits nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProgress {
    /// Replications completed so far.
    pub replications: u64,
    /// Relative CI half-width at this point (`None` below two failure
    /// observations).
    pub precision: Option<f64>,
}

/// A uniform evaluator of scenario specs.
pub trait Backend: Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Evaluate `spec` within `budget`.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSpec`] for inconsistent specs and
    /// [`EngineError::Solver`] for evaluator failures.
    fn run(&self, spec: &ScenarioSpec, budget: &RunBudget) -> Result<RunReport, EngineError>;

    /// [`Backend::run`] with incremental sampling-progress observation.
    /// Observation never changes what runs — reports are bit-identical to
    /// the unobserved path. Backends with no replication loop (the exact
    /// solver) ignore the observer; that is this default.
    ///
    /// # Errors
    /// Same contract as [`Backend::run`].
    fn run_observed(
        &self,
        spec: &ScenarioSpec,
        budget: &RunBudget,
        progress: &mut dyn FnMut(BatchProgress),
    ) -> Result<RunReport, EngineError> {
        let _ = progress;
        self.run(spec, budget)
    }
}

/// The backend implementation for a kind.
pub fn backend_for(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Exact => &ExactBackend,
        BackendKind::SpnSim => &StochasticBackend(BackendKind::SpnSim),
        BackendKind::Des => &StochasticBackend(BackendKind::Des),
        BackendKind::MobilityDes => &StochasticBackend(BackendKind::MobilityDes),
    }
}

/// Exact CTMC absorption analysis (the paper's analytic path).
pub struct ExactBackend;

impl ExactBackend {
    /// Evaluate against an already-explored template (the runner's
    /// explore-once-solve-many path for batched rate-only scenarios).
    ///
    /// # Errors
    /// Propagates evaluation failures.
    pub fn run_with_template(
        template: &ExactTemplate,
        spec: &ScenarioSpec,
    ) -> Result<RunReport, EngineError> {
        spec.validate()?;
        if spec.clustered.is_some() {
            // A template caches the single-system graph; a clustered spec
            // solves a different (lumped or composed) chain entirely.
            return Err(EngineError::InvalidSpec(
                "clustered specs are not template-batchable — use Backend::run".into(),
            ));
        }
        if spec.scenario.is_some() {
            // A scenario changes the net structure (extra places and
            // transitions), not just rates — the cached graph does not apply.
            return Err(EngineError::InvalidSpec(
                "scenario specs are not template-batchable — use Backend::run".into(),
            ));
        }
        // detlint::allow(D002): feeds the report's explicit wall_seconds timing field only
        let t0 = Instant::now();
        let (e, survival) = template.evaluate_with_survival(&spec.system, &spec.mission_times)?;
        Ok(Self::report_from_evaluation(
            spec,
            &e,
            survival,
            t0.elapsed().as_secs_f64(),
        ))
    }

    fn report_from_evaluation(
        spec: &ScenarioSpec,
        e: &gcsids::metrics::Evaluation,
        survival: Option<Vec<f64>>,
        wall_seconds: f64,
    ) -> RunReport {
        RunReport {
            scenario: spec.name.clone(),
            backend: BackendKind::Exact,
            mttsf: Estimate::exact(e.mttsf_seconds),
            c_total: Estimate::exact(e.c_total_hop_bits_per_sec),
            cost_components: Some(e.cost_components),
            failure: FailureSplit {
                p_c1: e.p_failure_c1,
                p_c2: e.p_failure_c2,
                p_other: 0.0,
            },
            state_count: Some(e.state_count),
            edge_count: Some(e.edge_count),
            lumping_reduction: None,
            replications: None,
            censored: None,
            zero_duration: None,
            target_met: None,
            survival: survival.map(|s| {
                spec.mission_times
                    .iter()
                    .copied()
                    .zip(s.into_iter().map(Estimate::exact))
                    .collect()
            }),
            wall_seconds,
            template_cache: None,
            transient: e.transient.as_ref().map(|s| crate::report::TransientInfo {
                matvecs: s.matvecs,
                detection_step: s.detection_step,
                early_exit: s.early_exit,
                transient_states: u64::from(s.transient_states),
                absorbing_states: u64::from(s.absorbing_states),
            }),
            detection: None,
        }
    }
}

/// `false_alarms / (detections + false_alarms)`; `NaN` ("not estimable")
/// when nothing was ever convicted.
fn fp_rate(detections: f64, false_alarms: f64) -> f64 {
    let convictions = detections + false_alarms;
    if convictions > 0.0 {
        false_alarms / convictions
    } else {
        f64::NAN
    }
}

/// `1 − detections / compromises` clamped at 0; `NaN` when nothing was
/// ever compromised.
fn fn_rate(compromises: f64, detections: f64) -> f64 {
    if compromises > 0.0 {
        (1.0 - detections / compromises).max(0.0)
    } else {
        f64::NAN
    }
}

/// Detection metrics from the exact chain's expected firing totals. Lead
/// time is undefined on the exact backend (no per-replication ordering):
/// `NaN` with zero observations.
fn exact_detection(totals: &DetectionTotals) -> DetectionInfo {
    DetectionInfo {
        compromises: Estimate::exact(totals.compromises),
        detections: Estimate::exact(totals.detections),
        false_alarms: Estimate::exact(totals.false_alarms),
        fp_rate: fp_rate(totals.detections, totals.false_alarms),
        fn_rate: fn_rate(totals.compromises, totals.detections),
        lead_time: Estimate::exact(f64::NAN),
        lead_time_observations: 0,
    }
}

impl Backend for ExactBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    fn run(&self, spec: &ScenarioSpec, budget: &RunBudget) -> Result<RunReport, EngineError> {
        spec.validate()?;
        // detlint::allow(D002): feeds the report's explicit wall_seconds timing field only
        let t0 = Instant::now();
        // A standalone run solves on the freshly explored graph directly;
        // the template/re-weight machinery only pays off across a batch.
        let opts = ExploreOptions {
            max_states: budget.max_states,
            ..Default::default()
        };
        if let Some(topo) = &spec.clustered {
            let ce =
                evaluate_clustered_with_survival(&spec.system, topo, &spec.mission_times, &opts)?;
            let mut report = Self::report_from_evaluation(
                spec,
                &ce.evaluation,
                ce.survival,
                t0.elapsed().as_secs_f64(),
            );
            report.lumping_reduction = Some(ce.stats.reduction);
            return Ok(report);
        }
        if let Some(sc) = &spec.scenario {
            let model = build_scenario_model(&spec.system, sc);
            let graph = spn::reach::explore(&model.net, &opts)?;
            let (e, survival, totals) =
                evaluate_scenario_graph(&model, &graph, &spec.mission_times)?;
            let mut report =
                Self::report_from_evaluation(spec, &e, survival, t0.elapsed().as_secs_f64());
            report.detection = Some(exact_detection(&totals));
            return Ok(report);
        }
        let model = build_model(&spec.system);
        let graph = spn::reach::explore(&model.net, &opts)?;
        // One CTMC build serves both the absorption and the survival solve.
        let (e, survival) = gcsids::metrics::evaluate_graph(&model, &graph, &spec.mission_times)?;
        Ok(Self::report_from_evaluation(
            spec,
            &e,
            survival,
            t0.elapsed().as_secs_f64(),
        ))
    }
}

/// The per-replication summary every stochastic backend reduces to before
/// aggregation. Also the unit of pairing in [`crate::paired`]: replication
/// `i` always runs under `child_seed(master_seed, i)`, so two specs
/// sharing a master seed yield common-random-number-coupled `Rep` streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rep {
    pub(crate) time: f64,
    pub(crate) cost_rate: f64,
    pub(crate) cause: FailureCause,
    /// Nodes compromised during the observation window.
    pub(crate) compromises: f64,
    /// Convictions of compromised nodes.
    pub(crate) detections: f64,
    /// Convictions of healthy nodes.
    pub(crate) false_alarms: f64,
    /// Time of the first compromise, if one happened.
    pub(crate) first_compromise: Option<f64>,
    /// Time of the first true detection, if one happened.
    pub(crate) first_detection: Option<f64>,
}

impl Rep {
    /// A summary with no detection observables (clustered composition
    /// paths, which never carry a scenario).
    fn basic(time: f64, cost_rate: f64, cause: FailureCause) -> Self {
        Self {
            time,
            cost_rate,
            cause,
            compromises: 0.0,
            detections: 0.0,
            false_alarms: 0.0,
            first_compromise: None,
            first_detection: None,
        }
    }
}

/// Streaming aggregation of stochastic replications into the common
/// report fields — one sink shared by the SPN-sim, DES, and mobility-DES
/// backends via the `numerics::replicate` engine. No outcome or event
/// `Vec` is ever materialized: Welford moments for MTTSF and cost, a
/// [`SurvivalAccumulator`] for the mission grid, and plain counters for
/// the failure split.
#[derive(Clone)]
struct StochasticSink {
    mttsf: Welford,
    cost_rate: Welford,
    c1: u64,
    c2: u64,
    other: u64,
    censored: u64,
    zero_duration: u64,
    survival: SurvivalAccumulator,
    confidence: f64,
    /// Detection observables, aggregated only into the report when the
    /// spec carries a scenario (the counters themselves are always fed —
    /// they cost nothing and keep `record` branch-free).
    compromises: Welford,
    detections: Welford,
    false_alarms: Welford,
    lead_time: Welford,
    /// First per-replication error in index order (aborts the run).
    error: Option<SpnError>,
}

impl StochasticSink {
    fn new(spec: &ScenarioSpec) -> Self {
        Self {
            mttsf: Welford::new(),
            cost_rate: Welford::new(),
            c1: 0,
            c2: 0,
            other: 0,
            censored: 0,
            zero_duration: 0,
            survival: SurvivalAccumulator::new(&spec.mission_times),
            confidence: spec.stochastic.confidence,
            compromises: Welford::new(),
            detections: Welford::new(),
            false_alarms: Welford::new(),
            lead_time: Welford::new(),
            error: None,
        }
    }

    fn into_report(
        self,
        spec: &ScenarioSpec,
        kind: BackendKind,
        replications: u64,
        target_met: Option<bool>,
        wall: f64,
    ) -> RunReport {
        let ended = (self.c1 + self.c2 + self.other) as f64;
        let failure = if ended > 0.0 {
            FailureSplit {
                p_c1: self.c1 as f64 / ended,
                p_c2: self.c2 as f64 / ended,
                p_other: self.other as f64 / ended,
            }
        } else {
            FailureSplit::default()
        };
        let survival = if spec.mission_times.is_empty() {
            None
        } else {
            Some(survival_estimates_streaming(
                &self.survival,
                self.confidence,
            ))
        };
        // Detection metrics are a scenario-mode observable: baseline specs
        // keep their pre-scenario report shape byte-for-byte.
        let detection = spec.scenario.is_some().then(|| DetectionInfo {
            compromises: Estimate::from_welford(&self.compromises, self.confidence),
            detections: Estimate::from_welford(&self.detections, self.confidence),
            false_alarms: Estimate::from_welford(&self.false_alarms, self.confidence),
            fp_rate: fp_rate(self.detections.mean(), self.false_alarms.mean()),
            fn_rate: fn_rate(self.compromises.mean(), self.detections.mean()),
            lead_time: Estimate::from_welford(&self.lead_time, self.confidence),
            lead_time_observations: self.lead_time.count(),
        });
        RunReport {
            scenario: spec.name.clone(),
            backend: kind,
            mttsf: Estimate::from_welford(&self.mttsf, self.confidence),
            c_total: Estimate::from_welford(&self.cost_rate, self.confidence),
            cost_components: None,
            failure,
            state_count: None,
            edge_count: None,
            lumping_reduction: None,
            replications: Some(replications),
            censored: Some(self.censored),
            zero_duration: Some(self.zero_duration),
            target_met,
            survival,
            wall_seconds: wall,
            template_cache: None,
            transient: None,
            detection,
        }
    }
}

impl OutcomeSink<Result<Rep, SpnError>> for StochasticSink {
    fn record(&mut self, outcome: Result<Rep, SpnError>) {
        let rep = match outcome {
            Ok(rep) => rep,
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                return;
            }
        };
        self.survival
            .push(rep.time, rep.cause == FailureCause::Censored);
        if let (Some(c), Some(d)) = (rep.first_compromise, rep.first_detection) {
            if d >= c {
                self.lead_time.push(d - c);
            }
        }
        if rep.time <= 0.0 {
            // Censored-at-zero: nothing was observed, so the outcome's 0.0
            // cost rate is a placeholder, not a measurement (see
            // `RunReport::zero_duration`).
            self.zero_duration += 1;
            self.censored += 1;
            return;
        }
        self.cost_rate.push(rep.cost_rate);
        self.compromises.push(rep.compromises);
        self.detections.push(rep.detections);
        self.false_alarms.push(rep.false_alarms);
        match rep.cause {
            FailureCause::DataLeak => {
                self.c1 += 1;
                self.mttsf.push(rep.time);
            }
            FailureCause::ByzantineCapture => {
                self.c2 += 1;
                self.mttsf.push(rep.time);
            }
            FailureCause::Attrition => {
                self.other += 1;
                self.mttsf.push(rep.time);
            }
            FailureCause::Censored => self.censored += 1,
        }
    }

    fn merge(&mut self, other: Self) {
        self.mttsf.merge(&other.mttsf);
        self.cost_rate.merge(&other.cost_rate);
        self.c1 += other.c1;
        self.c2 += other.c2;
        self.other += other.other;
        self.censored += other.censored;
        self.zero_duration += other.zero_duration;
        self.survival.merge(&other.survival);
        self.compromises.merge(&other.compromises);
        self.detections.merge(&other.detections);
        self.false_alarms.merge(&other.false_alarms);
        self.lead_time.merge(&other.lead_time);
        // self covers the earlier index range, so its error stays first
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    fn precision(&self) -> Option<f64> {
        if self.error.is_some() {
            // fatal replication error: stop spawning batches immediately
            return Some(0.0);
        }
        self.mttsf.relative_precision(self.confidence)
    }
}

/// One replication of any stochastic backend, reduced to the common
/// summary (or the replication's error).
type StochasticTask<'a> = dyn Replicate<Outcome = Result<Rep, SpnError>> + 'a;

/// Run a stochastic task under the spec's sampling plan (capped by the
/// budget) and convert the sink into the common report, surfacing the
/// first per-replication error as an engine failure.
fn run_stochastic(
    task: &StochasticTask,
    spec: &ScenarioSpec,
    budget: &RunBudget,
    kind: BackendKind,
    t0: Instant,
    progress: &mut dyn FnMut(BatchProgress),
) -> Result<RunReport, EngineError> {
    let plan = budget.plan(spec);
    // The spec's own plan already validated, but a budget cap can
    // degenerate it (max_replications = Some(0) clamps a fixed count to
    // zero) — surface that as an error instead of panicking in run_plan.
    plan.validate().map_err(EngineError::InvalidSpec)?;
    let done: Completed<StochasticSink> = run_plan_observed(
        task,
        &plan,
        spec.stochastic.master_seed,
        || StochasticSink::new(spec),
        &mut |replications, precision| {
            progress(BatchProgress {
                replications,
                precision,
            });
        },
    );
    if let Some(e) = done.sink.error {
        return Err(EngineError::Solver(e));
    }
    Ok(done.sink.into_report(
        spec,
        kind,
        done.replications,
        done.target_met,
        t0.elapsed().as_secs_f64(),
    ))
}

/// Classify how a single-system SPN replication ended from its final
/// marking.
fn spn_cause(places: &Places, o: &SimOutcome) -> FailureCause {
    if !o.absorbed {
        FailureCause::Censored
    } else if o.final_marking.tokens(places.gf) > 0 {
        FailureCause::DataLeak
    } else if o.final_marking.tokens(places.tm) + o.final_marking.tokens(places.ucm) == 0 {
        FailureCause::Attrition
    } else {
        FailureCause::ByzantineCapture
    }
}

/// One SPN-sim replication reduced to the common summary. With `detect`
/// set (scenario mode), detection observables are read off the token
/// game's firing counts and first-firing times of `[T_CP, T_IDS, T_FA]`.
struct SpnSimTask<'a> {
    sim: Simulator<'a>,
    places: Places,
    detect: Option<[TransitionId; 3]>,
}

impl Replicate for SpnSimTask<'_> {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let o = self.sim.run_one(seed)?;
        let hop_bits: f64 = o.accumulated.iter().sum();
        let cost_rate = if o.time > 0.0 { hop_bits / o.time } else { 0.0 };
        let cause = spn_cause(&self.places, &o);
        let mut rep = Rep::basic(o.time, cost_rate, cause);
        if let Some([t_cp, t_ids, t_fa]) = self.detect {
            let count = |t: TransitionId| o.firings.get(&t).map_or(0.0, |&n| n as f64);
            rep.compromises = count(t_cp);
            rep.detections = count(t_ids);
            rep.false_alarms = count(t_fa);
            rep.first_compromise = o.first_firings.get(&t_cp).copied();
            rep.first_detection = o.first_firings.get(&t_ids).copied();
        }
        Ok(rep)
    }
}

/// The net, rewards, and detection handles an SPN-sim run plays —
/// scenario-aware: a spec with a scenario plays the scenario net with the
/// response policy's action costs; one without plays the paper net
/// unchanged.
struct SpnSimSetup {
    net: Spn,
    rewards: RewardSet,
    places: Places,
    detect: Option<[TransitionId; 3]>,
}

fn spn_sim_setup(spec: &ScenarioSpec) -> Result<SpnSimSetup, EngineError> {
    if let Some(sc) = &spec.scenario {
        let model = build_scenario_model(&spec.system, sc);
        let mut rewards = RewardSet::new().with_rate(scenario_cost_reward(&model));
        for imp in scenario_impulses(&model)? {
            rewards = rewards.with_impulse(imp);
        }
        let lookup = |name: &str| {
            model.net.transition_by_name(name).ok_or_else(|| {
                EngineError::Solver(SpnError::InvalidModel(format!("missing transition {name}")))
            })
        };
        let detect = [lookup("T_CP")?, lookup("T_IDS")?, lookup("T_FA")?];
        Ok(SpnSimSetup {
            places: model.places.base,
            net: model.net,
            rewards,
            detect: Some(detect),
        })
    } else {
        let model = build_model(&spec.system);
        let mut rewards = RewardSet::new().with_rate(total_cost_reward(&spec.system, &model));
        for imp in eviction_impulses(&model)? {
            rewards = rewards.with_impulse(imp);
        }
        Ok(SpnSimSetup {
            places: model.places,
            net: model.net,
            rewards,
            detect: None,
        })
    }
}

/// One cluster's contribution to a clustered replication.
struct ClusterRep {
    time: f64,
    failed: bool,
    hop_bits: f64,
    cause: FailureCause,
}

/// Compose independent per-cluster replications into the system summary.
///
/// The flat clustered net is exactly `reps.len()` independent copies of
/// the single-cluster model — clusters share no places and each freezes
/// on its own failure — so simulating the copies separately is
/// distribution-identical to simulating the flat net, and additionally
/// yields the exact failure order. The system fails at the K-th smallest
/// cluster failure time with that cluster's cause; runs with fewer than
/// K failures by `horizon` are censored. Cost is summed exactly over the
/// observation window: clusters that outlive the system absorption time
/// are re-run via `rerun(cluster, t_sys)` with their original seed — an
/// identical trajectory, merely censored at `t_sys`.
fn compose_clusters(
    reps: &[ClusterRep],
    threshold: u32,
    horizon: f64,
    mut rerun: impl FnMut(usize, f64) -> Result<f64, SpnError>,
) -> Result<Rep, SpnError> {
    let mut failures: Vec<(f64, usize)> = reps
        .iter()
        .enumerate()
        .filter(|(_, r)| r.failed)
        .map(|(i, r)| (r.time, i))
        .collect();
    if (failures.len() as u32) < threshold {
        let hop_bits: f64 = reps.iter().map(|r| r.hop_bits).sum();
        let cost_rate = if horizon > 0.0 {
            hop_bits / horizon
        } else {
            0.0
        };
        return Ok(Rep::basic(horizon, cost_rate, FailureCause::Censored));
    }
    failures.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (t_sys, kth) = failures[threshold as usize - 1];
    let mut hop_bits = 0.0;
    for (i, r) in reps.iter().enumerate() {
        if r.failed && r.time <= t_sys {
            // Failed within the window: frozen afterwards, so its own
            // accumulated cost already covers [0, t_sys].
            hop_bits += r.hop_bits;
        } else {
            hop_bits += rerun(i, t_sys)?;
        }
    }
    let cost_rate = if t_sys > 0.0 { hop_bits / t_sys } else { 0.0 };
    Ok(Rep::basic(t_sys, cost_rate, reps[kth].cause))
}

/// One clustered SPN-sim replication: independent single-cluster
/// token-game runs composed by failure order statistics.
struct ClusteredSpnSimTask<'a> {
    net: &'a spn::model::Spn,
    rewards: &'a RewardSet,
    places: Places,
    clusters: u32,
    threshold: u32,
    max_time: f64,
}

impl ClusteredSpnSimTask<'_> {
    fn run_cluster(&self, seed: u64, horizon: f64) -> Result<SimOutcome, SpnError> {
        let opts = SimOptions {
            max_time: horizon,
            ..Default::default()
        };
        Simulator::new(self.net, self.rewards, opts).run_one(seed)
    }
}

impl Replicate for ClusteredSpnSimTask<'_> {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let mut reps = Vec::with_capacity(self.clusters as usize);
        for i in 0..u64::from(self.clusters) {
            let o = self.run_cluster(child_seed(seed, i), self.max_time)?;
            reps.push(ClusterRep {
                time: o.time,
                failed: o.absorbed,
                hop_bits: o.accumulated.iter().sum(),
                cause: spn_cause(&self.places, &o),
            });
        }
        compose_clusters(&reps, self.threshold, self.max_time, |i, t_sys| {
            let o = self.run_cluster(child_seed(seed, i as u64), t_sys)?;
            Ok(o.accumulated.iter().sum())
        })
    }
}

/// One protocol-DES replication reduced to the common summary.
struct DesTask(DesConfig);

impl Replicate for DesTask {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let o = run_des(&self.0, seed);
        Ok(Rep {
            time: o.time,
            cost_rate: o.mean_cost_rate,
            cause: o.cause,
            compromises: o.compromises as f64,
            detections: o.true_evictions as f64,
            false_alarms: o.false_evictions as f64,
            first_compromise: o.first_compromise,
            first_detection: o.first_true_detection,
        })
    }
}

/// Protocol-DES configuration for a spec (scenario-aware).
fn des_config(spec: &ScenarioSpec) -> DesConfig {
    let mut cfg = DesConfig::new(spec.system.clone());
    cfg.max_time = spec.stochastic.max_time;
    cfg.scenario = spec.scenario_or_baseline();
    cfg
}

/// One clustered DES replication: independent single-cluster protocol
/// simulations composed by failure order statistics.
struct ClusteredDesTask {
    cfg: DesConfig,
    clusters: u32,
    threshold: u32,
}

impl Replicate for ClusteredDesTask {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let reps: Vec<ClusterRep> = (0..u64::from(self.clusters))
            .map(|i| {
                let o = run_des(&self.cfg, child_seed(seed, i));
                ClusterRep {
                    time: o.time,
                    failed: o.cause != FailureCause::Censored,
                    hop_bits: o.hop_bits,
                    cause: o.cause,
                }
            })
            .collect();
        compose_clusters(&reps, self.threshold, self.cfg.max_time, |i, t_sys| {
            let mut censored = self.cfg.clone();
            censored.max_time = t_sys;
            Ok(run_des(&censored, child_seed(seed, i as u64)).hop_bits)
        })
    }
}

/// One mobility-DES replication reduced to the common summary.
struct MobilityTask(MobilityDesConfig);

impl Replicate for MobilityTask {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let o = run_mobility_des(&self.0, seed);
        let cost_rate = if o.time > 0.0 {
            o.hop_bits / o.time
        } else {
            0.0
        };
        Ok(Rep {
            time: o.time,
            cost_rate,
            cause: o.cause,
            compromises: o.compromises as f64,
            detections: o.true_evictions as f64,
            false_alarms: o.false_evictions as f64,
            first_compromise: o.first_compromise,
            first_detection: o.first_true_detection,
        })
    }
}

/// Mobility-DES configuration for a spec (attacker axis only; validate()
/// rejects non-evict response policies on this backend).
fn mobility_config(spec: &ScenarioSpec) -> MobilityDesConfig {
    let mut cfg = MobilityDesConfig::new(spec.system.clone());
    cfg.radio_range = spec.mobility.radio_range;
    cfg.dt = spec.mobility.dt;
    cfg.max_time = spec.stochastic.max_time;
    cfg.scenario = spec.scenario_or_baseline();
    cfg
}

/// Build the replication task of `kind` for `spec` — the one place the
/// SPN-sim, DES, mobility-DES and clustered constructions live — and run
/// `f` on it. Everything downstream of the task (sampling, aggregation,
/// pairing) is shared by all three stochastic backends.
///
/// # Errors
/// [`EngineError::InvalidSpec`] for the exact backend (which has no
/// replications), setup failures of the SPN-sim net, and whatever `f`
/// returns.
fn with_stochastic_task<T>(
    spec: &ScenarioSpec,
    kind: BackendKind,
    f: impl FnOnce(&StochasticTask) -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    match kind {
        BackendKind::Exact => Err(EngineError::InvalidSpec(
            "per-replication outcomes require a stochastic backend".into(),
        )),
        BackendKind::SpnSim => {
            let setup = spn_sim_setup(spec)?;
            if let Some(topo) = &spec.clustered {
                // validate() rejects scenario + clustered, so this is always
                // the paper net.
                return f(&ClusteredSpnSimTask {
                    net: &setup.net,
                    rewards: &setup.rewards,
                    places: setup.places,
                    clusters: topo.clusters,
                    threshold: topo.failure_threshold,
                    max_time: spec.stochastic.max_time,
                });
            }
            let opts = SimOptions {
                max_time: spec.stochastic.max_time,
                ..Default::default()
            };
            f(&SpnSimTask {
                sim: Simulator::new(&setup.net, &setup.rewards, opts),
                places: setup.places,
                detect: setup.detect,
            })
        }
        BackendKind::Des => {
            let cfg = des_config(spec);
            if let Some(topo) = &spec.clustered {
                return f(&ClusteredDesTask {
                    cfg,
                    clusters: topo.clusters,
                    threshold: topo.failure_threshold,
                });
            }
            f(&DesTask(cfg))
        }
        BackendKind::MobilityDes => f(&MobilityTask(mobility_config(spec))),
    }
}

/// The three Monte-Carlo evaluators behind one [`Backend`]: the SPN
/// token game of the Figure-1 net (same cost rewards as the exact
/// evaluator), the protocol-level DES (actual votes and rekeys, calibrated
/// birth–death group dynamics), and the mobility-integrated DES (groups
/// are live connected components of a random-waypoint network).
struct StochasticBackend(BackendKind);

impl Backend for StochasticBackend {
    fn kind(&self) -> BackendKind {
        self.0
    }

    fn run(&self, spec: &ScenarioSpec, budget: &RunBudget) -> Result<RunReport, EngineError> {
        self.run_observed(spec, budget, &mut |_| {})
    }

    fn run_observed(
        &self,
        spec: &ScenarioSpec,
        budget: &RunBudget,
        progress: &mut dyn FnMut(BatchProgress),
    ) -> Result<RunReport, EngineError> {
        spec.validate()?;
        // detlint::allow(D002): feeds the report's explicit wall_seconds timing field only
        let t0 = Instant::now();
        with_stochastic_task(spec, self.0, |task| {
            run_stochastic(task, spec, budget, self.0, t0, progress)
        })
    }
}

/// Run replications `0..n` of a stochastic spec and return each one's
/// summary in index order — the paired engine's inner loop. It runs on the
/// plan executor itself ([`run_indexed`]), so replication `i` runs under
/// `child_seed(master_seed, i)` and these outcomes are bit-identical to
/// the ones a [`Backend::run`] of the same spec aggregates.
///
/// # Errors
/// [`EngineError::InvalidSpec`] for invalid specs and for the exact
/// backend (which has no replications), [`EngineError::Solver`] when a
/// replication fails.
pub(crate) fn per_replication_outcomes(
    spec: &ScenarioSpec,
    n: u64,
) -> Result<Vec<Rep>, EngineError> {
    spec.validate()?;
    with_stochastic_task(spec, spec.backend, |task| {
        run_indexed(task, spec.stochastic.master_seed, n)
            .into_iter()
            .map(|o| o.map_err(EngineError::from))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
    use gcsids::config::SystemConfig;

    /// Small, fast-failing system so the stochastic backends finish quickly.
    fn hot_spec(backend: BackendKind) -> ScenarioSpec {
        let mut sys = SystemConfig::paper_default();
        sys.node_count = 12;
        sys.vote_participants = 3;
        sys.attacker.base_rate = 1.0 / 600.0;
        sys.detection = sys.detection.with_interval(120.0);
        let mut spec = ScenarioSpec::paper_default(backend);
        spec.name = format!("hot/{}", backend.name());
        spec.system = sys;
        spec.stochastic.sampling = SamplingPlan::Fixed(40);
        spec.stochastic.max_time = 200_000.0;
        spec.mobility.dt = 2.0;
        spec
    }

    /// The accelerated protocol-DES system: `nodes` nodes, a compromise
    /// every 10 min, 120 s detection, the default one-year horizon.
    fn des_spec(nodes: u32, replications: u64, master_seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
        spec.system.node_count = nodes;
        spec.system.vote_participants = 3;
        spec.system.attacker.base_rate = 1.0 / 600.0;
        spec.system.detection = spec.system.detection.with_interval(120.0);
        spec.stochastic.sampling = SamplingPlan::Fixed(replications);
        spec.stochastic.master_seed = master_seed;
        spec
    }

    /// The accelerated 16-node mobility-DES system (2 s steps, 50 000 s
    /// horizon).
    fn mobility_spec(replications: u64, master_seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper_default(BackendKind::MobilityDes);
        spec.system.node_count = 16;
        spec.system.vote_participants = 3;
        spec.system.attacker.base_rate = 1.0 / 300.0;
        spec.system.detection = spec.system.detection.with_interval(60.0);
        spec.mobility.dt = 2.0;
        spec.stochastic.max_time = 50_000.0;
        spec.stochastic.sampling = SamplingPlan::Fixed(replications);
        spec.stochastic.master_seed = master_seed;
        spec
    }

    fn run(spec: &ScenarioSpec) -> RunReport {
        backend_for(spec.backend)
            .run(spec, &RunBudget::default())
            .unwrap()
    }

    fn with_attacker(spec: ScenarioSpec, attacker: AttackerStrategy) -> ScenarioSpec {
        spec.with_scenario(ScenarioConfig {
            attacker,
            ..ScenarioConfig::baseline()
        })
    }

    #[test]
    fn zero_duration_replications_are_censored_at_zero_not_averaged() {
        // A replication that ends at t = 0 observed nothing: its 0.0 cost
        // rate is a placeholder. It counts as censored-at-zero and feeds
        // neither the cost nor the MTTSF estimate, whatever its cause.
        let mut sink = StochasticSink::new(&hot_spec(BackendKind::Des));
        sink.record(Ok(Rep::basic(0.0, 0.0, FailureCause::Censored)));
        sink.record(Ok(Rep::basic(0.0, 0.0, FailureCause::DataLeak)));
        assert_eq!(sink.zero_duration, 2);
        assert_eq!(sink.censored, 2);
        assert_eq!(sink.cost_rate.count(), 0, "no cost observation exists");
        assert_eq!(sink.mttsf.count(), 0);
        // a replication of positive duration feeds both
        sink.record(Ok(Rep::basic(10.0, 3.0, FailureCause::DataLeak)));
        assert_eq!(sink.zero_duration, 2);
        assert_eq!(sink.cost_rate.count(), 1);
        assert_eq!(sink.mttsf.count(), 1);
    }

    #[test]
    fn first_replication_error_in_index_order_wins() {
        let spec = hot_spec(BackendKind::SpnSim);
        let ok = || Ok(Rep::basic(10.0, 1.0, FailureCause::DataLeak));
        let err = |m: &str| Err(SpnError::InvalidModel(m.into()));
        let is_a =
            |s: &StochasticSink| matches!(&s.error, Some(SpnError::InvalidModel(m)) if m == "a");
        // recorded in index order into one sink
        let mut one = StochasticSink::new(&spec);
        for o in [ok(), err("a"), err("b")] {
            one.record(o);
        }
        assert!(is_a(&one));
        assert_eq!(one.precision(), Some(0.0));
        // and merged in index order from one sink per replication
        let mut merged = StochasticSink::new(&spec);
        for o in [ok(), err("a"), err("b")] {
            let mut next = StochasticSink::new(&spec);
            next.record(o);
            merged.merge(next);
        }
        assert!(is_a(&merged));
        assert_eq!(merged.precision(), Some(0.0));
    }

    #[test]
    fn aggressive_detection_catches_more() {
        let mut slow = des_spec(20, 40, 1);
        slow.system.detection = slow.system.detection.with_interval(100_000.0);
        let mut fast = des_spec(20, 40, 1);
        fast.system.detection = fast.system.detection.with_interval(30.0);
        let (s, f) = (run(&slow), run(&fast));
        // nearly no detections without IDS → C1 dominates
        assert!(s.failure.p_c1 > s.failure.p_c2, "slow: {s:?}");
        // aggressive IDS survives longer on average
        assert!(
            f.mttsf.value > s.mttsf.value,
            "fast {} vs slow {}",
            f.mttsf.value,
            s.mttsf.value
        );
    }

    #[test]
    fn replication_stats_aggregate() {
        let r = run(&des_spec(14, 30, 5));
        assert_eq!(r.replications, Some(30));
        assert!(r.censored.unwrap() < 30, "some replication must fail");
        let f = r.failure;
        assert!((f.p_c1 + f.p_c2 + f.p_other - 1.0).abs() < 1e-12, "{f:?}");
        assert!(r.mttsf.value > 0.0);
        assert!(r.c_total.value > 0.0);
    }

    #[test]
    fn throttle_starves_rekeys_and_can_leak_via_stale_keys() {
        // An almost-stalled rekey service leaves convicted attackers holding
        // live keys; some replications must end in C1 via the stale-key path,
        // and survival must be no better than prompt eviction.
        let slow = des_spec(16, 60, 2).with_scenario(ScenarioConfig {
            response: ResponsePolicy::RekeyThrottle {
                max_rate: 1.0 / 1.0e7,
            },
            ..ScenarioConfig::baseline()
        });
        let (s, p) = (run(&slow), run(&des_spec(16, 60, 2)));
        assert!(
            s.mttsf.value < p.mttsf.value,
            "stale keys should hurt: throttled {} vs evict {}",
            s.mttsf.value,
            p.mttsf.value
        );
    }

    #[test]
    fn burst_and_targeted_attackers_shorten_survival() {
        let burst = with_attacker(
            des_spec(16, 60, 4),
            AttackerStrategy::Burst {
                on_rate: 1.0 / 1_000.0,
                off_rate: 1.0 / 2_000.0,
                multiplier: 8.0,
            },
        );
        let (b0, bb) = (run(&des_spec(16, 60, 4)), run(&burst));
        assert!(
            bb.mttsf.value < b0.mttsf.value,
            "burst {} vs base {}",
            bb.mttsf.value,
            b0.mttsf.value
        );
        // Targeted focus multiplies capture by 1 + focus·U/live, so it only
        // bites once undetected nodes accumulate — use a C2-dominated system
        // (rare leaks, slow detection) where that accumulation is the game.
        let mut c2base = des_spec(16, 60, 4);
        c2base.system.group_comm_rate = 1e-6;
        c2base.system.detection = c2base.system.detection.with_interval(2_000.0);
        let c2targeted = with_attacker(c2base.clone(), AttackerStrategy::Targeted { focus: 1.0 });
        let (t0, tt) = (run(&c2base), run(&c2targeted));
        assert!(
            tt.mttsf.value < t0.mttsf.value,
            "targeted {} vs base {}",
            tt.mttsf.value,
            t0.mttsf.value
        );
    }

    #[test]
    fn mobility_replications_aggregate() {
        let r = run(&mobility_spec(8, 11));
        assert_eq!(r.replications, Some(8));
        assert!(r.censored.unwrap() < 8, "some replication must fail");
        assert!(r.mttsf.value > 0.0);
    }

    #[test]
    fn targeted_attacker_does_not_outlive_baseline() {
        let targeted = with_attacker(
            mobility_spec(6, 3),
            AttackerStrategy::Targeted { focus: 1.0 },
        );
        let (t, b) = (run(&targeted), run(&mobility_spec(6, 3)));
        // with full-collusion defaults the capture multiplier is the lever;
        // a small sample still should not show the targeted attacker losing
        assert!(t.mttsf.value <= b.mttsf.value * 1.5);
        assert_eq!(t.replications, Some(6));
    }

    #[test]
    fn every_backend_produces_a_report() {
        for kind in BackendKind::all() {
            let spec = hot_spec(kind);
            let report = backend_for(kind).run(&spec, &RunBudget::default()).unwrap();
            assert_eq!(report.backend, kind);
            assert_eq!(report.scenario, spec.name);
            assert!(report.mttsf.value > 0.0, "{kind:?}: {report:?}");
            assert!(report.c_total.value > 0.0, "{kind:?}");
            let f = report.failure;
            assert!(
                (f.p_c1 + f.p_c2 + f.p_other - 1.0).abs() < 1e-9,
                "{kind:?}: split {f:?}"
            );
            if kind == BackendKind::Exact {
                assert!(report.state_count.unwrap() > 10);
                assert!(report.mttsf.ci.is_none());
            } else {
                assert_eq!(report.replications, Some(40));
                assert!(report.mttsf.ci.is_some(), "{kind:?} should carry a CI");
            }
        }
    }

    #[test]
    fn mission_survival_reported_by_every_backend() {
        for kind in BackendKind::all() {
            let mut spec = hot_spec(kind);
            spec.mission_times = vec![0.0, 20_000.0, 80_000.0];
            let report = backend_for(kind).run(&spec, &RunBudget::default()).unwrap();
            let surv = report.survival.expect("mission grid requested");
            assert_eq!(surv.len(), 3);
            assert_eq!(surv[0].0, 0.0);
            assert!(
                (surv[0].1.value - 1.0).abs() < 1e-9,
                "{kind:?}: S(0) = {}",
                surv[0].1.value
            );
            for w in surv.windows(2) {
                assert!(
                    w[1].1.value <= w[0].1.value + 1e-9,
                    "{kind:?}: survival not monotone: {surv:?}"
                );
            }
            for (t, e) in &surv {
                assert!(
                    (0.0..=1.0).contains(&e.value),
                    "{kind:?} t={t}: {}",
                    e.value
                );
                if kind == BackendKind::Exact {
                    assert!(e.ci.is_none());
                } else {
                    let (lo, hi) = e.ci.expect("stochastic survival carries a CI");
                    assert!(lo <= e.value && e.value <= hi);
                }
            }
        }
    }

    #[test]
    fn no_mission_grid_means_no_survival_field() {
        let spec = hot_spec(BackendKind::Des);
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert!(report.survival.is_none());
    }

    #[test]
    fn survival_beyond_horizon_is_rejected_up_front() {
        // a grid point past the censoring horizon can only yield a
        // failure-biased or empty estimate — the spec must not validate
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.max_time = 1.0;
        spec.stochastic.sampling = SamplingPlan::Fixed(5);
        spec.mission_times = vec![0.5, 10.0];
        let out = backend_for(BackendKind::Des).run(&spec, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(_))));
        // at the horizon itself the estimate is fine (censored runs are
        // still at risk there), including the all-censored zero-variance
        // case — finite bounds, no NaN
        spec.mission_times = vec![0.5, 1.0];
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        let surv = report.survival.unwrap();
        assert_eq!(surv[0].1.value, 1.0);
        assert_eq!(surv[1].1.value, 1.0);
        let (lo, hi) = surv[1].1.ci.unwrap();
        assert!(!lo.is_nan() && (hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_censored_run_is_not_estimable() {
        // A horizon far below any failure time censors every replication:
        // MTTSF must be NaN ("not estimable"), never 0.0.
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.max_time = 1.0;
        spec.stochastic.sampling = SamplingPlan::Fixed(5);
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.censored, Some(5));
        assert!(report.mttsf.value.is_nan());
        assert_eq!(
            report.failure.p_c1 + report.failure.p_c2 + report.failure.p_other,
            0.0
        );
        // and the JSON encoding stays parseable (NaN → null)
        assert!(crate::json::Value::parse(&report.to_json()).is_ok());
    }

    #[test]
    fn adaptive_spec_reports_replications_used_and_verdict() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.5, // loose: met quickly on the hot system
            min: 20,
            max: 200,
            batch: 20,
        };
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        let n = report.replications.expect("stochastic run");
        assert!((20..=200).contains(&n), "used {n}");
        let met = report.target_met.expect("adaptive run carries a verdict");
        if met {
            let (lo, hi) = report.mttsf.ci.unwrap();
            let half = (hi - lo) / 2.0;
            assert!(
                half / report.mttsf.value.abs() <= 0.5,
                "claimed target met: half {half} vs mean {}",
                report.mttsf.value
            );
        } else {
            assert_eq!(n, 200, "unmet target must exhaust the budget");
        }
        // bit-identical to the fixed plan of the same size (the adaptive
        // executor is a pure prefix of the fixed one)
        let mut fixed = spec.clone();
        fixed.stochastic.sampling = SamplingPlan::Fixed(n);
        let fixed_report = backend_for(BackendKind::Des)
            .run(&fixed, &RunBudget::default())
            .unwrap();
        assert_eq!(fixed_report.mttsf, report.mttsf);
        assert_eq!(fixed_report.c_total, report.c_total);
        assert_eq!(fixed_report.target_met, None);
    }

    #[test]
    fn adaptive_budget_exhaustion_is_reported() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6, // unreachable at this budget
            min: 10,
            max: 30,
            batch: 10,
        };
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.replications, Some(30));
        assert_eq!(report.target_met, Some(false));
        // the verdict travels through the JSON round-trip
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.target_met, Some(false));
        assert_eq!(back.replications, Some(30));
    }

    #[test]
    fn replication_budget_caps_adaptive_plans_too() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6,
            min: 10,
            max: 500,
            batch: 50,
        };
        let budget = RunBudget {
            max_replications: Some(25),
            ..Default::default()
        };
        let report = backend_for(BackendKind::Des).run(&spec, &budget).unwrap();
        assert_eq!(report.replications, Some(25));
    }

    #[test]
    fn replication_budget_below_first_batch_clamps_it() {
        // Regression (satellite 3): a max_replications cap smaller than
        // the adaptive plan's first batch must clamp that batch — running
        // the full `min` would silently overshoot the budget — and report
        // target_met = false with the actual count.
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6, // unreachable at 7 replications
            min: 100,
            max: 400,
            batch: 100,
        };
        let budget = RunBudget {
            max_replications: Some(7),
            ..Default::default()
        };
        let mut rounds = Vec::new();
        let report = backend_for(BackendKind::Des)
            .run_observed(&spec, &budget, &mut |p| rounds.push(p))
            .unwrap();
        assert_eq!(report.replications, Some(7));
        assert_eq!(report.target_met, Some(false));
        // exactly one sampling round ran, at the capped size
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].replications, 7);
    }

    #[test]
    fn observed_run_is_bit_identical_and_streams_rounds() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6, // unreachable: every round fires
            min: 10,
            max: 30,
            batch: 10,
        };
        let mut rounds = Vec::new();
        let observed = backend_for(BackendKind::Des)
            .run_observed(&spec, &RunBudget::default(), &mut |p| rounds.push(p))
            .unwrap();
        let plain = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(observed.mttsf, plain.mttsf);
        assert_eq!(observed.c_total, plain.c_total);
        assert_eq!(observed.replications, plain.replications);
        assert_eq!(
            rounds.iter().map(|p| p.replications).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        // the exact backend has no replication loop: observer never fires
        let mut none = Vec::new();
        backend_for(BackendKind::Exact)
            .run_observed(
                &hot_spec(BackendKind::Exact),
                &RunBudget::default(),
                &mut |p| none.push(p),
            )
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn zero_replication_budget_is_an_error_not_a_panic() {
        // max_replications is a public field: a zero cap degenerates the
        // sampling plan and must surface as InvalidSpec, not a panic.
        let spec = hot_spec(BackendKind::Des);
        let budget = RunBudget {
            max_replications: Some(0),
            ..Default::default()
        };
        let out = backend_for(BackendKind::Des).run(&spec, &budget);
        assert!(matches!(out, Err(EngineError::InvalidSpec(_))), "{out:?}");
    }

    #[test]
    fn replication_budget_caps_work() {
        let spec = hot_spec(BackendKind::Des);
        let budget = RunBudget {
            max_replications: Some(5),
            ..Default::default()
        };
        let report = backend_for(BackendKind::Des).run(&spec, &budget).unwrap();
        assert_eq!(report.replications, Some(5));
    }

    #[test]
    fn state_budget_caps_exact_exploration() {
        let spec = hot_spec(BackendKind::Exact);
        let budget = RunBudget {
            max_states: 3,
            ..Default::default()
        };
        let out = backend_for(BackendKind::Exact).run(&spec, &budget);
        assert!(matches!(
            out,
            Err(EngineError::Solver(
                spn::error::SpnError::StateSpaceExceeded { cap: 3 }
            ))
        ));
    }

    #[test]
    fn clustered_exact_reports_lumping_stats() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let mut spec = hot_spec(BackendKind::Exact).with_clusters(topo);
        spec.mission_times = vec![0.0, 2.0e4, 8.0e4];
        let report = backend_for(BackendKind::Exact)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert!(report.mttsf.value > 0.0);
        assert!(
            report.lumping_reduction.unwrap() > 1.0,
            "{:?}",
            report.lumping_reduction
        );
        let surv = report.survival.as_ref().unwrap();
        assert_eq!(surv.len(), 3);
        assert!((surv[0].1.value - 1.0).abs() < 1e-9);
        assert!(surv[2].1.value < surv[0].1.value);
        // and the new field round-trips through JSON
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.lumping_reduction, report.lumping_reduction);
    }

    #[test]
    fn clustered_stochastic_backends_agree_with_exact() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let exact_spec = hot_spec(BackendKind::Exact).with_clusters(topo);
        let exact = backend_for(BackendKind::Exact)
            .run(&exact_spec, &RunBudget::default())
            .unwrap();
        // The clustered SPN-sim runs the very net the exact path lumps, so
        // the exact MTTSF must sit inside its confidence interval.
        let mut sim_spec = hot_spec(BackendKind::SpnSim).with_clusters(topo);
        sim_spec.stochastic.sampling = SamplingPlan::Fixed(600);
        sim_spec.stochastic.confidence = 0.99;
        let sim = backend_for(BackendKind::SpnSim)
            .run(&sim_spec, &RunBudget::default())
            .unwrap();
        let (lo, hi) = sim.mttsf.ci.unwrap();
        assert!(
            lo <= exact.mttsf.value && exact.mttsf.value <= hi,
            "exact {} outside clustered sim CI [{lo}, {hi}]",
            exact.mttsf.value
        );
        let f = sim.failure;
        assert!((f.p_c1 + f.p_c2 + f.p_other - 1.0).abs() < 1e-9, "{f:?}");
        // The protocol DES is a different model of the same system: allow
        // the documented modeling tolerance on top of the interval.
        let mut des_spec = hot_spec(BackendKind::Des).with_clusters(topo);
        des_spec.stochastic.sampling = SamplingPlan::Fixed(400);
        let des = backend_for(BackendKind::Des)
            .run(&des_spec, &RunBudget::default())
            .unwrap();
        let rel = (des.mttsf.value - exact.mttsf.value).abs() / exact.mttsf.value;
        let inside = des
            .mttsf
            .ci
            .is_some_and(|(lo, hi)| lo <= exact.mttsf.value && exact.mttsf.value <= hi);
        assert!(inside || rel < 0.25, "clustered DES off by {rel}");
    }

    #[test]
    fn clustered_spec_rejected_by_template_path() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 2,
            failure_threshold: 1,
        };
        let plain = hot_spec(BackendKind::Exact);
        let opts = ExploreOptions::default();
        let template = ExactTemplate::with_options(&plain.system, &opts).unwrap();
        let clustered = plain.with_clusters(topo);
        let out = ExactBackend::run_with_template(&template, &clustered);
        assert!(matches!(out, Err(EngineError::InvalidSpec(_))), "{out:?}");
    }

    #[test]
    fn spn_sim_agrees_with_exact_within_ci() {
        let exact_spec = hot_spec(BackendKind::Exact);
        let exact = backend_for(BackendKind::Exact)
            .run(&exact_spec, &RunBudget::default())
            .unwrap();
        let mut sim_spec = hot_spec(BackendKind::SpnSim);
        sim_spec.stochastic.sampling = SamplingPlan::Fixed(3000);
        sim_spec.stochastic.confidence = 0.99;
        let sim = backend_for(BackendKind::SpnSim)
            .run(&sim_spec, &RunBudget::default())
            .unwrap();
        let (lo, hi) = sim.mttsf.ci.unwrap();
        assert!(
            lo <= exact.mttsf.value && exact.mttsf.value <= hi,
            "exact {} outside sim CI [{lo}, {hi}]",
            exact.mttsf.value
        );
    }
}
