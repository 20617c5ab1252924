//! The shared replication engine behind every Monte-Carlo backend.
//!
//! Three simulators in this repository (SPN token game, protocol DES,
//! mobility-coupled DES) answer the same shape of question: run many
//! independent replications of a stochastic experiment and reduce them to
//! summary statistics. This module owns that loop once:
//!
//! * [`Replicate`] — the experiment: `run_one(seed) -> Outcome`, where the
//!   seed of replication `i` is always [`child_seed`]`(master, i)`.
//! * [`OutcomeSink`] — streaming, mergeable aggregation. Outcomes are
//!   folded window by window; at most one window of outcomes (a fixed
//!   whole number of chunks) is ever held, so memory stays O(sink + one
//!   window), independent of the replication count.
//! * [`SamplingPlan`] — how many replications: a fixed count, or
//!   sequential (adaptive) sampling that keeps spawning batches until the
//!   sink's primary confidence interval meets a relative-half-width
//!   target or a budget cap is reached.
//! * [`run_plan`] — the parallel executor. Single replications are the
//!   unit of parallel work: each window's indices are spread over the
//!   rayon pool, so even a 16-replication plan uses every core.
//!   [`run_indexed`] runs the same executor but returns the outcomes in
//!   index order, for callers that pair replications before aggregating.
//!
//! # Determinism
//!
//! Results are **bit-identical** regardless of batch size or thread
//! partitioning. Two mechanisms guarantee it:
//!
//! 1. Replication `i` derives its RNG stream from the global index
//!    (`child_seed(master, i)`), so each outcome is a pure function of
//!    `(task, master_seed, i)` — never of scheduling.
//! 2. Aggregation follows a fixed chunk grid over the index space:
//!    indices `[64k, 64(k+1))` fold in order into a fresh per-chunk sink,
//!    and completed chunk sinks merge into the master **in chunk order**.
//!    Folding happens on the driving thread after each window's outcomes
//!    are back, so the sequence of `record`/`merge` operations depends
//!    only on the total replication count — not on how adaptive rounds
//!    partition the index space, and not on which worker ran which
//!    replication. An in-progress chunk is carried across rounds so a
//!    round boundary in the middle of a chunk does not change the
//!    operation sequence.
//!
//! Consequently `Adaptive` sampling that stops after `n` replications
//! produces exactly the state `Fixed(n)` would, and the proptests in
//! `tests/replicate_props.rs` pin this bit-for-bit.

use crate::rng::child_seed;
use rayon::prelude::*;

/// Aggregation chunk size of the fixed index grid (see module docs). A
/// constant — never a tuning knob — because changing it changes the
/// floating-point merge association and therefore the low-order bits.
const CHUNK: u64 = 64;

/// A replicable stochastic experiment.
///
/// Implementations must be pure per seed: `run_one(s)` called twice with
/// the same seed returns the same outcome.
pub trait Replicate: Sync {
    /// Result of a single replication.
    type Outcome: Send;

    /// Run one replication from the given RNG seed.
    fn run_one(&self, seed: u64) -> Self::Outcome;
}

/// Streaming, mergeable aggregation of replication outcomes.
///
/// `record` folds one outcome; `merge` combines two sinks built over
/// disjoint index ranges (self covering the earlier range). The executor
/// only merges complete, in-order chunks, so implementations may assume
/// `other` aggregates outcomes with strictly larger indices.
pub trait OutcomeSink<O>: Clone + Send {
    /// Fold one outcome into the aggregate.
    fn record(&mut self, outcome: O);

    /// Absorb a sink covering the immediately following index range.
    fn merge(&mut self, other: Self);

    /// Relative confidence-interval half-width of the sink's primary
    /// stopping metric, once estimable (`None` before that — e.g. fewer
    /// than two observations). Adaptive sampling stops when this reaches
    /// its target; a sink may return `Some(0.0)` to request an immediate
    /// stop (e.g. after a fatal per-replication error).
    fn precision(&self) -> Option<f64>;
}

/// How many replications to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingPlan {
    /// Exactly this many replications.
    Fixed(u64),
    /// Sequential sampling: run `min` replications, then batches of
    /// `batch` until the sink's [`OutcomeSink::precision`] is at or below
    /// `target_rel_halfwidth`, stopping at `max` regardless.
    Adaptive {
        /// Stop once the primary CI half-width divided by the point
        /// estimate reaches this.
        target_rel_halfwidth: f64,
        /// Replications before the first precision check.
        min: u64,
        /// Hard replication budget.
        max: u64,
        /// Replications added per round after `min`.
        batch: u64,
    },
}

impl SamplingPlan {
    /// Largest replication count the plan may spend.
    pub fn max_replications(&self) -> u64 {
        match *self {
            SamplingPlan::Fixed(n) => n,
            SamplingPlan::Adaptive { max, .. } => max,
        }
    }

    /// The plan with its replication budget capped at `cap` (adaptive
    /// plans keep their target and batch; `min` is clamped too).
    #[must_use]
    pub fn capped(&self, cap: u64) -> SamplingPlan {
        match *self {
            SamplingPlan::Fixed(n) => SamplingPlan::Fixed(n.min(cap)),
            SamplingPlan::Adaptive {
                target_rel_halfwidth,
                min,
                max,
                batch,
            } => SamplingPlan::Adaptive {
                target_rel_halfwidth,
                min: min.min(cap),
                max: max.min(cap),
                batch,
            },
        }
    }

    /// Check the plan for internal consistency.
    ///
    /// # Errors
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SamplingPlan::Fixed(0) => Err("replications must be positive".into()),
            SamplingPlan::Fixed(_) => Ok(()),
            SamplingPlan::Adaptive {
                target_rel_halfwidth,
                min,
                max,
                batch,
            } => {
                if !target_rel_halfwidth.is_finite() || target_rel_halfwidth <= 0.0 {
                    return Err(format!(
                        "adaptive target_rel_halfwidth must be a positive finite number, \
                         got {target_rel_halfwidth}"
                    ));
                }
                if min == 0 {
                    return Err("adaptive min must be positive".into());
                }
                if min > max {
                    return Err(format!("adaptive min {min} exceeds max {max}"));
                }
                if batch == 0 {
                    return Err("adaptive batch must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// Result of driving a [`SamplingPlan`] to completion.
#[derive(Debug, Clone)]
pub struct Completed<S> {
    /// The final aggregate.
    pub sink: S,
    /// Replications actually run.
    pub replications: u64,
    /// For adaptive plans: whether the precision target was met (`false`
    /// means the budget was exhausted first). `None` for fixed plans.
    pub target_met: Option<bool>,
}

/// Aggregation state across adaptive rounds: merged complete chunks plus
/// the in-progress chunk (see the module docs on determinism).
struct Stream<S> {
    master: Option<S>,
    partial: Option<S>,
    next: u64,
}

impl<S> Stream<S> {
    fn new() -> Self {
        Self {
            master: None,
            partial: None,
            next: 0,
        }
    }

    fn absorb_chunk<O>(&mut self, chunk: S)
    where
        S: OutcomeSink<O>,
    {
        match &mut self.master {
            Some(m) => m.merge(chunk),
            None => self.master = Some(chunk),
        }
    }

    /// The aggregate over everything recorded so far (clones; used for
    /// mid-run precision checks).
    fn snapshot<O>(&self) -> Option<S>
    where
        S: OutcomeSink<O>,
    {
        match (&self.master, &self.partial) {
            (Some(m), Some(p)) => {
                let mut out = m.clone();
                out.merge(p.clone());
                Some(out)
            }
            (Some(m), None) => Some(m.clone()),
            (None, Some(p)) => Some(p.clone()),
            (None, None) => None,
        }
    }

    /// Consume the state into the final aggregate.
    fn finish<O>(self) -> Option<S>
    where
        S: OutcomeSink<O>,
    {
        match (self.master, self.partial) {
            (Some(mut m), Some(p)) => {
                m.merge(p);
                Some(m)
            }
            (Some(m), None) => Some(m),
            (None, p) => p,
        }
    }
}

/// Replications per parallel window: a fixed whole number of chunks, so
/// the windows tile the chunk grid and peak memory is one window of
/// outcomes. A constant like [`CHUNK`]; unlike it, changing the value
/// moves no bits, only the memory/idle-time trade-off.
const WINDOW: u64 = 4 * CHUNK;

/// Run replications `[from, to)` of `task` over the thread pool, one
/// window at a time, handing each window's outcomes to `fold` in index
/// order.
fn run_windows<R, F>(task: &R, master_seed: u64, from: u64, to: u64, mut fold: F)
where
    R: Replicate + ?Sized,
    F: FnMut(Vec<R::Outcome>),
{
    let mut a = from;
    while a < to {
        let b = to.min((a / WINDOW + 1) * WINDOW);
        let outcomes: Vec<R::Outcome> = (a..b)
            .into_par_iter()
            .map(|i| task.run_one(child_seed(master_seed, i)))
            .collect();
        fold(outcomes);
        a = b;
    }
}

/// Extend the stream with replications `[state.next, to)` of `task`.
///
/// Outcomes are produced in parallel but folded on this thread in index
/// order: each chunk's records go into its own sink (carried across calls
/// while the chunk is incomplete), and every completed chunk merges into
/// the master in chunk order — exactly the operation sequence of one
/// uninterrupted sequential run.
fn extend<R, S, F>(task: &R, master_seed: u64, state: &mut Stream<S>, to: u64, new_sink: &F)
where
    R: Replicate + ?Sized,
    S: OutcomeSink<R::Outcome>,
    F: Fn() -> S,
{
    run_windows(task, master_seed, state.next, to, |outcomes| {
        for o in outcomes {
            state.partial.get_or_insert_with(new_sink).record(o);
            state.next += 1;
            if state.next.is_multiple_of(CHUNK) {
                let full = state.partial.take().expect("just recorded into it");
                state.absorb_chunk(full);
            }
        }
    });
}

/// Outcomes of replications `0..n` of `task`, in index order, computed on
/// the same executor as [`run_plan`] (replication `i` runs under
/// `child_seed(master_seed, i)`) — for callers that must pair outcomes
/// index by index before aggregating. Memory is O(n) outcomes.
pub fn run_indexed<R>(task: &R, master_seed: u64, n: u64) -> Vec<R::Outcome>
where
    R: Replicate + ?Sized,
{
    let mut all = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
    run_windows(task, master_seed, 0, n, |window| all.extend(window));
    all
}

/// Drive `plan` over `task`, folding outcomes into sinks produced by
/// `new_sink`. See the module docs for the determinism guarantees.
///
/// Replication `i` always runs with seed `child_seed(master_seed, i)`, so
/// a fixed and an adaptive run agree bit-for-bit on their shared prefix.
///
/// # Panics
/// Panics on an invalid plan (call [`SamplingPlan::validate`] first when
/// the plan comes from external input).
pub fn run_plan<R, S, F>(
    task: &R,
    plan: &SamplingPlan,
    master_seed: u64,
    new_sink: F,
) -> Completed<S>
where
    R: Replicate + ?Sized,
    S: OutcomeSink<R::Outcome>,
    F: Fn() -> S,
{
    run_plan_observed(task, plan, master_seed, new_sink, &mut |_, _| {})
}

/// [`run_plan`] with a progress observer: after each sampling round the
/// observer receives `(replications_so_far, precision)` — one call per
/// adaptive round (including the initial `min` round) and a single final
/// call for fixed plans. Observation never changes what runs: the
/// replication stream and the aggregation order are exactly those of the
/// unobserved executor, so results stay bit-identical. The observer runs
/// on the driving thread, between rounds.
///
/// # Panics
/// Panics on an invalid plan (call [`SamplingPlan::validate`] first when
/// the plan comes from external input).
pub fn run_plan_observed<R, S, F>(
    task: &R,
    plan: &SamplingPlan,
    master_seed: u64,
    new_sink: F,
    observe: &mut dyn FnMut(u64, Option<f64>),
) -> Completed<S>
where
    R: Replicate + ?Sized,
    S: OutcomeSink<R::Outcome>,
    F: Fn() -> S,
{
    plan.validate().expect("invalid sampling plan");
    let mut state: Stream<S> = Stream::new();
    match *plan {
        SamplingPlan::Fixed(n) => {
            extend(task, master_seed, &mut state, n, &new_sink);
            let p = state.snapshot::<R::Outcome>().expect("n > 0").precision();
            observe(n, p);
            Completed {
                sink: state.finish::<R::Outcome>().expect("n > 0"),
                replications: n,
                target_met: None,
            }
        }
        SamplingPlan::Adaptive {
            target_rel_halfwidth,
            min,
            max,
            batch,
        } => {
            let mut n = min.min(max);
            extend(task, master_seed, &mut state, n, &new_sink);
            loop {
                let p = state.snapshot::<R::Outcome>().expect("n > 0").precision();
                observe(n, p);
                let met = p.is_some_and(|p| p <= target_rel_halfwidth);
                if met || n >= max {
                    return Completed {
                        sink: state.finish::<R::Outcome>().expect("n > 0"),
                        replications: n,
                        target_met: Some(met),
                    };
                }
                n = (n + batch).min(max);
                extend(task, master_seed, &mut state, n, &new_sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::stats::Welford;

    /// Toy experiment: one uniform draw per replication.
    struct Uniform;

    impl Replicate for Uniform {
        type Outcome = f64;
        fn run_one(&self, seed: u64) -> f64 {
            SplitMix64::new(seed).next_f64()
        }
    }

    /// Welford-over-outcomes sink with a 95%-style precision readout.
    #[derive(Clone)]
    struct MeanSink(Welford);

    impl MeanSink {
        fn new() -> Self {
            Self(Welford::new())
        }
    }

    impl OutcomeSink<f64> for MeanSink {
        fn record(&mut self, x: f64) {
            self.0.push(x);
        }
        fn merge(&mut self, other: Self) {
            self.0.merge(&other.0);
        }
        fn precision(&self) -> Option<f64> {
            (self.0.count() >= 2).then(|| self.0.confidence_interval(0.95).relative_half_width())
        }
    }

    #[test]
    fn fixed_runs_exactly_n() {
        let done = run_plan(&Uniform, &SamplingPlan::Fixed(130), 9, MeanSink::new);
        assert_eq!(done.replications, 130);
        assert_eq!(done.sink.0.count(), 130);
        assert_eq!(done.target_met, None);
        // uniform mean is near 1/2
        assert!((done.sink.0.mean() - 0.5).abs() < 0.2);
    }

    #[test]
    fn fixed_is_deterministic() {
        let a = run_plan(&Uniform, &SamplingPlan::Fixed(200), 7, MeanSink::new);
        let b = run_plan(&Uniform, &SamplingPlan::Fixed(200), 7, MeanSink::new);
        assert_eq!(a.sink.0, b.sink.0);
        // and a different master seed changes the stream
        let c = run_plan(&Uniform, &SamplingPlan::Fixed(200), 8, MeanSink::new);
        assert_ne!(a.sink.0.mean(), c.sink.0.mean());
    }

    #[test]
    fn adaptive_stops_when_target_met() {
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.25,
            min: 16,
            max: 100_000,
            batch: 16,
        };
        let done = run_plan(&Uniform, &plan, 3, MeanSink::new);
        assert_eq!(done.target_met, Some(true));
        assert!(done.replications < 100_000, "{}", done.replications);
        let p = done.sink.precision().unwrap();
        assert!(p <= 0.25, "claimed target met but precision is {p}");
    }

    #[test]
    fn observer_sees_each_round_and_does_not_perturb_results() {
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-9, // unreachable: every round observed
            min: 10,
            max: 50,
            batch: 20,
        };
        let mut rounds: Vec<(u64, Option<f64>)> = Vec::new();
        let observed = run_plan_observed(&Uniform, &plan, 3, MeanSink::new, &mut |n, p| {
            rounds.push((n, p));
        });
        let plain = run_plan(&Uniform, &plan, 3, MeanSink::new);
        assert_eq!(observed.sink.0, plain.sink.0);
        assert_eq!(observed.replications, plain.replications);
        assert_eq!(
            rounds.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![10, 30, 50]
        );
        assert!(rounds.iter().all(|&(_, p)| p.is_some()));
        // last observation matches the completed sink's precision
        assert_eq!(rounds.last().unwrap().1, observed.sink.precision());
    }

    #[test]
    fn observer_fires_once_for_fixed_plans() {
        let mut rounds = Vec::new();
        let done = run_plan_observed(
            &Uniform,
            &SamplingPlan::Fixed(64),
            9,
            MeanSink::new,
            &mut |n, p| {
                rounds.push((n, p));
            },
        );
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].0, 64);
        assert_eq!(rounds[0].1, done.sink.precision());
    }

    #[test]
    fn capped_below_first_batch_runs_only_the_cap() {
        // Regression: a replication budget smaller than the adaptive plan's
        // first batch must clamp that batch, not silently run all of `min`.
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-9,
            min: 100,
            max: 400,
            batch: 100,
        };
        let capped = plan.capped(7);
        capped.validate().unwrap();
        let mut rounds = Vec::new();
        let done = run_plan_observed(&Uniform, &capped, 3, MeanSink::new, &mut |n, p| {
            rounds.push((n, p));
        });
        assert_eq!(done.replications, 7);
        assert_eq!(done.sink.0.count(), 7);
        assert_eq!(done.target_met, Some(false));
        assert_eq!(rounds.iter().map(|&(n, _)| n).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn adaptive_reports_budget_exhaustion() {
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-9, // unreachable
            min: 10,
            max: 50,
            batch: 20,
        };
        let done = run_plan(&Uniform, &plan, 3, MeanSink::new);
        assert_eq!(done.replications, 50);
        assert_eq!(done.target_met, Some(false));
    }

    #[test]
    fn adaptive_prefix_equals_fixed_bit_for_bit() {
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-9,
            min: 37, // deliberately not a chunk multiple
            max: 201,
            batch: 41,
        };
        let adaptive = run_plan(&Uniform, &plan, 11, MeanSink::new);
        let fixed = run_plan(
            &Uniform,
            &SamplingPlan::Fixed(adaptive.replications),
            11,
            MeanSink::new,
        );
        assert_eq!(adaptive.sink.0, fixed.sink.0);
    }

    #[test]
    fn plan_validation_catches_bad_plans() {
        assert!(SamplingPlan::Fixed(0).validate().is_err());
        assert!(SamplingPlan::Fixed(1).validate().is_ok());
        let bad_target = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.0,
            min: 1,
            max: 2,
            batch: 1,
        };
        assert!(bad_target.validate().is_err());
        let min_over_max = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.1,
            min: 10,
            max: 5,
            batch: 1,
        };
        assert!(min_over_max.validate().is_err());
        let zero_batch = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.1,
            min: 1,
            max: 5,
            batch: 0,
        };
        assert!(zero_batch.validate().is_err());
        let zero_min = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.1,
            min: 0,
            max: 5,
            batch: 1,
        };
        assert!(zero_min.validate().is_err());
    }

    #[test]
    fn capped_clamps_budgets() {
        assert_eq!(SamplingPlan::Fixed(100).capped(30), SamplingPlan::Fixed(30));
        let a = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.1,
            min: 50,
            max: 400,
            batch: 25,
        };
        match a.capped(40) {
            SamplingPlan::Adaptive { min, max, .. } => {
                assert_eq!((min, max), (40, 40));
            }
            SamplingPlan::Fixed(_) => panic!("capping must not change the plan kind"),
        }
        assert_eq!(a.max_replications(), 400);
    }
}
