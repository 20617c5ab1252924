//! Property tests pinning the replication engine's determinism contract:
//! `Fixed(n)` results are bit-identical however the index space is
//! partitioned into adaptive rounds (the "batch size" axis) or folded by
//! workers (the chunk grid is fixed, so thread partitioning cannot move a
//! record between sinks) at any thread count, and `Adaptive` plans honor
//! their budget and their claimed precision.

use numerics::replicate::{run_plan, OutcomeSink, Replicate, SamplingPlan};
use numerics::rng::{child_seed, SplitMix64};
use numerics::stats::{SurvivalAccumulator, Welford};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Toy experiment shaped like the simulators' outcomes: a pseudo-random
/// "failure time" plus a censoring flag.
struct FakeSim {
    horizon: f64,
}

impl Replicate for FakeSim {
    type Outcome = (f64, bool);

    fn run_one(&self, seed: u64) -> (f64, bool) {
        let mut rng = SplitMix64::new(seed);
        // inverse-CDF exponential draw with a heavy-ish spread
        let t = -(1.0 - rng.next_f64()).ln() * 40.0;
        if t >= self.horizon {
            (self.horizon, true)
        } else {
            (t, false)
        }
    }
}

/// Mean-time plus survival counts — a miniature of the engine's sink.
#[derive(Clone, Debug, PartialEq)]
struct StatSink {
    time: Welford,
    survival: SurvivalAccumulator,
    censored: u64,
}

impl StatSink {
    fn new() -> Self {
        Self {
            time: Welford::new(),
            survival: SurvivalAccumulator::new(&[0.0, 20.0, 60.0]),
            censored: 0,
        }
    }
}

impl OutcomeSink<(f64, bool)> for StatSink {
    fn record(&mut self, (t, censored): (f64, bool)) {
        self.survival.push(t, censored);
        if censored {
            self.censored += 1;
        } else {
            self.time.push(t);
        }
    }

    fn merge(&mut self, other: Self) {
        self.time.merge(&other.time);
        self.survival.merge(&other.survival);
        self.censored += other.censored;
    }

    fn precision(&self) -> Option<f64> {
        (self.time.count() >= 2).then(|| self.time.confidence_interval(0.95).relative_half_width())
    }
}

proptest! {
    // Fixed(n) must be bit-identical however the run is partitioned into
    // rounds: an adaptive plan with an unreachable target and an arbitrary
    // (min, batch) split walks the same index space in different-sized
    // rounds and must land on the very same bits.
    #[test]
    fn fixed_estimates_bit_identical_across_batch_partitions(
        seed in 0u64..1_000,
        n in 1u64..300,
        min in 1u64..300,
        batch in 1u64..97,
    ) {
        prop_assume!(min <= n);
        let task = FakeSim { horizon: 120.0 };
        let fixed = run_plan(&task, &SamplingPlan::Fixed(n), seed, StatSink::new);
        prop_assert_eq!(fixed.replications, n);

        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-12, // unreachable: always runs to max
            min,
            max: n,
            batch,
        };
        let adaptive = run_plan(&task, &plan, seed, StatSink::new);
        prop_assert_eq!(adaptive.replications, n);
        // bit-for-bit: Welford moments, survival counters, censor counts
        prop_assert_eq!(adaptive.sink, fixed.sink);
    }

    // Two identical fixed runs agree exactly, and the outcome stream is a
    // pure function of (master_seed, index): extending n only appends.
    #[test]
    fn fixed_prefix_property(seed in 0u64..1_000, n in 2u64..200, extra in 1u64..100) {
        let task = FakeSim { horizon: 120.0 };
        let a = run_plan(&task, &SamplingPlan::Fixed(n), seed, StatSink::new);
        let b = run_plan(&task, &SamplingPlan::Fixed(n), seed, StatSink::new);
        prop_assert_eq!(&a.sink, &b.sink);
        let longer = run_plan(&task, &SamplingPlan::Fixed(n + extra), seed, StatSink::new);
        // counts only grow — the first n outcomes are the same stream
        prop_assert_eq!(
            longer.sink.time.count() + longer.sink.censored,
            n + extra
        );
        prop_assert!(longer.sink.censored >= a.sink.censored);
        prop_assert!(longer.sink.time.count() >= a.sink.time.count());
    }

    // Adaptive stops at-or-under max, and whenever it claims the target
    // was met the final precision actually meets it.
    #[test]
    fn adaptive_honors_budget_and_claimed_target(
        seed in 0u64..1_000,
        target in 0.02f64..0.5,
        min in 2u64..64,
        max_extra in 0u64..600,
        batch in 1u64..64,
    ) {
        let task = FakeSim { horizon: 120.0 };
        let max = min + max_extra;
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: target,
            min,
            max,
            batch,
        };
        let done = run_plan(&task, &plan, seed, StatSink::new);
        prop_assert!(done.replications >= min.min(max));
        prop_assert!(done.replications <= max, "{} > {}", done.replications, max);
        match done.target_met {
            Some(true) => {
                let p = done.sink.precision().expect("met target implies estimable");
                prop_assert!(p <= target, "claimed {target}, got {p}");
            }
            Some(false) => prop_assert_eq!(done.replications, max),
            None => prop_assert!(false, "adaptive must carry a verdict"),
        }
    }
}

/// Replication counts around the 64-wide chunk grid and the multi-chunk
/// parallel window: a lone replication, a partial chunk, exactly one
/// chunk, one past it, and several windows with a partial tail.
const COUNTS: [u64; 5] = [1, 16, 64, 65, 1_100];

/// Run `f` with the replication pool pinned to `threads` threads.
fn at_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builds")
        .install(f)
}

/// An adaptive plan that never meets its target, so it walks `[0, n)` in
/// rounds whose boundaries fall mid-chunk.
fn uneven_rounds(n: u64) -> SamplingPlan {
    SamplingPlan::Adaptive {
        target_rel_halfwidth: 1e-12,
        min: n.div_ceil(3),
        max: n,
        batch: 37,
    }
}

#[test]
fn sinks_bit_identical_across_thread_counts() {
    let task = FakeSim { horizon: 120.0 };
    for n in COUNTS {
        let reference = at_threads(1, || {
            run_plan(&task, &SamplingPlan::Fixed(n), 5, StatSink::new)
        });
        for threads in [1, 2, 8] {
            for plan in [SamplingPlan::Fixed(n), uneven_rounds(n)] {
                let done = at_threads(threads, || run_plan(&task, &plan, 5, StatSink::new));
                assert_eq!(done.replications, n);
                assert_eq!(
                    done.sink, reference.sink,
                    "n={n} threads={threads} {plan:?}"
                );
            }
        }
    }
}

/// Replication whose outcome is its own index, recovered from the seed.
struct IndexTask {
    index_of: BTreeMap<u64, u64>,
}

impl IndexTask {
    fn new(master: u64, n: u64) -> Self {
        Self {
            index_of: (0..n).map(|i| (child_seed(master, i), i)).collect(),
        }
    }
}

impl Replicate for IndexTask {
    type Outcome = u64;

    fn run_one(&self, seed: u64) -> u64 {
        self.index_of[&seed]
    }
}

/// Records the index sequence and asserts the executor's fold order as it
/// happens: a sink records only consecutive indices of one chunk, and a
/// merge only appends the chunk-aligned range that immediately follows.
#[derive(Clone, Debug, Default)]
struct OrderSink {
    indices: Vec<u64>,
    merged: bool,
}

impl OutcomeSink<u64> for OrderSink {
    fn record(&mut self, i: u64) {
        assert!(!self.merged, "record {i} into a sink that already merged");
        if let Some(&first) = self.indices.first() {
            assert_eq!(i, first + self.indices.len() as u64, "records out of order");
            assert_eq!(i / 64, first / 64, "record {i} crosses a chunk boundary");
        }
        self.indices.push(i);
    }

    fn merge(&mut self, other: Self) {
        let next = self.indices.last().map_or(0, |&l| l + 1);
        assert_eq!(
            other.indices.first(),
            Some(&next),
            "chunks merged out of order"
        );
        assert_eq!(next % 64, 0, "merged range starts off the chunk grid");
        self.indices.extend(other.indices);
        self.merged = true;
    }

    fn precision(&self) -> Option<f64> {
        None
    }
}

#[test]
fn fold_order_follows_the_chunk_grid_at_every_thread_count() {
    for n in COUNTS {
        let task = IndexTask::new(9, n);
        for threads in [1, 2, 8] {
            for plan in [SamplingPlan::Fixed(n), uneven_rounds(n)] {
                let done = at_threads(threads, || run_plan(&task, &plan, 9, OrderSink::default));
                assert_eq!(
                    done.sink.indices,
                    (0..n).collect::<Vec<_>>(),
                    "n={n} threads={threads}"
                );
            }
        }
    }
}
