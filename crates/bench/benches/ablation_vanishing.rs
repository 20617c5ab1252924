//! Ablation: modelling a probabilistic branch with immediate transitions
//! (vanishing markings eliminated during reachability) versus flattening
//! the branch into pre-multiplied timed rates.
//!
//! The two nets are stochastically identical; the benchmark quantifies the
//! exploration overhead of vanishing-marking elimination.

use criterion::{criterion_group, criterion_main, Criterion};
use spn::ctmc::Ctmc;
use spn::model::{Spn, SpnBuilder, TransitionDef};
use spn::reach::{explore, ExploreOptions};
use std::hint::black_box;

const N: u32 = 60;
const DETECT_RATE: f64 = 0.05;
const P_CATCH: f64 = 0.8;

/// Detection fires, then an immediate coin flip decides caught vs missed.
fn with_immediates() -> Spn {
    let mut b = SpnBuilder::new();
    let up = b.add_place("up", N);
    let pending = b.add_place("pending", 0);
    let caught = b.add_place("caught", 0);
    let missed = b.add_place("missed", 0);
    b.add_transition(
        TransitionDef::timed("detect", move |m| DETECT_RATE * m.tokens(up) as f64)
            .input(up, 1)
            .output(pending, 1),
    );
    b.add_transition(
        TransitionDef::immediate_weighted("hit", |_| P_CATCH, 0)
            .input(pending, 1)
            .output(caught, 1),
    );
    b.add_transition(
        TransitionDef::immediate_weighted("miss", |_| 1.0 - P_CATCH, 0)
            .input(pending, 1)
            .output(missed, 1),
    );
    b.build().unwrap()
}

/// The same chain with the branch pre-multiplied into two timed rates.
fn flattened() -> Spn {
    let mut b = SpnBuilder::new();
    let up = b.add_place("up", N);
    let caught = b.add_place("caught", 0);
    let missed = b.add_place("missed", 0);
    b.add_transition(
        TransitionDef::timed("hit", move |m| DETECT_RATE * P_CATCH * m.tokens(up) as f64)
            .input(up, 1)
            .output(caught, 1),
    );
    b.add_transition(
        TransitionDef::timed("miss", move |m| {
            DETECT_RATE * (1.0 - P_CATCH) * m.tokens(up) as f64
        })
        .input(up, 1)
        .output(missed, 1),
    );
    b.build().unwrap()
}

fn bench_vanishing(c: &mut Criterion) {
    let imm = with_immediates();
    let flat = flattened();
    // sanity: both yield the same MTTA
    let mtta = |net: &Spn| {
        let g = explore(net, &ExploreOptions::default()).unwrap();
        Ctmc::from_graph(&g)
            .unwrap()
            .mean_time_to_absorption()
            .unwrap()
            .mtta
    };
    let (a, b2) = (mtta(&imm), mtta(&flat));
    assert!(
        (a - b2).abs() < 1e-6 * a,
        "ablation nets disagree: {a} vs {b2}"
    );

    let mut g = c.benchmark_group("vanishing_elimination");
    g.sample_size(20);
    g.bench_function("immediate_branch", |b| {
        b.iter(|| {
            explore(black_box(&imm), &ExploreOptions::default())
                .unwrap()
                .state_count()
        })
    });
    g.bench_function("flattened_rates", |b| {
        b.iter(|| {
            explore(black_box(&flat), &ExploreOptions::default())
                .unwrap()
                .state_count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_vanishing);
criterion_main!(benches);
