//! Data-selection performance: BAL and the baselines vs. pool size, and
//! the CC-MAB reference. Demonstrates the paper's implicit claim that
//! BAL's selection step is cheap (no retraining per arm, unlike CC-MAB's
//! idealized setting).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use omg_active::{
    BalStrategy, CandidatePool, CcMab, FallbackPolicy, RandomStrategy, SelectionStrategy,
    ThreadPool, UncertaintyStrategy, UniformAssertionStrategy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` candidates over `d` assertions, each firing with probability
/// `fire_p` at a severity in `[0.5, 5)`.
fn make_pool(n: usize, d: usize, fire_p: f64, seed: u64) -> CandidatePool {
    let mut rng = StdRng::seed_from_u64(seed);
    let severities: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    if rng.gen_bool(fire_p) {
                        rng.gen_range(0.5..5.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let uncertainties: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    CandidatePool::new(severities, uncertainties).unwrap()
}

fn strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("selection/100_of_n");
    for n in [1_000usize, 10_000, 100_000] {
        let pool = make_pool(n, 3, 0.3, 42);
        let cases: Vec<(&str, Box<dyn SelectionStrategy>)> = vec![
            ("random", Box::new(RandomStrategy)),
            ("uncertainty", Box::new(UncertaintyStrategy)),
            ("uniform-ma", Box::new(UniformAssertionStrategy)),
            ("bal", Box::new(BalStrategy::new(FallbackPolicy::Random))),
        ];
        for (name, mut strategy) in cases {
            group.bench_with_input(BenchmarkId::new(name, n), &pool, |b, pool| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter(|| {
                    strategy.reset();
                    criterion::black_box(strategy.select(pool, 100, &mut rng))
                });
            });
        }
        // BAL's exploit path: the untimed setup runs round 0 on p0, and
        // the timed round runs on p1, where every assertion fires less
        // often, so the budget goes to severity-rank draws (ε = 25%
        // explores).
        let dropped = make_pool(n, 3, 0.2, 43);
        group.bench_with_input(
            BenchmarkId::new("bal-exploit", n),
            &dropped,
            |b, dropped| {
                let mut rng = StdRng::seed_from_u64(7);
                b.iter_batched(
                    || {
                        let mut bal = BalStrategy::new(FallbackPolicy::Random);
                        bal.select(&pool, 100, &mut rng);
                        (bal, rng.clone())
                    },
                    |(mut bal, mut round_rng)| bal.select(dropped, 100, &mut round_rng),
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Per-candidate strategy scoring fanned out over the runtime — the
/// batch severity-scoring path pools are ranked with.
fn score_all(c: &mut Criterion) {
    let pool = make_pool(10_000, 3, 0.3, 42);
    let mut group = c.benchmark_group("selection/score_all_10k");
    for threads in [1usize, 4] {
        let runtime = ThreadPool::new(threads);
        let bal = BalStrategy::new(FallbackPolicy::Random);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &runtime, |b, rt| {
            b.iter(|| criterion::black_box(bal.score_all(&pool, rt)));
        });
    }
    group.finish();
}

fn ccmab(c: &mut Criterion) {
    c.bench_function("selection/ccmab_round", |b| {
        let mut rng = StdRng::seed_from_u64(9);
        let contexts: Vec<Vec<f64>> = (0..1_000)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let mut mab = CcMab::new(2, 5);
        b.iter(|| {
            mab.begin_round();
            let sel = mab.select(&contexts, 100);
            for &i in &sel {
                mab.update(&contexts[i], contexts[i][0]);
            }
            criterion::black_box(sel)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = strategies, score_all, ccmab
}
criterion_main!(benches);
