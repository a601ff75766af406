//! Oracle equivalence for the indexed selection path.
//!
//! The reference below is the scan-and-sort formulation of the
//! assertion-driven strategies: every draw rescans the pool for each
//! assertion's untaken fired candidates, sorts them by severity rank,
//! and walks the rank weights by subtraction; the uncertainty paths sort
//! every candidate. The library runs the same draws on per-call Fenwick
//! live sets over the pool's posting lists and a partial top-k. Over
//! random multi-round campaigns — severity ties, NaN, zero, negative and
//! infinite values, assertions that never fire, budgets below, at and
//! above the flagged count — both must pick the same candidates in the
//! same order and leave the RNG in the same state.

use omg_active::{
    BalStrategy, CandidatePool, FallbackPolicy, SelectionStrategy, UncertaintyStrategy,
    UniformAssertionStrategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

// ---------------------------------------------------------------------
// The reference: the scan-and-sort selection code, kept as the oracle.
// ---------------------------------------------------------------------

/// Candidates on which assertion `m` fired, by a full pool scan.
fn scan_triggered(pool: &CandidatePool, m: usize) -> Vec<usize> {
    (0..pool.len())
        .filter(|&i| pool.severity(i, m) > 0.0)
        .collect()
}

fn scan_fire_rates(pool: &CandidatePool) -> Vec<f64> {
    let n = pool.len().max(1) as f64;
    (0..pool.num_assertions())
        .map(|m| scan_triggered(pool, m).len() as f64 / n)
        .collect()
}

fn sort_by_score_desc<F: Fn(usize) -> f64>(order: &mut [usize], score: F) {
    order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
}

fn sample_uniform(
    candidates: &[usize],
    k: usize,
    taken: &mut [bool],
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut avail: Vec<usize> = candidates.iter().copied().filter(|&i| !taken[i]).collect();
    avail.shuffle(rng);
    let picked: Vec<usize> = avail.into_iter().take(k).collect();
    for &i in &picked {
        taken[i] = true;
    }
    picked
}

fn pick_uniform_from_assertions(
    pool: &CandidatePool,
    taken: &mut [bool],
    rng: &mut StdRng,
) -> Option<usize> {
    let live: Vec<usize> = (0..pool.num_assertions())
        .filter(|&m| scan_triggered(pool, m).iter().any(|&i| !taken[i]))
        .collect();
    let &m = live.choose(rng)?;
    let avail: Vec<usize> = scan_triggered(pool, m)
        .into_iter()
        .filter(|&i| !taken[i])
        .collect();
    let &i = avail.choose(rng)?;
    taken[i] = true;
    Some(i)
}

fn pick_by_severity_rank(
    pool: &CandidatePool,
    m: usize,
    taken: &mut [bool],
    rng: &mut StdRng,
) -> Option<usize> {
    let mut avail: Vec<usize> = scan_triggered(pool, m)
        .into_iter()
        .filter(|&i| !taken[i])
        .collect();
    if avail.is_empty() {
        return None;
    }
    // Ascending severity: rank weight = position + 1.
    avail.sort_by(|&a, &b| {
        pool.severity(a, m)
            .total_cmp(&pool.severity(b, m))
            .then(a.cmp(&b))
    });
    let total: f64 = (1..=avail.len()).map(|r| r as f64).sum();
    let mut u = rng.gen_range(0.0..total);
    for (pos, &i) in avail.iter().enumerate() {
        let w = (pos + 1) as f64;
        if u < w {
            taken[i] = true;
            return Some(i);
        }
        u -= w;
    }
    let &last = avail.last().expect("non-empty");
    taken[last] = true;
    Some(last)
}

fn reference_uncertainty(pool: &CandidatePool, budget: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool.len()).collect();
    sort_by_score_desc(&mut order, |i| pool.uncertainty(i));
    order.truncate(budget);
    order
}

fn reference_uniform_ma(pool: &CandidatePool, budget: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut taken = vec![false; pool.len()];
    let mut out = Vec::with_capacity(budget);
    while out.len() < budget {
        match pick_uniform_from_assertions(pool, &mut taken, rng) {
            Some(i) => out.push(i),
            None => break,
        }
    }
    if out.len() < budget {
        let all: Vec<usize> = (0..pool.len()).collect();
        out.extend(sample_uniform(&all, budget - out.len(), &mut taken, rng));
    }
    out
}

/// BAL (Algorithm 2) over the scan-and-sort draws, with the library's
/// constants: ε as configured, 1% reduction threshold.
struct ReferenceBal {
    fallback: FallbackPolicy,
    prev_rates: Option<Vec<f64>>,
    epsilon: f64,
    min_reduction: f64,
}

impl ReferenceBal {
    fn new(fallback: FallbackPolicy, epsilon: f64) -> Self {
        Self {
            fallback,
            prev_rates: None,
            epsilon,
            min_reduction: 0.01,
        }
    }

    fn reductions(prev: &[f64], cur: &[f64]) -> Vec<f64> {
        prev.iter()
            .zip(cur)
            .map(|(&p, &c)| if p > 0.0 { ((p - c) / p).max(0.0) } else { 0.0 })
            .collect()
    }

    fn fallback_select(
        &self,
        pool: &CandidatePool,
        k: usize,
        taken: &mut [bool],
        rng: &mut StdRng,
    ) -> Vec<usize> {
        match self.fallback {
            FallbackPolicy::Random => {
                let all: Vec<usize> = (0..pool.len()).collect();
                sample_uniform(&all, k, taken, rng)
            }
            FallbackPolicy::Uncertainty => {
                let mut order: Vec<usize> = (0..pool.len()).filter(|&i| !taken[i]).collect();
                sort_by_score_desc(&mut order, |i| pool.uncertainty(i));
                order.truncate(k);
                for &i in &order {
                    taken[i] = true;
                }
                order
            }
        }
    }

    fn select(&mut self, pool: &CandidatePool, budget: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut taken = vec![false; pool.len()];
        let mut out = Vec::with_capacity(budget);
        let rates = scan_fire_rates(pool);
        let d = pool.num_assertions();

        if d == 0 || pool.is_empty() {
            return self.fallback_select(pool, budget, &mut taken, rng);
        }

        match self.prev_rates.take() {
            None => {
                while out.len() < budget {
                    match pick_uniform_from_assertions(pool, &mut taken, rng) {
                        Some(i) => out.push(i),
                        None => break,
                    }
                }
            }
            Some(prev) => {
                let reductions = Self::reductions(&prev, &rates);
                let total_reduction: f64 = reductions.iter().sum();
                if reductions.iter().all(|&r| r < self.min_reduction) {
                    out.extend(self.fallback_select(pool, budget, &mut taken, rng));
                } else {
                    let explore = ((budget as f64) * self.epsilon).round() as usize;
                    let exploit = budget.saturating_sub(explore);
                    for _ in 0..exploit {
                        let mut u = rng.gen_range(0.0..total_reduction);
                        let mut chosen = d - 1;
                        for (m, &r) in reductions.iter().enumerate() {
                            if u < r {
                                chosen = m;
                                break;
                            }
                            u -= r;
                        }
                        let mut picked = pick_by_severity_rank(pool, chosen, &mut taken, rng);
                        if picked.is_none() {
                            for m in 0..d {
                                picked = pick_by_severity_rank(pool, m, &mut taken, rng);
                                if picked.is_some() {
                                    break;
                                }
                            }
                        }
                        match picked {
                            Some(i) => out.push(i),
                            None => break,
                        }
                    }
                    while out.len() < budget {
                        match pick_uniform_from_assertions(pool, &mut taken, rng) {
                            Some(i) => out.push(i),
                            None => break,
                        }
                    }
                }
            }
        }

        if out.len() < budget {
            out.extend(self.fallback_select(pool, budget - out.len(), &mut taken, rng));
        }
        self.prev_rates = Some(rates);
        out
    }
}

// ---------------------------------------------------------------------
// Random campaigns.
// ---------------------------------------------------------------------

/// A severity drawn from a menu that stresses the rank order: mostly
/// abstentions, integer ties, arbitrary positives, and the values that
/// must never count as fires (NaN, zero of either sign, negatives).
fn severity(rng: &mut StdRng, fire_p: f64) -> f64 {
    if !rng.gen_bool(fire_p) {
        return match rng.gen_range(0..10u32) {
            0 => f64::NAN,
            1 => -0.0,
            2 => -rng.gen_range(0.0..5.0),
            _ => 0.0,
        };
    }
    match rng.gen_range(0..8u32) {
        0..=3 => f64::from(rng.gen_range(1..4u32)),
        4 => f64::INFINITY,
        5 => f64::MIN_POSITIVE,
        _ => rng.gen_range(0.01..10.0),
    }
}

/// `n` candidate rows over `d` assertions; each assertion has its own
/// fire probability, zero for some (an assertion that never fires).
fn rows(n: usize, d: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let fire_p: Vec<f64> = (0..d)
        .map(|_| [0.0, 0.02, 0.2, 0.6][rng.gen_range(0..4usize)])
        .collect();
    let sev = (0..n)
        .map(|_| fire_p.iter().map(|&p| severity(rng, p)).collect())
        .collect();
    // Coarse uncertainties so score ties exercise the index tie-break.
    let unc = (0..n)
        .map(|_| f64::from(rng.gen_range(0..20u32)) / 20.0)
        .collect();
    (sev, unc)
}

/// A round's budget: small, exactly the flagged count, just above it,
/// or more than the pool.
fn budget(pool: &CandidatePool, rng: &mut StdRng) -> usize {
    let flagged = pool.any_triggered().len();
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..40usize),
        1 => flagged,
        2 => flagged + rng.gen_range(1..10usize),
        _ => pool.len() + 1,
    }
}

/// The strategy configurations under test: BAL under both fallbacks at
/// ε ∈ {0, 0.25, 1}, uniform-ma, and uncertainty.
const CONFIGS: usize = 8;

fn run_config(config: usize, seed: u64, n: usize, d: usize) -> Result<(), TestCaseError> {
    let mut data = StdRng::seed_from_u64(seed);
    let (mut sev, mut unc) = rows(n, d, &mut data);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1);
    let mut reference_rng = rng.clone();
    let bal = |fallback, epsilon: f64| {
        (
            Box::new(BalStrategy::new(fallback).with_epsilon(epsilon))
                as Box<dyn SelectionStrategy>,
            Some(ReferenceBal::new(fallback, epsilon)),
        )
    };
    let (mut strategy, mut reference_bal) = match config {
        0 => bal(FallbackPolicy::Random, 0.0),
        1 => bal(FallbackPolicy::Random, 0.25),
        2 => bal(FallbackPolicy::Random, 1.0),
        3 => bal(FallbackPolicy::Uncertainty, 0.0),
        4 => bal(FallbackPolicy::Uncertainty, 0.25),
        5 => bal(FallbackPolicy::Uncertainty, 1.0),
        6 => (
            Box::new(UniformAssertionStrategy) as Box<dyn SelectionStrategy>,
            None,
        ),
        _ => (
            Box::new(UncertaintyStrategy) as Box<dyn SelectionStrategy>,
            None,
        ),
    };
    let rounds = data.gen_range(1..5usize);
    for round in 0..rounds {
        let pool = CandidatePool::new(sev.clone(), unc.clone()).unwrap();
        for m in 0..d {
            let scanned = scan_triggered(&pool, m);
            prop_assert_eq!(pool.triggered_by(m), scanned.as_slice());
        }
        let budget = budget(&pool, &mut data);
        let got = strategy.select(&pool, budget, &mut rng);
        let want = match (&mut reference_bal, config) {
            (Some(r), _) => r.select(&pool, budget, &mut reference_rng),
            (None, 6) => reference_uniform_ma(&pool, budget, &mut reference_rng),
            (None, _) => reference_uncertainty(&pool, budget),
        };
        prop_assert_eq!(
            &got,
            &want,
            "config {} round {} n {} d {} budget {}",
            config,
            round,
            pool.len(),
            d,
            budget
        );
        prop_assert_eq!(rng.clone().next_u64(), reference_rng.clone().next_u64());
        // Label the picks out of the pool, then "retrain": one
        // assertion stops firing on part of what is left, so later
        // rounds see reductions and exercise BAL's exploit path.
        let mut picked = vec![false; sev.len()];
        for &i in &got {
            picked[i] = true;
        }
        let mut keep = picked.iter().map(|&p| !p);
        sev.retain(|_| keep.next().unwrap_or(true));
        let mut keep = picked.iter().map(|&p| !p);
        unc.retain(|_| keep.next().unwrap_or(true));
        if d > 0 {
            let m = data.gen_range(0..d);
            let fixed = data.gen_range(0.0..0.6);
            for row in &mut sev {
                if data.gen_bool(fixed) {
                    row[m] = 0.0;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// Every configuration on one random campaign per case: pools of
    /// 0..2000 candidates over 0..5 assertions.
    #[test]
    fn indexed_selection_matches_scan_reference(
        n in 0usize..2000, d in 0usize..5, seed in any::<u64>(), config in 0usize..CONFIGS,
    ) {
        run_config(config, seed, n, d)?;
    }

    /// Small pools, every configuration per case: dense coverage of the
    /// exhaustion and fall-through edges.
    #[test]
    fn indexed_selection_matches_scan_reference_on_small_pools(
        n in 0usize..40, d in 0usize..5, seed in any::<u64>(),
    ) {
        for config in 0..CONFIGS {
            run_config(config, seed, n, d)?;
        }
    }
}

#[test]
fn bal_exploit_rounds_match_reference_on_a_shrinking_pool() {
    // A deterministic campaign in which every round after the first
    // sees a reduction, so most picks go through the rank draw.
    for seed in 0..6u64 {
        let mut data = StdRng::seed_from_u64(seed);
        let (sev, unc) = rows(1500, 3, &mut data);
        let mut bal = BalStrategy::new(FallbackPolicy::Uncertainty);
        let mut reference = ReferenceBal::new(FallbackPolicy::Uncertainty, 0.25);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = rng.clone();
        for round in 0..4 {
            let cut = sev.len() - round * 200;
            let pool = CandidatePool::new(
                sev[..cut]
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let fading = i % 4 < round;
                        r.iter().map(|&s| if fading { 0.0 } else { s }).collect()
                    })
                    .collect(),
                unc[..cut].to_vec(),
            )
            .unwrap();
            let got = bal.select(&pool, 300, &mut rng);
            let want = reference.select(&pool, 300, &mut reference_rng);
            assert_eq!(got, want, "seed {seed} round {round}");
            assert_eq!(rng, reference_rng, "seed {seed} round {round}");
        }
    }
}
