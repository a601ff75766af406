//! Active learning with model assertions.
//!
//! Implements §3 of the paper:
//!
//! * [`CandidatePool`] — the unlabeled pool, carrying each candidate's
//!   per-assertion severity vector (the bandit *context*) and the model's
//!   uncertainty score (for the baseline).
//! * [`SelectionStrategy`] — the data-selection interface, with the four
//!   strategies the paper compares (§5.4): [`RandomStrategy`],
//!   [`UncertaintyStrategy`] (least-confidence), [`UniformAssertionStrategy`]
//!   (uniform over assertion-flagged data), and [`BalStrategy`]
//!   (Algorithm 2).
//! * [`CcMab`] — the resource-unconstrained reference algorithm
//!   (Algorithm 1, Chen et al. 2018): contextual combinatorial bandits
//!   with hypercube context partitioning, exploration of under-explored
//!   cells, then greedy exploitation.
//! * [`run_rounds`] — the round loop: score pool → select batch → label &
//!   retrain → evaluate, repeated for `T` rounds as in Figures 4/5/9.
//!
//! # Example: BAL on a synthetic pool
//!
//! ```
//! use omg_active::{BalStrategy, CandidatePool, FallbackPolicy, SelectionStrategy};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Ten points, two assertions; points 0-4 trigger assertion 0.
//! let severities: Vec<Vec<f64>> = (0..10)
//!     .map(|i| if i < 5 { vec![1.0, 0.0] } else { vec![0.0, 0.0] })
//!     .collect();
//! let pool = CandidatePool::new(severities, vec![0.5; 10]).unwrap();
//! let mut bal = BalStrategy::new(FallbackPolicy::Random);
//! let mut rng = StdRng::seed_from_u64(1);
//! let picked = bal.select(&pool, 3, &mut rng);
//! assert_eq!(picked.len(), 3);
//! assert!(picked.iter().all(|&i| i < 5), "round 0 samples from flagged data");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ccmab;
mod live;
mod pool;
mod runner;
mod strategy;

pub use ccmab::CcMab;
// The scoped-thread runtime strategies fan pool scoring out over; re-
// exported so harness code can name it without an `omg-core` import.
pub use omg_core::runtime::ThreadPool;
pub use pool::CandidatePool;
pub use runner::{run_rounds, ActiveLearner, RoundRecord};
pub use strategy::{
    BalStrategy, FallbackPolicy, RandomStrategy, SelectionStrategy, UncertaintyStrategy,
    UniformAssertionStrategy,
};
