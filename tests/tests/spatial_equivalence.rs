//! Matcher-backend equivalence through the full engine: **every
//! scenario in the runtime registry** must score bit-for-bit identically
//! whether the pairwise matchers run on the spatial grid index or the
//! O(n²) reference scans — across world seeds, stream sizes, and the
//! 1/2/8-thread ladder — and so must crowded video windows dense enough
//! to clear the indexed cutoff (`omg_geom::matchers::INDEX_MIN`).
//!
//! This is the system-level half of the equivalence argument in
//! `omg_geom::matchers`: the property tests prove the matchers agree on
//! arbitrary scenes; this suite proves nothing between the matcher and
//! the severity — tracking, windowing, monitors, thread chunking —
//! reintroduces a difference.

use omg_bench::crowd::crowd_windows;
use omg_bench::scenarios::all_scenarios;
use omg_bench::video::FLICKER_T;
use omg_core::runtime::ThreadPool;
use omg_core::Monitor;
use omg_domains::{video_assertion_set, video_prepared_assertion_set, VideoPrepare};
use omg_geom::matchers::{with_backend, MatchBackend};
use proptest::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

proptest! {
    /// Registry-wide: each scenario's batch severities under the indexed
    /// backend equal those under the reference backend, at every thread
    /// count. (Scenarios are rebuilt inside each backend scope so no
    /// state crosses over.)
    #[test]
    fn every_scenario_scores_equal_under_both_backends(seed in 0u64..60, size in 8usize..24) {
        for threads in THREADS {
            let pool = ThreadPool::exact(threads);
            let score = || -> Vec<_> {
                all_scenarios(seed, size)
                    .iter()
                    .map(|s| s.score_batch(&pool))
                    .collect()
            };
            let indexed = with_backend(MatchBackend::Indexed, score);
            let reference = with_backend(MatchBackend::Reference, score);
            prop_assert_eq!(
                &indexed, &reference,
                "backend divergence (seed={}, size={}, threads={})",
                seed, size, threads
            );
        }
    }
}

/// Crowded windows — dense enough that every matcher takes the grid
/// path — through the plain video assertion set.
#[test]
fn crowded_windows_score_equal_under_both_backends() {
    let windows = crowd_windows(300, 4, 17);
    let set = video_assertion_set(FLICKER_T);
    let score = || -> Vec<_> { windows.iter().map(|w| set.check_all(w)).collect() };
    let indexed = with_backend(MatchBackend::Indexed, score);
    let reference = with_backend(MatchBackend::Reference, score);
    assert_eq!(indexed, reference);
}

/// Crowded windows through the streaming monitor at the thread ladder:
/// reports and assertion database must match the reference backend
/// exactly, so the fast path may not change a single logged severity.
#[test]
fn crowded_stream_monitor_matches_reference_backend_at_every_thread_count() {
    let windows = crowd_windows(300, 6, 23);
    let run = |threads: usize| {
        let mut m = Monitor::with_preparer(
            video_prepared_assertion_set(FLICKER_T),
            VideoPrepare::new(FLICKER_T),
        );
        let reports = m.process_batch(&windows, &ThreadPool::exact(threads));
        (reports, m.db().clone())
    };
    let want = with_backend(MatchBackend::Reference, || run(1));
    for threads in THREADS {
        let got = with_backend(MatchBackend::Indexed, || run(threads));
        assert_eq!(got, want, "diverged at {threads} threads");
    }
}
