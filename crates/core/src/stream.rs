//! Incremental streaming monitoring with shared window preparation.
//!
//! The paper's §7 argues assertions are cheap enough to "be run … over
//! every model invocation"; keeping that true on a live stream means the
//! hot path must be *incremental* — O(1) amortized work per arriving
//! sample — rather than batch-shaped re-derivation over the whole
//! history. Two costs dominate in practice:
//!
//! 1. **Window preparation.** Several assertions over the same window
//!    often need the same expensive derivation (the video assertions all
//!    need the tracked window; an ECG set needs the segmented prediction
//!    run). Self-contained assertions each re-derive it, multiplying the
//!    dominant cost by the assertion count. The [`Prepare`] trait names
//!    that derivation once; [`crate::AssertionSet::check_all_prepared`]
//!    shares one artifact across every assertion in the set, and
//!    [`crate::Monitor::with_preparer`] runs it once per sample.
//! 2. **Window construction.** A sliding window over a stream only ever
//!    changes at its edges, and describing one never requires copying its
//!    items: every caller borrows each center's clamped window
//!    `[max(0, c − half), min(c + half + 1, n))` in place from a slice of
//!    the stream. The scenario drivers hold the whole stream and score
//!    every center through [`score_rows_chunked`]; the multi-tenant
//!    service keeps one buffer per session, holding only the context
//!    later windows still need plus its ingest backlog, and slices the
//!    same windows from it.
//!
//! # Batch-equivalence guarantee
//!
//! For pure assertions and a deterministic preparer, every path through
//! this module is **bit-for-bit equal** to the batch reference
//! ([`crate::AssertionSet::check_all`] per sample, in order) at any
//! thread count. The engine's property tests enforce this at 1/2/8
//! threads across all deployed scenarios.

use crate::runtime::ThreadPool;
use crate::{AssertionSet, SeverityMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An expensive per-sample derivation shared by every assertion in a set.
///
/// `prepare` must be a deterministic pure function of the sample: the
/// streaming engine relies on `check_all_prepared(s, &prepare(s))`
/// equalling `check_all(s)` bit-for-bit, and may prepare the same sample
/// on different threads in different runs.
pub trait Prepare<S>: Send + Sync {
    /// The artifact `prepare` derives (a tracked window, segmented
    /// beats, projected boxes, …).
    type Prepared: Send;

    /// Derives the artifact from one sample.
    fn prepare(&self, sample: &S) -> Self::Prepared;
}

/// Boxed preparers prepare by delegation, so a `Box<dyn Prepare<S,
/// Prepared = P>>` (how scenario harnesses hold their preparer) can be
/// passed anywhere a concrete preparer is expected — including inside a
/// [`CountingPrepare`] probe.
impl<S, Pr> Prepare<S> for Box<Pr>
where
    Pr: Prepare<S> + ?Sized,
{
    type Prepared = Pr::Prepared;

    fn prepare(&self, sample: &S) -> Self::Prepared {
        (**self).prepare(sample)
    }
}

/// The trivial preparation: no shared artifact. Lets any plain
/// `AssertionSet<S>` run on the streaming engine unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoPrep;

impl<S> Prepare<S> for NoPrep {
    type Prepared = ();

    fn prepare(&self, _sample: &S) {}
}

/// A closure-backed [`Prepare`] — the `FnAssertion` of preparers.
///
/// # Example
///
/// ```
/// use omg_core::stream::{FnPrepare, Prepare};
///
/// let sum = FnPrepare::new(|xs: &Vec<i32>| xs.iter().sum::<i32>());
/// assert_eq!(sum.prepare(&vec![1, 2, 3]), 6);
/// ```
pub struct FnPrepare<F>(F);

impl<F> FnPrepare<F> {
    /// Wraps a closure as a preparer.
    pub fn new(f: F) -> Self {
        Self(f)
    }
}

impl<S, P, F> Prepare<S> for FnPrepare<F>
where
    F: Fn(&S) -> P + Send + Sync,
    P: Send,
{
    type Prepared = P;

    fn prepare(&self, sample: &S) -> P {
        (self.0)(sample)
    }
}

/// A probe that counts how many times an inner preparer runs — the
/// instrument behind the engine's prepare-once tests ("tracking runs
/// exactly once per window").
pub struct CountingPrepare<Pr> {
    inner: Pr,
    count: Arc<AtomicUsize>,
}

impl<Pr> CountingPrepare<Pr> {
    /// Wraps a preparer; `counter` is incremented on every `prepare`.
    pub fn new(inner: Pr, counter: Arc<AtomicUsize>) -> Self {
        Self {
            inner,
            count: counter,
        }
    }

    /// Number of `prepare` calls so far.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }
}

impl<S, Pr: Prepare<S>> Prepare<S> for CountingPrepare<Pr> {
    type Prepared = Pr::Prepared;

    fn prepare(&self, sample: &S) -> Pr::Prepared {
        self.count.fetch_add(1, Ordering::SeqCst);
        self.inner.prepare(sample)
    }
}

/// Fills `n` severity rows (plus one auxiliary `f64` per row) across the
/// pool's workers, merging into one contiguous [`SeverityMatrix`] and
/// auxiliary vector **in index order**.
///
/// `fill(i, row)` must refill `row` with index `i`'s dense severity
/// values and return its auxiliary value (an uncertainty, typically);
/// each worker reuses one row buffer across its whole chunk, so the
/// single-thread path runs allocation-free over a flat buffer and the
/// parallel path merges chunk-local matrices by disjoint range-copy
/// ([`SeverityMatrix::append`]) — no `Vec<Vec<_>>` stitching. For a pure
/// `fill` the result is bit-for-bit identical at any thread count.
///
/// This is the one columnar scoring driver: [`score_batch`] (behind
/// [`crate::Monitor::process_batch`]) and both scenario drivers
/// (`omg_scenario::score_scenario` and `stream_score_scenario`) run on
/// it. Parallel runs split `0..n` into contiguous chunks of
/// `n.div_ceil(4 * fanout)` indices, so each index is filled exactly
/// once at any thread count.
pub fn score_rows_chunked<F>(
    n: usize,
    width: usize,
    pool: &ThreadPool,
    fill: F,
) -> (SeverityMatrix, Vec<f64>)
where
    F: Fn(usize, &mut Vec<f64>) -> f64 + Sync,
{
    let fill_range = |lo: usize, hi: usize| {
        let mut matrix = SeverityMatrix::with_capacity(hi - lo, width);
        let mut aux = Vec::with_capacity(hi - lo);
        let mut row = Vec::with_capacity(width);
        for i in lo..hi {
            aux.push(fill(i, &mut row));
            matrix.push_row(&row);
        }
        (matrix, aux)
    };
    let threads = pool.fanout();
    if threads == 1 || n < 2 {
        return fill_range(0, n);
    }
    let chunk = n.div_ceil(threads * 4).max(1);
    let parts = pool.map_indexed(n.div_ceil(chunk), |k| {
        fill_range(k * chunk, ((k + 1) * chunk).min(n))
    });
    let mut matrix = SeverityMatrix::with_capacity(n, width);
    let mut aux = Vec::with_capacity(n);
    for (part_matrix, part_aux) in &parts {
        matrix.append(part_matrix);
        aux.extend_from_slice(part_aux);
    }
    (matrix, aux)
}

/// Scores every sample of a batch across the pool's workers — prepare
/// once per sample, then every assertion via the set's prepared path —
/// into a columnar [`SeverityMatrix`]: row `i` is sample `i`'s dense
/// severity vector in assertion-id order, merged **in sample order**.
///
/// This is the scoring core of [`crate::Monitor::process_batch`]; for
/// pure assertions and a deterministic preparer it is bit-for-bit equal
/// to checking each sample sequentially, at any thread count.
pub fn score_batch<S, P>(
    set: &AssertionSet<S, P>,
    preparer: &(dyn Prepare<S, Prepared = P> + '_),
    samples: &[S],
    pool: &ThreadPool,
) -> SeverityMatrix
where
    S: Sync + 'static,
    P: Send,
{
    score_rows_chunked(samples.len(), set.len(), pool, |i, row| {
        let prep = preparer.prepare(&samples[i]);
        set.check_all_prepared_values(&samples[i], &prep, row);
        0.0
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AssertionId, Monitor, SampleReport, Severity};

    /// A set whose assertions share a (counted) "expensive" derivation:
    /// the sum of the sample.
    fn prepared_set() -> AssertionSet<Vec<i64>, i64> {
        let mut set: AssertionSet<Vec<i64>, i64> = AssertionSet::new();
        set.add_prepared(
            crate::FnAssertion::new("negative-sum", |xs: &Vec<i64>| {
                Severity::from_bool(xs.iter().sum::<i64>() < 0)
            }),
            |_, &sum: &i64| Severity::from_bool(sum < 0),
        );
        set.add_prepared(
            crate::FnAssertion::new("huge-sum", |xs: &Vec<i64>| {
                Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 100.0)
            }),
            |_, &sum: &i64| Severity::new(sum.unsigned_abs() as f64 / 100.0),
        );
        // A prep-oblivious assertion mixes in via the fallback path.
        set.add_fn("empty", |xs: &Vec<i64>| Severity::from_bool(xs.is_empty()));
        set
    }

    fn plain_set() -> AssertionSet<Vec<i64>> {
        let mut set = AssertionSet::new();
        set.add_fn("negative-sum", |xs: &Vec<i64>| {
            Severity::from_bool(xs.iter().sum::<i64>() < 0)
        });
        set.add_fn("huge-sum", |xs: &Vec<i64>| {
            Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 100.0)
        });
        set.add_fn("empty", |xs: &Vec<i64>| Severity::from_bool(xs.is_empty()));
        set
    }

    fn samples() -> Vec<Vec<i64>> {
        vec![vec![-5, 2], vec![], vec![300, 7], vec![1], vec![-900]]
    }

    #[test]
    fn check_all_prepared_matches_check_all() {
        let set = prepared_set();
        for s in samples() {
            let prep: i64 = s.iter().sum();
            assert_eq!(set.check_all_prepared(&s, &prep), set.check_all(&s));
        }
    }

    fn sum_prep() -> FnPrepare<fn(&Vec<i64>) -> i64> {
        FnPrepare::new(|xs| xs.iter().sum())
    }

    #[test]
    fn stream_monitor_matches_batch_monitor() {
        let samples = samples();
        let mut reference = Monitor::with_assertions(plain_set());
        let want: Vec<_> = samples.iter().map(|s| reference.process(s)).collect();

        let mut stream = Monitor::with_preparer(prepared_set(), sum_prep());
        let got: Vec<_> = samples.iter().map(|s| stream.process(s)).collect();
        assert_eq!(got, want);
        assert_eq!(stream.db(), reference.db());
        assert_eq!(stream.prepare_count(), samples.len());

        for threads in [1, 2, 8] {
            let mut batch = Monitor::with_preparer(prepared_set(), sum_prep());
            let reports = batch.process_batch(&samples, &ThreadPool::exact(threads));
            assert_eq!(reports, want, "threads={threads}");
            assert_eq!(batch.db(), reference.db(), "threads={threads}");
            assert_eq!(batch.prepare_count(), samples.len());
        }
    }

    #[test]
    fn counting_prepare_counts_once_per_sample() {
        let counter = Arc::new(AtomicUsize::new(0));
        let probe = CountingPrepare::new(sum_prep(), counter.clone());
        let mut m = Monitor::with_preparer(prepared_set(), probe);
        let samples = samples();
        m.process_batch(&samples, &ThreadPool::exact(4));
        m.process(&samples[0]);
        assert_eq!(counter.load(Ordering::SeqCst), samples.len() + 1);
    }

    #[test]
    fn stream_monitor_fires_actions_in_sample_order() {
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let fired2 = fired.clone();
        let mut m = Monitor::with_preparer(prepared_set(), sum_prep());
        m.on_severity(Severity::new(1.5), move |_, r: &SampleReport| {
            fired2.lock().unwrap().push(r.sample);
        });
        m.process_batch(&samples(), &ThreadPool::exact(4));
        assert_eq!(*fired.lock().unwrap(), vec![2, 4]);
    }

    #[test]
    fn retention_caps_resident_db_without_changing_reports() {
        let mut unbounded = Monitor::with_preparer(prepared_set(), sum_prep());
        let mut capped = Monitor::with_preparer(prepared_set(), sum_prep()).with_retention(2);
        let stream: Vec<Vec<i64>> = (0..20).map(|i| vec![i - 10, 3]).collect();
        for sample in &stream {
            assert_eq!(capped.process(sample), unbounded.process(sample));
        }
        assert!(
            capped.db().len() <= 2 * capped.assertions().len(),
            "resident rows exceed the cap: {}",
            capped.db().len()
        );
        assert_eq!(capped.db().evicted_before(), 18);
        // Lifetime statistics still cover the whole stream.
        assert_eq!(capped.db().lifetime_len(), unbounded.db().len());
        assert_eq!(
            capped.db().lifetime_fire_counts(),
            unbounded.db().fire_counts()
        );
        // The batch path applies the same cap.
        let mut batch = Monitor::with_preparer(prepared_set(), sum_prep()).with_retention(2);
        batch.process_batch(&stream, &ThreadPool::exact(4));
        assert_eq!(batch.db().evicted_before(), 18);
        assert_eq!(batch.db().lifetime_len(), unbounded.db().len());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_retention_rejected() {
        let _ = Monitor::with_preparer(prepared_set(), sum_prep()).with_retention(0);
    }

    #[test]
    fn no_prep_runs_plain_sets_on_the_stream_engine() {
        let mut m = Monitor::with_preparer(plain_set(), NoPrep);
        let r = m.process(&vec![-3]);
        assert!(r.fired(AssertionId(0)));
        assert_eq!(m.prepare_count(), 1);
        assert!(format!("{m:?}").contains("negative-sum"));
    }

    #[test]
    fn score_batch_is_thread_count_invariant() {
        let set = prepared_set();
        let preparer = sum_prep();
        let samples = samples();
        let want = score_batch(&set, &preparer, &samples, &ThreadPool::sequential());
        assert_eq!(want.len(), samples.len());
        assert_eq!(want.width(), set.len());
        for threads in [2, 8] {
            assert_eq!(
                score_batch(&set, &preparer, &samples, &ThreadPool::exact(threads)),
                want,
                "threads={threads}"
            );
        }
        // The matrix rows are exactly the per-sample prepared checks.
        for (i, s) in samples.iter().enumerate() {
            let prep: i64 = s.iter().sum();
            let row: Vec<f64> = set
                .check_all_prepared(s, &prep)
                .into_iter()
                .map(|(_, sev)| sev.value())
                .collect();
            assert_eq!(want.row(i), row.as_slice());
        }
    }

    #[test]
    fn score_rows_chunked_is_thread_count_invariant() {
        let fill = |i: usize, row: &mut Vec<f64>| {
            row.clear();
            row.extend([(i % 7) as f64, (i * 3 % 5) as f64]);
            i as f64 * 0.5
        };
        let want = score_rows_chunked(137, 2, &ThreadPool::sequential(), fill);
        assert_eq!(want.0.len(), 137);
        assert_eq!(want.1.len(), 137);
        for threads in [2, 3, 8] {
            assert_eq!(
                score_rows_chunked(137, 2, &ThreadPool::exact(threads), fill),
                want,
                "threads={threads}"
            );
        }
        let (empty, unc) = score_rows_chunked(0, 2, &ThreadPool::exact(4), fill);
        assert!(empty.is_empty() && unc.is_empty());
    }

    /// The zero-respawn probe of the persistent runtime: a streaming hot
    /// loop that re-enters the scoring driver repeatedly must never
    /// create a thread beyond the pool's initial workers.
    #[test]
    fn repeated_stream_scoring_never_respawns_workers() {
        let data: Vec<i64> = (0..500).map(|i| (i % 13) as i64 - 6).collect();
        // Clamped window sums, as the scenario drivers fill their rows.
        let fill = |i: usize, row: &mut Vec<f64>| {
            let (lo, hi) = (i.saturating_sub(2), (i + 3).min(data.len()));
            row.clear();
            row.push(data[lo..hi].iter().sum::<i64>() as f64);
            (hi - lo) as f64
        };
        let pool = ThreadPool::exact(4);
        assert_eq!(pool.spawned_workers(), 3, "workers spawn at construction");
        let want = score_rows_chunked(data.len(), 1, &ThreadPool::sequential(), fill);
        for _ in 0..25 {
            assert_eq!(score_rows_chunked(data.len(), 1, &pool, fill), want);
        }
        assert_eq!(
            pool.spawned_workers(),
            3,
            "stream scoring must submit jobs to parked workers, not spawn"
        );
    }
}
