use std::error::Error;
use std::fmt;

use omg_core::runtime::ThreadPool;
use omg_core::{SampleReport, SeverityMatrix};

/// Error constructing a [`CandidatePool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolShapeError {
    detail: String,
}

impl fmt::Display for PoolShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inconsistent pool shape: {}", self.detail)
    }
}

impl Error for PoolShapeError {}

/// The unlabeled candidate pool presented to a selection strategy.
///
/// Each candidate carries:
///
/// * a **severity vector** — one entry per registered assertion, `0`
///   meaning the assertion abstained on this point. This is BAL's bandit
///   context ("Each entry in a feature vector is the severity score from a
///   model assertion", §3).
/// * an **uncertainty score** — the model's least-confidence score, used
///   by the uncertainty baseline.
///
/// The severity vectors live in one row-major [`SeverityMatrix`], and
/// construction indexes them once: per assertion, a *posting list* of
/// the candidates it fired on (severity `> 0`), in index order. Fire
/// queries ([`CandidatePool::triggered_by`],
/// [`CandidatePool::fire_counts`]) read the lists instead of rescanning
/// the pool, which is what keeps selection cost proportional to the
/// budget rather than the pool (DESIGN.md §1.8).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePool {
    severities: SeverityMatrix,
    uncertainties: Vec<f64>,
    /// `fired[m]`: candidates with `severity(i, m) > 0`, ascending.
    fired: Vec<Vec<usize>>,
}

impl CandidatePool {
    /// Creates a pool.
    ///
    /// # Errors
    ///
    /// Returns [`PoolShapeError`] if the two inputs disagree in length or
    /// the severity rows are ragged.
    pub fn new(severities: Vec<Vec<f64>>, uncertainties: Vec<f64>) -> Result<Self, PoolShapeError> {
        if severities.len() != uncertainties.len() {
            return Err(PoolShapeError {
                detail: format!(
                    "{} severity rows vs {} uncertainty scores",
                    severities.len(),
                    uncertainties.len()
                ),
            });
        }
        let num_assertions = severities.first().map_or(0, Vec::len);
        if severities.iter().any(|r| r.len() != num_assertions) {
            return Err(PoolShapeError {
                detail: "ragged severity rows".to_string(),
            });
        }
        let mut matrix = SeverityMatrix::with_capacity(severities.len(), num_assertions);
        for row in severities {
            matrix.push_row(&row);
        }
        // Two branch-free passes over the rows (fires are data-dependent
        // coin flips, so a branch per entry mispredicts): count each
        // assertion's fires, then write every row index at its list's
        // cursor and advance the cursor only on a fire. A non-fire's
        // write is overwritten by the next row's or falls off the end.
        let rows = || matrix.values().chunks_exact(num_assertions.max(1));
        let mut cursors = vec![0usize; num_assertions];
        for row in rows() {
            for (at, &s) in cursors.iter_mut().zip(row) {
                *at += usize::from(s > 0.0);
            }
        }
        let mut fired: Vec<Vec<usize>> = cursors.iter().map(|&count| vec![0; count]).collect();
        cursors.fill(0);
        for (i, row) in rows().enumerate() {
            for ((list, at), &s) in fired.iter_mut().zip(cursors.iter_mut()).zip(row) {
                if let Some(slot) = list.get_mut(*at) {
                    *slot = i;
                }
                *at += usize::from(s > 0.0);
            }
        }
        Ok(Self {
            severities: matrix,
            uncertainties,
            fired,
        })
    }

    /// Builds a pool straight from monitor [`SampleReport`]s (e.g. the
    /// output of `Monitor::process_batch`), pairing each report's
    /// severity vector with the candidate's uncertainty score.
    ///
    /// # Errors
    ///
    /// Returns [`PoolShapeError`] if lengths disagree or the reports
    /// carry ragged severity vectors.
    pub fn from_reports(
        reports: &[SampleReport],
        uncertainties: Vec<f64>,
    ) -> Result<Self, PoolShapeError> {
        let severities = reports.iter().map(SampleReport::severity_vector).collect();
        Self::new(severities, uncertainties)
    }

    /// Builds a pool by scoring every candidate in parallel over the
    /// runtime: `scorer(i)` returns candidate `i`'s `(severity vector,
    /// uncertainty)` pair. Results merge in candidate order, so the pool
    /// is identical at any thread count (the scorer must be a pure
    /// function of the index).
    ///
    /// This is the fan-out path the experiment harness uses to
    /// construct pools: running the assertion set over every candidate
    /// window dominates pool-construction cost.
    ///
    /// # Errors
    ///
    /// Returns [`PoolShapeError`] if the scorer produces ragged severity
    /// vectors.
    pub fn build_parallel<F>(
        runtime: &ThreadPool,
        n: usize,
        scorer: F,
    ) -> Result<Self, PoolShapeError>
    where
        F: Fn(usize) -> (Vec<f64>, f64) + Sync,
    {
        let (severities, uncertainties) = runtime.map_indexed(n, scorer).into_iter().unzip();
        Self::new(severities, uncertainties)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.uncertainties.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.uncertainties.is_empty()
    }

    /// Number of assertion dimensions (`d`).
    pub fn num_assertions(&self) -> usize {
        self.fired.len()
    }

    /// Severity of assertion `m` on candidate `i`.
    pub fn severity(&self, i: usize, m: usize) -> f64 {
        // PANIC: documented accessor contract — i and m come from
        // 0..len() / 0..num_assertions(), the pool's own id spaces.
        self.severities.row(i)[m]
    }

    /// The full severity vector (context) of candidate `i`.
    pub fn context(&self, i: usize) -> &[f64] {
        self.severities.row(i)
    }

    /// Model uncertainty of candidate `i`.
    pub fn uncertainty(&self, i: usize) -> f64 {
        // PANIC: same candidate-id contract as severity().
        self.uncertainties[i]
    }

    /// Candidates on which assertion `m` fired (severity > 0), in index
    /// order; empty for an `m` outside `0..num_assertions()`.
    pub fn triggered_by(&self, m: usize) -> &[usize] {
        self.fired.get(m).map_or(&[], Vec::as_slice)
    }

    /// Candidates flagged by at least one assertion.
    pub fn any_triggered(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.context(i).iter().any(|&s| s > 0.0))
            .collect()
    }

    /// Number of candidates on which each assertion fired (the fire-count
    /// vector BAL differences across rounds).
    pub fn fire_counts(&self) -> Vec<usize> {
        self.fired.iter().map(Vec::len).collect()
    }

    /// Per-assertion fire *rates* (counts normalized by pool size), which
    /// are comparable across rounds even as the pool shrinks.
    pub fn fire_rates(&self) -> Vec<f64> {
        let n = self.len().max(1) as f64;
        self.fired.iter().map(|c| c.len() as f64 / n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> CandidatePool {
        CandidatePool::new(
            vec![
                vec![1.0, 0.0],
                vec![0.0, 2.0],
                vec![3.0, 1.0],
                vec![0.0, 0.0],
            ],
            vec![0.1, 0.9, 0.5, 0.3],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let p = pool();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.num_assertions(), 2);
        assert_eq!(p.severity(2, 0), 3.0);
        assert_eq!(p.context(1), &[0.0, 2.0]);
        assert_eq!(p.uncertainty(1), 0.9);
    }

    #[test]
    fn triggered_queries() {
        let p = pool();
        assert_eq!(p.triggered_by(0), &[0, 2]);
        assert_eq!(p.triggered_by(1), &[1, 2]);
        assert!(p.triggered_by(2).is_empty());
        assert_eq!(p.any_triggered(), vec![0, 1, 2]);
        assert_eq!(p.fire_counts(), vec![2, 2]);
        assert_eq!(p.fire_rates(), vec![0.5, 0.5]);
    }

    #[test]
    fn shape_errors() {
        assert!(CandidatePool::new(vec![vec![1.0]], vec![]).is_err());
        assert!(CandidatePool::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn empty_pool() {
        let p = CandidatePool::new(vec![], vec![]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.num_assertions(), 0);
        assert!(p.fire_counts().is_empty());
    }

    #[test]
    fn from_reports_carries_severity_vectors() {
        use omg_core::{Monitor, Severity};
        let mut m: Monitor<i32> = Monitor::new();
        m.assertions_mut()
            .add_fn("neg", |&x: &i32| Severity::from_bool(x < 0));
        m.assertions_mut()
            .add_fn("mag", |&x: &i32| Severity::new(x.abs() as f64));
        let samples = vec![-2, 3];
        let reports = m.process_batch(&samples, &ThreadPool::sequential());
        let p = CandidatePool::from_reports(&reports, vec![0.1, 0.9]).unwrap();
        assert_eq!(p.context(0), &[1.0, 2.0]);
        assert_eq!(p.context(1), &[0.0, 3.0]);
        assert_eq!(p.uncertainty(1), 0.9);
        assert!(CandidatePool::from_reports(&reports, vec![0.5]).is_err());
    }

    #[test]
    fn build_parallel_is_thread_count_invariant() {
        let scorer = |i: usize| {
            (
                vec![i as f64, if i % 3 == 0 { 1.0 } else { 0.0 }],
                i as f64 / 100.0,
            )
        };
        let seq = CandidatePool::build_parallel(&ThreadPool::sequential(), 50, scorer).unwrap();
        for threads in [2, 8] {
            let par =
                CandidatePool::build_parallel(&ThreadPool::exact(threads), 50, scorer).unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
        assert_eq!(seq.len(), 50);
        assert_eq!(seq.num_assertions(), 2);
        // Ragged scorers surface as shape errors.
        let ragged =
            CandidatePool::build_parallel(&ThreadPool::sequential(), 3, |i| (vec![0.0; i], 0.0));
        assert!(ragged.is_err());
    }
}
