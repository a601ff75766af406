use crate::runtime::ThreadPool;
use crate::stream::{score_batch, NoPrep, Prepare};
use crate::{AssertionDb, AssertionId, AssertionSet, Severity};

/// The outcomes of running the assertion set on one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleReport {
    /// The sample's monotonic index in the monitor's stream.
    pub sample: usize,
    /// Dense `(assertion, severity)` vector in assertion-id order.
    pub outcomes: Vec<(AssertionId, Severity)>,
}

impl SampleReport {
    /// The severity the given assertion produced on this sample, if it
    /// was checked.
    ///
    /// Outcomes from `AssertionSet::check_all` are dense in id order, so
    /// this is a direct index; hand-built sparse reports fall back to a
    /// scan.
    pub fn severity(&self, id: AssertionId) -> Option<Severity> {
        match self.outcomes.get(id.0) {
            Some(&(a, s)) if a == id => Some(s),
            _ => self
                .outcomes
                .iter()
                .find(|&&(a, _)| a == id)
                .map(|&(_, s)| s),
        }
    }

    /// Whether the given assertion fired on this sample.
    pub fn fired(&self, id: AssertionId) -> bool {
        self.severity(id).is_some_and(|s| s.fired())
    }

    /// Whether any assertion fired.
    pub fn any_fired(&self) -> bool {
        self.outcomes.iter().any(|&(_, s)| s.fired())
    }

    /// The highest severity across assertions on this sample.
    pub fn max_severity(&self) -> Severity {
        self.outcomes
            .iter()
            .map(|&(_, s)| s)
            .fold(Severity::ABSTAIN, Severity::max)
    }

    /// The severity vector as plain floats (BAL's context for this
    /// sample).
    pub fn severity_vector(&self) -> Vec<f64> {
        self.outcomes.iter().map(|&(_, s)| s.value()).collect()
    }
}

/// A corrective action hook: invoked when an assertion's severity reaches
/// its threshold.
type ActionHook<S> = Box<dyn FnMut(&S, &SampleReport) + Send>;

/// Runtime monitor: runs registered assertions after every model
/// invocation, appends outcomes to the [`AssertionDb`], and fires
/// corrective-action hooks.
///
/// This is the deployment-time face of OMG (§2.3): "model assertions can
/// be used for monitoring and validating all parts of the ML
/// development/deployment pipeline … to log unexpected behavior or
/// automatically trigger corrective actions".
///
/// The second type parameter is the set's shared preparation artifact
/// (see [`crate::stream`]). A monitor built with [`Monitor::new`] or
/// [`Monitor::with_assertions`] runs a plain set with [`NoPrep`];
/// [`Monitor::with_preparer`] runs the expensive per-sample derivation
/// exactly once per sample and shares it across every assertion. Both
/// produce bit-for-bit the reports [`AssertionSet::check_all`] implies.
///
/// See the [crate-level example](crate) for typical usage.
pub struct Monitor<S, P = ()> {
    assertions: AssertionSet<S, P>,
    preparer: Box<dyn Prepare<S, Prepared = P>>,
    db: AssertionDb,
    next_sample: usize,
    actions: Vec<(Severity, ActionHook<S>)>,
    /// Optional retention cap: after every commit the database keeps at
    /// most this many recent sample rows (see
    /// [`AssertionDb::retain_recent`]). `None` retains everything.
    retention: Option<usize>,
}

impl<S: 'static> Monitor<S> {
    /// Creates a monitor with an empty assertion set.
    pub fn new() -> Self {
        Self::with_assertions(AssertionSet::new())
    }

    /// Creates a monitor around an existing assertion set.
    pub fn with_assertions(assertions: AssertionSet<S>) -> Self {
        Self::with_preparer(assertions, NoPrep)
    }
}

impl<S: 'static, P: Send + 'static> Monitor<S, P> {
    /// Creates a monitor around an assertion set and the preparer
    /// producing its shared artifact: every sample is prepared once and
    /// the artifact is shared by every assertion in the set.
    ///
    /// # Example
    ///
    /// ```
    /// use omg_core::stream::FnPrepare;
    /// use omg_core::{AssertionSet, FnAssertion, Monitor, Severity};
    ///
    /// // Shared preparation: the (expensive, imagine) sum of the sample.
    /// let mut set: AssertionSet<Vec<i64>, i64> = AssertionSet::new();
    /// set.add_prepared(
    ///     FnAssertion::new("negative-sum", |xs: &Vec<i64>| {
    ///         Severity::from_bool(xs.iter().sum::<i64>() < 0)
    ///     }),
    ///     |_, &sum| Severity::from_bool(sum < 0),
    /// );
    /// let mut m = Monitor::with_preparer(set, FnPrepare::new(|xs: &Vec<i64>| xs.iter().sum()));
    /// assert!(m.process(&vec![-2, 1]).any_fired());
    /// assert!(!m.process(&vec![2, 1]).any_fired());
    /// assert_eq!(m.samples_processed(), 2);
    /// assert_eq!(m.prepare_count(), 2);
    /// ```
    pub fn with_preparer<Pr>(assertions: AssertionSet<S, P>, preparer: Pr) -> Self
    where
        Pr: Prepare<S, Prepared = P> + 'static,
    {
        Self {
            assertions,
            preparer: Box::new(preparer),
            db: AssertionDb::new(),
            next_sample: 0,
            actions: Vec::new(),
            retention: None,
        }
    }

    /// Caps the database at the `keep` most recent sample rows: after
    /// every `process`/`process_batch`, older rows are evicted (lifetime
    /// fire counters survive — see [`AssertionDb`]'s retention docs).
    /// This is what keeps a long-lived monitor's memory flat under
    /// unbounded traffic; reports and corrective actions are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    #[must_use]
    pub fn with_retention(mut self, keep: usize) -> Self {
        assert!(keep > 0, "retention cap must keep at least one sample");
        self.retention = Some(keep);
        self
    }

    /// The registered assertions.
    pub fn assertions(&self) -> &AssertionSet<S, P> {
        &self.assertions
    }

    /// Mutable access for registering assertions.
    pub fn assertions_mut(&mut self) -> &mut AssertionSet<S, P> {
        &mut self.assertions
    }

    /// The assertion database accumulated so far.
    pub fn db(&self) -> &AssertionDb {
        &self.db
    }

    /// Registers a corrective action invoked whenever a sample's maximum
    /// severity is at least `threshold` (e.g. log, alert, disengage an
    /// autopilot).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` does not fire (`threshold == ABSTAIN` would
    /// trigger on every sample; require an explicit positive threshold).
    pub fn on_severity<F>(&mut self, threshold: Severity, action: F)
    where
        F: FnMut(&S, &SampleReport) + Send + 'static,
    {
        assert!(
            threshold.fired(),
            "corrective-action threshold must be positive"
        );
        self.actions.push((threshold, Box::new(action)));
    }

    /// Runs all assertions on one sample: prepares it once, checks every
    /// assertion against the shared artifact, records the outcomes in
    /// the database, fires any corrective actions, and returns the
    /// report.
    pub fn process(&mut self, sample: &S) -> SampleReport {
        let prep = self.preparer.prepare(sample);
        let outcomes = self.assertions.check_all_prepared(sample, &prep);
        let index = self.next_sample;
        self.db.record_sample(index, &outcomes);
        self.advance(1);
        self.report(sample, index, outcomes)
    }

    /// Processes a batch of samples, returning one report per sample.
    pub fn process_all<'a, I>(&mut self, samples: I) -> Vec<SampleReport>
    where
        I: IntoIterator<Item = &'a S>,
        S: 'a,
    {
        samples.into_iter().map(|s| self.process(s)).collect()
    }

    /// Processes a batch of samples, scoring every sample (one
    /// preparation plus every assertion) across the pool's workers, then
    /// merging deterministically.
    ///
    /// The parallel phase shares `&self.assertions` and the preparer
    /// across workers (both are `Send + Sync`) and computes each
    /// sample's dense severity row; the merge phase then runs on the
    /// calling thread **in sample order**: rows are appended to the
    /// [`AssertionDb`] shard-by-shard and corrective actions fire in the
    /// same order the sequential path would fire them.
    ///
    /// **Determinism invariant:** for pure assertions and a deterministic
    /// preparer, this produces bit-for-bit the same reports, database
    /// contents, and corrective-action sequence as calling
    /// [`Monitor::process`] on each sample in order, at any thread count
    /// (enforced by the engine's property tests at 1/2/8 threads).
    pub fn process_batch(&mut self, samples: &[S], pool: &ThreadPool) -> Vec<SampleReport>
    where
        S: Sync,
    {
        let matrix = score_batch(&self.assertions, self.preparer.as_ref(), samples, pool);
        let first = self.next_sample;
        self.db.record_matrix(first, &matrix);
        self.advance(samples.len());
        samples
            .iter()
            .zip(matrix.iter_rows())
            .enumerate()
            .map(|(i, (sample, row))| {
                // Severity::new round-trips raw values exactly, so these
                // outcome rows are bit-for-bit the sequential path's.
                let outcomes = row
                    .iter()
                    .enumerate()
                    .map(|(m, &v)| (AssertionId(m), Severity::new(v)))
                    .collect();
                self.report(sample, first + i, outcomes)
            })
            .collect()
    }

    /// Counts `n` newly recorded samples and applies the retention cap.
    fn advance(&mut self, n: usize) {
        self.next_sample += n;
        if let Some(keep) = self.retention {
            self.db.retain_recent(keep);
        }
    }

    /// Builds one sample's report and fires the corrective actions its
    /// maximum severity crosses.
    fn report(
        &mut self,
        sample: &S,
        index: usize,
        outcomes: Vec<(AssertionId, Severity)>,
    ) -> SampleReport {
        let report = SampleReport {
            sample: index,
            outcomes,
        };
        let max = report.max_severity();
        for (threshold, action) in &mut self.actions {
            if max >= *threshold {
                action(sample, &report);
            }
        }
        report
    }

    /// Number of samples processed.
    pub fn samples_processed(&self) -> usize {
        self.next_sample
    }

    /// Number of preparation runs so far. The monitor prepares every
    /// processed sample exactly once, so this is
    /// [`Monitor::samples_processed`]; wrap the preparer in a
    /// [`crate::stream::CountingPrepare`] to observe the calls directly.
    pub fn prepare_count(&self) -> usize {
        self.next_sample
    }
}

impl<S: 'static> Default for Monitor<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: 'static, P: Send + 'static> std::fmt::Debug for Monitor<S, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("assertions", &self.assertions.names())
            .field("samples_processed", &self.next_sample)
            .field("actions", &self.actions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn monitor() -> Monitor<i32> {
        let mut m = Monitor::new();
        m.assertions_mut()
            .add_fn("negative", |&x: &i32| Severity::from_bool(x < 0));
        m.assertions_mut().add_fn("magnitude", |&x: &i32| {
            Severity::new(x.unsigned_abs() as f64 / 100.0)
        });
        m
    }

    #[test]
    fn process_records_and_reports() {
        let mut m = monitor();
        let r = m.process(&-5);
        assert_eq!(r.sample, 0);
        assert!(r.fired(AssertionId(0)));
        assert!(r.any_fired());
        let r2 = m.process(&3);
        assert_eq!(r2.sample, 1);
        assert!(!r2.fired(AssertionId(0)));
        assert_eq!(m.samples_processed(), 2);
        assert_eq!(m.db().fire_count(AssertionId(0)), 1);
    }

    #[test]
    fn max_severity_and_vector() {
        let mut m = monitor();
        let r = m.process(&-200);
        assert_eq!(r.max_severity().value(), 2.0);
        assert_eq!(r.severity_vector(), vec![1.0, 2.0]);
    }

    #[test]
    fn corrective_action_fires_above_threshold() {
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        let mut m = monitor();
        m.on_severity(Severity::new(1.5), move |_, _| {
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        m.process(&-10); // max severity 1.0 < 1.5
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        m.process(&-500); // magnitude severity 5.0
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn abstain_threshold_rejected() {
        monitor().on_severity(Severity::ABSTAIN, |_, _| {});
    }

    #[test]
    fn process_all_batches() {
        let mut m = monitor();
        let samples = vec![-1, 2, -3];
        let reports = m.process_all(&samples);
        assert_eq!(reports.len(), 3);
        assert_eq!(m.db().fire_count(AssertionId(0)), 2);
        assert_eq!(m.db().any_fired_samples(), vec![0, 1, 2]); // magnitude fires on all
    }

    #[test]
    fn severity_matrix_round_trip() {
        let mut m = monitor();
        m.process(&-100);
        m.process(&0);
        let matrix = m.db().severity_matrix();
        assert_eq!(matrix, vec![vec![1.0, 1.0], vec![0.0, 0.0]]);
    }

    #[test]
    fn debug_output() {
        let m = monitor();
        let s = format!("{m:?}");
        assert!(s.contains("negative"));
    }

    #[test]
    fn process_batch_matches_sequential() {
        let samples: Vec<i32> = (-50..50).map(|x| x * 7).collect();
        let mut seq = monitor();
        let seq_reports: Vec<_> = samples.iter().map(|s| seq.process(s)).collect();
        for threads in [1, 2, 8] {
            let mut par = monitor();
            let par_reports = par.process_batch(&samples, &ThreadPool::exact(threads));
            assert_eq!(par_reports, seq_reports, "threads={threads}");
            assert_eq!(par.db(), seq.db(), "threads={threads}");
            assert_eq!(par.samples_processed(), seq.samples_processed());
        }
    }

    #[test]
    fn process_batch_fires_actions_in_sample_order() {
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let fired2 = fired.clone();
        let mut m = monitor();
        m.on_severity(Severity::new(1.5), move |_, r: &SampleReport| {
            fired2.lock().unwrap().push(r.sample);
        });
        let samples = vec![-500, 1, -300, 2, -900];
        m.process_batch(&samples, &ThreadPool::exact(4));
        assert_eq!(*fired.lock().unwrap(), vec![0, 2, 4]);
    }

    #[test]
    fn process_batch_then_process_continues_the_stream() {
        let mut m = monitor();
        m.process_batch(&[-1, 2], &ThreadPool::exact(2));
        let r = m.process(&-3);
        assert_eq!(r.sample, 2);
        assert_eq!(m.db().num_samples(), 3);
    }

    #[test]
    fn sparse_report_lookup_falls_back() {
        // Hand-built sparse report: outcome index != assertion id.
        let r = SampleReport {
            sample: 0,
            outcomes: vec![(AssertionId(3), Severity::FIRED)],
        };
        assert!(r.fired(AssertionId(3)));
        assert!(!r.fired(AssertionId(0)));
        assert_eq!(r.severity(AssertionId(3)), Some(Severity::FIRED));
        assert_eq!(r.severity(AssertionId(1)), None);
    }

    #[test]
    fn monitor_is_send() {
        // Compile-time: a monitor (assertions, db, and boxed `FnMut +
        // Send` hooks) can move to another thread whenever its sample
        // type can.
        fn assert_send<T: Send>() {}
        assert_send::<Monitor<i32>>();
        assert_send::<Monitor<Vec<String>>>();
        // AssertionSet is additionally Sync (shared by batch workers).
        fn assert_sync<T: Sync>() {}
        assert_sync::<AssertionSet<i32>>();
        assert_send::<AssertionSet<i32>>();
    }
}
