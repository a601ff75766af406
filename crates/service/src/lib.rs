//! The **multi-tenant monitoring service**: the production shape of
//! model-assertion monitoring.
//!
//! The paper argues assertions are cheap enough to run "over every model
//! invocation" in deployment (§7); a real deployment is not one stream
//! but thousands of concurrent sessions — cameras, vehicles, patients —
//! sharing one scenario's assertion sets and models. This crate layers
//! that shape over the streaming engine:
//!
//! * [`SyncMap`] — the concurrent `Arc`-cached map (read-then-write on
//!   `RwLock<BTreeMap>`) behind every shared registry here: construct
//!   once under race, share forever.
//! * [`MonitorService`] — session-keyed monitor shards over one
//!   scenario. Each session owns one item buffer — the window context
//!   later centers still need, then a bounded ingest backlog
//!   ([`MonitorService::try_ingest`] pushes back with
//!   [`IngestError::QueueFull`] instead of growing) — and a
//!   retention-capped database; drains score windows as borrowed
//!   slices of that buffer and divide work at **session** granularity
//!   across the pool.
//! * [`DynService`] / [`ServiceHarness`] — the type-erased face the
//!   conformance suite and the `exp service` soak benchmark drive, and
//!   [`ServicePool`], the name-keyed registry sharing whole services.
//!
//! The load-bearing contract: a session's output sequence is
//! **bit-for-bit** the sequential [`omg_scenario::stream_score_scenario`]
//! run of the same items, no matter how sessions interleave or how many
//! workers drain them — enforced for every registered scenario at 1/2/8
//! workers by the registry-driven conformance suite
//! (`tests/tests/service_conformance.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod service;
mod syncmap;

pub use harness::{DynService, ServiceHarness, ServicePool};
pub use service::{IngestError, MonitorService, ServiceConfig, SessionId, SessionReport};
pub use syncmap::SyncMap;

// Re-exported so service callers can name the runtime and the score
// types without extra imports.
pub use omg_scenario::{Scores, ThreadPool};

#[cfg(test)]
mod tests {
    use super::*;
    use omg_core::stream::{FnPrepare, Prepare};
    use omg_core::{AssertionSet, FnAssertion, Severity, SeverityMatrix};
    use omg_scenario::{stream_score_scenario, Scenario};
    use rand::rngs::StdRng;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A toy stream item: a small integer, plus whatever the item type
    /// instruments.
    trait ToyItem: Clone + Send + Sync + 'static {
        fn from_value(value: i64) -> Self;
        fn value(&self) -> i64;
    }

    impl ToyItem for i64 {
        fn from_value(value: i64) -> Self {
            value
        }

        fn value(&self) -> i64 {
            *self
        }
    }

    /// Clones of [`Counted`] items, process-wide (only the zero-clone
    /// test uses the type, so no other test moves the count).
    static COUNTED_CLONES: AtomicUsize = AtomicUsize::new(0);

    /// A toy item that counts every clone of itself.
    #[derive(Debug)]
    struct Counted(i64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            COUNTED_CLONES.fetch_add(1, Ordering::SeqCst);
            Counted(self.0)
        }
    }

    impl ToyItem for Counted {
        fn from_value(value: i64) -> Self {
            Counted(value)
        }

        fn value(&self) -> i64 {
            self.0
        }
    }

    /// A deterministic toy scenario: items are small integers, samples
    /// are the window's item values, the shared preparation is the
    /// window sum.
    #[derive(Clone)]
    struct Toy<T = i64> {
        n: usize,
        half: usize,
        item: PhantomData<fn() -> T>,
    }

    impl<T> Toy<T> {
        fn new(n: usize, half: usize) -> Self {
            Self {
                n,
                half,
                item: PhantomData,
            }
        }
    }

    /// The `half = 1` integer toy most tests use.
    fn toy(n: usize) -> Toy {
        Toy::new(n, 1)
    }

    impl<T: ToyItem> Scenario for Toy<T> {
        type Item = T;
        type Sample = Vec<i64>;
        type Prep = i64;
        type Model = ();
        type Labels = ();

        fn name(&self) -> &'static str {
            "toy-service"
        }

        fn window_half(&self) -> usize {
            self.half
        }

        fn pool_len(&self) -> usize {
            self.n
        }

        fn pretrained_model(&self, _seed: u64) {}

        fn run_model(&self, _model: &()) -> Vec<T> {
            (0..self.n as i64)
                .map(|i| T::from_value((i * 37) % 23 - 11))
                .collect()
        }

        fn assertion_set(&self) -> AssertionSet<Vec<i64>> {
            let mut set = AssertionSet::new();
            set.add_fn("negative-sum", |xs: &Vec<i64>| {
                Severity::from_bool(xs.iter().sum::<i64>() < 0)
            });
            set.add_fn("large-sum", |xs: &Vec<i64>| {
                Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 8.0)
            });
            set
        }

        fn prepared_set(&self) -> AssertionSet<Vec<i64>, i64> {
            let mut set = AssertionSet::new();
            set.add_prepared(
                FnAssertion::new("negative-sum", |xs: &Vec<i64>| {
                    Severity::from_bool(xs.iter().sum::<i64>() < 0)
                }),
                |_, &sum: &i64| Severity::from_bool(sum < 0),
            );
            set.add_prepared(
                FnAssertion::new("large-sum", |xs: &Vec<i64>| {
                    Severity::new(xs.iter().sum::<i64>().unsigned_abs() as f64 / 8.0)
                }),
                |_, &sum: &i64| Severity::new(sum.unsigned_abs() as f64 / 8.0),
            );
            set
        }

        fn preparer(&self) -> Box<dyn Prepare<Vec<i64>, Prepared = i64>> {
            Box::new(FnPrepare::new(|xs: &Vec<i64>| xs.iter().sum::<i64>()))
        }

        fn make_sample(&self, items: &[T], _center: usize) -> Vec<i64> {
            items.iter().map(T::value).collect()
        }

        fn uncertainty(&self, item: &T) -> f64 {
            (item.value() as f64) / 10.0
        }

        fn trains(&self) -> bool {
            false
        }

        fn initial_labels(&self) {}

        fn label_into(&self, _labels: &mut (), _pool_index: usize) {}

        fn train(&self, _model: &mut (), _labels: &(), _rng: &mut StdRng) {}

        fn evaluate(&self, _model: &()) -> f64 {
            0.0
        }
    }

    fn harness(n: usize, config: ServiceConfig) -> Box<dyn DynService> {
        ServiceHarness::boxed(toy(n), (), config)
    }

    #[test]
    fn interleaved_sessions_match_independent_sequential_runs() {
        for workers in [1, 2, 8] {
            let pool = ThreadPool::exact(workers);
            let svc = harness(40, ServiceConfig::default().with_retention(3));
            // Three sessions over different slices of the stream,
            // ingested round-robin with drains interleaved.
            let slices = [(0usize, 40usize), (0, 17), (11, 23)];
            let mut cursors = [0usize; 3];
            let mut delivered: Vec<Scores> = vec![(SeverityMatrix::new(), Vec::new()); 3];
            loop {
                let mut progressed = false;
                for (s, &(start, len)) in slices.iter().enumerate() {
                    for _ in 0..4 {
                        if cursors[s] < len {
                            svc.try_ingest_position(SessionId(s as u64), start + cursors[s])
                                .expect("default capacity is ample");
                            cursors[s] += 1;
                            progressed = true;
                        }
                    }
                }
                svc.drain(&pool);
                // Poll mid-stream: delivery must compose.
                for (s, out) in delivered.iter_mut().enumerate() {
                    let (sev, unc) = svc.poll(SessionId(s as u64)).expect("open session");
                    out.0.append(&sev);
                    out.1.extend(unc);
                }
                if !progressed {
                    break;
                }
            }
            for (s, &(start, len)) in slices.iter().enumerate() {
                let (sev, unc) = svc.finish(SessionId(s as u64)).expect("open session");
                delivered[s].0.append(&sev);
                delivered[s].1.extend(unc);
                let want = svc.sequential_reference(start, len);
                assert_eq!(
                    delivered[s], want,
                    "session {s} diverged from its sequential run (workers={workers})"
                );
            }
            assert_eq!(svc.sessions(), 0, "finish tears sessions down");
        }
    }

    /// The backpressure satellite: a full bounded queue rejects with
    /// `QueueFull` without dropping already-accepted items, and drains
    /// to empty after the shard resumes.
    #[test]
    fn full_queue_rejects_without_dropping_accepted_items() {
        let svc = harness(20, ServiceConfig::default().with_queue_capacity(3));
        let session = SessionId(9);
        for position in 0..3 {
            svc.try_ingest_position(session, position)
                .expect("under capacity");
        }
        assert_eq!(
            svc.try_ingest_position(session, 3),
            Err(IngestError::QueueFull {
                session,
                capacity: 3
            })
        );
        assert_eq!(svc.queued(), 3, "rejection dropped nothing");
        assert_eq!(svc.accepted(), 3);
        // Resume: a drain frees the queue, the rejected item goes
        // through on retry, and everything scores in order.
        svc.drain(&ThreadPool::exact(2));
        assert_eq!(svc.queued(), 0, "drained to empty");
        for position in 3..6 {
            svc.try_ingest_position(session, position)
                .expect("freed capacity");
        }
        svc.drain(&ThreadPool::exact(2));
        let got = svc.finish(session).expect("open session");
        assert_eq!(got, svc.sequential_reference(0, 6), "no gap, no reorder");
    }

    /// The flat-memory contract: with retention configured, resident
    /// database rows stay bounded no matter how many items flow
    /// through.
    #[test]
    fn retention_keeps_resident_records_flat() {
        let keep = 4;
        let svc = harness(
            200,
            ServiceConfig::default()
                .with_queue_capacity(16)
                .with_retention(keep),
        );
        let pool = ThreadPool::exact(2);
        let assertions = svc.assertion_names().len();
        let sessions = 3u64;
        let mut max_resident = 0usize;
        for position in 0..200 {
            for s in 0..sessions {
                while svc.try_ingest_position(SessionId(s), position).is_err() {
                    svc.drain(&pool);
                }
            }
            if position % 8 == 0 {
                svc.drain(&pool);
                max_resident = max_resident.max(svc.resident_records());
                for s in 0..sessions {
                    let _ = svc.poll(SessionId(s));
                }
            }
        }
        let bound = sessions as usize * keep * assertions;
        assert!(
            max_resident <= bound,
            "resident rows {max_resident} exceed the flat bound {bound}"
        );
        assert_eq!(svc.accepted(), 600);
    }

    #[test]
    fn idle_sessions_are_evicted_but_busy_ones_survive() {
        let svc = harness(
            30,
            ServiceConfig::default()
                .with_queue_capacity(8)
                .with_idle_eviction(2),
        );
        let pool = ThreadPool::sequential();
        let idle = SessionId(1);
        let busy = SessionId(2);
        svc.try_ingest_position(idle, 0).expect("capacity");
        for tick in 0..6 {
            // `busy` keeps ingesting every tick; `idle` went quiet.
            svc.try_ingest_position(busy, tick).expect("capacity");
            svc.drain(&pool);
            let _ = svc.poll(idle);
            let _ = svc.poll(busy);
        }
        assert_eq!(svc.sessions(), 1, "idle session evicted");
        assert!(svc.poll(idle).is_none(), "evicted session is gone");
        assert!(svc.poll(busy).is_some(), "active session survives");
    }

    #[test]
    fn eviction_never_drops_queued_items_or_unpolled_outputs() {
        let svc = harness(
            30,
            ServiceConfig::default()
                .with_queue_capacity(8)
                .with_idle_eviction(1),
        );
        let pool = ThreadPool::sequential();
        let session = SessionId(4);
        for position in 0..6 {
            svc.try_ingest_position(session, position)
                .expect("capacity");
        }
        // Many drains pass; outputs are never polled, so the session —
        // though idle — must not be evicted out from under its data.
        for _ in 0..5 {
            svc.drain(&pool);
        }
        assert_eq!(svc.sessions(), 1, "unpolled outputs pin the session");
        let (sev, _) = svc.poll(session).expect("still alive");
        assert!(!sev.is_empty());
        // Now fully delivered and idle: the next drains sweep it.
        for _ in 0..3 {
            svc.drain(&pool);
        }
        assert_eq!(svc.sessions(), 0, "delivered idle session evicted");
    }

    /// Regression: `finish` used to count the windows its final drain
    /// scored twice in `SessionReport::scored` (once inside the drain,
    /// again with the flushed tail) — 5 queued items reported 9 scored
    /// windows for 5 delivered rows.
    #[test]
    fn finish_counts_every_scored_window_once() {
        let svc = MonitorService::new(toy(5), ServiceConfig::default());
        let items = svc.scenario().run_model(&());
        // `drained` is drained mid-stream; `queued` first sees its
        // items after that drain, so finish scores all five.
        let (queued, drained) = (SessionId(0), SessionId(1));
        for (k, &item) in items.iter().enumerate() {
            svc.try_ingest(drained, item).expect("capacity");
            if k == 2 {
                svc.drain(&ThreadPool::sequential());
            }
        }
        for &item in &items {
            svc.try_ingest(queued, item).expect("capacity");
        }
        for session in [queued, drained] {
            // Nothing was polled, so the report carries every row.
            let report = svc.finish(session).expect("open session");
            assert_eq!(
                (report.scored, report.scores.0.len(), report.accepted),
                (items.len(), items.len(), items.len()),
                "{session}: scored == rows == accepted"
            );
        }
        assert_eq!(svc.scored(), svc.accepted());
    }

    /// Appends one batch of delivered outputs to a running total.
    fn extend_scores(total: &mut Scores, (sev, unc): Scores) {
        total.0.append(&sev);
        total.1.extend(unc);
    }

    /// The sequential reference: [`stream_score_scenario`] over `items`.
    fn stream_reference<T: ToyItem>(svc: &MonitorService<Toy<T>>, items: &[T]) -> Scores {
        stream_score_scenario(
            svc.scenario(),
            svc.assertion_set(),
            svc.preparer(),
            items,
            &ThreadPool::sequential(),
        )
    }

    /// Feeds one session of a fresh `Toy::new(n, half)` service its
    /// whole stream — draining after item `k` when bit 0 of `steps[k]`
    /// is set and polling when bit 1 is — and finishes it. Returns every
    /// delivered output and the sequential run of the same items.
    fn session_and_reference(half: usize, n: usize, steps: &[u8]) -> (Scores, Scores) {
        let svc = MonitorService::new(Toy::<i64>::new(n, half), ServiceConfig::default());
        let items = svc.scenario().run_model(&());
        let want = stream_reference(&svc, &items);
        let session = SessionId(0);
        svc.open(session);
        let pool = ThreadPool::sequential();
        let mut got = (SeverityMatrix::new(), Vec::new());
        for (k, item) in items.into_iter().enumerate() {
            svc.try_ingest(session, item)
                .expect("default capacity is ample");
            let step = steps.get(k).copied().unwrap_or(0);
            if step & 1 == 1 {
                svc.drain(&pool);
            }
            if step & 2 == 2 {
                extend_scores(&mut got, svc.poll(session).expect("open session"));
            }
        }
        let report = svc.finish(session).expect("open session");
        assert_eq!(
            (report.accepted, report.scored),
            (n, n),
            "half={half} n={n}"
        );
        extend_scores(&mut got, report.scores);
        (got, want)
    }

    /// The clamped edges, deterministically: `half = 0` (one-item
    /// windows), empty and one-item streams, and streams shorter than
    /// one full window (`n < 2·half + 1`), where both edges clamp at
    /// once — with no mid-stream drain, a drain after every item, and a
    /// drain plus poll after every item.
    #[test]
    fn clamped_edge_windows_match_the_stream_scorer() {
        for half in 0..4 {
            for n in [0, 1, 2, 5, 9] {
                for steps in [&[][..], &[1; 9], &[3; 9]] {
                    let (got, want) = session_and_reference(half, n, steps);
                    assert_eq!(got, want, "half={half} n={n} steps={steps:?}");
                }
            }
        }
    }

    proptest::proptest! {
        /// At any drain and poll points, for any `half` and stream
        /// length, a session delivers exactly the sequential stream
        /// scorer's outputs, bit for bit.
        #[test]
        fn session_equals_stream_scorer_prop(
            half in 0usize..5,
            n in 0usize..48,
            steps in proptest::collection::vec(0u8..4, 48),
        ) {
            let (got, want) = session_and_reference(half, n, &steps);
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// A long stream in bursts of 1 to 7 items: after every drain a
    /// session buffers at most `4·half` items (the context the next
    /// windows need plus dead items not yet compacted), and its outputs
    /// still equal the sequential run.
    #[test]
    fn session_buffer_stays_within_a_few_windows() {
        for half in [0, 1, 3] {
            let n = 2000;
            let svc = MonitorService::new(
                Toy::<i64>::new(n, half),
                ServiceConfig::default().with_queue_capacity(8),
            );
            let items = svc.scenario().run_model(&());
            let want = stream_reference(&svc, &items);
            let session = SessionId(0);
            let pool = ThreadPool::sequential();
            let mut got = (SeverityMatrix::new(), Vec::new());
            let mut burst = 1;
            for (k, item) in items.into_iter().enumerate() {
                svc.try_ingest(session, item)
                    .expect("drained before capacity");
                burst -= 1;
                if burst == 0 {
                    svc.drain(&pool);
                    extend_scores(&mut got, svc.poll(session).expect("open session"));
                    let buffered = svc.buffered(session).expect("open session");
                    assert!(
                        buffered <= 4 * half,
                        "half={half}: {buffered} items buffered"
                    );
                    burst = 1 + k % 7;
                }
            }
            extend_scores(&mut got, svc.finish(session).expect("open session").scores);
            assert_eq!(got, want, "half={half}");
        }
    }

    /// Every item is moved once, into its session's buffer: scoring,
    /// compaction and the finish flush clone none, with two sessions
    /// drained across two workers.
    #[test]
    fn sessions_never_clone_an_item() {
        let svc = MonitorService::new(
            Toy::<Counted>::new(300, 2),
            ServiceConfig::default().with_queue_capacity(16),
        );
        let want = stream_reference(&svc, &svc.scenario().run_model(&()));
        let sessions = [SessionId(0), SessionId(1)];
        let [a, b] = sessions.map(|_| svc.scenario().run_model(&()));
        let pool = ThreadPool::exact(2);
        let mut got = [(); 2].map(|_| (SeverityMatrix::new(), Vec::new()));
        for (k, (x, y)) in a.into_iter().zip(b).enumerate() {
            svc.try_ingest(sessions[0], x).expect("capacity");
            svc.try_ingest(sessions[1], y).expect("capacity");
            if k % 5 == 4 {
                svc.drain(&pool);
                for (session, out) in sessions.iter().zip(&mut got) {
                    extend_scores(out, svc.poll(*session).expect("open session"));
                }
            }
        }
        for (session, out) in sessions.iter().zip(&mut got) {
            extend_scores(out, svc.finish(*session).expect("open session").scores);
            assert_eq!(*out, want, "{session}");
        }
        assert_eq!(
            COUNTED_CLONES.load(Ordering::SeqCst),
            0,
            "an item was cloned"
        );
    }

    /// Regression: `try_ingest` looked its shard up, released the
    /// table lock, then locked the shard. An idle eviction in that gap
    /// removed the shard, and the ingest accepted into an orphan no
    /// drain would reach again — `Ok`, counted in `accepted()`, never
    /// scored. With eviction at 0 idle ticks, a drain-and-poll loop
    /// races every ingest; every accepted item must come back as
    /// exactly one row.
    #[test]
    fn eviction_racing_ingest_loses_no_accepted_item() {
        const ITEMS: usize = 2_000_000;
        let svc = MonitorService::new(
            Toy::<i64>::new(0, 0),
            ServiceConfig::default()
                .with_queue_capacity(ITEMS)
                .with_idle_eviction(0),
        );
        let session = SessionId(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let delivered = std::thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let pool = ThreadPool::sequential();
                let mut rows = 0;
                while !done.load(Ordering::SeqCst) {
                    svc.drain(&pool);
                    rows += svc.poll(session).map_or(0, |(sev, _)| sev.len());
                }
                rows
            });
            for k in 0..ITEMS as i64 {
                svc.try_ingest(session, k % 5 - 2).expect("capacity");
            }
            done.store(true, Ordering::SeqCst);
            drainer.join().expect("drain loop panicked")
        });
        let flushed = svc.finish(session).map_or(0, |r| r.scores.0.len());
        assert_eq!(svc.accepted(), ITEMS);
        assert_eq!(
            delivered + flushed,
            ITEMS,
            "accepted items were never scored"
        );
    }

    #[test]
    fn service_pool_shares_one_service_per_name() {
        let registry = ServicePool::new();
        assert!(registry.is_empty());
        let a = registry.get_or_build("toy", || harness(10, ServiceConfig::default()));
        let b = registry.get_or_build("toy", || unreachable!("cached after first touch"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.len(), 1);
        assert!(registry.get("toy").is_some());
        assert!(registry.get("other").is_none());
        // Sessions opened through one handle are visible through the
        // other: it is the same service.
        a.open(SessionId(1));
        assert_eq!(b.sessions(), 1);
    }
}
