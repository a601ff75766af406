//! The multi-tenant monitor: session-keyed shards over the streaming
//! engine.
//!
//! One [`MonitorService`] serves many concurrent sessions of **one**
//! scenario. The expensive scenario resources — the prepared assertion
//! set and its preparer — are built once and shared by every session
//! behind `Arc`s, so opening a session is O(1) allocation, not O(set).
//! Each session owns a [`SessionShard`]-worth of private state: a
//! bounded ingest queue (backpressure, not unbounded growth), a
//! [`SlidingWindows`] slider, an [`AssertionDb`] with optional
//! retention, and the not-yet-polled score outputs.
//!
//! Work divides at **session granularity**: a drain pass hands whole
//! sessions to pool workers ([`ThreadPool::map_indexed_coarse`]), so a
//! worker scores a session's entire backlog with warm caches and zero
//! cross-worker window sharing — the per-window fan-out that ROADMAP
//! item 2 measured *hurting* throughput never happens here.
//!
//! Determinism: a session's outputs depend only on the items ingested
//! into that session, in order. Drains may interleave sessions any way
//! the scheduler likes; the per-session output sequence is bit-for-bit
//! the sequential [`omg_scenario::stream_score_scenario`] run of the
//! same items (the conformance suite enforces this for every registered
//! scenario at 1/2/8 workers), because both score each window with the
//! same kernel, [`omg_scenario::score_window`]. Drains and the finish
//! flush share one per-window step, so every accepted item is scored,
//! recorded and counted exactly once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omg_core::runtime::ThreadPool;
use omg_core::stream::{Prepare, SlidingWindows, Window};
use omg_core::{AssertionDb, AssertionSet, SeverityMatrix};
use omg_scenario::{score_window, Scenario, Scores};

use crate::SyncMap;

/// Identifies one monitoring session (one deployed stream) of a
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Why an ingest was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// The session's bounded queue is at capacity; the item was **not**
    /// accepted and nothing already accepted was dropped. Drain the
    /// service (or poll less often) and retry.
    QueueFull {
        /// The session whose queue is full.
        session: SessionId,
        /// The configured per-session queue capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IngestError::QueueFull { session, capacity } => {
                write!(f, "{session}: ingest queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Tuning knobs for a [`MonitorService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum items a session may have queued (accepted but not yet
    /// scored) before [`MonitorService::try_ingest`] pushes back with
    /// [`IngestError::QueueFull`].
    pub queue_capacity: usize,
    /// Per-session [`AssertionDb`] retention: keep at most this many
    /// recent sample rows resident (lifetime fire counters survive —
    /// see [`AssertionDb::retain_recent`]). `None` retains everything.
    pub retained_samples: Option<usize>,
    /// Evict a session after this many drain passes with no ingest,
    /// once its queue is drained and its outputs polled. `None` never
    /// evicts.
    pub idle_ticks: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            retained_samples: None,
            idle_ticks: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the per-session queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must accept at least one item");
        self.queue_capacity = capacity;
        self
    }

    /// Caps each session's resident database at `keep` recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    #[must_use]
    pub fn with_retention(mut self, keep: usize) -> Self {
        assert!(keep > 0, "retention cap must keep at least one sample");
        self.retained_samples = Some(keep);
        self
    }

    /// Evicts sessions idle for `ticks` consecutive drain passes.
    #[must_use]
    pub fn with_idle_eviction(mut self, ticks: u64) -> Self {
        self.idle_ticks = Some(ticks);
        self
    }
}

/// One session's private monitoring state.
struct SessionShard<Sc: Scenario> {
    /// Accepted-but-unscored items (bounded by the config's capacity).
    queue: VecDeque<Sc::Item>,
    /// The session's window slider (owns the live item suffix).
    windows: SlidingWindows<Sc::Item>,
    /// The session's assertion database (optionally retention-capped).
    db: AssertionDb,
    /// Scored severity rows not yet delivered to a `poll`, columnar.
    out_severities: SeverityMatrix,
    /// Scored uncertainties not yet delivered to a `poll`.
    out_uncertainties: Vec<f64>,
    /// The reusable dense severity row for `score_window`.
    values: Vec<f64>,
    /// Drain-clock value of the last ingest (drives idle eviction).
    last_active: u64,
    /// Items accepted over the session's lifetime.
    accepted: usize,
    /// Windows scored over the session's lifetime.
    scored: usize,
}

impl<Sc: Scenario> SessionShard<Sc> {
    fn new(half: usize, now: u64) -> Self {
        Self {
            queue: VecDeque::new(),
            windows: SlidingWindows::new(half),
            db: AssertionDb::new(),
            out_severities: SeverityMatrix::new(),
            out_uncertainties: Vec::new(),
            values: Vec::new(),
            last_active: now,
            accepted: 0,
            scored: 0,
        }
    }
}

/// A summary returned when a session is finished and torn down.
#[derive(Debug)]
pub struct SessionReport {
    /// The finished session.
    pub session: SessionId,
    /// Outputs scored since the last poll, including the flushed
    /// right-edge tail windows.
    pub scores: Scores,
    /// The session's assertion database (retention applied).
    pub db: AssertionDb,
    /// Items accepted over the session's lifetime.
    pub accepted: usize,
    /// Windows scored over the session's lifetime (equals `accepted`
    /// once finished: every position's window is flushed).
    pub scored: usize,
}

/// A long-lived multi-tenant monitor for one scenario.
///
/// See the [module docs](self) for the architecture; see
/// [`crate::ServicePool`] for the cross-scenario registry that shares
/// whole services by name.
pub struct MonitorService<Sc: Scenario> {
    scenario: Arc<Sc>,
    set: Arc<AssertionSet<Sc::Sample, Sc::Prep>>,
    preparer: Arc<dyn Prepare<Sc::Sample, Prepared = Sc::Prep>>,
    config: ServiceConfig,
    shards: SyncMap<SessionId, Mutex<SessionShard<Sc>>>,
    /// Monotonic drain counter — the service's notion of time.
    clock: AtomicU64,
    accepted_total: AtomicUsize,
    scored_total: AtomicUsize,
}

impl<Sc: Scenario> MonitorService<Sc> {
    /// Builds a service around a scenario, constructing the shared
    /// prepared assertion set and preparer once.
    pub fn new(scenario: Sc, config: ServiceConfig) -> Self {
        let set = Arc::new(scenario.prepared_set());
        let preparer: Arc<dyn Prepare<Sc::Sample, Prepared = Sc::Prep>> =
            Arc::from(scenario.preparer());
        Self::with_shared(Arc::new(scenario), set, preparer, config)
    }

    /// Builds a service around **already-shared** scenario resources —
    /// how several services (say, per tenant tier) reuse one assertion
    /// set and preparer without rebuilding them.
    pub fn with_shared(
        scenario: Arc<Sc>,
        set: Arc<AssertionSet<Sc::Sample, Sc::Prep>>,
        preparer: Arc<dyn Prepare<Sc::Sample, Prepared = Sc::Prep>>,
        config: ServiceConfig,
    ) -> Self {
        Self {
            scenario,
            set,
            preparer,
            config,
            shards: SyncMap::new(),
            clock: AtomicU64::new(0),
            accepted_total: AtomicUsize::new(0),
            scored_total: AtomicUsize::new(0),
        }
    }

    /// The scenario this service monitors.
    pub fn scenario(&self) -> &Sc {
        &self.scenario
    }

    /// The shared prepared assertion set.
    pub fn assertion_set(&self) -> &AssertionSet<Sc::Sample, Sc::Prep> {
        &self.set
    }

    /// The shared preparer.
    pub fn preparer(&self) -> &(dyn Prepare<Sc::Sample, Prepared = Sc::Prep> + '_) {
        self.preparer.as_ref()
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn shard(&self, session: SessionId) -> Arc<Mutex<SessionShard<Sc>>> {
        let half = self.scenario.window_half();
        let now = self.clock.load(Ordering::Relaxed);
        self.shards.get_or_init(session, || {
            Arc::new(Mutex::new(SessionShard::new(half, now)))
        })
    }

    /// Opens a session explicitly (ingest opens implicitly; this exists
    /// so a tenant can pre-register before traffic arrives).
    pub fn open(&self, session: SessionId) {
        let _ = self.shard(session);
    }

    /// Offers one item to a session, opening it on first touch.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::QueueFull`] — without accepting the item
    /// or disturbing anything already accepted — when the session's
    /// bounded queue is at capacity. The caller applies backpressure
    /// upstream and retries after a [`MonitorService::drain`].
    pub fn try_ingest(&self, session: SessionId, item: Sc::Item) -> Result<(), IngestError> {
        let shard = self.shard(session);
        let mut shard = shard.lock().expect("shard poisoned");
        if shard.queue.len() >= self.config.queue_capacity {
            return Err(IngestError::QueueFull {
                session,
                capacity: self.config.queue_capacity,
            });
        }
        shard.queue.push_back(item);
        shard.accepted += 1;
        shard.last_active = self.clock.load(Ordering::Relaxed);
        self.accepted_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Scores one shard's whole backlog — the coarse per-session work
    /// unit a drain pass hands to a pool worker — and, when `flush` is
    /// set (the session is finishing), the right-edge tail windows too.
    /// Returns the number of windows scored.
    fn drain_shard(
        scenario: &Sc,
        set: &AssertionSet<Sc::Sample, Sc::Prep>,
        preparer: &(dyn Prepare<Sc::Sample, Prepared = Sc::Prep> + '_),
        retained: Option<usize>,
        shard: &mut SessionShard<Sc>,
        flush: bool,
    ) -> usize {
        let SessionShard {
            queue,
            windows,
            db,
            out_severities,
            out_uncertainties,
            values,
            scored,
            ..
        } = shard;
        let mut emitted = 0usize;
        // The one per-window step: score, record, retain, buffer.
        let mut emit = |w: Window<'_, Sc::Item>| {
            let unc = score_window(scenario, set, preparer, w.items, w.center, values);
            db.record_row(w.index, values);
            if let Some(keep) = retained {
                db.retain_recent(keep);
            }
            out_severities.push_row(values);
            out_uncertainties.push(unc);
            emitted += 1;
        };
        while let Some(item) = queue.pop_front() {
            if let Some(w) = windows.push(item) {
                emit(w);
            }
        }
        if flush {
            let fresh = SlidingWindows::new(windows.half());
            let mut tail = std::mem::replace(windows, fresh).finish();
            while let Some(w) = tail.next() {
                emit(w);
            }
        }
        *scored += emitted;
        emitted
    }

    /// Drains every session's queue: whole sessions fan out across the
    /// pool's workers (coarse work division — see the module docs), and
    /// each worker scores its session's backlog in ingest order.
    /// Returns the number of windows scored; runs idle eviction if the
    /// config enables it.
    pub fn drain(&self, pool: &ThreadPool) -> usize {
        self.clock.fetch_add(1, Ordering::Relaxed);
        let shards = self.shards.entries();
        let scenario = &*self.scenario;
        let set = &*self.set;
        let preparer = self.preparer.as_ref();
        let retained = self.config.retained_samples;
        let scored: usize = pool
            // PANIC: i < shards.len() by map_indexed_coarse's contract;
            // a poisoned shard means a scorer panicked mid-drain, so
            // the shard state is unusable — propagate.
            .map_indexed_coarse(shards.len(), |i| {
                let mut shard = shards[i].1.lock().expect("shard poisoned");
                Self::drain_shard(scenario, set, preparer, retained, &mut shard, false)
            })
            .into_iter()
            .sum();
        self.scored_total.fetch_add(scored, Ordering::Relaxed);
        if self.config.idle_ticks.is_some() {
            self.evict_idle();
        }
        scored
    }

    /// Takes a session's scored-but-undelivered outputs (severity rows
    /// and uncertainties, in stream order), leaving its buffers empty —
    /// delivery is what keeps a long-lived session's memory flat.
    /// `None` if the session does not exist.
    pub fn poll(&self, session: SessionId) -> Option<Scores> {
        let shard = self.shards.get(&session)?;
        let mut shard = shard.lock().expect("shard poisoned");
        Some((
            std::mem::take(&mut shard.out_severities),
            std::mem::take(&mut shard.out_uncertainties),
        ))
    }

    /// Finishes a session: drains its remaining queue, flushes the
    /// right-edge tail windows (every accepted position ends up
    /// scored), removes the shard, and returns the final report. `None`
    /// if the session does not exist.
    pub fn finish(&self, session: SessionId) -> Option<SessionReport> {
        let shard = self.shards.remove(&session)?;
        // PANIC: poisoning propagation — the drain already panicked.
        let mut shard = shard.lock().expect("shard poisoned");
        let emitted = Self::drain_shard(
            &self.scenario,
            &self.set,
            self.preparer.as_ref(),
            self.config.retained_samples,
            &mut shard,
            true,
        );
        self.scored_total.fetch_add(emitted, Ordering::Relaxed);
        Some(SessionReport {
            session,
            scores: (
                std::mem::take(&mut shard.out_severities),
                std::mem::take(&mut shard.out_uncertainties),
            ),
            db: std::mem::take(&mut shard.db),
            accepted: shard.accepted,
            scored: shard.scored,
        })
    }

    /// Evicts sessions idle for at least the configured `idle_ticks`
    /// drain passes, returning the evicted ids. A session is only
    /// evictable once its queue is drained and its outputs polled —
    /// accepted items and undelivered scores are **never** dropped;
    /// un-emitted lookahead windows of an abandoned stream are (a
    /// session that wants its tail flushed calls
    /// [`MonitorService::finish`]). No-op when the config disables
    /// eviction.
    pub fn evict_idle(&self) -> Vec<SessionId> {
        let Some(idle) = self.config.idle_ticks else {
            return Vec::new();
        };
        let now = self.clock.load(Ordering::Relaxed);
        let cutoff = now.saturating_sub(idle);
        self.shards
            .retain(|_, shard| {
                // PANIC: poisoning propagation, as in drain/finish.
                let s = shard.lock().expect("shard poisoned");
                let drained = s.queue.is_empty() && s.out_severities.is_empty();
                !(drained && s.last_active < cutoff)
            })
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of open sessions.
    pub fn sessions(&self) -> usize {
        self.shards.len()
    }

    /// Items currently queued (accepted, not yet scored) across all
    /// sessions.
    pub fn queued(&self) -> usize {
        self.shards
            .entries()
            .iter()
            .map(|(_, s)| s.lock().expect("shard poisoned").queue.len())
            .sum()
    }

    /// Database rows currently resident across all sessions — the
    /// number retention keeps flat under unbounded traffic.
    pub fn resident_records(&self) -> usize {
        self.shards
            .entries()
            .iter()
            .map(|(_, s)| s.lock().expect("shard poisoned").db.len())
            .sum()
    }

    /// Items accepted over the service's lifetime.
    pub fn accepted(&self) -> usize {
        self.accepted_total.load(Ordering::Relaxed)
    }

    /// Windows scored over the service's lifetime.
    pub fn scored(&self) -> usize {
        self.scored_total.load(Ordering::Relaxed)
    }

    /// A session's lifetime per-assertion fire counts (eviction does
    /// not forget them). `None` if the session does not exist.
    pub fn session_fire_counts(&self, session: SessionId) -> Option<Vec<usize>> {
        let shard = self.shards.get(&session)?;
        let shard = shard.lock().expect("shard poisoned");
        Some(shard.db.lifetime_fire_counts())
    }
}
