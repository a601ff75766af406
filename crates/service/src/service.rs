//! The multi-tenant monitor: session-keyed shards over the streaming
//! engine. [`MonitorService`]'s docs describe the architecture.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use omg_core::runtime::ThreadPool;
use omg_core::stream::Prepare;
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

/// Tuning knobs for a [`MonitorService`], built from
/// [`ServiceConfig::default`] with the `with_*` builders:
///
/// ```
/// use omg_service::ServiceConfig;
///
/// let config = ServiceConfig::default()
///     .with_queue_capacity(64)
///     .with_retention(16)
///     .with_idle_eviction(3);
/// ```
///
/// The fields are private, so every config passes the builders'
/// checks — a struct literal that would skip them (a zero-capacity
/// queue refuses every ingest forever) does not compile:
///
/// ```compile_fail
/// use omg_service::ServiceConfig;
///
/// let config = ServiceConfig {
///     queue_capacity: 0, // error[E0451]: field `queue_capacity` is private
///     ..ServiceConfig::default()
/// };
/// ```
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum items a session may have queued (accepted but not yet
    /// drained) before [`MonitorService::try_ingest`] pushes back with
    /// [`IngestError::QueueFull`].
    queue_capacity: usize,
    /// Per-session [`AssertionDb`] retention: keep at most this many
    /// recent sample rows resident (lifetime fire counters survive —
    /// see [`AssertionDb::retain_recent`]). `None` retains everything.
    retained_samples: Option<usize>,
    /// Evict a session after this many drain passes with no ingest,
    /// once its queue is drained and its outputs polled. `None` never
    /// evicts.
    idle_ticks: Option<u64>,
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
///
/// `items` holds stream positions `base..accepted`, where `accepted =
/// base + items.len()`: first the context later windows still need,
/// then the items no drain has reached yet. Positions below `drained`
/// were handed to a drain; the queue the capacity bounds is
/// `drained..accepted`. Positions below `scored` have had their window
/// scored, so `scored` is also the next center.
struct SessionShard<Sc: Scenario> {
    /// The session's one item buffer, stream positions `base..`.
    items: Vec<Sc::Item>,
    /// Stream position of `items[0]`.
    base: usize,
    /// Stream positions already handed to a drain.
    drained: usize,
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
    /// Windows scored over the session's lifetime (the next center).
    scored: usize,
    /// Set, under the shard lock, when `finish` or idle eviction takes
    /// the shard out of the table: an ingest holding a stale handle
    /// must not accept into a shard nothing will drain again.
    closed: bool,
}

impl<Sc: Scenario> SessionShard<Sc> {
    fn new(now: u64) -> Self {
        Self {
            items: Vec::new(),
            base: 0,
            drained: 0,
            db: AssertionDb::new(),
            out_severities: SeverityMatrix::new(),
            out_uncertainties: Vec::new(),
            values: Vec::new(),
            last_active: now,
            scored: 0,
            closed: false,
        }
    }

    /// Items accepted over the session's lifetime.
    fn accepted_items(&self) -> usize {
        self.base + self.items.len()
    }

    /// Items accepted but not yet handed to a drain.
    fn backlog(&self) -> usize {
        self.accepted_items() - self.drained
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
/// One service serves many concurrent sessions of **one** scenario. The
/// expensive scenario resources — the prepared assertion set and its
/// preparer — are built once and shared by every session behind
/// `Arc`s, so opening a session is O(1) allocation, not O(set). Each
/// session owns private state: one item buffer (the window context
/// later centers still need, then the bounded backlog of
/// accepted-but-undrained items — backpressure, not unbounded growth),
/// an [`AssertionDb`] with optional retention, and the not-yet-polled
/// score outputs.
///
/// Work divides at **session granularity**: a drain pass hands whole
/// sessions to pool workers ([`ThreadPool::map_indexed_coarse`]), so a
/// worker scores a session's entire backlog with warm caches and zero
/// cross-worker window sharing.
///
/// Determinism: a session's outputs depend only on the items ingested
/// into that session, in order. Drains may interleave sessions any way
/// the scheduler likes; the per-session output sequence is bit-for-bit
/// the sequential [`omg_scenario::stream_score_scenario`] run of the
/// same items (the conformance suite enforces this for every registered
/// scenario at 1/2/8 workers), because both score each center's clamped
/// window `[c − half, min(c + half + 1, n))`, borrowed in place from the
/// items, with the same kernel, [`omg_scenario::score_window`]. Drains
/// and the finish flush run one scoring loop (a drain stops `half`
/// centers short of the items it has, the flush scores the right-edge
/// tail too), so every accepted item is scored, recorded and counted
/// exactly once.
///
/// See [`crate::ServicePool`] for the cross-scenario registry that
/// shares whole services by name.
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
        let now = self.clock.load(Ordering::Relaxed);
        self.shards
            .get_or_init(session, || Arc::new(Mutex::new(SessionShard::new(now))))
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
        loop {
            let shard = self.shard(session);
            let mut shard = shard.lock().expect("shard poisoned");
            if shard.closed {
                // `finish` or eviction removed this shard after we
                // looked it up: resolve the session again.
                continue;
            }
            if shard.backlog() >= self.config.queue_capacity {
                return Err(IngestError::QueueFull {
                    session,
                    capacity: self.config.queue_capacity,
                });
            }
            shard.items.push(item);
            shard.last_active = self.clock.load(Ordering::Relaxed);
            self.accepted_total.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Scores one shard's whole backlog — the coarse per-session work
    /// unit a drain pass hands to a pool worker. A drain scores every
    /// center whose lookahead is in (`scored..n − half`); with `flush`
    /// set (the session is finishing) the right-edge tail `..n` runs
    /// through the same loop. Returns the number of windows scored.
    fn drain_shard(
        scenario: &Sc,
        set: &AssertionSet<Sc::Sample, Sc::Prep>,
        preparer: &(dyn Prepare<Sc::Sample, Prepared = Sc::Prep> + '_),
        retained: Option<usize>,
        shard: &mut SessionShard<Sc>,
        flush: bool,
    ) -> usize {
        let half = scenario.window_half();
        let SessionShard {
            items,
            base,
            drained,
            db,
            out_severities,
            out_uncertainties,
            values,
            scored,
            ..
        } = shard;
        let n = *base + items.len();
        let ready = if flush { n } else { n.saturating_sub(half) };
        let first = *scored;
        for c in first..ready {
            let (lo, hi) = (c.saturating_sub(half), (c + half + 1).min(n));
            // PANIC: base <= scored - half <= lo (only positions below
            // the next center's window are ever dropped) and hi <= n.
            let window = &items[lo - *base..hi - *base];
            let unc = score_window(scenario, set, preparer, window, c - lo, values);
            db.record_row(c, values);
            out_severities.push_row(values);
            out_uncertainties.push(unc);
        }
        // The watermark only rises, so one retention pass per drain
        // leaves the same rows resident as one per window.
        if let Some(keep) = retained {
            db.retain_recent(keep);
        }
        *drained = n;
        // `ready < first` only for a drain that reached a shard after
        // `finish` flushed it; it scored nothing.
        *scored = ready.max(first);
        // Drop what no later window reaches, once more than 2·half
        // items are dead: `drain` moves the live suffix (at most 2·half
        // items after a drain) down without cloning, so each item is
        // moved at most once more, amortized.
        let dead = scored.saturating_sub(half) - *base;
        if dead > 2 * half {
            items.drain(..dead);
            *base += dead;
        }
        *scored - first
    }

    /// Drains every session's queue: whole sessions fan out across the
    /// pool's workers (coarse work division — see the type docs), and
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
        shard.closed = true;
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
            accepted: shard.accepted_items(),
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
                let mut s = shard.lock().expect("shard poisoned");
                let drained = s.backlog() == 0 && s.out_severities.is_empty();
                s.closed = drained && s.last_active < cutoff;
                !s.closed
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
            .map(|(_, s)| s.lock().expect("shard poisoned").backlog())
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

    /// Items a session's buffer holds: window context plus backlog.
    /// `None` if the session does not exist.
    #[cfg(test)]
    pub(crate) fn buffered(&self, session: SessionId) -> Option<usize> {
        let shard = self.shards.get(&session)?;
        let shard = shard.lock().expect("shard poisoned");
        Some(shard.items.len())
    }

    /// A session's lifetime per-assertion fire counts (eviction does
    /// not forget them). `None` if the session does not exist.
    pub fn session_fire_counts(&self, session: SessionId) -> Option<Vec<usize>> {
        let shard = self.shards.get(&session)?;
        let shard = shard.lock().expect("shard poisoned");
        Some(shard.db.lifetime_fire_counts())
    }
}
