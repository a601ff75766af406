//! `ecg-service`: many ECG patient sessions on one
//! `MonitorService<EcgScenario>` with retention on, drained on the
//! worker pool at `min(2, nproc)` workers — the only workload where the
//! runtime's coarse per-session fan-out runs.
//!
//! Each of [`SESSIONS`] sessions gets its own contiguous segment of one
//! long prediction stream (recorded from the run's seed and classified
//! by a model pretrained from a fixed seed), so its timestamps never
//! wrap. Two phases share the measured time:
//!
//! * **closed loop** (saturated): every cycle offers each session
//!   [`CLOSED_BATCH`] items, drains, and polls every session;
//! * **open loop**: each session uploads a burst of [`BURST`] items on a
//!   fixed period, staggered across sessions, at [`OPEN_RATE`] items/s
//!   in total, well below capacity, drained at most once per
//!   [`DRAIN_TICK_NS`] (see `openloop.rs`) on one worker. A tick's drain
//!   holds about 80 items; handing half of them to a second worker makes
//!   every drain wait on that worker's wake-up, and on a shared 2-vCPU
//!   host that put the open-loop p99 at 5-28 ms against 0.3-2.7 ms on one
//!   worker, and the median of some whole runs at 0.5 ms.
//!
//! Every session's delivered rows must equal a sequential
//! `stream_score_scenario` run over its segment, bit for bit; a refused
//! ingest counts as a failure.

use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use omg_bench::ecgx::{pretrained_classifier, EcgItem, EcgScenario};
use omg_core::stream::{CountingPrepare, Prepare};
use omg_core::{AssertionDb, SeverityMatrix};
use omg_scenario::{stream_score_scenario, Scenario, ThreadPool};
use omg_service::{MonitorService, ServiceConfig, SessionId};

use crate::common::{self, flagged_share, mismatched_rows, set_fire_rates, Reps};
use crate::openloop::{self, Clock, Observed, Schedule, Target};
use crate::report::Outcome;
use crate::stats::{median, percentile, Histogram};
use crate::trace::{in_span, LayerTotals, Tracer};
use crate::RunConfig;

/// Concurrent sessions.
pub const SESSIONS: usize = 64;
/// Items each session uploads per closed-loop repetition.
pub const SEGMENT: usize = 8192;
/// Items each session uploads per open-loop repetition (a prefix of its
/// segment).
pub const OPEN_SEGMENT: usize = 2048;
/// Per-session queue capacity. The open loop offers a session 6250
/// items/s, so this absorbs a 1.3 s stall of the drainer; stalls of
/// 160 ms and more occur on a shared 2-vCPU host, and a refused item is
/// a failure.
pub const QUEUE: usize = 8192;
/// Items each closed-loop cycle offers every session.
pub const CLOSED_BATCH: usize = 1024;
/// Per-session resident database rows.
pub const RETAIN: usize = 64;
/// Open-loop offered load, items per second over all sessions.
pub const OPEN_RATE: f64 = 400_000.0;
/// Items per open-loop burst.
pub const BURST: usize = 8;
/// The open loop drains at most once per this many nanoseconds.
pub const DRAIN_TICK_NS: u64 = 200_000;
/// Sessions the traced run scores window by window.
const TRACE_SEGMENTS: usize = 4;

type Scores = (SeverityMatrix, Vec<f64>);

/// Session `s`'s segment of `len` items of a `total`-item stream:
/// contiguous, disjoint from every other session's, and inside the
/// stream, so it never wraps. `None` if the stream is too short.
pub fn segment(s: usize, len: usize, total: usize) -> Option<Range<usize>> {
    let start = s.checked_mul(len)?;
    let end = start.checked_add(len)?;
    (end <= total).then_some(start..end)
}

/// Whether the items' timestamps strictly increase.
fn strictly_increasing(items: &[EcgItem]) -> bool {
    items.windows(2).all(|w| w[0].time < w[1].time)
}

struct Ecg {
    scenario: EcgScenario,
    items: Vec<EcgItem>,
    phases: [f64; 2],
}

/// Seed of the deployed classifier's training recordings.
pub const MODEL_SEED: u64 = 1;

/// Pretrains the classifier from [`MODEL_SEED`] and records the
/// patients' stream from `seed`, then runs the classifier over it.
fn build(seed: u64) -> Ecg {
    let t = Instant::now();
    let training = EcgScenario::new(MODEL_SEED, 600, 0, 0);
    let model = pretrained_classifier(&training, MODEL_SEED ^ 3);
    let scenario = EcgScenario::new(seed, 0, SESSIONS * SEGMENT, 0);
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let items = scenario.run_model(&model);
    // The monitor needs only the predictions; drop the recordings.
    let scenario = EcgScenario {
        train: Vec::new(),
        pool: Vec::new(),
        test: Vec::new(),
    };
    Ecg {
        scenario,
        items,
        phases: [world_s, t.elapsed().as_secs_f64()],
    }
}

fn service(ecg: &Ecg, prepare_calls: Option<Arc<AtomicUsize>>) -> MonitorService<EcgScenario> {
    let config = ServiceConfig::default()
        .with_queue_capacity(QUEUE)
        .with_retention(RETAIN);
    let set = Arc::new(ecg.scenario.prepared_set());
    let preparer: Arc<dyn Prepare<_, Prepared = _>> = match prepare_calls {
        Some(calls) => Arc::new(CountingPrepare::new(ecg.scenario.preparer(), calls)),
        None => Arc::from(ecg.scenario.preparer()),
    };
    MonitorService::with_shared(Arc::new(ecg.scenario.clone()), set, preparer, config)
}

fn append(into: &mut Scores, (sev, unc): Scores) {
    into.0.append(&sev);
    into.1.extend(unc);
}

/// What the traced service phases sample between calls.
#[derive(Default)]
struct Gauges {
    queue_depth_max: usize,
    resident_rows_max: usize,
    drained_windows: usize,
}

struct Bench<'a> {
    ecg: &'a Ecg,
    /// Drains the closed loop: `min(2, nproc)` workers.
    pool: ThreadPool,
    /// Drains the open loop: one worker.
    open_pool: ThreadPool,
    closed_oracle: Vec<Scores>,
    open_oracle: Vec<Scores>,
    next_session: u64,
}

impl Bench<'_> {
    fn fresh_sessions(&mut self) -> Vec<SessionId> {
        let first = self.next_session;
        self.next_session += SESSIONS as u64;
        (first..first + SESSIONS as u64).map(SessionId).collect()
    }

    /// Counts the delivered rows' mismatches against `oracle`.
    fn check(
        delivered: &[Scores],
        oracle: &[Scores],
        refused: usize,
        items: usize,
        out: &mut Outcome,
    ) {
        let mut bad = refused as u64;
        for (got, want) in delivered.iter().zip(oracle) {
            bad += mismatched_rows((&got.0, &got.1), (&want.0, &want.1), 0);
            bad += want.0.len().saturating_sub(got.0.len()) as u64;
        }
        out.count(items as u64, bad);
    }

    /// One saturated closed-loop repetition over fresh sessions; each of
    /// its cycles (offer, drain, poll) goes into `cycles`. Returns the
    /// items refused.
    fn closed_rep(
        &mut self,
        svc: &MonitorService<EcgScenario>,
        delivered: &mut [Scores],
        mut tracer: Option<&mut Tracer>,
        gauges: &mut Gauges,
        cycles: &mut Reps,
    ) -> usize {
        let ids = self.fresh_sessions();
        for d in delivered.iter_mut() {
            *d = (
                SeverityMatrix::with_capacity(SEGMENT, 1),
                Vec::with_capacity(SEGMENT),
            );
        }
        let items = &self.ecg.items;
        let mut cursor = vec![0usize; SESSIONS];
        let mut refused = 0usize;
        let traced = tracer.is_some();
        let mut cycle = 0u64;
        loop {
            let cycle_start = Instant::now();
            let offered: usize = cursor.iter().sum();
            let mut pending = false;
            for (s, &id) in ids.iter().enumerate() {
                let base = s * SEGMENT;
                let take = CLOSED_BATCH.min(SEGMENT - cursor[s]);
                for _ in 0..take {
                    let item = items[base + cursor[s]];
                    let ok = in_span(&mut tracer, "service.ingest", cycle, || {
                        svc.try_ingest(id, item)
                    })
                    .is_ok();
                    if !ok {
                        refused += 1;
                        break;
                    }
                    cursor[s] += 1;
                }
                pending |= cursor[s] < SEGMENT;
            }
            if traced {
                gauges.queue_depth_max = gauges.queue_depth_max.max(svc.queued());
            }
            gauges.drained_windows += in_span(&mut tracer, "service.drain", cycle, || {
                svc.drain(&self.pool)
            });
            if traced {
                gauges.resident_rows_max = gauges.resident_rows_max.max(svc.resident_records());
            }
            for (s, &id) in ids.iter().enumerate() {
                if let Some(scores) = in_span(&mut tracer, "service.poll", cycle, || svc.poll(id)) {
                    append(&mut delivered[s], scores);
                }
            }
            let ingested = cursor.iter().sum::<usize>() - offered;
            cycles.push(
                ingested as f64,
                cycle_start.elapsed().as_secs_f64(),
                Vec::new(),
            );
            cycle += 1;
            if !pending {
                break;
            }
        }
        for (s, &id) in ids.iter().enumerate() {
            if let Some(report) = in_span(&mut tracer, "service.finish", cycle, || svc.finish(id)) {
                append(&mut delivered[s], report.scores);
            }
        }
        refused
    }

    /// Closed-loop repetitions until `seconds` have gone by (at least
    /// one); returns their cycles.
    fn closed_reps(
        &mut self,
        svc: &MonitorService<EcgScenario>,
        seconds: f64,
        out: &mut Outcome,
    ) -> Reps {
        let mut delivered: Vec<Scores> = vec![Default::default(); SESSIONS];
        let mut reps = Reps::default();
        let start = Instant::now();
        while reps.count() == 0 || start.elapsed().as_secs_f64() < seconds {
            let refused =
                self.closed_rep(svc, &mut delivered, None, &mut Gauges::default(), &mut reps);
            Self::check(
                &delivered,
                &self.closed_oracle,
                refused,
                SESSIONS * SEGMENT,
                out,
            );
        }
        reps
    }

    /// One open-loop repetition over fresh sessions.
    fn open_rep(
        &mut self,
        svc: &MonitorService<EcgScenario>,
        tracer: Option<&mut Tracer>,
        gauges: &mut Gauges,
        observed: &mut Observed,
        out: &mut Outcome,
    ) {
        let ids = self.fresh_sessions();
        let mut delivered: Vec<Scores> = (0..SESSIONS)
            .map(|_| {
                (
                    SeverityMatrix::with_capacity(OPEN_SEGMENT, 1),
                    Vec::with_capacity(OPEN_SEGMENT),
                )
            })
            .collect();
        let refused_before = observed.refused;
        let mut clock = RealClock {
            epoch: Instant::now(),
        };
        let schedule = Schedule::at_rate(
            SESSIONS,
            BURST,
            OPEN_SEGMENT,
            OPEN_RATE,
            clock.now_ns() + 100_000,
        );
        let mut target = ServiceTarget {
            svc,
            pool: &self.open_pool,
            items: &self.ecg.items,
            ids: &ids,
            delivered: &mut delivered,
            tracer,
            gauges,
            calls: 0,
        };
        openloop::run(
            &schedule,
            self.ecg.scenario.window_half(),
            DRAIN_TICK_NS,
            &mut clock,
            &mut target,
            observed,
        );
        Self::check(
            &delivered,
            &self.open_oracle,
            observed.refused - refused_before,
            SESSIONS * OPEN_SEGMENT,
            out,
        );
    }
}

/// The host's monotonic clock; waits spin, since bursts come due tens of
/// microseconds apart.
struct RealClock {
    epoch: Instant,
}

impl Clock for RealClock {
    fn now_ns(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, ns: u64) {
        while self.now_ns() < ns {
            std::hint::spin_loop();
        }
    }
}

/// The service as the open-loop generator drives it.
struct ServiceTarget<'a, 't> {
    svc: &'a MonitorService<EcgScenario>,
    pool: &'a ThreadPool,
    items: &'a [EcgItem],
    ids: &'a [SessionId],
    delivered: &'a mut [Scores],
    tracer: Option<&'t mut Tracer>,
    gauges: &'a mut Gauges,
    calls: u64,
}

impl Target for ServiceTarget<'_, '_> {
    fn ingest(&mut self, session: usize, item: usize) -> bool {
        let (svc, id, item) = (
            self.svc,
            self.ids[session],
            self.items[session * SEGMENT + item],
        );
        in_span(&mut self.tracer, "service.ingest", self.calls, || {
            svc.try_ingest(id, item)
        })
        .is_ok()
    }

    fn drain(&mut self) {
        let (svc, pool) = (self.svc, self.pool);
        self.calls += 1;
        self.gauges.drained_windows +=
            in_span(&mut self.tracer, "service.drain", self.calls, || {
                svc.drain(pool)
            });
    }

    fn poll(&mut self, session: usize) -> usize {
        let (svc, id) = (self.svc, self.ids[session]);
        match in_span(&mut self.tracer, "service.poll", self.calls, || {
            svc.poll(id)
        }) {
            Some(scores) => {
                let rows = scores.0.len();
                append(&mut self.delivered[session], scores);
                rows
            }
            None => 0,
        }
    }

    fn finish(&mut self, session: usize) {
        if let Some(report) = self.svc.finish(self.ids[session]) {
            append(&mut self.delivered[session], report.scores);
        }
    }
}

/// Scores session segments window by window from this file, with a
/// span around each layer's call and a retention-capped database per
/// session, as the service keeps one.
fn decompose(ecg: &Ecg, segments: usize, tracer: &mut Tracer) -> Vec<Scores> {
    let sc = &ecg.scenario;
    let set = sc.prepared_set();
    let preparer = sc.preparer();
    let half = sc.window_half();
    let mut all = Vec::with_capacity(segments);
    let mut row = Vec::with_capacity(set.len());
    for s in 0..segments {
        let seg = &ecg.items[segment(s, SEGMENT, ecg.items.len()).expect("segment fits")];
        let n = seg.len();
        let mut scores = (
            SeverityMatrix::with_capacity(n, set.len()),
            Vec::with_capacity(n),
        );
        let mut db = AssertionDb::new();
        for c in 0..n {
            let unit = (s * SEGMENT + c) as u64;
            let window = tracer.enter("window", unit);
            let lo = c.saturating_sub(half);
            let hi = (c + half + 1).min(n);
            let sample = tracer.span("sample", unit, || sc.make_sample(&seg[lo..hi], c - lo));
            let prep = tracer.span("prepare", unit, || preparer.prepare(&sample));
            tracer.span("check", unit, || {
                set.check_all_prepared_values(&sample, &prep, &mut row)
            });
            let u = tracer.span("uncertainty", unit, || sc.uncertainty(&seg[c]));
            tracer.span("db.record", unit, || db.record_row(c, &row));
            tracer.span("db.retain", unit, || db.retain_recent(RETAIN));
            scores.0.push_row(&row);
            scores.1.push(u);
            drop(prep);
            drop(sample);
            tracer.exit(window);
        }
        all.push(scores);
    }
    all
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let (ecg, setup_secs, phases) =
        common::repeat_setup(|| build(config.seed), |e| e.phases.to_vec());
    let total = ecg.items.len();
    let segments: Vec<Range<usize>> = (0..SESSIONS)
        .map(|s| segment(s, SEGMENT, total).ok_or("the stream is too short for the sessions"))
        .collect::<Result<_, _>>()?;
    if let Some(s) = segments
        .iter()
        .position(|r| !strictly_increasing(&ecg.items[r.clone()]))
    {
        return Err(format!(
            "session {s}'s segment has timestamps that do not increase"
        ));
    }
    let pool = common::pool(common::nproc().min(2), "closed loop")?;
    let open_pool = common::pool(1, "open loop")?;

    // The sequential reference, outside every timed phase; its speed is
    // the baseline of the service's own overhead.
    let seq_pool = ThreadPool::new(1);
    let set = ecg.scenario.prepared_set();
    let preparer = ecg.scenario.preparer();
    let score = |r: Range<usize>| {
        stream_score_scenario(&ecg.scenario, &set, &preparer, &ecg.items[r], &seq_pool)
    };
    let t = Instant::now();
    let closed_oracle: Vec<Scores> = segments.iter().map(|r| score(r.clone())).collect();
    let seq_ns_per_window = t.elapsed().as_nanos() as f64 / total as f64;
    let open_oracle: Vec<Scores> = segments
        .iter()
        .map(|r| score(r.start..r.start + OPEN_SEGMENT))
        .collect();
    let mut all_rows = SeverityMatrix::with_capacity(total, set.len());
    for (sev, _) in &closed_oracle {
        all_rows.append(sev);
    }
    println!(
        "# sessions: {SESSIONS} x {SEGMENT} items (open loop: {OPEN_SEGMENT} at {OPEN_RATE} items/s in bursts of {BURST}); closed-loop batch {CLOSED_BATCH}, queue {QUEUE}, retention {RETAIN}"
    );

    let mut bench = Bench {
        ecg: &ecg,
        pool,
        open_pool,
        closed_oracle,
        open_oracle,
        next_session: 0,
    };
    let svc = service(&ecg, None);

    if !config.trace {
        // Closed- and open-loop repetitions alternate, so that both
        // phases sample the whole run.
        let mut closed = Reps::default();
        let mut open = Reps::default();
        let mut delivered: Vec<Scores> = vec![Default::default(); SESSIONS];
        let mut refused = 0;
        let mut lag = Histogram::default();
        let start = Instant::now();
        while open.count() == 0 || start.elapsed().as_secs_f64() < config.seconds {
            let closed_refused = bench.closed_rep(
                &svc,
                &mut delivered,
                None,
                &mut Gauges::default(),
                &mut closed,
            );
            Bench::check(
                &delivered,
                &bench.closed_oracle,
                closed_refused,
                SESSIONS * SEGMENT,
                &mut out,
            );
            refused += closed_refused;
            let mut observed = Observed::default();
            let t = Instant::now();
            bench.open_rep(&svc, None, &mut Gauges::default(), &mut observed, &mut out);
            open.push(
                (SESSIONS * OPEN_SEGMENT) as f64,
                t.elapsed().as_secs_f64(),
                observed.latency_ns,
            );
            refused += observed.refused;
            for l in observed.lag_ns {
                lag.record(l);
            }
        }
        out.set("setup_s", median(&setup_secs));
        out.set("items_per_s", closed.rate());
        // Every ingested item opens one window, delivered by the end of
        // its repetition.
        out.set("windows_per_s", closed.rate());
        out.set("labels_per_s", closed.rate() * flagged_share(&all_rows));
        out.set("latency_p50_ms", open.p50_ms());
        out.set("peak_rss_mb", common::peak_rss_mb()?);
        println!("{}", closed.describe_rates("closed-loop cycles", "items/s"));
        println!("{}", open.describe_tail("open-loop latency"));
        println!(
            "# open loop: refused {refused}; generator lag p99 {:.4} ms",
            lag.percentile(99.0) as f64 / 1e6
        );
        return Ok(out);
    }

    out.set("setup.world_s", median(&phases[0]));
    out.set("setup.model_pass_s", median(&phases[1]));
    out.set("runtime.fanout", bench.pool.threads() as f64);
    set_fire_rates(&mut out, set.names(), &all_rows);

    // Window-by-window decomposition, twice, to show the allocation
    // counts repeat.
    let mut decomp = Tracer::with_capacity(8 * TRACE_SEGMENTS * SEGMENT);
    let mut allocs_by_pass = Vec::new();
    let mut sums: std::collections::BTreeMap<&str, LayerTotals> = Default::default();
    for _ in 0..2 {
        decomp.clear();
        let rows = decompose(&ecg, TRACE_SEGMENTS, &mut decomp);
        let oracle = &bench.closed_oracle[..TRACE_SEGMENTS];
        Bench::check(&rows, oracle, 0, TRACE_SEGMENTS * SEGMENT, &mut out);
        let totals = decomp.by_name();
        allocs_by_pass.push(
            totals
                .iter()
                .map(|(k, t)| (*k, t.self_allocs))
                .collect::<Vec<_>>(),
        );
        for (name, t) in totals {
            sums.entry(name).or_default().add(t);
        }
    }
    let windows = (2 * TRACE_SEGMENTS * SEGMENT) as f64;
    let layer = |name: &str| Tracer::layer(&sums, name);
    let total_ns: u64 = sums.values().map(|t| t.self_ns).sum();
    for (name, ns, allocs) in [
        ("sample", "sample.self_ns", Some("sample.allocs")),
        ("prepare", "prepare.self_ns", Some("prepare.allocs")),
        ("check", "check.self_ns", Some("check.allocs")),
        ("uncertainty", "uncertainty.self_ns", None),
        ("db.record", "db.record.self_ns", None),
        ("db.retain", "db.retain.self_ns", None),
    ] {
        out.set(ns, layer(name).self_ns as f64 / windows);
        if let Some(a) = allocs {
            out.set(a, layer(name).self_allocs as f64 / windows);
        }
    }
    let share = |name: &str| 100.0 * layer(name).self_ns as f64 / total_ns as f64;
    out.set("prepare.share_pct", share("prepare"));
    out.set("check.share_pct", share("check"));
    out.set(
        "trace.residual_ns",
        layer("window").self_ns as f64 / windows,
    );
    out.set("trace.residual_pct", share("window"));
    out.set(
        "trace.allocs_repeat",
        f64::from(u8::from(allocs_by_pass[0] == allocs_by_pass[1])),
    );

    // Closed loop: untraced repetitions, then traced ones on a service
    // whose preparer counts its calls.
    let untraced = bench
        .closed_reps(&svc, config.seconds / 4.0, &mut out)
        .rate();
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = service(&ecg, Some(calls.clone()));
    let mut closed = Tracer::with_capacity(
        SESSIONS * SEGMENT + 64 * (SEGMENT / CLOSED_BATCH + 2) * (SESSIONS + 2),
    );
    let mut gauges = Gauges::default();
    let mut delivered: Vec<Scores> = vec![Default::default(); SESSIONS];
    let mut traced_cycles = Reps::default();
    let refused = bench.closed_rep(
        &counted,
        &mut delivered,
        Some(&mut closed),
        &mut gauges,
        &mut traced_cycles,
    );
    Bench::check(
        &delivered,
        &bench.closed_oracle,
        refused,
        SESSIONS * SEGMENT,
        &mut out,
    );
    let mut refused_total = refused;
    let traced_rate = traced_cycles.rate();
    let ctotals = closed.by_name();
    let clayer = |name: &str| Tracer::layer(&ctotals, name);
    let per_call = |name: &str| clayer(name).self_ns as f64 / clayer(name).calls.max(1) as f64;
    let drains = clayer("service.drain");
    let drain_ns_per_window = drains.self_ns as f64 / gauges.drained_windows.max(1) as f64;
    out.set(
        "prepare.calls",
        calls.load(Ordering::SeqCst) as f64 / (SESSIONS * SEGMENT) as f64,
    );
    out.set("service.ingest.self_ns", per_call("service.ingest"));
    out.set("service.drain.self_us", per_call("service.drain") / 1e3);
    out.set(
        "service.drain.windows",
        gauges.drained_windows as f64 / drains.calls.max(1) as f64,
    );
    out.set(
        "service.drain.overhead_ns_per_window",
        drain_ns_per_window * bench.pool.threads() as f64 - seq_ns_per_window,
    );
    out.set("service.poll.self_ns", per_call("service.poll"));
    out.set("service.queue_depth_max", gauges.queue_depth_max as f64);
    out.set("trace.overhead_pct", 100.0 * (untraced / traced_rate - 1.0));
    println!(
        "# closed loop: untraced {untraced:.0} items/s, traced {traced_rate:.0}; drain {drain_ns_per_window:.0} ns/window on {} workers vs sequential scoring {seq_ns_per_window:.0} ns/window",
        bench.pool.threads()
    );

    // Open loop, traced.
    let mut open = Tracer::with_capacity(4 * SESSIONS * OPEN_SEGMENT);
    let mut observed = Observed::default();
    let mut open_gauges = Gauges::default();
    bench.open_rep(
        &counted,
        Some(&mut open),
        &mut open_gauges,
        &mut observed,
        &mut out,
    );
    refused_total += observed.refused;
    out.set(
        "generator.lag_p99_ms",
        percentile(&mut observed.lag_ns, 99.0) as f64 / 1e6,
    );
    out.set("service.ingest.refused", refused_total as f64);
    out.set("db.resident_rows_max", gauges.resident_rows_max as f64);

    for (tracer, part) in [
        (&decomp, "decomposition"),
        (&closed, "closed"),
        (&open, "open"),
    ] {
        let path =
            Path::new(".bench_trace").join(format!("ecg-service-seed{}-{part}.csv", config.seed));
        tracer
            .write_csv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans ({part}): {}", path.display());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_contiguous_disjoint_and_never_wrap() {
        let total = SESSIONS * SEGMENT;
        let segs: Vec<Range<usize>> = (0..SESSIONS)
            .map(|s| segment(s, SEGMENT, total).expect("fits"))
            .collect();
        assert_eq!(segs[0].start, 0);
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "contiguous and disjoint");
        }
        assert!(segs.iter().all(|r| r.len() == SEGMENT && r.end <= total));
        // One session more than the stream holds is refused, not wrapped.
        assert_eq!(segment(SESSIONS, SEGMENT, total), None);
        assert_eq!(segment(usize::MAX, 2, usize::MAX), None);
    }

    #[test]
    fn wrapped_timestamps_are_detected() {
        let item = |time: f64| EcgItem {
            time,
            pred: 0,
            unc: 0.0,
        };
        assert!(strictly_increasing(&[item(0.0), item(10.0), item(20.0)]));
        assert!(!strictly_increasing(&[item(0.0), item(10.0), item(0.0)]));
        assert!(!strictly_increasing(&[item(5.0), item(5.0)]));
    }
}
