//! `video-stream`: the paper's runtime-monitoring case on long
//! night-street video streams, single-threaded.
//!
//! [`CAMERAS`] cameras each record [`FRAMES`] frames of their own
//! night-street world (from the run's seed); one deployed detector,
//! pretrained from a fixed model seed, watches them all. Each stream
//! arrives in blocks of [`BLOCK`] frames. A block is scored through
//! `omg_scenario::stream_score_scenario` on a 1-worker pool, given
//! [`WINDOW_HALF`] frames of context on each side so that its rows are
//! exactly the full stream's rows, and recorded with
//! `AssertionDb::record_matrix`. Every block's rows are checked bit for
//! bit against the batch reference (`score_scenario` with the
//! self-contained assertion set) after its timer stops.
//!
//! The traced run scores the same streams window by window from this
//! file, with a span around each layer's public call, and checks that
//! those rows equal the reference too.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use omg_bench::video::{pretrained_detector, VideoItem, VideoScenario, FLICKER_T, WINDOW_HALF};
use omg_core::consistency::ConsistencyEngine;
use omg_core::stream::{CountingPrepare, Prepare};
use omg_core::{AssertionDb, AssertionSet, SeverityMatrix};
use omg_domains::helpers::{track_window, VideoTrackSpec};
use omg_domains::{VideoPrep, VideoWindow};
use omg_scenario::{score_scenario, stream_score_scenario, Scenario, ThreadPool};

use crate::common::{self, flagged_share, mismatched_rows, set_fire_rates, Reps, Rotation};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{LayerTotals, Tracer};
use crate::RunConfig;

/// Cameras, each with its own world.
pub const CAMERAS: usize = 4;

/// Frames per camera.
pub const FRAMES: usize = 5_000;

/// Frames per arriving block.
pub const BLOCK: usize = 500;

/// Seed of the deployed detector (the scenario registry's model seed).
pub const MODEL_SEED: u64 = 1;

/// One camera's stream.
pub struct Camera {
    /// The camera's scenario (its world and the assertion sets).
    pub scenario: VideoScenario,
    /// The detector's output on every frame.
    pub items: Vec<VideoItem>,
}

/// Every camera's stream, with the set-up phase timings.
pub struct Video {
    /// The cameras.
    pub cameras: Vec<Camera>,
    /// Seconds spent pretraining the detector and building the worlds.
    pub world_s: f64,
    /// Seconds spent running the detector over every stream.
    pub model_pass_s: f64,
}

impl Video {
    /// Frames over all cameras.
    pub fn frames(&self) -> usize {
        self.cameras.iter().map(|c| c.items.len()).sum()
    }
}

/// Pretrains the detector, builds `cameras` worlds of `frames` frames
/// from `seed`, and runs the detector over each.
pub fn build(seed: u64, cameras: usize, frames: usize) -> Video {
    let t = Instant::now();
    let detector = pretrained_detector(MODEL_SEED);
    let scenarios: Vec<VideoScenario> = (0..cameras as u64)
        .map(|j| {
            VideoScenario::night_street(
                seed.wrapping_mul(cameras as u64).wrapping_add(j),
                frames,
                1,
            )
        })
        .collect();
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cameras = scenarios
        .into_iter()
        .map(|scenario| {
            let items = scenario.run_model(&detector);
            Camera { scenario, items }
        })
        .collect();
    Video {
        cameras,
        world_s,
        model_pass_s: t.elapsed().as_secs_f64(),
    }
}

type Scores = (SeverityMatrix, Vec<f64>);

struct Bench<'a> {
    video: &'a Video,
    set: AssertionSet<VideoWindow, VideoPrep>,
    pool: ThreadPool,
    /// Per camera: the batch reference rows and their fire counts.
    reference: Vec<(Scores, Vec<usize>)>,
}

impl Bench<'_> {
    /// Scores centres `a..b` of `camera` from the block plus its context
    /// and keeps the block's own rows.
    fn score_block(
        &self,
        camera: &Camera,
        preparer: &(dyn Prepare<VideoWindow, Prepared = VideoPrep> + '_),
        a: usize,
        b: usize,
    ) -> Scores {
        let items = &camera.items;
        let lo = a.saturating_sub(WINDOW_HALF);
        let hi = (b + WINDOW_HALF).min(items.len());
        let (sev, unc) = stream_score_scenario(
            &camera.scenario,
            &self.set,
            preparer,
            &items[lo..hi],
            &self.pool,
        );
        let mut rows = SeverityMatrix::with_capacity(b - a, sev.width());
        for r in a - lo..b - lo {
            rows.push_row(sev.row(r));
        }
        (rows, unc[a - lo..b - lo].to_vec())
    }

    /// One pass over every stream, block by block. Returns the scoring
    /// seconds (checks excluded); appends block latencies.
    fn pass(
        &self,
        preparer: &(dyn Prepare<VideoWindow, Prepared = VideoPrep> + '_),
        block_ns: &mut Vec<u64>,
        out: &mut Outcome,
    ) -> f64 {
        let mut secs = 0.0;
        for (camera, ((ref_sev, ref_unc), ref_fires)) in
            self.video.cameras.iter().zip(&self.reference)
        {
            let n = camera.items.len();
            let mut db = AssertionDb::new();
            let mut failed = 0;
            for a in (0..n).step_by(BLOCK) {
                let b = (a + BLOCK).min(n);
                let t = Instant::now();
                let (sev, unc) = self.score_block(camera, preparer, a, b);
                db.record_matrix(a, &sev);
                let dt = t.elapsed();
                secs += dt.as_secs_f64();
                block_ns.push(dt.as_nanos() as u64);
                failed += mismatched_rows((&sev, &unc), (ref_sev, ref_unc), a);
            }
            let db_ok = db.num_samples() == n && db.lifetime_fire_counts() == *ref_fires;
            out.count(n as u64 + 1, failed + u64::from(!db_ok));
        }
        secs
    }

    /// Passes until `seconds` have gone by (at least two), each on the
    /// next core; each pass's block latencies are its samples.
    fn passes(&self, seconds: f64, out: &mut Outcome) -> Reps {
        let preparer = self.video.cameras[0].scenario.preparer();
        let n = self.video.frames() as f64;
        let rotation = Rotation::new();
        let start = Instant::now();
        let mut reps = Reps::default();
        while reps.count() < 2 || start.elapsed().as_secs_f64() < seconds {
            rotation.pin(reps.count());
            let mut block_ns = Vec::new();
            let secs = self.pass(&preparer, &mut block_ns, out);
            reps.push(n, secs, block_ns);
        }
        reps
    }

    /// Scores every window of every stream from this file, with a span
    /// around each layer's call, and checks the rows against the
    /// reference.
    fn traced_pass(&self, tracer: &mut Tracer, out: &mut Outcome) {
        let mut row = Vec::with_capacity(self.set.len());
        let mut unit = 0u64;
        for (camera, ((ref_sev, ref_unc), ref_fires)) in
            self.video.cameras.iter().zip(&self.reference)
        {
            let (sc, items) = (&camera.scenario, &camera.items);
            let n = items.len();
            let mut scores: Scores = (
                SeverityMatrix::with_capacity(n, self.set.len()),
                Vec::with_capacity(n),
            );
            let mut db = AssertionDb::new();
            for c in 0..n {
                let window = tracer.enter("window", unit);
                let lo = c.saturating_sub(WINDOW_HALF);
                let hi = (c + WINDOW_HALF + 1).min(n);
                let sample = tracer.span("sample", unit, || sc.make_sample(&items[lo..hi], c - lo));
                let prepare = tracer.enter("prepare", unit);
                let tracked = tracer.span("prepare.track", unit, || track_window(&sample));
                let violations = tracer.span("prepare.consistency", unit, || {
                    ConsistencyEngine::new(VideoTrackSpec)
                        .with_temporal_threshold(FLICKER_T)
                        .check(&tracked)
                });
                let prep = VideoPrep {
                    t: FLICKER_T,
                    tracked,
                    violations,
                };
                tracer.exit(prepare);
                tracer.span("check", unit, || {
                    self.set.check_all_prepared_values(&sample, &prep, &mut row)
                });
                let u = tracer.span("uncertainty", unit, || sc.uncertainty(&items[c]));
                tracer.span("db.record", unit, || db.record_row(c, &row));
                scores.0.push_row(&row);
                scores.1.push(u);
                drop(prep);
                drop(sample);
                tracer.exit(window);
                unit += 1;
            }
            let failed = mismatched_rows((&scores.0, &scores.1), (ref_sev, ref_unc), 0);
            let db_ok = db.lifetime_fire_counts() == *ref_fires;
            out.count(n as u64 + 1, failed + u64::from(!db_ok));
        }
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let (video, setup_secs, phases) = common::repeat_setup(
        || build(config.seed, CAMERAS, FRAMES),
        |v| vec![v.world_s, v.model_pass_s],
    );
    let pool = common::pool(1, "stream scoring")?;
    let set = video.cameras[0].scenario.prepared_set();
    let batch_pool = ThreadPool::new(common::nproc().min(2));
    let reference: Vec<(Scores, Vec<usize>)> = video
        .cameras
        .iter()
        .map(|c| {
            let rows = score_scenario(
                &c.scenario,
                &c.scenario.assertion_set(),
                &c.items,
                &batch_pool,
            );
            let mut db = AssertionDb::new();
            db.record_matrix(0, &rows.0);
            (rows, db.lifetime_fire_counts())
        })
        .collect();
    drop(batch_pool);
    let mut all_rows = SeverityMatrix::new();
    for ((sev, _), _) in &reference {
        all_rows.append(sev);
    }
    let bench = Bench {
        video: &video,
        set,
        pool,
        reference,
    };
    let n = video.frames();
    println!("# streams: {CAMERAS} cameras x {FRAMES} frames in blocks of {BLOCK}, window half {WINDOW_HALF}");

    if !config.trace {
        let reps = bench.passes(config.seconds, &mut out);
        out.set("setup_s", median(&setup_secs));
        out.set("windows_per_s", reps.rate());
        out.set("items_per_s", reps.rate());
        out.set("latency_p50_ms", reps.p50_ms());
        out.set("labels_per_s", reps.rate() * flagged_share(&all_rows));
        out.set("peak_rss_mb", common::peak_rss_mb()?);
        println!("{}", reps.describe_rates("passes", "windows/s"));
        println!("{}", reps.describe_tail("block latency"));
        return Ok(out);
    }

    // Traced run: untraced passes for the overhead baseline, one
    // counting pass, then traced passes.
    out.set("setup.world_s", median(&phases[0]));
    out.set("setup.model_pass_s", median(&phases[1]));
    out.set("runtime.fanout", bench.pool.threads() as f64);
    set_fire_rates(&mut out, bench.set.names(), &all_rows);
    let untraced = bench.passes(config.seconds / 2.0, &mut out).rate();

    let calls = Arc::new(AtomicUsize::new(0));
    let counting = CountingPrepare::new(video.cameras[0].scenario.preparer(), calls.clone());
    bench.pass(&counting, &mut Vec::new(), &mut out);
    out.set(
        "prepare.calls",
        calls.load(Ordering::SeqCst) as f64 / n as f64,
    );

    let mut tracer = Tracer::with_capacity(8 * n);
    let mut sums: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut allocs_by_pass: Vec<Vec<(&str, u64)>> = Vec::new();
    let mut traced = Reps::default();
    let rotation = Rotation::new();
    let start = Instant::now();
    while allocs_by_pass.len() < 2 || start.elapsed().as_secs_f64() < config.seconds / 2.0 {
        rotation.pin(allocs_by_pass.len());
        tracer.clear();
        let t = Instant::now();
        bench.traced_pass(&mut tracer, &mut out);
        traced.push(n as f64, t.elapsed().as_secs_f64(), Vec::new());
        let totals = tracer.by_name();
        allocs_by_pass.push(totals.iter().map(|(k, t)| (*k, t.self_allocs)).collect());
        for (name, t) in totals {
            sums.entry(name).or_default().add(t);
        }
    }
    let path = Path::new(".bench_trace").join(format!("video-stream-seed{}.csv", config.seed));
    tracer
        .write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans of the last traced pass: {}", path.display());

    let per = |layer: &str| Tracer::layer(&sums, layer);
    drop(rotation);
    let w = (n * allocs_by_pass.len()) as f64;
    let total_ns: u64 = sums.values().map(|t| t.self_ns).sum();
    for (layer, ns, allocs) in [
        ("sample", "sample.self_ns", Some("sample.allocs")),
        ("prepare", "prepare.self_ns", Some("prepare.allocs")),
        (
            "prepare.track",
            "prepare.track.self_ns",
            Some("prepare.track.allocs"),
        ),
        (
            "prepare.consistency",
            "prepare.consistency.self_ns",
            Some("prepare.consistency.allocs"),
        ),
        ("check", "check.self_ns", Some("check.allocs")),
        ("uncertainty", "uncertainty.self_ns", None),
        ("db.record", "db.record.self_ns", None),
    ] {
        let t = per(layer);
        out.set(ns, t.self_ns as f64 / w);
        if let Some(a) = allocs {
            out.set(a, t.self_allocs as f64 / w);
        }
    }
    let share = |layer: &str| 100.0 * per(layer).self_ns as f64 / total_ns as f64;
    out.set("prepare.share_pct", share("prepare"));
    out.set("check.share_pct", share("check"));
    out.set("trace.residual_ns", per("window").self_ns as f64 / w);
    out.set("trace.residual_pct", share("window"));
    out.set(
        "trace.overhead_pct",
        100.0 * (untraced / traced.rate() - 1.0),
    );
    let repeat = allocs_by_pass.windows(2).all(|p| p[0] == p[1]);
    out.set("trace.allocs_repeat", f64::from(u8::from(repeat)));
    println!(
        "# traced: {w} windows over {} passes; {:.0} ns per window; untraced {untraced:.0} windows/s, traced {:.0}",
        allocs_by_pass.len(),
        total_ns as f64 / w,
        traced.rate()
    );
    Ok(out)
}
