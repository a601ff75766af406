//! `al-select`: a multi-round BAL campaign, the paper's use of
//! assertions to choose what to label.
//!
//! Set-up scores the night-street streams of [`CAMERAS`] cameras, built
//! as `video-stream` builds its own, [`POOL`] frames in all; their
//! severity rows and uncertainties are the candidate pool. An untraced
//! run also re-scores the pool before each campaign, as a learning loop
//! does each round, timed per camera on its own (`windows_per_s`) and
//! checked bit for bit against the set-up rows. Each of the campaign's
//! [`ROUNDS`] rounds projects the still-unlabeled rows into a fresh
//! `CandidatePool` (as the scenario learner does), asks
//! `BalStrategy::select` for [`BUDGET`] candidates and claims them with
//! `omg_scenario::claim_selection`. Nothing is retrained, so the timed
//! part is selection only, which no other workload touches.
//!
//! Every round must pick distinct, in-range candidates, at most the
//! budget, and every campaign of a run must make the same selections
//! (the campaign's digest repeats at a given seed).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use omg_active::{BalStrategy, CandidatePool, FallbackPolicy, SelectionStrategy};
use omg_core::SeverityMatrix;
use omg_scenario::{claim_selection, stream_score_scenario, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    self, fastest_parts_ns, flagged_share, mismatched_rows, set_fire_rates, Reps, Rotation,
};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{in_span, self_figures, LayerTotals, Tracer};
use crate::video_stream::{self, Video};
use crate::RunConfig;

/// Candidates in the pool (frames of the scored streams).
pub const POOL: usize = 20_000;

/// Cameras whose streams make up the pool, each with its own world from
/// the seed. Selection time follows how the pool's fires spread over the
/// assertions, which varies with the world; many short streams average
/// it over more worlds, so it moves less from seed to seed.
pub const CAMERAS: usize = 16;

/// Candidates selected per round.
pub const BUDGET: usize = 200;

/// Rounds per campaign.
pub const ROUNDS: usize = 8;

/// The scored pool and the streams it came from.
struct Scored {
    video: Video,
    sev: SeverityMatrix,
    unc: Vec<f64>,
    names: Vec<String>,
    phases: [f64; 3],
}

/// Scores every camera's stream on one worker, in camera order; also
/// returns each camera's nanoseconds.
fn score(video: &Video) -> (SeverityMatrix, Vec<f64>, Vec<u64>) {
    let set = video.cameras[0].scenario.prepared_set();
    let preparer = video.cameras[0].scenario.preparer();
    let pool = omg_scenario::ThreadPool::new(1);
    let mut sev = SeverityMatrix::with_capacity(video.frames(), set.len());
    let mut unc = Vec::with_capacity(video.frames());
    let mut camera_ns = Vec::with_capacity(video.cameras.len());
    for camera in &video.cameras {
        let t = Instant::now();
        let (s, u) = stream_score_scenario(&camera.scenario, &set, &preparer, &camera.items, &pool);
        camera_ns.push(t.elapsed().as_nanos() as u64);
        sev.append(&s);
        unc.extend(u);
    }
    (sev, unc, camera_ns)
}

fn build(seed: u64) -> Scored {
    let video = video_stream::build(seed, CAMERAS, POOL / CAMERAS);
    let t = Instant::now();
    let (sev, unc, _) = score(&video);
    let score_s = t.elapsed().as_secs_f64();
    let names = video.cameras[0]
        .scenario
        .prepared_set()
        .names()
        .into_iter()
        .map(String::from)
        .collect();
    let phases = [video.world_s, video.model_pass_s, score_s];
    Scored {
        video,
        sev,
        unc,
        names,
        phases,
    }
}

/// One round's timings (nanoseconds) and size.
struct Round {
    build_ns: u64,
    select_ns: u64,
    claim_ns: u64,
    picked: usize,
    pool_len: usize,
}

/// One campaign's rounds, selection digest, failed rounds, and the
/// first round's per-assertion fire counts.
struct Campaign {
    rounds: Vec<Round>,
    digest: u64,
    failed: u64,
    first_fire_counts: Vec<usize>,
}

impl Campaign {
    fn select_secs(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| (r.build_ns + r.select_ns) as f64)
            .sum::<f64>()
            / 1e9
    }
}

/// FNV-1a over the claimed pool indices of every round.
fn fold_digest(digest: u64, chosen: &[usize]) -> u64 {
    let mut h = digest;
    for &i in chosen {
        for b in (i as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whether a selection is valid: at most `budget` picks, each in range
/// of a pool of `len`, none repeated.
fn valid_selection(selection: &[usize], len: usize, budget: usize) -> bool {
    let mut sorted = selection.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    selection.len() <= budget && sorted.len() == selection.len() && sorted.iter().all(|&i| i < len)
}

fn campaign(
    scored: &Scored,
    seed: u64,
    campaign_index: usize,
    mut tracer: Option<&mut Tracer>,
) -> Campaign {
    let mut unlabeled: Vec<usize> = (0..scored.sev.len()).collect();
    let mut bal = BalStrategy::new(FallbackPolicy::Uncertainty);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1);
    let mut out = Campaign {
        rounds: Vec::with_capacity(ROUNDS),
        digest: 0xcbf2_9ce4_8422_2325,
        failed: 0,
        first_fire_counts: Vec::new(),
    };
    for r in 0..ROUNDS {
        let unit = (campaign_index * ROUNDS + r) as u64;
        let round = tracer.as_mut().map(|t| t.enter("round", unit));
        let t0 = Instant::now();
        let pool = in_span(&mut tracer, "pool.build", unit, || {
            let severities = unlabeled
                .iter()
                .map(|&i| scored.sev.row(i).to_vec())
                .collect();
            let uncertainties = unlabeled.iter().map(|&i| scored.unc[i]).collect();
            CandidatePool::new(severities, uncertainties).expect("rows share one width")
        });
        let t1 = Instant::now();
        let selection = in_span(&mut tracer, "select", unit, || {
            bal.select(&pool, BUDGET, &mut rng)
        });
        let t2 = Instant::now();
        let chosen = in_span(&mut tracer, "claim", unit, || {
            claim_selection(&mut unlabeled, &selection)
        });
        let t3 = Instant::now();
        if let (Some(t), Some(id)) = (tracer.as_mut(), round) {
            t.exit(id);
        }
        let ok = valid_selection(&selection, pool.len(), BUDGET) && chosen.len() == selection.len();
        out.failed += u64::from(!ok);
        if r == 0 {
            out.first_fire_counts = pool.fire_counts();
        }
        out.digest = fold_digest(out.digest, &chosen);
        out.rounds.push(Round {
            build_ns: (t1 - t0).as_nanos() as u64,
            select_ns: (t2 - t1).as_nanos() as u64,
            claim_ns: (t3 - t2).as_nanos() as u64,
            picked: selection.len(),
            pool_len: pool.len(),
        });
    }
    out
}

/// Campaigns until `seconds` have gone by (at least two), each on the
/// next core. Each counts its rounds plus one digest check against
/// `digest` (the first campaign's when `None`). With `rescore`, each
/// campaign is preceded by a re-scoring of the pool, whose rows are
/// checked against the set-up rows and whose per-camera nanoseconds go
/// into `rescore`.
fn campaigns(
    scored: &Scored,
    seed: u64,
    seconds: f64,
    digest: &mut Option<u64>,
    mut rescore: Option<&mut Vec<Vec<u64>>>,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Vec<Campaign> {
    let rotation = Rotation::new();
    let start = Instant::now();
    let mut done = Vec::new();
    while done.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        rotation.pin(done.len());
        if let Some(camera_ns) = rescore.as_deref_mut() {
            let (sev, unc, ns) = score(&scored.video);
            camera_ns.push(ns);
            let bad = mismatched_rows((&sev, &unc), (&scored.sev, &scored.unc), 0);
            out.count(
                sev.len() as u64,
                bad + scored.sev.len().abs_diff(sev.len()) as u64,
            );
        }
        let c = campaign(scored, seed, done.len(), tracer.as_deref_mut());
        let want = *digest.get_or_insert(c.digest);
        out.count(ROUNDS as u64 + 1, c.failed + u64::from(c.digest != want));
        done.push(c);
    }
    done
}

/// Labels selected per second of pool building and selection over the
/// campaigns, with each round's latency as the campaign's samples.
fn label_reps(done: &[Campaign]) -> Reps {
    let mut reps = Reps::default();
    for c in done {
        let picked = c.rounds.iter().map(|r| r.picked).sum::<usize>();
        let rounds = c
            .rounds
            .iter()
            .map(|r| r.build_ns + r.select_ns + r.claim_ns)
            .collect();
        reps.push(picked as f64, c.select_secs(), rounds);
    }
    reps
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let (scored, setup_secs, phases) =
        common::repeat_setup(|| build(config.seed), |s| s.phases.to_vec());
    // The pool is scored on one worker.
    let fanout = common::pool(1, "pool scoring")?.threads();
    println!("# pool: {POOL} candidates, budget {BUDGET}, {ROUNDS} rounds per campaign");
    let mut digest = None;

    if !config.trace {
        let mut rescore_ns = Vec::new();
        let done = campaigns(
            &scored,
            config.seed,
            config.seconds,
            &mut digest,
            Some(&mut rescore_ns),
            None,
            &mut out,
        );
        // A run reports a campaign made of each round's fastest time (and
        // a re-scoring of each camera's): a campaign lasts most of a
        // second, and on a shared host few whole campaigns of a run are
        // left alone. Every campaign scans and picks the same rows.
        let secs = |ns: Vec<u64>| ns.iter().sum::<u64>() as f64 / 1e9;
        let rounds = &done[0].rounds;
        let picked = rounds.iter().map(|r| r.picked).sum::<usize>() as f64;
        let scanned = rounds.iter().map(|r| r.pool_len).sum::<usize>() as f64;
        let select_secs = secs(fastest_parts_ns(
            done.iter()
                .map(|c| c.rounds.iter().map(|r| r.build_ns + r.select_ns)),
        ));
        let round_ms: Vec<f64> = fastest_parts_ns(done.iter().map(|c| {
            c.rounds
                .iter()
                .map(|r| r.build_ns + r.select_ns + r.claim_ns)
        }))
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
        let rescore_secs = secs(fastest_parts_ns(
            rescore_ns.iter().map(|c| c.iter().copied()),
        ));
        out.set("setup_s", median(&setup_secs));
        out.set("windows_per_s", scored.sev.len() as f64 / rescore_secs);
        out.set("items_per_s", scanned / select_secs);
        out.set("labels_per_s", picked / select_secs);
        out.set("latency_p50_ms", median(&round_ms));
        out.set("peak_rss_mb", common::peak_rss_mb()?);
        let first: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.1}", r.select_ns as f64 / 1e6))
            .collect();
        println!("# first campaign, select ms by round: {}", first.join(" "));
        let labels = label_reps(&done);
        println!(
            "# campaigns: {}; labels/s mean {:.1}, fastest campaign {:.1}, fastest rounds {:.1} (reported)",
            done.len(),
            labels.units / labels.secs,
            labels.rate(),
            picked / select_secs
        );
        println!(
            "# pool re-scorings: {}; fastest cameras {:.1} windows/s (reported)",
            rescore_ns.len(),
            scored.sev.len() as f64 / rescore_secs
        );
        println!("{}", labels.describe_tail("round latency"));
        println!("# selection digest: {:016x}", digest.unwrap_or(0));
        return Ok(out);
    }

    out.set("setup.world_s", median(&phases[0]));
    out.set("setup.model_pass_s", median(&phases[1]));
    out.set("setup.pool_score_s", median(&phases[2]));
    out.set("runtime.fanout", fanout as f64);
    set_fire_rates(
        &mut out,
        scored.names.iter().map(String::as_str),
        &scored.sev,
    );
    println!(
        "# flagged share of the pool: {:.4}",
        flagged_share(&scored.sev)
    );
    let untraced = label_reps(&campaigns(
        &scored,
        config.seed,
        config.seconds / 2.0,
        &mut digest,
        None,
        None,
        &mut out,
    ));

    let mut tracer = Tracer::with_capacity(4 * ROUNDS * 256);
    let traced = campaigns(
        &scored,
        config.seed,
        config.seconds / 2.0,
        &mut digest,
        None,
        Some(&mut tracer),
        &mut out,
    );
    let path = Path::new(".bench_trace").join(format!("al-select-seed{}.csv", config.seed));
    tracer
        .write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans: {}", path.display());

    // Allocation counts by layer, campaign by campaign.
    let (_, allocs) = self_figures(tracer.spans());
    let mut per_campaign: Vec<BTreeMap<&str, u64>> = vec![BTreeMap::new(); traced.len()];
    for (s, a) in tracer.spans().iter().zip(&allocs) {
        let campaign = s.unit as usize / ROUNDS;
        if let Some(layers) = per_campaign.get_mut(campaign) {
            *layers.entry(s.name).or_default() += a;
        }
    }
    let totals = tracer.by_name();
    let rounds = (traced.len() * ROUNDS) as f64;
    let layer = |name: &str| -> LayerTotals { Tracer::layer(&totals, name) };
    let total_ns: u64 = totals.values().map(|t| t.self_ns).sum();
    out.set(
        "pool.build.self_ms",
        layer("pool.build").self_ns as f64 / rounds / 1e6,
    );
    out.set(
        "select.self_ms",
        layer("select").self_ns as f64 / rounds / 1e6,
    );
    out.set(
        "claim.self_us",
        layer("claim").self_ns as f64 / rounds / 1e3,
    );
    out.set(
        "select.picked",
        traced[0].rounds.iter().map(|r| r.picked).sum::<usize>() as f64,
    );
    out.set(
        "select.fire_counts",
        traced[0].first_fire_counts.iter().sum::<usize>() as f64,
    );
    out.set("trace.residual_ns", layer("round").self_ns as f64 / rounds);
    out.set(
        "trace.residual_pct",
        100.0 * layer("round").self_ns as f64 / total_ns as f64,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (untraced.rate() / label_reps(&traced).rate() - 1.0),
    );
    let repeat = per_campaign.windows(2).all(|w| w[0] == w[1]);
    out.set("trace.allocs_repeat", f64::from(u8::from(repeat)));
    println!(
        "# first-round fire counts: {:?}; selection digest: {:016x}",
        traced[0].first_fire_counts,
        digest.unwrap_or(0)
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selections_must_be_distinct_in_range_and_within_budget() {
        assert!(valid_selection(&[3, 1, 2], 4, 3));
        assert!(!valid_selection(&[3, 1, 3], 4, 3), "repeat");
        assert!(!valid_selection(&[4], 4, 3), "out of range");
        assert!(!valid_selection(&[0, 1, 2, 3], 4, 3), "over budget");
        assert!(valid_selection(&[], 0, 3));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let d = fold_digest(0xcbf2_9ce4_8422_2325, &[1, 2]);
        assert_eq!(d, fold_digest(0xcbf2_9ce4_8422_2325, &[1, 2]));
        assert_ne!(d, fold_digest(0xcbf2_9ce4_8422_2325, &[2, 1]));
        assert_ne!(d, fold_digest(0xcbf2_9ce4_8422_2325, &[1, 3]));
    }
}
