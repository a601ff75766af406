//! Pieces every workload shares: the run header, host facts, set-up
//! repetition, and bit-for-bit comparison of scored rows.

use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use omg_core::runtime::ThreadPool;
use omg_core::SeverityMatrix;

use crate::report::Outcome;
use crate::stats::{median, percentile, tail_percentile, Histogram};
use crate::RunConfig;

/// Times each set-up is repeated in a run; set-up figures are medians.
pub const SETUP_REPS: usize = 5;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Today's date (UTC) as `YYYY-MM-DD`.
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The checkout's git revision; a source tree without git metadata has
/// none. The search stops at the current directory.
fn git_revision() -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Prints the run header: where, with what, and on which inputs.
pub fn print_header(config: &RunConfig) {
    println!("# workload: {}", config.workload);
    println!("# seed: {}", config.seed);
    println!("# seconds: {}", config.seconds);
    println!("# traced: {}", config.trace);
    println!("# host: {}", hostname());
    println!("# nproc: {}", nproc());
    println!("# rustc: {}", env!("BENCH_RUSTC_VERSION"));
    println!("# revision: {}", git_revision());
    println!("# profile: {}", env!("BENCH_BUILD_PROFILE"));
    println!("# date: {}", utc_date());
}

/// A pool of `threads` workers for the phase `what`, refused when it
/// would fan out wider than this host's cores; its fanout goes into the
/// header.
pub fn pool(threads: usize, what: &str) -> Result<ThreadPool, String> {
    let cores = nproc();
    if threads > cores {
        return Err(format!(
            "fanout {threads} exceeds nproc {cores}; refusing to report"
        ));
    }
    let pool = ThreadPool::new(threads);
    println!(
        "# fanout ({what}): threads={} fanout={}",
        pool.threads(),
        pool.fanout()
    );
    Ok(pool)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The CPUs the calling thread may run on, from `Cpus_allowed_list`.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) if a <= b => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Sets the calling thread's CPU mask; false if the kernel refused.
fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed; the kernel only reads it, and pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Moves a single-threaded measurement between the host's cores:
/// repetition `rep` runs on the `rep`-th allowed CPU, round robin, so a
/// run samples every core instead of whichever one the scheduler chose.
/// The cores of a shared host can differ in speed for long stretches.
/// Dropping the guard restores the full CPU mask, which threads spawned
/// later inherit.
pub struct Rotation {
    cpus: Vec<usize>,
}

impl Rotation {
    /// A rotation over the allowed CPUs.
    pub fn new() -> Self {
        Self {
            cpus: allowed_cpus(),
        }
    }

    /// Pins the calling thread for repetition `rep`.
    pub fn pin(&self, rep: usize) {
        if !self.cpus.is_empty() {
            set_affinity(&[self.cpus[rep % self.cpus.len()]]);
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.cpus);
        }
    }
}

/// Work done over a run's repetitions, with each repetition's rate and
/// median latency. A run reports its fastest repetition: the highest
/// rate and the lowest median latency. The benchmark runs on shared
/// hosts whose other tenants slow every core, by a third and more, for
/// stretches of seconds to minutes, and interference only ever slows a
/// repetition; a repetition's work is fixed, so none can run faster
/// than the program allows. Totals over a run follow the host's load
/// instead: on a shared 2-vCPU host their spread over ten runs reached a
/// quarter of the median.
#[derive(Debug, Default)]
pub struct Reps {
    /// Units of work done (windows, items or labels).
    pub units: f64,
    /// Seconds spent on them.
    pub secs: f64,
    /// Each repetition's rate, units per second.
    rates: Vec<f64>,
    /// Each repetition's median latency, nanoseconds.
    medians_ns: Vec<f64>,
    /// Every latency sample, nanoseconds.
    latency: Histogram,
}

impl Reps {
    /// Adds one repetition.
    pub fn push(&mut self, units: f64, secs: f64, mut latency_ns: Vec<u64>) {
        self.units += units;
        self.secs += secs;
        self.rates.push(units / secs);
        if !latency_ns.is_empty() {
            self.medians_ns
                .push(percentile(&mut latency_ns, 50.0) as f64);
            for &l in &latency_ns {
                self.latency.record(l);
            }
        }
    }

    /// Repetitions.
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// The fastest repetition's rate, units per second.
    pub fn rate(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// The lowest of the repetitions' median latencies, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.medians_ns
            .iter()
            .copied()
            .reduce(f64::min)
            .unwrap_or(0.0)
            / 1e6
    }

    /// The rates over the run, as a header line: the mean (total over
    /// total), the median, and the fastest repetition's, which the run
    /// reports.
    pub fn describe_rates(&self, what: &str, unit: &str) -> String {
        format!(
            "# {what}: {} repetitions; mean {:.1} {unit}, median {:.1}, fastest {:.1} (reported)",
            self.count(),
            self.units / self.secs,
            median(&self.rates),
            self.rate()
        )
    }

    /// The highest percentile with at least ten samples above it, over
    /// every sample of the run, as a header line.
    pub fn describe_tail(&self, what: &str) -> String {
        let n = self.latency.len();
        let p99 = self.latency.percentile(99.0) as f64 / 1e6;
        let tail = match tail_percentile(n, 10) {
            Some((pct, above)) => {
                let v = self.latency.percentile(pct) as f64 / 1e6;
                format!("p{pct} = {v:.4} ms with {above} samples above it")
            }
            None => "too few samples for a tail".to_string(),
        };
        format!(
            "# {what}: {n} samples over {} repetitions; p50 {:.4} ms; p99 {p99:.4} ms; {tail}; lowest repetition median {:.4} ms",
            self.medians_ns.len(),
            self.latency.percentile(50.0) as f64 / 1e6,
            self.p50_ms()
        )
    }
}

/// The fastest time of each part of a repetition made of fixed parts
/// (a campaign's rounds, a re-scoring's cameras): `reps` yields each
/// repetition's nanoseconds per part, in part order. A part that takes
/// under a second gets far more chances than a whole repetition to run
/// while the host leaves it alone.
pub fn fastest_parts_ns<P: IntoIterator<Item = u64>>(
    reps: impl IntoIterator<Item = P>,
) -> Vec<u64> {
    let mut best: Vec<u64> = Vec::new();
    for rep in reps {
        for (p, ns) in rep.into_iter().enumerate() {
            match best.get_mut(p) {
                Some(b) => *b = (*b).min(ns),
                None => best.push(ns),
            }
        }
    }
    best
}

/// Runs `build` [`SETUP_REPS`] times, dropping each result before the
/// next and moving between cores as [`Rotation`] does. Returns the last
/// result, each repetition's seconds, and each phase's seconds in every
/// repetition, as `phases` reads them from a result.
pub fn repeat_setup<T>(
    mut build: impl FnMut() -> T,
    phases: impl Fn(&T) -> Vec<f64>,
) -> (T, Vec<f64>, Vec<Vec<f64>>) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut per_phase: Vec<Vec<f64>> = Vec::new();
    let mut last = None;
    let rotation = Rotation::new();
    for rep in 0..SETUP_REPS {
        drop(last.take());
        rotation.pin(rep);
        let t = Instant::now();
        let built = build();
        secs.push(t.elapsed().as_secs_f64());
        for (i, p) in phases(&built).into_iter().enumerate() {
            if per_phase.len() <= i {
                per_phase.push(Vec::new());
            }
            per_phase[i].push(p);
        }
        last = Some(built);
    }
    (last.expect("at least one repetition"), secs, per_phase)
}

/// Rows of `got` that differ from rows `first..` of `want` in any bit of
/// a severity or of the uncertainty; a missing row counts as differing.
pub fn mismatched_rows(
    got: (&SeverityMatrix, &[f64]),
    want: (&SeverityMatrix, &[f64]),
    first: usize,
) -> u64 {
    let (gs, gu) = got;
    let (ws, wu) = want;
    let mut bad = 0u64;
    for i in 0..gs.len().max(gu.len()) {
        let j = first + i;
        let same = i < gs.len()
            && i < gu.len()
            && j < ws.len()
            && j < wu.len()
            && gu[i].to_bits() == wu[j].to_bits()
            && gs.row(i).len() == ws.row(j).len()
            && gs
                .row(i)
                .iter()
                .zip(ws.row(j))
                .all(|(a, b)| a.to_bits() == b.to_bits());
        bad += u64::from(!same);
    }
    bad
}

/// The metric name of an assertion's fire rate.
pub fn fire_rate_metric(assertion: &str) -> Option<&'static str> {
    match assertion {
        "multibox" => Some("check.fire_rate.multibox"),
        "flicker" => Some("check.fire_rate.flicker"),
        "appear" => Some("check.fire_rate.appear"),
        "ecg" => Some("check.fire_rate.ecg"),
        _ => None,
    }
}

/// Records the fire rate over `sev` of each assertion, by name in
/// column order.
pub fn set_fire_rates<'a>(
    out: &mut Outcome,
    names: impl IntoIterator<Item = &'a str>,
    sev: &SeverityMatrix,
) {
    for (name, rate) in names.into_iter().zip(fire_rates(sev)) {
        match fire_rate_metric(name) {
            Some(metric) => out.set(metric, rate),
            None => println!("# note: assertion {name} has no fire-rate metric"),
        }
    }
}

/// Share of windows on which at least one assertion fired: the windows
/// a monitor hands on as candidates for labeling.
pub fn flagged_share(sev: &SeverityMatrix) -> f64 {
    let flagged = sev
        .iter_rows()
        .filter(|r| r.iter().any(|&v| v > 0.0))
        .count();
    flagged as f64 / sev.len().max(1) as f64
}

/// Per-assertion fire rate (severity > 0) over the rows of `sev`.
pub fn fire_rates(sev: &SeverityMatrix) -> Vec<f64> {
    let mut fires = vec![0usize; sev.width()];
    for row in sev.iter_rows() {
        for (m, &v) in row.iter().enumerate() {
            fires[m] += usize::from(v > 0.0);
        }
    }
    let n = sev.len().max(1) as f64;
    fires.into_iter().map(|f| f as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_report_the_fastest_repetition() {
        let mut r = Reps::default();
        r.push(100.0, 1.0, vec![5, 1, 3]);
        r.push(300.0, 1.0, vec![7, 9, 8, 100]);
        assert_eq!(r.rate(), 300.0);
        assert_eq!(r.p50_ms(), 3.0 / 1e6);
        // A slow stretch of the host adds slow repetitions; the fastest
        // stays.
        r.push(1.0, 1.0, vec![1_000_000]);
        assert_eq!(r.rate(), 300.0);
        assert_eq!(r.p50_ms(), 3.0 / 1e6);
        assert_eq!(r.count(), 3);
        assert_eq!(r.units, 401.0);
        assert!(r
            .describe_tail("t")
            .starts_with("# t: 8 samples over 3 repetitions"));
        assert!(r
            .describe_rates("r", "1/s")
            .ends_with("median 100.0, fastest 300.0 (reported)"));
        assert_eq!(Reps::default().p50_ms(), 0.0);
    }

    #[test]
    fn fastest_parts_take_each_parts_minimum() {
        let reps = vec![vec![5u64, 9, 4], vec![7, 2, 6], vec![6, 3]];
        assert_eq!(fastest_parts_ns(reps), vec![5, 2, 4]);
        assert!(fastest_parts_ns(Vec::<Vec<u64>>::new()).is_empty());
    }

    #[test]
    fn rotation_restores_the_full_mask() {
        let before = allowed_cpus();
        {
            let rotation = Rotation::new();
            rotation.pin(1);
            if before.len() > 1 {
                assert_eq!(allowed_cpus().len(), 1);
            }
        }
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn date_is_iso_formatted() {
        let d = utc_date();
        assert_eq!(d.len(), 10);
        assert!(d.starts_with("20"), "{d}");
    }

    #[test]
    fn mismatch_counts_differing_and_missing_rows() {
        let mut want = SeverityMatrix::new();
        for r in [[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]] {
            want.push_row(&r);
        }
        let wu = [0.1, 0.2, 0.3];
        let mut got = SeverityMatrix::new();
        got.push_row(&[2.0, 0.0]);
        got.push_row(&[0.0, -0.0]);
        assert_eq!(
            mismatched_rows((&got, &[0.2, 0.3]), (&want, &wu), 1),
            1,
            "-0 != 0"
        );
        assert_eq!(mismatched_rows((&got, &[0.2]), (&want, &wu), 1), 1);
        assert_eq!(mismatched_rows((&got, &[0.2, 0.3]), (&want, &wu), 2), 2);
    }

    #[test]
    fn fire_rates_count_positive_severities() {
        let mut sev = SeverityMatrix::new();
        sev.push_row(&[0.0, 1.0]);
        sev.push_row(&[3.0, 1.0]);
        assert_eq!(fire_rates(&sev), vec![0.5, 1.0]);
    }
}
