//! The multi-tenant service's conformance suite: **every scenario in
//! the runtime registry** — current and future — automatically gets the
//! service-path contract checked, with zero per-scenario test code:
//!
//! * N interleaved sessions driven through the service (round-robin
//!   bursts, bounded queues exercising `QueueFull` backpressure, drains
//!   and polls interleaved mid-stream) each deliver **bit-for-bit** the
//!   severities and uncertainties of an independent sequential
//!   `stream_score_scenario` run of the same items, at 1, 2, and 8
//!   drain workers;
//! * per-session database retention (the flat-memory knob) never
//!   changes a single delivered score;
//! * the clamped edges — a one-item session, an empty session — hold
//!   through the service path too.
//!
//! Registering a scenario in `omg_bench::scenarios::all_scenarios` /
//! `service_for` is what puts it under this suite — a new use case is
//! service-conformance-tested by construction.

use omg_bench::scenarios::{all_services, service_for};
use omg_core::runtime::ThreadPool;
use omg_core::SeverityMatrix;
use omg_service::{DynService, ServiceConfig, SessionId};
use proptest::prelude::*;

const WORKERS: [usize; 3] = [1, 2, 8];

/// The three sessions a conformance pass interleaves: the full stream,
/// a prefix, and an offset suffix — overlapping slices, so shared
/// state leaking across sessions cannot cancel out.
fn session_slices(len: usize) -> [(usize, usize); 3] {
    let prefix = len.div_ceil(2);
    let offset = len / 3;
    [(0, len), (0, prefix), (offset, len - offset)]
}

/// Drives `sessions` interleaved through `svc` (burst-ingest with
/// backpressure, drain, poll) and asserts each session's delivered
/// outputs equal its independent sequential reference.
fn assert_sessions_conform(
    svc: &dyn DynService,
    slices: &[(usize, usize)],
    pool: &ThreadPool,
    burst: usize,
    label: &str,
) {
    let mut cursors = vec![0usize; slices.len()];
    let mut delivered: Vec<(SeverityMatrix, Vec<f64>)> =
        vec![(SeverityMatrix::new(), Vec::new()); slices.len()];
    loop {
        let mut progressed = false;
        for (s, &(start, len)) in slices.iter().enumerate() {
            let session = SessionId(s as u64);
            for _ in 0..burst {
                if cursors[s] >= len {
                    break;
                }
                // Backpressure: a full queue defers the rest of the
                // burst to after the drain below.
                if svc
                    .try_ingest_position(session, start + cursors[s])
                    .is_err()
                {
                    break;
                }
                cursors[s] += 1;
                progressed = true;
            }
        }
        svc.drain(pool);
        for (s, out) in delivered.iter_mut().enumerate() {
            let (sev, unc) = svc.poll(SessionId(s as u64)).expect("open session");
            out.0.append(&sev);
            out.1.extend(unc);
        }
        if !progressed && svc.queued() == 0 {
            break;
        }
    }
    for (s, &(start, len)) in slices.iter().enumerate() {
        let (sev, unc) = svc.finish(SessionId(s as u64)).expect("open session");
        delivered[s].0.append(&sev);
        delivered[s].1.extend(unc);
        assert_eq!(
            delivered[s],
            svc.sequential_reference(start, len),
            "{label}: session {s} (slice {start}+{len}) diverged from its sequential run"
        );
    }
    assert_eq!(svc.sessions(), 0, "{label}: finish tears sessions down");
}

proptest! {
    /// The registry-wide service conformance property: for every
    /// registered scenario, interleaved sessions through the
    /// multi-tenant service deliver bit-for-bit the outputs of
    /// independent sequential runs, at 1, 2, and 8 drain workers —
    /// with small bounded queues (backpressure exercised) and tight
    /// database retention (which must not affect outputs).
    #[test]
    fn every_scenario_conforms_through_the_service(seed in 0u64..60, size in 8usize..24) {
        let config = ServiceConfig::default()
            .with_queue_capacity(8)
            .with_retention(4);
        for workers in WORKERS {
            let pool = ThreadPool::exact(workers);
            for svc in all_services(seed, size, &config) {
                let slices = session_slices(svc.stream_len());
                assert_sessions_conform(
                    svc.as_ref(),
                    &slices,
                    &pool,
                    3,
                    &format!("{} (seed={seed}, size={size}, workers={workers})", svc.name()),
                );
            }
        }
    }
}

/// Clamped-edge conformance through the service: a one-item session
/// scores its single (doubly clamped) window, and an opened-but-empty
/// session finishes cleanly with no output.
#[test]
fn tiny_and_empty_sessions_conform() {
    let config = ServiceConfig::default().with_queue_capacity(4);
    for svc in all_services(7, 8, &config) {
        let pool = ThreadPool::exact(2);
        let one = SessionId(0);
        let empty = SessionId(1);
        svc.try_ingest_position(one, 0).expect("capacity");
        svc.open(empty);
        svc.drain(&pool);
        let mut got = svc.poll(one).expect("open session");
        let (sev, unc) = svc.finish(one).expect("open session");
        got.0.append(&sev);
        got.1.extend(unc);
        assert_eq!(
            got,
            svc.sequential_reference(0, 1),
            "{}: one-item session",
            svc.name()
        );
        let (sev, unc) = svc.finish(empty).expect("open session");
        assert!(
            sev.is_empty() && unc.is_empty(),
            "{}: empty session has no output",
            svc.name()
        );
        assert_eq!(svc.sessions(), 0);
    }
}

/// The accounting the soak benchmark relies on: once finished, every
/// accepted item was scored exactly once, across interleaved sessions.
#[test]
fn every_accepted_item_is_scored_exactly_once() {
    let svc = service_for(
        "video",
        5,
        20,
        ServiceConfig::default()
            .with_queue_capacity(8)
            .with_retention(4),
    )
    .expect("video is registered");
    let pool = ThreadPool::exact(2);
    let slices = session_slices(svc.stream_len());
    assert_sessions_conform(svc.as_ref(), &slices, &pool, 4, "video accounting");
    let total: usize = slices.iter().map(|&(_, len)| len).sum();
    assert_eq!(svc.accepted(), total);
    assert_eq!(svc.scored(), total, "finish flushes every tail window");
}
