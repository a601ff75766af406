//! The open-loop load generator: every session uploads a fixed-size
//! burst on a fixed period, staggered evenly across sessions, whether or
//! not the target kept up. Each delivered window's latency runs from the
//! time its last input item was *due*, not from when the generator got
//! round to sending it, so a stall shows in the latency of every item
//! due while it lasted.

/// The upload schedule of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Items per burst.
    pub burst: usize,
    /// Time between one session's bursts, nanoseconds.
    pub period_ns: u64,
    /// Items each session uploads.
    pub items: usize,
    /// Time of the first burst, nanoseconds on the run's clock.
    pub start_ns: u64,
}

impl Schedule {
    /// The schedule offering `rate` items per second in total.
    pub fn at_rate(sessions: usize, burst: usize, items: usize, rate: f64, start_ns: u64) -> Self {
        let period_ns = (sessions * burst) as f64 / rate * 1e9;
        Self {
            sessions,
            burst,
            period_ns: period_ns.round() as u64,
            items,
            start_ns,
        }
    }

    /// When `session`'s item `item` is due.
    pub fn due_ns(&self, session: usize, item: usize) -> u64 {
        let stagger = self.period_ns * session as u64 / self.sessions as u64;
        self.start_ns + (item / self.burst) as u64 * self.period_ns + stagger
    }

    fn bursts_per_session(&self) -> usize {
        self.items.div_ceil(self.burst)
    }
}

/// Time as the generator sees it.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&mut self) -> u64;
    /// Returns once `now_ns() >= ns`.
    fn wait_until(&mut self, ns: u64);
}

/// The system under load.
pub trait Target {
    /// Offers `session`'s item `item`; false if it was refused.
    fn ingest(&mut self, session: usize, item: usize) -> bool;
    /// Processes everything queued.
    fn drain(&mut self);
    /// Collects `session`'s newly delivered windows and returns how many.
    fn poll(&mut self, session: usize) -> usize;
    /// Ends `session`, flushing the windows its last items opened.
    fn finish(&mut self, session: usize);
}

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Due-to-delivery latency of every window delivered by a poll.
    pub latency_ns: Vec<u64>,
    /// How late the generator sent each burst.
    pub lag_ns: Vec<u64>,
    /// Items the target refused.
    pub refused: usize,
}

/// Runs `schedule` against `target`, sending each burst once it is due
/// and draining at most once per `tick_ns` (a drain starts as soon as
/// the tick has passed and something is queued). A window centred on
/// item `j` is complete once item `j + half` has arrived, so its latency
/// is measured from that item's due time to the poll that returned the
/// window. Windows flushed by `finish` have no arrival to be timed from
/// and are not sampled.
pub fn run(
    schedule: &Schedule,
    half: usize,
    tick_ns: u64,
    clock: &mut impl Clock,
    target: &mut impl Target,
    observed: &mut Observed,
) {
    let sessions = schedule.sessions;
    let bursts = schedule.bursts_per_session();
    let mut delivered = vec![0usize; sessions];
    let mut dirty = vec![false; sessions];
    // Bursts in due order: burst k of every session, then burst k + 1.
    let mut next = 0usize;
    let total = bursts * sessions;
    let mut queued = false;
    let mut next_drain = 0u64;
    loop {
        let now = clock.now_ns();
        while next < total {
            let (k, s) = (next / sessions, next % sessions);
            let first = k * schedule.burst;
            let due = schedule.due_ns(s, first);
            if due > now {
                break;
            }
            observed.lag_ns.push(clock.now_ns().saturating_sub(due));
            for item in first..(first + schedule.burst).min(schedule.items) {
                if !target.ingest(s, item) {
                    observed.refused += 1;
                }
            }
            dirty[s] = true;
            queued = true;
            next += 1;
        }
        if queued && now >= next_drain {
            next_drain = now + tick_ns;
            queued = false;
            target.drain();
            for s in 0..sessions {
                if !std::mem::take(&mut dirty[s]) {
                    continue;
                }
                let rows = target.poll(s);
                let at = clock.now_ns();
                for j in delivered[s]..delivered[s] + rows {
                    if j + half < schedule.items {
                        let due = schedule.due_ns(s, j + half);
                        observed.latency_ns.push(at.saturating_sub(due));
                    }
                }
                delivered[s] += rows;
            }
        } else if next >= total && !queued {
            break;
        } else {
            let mut wake = if queued { next_drain } else { u64::MAX };
            if next < total {
                let (k, s) = (next / sessions, next % sessions);
                wake = wake.min(schedule.due_ns(s, k * schedule.burst));
            }
            clock.wait_until(wake);
        }
    }
    for s in 0..sessions {
        target.finish(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Simulated time, shared by the generator and the target: it moves
    /// only when the target works or the generator waits.
    #[derive(Clone, Default)]
    struct SimClock(Rc<Cell<u64>>);

    impl SimClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for SimClock {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
        fn wait_until(&mut self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    /// A target whose sessions emit the window centred `half` items back
    /// on every arrival. A drain costs `per_item` per queued item, and
    /// the first drain at or after `stall_at` first stalls for `stall`.
    struct SimTarget {
        clock: SimClock,
        half: usize,
        per_item: u64,
        stall_at: u64,
        stall: u64,
        queued: Vec<usize>,
        arrived: Vec<usize>,
        polled: Vec<usize>,
    }

    impl Target for SimTarget {
        fn ingest(&mut self, session: usize, _item: usize) -> bool {
            self.queued[session] += 1;
            true
        }
        fn drain(&mut self) {
            if self.stall > 0 && self.clock.0.get() >= self.stall_at {
                self.clock.advance(std::mem::take(&mut self.stall));
            }
            for s in 0..self.queued.len() {
                let q = std::mem::take(&mut self.queued[s]);
                self.clock.advance(q as u64 * self.per_item);
                self.arrived[s] += q;
            }
        }
        fn poll(&mut self, session: usize) -> usize {
            let emitted = self.arrived[session].saturating_sub(self.half);
            emitted - std::mem::replace(&mut self.polled[session], emitted)
        }
        fn finish(&mut self, _session: usize) {}
    }

    /// 4 sessions x 400 items in bursts of 8 at 100k items/s (each
    /// session every 320 us, sessions 80 us apart, 16 ms in all), against
    /// a target that needs 100 ns an item.
    fn observe(stall_at: u64, stall: u64) -> Observed {
        observe_with_tick(stall_at, stall, 0)
    }

    fn observe_with_tick(stall_at: u64, stall: u64, tick_ns: u64) -> Observed {
        let schedule = Schedule::at_rate(4, 8, 400, 100_000.0, 1_000);
        let mut clock = SimClock::default();
        let mut target = SimTarget {
            clock: clock.clone(),
            half: 3,
            per_item: 100,
            stall_at,
            stall,
            queued: vec![0; 4],
            arrived: vec![0; 4],
            polled: vec![0; 4],
        };
        let mut observed = Observed::default();
        run(
            &schedule,
            3,
            tick_ns,
            &mut clock,
            &mut target,
            &mut observed,
        );
        observed
    }

    #[test]
    fn schedule_staggers_sessions_and_spaces_bursts() {
        let s = Schedule::at_rate(4, 8, 64, 400_000.0, 500);
        // 4 sessions x 8 items per period at 400k items/s: 80 us.
        assert_eq!(s.period_ns, 80_000);
        assert_eq!(s.due_ns(0, 0), 500);
        assert_eq!(s.due_ns(0, 7), 500);
        assert_eq!(s.due_ns(0, 8), 80_500);
        assert_eq!(s.due_ns(1, 0), 20_500);
        assert_eq!(s.due_ns(3, 9), 500 + 80_000 + 60_000);
    }

    #[test]
    fn every_window_opened_by_an_arrival_is_timed() {
        let calm = observe(u64::MAX, 0);
        // 4 sessions x (400 - half) windows complete on arrival.
        assert_eq!(calm.latency_ns.len(), 4 * 397);
        assert_eq!(calm.lag_ns.len(), 4 * 50);
        assert_eq!(calm.refused, 0);
        // Unloaded, a window waits only for its own burst's drain.
        assert!(
            calm.latency_ns.iter().all(|&l| l <= 8 * 100),
            "{:?}",
            calm.latency_ns
        );
        assert!(calm.lag_ns.iter().all(|&l| l == 0));
    }

    #[test]
    fn a_stall_raises_the_latency_of_items_due_during_it() {
        let calm = observe(u64::MAX, 0);
        // A 2 ms stall at 1 ms: bursts due in [1 ms, 3 ms) are sent late.
        let stalled = observe(1_000_000, 2_000_000);
        assert_eq!(stalled.latency_ns.len(), calm.latency_ns.len());
        let worst = |o: &Observed| o.latency_ns.iter().copied().max().unwrap_or(0);
        // The item due right when the stall began waits all of it.
        assert!(worst(&stalled) >= 2_000_000, "worst {}", worst(&stalled));
        // Items due during the stall are late too, not only the first:
        // timing from the send time would hide them.
        let late = stalled.latency_ns.iter().filter(|&&l| l > 100_000).count();
        // Bursts come due every 80 us, so about 25 fall inside the stall.
        assert!(late > 16 * 8, "only {late} windows saw the stall");
        assert!(stalled.lag_ns.iter().any(|&l| l >= 1_900_000));
        // Once the backlog clears, latency returns to the calm level.
        let tail = &stalled.latency_ns[stalled.latency_ns.len() - 40..];
        assert!(tail.iter().all(|&l| l <= 8 * 100 * 4), "{tail:?}");
    }

    #[test]
    fn a_drain_tick_batches_bursts_and_waits_at_most_one_tick() {
        let calm = observe(u64::MAX, 0);
        let ticked = observe_with_tick(u64::MAX, 0, 200_000);
        assert_eq!(ticked.latency_ns.len(), calm.latency_ns.len());
        assert_eq!(ticked.refused, 0);
        let worst = ticked.latency_ns.iter().copied().max().unwrap_or(0);
        assert!(worst > 8 * 100, "some windows waited for the tick");
        assert!(worst <= 200_000 + 4 * 8 * 100, "worst {worst}");
    }
}
