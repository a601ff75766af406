//! In-memory span tracing for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions. Each span keeps its name, start, end,
//! parent, the window or round it belongs to, and the allocation calls
//! its thread made while it was open. Spans stay in memory until the run
//! ends, when [`Tracer::write_csv`] writes them out.
//!
//! A span's self time is its duration minus the part of it that its
//! child spans cover. Layer names are dotted: `prepare.track` is a part
//! of `prepare`, so a layer's figures ([`Tracer::layer`]) add up the
//! self figures of every span in its namespace.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, dotted for sub-layers.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time (0 while open).
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// The window or round the span belongs to.
    pub unit: u64,
    /// Allocation calls made on this thread while the span was open.
    pub allocs: u64,
}

/// Self figures summed over the spans of one layer namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Self time, nanoseconds.
    pub self_ns: u64,
    /// Self allocation calls.
    pub self_allocs: u64,
    /// Spans named exactly as the layer.
    pub calls: u64,
}

impl LayerTotals {
    /// Adds another set of figures to these.
    pub fn add(&mut self, other: LayerTotals) {
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
        self.calls += other.calls;
    }
}

/// Records spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, reserved up front
    /// so that recording does not allocate inside the spans it measures.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, unit: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let allocs = alloc::count();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            unit,
            allocs,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        let allocs = alloc::count();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end = end;
        span.allocs = allocs - span.allocs;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, unit);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span, keeping the reserved room.
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// Self figures of every span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTotals> {
        let (self_ns, self_allocs) = self_figures(&self.spans);
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.self_ns += self_ns[i];
            t.self_allocs += self_allocs[i];
            t.calls += 1;
        }
        out
    }

    /// The figures of layer `name`: the sum over every span named `name`
    /// or `name.<part>`.
    pub fn layer(totals: &BTreeMap<&'static str, LayerTotals>, name: &str) -> LayerTotals {
        let mut out = LayerTotals::default();
        for (span, t) in totals {
            let inside = span
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'));
            if inside {
                out.add(LayerTotals {
                    calls: if *span == name { t.calls } else { 0 },
                    ..*t
                });
            }
        }
        out
    }

    /// Writes the spans as CSV (`id,parent,name,unit,start_ns,end_ns,allocs`)
    /// to `path`, creating its directory.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,unit,start_ns,end_ns,allocs")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{}",
                s.name, s.unit, s.start, s.end, s.allocs
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when there is a tracer, else just runs it.
pub fn in_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    unit: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, unit, f),
        None => f(),
    }
}

/// Per-span self time and self allocation count: the span's figures
/// minus what its direct children cover. Child intervals are merged and
/// clipped to the parent, so overlapping or overhanging children are
/// never subtracted twice.
pub fn self_figures(spans: &[Span]) -> (Vec<u64>, Vec<u64>) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != ROOT {
            children[s.parent as usize].push(i);
        }
    }
    let mut self_ns = Vec::with_capacity(spans.len());
    let mut self_allocs = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let mut kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
            .filter(|&(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        self_ns.push((s.end - s.start).saturating_sub(covered));
        let child_allocs: u64 = children[i].iter().map(|&c| spans[c].allocs).sum();
        self_allocs.push(s.allocs.saturating_sub(child_allocs));
    }
    (self_ns, self_allocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, allocs: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            unit: 0,
            allocs,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("window", 0, 100, ROOT, 10),
            span("prepare", 10, 70, 0, 7),
            span("prepare.track", 15, 40, 1, 4),
            span("prepare.consistency", 40, 65, 1, 2),
            span("check", 75, 90, 0, 1),
        ];
        let (ns, allocs) = self_figures(&spans);
        assert_eq!(ns, vec![100 - 60 - 15, 60 - 25 - 25, 25, 25, 15]);
        assert_eq!(allocs, vec![10 - 7 - 1, 7 - 4 - 2, 4, 2, 1]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("parent", 100, 200, ROOT, 0),
            span("a", 90, 140, 0, 0),
            span("b", 120, 160, 0, 0),
            span("c", 190, 250, 0, 0),
        ];
        let (ns, _) = self_figures(&spans);
        // Covered: [100, 160) and [190, 200) = 70 of 100.
        assert_eq!(ns[0], 30);
    }

    #[test]
    fn layer_sums_its_namespace_only() {
        let mut tracer = Tracer::with_capacity(8);
        let w = tracer.enter("window", 0);
        let p = tracer.enter("prepare", 0);
        tracer.span("prepare.track", 0, || std::hint::black_box(vec![1u8; 4]));
        tracer.exit(p);
        tracer.span("preparex", 0, || ());
        tracer.exit(w);
        let totals = tracer.by_name();
        let prepare = Tracer::layer(&totals, "prepare");
        let track = Tracer::layer(&totals, "prepare.track");
        assert_eq!(prepare.calls, 1);
        assert_eq!(
            prepare.self_ns,
            totals["prepare"].self_ns + totals["prepare.track"].self_ns
        );
        assert_eq!(track.self_allocs, 1, "the vec! allocation, nothing else");
        assert_eq!(Tracer::layer(&totals, "preparex").calls, 1);
        let window = totals["window"];
        let spans = tracer.spans();
        let total = spans[0].end - spans[0].start;
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, total, "self times partition the root span");
        assert!(window.self_ns <= total);
    }
}
