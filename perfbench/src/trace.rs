//! Spans recorded from outside the program, around calls into each
//! layer's public functions.
//!
//! A [`Tracer`] keeps its spans in memory. Each span has a layer name,
//! start and end instants, the span that encloses it, and the
//! allocations counted while it was open. A layer's self time is its
//! spans' durations minus the part their child spans cover; because
//! every instant of a traced run lies in at most one span's self time,
//! the self times add up to the traced wall time minus the untraced
//! glue, which is what [`Tracer::coverage`] reports.
//!
//! A disabled tracer runs the same closures with no clock reads, so the
//! same recomposition code gives the untraced reference for the
//! tracing overhead.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    allocs: u64,
}

/// What one layer did over a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Self time, seconds.
    pub self_s: f64,
    /// Allocations counted inside the layer's spans (children included).
    pub allocs: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every [`Tracer::span`] a plain call.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f` (on
    /// the tracer it receives) become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let allocs = alloc::allocs();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            allocs: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        let span = &mut self.spans[id];
        span.end = end;
        span.allocs = alloc::allocs() - allocs;
        out
    }

    /// Per-layer calls, self time and allocations, by layer name.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_s += (s.end - s.start).as_secs_f64() - child;
            t.allocs += s.allocs;
        }
        out
    }

    /// Σ self time over every layer ÷ `wall_s`: the share of a traced
    /// run the spans account for.
    #[must_use]
    pub fn coverage(&self, wall_s: f64) -> f64 {
        self.layers().values().map(|t| t.self_s).sum::<f64>() / wall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| std::hint::black_box(a.wrapping_add(i * i)))
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_spans() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        tr.span("outer", |tr| {
            spin(200_000);
            tr.span("inner", |_| spin(200_000));
        });
        let wall = t0.elapsed().as_secs_f64();
        let layers = tr.layers();
        assert_eq!(layers["outer"].calls, 1);
        assert_eq!(layers["inner"].calls, 1);
        assert!(layers["outer"].self_s > 0.0 && layers["inner"].self_s > 0.0);
        let cov = tr.coverage(wall);
        assert!(cov > 0.9 && cov <= 1.0, "coverage {cov}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.layers().is_empty());
    }
}
