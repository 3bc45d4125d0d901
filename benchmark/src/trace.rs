//! In-memory spans around the harness's own calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Spans nest by `begin`/`end`
//! pairs; each records its name (the layer and call, e.g.
//! `engine.optimize`), start and end in nanoseconds since the part's
//! epoch, the span that caused it, and the id of the op it belongs to.
//! Nothing is written until the part ends. A layer's *self time* is its
//! span minus the spans it directly caused.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer and call, e.g. `parser.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index (in the same tracer) of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to; spans of one op share it.
    pub op_id: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. When `enabled` is false `begin`/`end`
/// do nothing, so the untraced and traced segments of a run execute the
/// same harness code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer measuring from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer { epoch, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), false)
    }

    /// Switches recording on or off (between segments, never mid-span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Opens a span caused by the innermost open span.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = now;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer into its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one thread, in microseconds, in span
/// order: its duration minus that of the spans it directly caused.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children) as f64 / 1e3)
        .collect()
}

/// The trace file: one array of spans per thread, with parents as
/// indices into the same array.
pub fn to_json(threads: &[Vec<Span>]) -> Json {
    Json::Arr(
        threads
            .iter()
            .map(|spans| {
                Json::Arr(
                    spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start", Json::Num(s.start_ns as f64)),
                                ("end", Json::Num(s.end_ns as f64)),
                                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                                ("op_id", Json::Num(s.op_id as f64)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span { name: "op", start_ns: 0, end_ns: 100_000, parent: None, op_id: 1 },
            Span { name: "a", start_ns: 10_000, end_ns: 60_000, parent: Some(0), op_id: 1 },
            Span { name: "b", start_ns: 20_000, end_ns: 30_000, parent: Some(1), op_id: 1 },
        ];
        assert_eq!(self_times_us(&spans), vec![50.0, 40.0, 10.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::off();
        let open = off.begin("op", 1);
        off.end(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(Instant::now(), true);
        let outer = on.begin("op", 7);
        let inner = on.begin("parser.parse", 7);
        on.end(inner);
        on.end(outer);
        let spans = on.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
