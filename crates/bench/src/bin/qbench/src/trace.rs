//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end, the span that caused it, and the
//! pass it belongs to. Spans are kept in memory and written out once the
//! run ends. A span's *self time* is its duration minus the part of its
//! interval its direct children cover, so the self times of a root and
//! all its descendants add up to the root's wall time exactly; the
//! root's own self time is the work no layer span accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Pass the span belongs to (inherited from its root).
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing, so traced and untraced passes share one code path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a root span for pass `pass`; every span begun before the
    /// matching [`Tracer::end`] is its descendant.
    pub fn begin_root(&mut self, name: &'static str, pass: u32) {
        self.pass = pass;
        self.begin(name);
    }

    fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Drop every span recorded after the first `len`; none may be open.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.open.is_empty(), "truncate() with an open span");
        self.spans.truncate(len);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let id = self.open.pop().expect("end() without an open span");
        self.spans[id].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(name);
        let out = f();
        self.end();
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (
                        c.start_ns.clamp(span.start_ns, span.end_ns),
                        c.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per root name: the accounting identity Σ self(layer spans) +
/// unaccounted = wall, where wall is the summed duration of the roots
/// and unaccounted is the roots' own self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity {
    pub layer_self_ns: u64,
    pub unaccounted_ns: u64,
    pub wall_ns: u64,
}

/// Aggregates of one trace: self time and call count per span name,
/// and the accounting identity per root name.
#[derive(Debug, Default)]
pub struct Accounting {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub calls: BTreeMap<&'static str, u64>,
    pub identity: BTreeMap<&'static str, Identity>,
}

pub fn account(spans: &[Span]) -> Accounting {
    let selfs = self_times(spans);
    let mut acc = Accounting::default();
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    };
    for (i, span) in spans.iter().enumerate() {
        *acc.self_ns.entry(span.name).or_default() += selfs[i];
        *acc.calls.entry(span.name).or_default() += 1;
        let identity = acc.identity.entry(root_of(i)).or_default();
        if span.parent.is_none() {
            identity.unaccounted_ns += selfs[i];
            identity.wall_ns += span.duration_ns();
        } else {
            identity.layer_self_ns += selfs[i];
        }
    }
    acc
}

/// The trace file: span names once, then one `[name, start_ns, end_ns,
/// parent, pass]` row per span (`parent` is -1 for a root).
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::new();
    let _ = write!(out, "{{\"workload\": \"{workload}\", \"names\": [");
    for (i, name) in names.iter().enumerate() {
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{comma}\"{name}\"");
    }
    out.push_str("],\n\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"pass\"],\n\"spans\": [");
    for (i, span) in spans.iter().enumerate() {
        let name = names.binary_search(&span.name).expect("name was collected");
        let parent = span.parent.map_or(-1, |p| p as i64);
        let comma = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{comma}[{name}, {}, {}, {parent}, {}]",
            span.start_ns, span.end_ns, span.pass
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let acc = account(&spans);
        let id = acc.identity["pass"];
        assert_eq!(id.layer_self_ns + id.unaccounted_ns, id.wall_ns);
        assert_eq!(
            (id.layer_self_ns, id.unaccounted_ns, id.wall_ns),
            (70, 30, 100)
        );
        assert_eq!(acc.self_ns["a"], 20);
        assert_eq!(acc.calls["a"], 1);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)), // overlaps a and outlives the root
        ];
        // Children cover [10, 100) of the root: 90 ns.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn identity_is_kept_per_root_name() {
        let spans = vec![
            span("pass", 0, 10, None),
            span("x", 2, 5, Some(0)),
            span("staged", 20, 50, None),
            span("y", 20, 50, Some(2)),
        ];
        let acc = account(&spans);
        assert_eq!(
            acc.identity["pass"],
            Identity {
                layer_self_ns: 3,
                unaccounted_ns: 7,
                wall_ns: 10
            }
        );
        assert_eq!(acc.identity["staged"].unaccounted_ns, 0);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin_root("pass", 3);
        let v = t.span("outer", || 7);
        t.end();
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].pass, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        off.begin_root("pass", 0);
        off.span("x", || ());
        off.end();
        assert!(off.spans().is_empty());
    }
}
