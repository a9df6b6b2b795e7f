//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `(layer, name, start, end, parent, run)`. Spans nest on one
//! thread: the benchmark opens a span, calls into a layer (possibly
//! through child spans of its own), and closes it. They stay in memory
//! until the benchmark exits, then load in Perfetto as Chrome trace
//! JSON. A layer's self time is its spans' durations minus the parts
//! their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;
use uat_base::Json;

/// One closed or open span. Times are nanoseconds since the recorder's
/// epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Span recorder for one traced benchmark run (`run` names it in the
/// export). Untraced runs have none.
pub struct Spans {
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run: u64) -> Spans {
        Spans {
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer` named `name`. Spans opened by `f`
    /// become this span's children.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per layer: each span's duration minus the
    /// union of its children's intervals.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans)
    }

    /// Chrome trace JSON (`traceEvents` of complete `X` events, times
    /// in microseconds), which Perfetto and `chrome://tracing` load.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name.as_str())),
                    ("cat".into(), Json::str(s.layer)),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::UInt(1)),
                    ("tid".into(), Json::UInt(1)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::UInt(id as u64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("run".into(), Json::UInt(self.run)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ms")),
        ])
    }
}

fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let covered = union_len(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer).or_insert(0.0) += own.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span("bench", 0, 100, None),
            span("fiber", 10, 40, Some(0)),
            span("deque", 20, 30, Some(1)),
            span("fiber", 50, 70, Some(0)),
        ];
        let st = self_seconds(&spans);
        assert_eq!(st["bench"], 50e-9);
        assert_eq!(st["fiber"], 40e-9);
        assert_eq!(st["deque"], 10e-9);
        let total: f64 = st.values().sum();
        assert!((total - 100e-9).abs() < 1e-18, "self times tile the root");
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 15), (0, 10), (20, 30), (25, 40)];
        assert_eq!(union_len(&mut iv, 0, 35), 15 + 15);
        assert_eq!(union_len(&mut [], 0, 10), 0);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut s = Spans::new(7);
        let v = s.time("bench", "outer", |s| s.time("deque", "inner", |_| 42));
        assert_eq!(v, 42);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        let doc = s.to_chrome_json().to_string();
        let parsed = Json::parse(&doc).expect("export is valid JSON");
        let events = parsed.field("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].field("args").unwrap().field("run").unwrap(),
            &Json::UInt(7)
        );
    }
}
