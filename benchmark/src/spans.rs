//! Harness-side spans: one record per call into a layer's public function,
//! kept in memory and written out when the run ends. The program under
//! test is not touched; its own `wavesched_obs` spans are read separately.

use crate::json::Json;
use crate::stats::ns;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that was open when this
/// one started; times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for one workload run.
pub struct Spans {
    origin: Instant,
    rep: u32,
    open: Vec<usize>,
    pub recs: Vec<SpanRec>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            rep: 0,
            open: Vec::new(),
            recs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        ns(self.origin.elapsed())
    }

    /// Labels the spans recorded from here on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Spans::exit
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.recs[id].end_ns = end_ns;
    }

    /// Times `f` as a leaf span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Sum of the durations of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.recs
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// A span's self time: its duration minus the part of that interval its
    /// direct children cover (overlapping children are counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.recs[id];
        let mut kids: Vec<(u64, u64)> = self
            .recs
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (me.end_ns - me.start_ns) - covered
    }

    /// One JSON object per span, for `trace.jsonl`.
    pub fn to_json_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.recs.iter().enumerate() {
            let line = Json::obj([
                ("kind", Json::str("span")),
                ("workload", Json::str(workload)),
                ("rep", Json::Num(f64::from(s.rep))),
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self.self_ns(id) as f64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            rep: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        s.recs = vec![
            rec("root", None, 0, 100),
            rec("a", Some(0), 10, 40),
            // Overlaps `a` by 10 and sticks out past the parent's end.
            rec("b", Some(0), 30, 120),
            // A grandchild never counts against the root.
            rec("c", Some(1), 10, 40),
        ];
        assert_eq!(s.self_ns(0), 100 - 90);
        assert_eq!(s.self_ns(1), 0);
        assert_eq!(s.self_ns(3), 30);
        assert_eq!(s.total_ns("b"), 90);
    }

    #[test]
    fn enter_exit_nest_and_serialize() {
        let mut s = Spans::new();
        s.set_rep(2);
        let outer = s.enter("outer");
        let v = s.time("leaf", || 7);
        s.exit(outer);
        assert_eq!(v, 7);
        assert_eq!(s.recs[1].parent, Some(outer));
        assert_eq!(s.recs[0].parent, None);
        assert!(s.recs[0].end_ns >= s.recs[1].end_ns);
        let text = s.to_json_lines("w");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(first.get("rep").and_then(Json::as_f64), Some(2.0));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}
