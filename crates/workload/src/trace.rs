//! Workload traces: CSV persistence for job lists.
//!
//! Lets experiments be pinned to an exact request sequence (rather than a
//! generator seed), and lets real request logs be replayed. The format is
//! one header line plus one line per job:
//!
//! ```text
//! id,arrival,src,dst,size_gb,start,end
//! 0,0.0,3,7,42.5,0.0,12.0
//! ```
//!
//! `src`/`dst` are node indices into the target network's node order.
//!
//! Two entry points share one validator: [`TraceReader`] parses records
//! line by line from any [`BufRead`] — a million-job replay never holds
//! more than one line and one [`Job`] in memory — and [`parse_trace`]
//! collects a full in-memory string through the same reader, so both
//! report identical [`TraceError`] line numbers.

use crate::job::{Job, JobId};
use std::io::BufRead;
use wavesched_net::{Graph, NodeId};

/// Error type for trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Header written/expected by this module.
pub const HEADER: &str = "id,arrival,src,dst,size_gb,start,end";

fn write_row(out: &mut impl std::fmt::Write, j: &Job) {
    let _ = writeln!(
        out,
        "{},{},{},{},{},{},{}",
        j.id.0, j.arrival, j.src.0, j.dst.0, j.size_gb, j.start, j.end
    );
}

/// Serializes jobs to the CSV trace format.
pub fn write_trace(jobs: &[Job]) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for j in jobs {
        write_row(&mut out, j);
    }
    out
}

/// Validates and parses one record line (already trimmed, non-empty,
/// non-comment). `line` is 1-based for error reporting.
fn parse_record(line: usize, t: &str, num_nodes: usize) -> Result<Job, TraceError> {
    let mut fields = [""; 7];
    let mut n = 0usize;
    for f in t.split(',') {
        if n == 7 {
            n += 1;
            break;
        }
        fields[n] = f.trim();
        n += 1;
    }
    if n != 7 {
        return Err(TraceError {
            line,
            message: format!(
                "expected 7 fields, got {}",
                if n > 7 { t.split(',').count() } else { n }
            ),
        });
    }
    let err = |message: String| TraceError { line, message };
    let id: u32 = fields[0]
        .parse()
        .map_err(|_| err(format!("bad id {:?}", fields[0])))?;
    let num = |k: usize, name: &str| -> Result<f64, TraceError> {
        fields[k]
            .parse::<f64>()
            .map_err(|_| err(format!("bad {name} {:?}", fields[k])))
    };
    let arrival = num(1, "arrival")?;
    let src: u32 = fields[2]
        .parse()
        .map_err(|_| err(format!("bad src {:?}", fields[2])))?;
    let dst: u32 = fields[3]
        .parse()
        .map_err(|_| err(format!("bad dst {:?}", fields[3])))?;
    let size_gb = num(4, "size_gb")?;
    let start = num(5, "start")?;
    let end = num(6, "end")?;

    if (src as usize) >= num_nodes || (dst as usize) >= num_nodes {
        return Err(err(format!(
            "node index out of range (network has {num_nodes} nodes)"
        )));
    }
    if src == dst {
        return Err(err("src == dst".into()));
    }
    if size_gb <= 0.0 || size_gb.is_nan() {
        return Err(err(format!("non-positive size {size_gb}")));
    }
    if !(arrival <= start && start <= end) {
        return Err(err(format!(
            "times must satisfy A <= S <= E, got {arrival}, {start}, {end}"
        )));
    }
    Ok(Job::new(
        JobId(id),
        arrival,
        NodeId(src),
        NodeId(dst),
        size_gb,
        start,
        end,
    ))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    /// Still looking for the header line.
    Header,
    /// Header consumed; yielding records.
    Records,
    /// EOF or error reached; the iterator is exhausted.
    Done,
}

/// Streaming trace parser: an iterator of `Result<Job, TraceError>` over
/// any [`BufRead`] source.
///
/// Performs exactly the validation of [`parse_trace`] with the same
/// 1-based error line numbers — [`parse_trace`] *is* this reader plus a
/// `collect` — while holding only one line buffer regardless of trace
/// length. The first error ends the stream (subsequent `next` calls return
/// `None`).
pub struct TraceReader<R> {
    reader: R,
    num_nodes: usize,
    /// 1-based number of the last line read.
    line: usize,
    buf: String,
    state: ReaderState,
}

impl<R: BufRead> TraceReader<R> {
    /// Creates a reader validating node indices against `g`.
    pub fn new(reader: R, g: &Graph) -> Self {
        TraceReader {
            reader,
            num_nodes: g.num_nodes(),
            line: 0,
            buf: String::new(),
            state: ReaderState::Header,
        }
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<Job, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.state == ReaderState::Done {
                return None;
            }
            self.buf.clear();
            let n = match self.reader.read_line(&mut self.buf) {
                Ok(n) => n,
                Err(e) => {
                    self.state = ReaderState::Done;
                    return Some(Err(TraceError {
                        line: self.line + 1,
                        message: format!("read error: {e}"),
                    }));
                }
            };
            if n == 0 {
                // EOF. A trace that never produced a header is an error, as
                // in the in-memory parser.
                let missing_header = self.state == ReaderState::Header;
                self.state = ReaderState::Done;
                if missing_header {
                    return Some(Err(TraceError {
                        line: 0,
                        message: "empty trace".into(),
                    }));
                }
                return None;
            }
            self.line += 1;
            let t = self.buf.trim_start_matches('\u{feff}').trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            if self.state == ReaderState::Header {
                if t != HEADER {
                    self.state = ReaderState::Done;
                    return Some(Err(TraceError {
                        line: self.line,
                        message: format!("bad header {t:?}, expected {HEADER:?}"),
                    }));
                }
                self.state = ReaderState::Records;
                continue;
            }
            let rec = parse_record(self.line, t, self.num_nodes);
            if rec.is_err() {
                self.state = ReaderState::Done;
            }
            return Some(rec);
        }
    }
}

/// Parses a CSV trace, validating node indices against `g` and the job
/// invariants (`A <= S <= E`, positive size, distinct endpoints).
///
/// A collect-wrapper around [`TraceReader`].
pub fn parse_trace(text: &str, g: &Graph) -> Result<Vec<Job>, TraceError> {
    TraceReader::new(text.as_bytes(), g).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};
    use wavesched_net::abilene14;

    #[test]
    fn roundtrip() {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 25,
            seed: 7,
            ..Default::default()
        })
        .generate(&g);
        let text = write_trace(&jobs);
        let back = parse_trace(&text, &g).unwrap();
        assert_eq!(jobs, back);
    }

    #[test]
    fn streaming_matches_in_memory() {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 40,
            seed: 13,
            ..Default::default()
        })
        .generate(&g);
        let text = write_trace(&jobs);
        let streamed: Result<Vec<Job>, TraceError> =
            TraceReader::new(text.as_bytes(), &g).collect();
        assert_eq!(streamed.unwrap(), jobs);
    }

    #[test]
    fn streaming_error_line_numbers_match() {
        let (g, _) = abilene14(4);
        for bad in [
            format!("{HEADER}\n0,0,0,99,5,0,4\n"), // bad node, line 2
            format!("# c\n\n{HEADER}\n# x\n0,5,0,1,5,0,4\n"), // bad times, line 5
            format!("{HEADER}\n0,0,0,1,5,0,4\nnot,a,row\n"), // line 3
            "id,nope\n".to_string(),               // bad header, line 1
            String::new(),                         // empty trace, line 0
        ] {
            let want = parse_trace(&bad, &g).unwrap_err();
            let got = TraceReader::new(bad.as_bytes(), &g)
                .find_map(|r| r.err())
                .expect("streaming reader must surface the same error");
            assert_eq!(got, want, "trace {bad:?}");
        }
    }

    #[test]
    fn streaming_stops_after_error() {
        let (g, _) = abilene14(4);
        let text = format!("{HEADER}\nbad\n0,0,0,1,5,0,4\n");
        let items: Vec<_> = TraceReader::new(text.as_bytes(), &g).collect();
        assert_eq!(items.len(), 1, "stream must end at the first error");
        assert!(items[0].is_err());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let (g, _) = abilene14(4);
        let text = format!("# a comment\n\n{HEADER}\n# another\n0,0,0,1,5,0,4\n\n");
        let jobs = parse_trace(&text, &g).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].size_gb, 5.0);
    }

    #[test]
    fn rejects_bad_header() {
        let (g, _) = abilene14(4);
        let e = parse_trace("id,nope\n", &g).unwrap_err();
        assert!(e.message.contains("bad header"));
    }

    #[test]
    fn rejects_out_of_range_node() {
        let (g, _) = abilene14(4);
        let text = format!("{HEADER}\n0,0,0,99,5,0,4\n");
        let e = parse_trace(&text, &g).unwrap_err();
        assert!(e.message.contains("out of range"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_bad_times_and_sizes() {
        let (g, _) = abilene14(4);
        let text = format!("{HEADER}\n0,5,0,1,5,0,4\n");
        assert!(parse_trace(&text, &g).is_err()); // arrival > start
        let text = format!("{HEADER}\n0,0,0,1,-5,0,4\n");
        assert!(parse_trace(&text, &g).is_err()); // negative size
        let text = format!("{HEADER}\n0,0,0,1,5,0\n");
        assert!(parse_trace(&text, &g).is_err()); // missing field
        let text = format!("{HEADER}\n0,0,0,1,5,0,abc\n");
        let e = parse_trace(&text, &g).unwrap_err();
        assert!(e.message.contains("bad end"));
    }

    #[test]
    fn rejects_too_many_fields() {
        let (g, _) = abilene14(4);
        let text = format!("{HEADER}\n0,0,0,1,5,0,4,9\n");
        let e = parse_trace(&text, &g).unwrap_err();
        assert!(e.message.contains("expected 7 fields, got 8"), "{e}");
    }

    #[test]
    fn empty_trace_error() {
        let (g, _) = abilene14(4);
        assert!(parse_trace("", &g).is_err());
        // Header only is a valid empty workload.
        let jobs = parse_trace(&format!("{HEADER}\n"), &g).unwrap();
        assert!(jobs.is_empty());
    }
}
