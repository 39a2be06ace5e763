//! JSON-lines serialization of [`Metric`] snapshots, and a reader of
//! exactly that layout — both hand-rolled so the crate stays
//! dependency-free.
//!
//! Schema: one JSON object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"counter","name":"lp.iterations","value":123}
//! {"type":"histogram","name":"lp.eta_len","count":4,"sum":10,"min":1,"max":4,"buckets":[[1,2],[3,2]]}
//! {"type":"span","path":"pipeline/stage1","count":3,"total_ns":812345,"min_ns":1021,"max_ns":700111}
//! ```
//!
//! Keys come in this order, with no whitespace. All numbers are unsigned
//! 64-bit integers; `buckets` is a sparse array of `[bucket_index, count]`
//! pairs. Strings escape `"`, `\\` and control characters (`\u00xx`) only.
//! Blank lines are ignored on input.

use crate::Metric;
use std::fmt::Write as _;

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes `metrics` into the JSON-lines report format (one object per
/// line, trailing newline).
pub fn to_json_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        match m {
            Metric::Counter { name, value } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                push_json_str(&mut out, name);
                let _ = write!(out, ",\"value\":{value}}}");
            }
            Metric::Histogram {
                name,
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                out.push_str("{\"type\":\"histogram\",\"name\":");
                push_json_str(&mut out, name);
                let _ = write!(
                    out,
                    ",\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max},\"buckets\":["
                );
                for (i, (b, c)) in buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{b},{c}]");
                }
                out.push_str("]}");
            }
            Metric::Span {
                path,
                count,
                total_ns,
                min_ns,
                max_ns,
            } => {
                out.push_str("{\"type\":\"span\",\"path\":");
                push_json_str(&mut out, path);
                let _ = write!(
                    out,
                    ",\"count\":{count},\"total_ns\":{total_ns},\"min_ns\":{min_ns},\"max_ns\":{max_ns}}}"
                );
            }
        }
        out.push('\n');
    }
    out
}

/// A cursor over one report line.
struct Reader<'a>(&'a str);

impl Reader<'_> {
    fn lit(&mut self, want: &str) -> Result<(), String> {
        let Some(rest) = self.0.strip_prefix(want) else {
            let found: String = self.0.chars().take(want.len().max(12)).collect();
            return Err(format!("expected {want:?} at {found:?}"));
        };
        self.0 = rest;
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        self.lit("\"")?;
        let mut out = String::new();
        let mut chars = self.0.chars();
        loop {
            match chars.next().ok_or("unterminated string")? {
                '"' => break,
                '\\' => {
                    let c = match chars.next() {
                        Some('u') => {
                            let hex: String = chars.by_ref().take(4).collect();
                            u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32)
                        }
                        c => c.filter(|c| matches!(c, '"' | '\\')),
                    };
                    out.push(c.ok_or("an escape the writer never writes")?);
                }
                c => out.push(c),
            }
        }
        self.0 = chars.as_str();
        Ok(out)
    }
}

/// Reads one line as [`to_json_lines`] writes it: the type, the name, then
/// every integer after the name in order. The line is accepted only if the
/// writer writes that metric back byte for byte, which holds its keys, their
/// order, its brackets and escapes, and the absence of whitespace, signs,
/// leading zeros and trailing bytes to the writer's.
fn metric_of_line(line: &str) -> Result<Metric, String> {
    let mut r = Reader(line);
    r.lit("{\"type\":")?;
    let kind = r.string()?;
    let key = if kind == "span" { "path" } else { "name" };
    r.lit(&format!(",\"{key}\":"))?;
    let name = r.string()?;
    let nums =
        r.0.split(|c: char| !c.is_ascii_digit())
            .filter(|d| !d.is_empty())
            .map(|d| d.parse().map_err(|e| format!("integer {d}: {e}")))
            .collect::<Result<Vec<u64>, _>>()?;
    let metric = match (kind.as_str(), nums.as_slice()) {
        ("counter", &[value]) => Metric::Counter { name, value },
        ("histogram", &[count, sum, min, max, ref pairs @ ..]) => Metric::Histogram {
            name,
            count,
            sum,
            min,
            max,
            buckets: pairs
                .chunks(2)
                .map(|pair| match *pair {
                    [b, c] if b < crate::HIST_BUCKETS as u64 => Ok((b as u32, c)),
                    _ => Err(format!("bucket {pair:?} is not [index, count] in range")),
                })
                .collect::<Result<_, _>>()?,
        },
        ("span", &[count, total_ns, min_ns, max_ns]) => Metric::Span {
            path: name,
            count,
            total_ns,
            min_ns,
            max_ns,
        },
        ("counter" | "histogram" | "span", _) => {
            return Err(format!("a {kind} with {} integers", nums.len()))
        }
        _ => return Err(format!("unknown metric type {kind:?}")),
    };
    let written = to_json_lines(std::slice::from_ref(&metric));
    if written.strip_suffix('\n') != Some(line) {
        return Err(format!("not as the writer writes it: {written:?}"));
    }
    Ok(metric)
}

/// Parses a report written by [`to_json_lines`] back into its metrics.
/// Blank lines are skipped; any other line the writer could not have
/// written (other whitespace, another key order, an unknown type, trailing
/// bytes) is an error that names its line number.
pub fn parse_json_lines(text: &str) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(metric_of_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Metric> {
        vec![
            Metric::Counter {
                name: "lp.iterations".into(),
                value: 123,
            },
            Metric::Counter {
                name: "odd \"name\"\\with\nescapes\u{1f} and é".into(),
                value: 0,
            },
            Metric::Histogram {
                name: "lp.eta_len".into(),
                count: 4,
                sum: 10,
                min: 1,
                max: 4,
                buckets: vec![(1, 2), (3, 2)],
            },
            Metric::Span {
                path: "pipeline/stage1".into(),
                count: 3,
                total_ns: 812_345,
                min_ns: 1_021,
                max_ns: 700_111,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let metrics = sample();
        let text = to_json_lines(&metrics);
        assert_eq!(text.lines().count(), metrics.len());
        let back = parse_json_lines(&text).expect("parses");
        assert_eq!(back, metrics);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", to_json_lines(&sample()));
        assert_eq!(parse_json_lines(&text).unwrap(), sample());
    }

    #[test]
    fn lines_the_writer_could_not_write_are_rejected_with_line_numbers() {
        for (bad, what) in [
            ("{\"type\":\"counter\",\"name\":\"x\"}", "missing value"),
            ("{\"type\":\"rocket\",\"name\":\"x\",\"value\":1}", "bad type"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":-1}", "negative"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":1.5}", "fraction"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":01}", "leading zero"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":99999999999999999999}", "overflow"),
            ("[1,2,3]", "not an object"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":1} junk", "trailing"),
            ("{\"type\":\"counter\",\"name\":\"x\",\"value\":1}}", "trailing brace"),
            ("{\"type\":\"counter\", \"name\":\"x\",\"value\":1}", "inner space"),
            (" {\"type\":\"counter\",\"name\":\"x\",\"value\":1}", "leading space"),
            ("{\"type\":\"counter\",\"value\":1,\"name\":\"x\"}", "key order"),
            ("{\"name\":\"x\",\"type\":\"counter\",\"value\":1}", "type not first"),
            ("{\"type\":\"counter\",\"name\":\"\\u001F\",\"value\":1}", "uppercase hex"),
            ("{\"type\":\"counter\",\"name\":\"\\u0041\",\"value\":1}", "escaped letter"),
            ("{\"type\":\"counter\",\"name\":\"\\n\",\"value\":1}", "short escape"),
            ("{\"type\":\"counter\",\"name\":\"a\tb\",\"value\":1}", "raw tab"),
            ("{\"type\":\"counter\",\"name\":\"x", "unterminated"),
            (
                "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[99,1]]}",
                "bucket range",
            ),
            (
                "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[[1,1],]}",
                "trailing comma",
            ),
        ] {
            let text = format!("{}{bad}\n", to_json_lines(&sample()));
            let err = parse_json_lines(&text).expect_err(what);
            assert!(err.starts_with("line 5:"), "{what}: {err}");
        }
    }

    #[test]
    fn empty_report_is_valid() {
        assert_eq!(parse_json_lines("").unwrap(), Vec::new());
        assert_eq!(to_json_lines(&[]), "");
    }
}
