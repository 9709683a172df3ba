//! The one JSON writer behind every `BENCH_*.json` artifact: a small
//! value type, a line-width-aware renderer, and [`write_artifact`], which
//! stamps the envelope every artifact carries.

use crate::{commit_id, host_cpus};

/// Containers whose one-line form fits in this many columns stay on one
/// line.
const WIDTH: usize = 100;

/// A JSON value. Numbers keep the text they were rendered with, so each
/// artifact field chooses its precision where it is built.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, already rendered.
    Num(String),
    /// A string (escaped when written).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `v` with `decimals` digits after the point.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// An object from `(key, value)` fields, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// `{"samples": [...], "median": m, "min": lo, "max": hi}` of
    /// repeated measurements, each with `decimals` digits.
    pub fn spread(values: &[f64], decimals: usize) -> Json {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let num = |v: f64| Json::fixed(v, decimals);
        Json::obj([
            ("samples", Json::Arr(values.iter().map(|&v| num(v)).collect())),
            ("median", num(sorted[sorted.len() / 2])),
            ("min", num(sorted[0])),
            ("max", num(sorted[sorted.len() - 1])),
        ])
    }

    /// The value on one line.
    fn flat(&self, out: &mut String) {
        match self {
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.flat(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.flat(out);
                }
                out.push('}');
            }
        }
    }

    /// The value at the end of `out`, whose current line is indented by
    /// `indent`. A container too wide for one line puts one entry per
    /// line; an object that is an array element (`row`) keeps its first
    /// field on the opening line, so every row starts with its key field.
    fn pretty(&self, out: &mut String, indent: usize, row: bool) {
        let mut line = String::new();
        self.flat(&mut line);
        let col = out.len() - out.rfind('\n').map_or(0, |i| i + 1);
        if col + line.len() <= WIDTH {
            out.push_str(&line);
            return;
        }
        match self {
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + 2);
                    item.pretty(out, indent + 2, true);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                let inner = if row { indent + 1 } else { indent + 2 };
                out.push('{');
                if !row {
                    out.push('\n');
                    pad(out, inner);
                }
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                        pad(out, inner);
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.pretty(out, inner, false);
                }
                if !row {
                    out.push('\n');
                    pad(out, indent);
                }
                out.push('}');
            }
            Json::Num(_) | Json::Str(_) => out.push_str(&line),
        }
    }
}

fn pad(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n(' ', n));
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Shortest round-trip rendering (`0.2`, `1.2`).
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v.to_string())
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
json_int!(u32, u64, usize);

/// Write the artifact `file` (in the current directory): the envelope
/// `bench`, `schema_version`, `commit` and `host_cpus`, then `fields`.
pub fn write_artifact<'a>(
    file: &str,
    bench: &str,
    schema_version: u32,
    fields: impl IntoIterator<Item = (&'a str, Json)>,
) -> std::io::Result<()> {
    let envelope: [(&str, Json); 4] = [
        ("bench", bench.into()),
        ("schema_version", schema_version.into()),
        ("commit", commit_id().into()),
        ("host_cpus", host_cpus().into()),
    ];
    let mut s = String::new();
    Json::obj(envelope.into_iter().chain(fields)).pretty(&mut s, 0, false);
    s.push('\n');
    std::fs::write(file, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: &Json) -> String {
        let mut s = String::new();
        v.pretty(&mut s, 0, false);
        s
    }

    #[test]
    fn short_containers_stay_on_one_line() {
        let v = Json::obj([("a", 1u64.into()), ("b", Json::fixed(0.5, 2)), ("c", "x\"y".into())]);
        assert_eq!(render(&v), r#"{"a": 1, "b": 0.50, "c": "x\"y"}"#);
    }

    #[test]
    fn wide_arrays_put_one_row_per_line_with_the_key_field_first() {
        let row = |n: u64| {
            Json::obj([("nodes", n.into()), ("note", "long enough to wrap ".repeat(5).into())])
        };
        let v = Json::obj([("rows", Json::Arr(vec![row(8), row(64)]))]);
        let text = render(&v);
        assert!(text.contains("\n    {\"nodes\": 8,\n     \"note\": "), "{text}");
        assert!(text.contains("\n    {\"nodes\": 64,\n"), "{text}");
    }

    #[test]
    fn spread_reports_median_min_max_in_sample_order() {
        let v = Json::spread(&[3.0, 1.0, 2.0], 1);
        assert_eq!(
            render(&v),
            r#"{"samples": [3.0, 1.0, 2.0], "median": 2.0, "min": 1.0, "max": 3.0}"#
        );
    }
}
