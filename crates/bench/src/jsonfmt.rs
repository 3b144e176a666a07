//! Deterministic JSON building shared by the hand-rolled report
//! writers.
//!
//! Every machine-readable report (`analyze --json`,
//! `BENCH_predict.json`, `BENCH_faults.json`, `BENCH_perf.json`) is
//! rendered by hand, with no serialisation library. This module is the
//! single copy of that discipline — insertion-ordered keys, `": "`
//! separators, two-space indentation, floats through Rust's
//! shortest-round-trip formatter — so a document is byte-identical
//! across runs and resumed checkpoint fragments can be spliced in
//! verbatim. Public so the workspace's report-writing
//! binaries (e.g. `wcperf`) share it too.

use std::fmt::Display;

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\r' => "\\r".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A quoted, escaped JSON string literal.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", esc(s))
}

/// `Some(v)` through `Display`, `None` as `null`.
pub fn opt_display<D: Display>(v: Option<D>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

/// A single-line object: `{"k": v, "k2": v2}`. Values arrive already
/// rendered (via [`quoted`], `to_string`, [`inline_list`], …).
pub fn inline(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A single-line array: `[a, b, c]`.
pub fn inline_list<D: Display>(items: impl IntoIterator<Item = D>) -> String {
    let body: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", body.join(", "))
}

/// A multi-line array whose items are already fully rendered, each
/// carrying its own leading indentation; `indent` places the closing
/// bracket. An empty list renders as `[\n<indent>]`, matching the
/// writers' historical shape.
pub fn block_list(indent: usize, items: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str(item);
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str(&" ".repeat(indent));
    out.push(']');
    out
}

/// A multi-line object builder: fields render in insertion order, one
/// per line at `indent + 2`, the braces at `indent`. Values arrive
/// already rendered, so objects, arrays and scalars nest freely.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    indent: usize,
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object whose braces sit at `indent`.
    pub fn new(indent: usize) -> Self {
        JsonObject {
            indent,
            fields: Vec::new(),
        }
    }

    /// The indentation of nested block values (fields sit here).
    pub fn inner_indent(&self) -> usize {
        self.indent + 2
    }

    /// Appends a field with an already-rendered value.
    pub fn field(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Appends a string field (escaped and quoted).
    pub fn string(self, key: &str, value: &str) -> Self {
        let v = quoted(value);
        self.field(key, v)
    }

    /// Appends a field rendered through `Display` (numbers, bools).
    pub fn display(self, key: &str, value: impl Display) -> Self {
        let v = value.to_string();
        self.field(key, v)
    }

    /// Renders the object, opening brace unindented (for use as a
    /// field value; the line it lands on supplies the indentation).
    pub fn render(&self) -> String {
        let pad = " ".repeat(self.inner_indent());
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str(&format!("{pad}\"{k}\": {v}"));
            out.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str(&" ".repeat(self.indent));
        out.push('}');
        out
    }

    /// Renders as a standalone fragment: leading indentation included,
    /// so the result can be an item of a [`block_list`].
    pub fn render_fragment(&self) -> String {
        format!("{}{}", " ".repeat(self.indent), self.render())
    }

    /// Renders as a whole document: no leading indent, trailing
    /// newline.
    pub fn render_document(&self) -> String {
        let mut out = self.render();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(quoted("hi"), "\"hi\"");
    }

    #[test]
    fn inline_forms_render_on_one_line() {
        assert_eq!(
            inline(&[("a", "1".into()), ("b", quoted("x"))]),
            "{\"a\": 1, \"b\": \"x\"}"
        );
        assert_eq!(inline_list([1, 2, 3]), "[1, 2, 3]");
        assert_eq!(inline_list(Vec::<u64>::new()), "[]");
    }

    #[test]
    fn block_object_nests_and_indents() {
        let obj = JsonObject::new(2)
            .display("n", 7)
            .string("s", "v")
            .field("list", block_list(4, &["      {\"x\": 1}".into()]));
        assert_eq!(
            obj.render_fragment(),
            "  {\n    \"n\": 7,\n    \"s\": \"v\",\n    \"list\": [\n      {\"x\": 1}\n    ]\n  }"
        );
    }

    #[test]
    fn empty_block_list_keeps_the_bracket_shape() {
        assert_eq!(block_list(6, &[]), "[\n      ]");
    }

    #[test]
    fn document_rendering_ends_with_newline() {
        let doc = JsonObject::new(0).display("v", 1).render_document();
        assert_eq!(doc, "{\n  \"v\": 1\n}\n");
    }
}
