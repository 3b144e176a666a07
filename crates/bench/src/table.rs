//! A rendered figure/table: headers plus rows of cells.

/// One regenerated table or figure, ready for rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct FigureTable {
    /// Identifier, e.g. `"fig8"`.
    pub id: String,
    /// Human title, e.g. `"Compression ratio (divergent vs non-divergent)"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted as strings).
    pub rows: Vec<Vec<String>>,
}

impl FigureTable {
    /// Creates a table; panics in debug builds if a row width mismatches
    /// the header width.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        headers: Vec<String>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        let headers: Vec<String> = headers;
        debug_assert!(
            rows.iter().all(|r| r.len() == headers.len()),
            "ragged figure table"
        );
        FigureTable {
            id: id.into(),
            title: title.into(),
            headers,
            rows,
        }
    }

    /// Appends a `status` column (e.g. `ok` / `timeout` / `failed` /
    /// `panic`) to every row — how partial campaign results degrade into
    /// a full-width table instead of a truncated one.
    ///
    /// # Panics
    ///
    /// Panics if `statuses` and the row count disagree.
    pub fn with_status_column(mut self, statuses: &[&str]) -> Self {
        assert_eq!(statuses.len(), self.rows.len(), "one status per table row");
        self.headers.push("status".into());
        for (row, status) in self.rows.iter_mut().zip(statuses) {
            row.push((*status).into());
        }
        self
    }

    /// GitHub-flavoured markdown rendering.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// CSV rendering (RFC-4180-lite: cells here never contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio/fraction consistently across figures.
pub(crate) fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureTable {
        FigureTable::new(
            "figX",
            "Sample",
            vec!["bench".into(), "value".into()],
            vec![vec!["a".into(), "1".into()], vec!["b".into(), "2".into()]],
        )
    }

    #[test]
    fn markdown_has_header_separator_and_rows() {
        let md = sample().to_markdown();
        assert!(md.contains("### figX — Sample"));
        assert!(md.contains("| bench | value |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| b | 2 |"));
    }

    #[test]
    fn csv_round_trips_cells() {
        let csv = sample().to_csv();
        assert_eq!(csv, "bench,value\na,1\nb,2\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(2.4999), "2.500");
        assert_eq!(pct(0.253), "25.3%");
    }

    #[test]
    fn status_column_extends_headers_and_rows() {
        let t = sample().with_status_column(&["ok", "panic"]);
        assert_eq!(t.headers.last().map(String::as_str), Some("status"));
        assert_eq!(t.rows[0].last().map(String::as_str), Some("ok"));
        assert_eq!(t.rows[1].last().map(String::as_str), Some("panic"));
        assert!(t.to_csv().contains("b,2,panic"));
    }
}
