//! Minimal Markdown table builder used by the experiment harness.

use std::fmt::Write as _;

/// A Markdown table with a title, built row by row, plus the paper claims
/// its rows failed.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    failed_claims: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            failed_claims: Vec::new(),
        }
    }

    /// Appends a row; the number of cells must match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width must match the header");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of displayable cells.
    pub fn push<D: std::fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Checks a paper claim about the last row pushed: when `holds` is
    /// false, the claim and that row are recorded, and the experiments
    /// binary exits non-zero after printing every table.
    pub fn claim(&mut self, holds: bool, claim: &str) -> &mut Self {
        if !holds {
            let row = self.rows.last().map(|r| r.join(" | ")).unwrap_or_default();
            self.failed_claims.push(format!("{}: {claim} fails on | {row} |", self.title));
        }
        self
    }

    /// The failed claims, one line each (empty when every claim holds).
    pub fn failed_claims(&self) -> &[String] {
        &self.failed_claims
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as Markdown (title as an `###` heading).
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> =
                cells.iter().zip(widths).map(|(c, w)| format!("{c:<width$}", width = w)).collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown_with_alignment() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(&["alpha", "1"]);
        t.push(&["b", "20000"]);
        let md = t.to_markdown();
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| name  | value |"));
        assert!(md.contains("| alpha | 1     |"));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.title(), "Demo");
    }

    #[test]
    fn failed_claims_name_their_row() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(&["alpha", "1"]).claim(true, "value is small");
        assert!(t.failed_claims().is_empty());
        t.push(&["beta", "9"]).claim(false, "value is small");
        assert_eq!(t.failed_claims(), ["Demo: value is small fails on | beta | 9 |"]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        Table::new("x", &["a", "b"]).push(&["only one"]);
    }
}
