//! Plain-text table rendering for the experiment harnesses.
//!
//! Every experiment prints its results as an aligned ASCII table (the
//! reproduction's equivalent of the paper's tables/figures).

use std::fmt::Write as _;

/// A simple column-aligned ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.  Rows shorter than the header are padded with blanks;
    /// longer rows are truncated to the header width.
    pub fn add_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.iter().take(self.headers.len()).cloned().collect();
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "| {} |", header_line.join(" | "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with 3 decimal places (the default precision used in the
/// experiment tables).
pub fn fmt3(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats a float as a percentage with one decimal place.
pub fn fmt_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(&["alpha".to_string(), "1".to_string()]);
        t.add_row(&["b".to_string(), "12345".to_string()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| name  | value |"));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.add_row(&["1".to_string()]);
        t.add_row(&["1".to_string(), "2".to_string(), "3".to_string(), "4".to_string()]);
        let s = t.render();
        assert!(!s.contains('4'));
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt3(1.23456), "1.235");
        assert_eq!(fmt_pct(0.3333), "33.3%");
        let mut t = Table::new("x", &["h"]);
        t.add_row(&["v".to_string()]);
        assert!(t.render().contains("| v |"));
    }
}
