//! Paper-style plain-text table rendering.
//!
//! The examples and the full-study binary print their results through
//! these helpers so the output reads like the paper's tables: a caption,
//! aligned columns, and percentage annotations.

use std::fmt::Write as _;

/// A simple aligned-column table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a caption (e.g. `"TABLE I. …"`).
    pub fn new(caption: impl Into<String>) -> Self {
        Table { caption: caption.into(), headers: Vec::new(), rows: Vec::new() }
    }

    /// Sets the column headers.
    pub fn headers<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in std::iter::once(&self.headers).chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.caption);
        let rule: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        let _ = writeln!(out, "{rule}");
        if !self.headers.is_empty() {
            let _ = writeln!(out, "{}", format_row(&self.headers, &widths));
            let _ = writeln!(out, "{rule}");
        }
        for row in &self.rows {
            let _ = writeln!(out, "{}", format_row(row, &widths));
        }
        let _ = writeln!(out, "{rule}");
        out
    }
}

fn format_row(cells: &[String], widths: &[usize]) -> String {
    let mut line = String::new();
    for (i, w) in widths.iter().enumerate() {
        let cell = cells.get(i).map(String::as_str).unwrap_or("");
        let pad = w - cell.chars().count();
        // Right-align numeric-looking cells.
        let numeric = cell.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(false);
        if numeric {
            let _ = write!(line, " {}{} ", " ".repeat(pad), cell);
        } else {
            let _ = write!(line, " {}{} ", cell, " ".repeat(pad));
        }
        if i + 1 < widths.len() {
            line.push('|');
        }
    }
    line.trim_end().to_owned()
}

/// Formats a count with thousands separators, paper-style.
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a ratio as a paper-style percentage, e.g. `(8.15%)`.
pub fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "(–)".to_owned()
    } else {
        format!("({:.2}%)", num as f64 / den as f64 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(13_789_641), "13,789,641");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(1_123_326, 13_789_641), "(8.15%)");
        assert_eq!(pct(1, 0), "(–)");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("TABLE T. Test").headers(["Name", "Count"]);
        t.row(["alpha", "10"]);
        t.row(["beta-long-name", "2,000"]);
        let s = t.render();
        assert!(s.contains("TABLE T. Test"));
        assert!(s.contains("alpha"));
        assert!(s.contains("2,000"));
        // Columns align: every data line has the pipe at the same offset.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        let offsets: Vec<usize> = lines.iter().map(|l| l.find('|').unwrap()).collect();
        assert!(offsets.windows(2).all(|w| w[0] == w[1]), "{s}");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn numeric_cells_right_aligned() {
        let mut t = Table::new("x").headers(["n"]);
        t.row(["5"]);
        t.row(["5,000"]);
        let s = t.render();
        let data: Vec<&str> = s.lines().filter(|l| l.contains('5')).collect();
        assert!(data[0].ends_with('5'), "{s}");
    }
}
