//! Plain-text tables for the `repro` harness and EXPERIMENTS.md.

use std::fmt;

/// A fixed-width text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for i in 0..cols {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>w$}", cells[i], w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(f, &rule)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a `(mean, ci95-half-width)` pair as `mean ±ci`.
pub fn fmt_mean_ci(stat: (f64, f64)) -> String {
    format!("{:.1} ±{:.1}", stat.0, stat.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "c"]);
        t.push(vec!["1".into(), "2".into(), "3".into()]);
        t.push(vec!["100".into(), "20000".into(), "3".into()]);
        let s = t.to_string();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-header"));
        let lines: Vec<&str> = s.lines().collect();
        // header + rule + 2 rows + title
        assert_eq!(lines.len(), 5);
        // all data lines same width
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_mean_ci((12.34, 0.5)), "12.3 ±0.5");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push(vec!["1".into()]);
    }
}
