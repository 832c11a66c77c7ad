//! Plain-text table rendering.
//!
//! The experiment driver prints each of the paper's tables and figure data
//! series as aligned text.

use std::fmt::Write as _;

/// A simple column-aligned text table builder.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows keep their extra cells (they simply widen the
    /// table).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as aligned text with a separator line under the header.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, row: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == widths.len() {
                    let _ = write!(out, "{cell}");
                } else {
                    let _ = write!(out, "{cell:<w$}  ");
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        emit(&mut out, &sep);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Format a float with a sensible number of significant digits for reports
/// (large values get thousands separators, small values keep precision).
pub fn fmt_metric(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a >= 1000.0 {
        group_thousands(&format!("{x:.0}"))
    } else if a >= 10.0 {
        format!("{x:.2}")
    } else if a >= 0.01 || a == 0.0 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

fn group_thousands(digits: &str) -> String {
    let (sign, digits) = match digits.strip_prefix('-') {
        Some(rest) => ("-", rest),
        None => ("", digits),
    };
    let mut out = String::new();
    let bytes: Vec<char> = digits.chars().collect();
    for (i, c) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*c);
    }
    format!("{sign}{out}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(["app", "FOM", "speedup"]);
        t.row(["HPCG", "17.2", "1.78"]);
        t.row(["Lulesh", "10234", "1.30"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("app"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("HPCG"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn fmt_metric_ranges() {
        assert_eq!(fmt_metric(12345.0), "12,345");
        assert_eq!(fmt_metric(-12345.0), "-12,345");
        assert_eq!(fmt_metric(12.3456), "12.35");
        assert_eq!(fmt_metric(0.12345), "0.1235");
        assert_eq!(fmt_metric(0.0001234), "1.234e-4");
        assert_eq!(fmt_metric(0.0), "0.0000");
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        let s = t.render();
        assert!(s.lines().count() == 3);
    }
}
