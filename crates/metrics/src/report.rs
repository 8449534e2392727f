//! Plain-text table and CSV rendering for the experiment binaries.
//!
//! The experiments of `proteus-bench` print the same rows/series the paper's
//! figures plot; these helpers keep that output aligned and
//! machine-readable.
//!
//! # Examples
//!
//! ```
//! use proteus_metrics::report::TextTable;
//!
//! let mut table = TextTable::new(vec!["system", "violations"]);
//! table.row(vec!["Proteus".into(), "0.012".into()]);
//! let rendered = table.render();
//! assert!(rendered.contains("Proteus"));
//! assert!(rendered.lines().count() >= 3);
//! ```

use std::fmt::Write as _;

/// A fixed-column plain-text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns, a header separator and a trailing
    /// newline.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Trim right-padding of the final column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (comma-separated, quoting cells containing commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Formats a float with `digits` decimal places (helper for table cells).
pub fn fmt_f(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Renders a fixed-width waterfall cell: the `[start, end)` fraction of
/// the row (both in `0.0..=1.0`) is filled, the rest blank. Used by
/// `trace-query critpath` to draw per-segment latency bars that line up
/// across rows.
///
/// Out-of-range fractions are clamped; an inverted range renders empty.
pub fn waterfall_bar(start: f64, end: f64, width: usize) -> String {
    let clamp = |f: f64| (f.clamp(0.0, 1.0) * width as f64).round() as usize;
    let (lo, hi) = (clamp(start), clamp(end).min(width));
    let mut out = String::with_capacity(width);
    for i in 0..width {
        // A nonempty range always shows at least one cell, so very short
        // segments stay visible.
        out.push(if i >= lo && (i < hi || (i == lo && end > start)) {
            '\u{2588}'
        } else {
            ' '
        });
    }
    out
}

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes and control characters). The machine-readable outputs of
/// the CLI binaries are hand-rolled, mirroring the dep-free trace format.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a compact ASCII sparkline of a series, for quick trace
/// inspection in terminal output.
///
/// Returns an empty string for an empty series.
pub fn sparkline(series: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let max = series.iter().copied().fold(f64::NAN, f64::max);
    let min = series.iter().copied().fold(f64::NAN, f64::min);
    let span = (max - min).max(1e-12);
    series
        .iter()
        .map(|&v| {
            let idx = (((v - min) / span) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "2.50".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "value" column starts at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find("2.50").unwrap(), col);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1).unwrap(), "\"x,y\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fmt_f_controls_digits() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }

    #[test]
    fn waterfall_bar_fills_the_requested_range() {
        let bar = waterfall_bar(0.25, 0.75, 8);
        assert_eq!(bar.chars().count(), 8);
        assert_eq!(bar, "  ████  ");
        // Zero-length ranges are empty; tiny nonzero ones show one cell.
        assert_eq!(waterfall_bar(0.5, 0.5, 8).trim(), "");
        assert_eq!(waterfall_bar(0.5, 0.5001, 8).trim(), "█");
        // Clamped out-of-range input does not panic.
        assert_eq!(waterfall_bar(-1.0, 2.0, 4), "████");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
        // A constant series does not panic (zero span).
        assert_eq!(sparkline(&[5.0, 5.0]).chars().count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut t = TextTable::new(vec!["a"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
