// Tests unwrap, expect and panic idiomatically; the workspace's panic
// lints police non-test code only, and CI promotes their warnings to errors.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::unimplemented))]
//! Experiment harness for the paper-reproduction binaries.
//!
//! Each figure of Thewes et al. (DATE 2005) has a binary in `src/bin/`
//! (`exp_f1` … `exp_t1`) that regenerates the corresponding data; this
//! library provides the shared table formatting and a few common
//! experiment helpers so integration tests can assert on the same numbers
//! the binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

/// A printable results table with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are displayed as given).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let pad = w - c.chars().count();
                s.push_str("| ");
                s.push_str(c);
                s.push_str(&" ".repeat(pad + 1));
            }
            s.push('|');
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells with
    /// commas, quotes or newlines).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Saves the table as CSV, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn save_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Writes a row-major scalar map as an 8-bit ASCII PGM image (P2), scaled
/// to the data range — used to export activity maps of the 128×128 array.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
///
/// # Panics
///
/// Panics if `values.len() != rows * cols` or the map is empty.
pub fn save_pgm(
    path: impl AsRef<std::path::Path>,
    values: &[f64],
    rows: usize,
    cols: usize,
) -> std::io::Result<()> {
    assert_eq!(values.len(), rows * cols, "map dimensions mismatch");
    assert!(!values.is_empty(), "empty map");
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let span = (max - min).max(1e-30);
    let mut out = format!("P2\n{cols} {rows}\n255\n");
    for r in 0..rows {
        let line: Vec<String> = (0..cols)
            .map(|c| {
                let v = ((values[r * cols + c] - min) / span * 255.0).round() as u8;
                v.to_string()
            })
            .collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, out)
}

/// Formats a value with engineering notation and a unit (thin wrapper over
/// [`bsa_units::format_eng`]).
pub fn eng(value: f64, unit: &str) -> String {
    bsa_units::format_eng(value, unit)
}

/// Formats a value with `digits` significant digits.
pub fn sig(value: f64, digits: usize) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let exp = value.abs().log10().floor() as i32;
    let decimals = (digits as i32 - 1 - exp).max(0) as usize;
    format!("{value:.decimals$}")
}

/// Formats a ratio as `×N`.
pub fn times(ratio: f64) -> String {
    format!("×{}", sig(ratio, 3))
}

/// Formats a fraction as a percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:.1} %", fraction * 100.0)
}

/// Prints an experiment banner.
pub fn banner(id: &str, paper_artifact: &str, claim: &str) {
    println!();
    println!("################################################################");
    println!("# Experiment {id} — reproduces {paper_artifact}");
    println!("# Paper claim: {claim}");
    println!("################################################################");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long header", "c"]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        t.add_row(vec!["100".into(), "x".into(), "yyyy".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        // All data lines have equal width.
        assert_eq!(lines[2].chars().count(), lines[3].chars().count());
        assert_eq!(lines[3].chars().count(), lines[4].chars().count());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn sig_formatting() {
        assert_eq!(sig(1234.6, 3), "1235");
        assert_eq!(sig(0.012345, 3), "0.0123");
        assert_eq!(sig(0.0, 3), "0");
        assert_eq!(sig(5600.0, 3), "5600");
    }

    #[test]
    fn helper_formatting() {
        assert_eq!(times(5600.0), "×5600");
        assert_eq!(pct(0.123), "12.3 %");
        assert_eq!(eng(1e-12, "A"), "1 pA");
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", &["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.render().contains("| x"));
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = Table::new("csv", &["a", "b"]);
        t.add_row(vec!["1,5".into(), "plain".into()]);
        t.add_row(vec!["say \"hi\"".into(), "x".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "\"1,5\",plain");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",x");
    }

    #[test]
    fn csv_saves_to_disk() {
        let mut t = Table::new("csv", &["x"]);
        t.add_row(vec!["42".into()]);
        let path = std::env::temp_dir().join("bsa_bench_test/table.csv");
        t.save_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.contains("42"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn pgm_export_format() {
        let values = vec![0.0, 0.5, 1.0, 0.25, 0.75, 0.0];
        let path = std::env::temp_dir().join("bsa_bench_test/map.pgm");
        save_pgm(&path, &values, 2, 3).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let mut lines = content.lines();
        assert_eq!(lines.next(), Some("P2"));
        assert_eq!(lines.next(), Some("3 2"));
        assert_eq!(lines.next(), Some("255"));
        assert_eq!(lines.next(), Some("0 128 255"));
        assert_eq!(lines.next(), Some("64 191 0"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    #[should_panic(expected = "dimensions mismatch")]
    fn pgm_rejects_bad_dimensions() {
        let _ = save_pgm("/tmp/never.pgm", &[1.0, 2.0], 2, 2);
    }
}
