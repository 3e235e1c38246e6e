//! Plain-text tables and JSON persistence for the experiment runner.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// An aligned plain-text table, the output format of every experiment row.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Table {
    /// Table caption printed above the header.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (ragged rows are padded with blanks at render time).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len().max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |w: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let pad = w - cell.chars().count();
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        out
    }
}

/// Formats a float the way the paper's tables do: three significant-ish
/// digits, switching to scientific-free compact forms.
pub fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return format!("{x}");
    }
    let a = x.abs();
    if a >= 1000.0 {
        format!("{x:.0}")
    } else if a >= 10.0 {
        format!("{x:.1}")
    } else if a >= 0.01 || a == 0.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

/// Serializes any result payload as pretty JSON under `results/`.
/// Creates parent directories as needed.
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    // linklens-allow(unwrap-in-lib): report payloads are plain data trees; serialization is total
    let json = serde_json::to_string_pretty(value).expect("serializable payload");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push_row(vec!["short".into(), "1".into()]);
        t.push_row(vec!["a-much-longer-name".into(), "2.5".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("## demo"));
        // Header and rows share column starts.
        let value_col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1'), Some(value_col));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.push_row(vec!["1".into()]);
        let out = t.render();
        assert!(out.contains('1'));
    }

    #[test]
    fn fnum_ranges() {
        assert_eq!(fnum(12345.6), "12346");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(0.1234), "0.123");
        assert_eq!(fnum(0.00123), "1.23e-3");
        assert_eq!(fnum(0.0), "0.000");
        assert_eq!(fnum(f64::NAN), "NaN");
    }

    #[test]
    fn write_json_round_trips() {
        let dir = std::env::temp_dir().join("linklens-test-report");
        let path = dir.join("x/y.json");
        write_json(&path, &vec![1, 2, 3]).unwrap();
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
