//! The checker's report: one `path:line: [rule] message` line per active
//! finding and a closing tally. The renderer returns a string; printing
//! is the binary's job (`print-in-lib` applies to this crate too).

use crate::rules::Diagnostic;

/// Aggregated result of one checker run.
#[derive(Debug)]
pub struct RunSummary {
    pub files_checked: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl RunSummary {
    /// Diagnostics that fail the run (not covered by an allow).
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.suppressed)
    }

    /// Allow-covered findings, kept visible for reporting.
    pub fn suppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.suppressed)
    }

    pub fn has_violations(&self) -> bool {
        self.active().next().is_some()
    }
}

/// `path:line: [rule] message` lines plus a closing tally.
pub fn render_text(run: &RunSummary) -> String {
    let mut out = String::new();
    for d in run.active() {
        out.push_str(&format!("{}:{}: [{}] {}\n", d.path, d.line, d.rule, d.message));
    }
    let active = run.active().count();
    let suppressed = run.suppressed().count();
    out.push_str(&format!(
        "linklens-check: {} file(s), {} violation(s), {} suppressed by linklens-allow\n",
        run.files_checked, active, suppressed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSummary {
        let mut allowed =
            Diagnostic::new("print-in-lib", "crates/core/src/report.rs", 4, "print".into());
        allowed.suppressed = true;
        RunSummary {
            files_checked: 3,
            diagnostics: vec![
                Diagnostic::new("unwrap-in-lib", "crates/graph/src/io.rs", 10, "boom".into()),
                allowed,
            ],
        }
    }

    #[test]
    fn text_report_lists_active_only() {
        let text = render_text(&sample());
        assert!(text.contains("crates/graph/src/io.rs:10: [unwrap-in-lib] boom"));
        assert!(!text.contains("report.rs:4"));
        assert!(text.contains("1 violation(s), 1 suppressed"));
    }

    #[test]
    fn clean_run_reports_clean() {
        let run = RunSummary { files_checked: 5, diagnostics: vec![] };
        assert!(!run.has_violations());
        assert!(render_text(&run)
            .ends_with("5 file(s), 0 violation(s), 0 suppressed by linklens-allow\n"));
    }
}
