//! Runtime invariant auditing knobs.
//!
//! Debug builds always audit: [`crate::builder::SnapshotBuilder`] runs
//! [`crate::snapshot::Snapshot::validate`] after every incremental
//! advance, and the scoring engine (in `osn-metrics`) checks every
//! metric's score contract. Release builds skip the audits unless
//! *paranoid mode* is switched on — the `--paranoid` flag of `linklens`
//! and `scalecheck` — so production sweeps can opt into full invariant
//! checking at a measured cost instead of trusting their inputs.

use std::sync::atomic::{AtomicBool, Ordering};

static PARANOID: AtomicBool = AtomicBool::new(false);

/// Turns paranoid mode on or off process-wide. Flipped once at CLI
/// startup; taking effect mid-sweep is harmless (each advance re-reads
/// the flag).
pub fn set_paranoid(on: bool) {
    PARANOID.store(on, Ordering::Relaxed);
}

/// Whether paranoid mode is on.
pub fn paranoid() -> bool {
    PARANOID.load(Ordering::Relaxed)
}

/// Whether runtime audits should run: always under `debug_assertions`,
/// and in release exactly when [`set_paranoid`] switched them on.
#[inline]
pub fn audit_enabled() -> bool {
    cfg!(debug_assertions) || paranoid()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paranoid_toggles_and_debug_always_audits() {
        // The only test in this binary that touches the flag, so nothing
        // races it; it holds in debug and release builds alike.
        set_paranoid(true);
        assert!(paranoid());
        assert!(audit_enabled());
        set_paranoid(false);
        assert!(!paranoid());
        assert_eq!(audit_enabled(), cfg!(debug_assertions));
    }
}
