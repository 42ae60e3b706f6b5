//! Process-wide Monte-Carlo engine configuration: adaptive early
//! stopping.
//!
//! The knob is a plain atomic set once at startup (the `paper` binary
//! maps `--no-early-stop` onto it) and read by
//! [`crate::pipeline::run_cells`] per cell. It changes how
//! many trials a cell consumes, never what any trial computes: runners
//! with a [`crate::pipeline::StopPolicy`] halt a cell once its verdict
//! is statistically decided, and disabling it restores full trial
//! counts.

use std::sync::atomic::{AtomicBool, Ordering};

static EARLY_STOP: AtomicBool = AtomicBool::new(true);

/// Enables or disables adaptive per-cell early stopping.
pub fn set_early_stop(on: bool) {
    EARLY_STOP.store(on, Ordering::SeqCst);
}

/// Whether adaptive early stopping is enabled.
pub fn early_stop() -> bool {
    EARLY_STOP.load(Ordering::SeqCst)
}
