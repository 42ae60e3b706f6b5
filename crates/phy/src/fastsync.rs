//! Thread-local decode fast-path hint set by the simulation engine.
//!
//! The Monte-Carlo pipeline modulates the tag overlay onto an
//! excitation waveform and applies a delay-free flat channel, so the
//! frame inside every trial buffer starts at sample zero with at most a
//! few samples of ambiguity. A [`SyncHint`] carries what the engine
//! knows about the buffer as two facts:
//!
//! * **the frame starts in `0..=radius`** — a demodulator may search
//!   only those offsets instead of the whole buffer;
//! * **the channel applied no carrier offset** (`cfo_free`) — the CFO
//!   estimate may be skipped, since it could only chase noise.
//!
//! The batched trial path sets both; per-trial `tag_packet` decodes set
//! only the window, because their channel may carry an offset and the
//! CFO ablation measures the estimator at work at 0 Hz too. ZigBee is
//! the demodulator that reads the hint: its full-buffer FFT matched
//! filter and its 6000-offset CFO estimator are most of an unhinted
//! decode. On abl-gamma's 12-symbol overlay packets at 2 dB (γ = 2 / 4
//! / 6; 0.8 / 1.3 / 2.3 ms unhinted, one thread of a 2-vCPU AVX x86-64
//! host) the full search is 63–77 % of the decode, the estimator with
//! the correction it triggers 9–17 %, and chip extraction and despreading
//! the remaining 13–20 %. The windowed search that replaces the full
//! one is nine SHR-length dot products.
//!
//! The hint is **thread-local** and scoped: [`with_hint`] sets it for
//! the duration of `f` and restores the previous value on the way out
//! (also on panic), so concurrent tests and unrelated decodes on other
//! threads are never affected. Demodulators must treat the window as an
//! accelerator, not an oracle — if the windowed search fails they fall
//! back to the full search, keeping decode results identical whenever
//! the frame really does start in-window.

use std::cell::Cell;

/// What the engine knows about the frame in a trial buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncHint {
    /// The frame starts in `0..=radius`.
    pub radius: usize,
    /// The channel applied no carrier offset, so the CFO estimate may
    /// be skipped.
    pub cfo_free: bool,
}

thread_local! {
    static HINT: Cell<Option<SyncHint>> = const { Cell::new(None) };
}

struct Restore(Option<SyncHint>);

impl Drop for Restore {
    fn drop(&mut self) {
        HINT.with(|h| h.set(self.0));
    }
}

/// Runs `f` with `hint` active on this thread. Nestable; the previous
/// hint is restored when `f` returns or panics.
pub fn with_hint<R>(hint: SyncHint, f: impl FnOnce() -> R) -> R {
    let prev = HINT.with(|h| h.replace(Some(hint)));
    let _restore = Restore(prev);
    f()
}

/// The sync hint active on this thread, if any.
pub fn hint() -> Option<SyncHint> {
    HINT.with(|h| h.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: SyncHint = SyncHint { radius: 8, cfo_free: false };

    #[test]
    fn hint_is_scoped_and_restored() {
        assert_eq!(hint(), None);
        let inner = SyncHint { radius: 2, cfo_free: true };
        let out = with_hint(WINDOW, || {
            assert_eq!(hint(), Some(WINDOW));
            with_hint(inner, || assert_eq!(hint(), Some(inner)));
            assert_eq!(hint(), Some(WINDOW));
            17
        });
        assert_eq!(out, 17);
        assert_eq!(hint(), None);
    }

    #[test]
    fn hint_survives_panic_unwinding() {
        let caught = std::panic::catch_unwind(|| {
            with_hint(WINDOW, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(hint(), None);
    }
}
