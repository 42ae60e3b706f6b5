//! Structured event stream: a bounded, run-scoped JSONL sink
//! (`paper --events <path|->`) — the serving seam a future scenario
//! daemon will stream to clients.
//!
//! Every line is one event:
//!
//! ```json
//! {"schema_version":3,"seq":7,"kind":"cell_done","cell":"los/BLE/8",
//!  "trials":12,"requested":12,"wall":{"t_us":18234}}
//! ```
//!
//! The fields before `"wall"` are **deterministic**: they derive only
//! from the run's `(n, seed, config)` and never from clocks or thread
//! scheduling, and every emission site sits on a sequential code path
//! (the experiment loop, the per-cell caller thread, the fleet MAC
//! sweep). The single trailing `"wall"` object holds *everything*
//! volatile — timestamps, rates, utilization, thread counts — so
//! [`strip_volatile`] reduces the stream to a byte-identical form at
//! any `--threads`. Sequence numbers are assigned under the sink lock
//! in emission order, which is itself deterministic.
//!
//! The sink is bounded: after `cap` events further [`emit`] calls only
//! bump a drop counter (the cap applies to the deterministic stream,
//! so the count — reported in the terminal `run_end` event, which
//! [`emit_terminal`] writes past the cap — is deterministic too).
//!
//! The event sink is deliberately **outside** the archive config hash:
//! like `--profile`, it only observes, so an
//! events-enabled run must produce byte-identical reports.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default cap on emitted events per run (excluding the terminal
/// `run_end`). Far above a `paper all` run (~2k cells); a runaway
/// emitter degrades to a counter instead of filling the disk.
pub const DEFAULT_CAP: usize = 200_000;

/// Whether a sink is open (the emission fast path).
static OPEN: AtomicBool = AtomicBool::new(false);

/// Sink totals, queryable while open and returned by [`close`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EventStats {
    /// Events written (== the last line's `seq` + 1).
    pub written: u64,
    /// Events dropped after the cap was hit.
    pub dropped: u64,
}

struct Sink {
    out: Box<dyn Write + Send>,
    seq: u64,
    dropped: u64,
    cap: usize,
    t0: Instant,
}

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Opens the sink writing to `path` (`"-"` = stdout) with the default
/// cap. Any previously open sink is flushed and replaced.
pub fn open_path(path: &str) -> std::io::Result<()> {
    let out: Box<dyn Write + Send> = if path == "-" {
        Box::new(std::io::stdout())
    } else {
        Box::new(BufWriter::new(File::create(path)?))
    };
    let mut s = sink().lock().unwrap();
    *s = Some(Sink { out, seq: 0, dropped: 0, cap: DEFAULT_CAP, t0: Instant::now() });
    OPEN.store(true, Ordering::Release);
    Ok(())
}

/// The emission fast path: true while a sink is open.
#[inline(always)]
pub fn enabled() -> bool {
    OPEN.load(Ordering::Relaxed)
}

/// Emits one event. `det` is a pre-rendered fragment of deterministic
/// `"key":value` pairs (no braces, no leading comma; may be empty);
/// `volatile` is an equally-shaped fragment placed *inside* the
/// trailing `"wall"` object next to `t_us`. No-op when no sink is
/// open; counted-but-dropped past the cap.
pub fn emit(kind: &str, det: &str, volatile: &str) {
    if !enabled() {
        return;
    }
    write_line(kind, det, volatile, false);
}

/// [`emit`] that bypasses the cap — reserved for the terminal
/// `run_end` event so a capped run still records its totals.
pub fn emit_terminal(kind: &str, det: &str, volatile: &str) {
    if !enabled() {
        return;
    }
    write_line(kind, det, volatile, true);
}

fn write_line(kind: &str, det: &str, volatile: &str, terminal: bool) {
    let mut guard = sink().lock().unwrap();
    let Some(s) = guard.as_mut() else {
        return;
    };
    if !terminal && s.seq >= s.cap as u64 {
        s.dropped += 1;
        return;
    }
    let mut line = String::with_capacity(96 + det.len() + volatile.len());
    line.push_str(&format!(
        "{{\"schema_version\":{},\"seq\":{},\"kind\":\"{}\"",
        crate::SCHEMA_VERSION,
        s.seq,
        crate::export::json_escape(kind)
    ));
    if !det.is_empty() {
        line.push(',');
        line.push_str(det);
    }
    line.push_str(&format!(",\"wall\":{{\"t_us\":{}", s.t0.elapsed().as_micros()));
    if !volatile.is_empty() {
        line.push(',');
        line.push_str(volatile);
    }
    line.push_str("}}\n");
    let _ = s.out.write_all(line.as_bytes());
    s.seq += 1;
}

/// Current sink totals (zeroes when no sink is open).
pub fn stats() -> EventStats {
    let guard = sink().lock().unwrap();
    guard.as_ref().map(|s| EventStats { written: s.seq, dropped: s.dropped }).unwrap_or_default()
}

/// Flushes and closes the sink, returning its totals. No-op (and
/// `None`) when no sink is open.
pub fn close() -> Option<EventStats> {
    OPEN.store(false, Ordering::Release);
    let mut guard = sink().lock().unwrap();
    guard.take().map(|mut s| {
        let _ = s.out.flush();
        EventStats { written: s.seq, dropped: s.dropped }
    })
}

/// Strips the volatile `"wall"` object from one event line, leaving
/// only the deterministic prefix — the form that must be byte-identical
/// at any thread count. Lines without a `"wall"` object pass through.
pub fn strip_volatile(line: &str) -> String {
    let line = line.trim_end();
    match line.rfind(",\"wall\":{") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    }
}

/// Serializes tests that open/close the global sink.
#[doc(hidden)]
pub fn tests_serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("msc_events_{name}_{}", std::process::id()))
    }

    #[test]
    fn events_stream_shape_and_seq() {
        let _guard = tests_serial();
        let path = tmp("shape");
        open_path(path.to_str().unwrap()).unwrap();
        emit("run_start", "\"n\":8,\"seed\":42", "\"threads\":4");
        emit("cell_done", "\"cell\":\"a/b\",\"trials\":8", "");
        emit_terminal("run_end", "\"cells\":1,\"events_dropped\":0", "\"rate\":1.5");
        let st = close().unwrap();
        assert_eq!(st.written, 3);
        assert_eq!(st.dropped, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v = crate::export::parse_json(line).expect("valid JSON");
            assert_eq!(
                v.get("schema_version").unwrap().as_f64().unwrap() as u32,
                crate::SCHEMA_VERSION
            );
            assert_eq!(v.get("seq").unwrap().as_f64().unwrap() as usize, i);
            assert!(v.get("wall").unwrap().get("t_us").is_some());
        }
        assert!(lines[0].contains("\"kind\":\"run_start\""));
        assert!(lines[2].contains("\"rate\":1.5"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strip_volatile_removes_only_the_wall_object() {
        let line = "{\"schema_version\":3,\"seq\":0,\"kind\":\"x\",\"a\":1,\"wall\":{\"t_us\":99,\"rate\":2.0}}";
        assert_eq!(strip_volatile(line), "{\"schema_version\":3,\"seq\":0,\"kind\":\"x\",\"a\":1}");
        let stripped = strip_volatile(line);
        crate::export::parse_json(&stripped).expect("stripped line stays valid JSON");
        assert_eq!(strip_volatile("{\"no_wall\":1}"), "{\"no_wall\":1}");
    }

    #[test]
    fn cap_drops_but_terminal_bypasses() {
        let _guard = tests_serial();
        let path = tmp("cap");
        open_path(path.to_str().unwrap()).unwrap();
        {
            let mut g = sink().lock().unwrap();
            g.as_mut().unwrap().cap = 2;
        }
        for _ in 0..5 {
            emit("tick", "", "");
        }
        emit_terminal("run_end", "\"events_dropped\":3", "");
        let st = close().unwrap();
        assert_eq!(st.written, 3, "2 capped + 1 terminal");
        assert_eq!(st.dropped, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().last().unwrap().contains("run_end"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_sink_is_a_noop() {
        let _guard = tests_serial();
        let _ = close(); // ensure any leaked sink from another test is shut
        assert!(!enabled());
        emit("nope", "\"a\":1", "");
        assert_eq!(stats().written, 0);
    }
}
