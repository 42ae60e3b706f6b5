//! Run manifests: the provenance record written alongside exported
//! metrics so every results directory is self-describing — which git
//! revision produced it, with which RNG seed and config knobs, and how
//! long each experiment took.

use crate::export::json_escape;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// One experiment's entry in the manifest.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// Experiment id (`fig13`, `tab1`, …).
    pub id: String,
    /// Wall-clock seconds the runner took.
    pub wall_s: f64,
    /// Number of table rows the runner produced.
    pub rows: usize,
}

/// The provenance record for one invocation of the paper harness.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// Export schema version ([`crate::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Unix timestamp (seconds) when the run started.
    pub created_unix_s: u64,
    /// `git` revision of the working tree (`unknown` outside a repo).
    pub git_rev: String,
    /// The full command line.
    pub cmdline: Vec<String>,
    /// Monte-Carlo iteration knob (`n`).
    pub n: usize,
    /// The root RNG seed every experiment derives its streams from.
    pub seed: u64,
    /// Whether the larger `--full` Monte-Carlo preset was used.
    pub full: bool,
    /// Monte-Carlo worker-pool size (0 when the harness ran without a
    /// configured pool). Results are thread-count-invariant; this is
    /// recorded for performance provenance only.
    pub threads: usize,
    /// Whether adaptive per-cell early stopping was enabled.
    pub early_stop: bool,
    /// Host OS (compile-time).
    pub host_os: String,
    /// Host architecture (compile-time).
    pub host_arch: String,
    /// Per-experiment timings, in execution order.
    pub experiments: Vec<ExperimentRun>,
}

impl RunManifest {
    /// Starts a manifest for the current process: timestamp, git
    /// revision (resolved from `repo_root`), command line, and knobs.
    pub fn start(repo_root: &Path, n: usize, seed: u64, full: bool) -> Self {
        RunManifest {
            schema_version: crate::SCHEMA_VERSION,
            created_unix_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            git_rev: git_rev(repo_root),
            cmdline: std::env::args().collect(),
            n,
            seed,
            full,
            threads: 0,
            early_stop: false,
            host_os: std::env::consts::OS.to_string(),
            host_arch: std::env::consts::ARCH.to_string(),
            experiments: Vec::new(),
        }
    }

    /// Sets the recorded worker-pool size.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Records the trial engine configuration (early stopping).
    pub fn with_engine(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// Records one completed experiment.
    pub fn record(&mut self, id: &str, wall_s: f64, rows: usize) {
        self.experiments.push(ExperimentRun { id: id.to_string(), wall_s, rows });
    }

    /// Serializes the manifest as pretty-enough JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"created_unix_s\": {},", self.created_unix_s);
        let _ = writeln!(out, "  \"git_rev\": \"{}\",", json_escape(&self.git_rev));
        let args: Vec<String> =
            self.cmdline.iter().map(|a| format!("\"{}\"", json_escape(a))).collect();
        let _ = writeln!(out, "  \"cmdline\": [{}],", args.join(", "));
        let _ = writeln!(out, "  \"n\": {},", self.n);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"full\": {},", self.full);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"early_stop\": {},", self.early_stop);
        let _ = writeln!(out, "  \"host_os\": \"{}\",", json_escape(&self.host_os));
        let _ = writeln!(out, "  \"host_arch\": \"{}\",", json_escape(&self.host_arch));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": \"{}\", \"wall_s\": {:.3}, \"rows\": {}}}",
                json_escape(&e.id),
                e.wall_s,
                e.rows
            );
            out.push_str(if i + 1 < self.experiments.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `manifest.json` into `dir` (creating it if needed).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("manifest.json"), self.to_json())
    }
}

/// Resolves the current git revision by reading `.git` directly (no
/// subprocess, works in minimal containers). Returns `"unknown"` when
/// `repo_root` is not a git checkout.
pub fn git_rev(repo_root: &Path) -> String {
    let head_path = repo_root.join(".git/HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        // Direct ref file, then packed-refs.
        if let Ok(rev) = std::fs::read_to_string(repo_root.join(".git").join(r)) {
            return rev.trim().to_string();
        }
        if let Ok(packed) = std::fs::read_to_string(repo_root.join(".git/packed-refs")) {
            for line in packed.lines() {
                if let Some(rev) = line.strip_suffix(r) {
                    return rev.trim().to_string();
                }
            }
        }
        format!("unresolved:{r}")
    } else {
        head.to_string() // detached HEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_json;

    #[test]
    fn manifest_serializes_to_valid_json() {
        let mut m = RunManifest::start(Path::new("/nonexistent"), 12, 42, false).with_engine(true);
        m.record("fig05", 1.25, 5);
        m.record("tab1", 0.5, 8);
        let v = parse_json(&m.to_json()).expect("valid JSON");
        assert_eq!(v.get("seed").unwrap().as_f64().unwrap() as u64, 42);
        assert_eq!(v.get("n").unwrap().as_f64().unwrap() as usize, 12);
        assert!(v.get("batch").is_none());
        assert!(matches!(v.get("early_stop").unwrap(), crate::export::Json::Bool(true)));
        assert_eq!(v.get("git_rev").unwrap().as_str().unwrap(), "unknown");
        assert_eq!(
            v.get("schema_version").unwrap().as_f64().unwrap() as u32,
            crate::SCHEMA_VERSION
        );
        let exps = v.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("id").unwrap().as_str().unwrap(), "fig05");
        assert_eq!(exps[1].get("rows").unwrap().as_f64().unwrap() as usize, 8);
    }

    #[test]
    fn manifest_writes_to_dir() {
        let dir = std::env::temp_dir().join(format!("msc_obs_manifest_{}", std::process::id()));
        let m = RunManifest::start(Path::new("."), 1, 7, true);
        m.write(&dir).expect("write");
        let body = std::fs::read_to_string(dir.join("manifest.json")).expect("read back");
        assert!(parse_json(&body).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn git_rev_resolves_in_this_repo_if_present() {
        // Walk up from the crate dir looking for a .git; when found the
        // revision must be a 40-hex string or unresolved marker.
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join(".git").exists() {
            if !dir.pop() {
                return; // not in a git checkout; nothing to assert
            }
        }
        let rev = git_rev(&dir);
        assert!(
            rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())
                || rev.starts_with("unresolved:"),
            "unexpected rev: {rev}"
        );
    }
}
