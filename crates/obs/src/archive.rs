//! Content-addressed run archive: every `--metrics-out` run's report
//! tables are stored under `<dir>/archive/` keyed by *what produced
//! them* — experiment id, RNG seed, git revision, and a hash of every
//! result-affecting config knob — so `paper diff --baseline` can find
//! "the newest comparable run" without the caller bookkeeping paths.
//!
//! The key is deliberately **thread-count independent**: reports are
//! byte-identical at any worker-pool size (the `msc-par` determinism
//! contract), so two runs differing only in `--threads` are the *same*
//! result and must collide in the archive. Anything that can move a
//! cell — trial count, the `--full` preset, perturbation env knobs —
//! feeds the config hash.
//!
//! Layout:
//!
//! ```text
//! <metrics-out>/archive/
//!   index.jsonl            one line per stored run (key + timestamp + file)
//!   runs/<exp>@<seed>@<git8>@<confighash16>.json   the report table JSON
//! ```
//!
//! Storing an already-present key overwrites it (same inputs → same
//! result; the newer timestamp wins). [`Archive::prune`] bounds the
//! archive at a per-experiment cap, dropping oldest-first.

use crate::export::{json_escape, parse_json};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit over a byte string (no external deps; stable across
/// platforms and runs, which is what makes the key content-addressed).
/// The workspace's one FNV-1a: `msc_par::hash_label` and the trace
/// memo's front-end fingerprint call it too.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes a set of `(knob, value)` config parts order-insensitively:
/// parts are sorted by knob name before hashing, so call sites don't
/// have to agree on ordering. Thread count must never be passed here.
pub fn config_hash(parts: &[(&str, String)]) -> u64 {
    let mut sorted: Vec<(&str, &str)> = parts.iter().map(|(k, v)| (*k, v.as_str())).collect();
    sorted.sort();
    let mut buf = String::new();
    for (k, v) in sorted {
        let _ = write!(buf, "{k}\x1f{v}\x1e");
    }
    fnv1a(buf.as_bytes())
}

/// The content address of one archived run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunKey {
    /// Experiment id (`fig13`, `ext-fec`, …).
    pub experiment: String,
    /// Root RNG seed.
    pub seed: u64,
    /// Git revision of the producing tree.
    pub git_rev: String,
    /// Hash of every result-affecting config knob ([`config_hash`]).
    pub config_hash: u64,
}

impl RunKey {
    /// Builds a key, hashing the config parts.
    pub fn new(
        experiment: impl Into<String>,
        seed: u64,
        git_rev: impl Into<String>,
        config: &[(&str, String)],
    ) -> Self {
        RunKey {
            experiment: experiment.into(),
            seed,
            git_rev: git_rev.into(),
            config_hash: config_hash(config),
        }
    }

    /// The filesystem stem this key stores under. Experiment ids are
    /// `[a-z0-9-]` by construction; the git rev is truncated to 8 hex
    /// chars (the full rev lives in the index line).
    pub fn file_stem(&self) -> String {
        let git8: String = self.git_rev.chars().take(8).collect();
        format!("{}@{}@{}@{:016x}", self.experiment, self.seed, git8, self.config_hash)
    }
}

/// One line of `index.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexEntry {
    /// The run's content address.
    pub key: RunKey,
    /// Unix timestamp (seconds) the run was archived.
    pub created_unix_s: u64,
    /// Report file, relative to the archive root (`runs/<stem>.json`).
    pub file: String,
}

impl IndexEntry {
    fn to_json_line(&self) -> String {
        format!(
            "{{\"experiment\":\"{}\",\"seed\":{},\"git_rev\":\"{}\",\"config_hash\":\"{:016x}\",\"created_unix_s\":{},\"file\":\"{}\"}}",
            json_escape(&self.key.experiment),
            self.key.seed,
            json_escape(&self.key.git_rev),
            self.key.config_hash,
            self.created_unix_s,
            json_escape(&self.file),
        )
    }

    fn from_json_line(line: &str) -> Option<IndexEntry> {
        let v = parse_json(line).ok()?;
        Some(IndexEntry {
            key: RunKey {
                experiment: v.get("experiment")?.as_str()?.to_string(),
                seed: v.get("seed")?.as_f64()? as u64,
                git_rev: v.get("git_rev")?.as_str()?.to_string(),
                config_hash: u64::from_str_radix(v.get("config_hash")?.as_str()?, 16).ok()?,
            },
            created_unix_s: v.get("created_unix_s")?.as_f64()? as u64,
            file: v.get("file")?.as_str()?.to_string(),
        })
    }
}

/// A run archive rooted at `<metrics-out>/archive/`.
#[derive(Clone, Debug)]
pub struct Archive {
    root: PathBuf,
}

impl Archive {
    /// Opens (without creating) the archive under a `--metrics-out`
    /// directory.
    pub fn open(metrics_out: &Path) -> Self {
        Archive { root: metrics_out.join("archive") }
    }

    /// The archive root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Every index entry, oldest first (file order; ties and malformed
    /// lines are skipped, not fatal — the archive is a cache, never a
    /// source of truth).
    pub fn entries(&self) -> Vec<IndexEntry> {
        let Ok(body) = std::fs::read_to_string(self.root.join("index.jsonl")) else {
            return Vec::new();
        };
        body.lines().filter_map(IndexEntry::from_json_line).collect()
    }

    /// Stores one run's report JSON under its key, replacing any
    /// existing entry with the same key. Returns the report path.
    pub fn store(
        &self,
        key: &RunKey,
        report_json: &str,
        created_unix_s: u64,
    ) -> io::Result<PathBuf> {
        let runs = self.root.join("runs");
        std::fs::create_dir_all(&runs)?;
        let file = format!("runs/{}.json", key.file_stem());
        let path = self.root.join(&file);
        std::fs::write(&path, report_json)?;
        let mut entries: Vec<IndexEntry> =
            self.entries().into_iter().filter(|e| &e.key != key).collect();
        entries.push(IndexEntry { key: key.clone(), created_unix_s, file });
        self.write_index(&entries)?;
        Ok(path)
    }

    /// Reads an archived report back.
    pub fn load(&self, entry: &IndexEntry) -> io::Result<String> {
        std::fs::read_to_string(self.root.join(&entry.file))
    }

    /// The newest archived run comparable to `key` — same experiment,
    /// but not the identical key (a run never baselines against
    /// itself). Entries sharing the config hash are preferred (same
    /// knobs, different code or seed); otherwise the newest
    /// same-experiment entry of any config is returned.
    pub fn latest_baseline(&self, key: &RunKey) -> Option<IndexEntry> {
        let mut candidates: Vec<IndexEntry> = self
            .entries()
            .into_iter()
            .filter(|e| e.key.experiment == key.experiment && &e.key != key)
            .collect();
        candidates.sort_by_key(|e| e.created_unix_s);
        candidates
            .iter()
            .rev()
            .find(|e| e.key.config_hash == key.config_hash)
            .or(candidates.last())
            .cloned()
    }

    /// Drops oldest entries beyond `max_per_experiment` (report file +
    /// index line). Returns the number of runs removed.
    pub fn prune(&self, max_per_experiment: usize) -> io::Result<usize> {
        let mut entries = self.entries();
        if entries.is_empty() {
            return Ok(0);
        }
        // Newest-first within each experiment; keep the first
        // `max_per_experiment` of each.
        entries.sort_by_key(|e| std::cmp::Reverse(e.created_unix_s));
        let mut kept: Vec<IndexEntry> = Vec::new();
        let mut removed = 0usize;
        for e in entries {
            let seen = kept.iter().filter(|k| k.key.experiment == e.key.experiment).count();
            if seen < max_per_experiment {
                kept.push(e);
            } else {
                let _ = std::fs::remove_file(self.root.join(&e.file));
                removed += 1;
            }
        }
        if removed > 0 {
            // Restore oldest-first file order for the rewritten index.
            kept.sort_by_key(|e| e.created_unix_s);
            self.write_index(&kept)?;
        }
        Ok(removed)
    }

    fn write_index(&self, entries: &[IndexEntry]) -> io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        let mut body = String::new();
        for e in entries {
            body.push_str(&e.to_json_line());
            body.push('\n');
        }
        std::fs::write(self.root.join("index.jsonl"), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("msc_archive_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cfg(n: usize, full: bool) -> Vec<(&'static str, String)> {
        vec![("n", n.to_string()), ("full", full.to_string())]
    }

    #[test]
    fn store_load_round_trips_and_overwrites() {
        let dir = tmpdir("roundtrip");
        let ar = Archive::open(&dir);
        let key = RunKey::new("fig13", 42, "deadbeefcafe", &cfg(12, false));
        ar.store(&key, "{\"v\":1}", 100).unwrap();
        ar.store(&key, "{\"v\":2}", 200).unwrap();
        let entries = ar.entries();
        assert_eq!(entries.len(), 1, "same key overwrites, never duplicates");
        assert_eq!(entries[0].created_unix_s, 200);
        assert_eq!(ar.load(&entries[0]).unwrap(), "{\"v\":2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn baseline_prefers_same_config_then_newest() {
        let dir = tmpdir("baseline");
        let ar = Archive::open(&dir);
        let old_rev = RunKey::new("fig13", 42, "aaaa0000", &cfg(12, false));
        let other_cfg = RunKey::new("fig13", 42, "bbbb1111", &cfg(60, true));
        let current = RunKey::new("fig13", 42, "cccc2222", &cfg(12, false));
        ar.store(&old_rev, "old", 100).unwrap();
        ar.store(&other_cfg, "other", 300).unwrap();
        ar.store(&current, "cur", 400).unwrap();
        // Same config hash as `current` even though `other_cfg` is newer.
        let base = ar.latest_baseline(&current).expect("baseline");
        assert_eq!(base.key, old_rev);
        // No same-config candidate → newest other entry.
        let lonely = RunKey::new("fig13", 7, "cccc2222", &cfg(24, false));
        let fallback = ar.latest_baseline(&lonely).expect("fallback");
        assert_eq!(fallback.key, current);
        // Never itself; a different experiment finds nothing.
        let foreign = RunKey::new("fig5", 42, "cccc2222", &cfg(12, false));
        ar.store(&foreign, "x", 500).unwrap();
        let base = ar.latest_baseline(&foreign);
        assert!(base.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_per_experiment() {
        let dir = tmpdir("prune");
        let ar = Archive::open(&dir);
        for (i, rev) in ["r1", "r2", "r3", "r4"].iter().enumerate() {
            let key = RunKey::new("fig13", 42, *rev, &cfg(12, false));
            ar.store(&key, "x", 100 + i as u64).unwrap();
        }
        let other = RunKey::new("fig5", 42, "r1", &cfg(12, false));
        ar.store(&other, "y", 50).unwrap();
        let removed = ar.prune(2).unwrap();
        assert_eq!(removed, 2);
        let entries = ar.entries();
        assert_eq!(entries.len(), 3);
        let fig13: Vec<_> = entries.iter().filter(|e| e.key.experiment == "fig13").collect();
        assert_eq!(fig13.len(), 2);
        assert!(fig13.iter().all(|e| e.created_unix_s >= 102), "oldest dropped first");
        assert!(
            entries.iter().any(|e| e.key.experiment == "fig5"),
            "per-experiment cap never evicts other experiments"
        );
        // Pruned files are gone from disk too.
        assert_eq!(std::fs::read_dir(ar.root().join("runs")).unwrap().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
