//! The comparison the reference test binaries share: a runner's report
//! against its seed-42 reference of `paper all 24 42` in
//! `benchmark/reference/`, byte for byte. The references are read only:
//! a difference means the code moved a report, and the code is what
//! gets fixed.

use msc_sim::Report;

/// How `report`, experiment `id`'s report at `24 42`, differs from its
/// reference (the first differing line, or the lengths), or `None` when
/// the two are equal.
pub fn reference_mismatch(id: &str, report: &Report) -> Option<String> {
    let path = format!(
        "{}/../../benchmark/reference/seed42/paper-all/{id}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let got = report.to_json();
    if let Some((i, (g, w))) = got.lines().zip(want.lines()).enumerate().find(|(_, (g, w))| g != w)
    {
        return Some(format!(
            "{id} differs from {path} at line {}:\n  got  {g}\n  want {w}",
            i + 1
        ));
    }
    (got.len() != want.len()).then(|| format!("{id} differs from {path} in length"))
}
