//! The JSON reader takes external input (reports, flight bundles,
//! archives, profile exports), so it must answer `Ok` or `Err` for any
//! byte string and never panic or overflow the stack: arbitrary bytes,
//! every prefix of a real report and of a real flight bundle, those
//! documents with one byte changed, and arrays/objects nested past
//! [`MAX_JSON_DEPTH`].

use msc_obs::export::{parse_json, MAX_JSON_DEPTH};
use msc_obs::flight::{self, Dump, TrialRecord};
use proptest::prelude::*;

/// A report the `paper` binary wrote (the committed seed-42 fig5
/// reference).
const REPORT: &str = include_str!("../../../benchmark/reference/seed42/ident/fig5.json");

/// A flight bundle as the recorder writes it.
fn bundle() -> String {
    let record = TrialRecord {
        experiment: "fig8".into(),
        cell: "id/2.5-std/test".into(),
        index: 20,
        seed: 42,
        derived_seed: 0x9e37_79b9_7f4a_7c15,
        protocol: "BLE",
        scores: vec![("802.11n", 0.41), ("802.11b", -0.125), ("BLE", 0.5), ("ZigBee", 0.625)],
        verdict: "id_miss".into(),
        notes: Vec::new(),
    };
    flight::bundle_to_json(&Dump { reason: "id_miss".into(), record }, 16)
}

/// Parses `bytes` (lossily decoded, as a reader of untrusted files
/// would) through the generic reader and the bundle reader; either may
/// fail, neither may panic.
fn parse_any(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = parse_json(&text);
    let _ = flight::parse_bundle(&text);
}

#[test]
fn every_prefix_of_a_report_and_a_bundle_parses_or_errs() {
    for doc in [REPORT.to_string(), bundle()] {
        assert!(parse_json(&doc).is_ok(), "the whole document must parse");
        for k in 0..doc.len() {
            parse_any(&doc.as_bytes()[..k]);
        }
    }
}

/// The bytes JSON structure is made of, plus a few that are not, so
/// random strings reach deep into the grammar instead of failing on
/// their first byte.
const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789\\/ubfnrt aluse\t\n\x00\xc3\xa9\xff";

fn jsonish(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|b| if b < 200 { ALPHABET[b as usize % ALPHABET.len()] } else { b })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_parse_or_err(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        parse_any(&bytes);
    }

    #[test]
    fn json_like_bytes_parse_or_err(bytes in jsonish(256)) {
        parse_any(&bytes);
    }

    #[test]
    fn real_documents_with_one_byte_changed_parse_or_err(
        which in any::<bool>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut doc = if which { REPORT.as_bytes().to_vec() } else { bundle().into_bytes() };
        let i = at.index(doc.len());
        doc[i] = byte;
        parse_any(&doc);
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error(
        extra in 1usize..4096,
        openers in proptest::collection::vec(any::<bool>(), 64),
        closed in any::<bool>(),
    ) {
        // A mix of array and object levels, one past the limit or far
        // beyond it, closed or cut off.
        let depth = MAX_JSON_DEPTH + extra;
        let mut doc = String::new();
        for level in 0..depth {
            doc.push_str(if openers[level % openers.len()] { "[" } else { "{\"k\":" });
        }
        doc.push('0');
        if closed {
            for level in (0..depth).rev() {
                doc.push(if openers[level % openers.len()] { ']' } else { '}' });
            }
        }
        prop_assert!(parse_json(&doc).is_err(), "depth {depth} must be rejected");
        let _ = flight::parse_bundle(&doc);
    }
}
