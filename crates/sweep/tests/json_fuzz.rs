//! Never-panic properties of the JSON parser `optimcast bench-compare` and
//! the golden tests feed files through: arbitrary bytes and JSON-shaped
//! token soup either parse or return a typed `JsonError`, and whatever
//! parses prints to a document that parses back to the same bytes.

use optimcast_sweep::Json;

/// Deterministic byte string from a drawn seed — the vendored proptest only
/// draws scalars.
fn bytes_from(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect()
}

/// Fragments that steer random documents into every parser branch:
/// nesting, separators, escapes, numbers at the edges of their types, and
/// truncated literals.
const TOKENS: [&str; 24] = [
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    " ",
    "\"k\"",
    "\"",
    "\\",
    "\"\\u00e9\"",
    "\"\\ud800\"",
    "0",
    "-",
    "1.5e3",
    "1e999",
    "-0.0",
    "99999999999999999999",
    "true",
    "fals",
    "null",
    "n",
    ".",
    "e",
];

fn soup(seed: u64, len: usize) -> String {
    bytes_from(seed, len)
        .into_iter()
        .map(|b| TOKENS[usize::from(b) % TOKENS.len()])
        .collect()
}

/// A parsed value prints to a document that parses again and prints to the
/// same bytes (non-finite numbers print as `null`, so one round trip is a
/// fixed point).
fn assert_stable(value: &Json) -> Result<(), String> {
    let printed = value.to_string_pretty();
    let again = Json::parse(&printed).map_err(|e| format!("reparse of {printed:?}: {e}"))?;
    proptest::prop_assert_eq!(again.to_string_pretty(), printed);
    Ok(())
}

proptest::proptest! {
    /// Arbitrary bytes (decoded lossily to the `&str` the parser takes)
    /// never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(len in 0usize..256, seed in 0u64..u64::MAX) {
        let text = String::from_utf8_lossy(&bytes_from(seed, len)).into_owned();
        if let Ok(value) = Json::parse(&text) {
            assert_stable(&value)?;
        }
    }

    /// Random sequences of JSON tokens reach deep into the parser and still
    /// either parse or fail typed.
    #[test]
    fn token_soup_never_panics(len in 0usize..64, seed in 0u64..u64::MAX) {
        if let Ok(value) = Json::parse(&soup(seed, len)) {
            assert_stable(&value)?;
        }
    }

    /// Every strict prefix of a valid document is rejected with an offset
    /// inside the input.
    #[test]
    fn truncated_documents_fail_typed(cut in 0usize..1000) {
        let doc = r#"{"id": "t", "meta": {"xs": [1, -2.5e3, true, null], "s": "a\"\u00e9"}, "cells": [[{}], []]}"#;
        let prefix = &doc[..cut % doc.len()];
        let err = Json::parse(prefix).unwrap_err();
        proptest::prop_assert!(err.offset <= prefix.len(), "{err}");
    }
}

/// Deep nesting is refused with a typed error instead of recursing until
/// the stack overflows; 128 levels are still accepted.
#[test]
fn deep_nesting_is_a_typed_error() {
    for open in ["[", "{\"k\": "] {
        let err = Json::parse(&open.repeat(100_000)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }
    let deepest = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(Json::parse(&deepest).is_ok());
    let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    let err = Json::parse(&too_deep).unwrap_err();
    assert_eq!(err.offset, 128, "{err}");
}
