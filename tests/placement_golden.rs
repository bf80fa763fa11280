//! Golden pin of every monitor placement the committed artifacts build.
//!
//! `artifacts/*.json` are reproduced byte for byte only if monitor
//! placement picks exactly the same monitors and measurement paths for
//! the seeds the figures use. This test hashes each placement — the
//! sorted monitor set and every path's node sequence, in row order —
//! with FNV-1a and compares against digests recorded from the reference
//! implementation. Any change to the rank test, Yen's candidate order or
//! the shortest-path tie-break that alters a single chosen path shows up
//! here as a digest mismatch.

use std::path::Path;

use scapegoat_tomography::core::TomographySystem;
use scapegoat_tomography::sim::topologies::{
    build_system, build_system_from_rocketfuel, NetworkKind,
};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of a placement: monitor count and ids, then per path its node
/// count and node ids.
fn digest(system: &TomographySystem) -> u64 {
    let monitors = system.monitors();
    let mut words = vec![monitors.len() as u64];
    words.extend(monitors.iter().map(|m| m.index() as u64));
    for p in system.paths() {
        words.push(p.nodes().len() as u64);
        words.extend(p.nodes().iter().map(|n| n.index() as u64));
    }
    fnv1a(words)
}

/// Returns a mismatch line (with the observed values, ready to paste
/// into the tables below) if the placement differs from the pin.
fn check(
    name: &str,
    system: &TomographySystem,
    monitors: usize,
    paths: usize,
    expected: u64,
) -> Option<String> {
    let got = (system.monitors().len(), system.num_paths(), digest(system));
    (got != (monitors, paths, expected)).then(|| {
        format!(
            "{name}: got ({}, {}, {:#018x}), pinned ({monitors}, {paths}, {expected:#018x})",
            got.0, got.1, got.2
        )
    })
}

/// `(kind, seed, monitors, paths, digest)` of each Fig. 7 system: seeds
/// `42·1_000_003 + s`, wireless offset by 500_000.
const FIG7: [(NetworkKind, u64, usize, usize, u64); 6] = [
    (
        NetworkKind::Wireline,
        42_000_126,
        96,
        223,
        0x9a69_c054_9eef_c9d8,
    ),
    (
        NetworkKind::Wireline,
        42_000_127,
        98,
        222,
        0x99eb_d53e_733d_18e8,
    ),
    (
        NetworkKind::Wireline,
        42_000_128,
        99,
        216,
        0x9faf_cc62_b3e2_e190,
    ),
    (
        NetworkKind::Wireless,
        42_500_126,
        89,
        355,
        0xaac4_f857_5250_5d8c,
    ),
    (
        NetworkKind::Wireless,
        42_500_127,
        92,
        378,
        0xfeda_b4a7_fa83_2fb6,
    ),
    (
        NetworkKind::Wireless,
        42_500_128,
        80,
        262,
        0x50ad_4a70_9196_777a,
    ),
];

/// Fig. 8 systems: seeds `42·7_777_777 + s`, wireless offset by 900_000.
const FIG8: [(NetworkKind, u64, usize, usize, u64); 4] = [
    (
        NetworkKind::Wireline,
        326_666_634,
        100,
        222,
        0x329b_e404_ee42_6c57,
    ),
    (
        NetworkKind::Wireline,
        326_666_635,
        96,
        220,
        0x6f46_8254_3b5f_341d,
    ),
    (
        NetworkKind::Wireless,
        327_566_634,
        84,
        357,
        0x3389_c046_52c2_60d3,
    ),
    (
        NetworkKind::Wireless,
        327_566_635,
        77,
        255,
        0x69b8_f7fc_aa8a_5125,
    ),
];

/// Fig. 9 and the gap sweep share the seed-42 wireline system; the gap
/// sweep's wireless family runs at `seed + 17`.
const FIG9_GAP: [(NetworkKind, u64, usize, usize, u64); 2] = [
    (NetworkKind::Wireline, 42, 100, 229, 0x0f57_774e_9484_dbd0),
    (NetworkKind::Wireless, 59, 97, 324, 0xc0ae_c693_5519_9fd7),
];

#[test]
fn seed_derivations_match_the_figures() {
    assert_eq!(42u64 * 1_000_003, FIG7[0].1);
    assert_eq!(42u64 * 1_000_003 + 500_000, FIG7[3].1);
    assert_eq!(42u64 * 7_777_777, FIG8[0].1);
    assert_eq!(42u64 * 7_777_777 + 900_000, FIG8[2].1);
}

#[test]
fn figure_placements_are_pinned() {
    let mismatches: Vec<String> = FIG7
        .iter()
        .chain(&FIG8)
        .chain(&FIG9_GAP)
        .filter_map(|&(kind, seed, monitors, paths, expected)| {
            let system = build_system(kind, seed).unwrap();
            check(
                &format!("{kind} seed {seed}"),
                &system,
                monitors,
                paths,
                expected,
            )
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn rocketfuel_fixture_placement_is_pinned() {
    let fixture = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/as65530.cch"
    ));
    let system = build_system_from_rocketfuel(fixture, 3).unwrap();
    if let Some(m) = check(
        "as65530.cch seed 3",
        &system,
        255,
        480,
        0x8ebf_7e61_e3a9_d1f3,
    ) {
        panic!("{m}");
    }
}
