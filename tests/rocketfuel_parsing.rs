//! Rocketfuel parser robustness and an end-to-end build on a realistic
//! `.cch` fixture.
//!
//! `tests/fixtures/as65530.cch` is a 255-router, 320-link synthetic AS
//! map in the native Rocketfuel router format (backbone ring + chords
//! over ten POPs, multi-homed access routers, external peerings). It is
//! large enough to exercise the identifiability-driven placement and the
//! measurement stack on a topology shaped like the real datasets, and it
//! carries the format quirks the parsers must survive: external router
//! lines (negative uids), `{-euid}` external links, `&ext` counts, and
//! `=name rN` suffixes.

use std::path::Path;

use scapegoat_tomography::graph::rocketfuel::{from_cch_file, from_cch_str, from_edge_list_str};
use scapegoat_tomography::graph::GraphError;
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::prelude::*;
use scapegoat_tomography::sim::topologies::build_system_from_rocketfuel;

fn fixture() -> &'static Path {
    Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/as65530.cch"
    ))
}

#[test]
fn fixture_parses_with_expected_shape() {
    let g = from_cch_file(fixture()).unwrap();
    assert_eq!(g.num_nodes(), 255, "internal routers only");
    assert_eq!(g.num_links(), 320, "deduplicated internal adjacencies");
    // External peers (-901..-903) must not materialize as nodes.
    assert!(g.node_by_label("r-901").is_none());
    assert!(g.node_by_label("r0").is_some());
    // The backbone ring keeps the map connected: every router reaches r0.
    let root = g.node_by_label("r0").unwrap();
    let far = g.node_by_label("r254").unwrap();
    let p = scapegoat_tomography::graph::shortest::shortest_path(&g, root, far).unwrap();
    assert!(p.is_some(), "fixture must be connected");
}

#[test]
fn fixture_builds_an_identifiable_system_end_to_end() {
    let system = build_system_from_rocketfuel(fixture(), 42, &Executor::from_env()).unwrap();
    assert_eq!(system.num_links(), 320);
    assert!(
        system.num_paths() > system.num_links(),
        "placement adds redundancy beyond identifiability"
    );
    // Noise-free tomography on the fixture is exact.
    let x = Vector::filled(system.num_links(), 12.5);
    let y = system.measure(&x).unwrap();
    let x_hat = system.estimate(&y).unwrap();
    assert!(x_hat.approx_eq(&x, 1e-6));
}

#[test]
fn cch_tolerates_crlf_line_endings() {
    let input = "1 @x (1) -> <2> =r1 rn\r\n2 @x (1) -> <1> =r2 rn\r\n";
    let g = from_cch_str(input).unwrap();
    assert_eq!(g.num_nodes(), 2);
    assert_eq!(g.num_links(), 1);
}

#[test]
fn cch_skips_self_loops_and_duplicate_adjacencies() {
    // Router 1 lists itself and lists 2 twice; 2 lists 1 back (the format
    // states each edge from both ends).
    let input = "1 @x (3) -> <1> <2> <2> =r1 rn\n2 @x (1) -> <1> =r2 rn\n";
    let g = from_cch_str(input).unwrap();
    assert_eq!(g.num_nodes(), 2);
    assert_eq!(g.num_links(), 1, "self-loop and duplicates dropped");
}

#[test]
fn cch_ignores_malformed_neighbor_tokens() {
    // `<x>`, `<>`, and a bare `3` are not neighbor references; the line
    // itself is still well-formed.
    let input = "1 @x (1) -> <x> <> 3 <2> =r1 rn\n";
    let g = from_cch_str(input).unwrap();
    assert_eq!(g.num_nodes(), 2);
    assert_eq!(g.num_links(), 1);
}

#[test]
fn cch_reports_the_failing_line() {
    let err = from_cch_str("1 @x (1) -> <2> =r1 rn\nbogus line here\n").unwrap_err();
    match err {
        GraphError::Parse { line, .. } => assert_eq!(line, 2),
        other => panic!("expected parse error, got {other:?}"),
    }
    let err = from_cch_str("1 @x (1) -> <2> =r1 rn\n2 @x no arrow\n").unwrap_err();
    match err {
        GraphError::Parse { line, .. } => assert_eq!(line, 2),
        other => panic!("expected parse error, got {other:?}"),
    }
}

#[test]
fn edge_list_tolerates_crlf_and_mixed_whitespace() {
    let g = from_edge_list_str("a\tb\r\n  b   c \r\n\r\n# done\r\n").unwrap();
    assert_eq!(g.num_nodes(), 3);
    assert_eq!(g.num_links(), 2);
}

#[test]
fn edge_list_dedupes_across_directions_and_drops_loops() {
    let g = from_edge_list_str("a b\nb a\na b\nc c\nc a\n").unwrap();
    assert_eq!(g.num_nodes(), 3);
    assert_eq!(g.num_links(), 2, "a-b once, c-a once, c-c never");
}

#[test]
fn edge_list_reports_the_failing_line() {
    let err = from_edge_list_str("a b\n\nlonely\n").unwrap_err();
    match err {
        GraphError::Parse { line, .. } => assert_eq!(line, 3),
        other => panic!("expected parse error, got {other:?}"),
    }
}
