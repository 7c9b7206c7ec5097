//! Fixture-corpus tests: one known-bad file per rule with exact
//! diagnostic spans, waiver cases, and false-positive (lookalike) cases.
//!
//! Fixtures live under `tests/fixtures/` — a directory the default
//! workspace walk skips, so the deliberately-bad code never trips the
//! real gate. Each fixture is linted under a *virtual* workspace path,
//! which is what decides file kind and allowlists.

use sim_lint::{lint_manifest, lint_source, Config, Diagnostic};

const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const AMBIENT_RNG: &str = include_str!("fixtures/ambient_rng.rs");
const NONDET_ITER: &str = include_str!("fixtures/nondet_iter.rs");
const RAW_PRINT: &str = include_str!("fixtures/raw_print.rs");
const STRAY_SPAWN: &str = include_str!("fixtures/stray_spawn.rs");
const NET_USE: &str = include_str!("fixtures/net_use.rs");
const WAIVERS: &str = include_str!("fixtures/waivers.rs");
const LOOKALIKE: &str = include_str!("fixtures/lookalike.rs");
const REGISTRY_BAD: &str = include_str!("fixtures/registry_bad.toml");
const REGISTRY_OK: &str = include_str!("fixtures/registry_ok.toml");
const SEEDED: &str = include_str!("fixtures/seeded/src/bad.rs");

fn spans(diags: &[Diagnostic]) -> Vec<(u32, u32, &str)> {
    diags.iter().map(|d| (d.line, d.col, d.rule)).collect()
}

fn lint_lib(src: &str) -> sim_lint::LintResult {
    lint_source("crates/demo/src/lib.rs", src, &Config::workspace_default())
}

#[test]
fn wall_clock_fixture_spans() {
    let r = lint_lib(WALL_CLOCK);
    assert_eq!(
        spans(&r.diags),
        vec![
            (1, 5, "wall-clock"),
            (4, 17, "wall-clock"),
            (5, 13, "wall-clock"),
        ],
        "{:?}",
        r.diags
    );
    assert_eq!(r.waived, 0);
}

#[test]
fn wall_clock_allowlisted_paths_are_clean() {
    for path in ["crates/sim-rt/src/bench.rs", "crates/sim-obs/src/clock.rs"] {
        let r = lint_source(path, WALL_CLOCK, &Config::workspace_default());
        assert!(r.diags.is_empty(), "{path}: {:?}", r.diags);
    }
}

#[test]
fn ambient_rng_fixture_spans() {
    let r = lint_lib(AMBIENT_RNG);
    assert_eq!(
        spans(&r.diags),
        vec![
            (1, 5, "ambient-rng"),
            (4, 18, "ambient-rng"),
            (5, 13, "ambient-rng"),
        ],
        "{:?}",
        r.diags
    );
}

#[test]
fn ambient_rng_allowed_in_rng_module() {
    let r = lint_source(
        "crates/sim-rt/src/rng.rs",
        AMBIENT_RNG,
        &Config::workspace_default(),
    );
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn nondet_iter_fixture_spans() {
    let r = lint_lib(NONDET_ITER);
    assert_eq!(
        spans(&r.diags),
        vec![
            (5, 16, "nondet-iter"),
            (5, 36, "nondet-iter"),
            (7, 12, "nondet-iter"),
            (7, 27, "nondet-iter"),
        ],
        "{:?}",
        r.diags
    );
}

#[test]
fn nondet_iter_only_applies_to_library_code() {
    let r = lint_source(
        "tests/fixture.rs",
        NONDET_ITER,
        &Config::workspace_default(),
    );
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn raw_print_fixture_spans() {
    let r = lint_lib(RAW_PRINT);
    assert_eq!(
        spans(&r.diags),
        vec![
            (2, 5, "raw-print"),
            (3, 5, "raw-print"),
            (4, 5, "raw-print")
        ],
        "{:?}",
        r.diags
    );
}

#[test]
fn raw_print_fine_in_tests_examples_and_bench_crate() {
    for path in [
        "tests/demo.rs",
        "examples/demo.rs",
        "crates/bench/src/report.rs",
    ] {
        let r = lint_source(path, RAW_PRINT, &Config::workspace_default());
        assert!(r.diags.is_empty(), "{path}: {:?}", r.diags);
    }
}

#[test]
fn stray_spawn_fixture_spans() {
    let r = lint_lib(STRAY_SPAWN);
    assert_eq!(
        spans(&r.diags),
        vec![(2, 13, "stray-spawn"), (3, 14, "stray-spawn")],
        "{:?}",
        r.diags
    );
}

#[test]
fn stray_spawn_allowed_in_the_pool() {
    let r = lint_source(
        "crates/sim-rt/src/pool.rs",
        STRAY_SPAWN,
        &Config::workspace_default(),
    );
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn net_use_fixture_spans() {
    let r = lint_lib(NET_USE);
    assert_eq!(
        spans(&r.diags),
        vec![(1, 5, "net-use"), (4, 13, "net-use"), (5, 14, "net-use")],
        "{:?}",
        r.diags
    );
    // The UdpSocket line carries an inline waiver.
    assert_eq!(r.waived, 1);
}

#[test]
fn net_use_fires_in_test_code_too() {
    // Unlike raw-print, sockets are banned everywhere outside sim-serve:
    // a test opening a port is as nondeterministic as a library doing it.
    let r = lint_source("tests/demo.rs", NET_USE, &Config::workspace_default());
    assert_eq!(r.diags.len(), 3, "{:?}", r.diags);
    assert!(r.diags.iter().all(|d| d.rule == "net-use"));
}

#[test]
fn net_use_allowed_throughout_sim_serve() {
    for path in [
        "crates/sim-serve/src/server.rs",
        "crates/sim-serve/src/bin/serve.rs",
        "crates/sim-serve/tests/serve.rs",
    ] {
        let r = lint_source(path, NET_USE, &Config::workspace_default());
        assert!(r.diags.is_empty(), "{path}: {:?}", r.diags);
    }
}

#[test]
fn net_lookalikes_do_not_fire() {
    // A local `net` module or a `std::net`-like suffix in another crate
    // must not trip the rule.
    let src = "mod net { pub struct TcpListener; }\n\
               fn f() { let _l = net::TcpListener; my::std::net::thing(); }\n";
    let r = lint_lib(src);
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn waivers_suppress_and_typos_are_flagged() {
    let r = lint_lib(WAIVERS);
    // The println! and the Instant::now() are waived; the misspelled
    // `raw-pront` waiver is itself a diagnostic.
    assert_eq!(spans(&r.diags), vec![(6, 8, "bad-waiver")], "{:?}", r.diags);
    assert_eq!(r.waived, 2);
    assert!(r.diags[0].message.contains("raw-pront"));
}

#[test]
fn lookalikes_in_strings_and_comments_never_fire() {
    let r = lint_lib(LOOKALIKE);
    assert!(r.diags.is_empty(), "{:?}", r.diags);
    assert_eq!(r.waived, 0);
}

#[test]
fn registry_bad_manifest_spans() {
    let r = lint_manifest(
        "crates/fixture/Cargo.toml",
        REGISTRY_BAD,
        Some("2021"),
        false,
    );
    assert_eq!(
        spans(&r.diags),
        vec![
            (3, 1, "registry-dep"),
            (6, 1, "registry-dep"),
            (7, 1, "registry-dep"),
            (10, 1, "registry-dep"),
        ],
        "{:?}",
        r.diags
    );
    assert_eq!(r.waived, 1, "the commented-out waiver covers waived-dep");
    let diff = &r.diags[0].message;
    assert!(diff.contains("- edition = \"2018\""), "{diff}");
    assert!(diff.contains("+ edition = \"2021\""), "{diff}");
}

#[test]
fn registry_ok_manifest_is_clean() {
    let r = lint_manifest(
        "crates/fixture/Cargo.toml",
        REGISTRY_OK,
        Some("2021"),
        false,
    );
    assert!(r.diags.is_empty(), "{:?}", r.diags);
    assert_eq!(r.waived, 0);
}

#[test]
fn seeded_fixture_fails_as_library_code() {
    // ci.sh points the binary at fixtures/seeded and expects exit 1;
    // this pins the library-level behavior behind that self-test.
    let r = lint_source(
        "crates/sim-lint/tests/fixtures/seeded/src/bad.rs",
        SEEDED,
        &Config::workspace_default(),
    );
    let rules: Vec<&str> = r.diags.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"wall-clock"), "{:?}", r.diags);
    assert!(rules.contains(&"raw-print"), "{:?}", r.diags);
}

#[test]
fn sim_defend_sources_pass_every_rule() {
    // The defense-layer crate sits on the hot sensing path and must obey
    // the full workspace discipline: seeded randomness only, BTreeMap
    // iteration, no raw printing, no stray threads, no wall clock. Lint
    // the real sources under their real paths, and the manifest too.
    let cfg = Config::workspace_default();
    for (path, src) in [
        (
            "crates/sim-defend/src/lib.rs",
            include_str!("../../sim-defend/src/lib.rs"),
        ),
        (
            "crates/sim-defend/src/layers.rs",
            include_str!("../../sim-defend/src/layers.rs"),
        ),
    ] {
        let r = lint_source(path, src, &cfg);
        assert!(r.diags.is_empty(), "{path}: {:?}", r.diags);
        assert_eq!(r.waived, 0, "{path} needs no waivers");
    }
    let r = lint_manifest(
        "crates/sim-defend/Cargo.toml",
        include_str!("../../sim-defend/Cargo.toml"),
        Some("2021"),
        false,
    );
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn sim_store_sources_pass_every_rule() {
    // The content-addressed store is a panic-path zone (a lookup rides
    // inside every farm request) and persists results to disk: no
    // unwrap/expect/indexing outside tests, ordered iteration only, no
    // wall clock, no printing, no stray threads. Lint the real sources
    // under their real paths, waiver-free, and the manifest too.
    let cfg = Config::workspace_default();
    for (path, src) in [
        (
            "crates/sim-store/src/lib.rs",
            include_str!("../../sim-store/src/lib.rs"),
        ),
        (
            "crates/sim-store/src/digest.rs",
            include_str!("../../sim-store/src/digest.rs"),
        ),
        (
            "crates/sim-store/src/hot.rs",
            include_str!("../../sim-store/src/hot.rs"),
        ),
        (
            "crates/sim-store/src/segment.rs",
            include_str!("../../sim-store/src/segment.rs"),
        ),
    ] {
        let r = lint_source(path, src, &cfg);
        assert!(r.diags.is_empty(), "{path}: {:?}", r.diags);
        assert_eq!(r.waived, 0, "{path} needs no waivers");
    }
    let r = lint_manifest(
        "crates/sim-store/Cargo.toml",
        include_str!("../../sim-store/Cargo.toml"),
        Some("2021"),
        false,
    );
    assert!(r.diags.is_empty(), "{:?}", r.diags);
}

#[test]
fn trace_and_flight_sources_pass_every_rule() {
    // The tracing and flight-recorder modules run inside every service
    // and worker thread: wall-clock reads must go through obs::clock,
    // iteration must be ordered, and nothing may print or spawn. Lint
    // the real sources under their real paths, waiver-free.
    let cfg = Config::workspace_default();
    for (path, src) in [
        (
            "crates/sim-obs/src/trace.rs",
            include_str!("../../sim-obs/src/trace.rs"),
        ),
        (
            "crates/sim-obs/src/flight.rs",
            include_str!("../../sim-obs/src/flight.rs"),
        ),
    ] {
        let r = lint_source(path, src, &cfg);
        assert!(r.diags.is_empty(), "{path}: {:?}", r.diags);
        assert_eq!(r.waived, 0, "{path} needs no waivers");
    }
}
