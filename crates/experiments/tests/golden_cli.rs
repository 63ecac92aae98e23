//! Golden tests pinning the `flexserve` CLI surface.
//!
//! * `fig03` through the registry must reproduce the CSV the retired
//!   per-figure binary produced, byte for byte — the distance-matrix cache
//!   and the registry dispatch may never change experiment output. Since
//!   the strategies moved to the one-pass transposed candidate scan
//!   (`WindowIndex` in `flexserve-core`), this golden also pins that scan
//!   end to end: any non-bit-identical scoring change shifts placements
//!   and shows up here as a CSV diff.
//! * `flexserve list` output must stay stable (the docs and CI smoke job
//!   reference its names).
//!
//! The figure run and the cache assertion share one test: they both
//! mutate process environment variables and write the same artifact, and
//! Rust runs a binary's tests on concurrent threads.

use flexserve_experiments::figures::Profile;
use flexserve_experiments::registry;

/// The quick-profile fig03 CSV captured from the pre-registry
/// `fig03_cost_vs_n_dynamic` binary before it was deleted.
const FIG03_QUICK_GOLDEN: &str = include_str!("golden/fig03_quick.csv");

/// `flexserve list` output.
const LIST_GOLDEN: &str = include_str!("golden/list.txt");

#[test]
fn fig03_is_byte_identical_to_the_retired_binary_and_hits_the_cache() {
    // Route artifacts to a scratch dir so the test never touches the
    // real results/ tree. The only other test in this binary reads no
    // environment variables.
    let dir = std::env::temp_dir().join("flexserve-golden-fig03");
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("FLEXSERVE_RESULTS_DIR", &dir);

    let entry = registry::figure("fig03").expect("fig03 is registered");
    let table = (entry.run)(Profile::Quick);
    assert_eq!(
        table.to_csv(),
        FIG03_QUICK_GOLDEN,
        "registry fig03 must reproduce the retired binary's CSV byte-for-byte"
    );

    // The file on disk is the same bytes.
    let on_disk = std::fs::read_to_string(dir.join("fig03.csv")).unwrap();
    assert_eq!(on_disk, FIG03_QUICK_GOLDEN);

    // fig03 evaluates 3 algorithms × 2 seeds per size against shared
    // substrates and shared demand traces. Since the grouped runner
    // fetches each (topology, seed) environment and records each demand
    // trace exactly once per seed group, the figure run itself only
    // *fills* the process-wide caches — repeat lookups (the next figure,
    // a sweep, or the probes below) hit. Cached or not, the bytes above
    // stayed golden.
    let dist = flexserve_experiments::DistCache::global().stats();
    assert!(
        dist.misses >= 1,
        "expected the figure run to fill the distance-matrix cache, got {dist:?}"
    );
    let traces = flexserve_experiments::TraceCache::global().stats();
    assert!(
        traces.misses >= 1,
        "expected the figure run to record shared demand traces, got {traces:?}"
    );

    // Probe: re-requesting one of fig03's cells answers from both caches.
    use flexserve_experiments::setup::{record_shared, ExperimentEnv, ScenarioKind};
    let env = ExperimentEnv::erdos_renyi(30, 1000);
    assert!(
        flexserve_experiments::DistCache::global().stats().hits > dist.hits,
        "re-fetching a fig03 substrate must hit the distance-matrix cache"
    );
    let t = flexserve_experiments::setup::paper_t_for(30);
    let rounds = Profile::Quick.rounds(500);
    record_shared(
        ScenarioKind::CommuterDynamic,
        &env,
        t,
        10,
        50,
        1000 ^ 0xABCD,
        rounds,
    );
    assert!(
        flexserve_experiments::TraceCache::global().stats().hits > traces.hits,
        "re-recording a fig03 demand trace must hit the trace cache"
    );
}

#[test]
fn list_output_is_stable() {
    assert_eq!(
        registry::list_text(),
        LIST_GOLDEN,
        "`flexserve list` changed; update tests/golden/list.txt and docs/FIGURES.md deliberately"
    );
}
