//! Process-wide cache of substrates and their distance matrices.
//!
//! The dominant redundant cost in multi-cell experiment runs is the
//! all-pairs shortest-path build: a figure sweep evaluates three
//! algorithms × several seeds on the *same* `(topology, seed)` substrate,
//! and consecutive figures (e.g. Figs 3–5) reuse identical substrates with
//! different workloads. Before this cache every cell rebuilt graph and
//! matrix from scratch; now the first builder per key pays and everyone
//! else shares the [`Arc`].
//!
//! Keys are `(canonical topology spec string, seed)` — see
//! [`TopologySpec`](crate::spec::TopologySpec), whose `Display` impl
//! produces the canonical string. Because every generator is deterministic
//! under its seed, a cached entry is bit-identical to a fresh build, so
//! cache hits can never change experiment output (the golden CSV tests pin
//! this).
//!
//! The cache is bounded: entries are evicted least-recently-used once the
//! matrices exceed [`DistCache::DEFAULT_CAPACITY_BYTES`] (override with the
//! `FLEXSERVE_CACHE_BYTES` environment variable; `0` disables caching).
//! The LRU machinery is the crate's `ByteLru`, shared with
//! [`TraceCache`](crate::TraceCache); this module only defines the key and
//! builds the matrix beside the graph.

use std::sync::{Arc, OnceLock};

use flexserve_graph::{DistanceMatrix, Graph};

pub use crate::lru::CacheStats;
use crate::lru::{capacity_from_env, ByteLru};
use crate::setup::ExperimentEnv;

/// An LRU cache of `(topology spec, seed) → (graph, distance matrix)`.
///
/// Thread-safe: concurrent lookups of the same missing key may both build
/// (builds happen outside the lock so they don't serialize unrelated
/// cells), but only the first result is inserted and later callers adopt
/// it, so all callers observe identical `Arc`s afterwards. A process-wide
/// instance is available via [`DistCache::global`].
///
/// ```
/// use flexserve_experiments::{DistCache, TopologySpec};
///
/// let cache = DistCache::with_capacity_bytes(DistCache::DEFAULT_CAPACITY_BYTES);
/// let spec: TopologySpec = "unit-line:6".parse().unwrap();
///
/// let first = cache
///     .get_or_build(&spec.to_string(), 0, || spec.build(0))
///     .unwrap();
/// // The second lookup is a hit: same Arc, no rebuild.
/// let again = cache
///     .get_or_build(&spec.to_string(), 0, || panic!("must not rebuild"))
///     .unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first.graph, &again.graph));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
pub struct DistCache {
    lru: ByteLru<(String, u64), ExperimentEnv>,
}

impl DistCache {
    /// Default byte budget for cached matrices (256 MiB — a 1000-node
    /// matrix is 8 MB, so even full-profile sweeps fit comfortably).
    pub const DEFAULT_CAPACITY_BYTES: usize = 256 * 1024 * 1024;

    /// Creates an empty cache with the given byte budget for matrices.
    /// A budget of `0` disables caching (every lookup is a miss and
    /// nothing is retained).
    pub fn with_capacity_bytes(capacity_bytes: usize) -> Self {
        DistCache {
            lru: ByteLru::with_capacity_bytes(capacity_bytes),
        }
    }

    /// The process-wide cache used by
    /// [`ExperimentEnv`]. Budget comes from
    /// `FLEXSERVE_CACHE_BYTES` when set, else
    /// [`Self::DEFAULT_CAPACITY_BYTES`].
    pub fn global() -> &'static DistCache {
        static GLOBAL: OnceLock<DistCache> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            DistCache::with_capacity_bytes(capacity_from_env(
                "FLEXSERVE_CACHE_BYTES",
                Self::DEFAULT_CAPACITY_BYTES,
            ))
        })
    }

    /// Returns the cached substrate for `(topology, seed)`, building it
    /// with `build` on a miss. `build` returns the graph only; the matrix
    /// is computed here so every entry pairs a graph with *its own* APSP.
    /// A failed build inserts nothing (the error propagates unchanged).
    pub fn get_or_build(
        &self,
        topology: &str,
        seed: u64,
        build: impl FnOnce() -> Result<Graph, String>,
    ) -> Result<ExperimentEnv, String> {
        self.lru
            .get_or_try_insert_with((topology.to_string(), seed), || {
                let graph = build()?;
                let matrix = DistanceMatrix::build(&graph);
                let n = matrix.node_count();
                let env = ExperimentEnv {
                    graph: Arc::new(graph),
                    matrix: Arc::new(matrix),
                };
                Ok((env, n * n * std::mem::size_of::<f64>()))
            })
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache currently retains nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Drops all entries and resets the counters (between unrelated CLI
    /// runs, so manifests report per-run stats).
    pub fn clear(&self) {
        self.lru.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;

    fn build_line(n: usize) -> Graph {
        unit_line(n).unwrap()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let a = cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        let b = cache
            .get_or_build("unit-line:5", 1, || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(cache.stats().hits, 1);
        assert!(Arc::ptr_eq(&a.matrix, &b.matrix), "hits share the Arc");
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cross_seed_isolation() {
        // Same topology string, different seeds → distinct entries; the
        // seed part of the key must never alias.
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let a = cache
            .get_or_build("unit-line:4", 1, || Ok(build_line(4)))
            .unwrap();
        let b = cache
            .get_or_build("unit-line:4", 2, || Ok(build_line(4)))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a.matrix, &b.matrix));
        // and different topology strings with the same seed likewise
        let c = cache
            .get_or_build("unit-line:5", 1, || Ok(build_line(5)))
            .unwrap();
        assert_eq!(cache.stats().misses, 3);
        assert_ne!(c.matrix.node_count(), a.matrix.node_count());
    }

    #[test]
    fn cached_entry_is_bit_identical_to_fresh_build() {
        let cache = DistCache::with_capacity_bytes(1 << 20);
        let cached = cache
            .get_or_build("unit-line:9", 3, || Ok(build_line(9)))
            .unwrap();
        let fresh = DistanceMatrix::build(&build_line(9));
        for u in cached.graph.nodes() {
            for v in cached.graph.nodes() {
                assert_eq!(cached.matrix.get(u, v).to_bits(), fresh.get(u, v).to_bits());
            }
        }
    }

    #[test]
    fn an_entry_built_while_other_lookups_ran_is_the_most_recent() {
        // The budget holds one 6-node matrix. While seed 1 is being built,
        // a lookup of seed 2 completes; seed 1 is handed out last, so it
        // must be the survivor and seed 2 the victim.
        let cache = DistCache::with_capacity_bytes(6 * 6 * std::mem::size_of::<f64>());
        cache
            .get_or_build("unit-line:6", 1, || {
                cache
                    .get_or_build("unit-line:6", 2, || Ok(build_line(6)))
                    .unwrap();
                Ok(build_line(6))
            })
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().evictions, 1);
        cache
            .get_or_build("unit-line:6", 1, || Ok(build_line(6)))
            .unwrap();
        assert_eq!(
            cache.stats().misses,
            2,
            "the entry just returned was evicted in favour of an older one"
        );
    }
}
