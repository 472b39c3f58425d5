//! Compiled-plan cache keyed by canonical plan shape.
//!
//! A service loop sees the same handful of plan *shapes* over and over with
//! fresh bindings; [`compile`] is pure in the plan and the fusion-relevant
//! configuration, so compiling a shape twice is wasted work. [`PlanCache`]
//! memoizes [`CompiledPlan`]s under a canonical shape key:
//!
//! * the key covers everything `compile` reads — every node (operator
//!   parameters, predicates, input edges), every schema, the marked
//!   outputs, and the fusion-relevant [`WeaverConfig`] fields (`fusion`,
//!   `opt`, `budget`, `input_dependence`, `threads_per_cta`);
//! * the key deliberately excludes bindings (the relations bound at
//!   execution time) and the execution `mode` and `chunks`, none of which
//!   [`compile`] looks at — so the same compiled artifact serves resident,
//!   staged and chunked replays of the shape alike;
//! * the key is the canonical *encoding itself*, not a digest of it, so
//!   two different shapes can never collide; a 64-bit FNV-1a
//!   [`shape_fingerprint`] of the key is provided for compact display.
//!
//! Eviction is least-recently-used over a fixed entry capacity. A capacity
//! of zero disables the cache entirely (every lookup misses and nothing is
//! stored) — the cache-off baseline the service benchmark compares against.

use std::collections::BTreeMap;

use crate::{compile, CompiledPlan, QueryPlan, Result, WeaverConfig};

/// Canonical shape key of `plan` under `config`: a deterministic encoding
/// of the plan structure plus the fusion-relevant configuration fields.
///
/// Two plans receive the same key iff their node lists, schemas and marked
/// outputs are identical and they compile under the same fusion settings.
/// Binding contents, [`WeaverConfig::mode`] and [`WeaverConfig::chunks`]
/// never enter the key.
pub fn plan_shape_key(plan: &QueryPlan, config: &WeaverConfig) -> String {
    // The derived Debug encoding of the plan is injective over its nodes,
    // schemas and outputs (distinct values render distinct strings), which
    // makes the key collision-free by construction.
    format!(
        "{plan:?}|fusion={},opt={:?},budget={:?},input_dep={},tpc={}",
        config.fusion, config.opt, config.budget, config.input_dependence, config.threads_per_cta
    )
}

/// A compact 64-bit FNV-1a fingerprint of a shape key, for reports and
/// logs. Unlike the key itself this can collide; it is display-only.
pub fn shape_fingerprint(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hit/miss/eviction counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted to make room (LRU order).
    pub evictions: u64,
}

struct Entry {
    compiled: CompiledPlan,
    last_used: u64,
}

/// An LRU cache of [`CompiledPlan`]s keyed by [`plan_shape_key`].
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<String, Entry>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` compiled shapes. Zero disables
    /// caching: every lookup misses and nothing is retained.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            stats: PlanCacheStats::default(),
        }
    }

    /// The cache-off baseline: equivalent to `PlanCache::new(0)`.
    pub fn disabled() -> PlanCache {
        PlanCache::new(0)
    }

    /// Whether this cache can retain anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum retained shapes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Look up `plan` under `config`, compiling on a miss. Returns the
    /// compiled plan and whether the lookup hit (`true`) or compiled
    /// (`false`).
    ///
    /// # Errors
    ///
    /// Propagates [`compile`] errors; failed compilations are not cached.
    pub fn get_or_compile(
        &mut self,
        plan: &QueryPlan,
        config: &WeaverConfig,
    ) -> Result<(CompiledPlan, bool)> {
        let key = plan_shape_key(plan, config);
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
            self.stats.hits += 1;
            return Ok((entry.compiled.clone(), true));
        }
        self.stats.misses += 1;
        let compiled = compile(plan, config)?;
        if self.capacity > 0 {
            while self.entries.len() >= self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match lru {
                    Some(k) => {
                        self.entries.remove(&k);
                        self.stats.evictions += 1;
                    }
                    None => break,
                }
            }
            self.entries.insert(
                key,
                Entry {
                    compiled: compiled.clone(),
                    last_used: self.tick,
                },
            );
        }
        Ok((compiled, false))
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.entries.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kw_primitives::RaOp;
    use kw_relational::{CmpOp, Predicate, Schema, Value};

    fn chain(depth: usize, threshold: u32) -> QueryPlan {
        let mut p = QueryPlan::new();
        let mut cur = p.add_input("t", Schema::uniform_u32(4));
        for a in 0..depth {
            cur = p
                .add_op(
                    RaOp::Select {
                        pred: Predicate::cmp(a % 4, CmpOp::Lt, Value::U32(threshold)),
                    },
                    &[cur],
                )
                .unwrap();
        }
        p.mark_output(cur);
        p
    }

    #[test]
    fn repeat_shapes_hit_and_return_equal_steps() {
        let plan = chain(3, 100);
        let cfg = WeaverConfig::default();
        let mut cache = PlanCache::new(4);
        let (first, hit0) = cache.get_or_compile(&plan, &cfg).unwrap();
        let (second, hit1) = cache.get_or_compile(&plan, &cfg).unwrap();
        assert!(!hit0);
        assert!(hit1);
        assert_eq!(first.steps.len(), second.steps.len());
        assert_eq!(first.fusion_sets, second.fusion_sets);
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn distinct_shapes_and_configs_get_distinct_keys() {
        let cfg = WeaverConfig::default();
        let a = chain(2, 100);
        let b = chain(3, 100);
        let c = chain(2, 101);
        assert_ne!(plan_shape_key(&a, &cfg), plan_shape_key(&b, &cfg));
        assert_ne!(plan_shape_key(&a, &cfg), plan_shape_key(&c, &cfg));
        assert_ne!(
            plan_shape_key(&a, &cfg),
            plan_shape_key(&a, &cfg.baseline()),
            "fusion on/off must not share compiled plans"
        );
        // Mode and chunk count are execution-only: staged, chunked and
        // resident runs share the artifact.
        let staged_chunked = WeaverConfig {
            mode: crate::ExecMode::Staged,
            chunks: Some(4),
            ..cfg
        };
        assert_eq!(
            plan_shape_key(&a, &cfg),
            plan_shape_key(&a, &staged_chunked)
        );
    }

    #[test]
    fn lru_evicts_oldest_shape_first() {
        let cfg = WeaverConfig::default();
        let shapes: Vec<QueryPlan> = (1..=3).map(|d| chain(d, 100)).collect();
        let mut cache = PlanCache::new(2);
        cache.get_or_compile(&shapes[0], &cfg).unwrap();
        cache.get_or_compile(&shapes[1], &cfg).unwrap();
        // Touch shape 0 so shape 1 is the LRU victim.
        cache.get_or_compile(&shapes[0], &cfg).unwrap();
        cache.get_or_compile(&shapes[2], &cfg).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit) = cache.get_or_compile(&shapes[0], &cfg).unwrap();
        assert!(hit, "recently used shape must survive eviction");
        let (_, hit) = cache.get_or_compile(&shapes[1], &cfg).unwrap();
        assert!(!hit, "LRU shape must have been evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cfg = WeaverConfig::default();
        let plan = chain(2, 100);
        let mut cache = PlanCache::disabled();
        assert!(!cache.is_enabled());
        for _ in 0..3 {
            let (_, hit) = cache.get_or_compile(&plan, &cfg).unwrap();
            assert!(!hit);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().evictions, 0);
    }
}
