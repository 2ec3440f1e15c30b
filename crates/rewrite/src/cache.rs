//! The plan cache: rewrite-as-a-service for repeated query shapes.
//!
//! Production traffic repeats a small number of expression shapes, yet
//! every `Optimizer::rewrite` call pays the full encode → chase → extract
//! → rank pass. The cache keys extracted [`RankedPlans`](crate::RankedPlans)
//! by **canonical skeleton × each leaf's [`MatrixMeta`] × configuration**
//! (see `hadad_core::fingerprint`): a repeat with the same shapes — even
//! under different base-matrix names, when no views bind concrete names —
//! is served straight from the cache, re-skinned and re-priced, for the
//! cost of a hash probe instead of a chase.
//!
//! A hit shares the entry it reads: the entry's plans (`Arc<[Plan]>`) and
//! the cold pass's report, whose chase statistics are an `Arc` too, are
//! handed out by refcount, and the probe's leaf names are compared with
//! the entry's under the shard lock. A same-name hit copies no plan, name
//! or rule counter; only a cross-name hit builds plans of its own.
//!
//! A plan is a function of its key. The key holds everything the cold pass
//! reads — the skeleton, the full metadata of each leaf (shape, exact nnz,
//! type flags), the optimizer's configuration and, with LA views
//! registered, the metadata of each view and of each leaf of its
//! definition — so an entry never goes stale: a catalog update that
//! changes what a plan read changes the key, and one that does not leaves
//! the plan valid. This is how Berkholz–Keppeler–Schweikardt keep answers
//! valid under updates, by maintaining exactly what an answer depends on;
//! nothing is stamped, refused or invalidated, and entries whose keys no
//! probe repeats age out through the LRU.
//!
//! Concurrency: the map is sharded by key hash, each shard behind its own
//! mutex, so reader threads rewriting against catalog snapshots contend
//! only when they collide on a shard. Counters are lock-free
//! [`hadad_obs::Counter`]s, surfaced on `RewriteReport` as [`CacheReport`]
//! and mirrored into the process-wide registry (`cache.hits`,
//! `cache.misses`, `cache.evictions`).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hadad_obs::{Counter, LazyCounter};

use hadad_core::fingerprint::{structural_hash, CanonicalExpr};
use hadad_core::{Expr, MatrixMeta};

use crate::optimizer::{Plan, RewriteReport};

/// Plan-cache counters for one `rewrite` call, surfaced on
/// `RewriteReport`. Cumulative counts cover the whole cache (shared by
/// every optimizer clone holding it), so they monotonically increase
/// across calls and threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Whether *this* call was served from the cache.
    pub hit: bool,
    /// Cumulative cache hits.
    pub hits: u64,
    /// Cumulative cache misses.
    pub misses: u64,
    /// Cumulative capacity-pressure LRU evictions.
    pub evictions: u64,
}

/// Probe key: the canonical skeleton of the input expression, its leaf
/// names in first-occurrence order, each leaf's [`MatrixMeta`], an opaque
/// configuration hash (budget/deadline/views/rules) and, when views are
/// registered, what the call's catalog holds for each view and each leaf
/// of its definition.
#[derive(Debug, Clone)]
pub struct PlanCacheKey {
    /// Precomputed shard/bucket hash over every other field (the names
    /// only when views are registered).
    hash: u64,
    /// Canonical skeleton (leaves abstracted to occurrence indices).
    skeleton: Expr,
    /// Concrete leaf names, in first-occurrence order.
    pub(crate) names: Vec<Arc<str>>,
    /// Each leaf's metadata in the call's catalog, aligned with `names`.
    leaves: Vec<MatrixMeta>,
    /// Per registered view in order: the call's catalog entry for its
    /// name, then for each leaf of its definition. The view rules and the
    /// view leaves extraction prices read these; the query's leaves do
    /// not cover them. Empty without views; with views, plans may embed
    /// leaves tied to concrete names, so cross-name sharing is unsound and
    /// entries additionally require exact `names` equality.
    views: Vec<Option<MatrixMeta>>,
    /// Opaque optimizer-configuration hash: entries only match probes
    /// from an identically configured optimizer.
    ctx: u64,
}

impl PlanCacheKey {
    /// Builds a key from an already-canonicalized expression, its leaves'
    /// metadata, the views' entries and the probing optimizer's
    /// configuration.
    pub(crate) fn new(
        canon: CanonicalExpr,
        leaves: Vec<MatrixMeta>,
        views: Vec<Option<MatrixMeta>>,
        ctx: u64,
    ) -> Self {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        structural_hash(&canon.skeleton, &leaves).hash(&mut h);
        views.hash(&mut h);
        ctx.hash(&mut h);
        if !views.is_empty() {
            canon.leaves.hash(&mut h);
        }
        PlanCacheKey {
            hash: h.finish(),
            skeleton: canon.skeleton,
            names: canon.leaves,
            leaves,
            views,
            ctx,
        }
    }
}

/// A served cache entry: what a hit reads, shared with the entry.
#[derive(Debug)]
pub(crate) struct CachedPlans {
    /// The plans, still under the entry's own leaf names.
    pub plans: Arc<[Plan]>,
    /// The report of the cold pass that produced `plans`.
    pub report: RewriteReport,
    /// `None` when the probe's leaf names are the entry's; otherwise the
    /// entry's names (first-occurrence order), for re-skinning `plans`.
    pub names: Option<Arc<[Arc<str>]>>,
}

struct Entry {
    skeleton: Expr,
    names: Arc<[Arc<str>]>,
    leaves: Vec<MatrixMeta>,
    views: Vec<Option<MatrixMeta>>,
    ctx: u64,
    plans: Arc<[Plan]>,
    report: RewriteReport,
    last_used: u64,
}

impl Entry {
    fn matches(&self, key: &PlanCacheKey) -> bool {
        self.ctx == key.ctx
            && self.leaves == key.leaves
            && self.views == key.views
            && self.skeleton == key.skeleton
            && (self.views.is_empty() || *self.names == *key.names)
    }
}

/// Shard count; probes hash-route to a shard so concurrent readers only
/// contend on collisions.
const NUM_SHARDS: usize = 8;

/// Sharded map from canonical plan fingerprints to
/// extracted [`RankedPlans`](crate::RankedPlans).
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
    per_shard: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    tick: AtomicU64,
}

/// Process-wide mirrors of every cache instance's counters (a process may
/// hold several caches; per-instance exactness lives in [`CacheReport`]).
static M_HITS: LazyCounter = LazyCounter::new("cache.hits");
static M_MISSES: LazyCounter = LazyCounter::new("cache.misses");
static M_EVICTIONS: LazyCounter = LazyCounter::new("cache.evictions");

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &(self.per_shard * NUM_SHARDS))
            .field("len", &self.len())
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .field("evictions", &self.evictions.get())
            .finish()
    }
}

impl PlanCache {
    /// Cache holding at most `capacity` entries (rounded up to a multiple
    /// of the shard count; at least one entry per shard).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard: capacity.div_ceil(NUM_SHARDS).max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            tick: AtomicU64::new(0),
        }
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot, with `hit` recording this call's outcome. The
    /// public fields are reads off the same lock-free counters the shared
    /// metrics registry mirrors.
    pub(crate) fn report(&self, hit: bool) -> CacheReport {
        CacheReport {
            hit,
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    fn shard(&self, key: &PlanCacheKey) -> &Mutex<HashMap<u64, Entry>> {
        &self.shards[(key.hash as usize) % NUM_SHARDS]
    }

    /// Probes for `key`: `Some` on a matching entry, sharing its plans and
    /// report.
    pub(crate) fn lookup(&self, key: &PlanCacheKey) -> Option<CachedPlans> {
        let mut shard = lock(self.shard(key));
        match shard.get_mut(&key.hash) {
            Some(entry) if entry.matches(key) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.incr();
                M_HITS.incr();
                Some(CachedPlans {
                    plans: Arc::clone(&entry.plans),
                    report: entry.report.clone(),
                    names: (*entry.names != *key.names).then(|| Arc::clone(&entry.names)),
                })
            }
            _ => {
                self.misses.incr();
                M_MISSES.incr();
                None
            }
        }
    }

    /// Stores `plans` and the `report` of the cold pass that produced them
    /// under `key`, replacing an entry on bucket collision. Full shards
    /// evict their least-recently-used entry first.
    pub(crate) fn insert(&self, key: PlanCacheKey, plans: Arc<[Plan]>, report: RewriteReport) {
        let mut shard = lock(self.shard(&key));
        if !shard.contains_key(&key.hash) && shard.len() >= self.per_shard {
            if let Some(&lru) = shard.iter().min_by_key(|(_, e)| e.last_used).map(|(h, _)| h) {
                shard.remove(&lru);
                self.evictions.incr();
                M_EVICTIONS.incr();
            }
        }
        shard.insert(
            key.hash,
            Entry {
                skeleton: key.skeleton,
                names: key.names.into(),
                leaves: key.leaves,
                views: key.views,
                ctx: key.ctx,
                plans,
                report,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
    }
}

/// Locks a shard, continuing through poison: entries are always internally
/// consistent (each insert/remove completes under the lock before any
/// panic can propagate), so a poisoned shard is still a valid map.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
