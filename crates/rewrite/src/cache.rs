//! The plan cache: rewrite-as-a-service for repeated query shapes.
//!
//! Production traffic repeats a small number of expression shapes, yet
//! every `Optimizer::rewrite` call pays the full encode → chase → extract
//! → rank pass. The cache keys extracted [`RankedPlans`](crate::RankedPlans)
//! by **canonical skeleton × per-leaf stats band × catalog epoch** (see
//! `hadad_core::fingerprint`): a repeat with the same shapes — even under
//! different base-matrix names, when no views bind concrete names — is
//! served straight from the cache, re-skinned and re-priced,
//! for the cost of a hash probe instead of a chase.
//!
//! A hit shares the entry it reads: the entry's plans (`Arc<[Plan]>`) and
//! the cold pass's report, whose chase statistics are an `Arc` too, are
//! handed out by refcount, and the probe's leaf names are compared with
//! the entry's under the shard lock. A same-name hit copies no plan, name
//! or rule counter; only a cross-name hit builds plans of its own.
//!
//! Soundness under updates is anchored the way Berkholz–Keppeler–
//! Schweikardt anchor answering under updates: every entry is stamped with
//! the [`Catalog`](hadad_relational::Catalog) epoch it was computed at,
//! and a probe carrying a newer epoch *refuses* the entry (it is evicted
//! on the spot) and the caller takes the cold path — stale work is never
//! trusted. Epochs only move forward, so a probe from an older snapshot
//! misses without evicting the newer entry, and an insert never replaces
//! an entry stamped newer than itself.
//!
//! Concurrency: the map is sharded by key hash, each shard behind its own
//! mutex, so reader threads rewriting against catalog snapshots contend
//! only when they collide on a shard. Counters are lock-free
//! [`hadad_obs::Counter`]s, surfaced on `RewriteReport` as [`CacheReport`]
//! and mirrored into the process-wide registry (`cache.hits`,
//! `cache.misses`, `cache.stale_refusals`, `cache.evictions`).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hadad_obs::{Counter, LazyCounter};

use hadad_core::fingerprint::{structural_hash, CanonicalExpr, StatsBand};
use hadad_core::Expr;

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
    /// Cumulative cache misses (stale-epoch refusals included).
    pub misses: u64,
    /// Cumulative evictions: capacity-pressure LRU removals plus
    /// stale-epoch refusals.
    pub evictions: u64,
    /// Cumulative stale-epoch refusals (the subset of `misses` whose entry
    /// matched but carried an epoch stamp older than the probe's and was
    /// evicted). A probe older than the entry misses without a refusal.
    pub stale_refusals: u64,
}

/// Probe key: the canonical skeleton of the input expression, its leaf
/// names in first-occurrence order, one [`StatsBand`] per leaf, an opaque
/// configuration hash (budget/deadline/views/rules), and the catalog
/// epoch the probing call carries.
#[derive(Debug, Clone)]
pub struct PlanCacheKey {
    /// Precomputed shard/bucket hash over skeleton + bands + ctx.
    hash: u64,
    /// Canonical skeleton (leaves abstracted to occurrence indices).
    skeleton: Expr,
    /// Concrete leaf names, in first-occurrence order.
    pub(crate) names: Vec<String>,
    /// Per-leaf shape/density bands, aligned with `names`.
    bands: Vec<StatsBand>,
    /// Opaque optimizer-configuration hash: entries only match probes
    /// from an identically configured optimizer.
    ctx: u64,
    /// Catalog epoch of the probe; entries stamped otherwise are refused.
    epoch: u64,
    /// When `true` (views are registered), plans may embed
    /// leaves tied to concrete names, so cross-name sharing is unsound and
    /// entries additionally require exact `names` equality.
    names_bound: bool,
}

impl PlanCacheKey {
    /// Builds a key from an already-canonicalized expression, per-leaf
    /// bands, the probing optimizer's configuration and the call's epoch.
    pub(crate) fn new(
        canon: CanonicalExpr,
        bands: Vec<StatsBand>,
        ctx: u64,
        epoch: u64,
        names_bound: bool,
    ) -> Self {
        let mut hash = structural_hash(&canon.skeleton, &bands);
        let mut h = std::collections::hash_map::DefaultHasher::new();
        hash.hash(&mut h);
        ctx.hash(&mut h);
        if names_bound {
            canon.leaves.hash(&mut h);
        }
        hash = h.finish();
        PlanCacheKey {
            hash,
            skeleton: canon.skeleton,
            names: canon.leaves,
            bands,
            ctx,
            epoch,
            names_bound,
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
    pub names: Option<Arc<[String]>>,
}

struct Entry {
    skeleton: Expr,
    names: Arc<[String]>,
    bands: Vec<StatsBand>,
    ctx: u64,
    epoch: u64,
    names_bound: bool,
    plans: Arc<[Plan]>,
    report: RewriteReport,
    last_used: u64,
}

impl Entry {
    fn matches(&self, key: &PlanCacheKey) -> bool {
        self.ctx == key.ctx
            && self.names_bound == key.names_bound
            && self.bands == key.bands
            && self.skeleton == key.skeleton
            && (!self.names_bound || *self.names == *key.names)
    }
}

/// Shard count; probes hash-route to a shard so concurrent readers only
/// contend on collisions.
const NUM_SHARDS: usize = 8;

/// Sharded, epoch-validated map from canonical plan fingerprints to
/// extracted [`RankedPlans`](crate::RankedPlans).
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<u64, Entry>>>,
    per_shard: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    stale_refusals: Counter,
    tick: AtomicU64,
}

/// Process-wide mirrors of every cache instance's counters (a process may
/// hold several caches; per-instance exactness lives in [`CacheReport`]).
static M_HITS: LazyCounter = LazyCounter::new("cache.hits");
static M_MISSES: LazyCounter = LazyCounter::new("cache.misses");
static M_EVICTIONS: LazyCounter = LazyCounter::new("cache.evictions");
static M_STALE: LazyCounter = LazyCounter::new("cache.stale_refusals");

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
            stale_refusals: Counter::new(),
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
            stale_refusals: self.stale_refusals.get(),
        }
    }

    fn shard(&self, key: &PlanCacheKey) -> &Mutex<HashMap<u64, Entry>> {
        &self.shards[(key.hash as usize) % NUM_SHARDS]
    }

    /// Probes for `key`: `Some` on a matching entry at the probe's epoch,
    /// sharing its plans and report. A matching entry at an *older* epoch
    /// is refused and evicted; one at a newer epoch (the probe comes from
    /// an older snapshot) is left in place. Either reads as a miss.
    pub(crate) fn lookup(&self, key: &PlanCacheKey) -> Option<CachedPlans> {
        let mut shard = lock(self.shard(key));
        match shard.get_mut(&key.hash) {
            Some(entry) if entry.matches(key) && entry.epoch == key.epoch => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.incr();
                M_HITS.incr();
                Some(CachedPlans {
                    plans: Arc::clone(&entry.plans),
                    report: entry.report.clone(),
                    names: (*entry.names != *key.names).then(|| Arc::clone(&entry.names)),
                })
            }
            Some(entry) if entry.matches(key) && entry.epoch < key.epoch => {
                shard.remove(&key.hash);
                self.misses.incr();
                self.evictions.incr();
                self.stale_refusals.incr();
                M_MISSES.incr();
                M_EVICTIONS.incr();
                M_STALE.incr();
                None
            }
            _ => {
                self.misses.incr();
                M_MISSES.incr();
                None
            }
        }
    }

    /// Stores `plans` and the `report` of the cold pass that produced them
    /// under `key`, replacing an entry on bucket collision unless that
    /// entry is stamped with a newer epoch than `key`. Full shards evict
    /// their least-recently-used entry first.
    pub(crate) fn insert(&self, key: PlanCacheKey, plans: Arc<[Plan]>, report: RewriteReport) {
        let mut shard = lock(self.shard(&key));
        match shard.get(&key.hash) {
            Some(entry) if entry.epoch > key.epoch => return,
            Some(_) => {}
            None if shard.len() >= self.per_shard => {
                if let Some(&lru) =
                    shard.iter().min_by_key(|(_, e)| e.last_used).map(|(h, _)| h)
                {
                    shard.remove(&lru);
                    self.evictions.incr();
                    M_EVICTIONS.incr();
                }
            }
            None => {}
        }
        shard.insert(
            key.hash,
            Entry {
                skeleton: key.skeleton,
                names: key.names.into(),
                bands: key.bands,
                ctx: key.ctx,
                epoch: key.epoch,
                names_bound: key.names_bound,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Optimizer;
    use hadad_core::expr::dsl::*;
    use hadad_core::fingerprint::{canonicalize, leaf_bands};
    use hadad_core::{MatrixMeta, MetaCatalog};

    /// `trace(A B)`, a cold pass's plans and report for it, and a key
    /// builder at any epoch.
    fn fixture() -> (Arc<[Plan]>, RewriteReport, impl Fn(u64) -> PlanCacheKey) {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(300, 6));
        cat.register("B", MatrixMeta::dense(6, 300));
        let e = trace(mul(m("A"), m("B")));
        let ranked = Optimizer::new(cat.clone()).rewrite(&e).expect("cold rewrite");
        let key = move |epoch| {
            let canon = canonicalize(&e);
            let bands = leaf_bands(&canon.leaves, &cat).expect("every leaf is catalogued");
            PlanCacheKey::new(canon, bands, 0, epoch, false)
        };
        (ranked.plans, ranked.report, key)
    }

    #[test]
    fn an_older_probe_misses_without_evicting_a_newer_entry() {
        let (plans, report, key) = fixture();
        let cache = PlanCache::new(8);
        cache.insert(key(2), plans, report);
        assert!(cache.lookup(&key(1)).is_none(), "an older probe misses");
        let counts = cache.report(false);
        assert_eq!((counts.misses, counts.stale_refusals, counts.evictions), (1, 0, 0));
        assert_eq!(cache.len(), 1, "the newer entry stays");
        assert!(cache.lookup(&key(2)).is_some(), "and still serves its own epoch");
        // A newer probe refuses and evicts it.
        assert!(cache.lookup(&key(3)).is_none());
        let counts = cache.report(false);
        assert_eq!((counts.misses, counts.stale_refusals, counts.evictions), (2, 1, 1));
        assert!(cache.is_empty());
    }

    #[test]
    fn an_insert_never_replaces_a_newer_entry() {
        let (plans, report, key) = fixture();
        let cache = PlanCache::new(8);
        cache.insert(key(2), Arc::clone(&plans), report.clone());
        let slow: Arc<[Plan]> = plans.to_vec().into();
        cache.insert(key(1), Arc::clone(&slow), report.clone());
        let served = cache.lookup(&key(2)).expect("the newer entry stays");
        assert!(Arc::ptr_eq(&served.plans, &plans) && served.names.is_none());
        assert!(cache.lookup(&key(1)).is_none(), "the slow miss stored nothing");
        // An insert at a newer epoch replaces it.
        cache.insert(key(3), Arc::clone(&slow), report);
        assert!(Arc::ptr_eq(&cache.lookup(&key(3)).expect("replaced").plans, &slow));
        assert_eq!(cache.len(), 1);
    }
}
