//! A call's copy of a compiled schema costs O(1), pinned by bytes rather
//! than a timer: cloning the shared standard `Vrem` and a compiled
//! `TableVocab` each request at most 512 bytes from the allocator (the
//! same clones of an unfrozen vocabulary copy every name), and a premise
//! over a predicate without facts is rejected before the matcher allocates
//! anything or calls its sink. So does a call's copy of the matrix
//! catalog: cloning the catalog of a new `Optimizer`, or of a snapshot
//! published after matrices were registered, and registering one cast
//! requests at most 512 bytes plus the cast's name, whatever the number of
//! matrices (the same clone of an unfrozen catalog copies every entry).
//!
//! Own test binary: it installs a counting `#[global_allocator]`, and the
//! count is only meaningful while nothing else runs — hence one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadad_chase::homomorphism::for_each_match_since;
use hadad_chase::{Atom, Instance, Term, Vocabulary};
use hadad_core::{Catalogue, MatrixMeta, MetaCatalog, Vrem};
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    CastKind, HybridOptimizer, MaintainedCast, Optimizer, RelQuery, TableVocab,
};

/// The system allocator, summing the calls and bytes the measuring thread
/// requests.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread while a measurement runs, so the harness's
    /// own threads never disturb the count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping before the call only
// touches two atomics and a const-initialised, destructor-free
// thread-local, none of which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and bytes `f` requests on this thread (a `realloc`
/// counts its whole new size).
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    MEASURING.with(|m| m.set(true));
    let out = f();
    MEASURING.with(|m| m.set(false));
    (out, CALLS.load(Ordering::Relaxed) - calls, BYTES.load(Ordering::Relaxed) - bytes)
}

/// A catalog of `n` three-column tables.
fn catalog(n: usize) -> Catalog {
    let mut cat = Catalog::new();
    for i in 0..n {
        let col = |k: i64| Column::Int((0..4).map(|r| r * k).collect());
        cat.register(
            format!("table{i}"),
            Table::new(vec![("a", col(1)), ("b", col(2)), ("c", col(3))]),
        );
    }
    cat
}

#[test]
fn a_compiled_schema_clones_in_constant_space() {
    const BOUND: usize = 512;

    // The standard LA schema: frozen once per process.
    let (vrem, _) = Catalogue::shared_standard();
    let (clone, _, bytes) = requested_by(|| vrem.clone());
    assert!(bytes <= BOUND, "cloning the shared Vrem requested {bytes} bytes");
    assert_eq!(clone.vocab.num_preds(), vrem.vocab.num_preds());
    // The same schema unfrozen copies every name it holds.
    let mut unfrozen = Vrem::new();
    Catalogue::standard(&mut unfrozen);
    let (_, _, bytes) = requested_by(|| unfrozen.clone());
    assert!(bytes > 4 * BOUND, "an unfrozen Vrem clone requested only {bytes} bytes");

    // A compiled table vocabulary, frozen as a relational schema is.
    let cat = catalog(32);
    let mut tv = TableVocab::from_catalog(&cat);
    for k in 0..32 {
        tv.vocab.int(k);
    }
    tv.vocab.freeze();
    let (mut run, _, bytes) = requested_by(|| tv.clone());
    assert!(bytes <= BOUND, "cloning a compiled TableVocab requested {bytes} bytes");
    // The clone still answers both directions, and interns into its own
    // tail.
    let p = run.pred("table7").unwrap();
    assert_eq!(run.table_of(p), Some("table7"));
    let own = run.vocab.constant("\"only this run\"");
    assert_eq!(own.0 as usize, 32);
    assert_eq!(tv.vocab.clone().constant("\"only this run\""), own);
    let unfrozen = TableVocab::from_catalog(&cat);
    let (_, _, bytes) = requested_by(|| unfrozen.clone());
    assert!(bytes > 4 * BOUND, "an unfrozen TableVocab clone requested only {bytes} bytes");

    // A premise with a predicate that has no fact: no allocation, no match,
    // at a full or a delta enumeration alike.
    let mut vocab = Vocabulary::new();
    let (r, s) = (vocab.predicate("R", 2), vocab.predicate("S", 2));
    let mut inst = Instance::new();
    for i in 0..64 {
        let (a, b) = (inst.const_node(vocab.int(i)), inst.const_node(vocab.int(i + 1)));
        inst.insert(r, vec![a, b]);
    }
    let premise = [
        Atom::new(r, vec![Term::Var(0), Term::Var(1)]),
        Atom::new(s, vec![Term::Var(1), Term::Var(2)]),
    ];
    for watermark in [0, inst.clock() / 2] {
        let mut sink_calls = 0;
        let ((), calls, bytes) = requested_by(|| {
            for_each_match_since(&inst, &premise, watermark, &mut |_| {
                sink_calls += 1;
                true
            });
        });
        assert_eq!((calls, bytes, sink_calls), (0, 0, 0), "watermark {watermark}");
    }

    a_frozen_matrix_catalog_clones_in_constant_space();
}

/// `n` dense matrices, `m0` to `m{n-1}`, registered into `cat`.
fn register_matrices(cat: &mut MetaCatalog, n: usize) {
    for i in 0..n {
        cat.register(format!("m{i}"), MatrixMeta::dense(8 + i % 5, 8));
    }
}

/// Bytes a call's copy of `cat` requests: the clone, and one cast
/// registered into it.
fn call_copy_bytes(cat: &MetaCatalog, cast: &str) -> usize {
    let (copy, _, bytes) = requested_by(|| {
        let mut copy = cat.clone();
        copy.register(cast, MatrixMeta::sparse(4096, 4, 16));
        copy
    });
    assert!(copy.get(cast).is_some() && cat.get(cast).is_none());
    bytes
}

/// The matrix-catalog half of the test: `Optimizer::new` and every publish
/// freeze the catalog, so a call's copy costs its own entries only.
fn a_frozen_matrix_catalog_clones_in_constant_space() {
    const CAST: &str = "HotN";
    const BOUND: usize = 512 + CAST.len();

    // A new optimizer's catalog of 500 matrices.
    let mut cat = MetaCatalog::new();
    register_matrices(&mut cat, 500);
    let opt = Optimizer::new(cat.clone());
    let bytes = call_copy_bytes(&opt.cat, CAST);
    assert!(bytes <= BOUND, "a frozen 500-entry catalog's call copy requested {bytes} bytes");
    assert_eq!(opt.cat.names().count(), 500);
    // The same copy of the unfrozen catalog copies all 500 entries.
    let bytes = call_copy_bytes(&cat, CAST);
    assert!(bytes > 16 * 1024, "an unfrozen catalog's call copy requested only {bytes} bytes");

    // A hybrid optimizer whose matrices arrive after its first reader:
    // only the publish of the next maintenance pass can freeze them.
    let events = Table::new(vec![
        ("eid", Column::Int((0..64).collect())),
        ("kind", Column::Int((0..64).map(|i| i % 4).collect())),
    ]);
    let mut relational = Catalog::new();
    relational.register("events", events);
    let mut hy = HybridOptimizer::new(relational, Optimizer::new(MetaCatalog::new()));
    hy.register_table_view("hot", RelQuery::scan("events").select_eq("kind", 3))
        .expect("view materializes");
    hy.register_maintained_cast(MaintainedCast {
        cast_name: CAST.into(),
        view: "hot".into(),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "eid".into(),
            col: "kind".into(),
            val: "kind".into(),
            rows: 4096,
            cols: 4,
        },
    })
    .expect("cast stamps");
    let reader = hy.reader().expect("a clean state publishes");
    let stamped = hy.optimizer.cat.get(CAST).expect("stamped").clone();
    register_matrices(&mut hy.optimizer.cat, 500);
    hy.catalog
        .insert_rows("events", vec![vec![Value::Int(1000), Value::Int(3)]])
        .expect("insert applies");
    hy.maintain_views().expect("maintenance applies");

    // The snapshot reads the restamped cast and the matrices, and a call's
    // copy of its catalog shares them.
    let held = reader.current();
    let restamped = held.meta_catalog().get(CAST).expect("the cast is catalogued").clone();
    assert_eq!(restamped.nnz, stamped.nnz + 1, "the snapshot reads the restamp");
    assert_eq!(Some(&restamped), hy.optimizer.cat.get(CAST));
    assert_eq!(held.meta_catalog().names().count(), 501);
    let bytes = call_copy_bytes(held.meta_catalog(), "E");
    assert!(bytes <= 512 + 1, "a published catalog's call copy requested {bytes} bytes");

    // Later registrations on the live optimizer stay out of the held
    // snapshot, frozen or not.
    hy.optimizer.cat.register(CAST, MatrixMeta::dense(1, 1));
    hy.optimizer.cat.register("late", MatrixMeta::dense(2, 2));
    assert_eq!(held.meta_catalog().get(CAST), Some(&restamped));
    assert!(held.meta_catalog().get("late").is_none());
    hy.optimizer.cat.freeze();
    assert_eq!(held.meta_catalog().get(CAST), Some(&restamped));
    assert!(held.meta_catalog().get("late").is_none());
}
