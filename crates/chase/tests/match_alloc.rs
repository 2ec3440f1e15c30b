//! Allocation-freedom of premise matching and of the streamed conclusion
//! check, pinned by a count rather than a timer: enumerating 10 000 matches
//! allocates exactly as often as enumerating 100, and so does applying a
//! TGD whose every match is dropped by the restricted-chase check. A firing
//! allocates its conclusion's argument vector and a share of the growing
//! indexes — no formula and nothing per premise fact: the engine's facts
//! carry no provenance. Both hold for a conclusion the dedup index decides
//! (`r-s-t`) and for conclusions resolved through the memo of a predicate a
//! functional EGD covers (`r-s-f`, `r-s-f-reuse`). That EGD (`f-func`) is
//! enforced where the memo is written, and a memo write that finds no fact
//! with the same inputs queues nothing: building the memo over 10 000 facts
//! and draining the empty queue allocates exactly as often as over 100.
//!
//! Own test binary: it installs a counting `#[global_allocator]`, and the
//! count is only meaningful while nothing else runs — hence one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use hadad_chase::homomorphism::for_each_match;
use hadad_chase::{
    Atom, ChaseEngine, ChaseOutcome, Egd, Instance, PredId, RuleSet, SymId, Term, Tgd,
};

/// The system allocator, counting the calls the measuring thread makes.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread while a measurement runs, so the harness's
    /// own threads never disturb the count.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping before the call only
// touches an atomic and a const-initialised, destructor-free thread-local,
// neither of which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

const R: PredId = PredId(0);
const S: PredId = PredId(1);
const T: PredId = PredId(2);
const F: PredId = PredId(3);

/// `R(a_i, hub)` and `S(hub, d_j)` for `i, j < k` — `k²` matches of
/// `R(x, y) ∧ S(y, z)` — plus, when `closed`, every `T(a_i, d_j)` and
/// `F(a_i, d_j, hub)`.
fn star(k: u32, closed: bool) -> Instance {
    let mut inst = Instance::new();
    let hub = inst.const_node(SymId(0));
    let a: Vec<_> = (0..k).map(|i| inst.const_node(SymId(1 + i))).collect();
    let d: Vec<_> = (0..k).map(|j| inst.const_node(SymId(1 + k + j))).collect();
    for &ai in &a {
        inst.insert(R, vec![ai, hub]);
    }
    for &dj in &d {
        inst.insert(S, vec![hub, dj]);
    }
    if closed {
        for &ai in &a {
            for &dj in &d {
                inst.insert(T, vec![ai, dj]);
                inst.insert(F, vec![ai, dj, hub]);
            }
        }
    }
    inst
}

fn premise() -> Vec<Atom> {
    vec![
        Atom::new(R, vec![Term::Var(0), Term::Var(1)]),
        Atom::new(S, vec![Term::Var(1), Term::Var(2)]),
    ]
}

#[test]
fn matching_and_the_conclusion_check_allocate_nothing_per_match() {
    // Enumeration: the buffers of one call, whatever the number of matches.
    let atoms = premise();
    let enumerate = |k: u32| {
        let inst = star(k, false);
        let mut seen = 0usize;
        let allocations = allocations_of(|| {
            for_each_match(&inst, &atoms, &mut |_| {
                seen += 1;
                true
            });
        });
        assert_eq!(seen, (k * k) as usize);
        allocations
    };
    let (few, many) = (enumerate(10), enumerate(100));
    assert_eq!(few, many, "100 matches took {few} allocations, 10 000 took {many}");

    // `r-s-t` concludes a ground atom: the dedup index decides it. With
    // `f-func` proving `F` functional in its last position, `r-s-f`'s
    // conclusion is a memo lookup comparing the output, and
    // `r-s-f-reuse`'s a lookup binding its existential `w`.
    let (x, y, z) = (Term::Var(0), Term::Var(1), Term::Var(2));
    let ground = RuleSet::compile(vec![Tgd::new(
        "r-s-t",
        atoms.clone(),
        vec![Atom::new(T, vec![x, z])],
    )
    .into()]);
    let functional = RuleSet::compile(vec![
        Tgd::new("r-s-f", atoms.clone(), vec![Atom::new(F, vec![x, z, y])]).into(),
        Tgd::new("r-s-f-reuse", atoms.clone(), vec![Atom::new(F, vec![x, z, Term::Var(3)])])
            .into(),
        Egd::functional("f-func", F, 3).into(),
    ]);
    // Matches per premise pair: one per TGD; `f-func` enumerates none.
    for (rules, per_pair) in [(&ground, 1), (&functional, 2)] {
        let name = rules.rules()[0].name();
        let engine = ChaseEngine::new(rules);

        // TGD application with every conclusion already satisfied: each
        // match is checked while enumerating and dropped, so nothing is
        // buffered and the run allocates what a run allocates.
        let chase = |k: u32| {
            let mut inst = star(k, true);
            let facts = inst.num_facts();
            let mut result = None;
            let allocations = allocations_of(|| result = Some(engine.chase(&mut inst)));
            let (outcome, stats) = result.expect("the chase ran");
            assert_eq!(outcome, ChaseOutcome::Saturated);
            assert_eq!(stats.matches_enumerated(), per_pair * u64::from(k * k));
            assert_eq!(stats.firings(), 0);
            assert_eq!(inst.num_facts(), facts);
            allocations
        };
        chase(2); // first use registers the chase's lazy metrics
        let (few, many) = (chase(10), chase(100));
        assert_eq!(
            few, many,
            "{name}: 100 dropped matches took {few} allocations, 10 000 took {many}"
        );

        // TGD application with every conclusion missing: 40 000 firings,
        // each inserting one fact (`r-s-f-reuse` then finds each of them).
        let mut inst = star(200, false);
        let mut result = None;
        let allocations = allocations_of(|| result = Some(engine.chase(&mut inst)));
        let (outcome, stats) = result.expect("the chase ran");
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(stats.firings(), 40_000);
        let per_firing = allocations as f64 / stats.firings() as f64;
        assert!(
            per_firing <= 1.25,
            "{name}: {allocations} allocations over 40 000 firings: {per_firing:.2} each"
        );
    }

    // `f-func` alone: each `F` fact is alone under its inputs, so building
    // the memo when the run starts queues no union, and the EGD's turn
    // finds its queue empty — the memo is reserved once, nothing per fact.
    let egd = RuleSet::compile(vec![Egd::functional("f-func", F, 3).into()]);
    let engine = ChaseEngine::new(&egd);
    let enforce = |k: u32| {
        let mut inst = star(k, true);
        let mut result = None;
        let allocations = allocations_of(|| result = Some(engine.chase(&mut inst)));
        let (outcome, stats) = result.expect("the chase ran");
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!((stats.matches_enumerated(), stats.egd_merges), (0, 0));
        allocations
    };
    let (few, many) = (enforce(10), enforce(100));
    assert_eq!(few, many, "f-func over 100 facts took {few} allocations, over 10 000 {many}");
}
