//! Concurrent rewriting while maintaining: reader threads serve hybrid
//! rewrites from published [`CatalogSnapshot`]s (through a shared
//! [`SnapshotReader`]) while the writer thread mutates base tables and
//! delta-maintains views on the live `HybridOptimizer` (and, in one test,
//! registers matrices whose metadata each publish freezes into the shared
//! catalog). Run under the CI ThreadSanitizer job alongside the backend
//! suite.

use std::thread;

use hadad_core::expr::dsl::*;
use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_linalg::Matrix;
use hadad_relational::cast::table_to_sparse;
use hadad_relational::{Catalog, Column, Table, Value};
use hadad_rewrite::{
    CastKind, HybridOptimizer, HybridPipeline, MaintainedCast, Optimizer, RelQuery,
};

/// Holds the process-wide fault-test lock through an inert site for the
/// rest of a test that maintains views: `poisoned_state_is_never_published`
/// arms `maintain.midpass` for every thread of this binary while it runs,
/// and a pass of another test landing in that window would fail.
fn unarmed() -> hadad_failpoint::ScopedFailpoint {
    hadad_failpoint::scoped("concurrency.unarmed", hadad_failpoint::FailAction::Delay(0))
}

fn fixture() -> (HybridOptimizer, HybridPipeline) {
    let events = Table::new(vec![
        ("eid", Column::Int((0..64).collect())),
        ("kind", Column::Int((0..64).map(|i| i % 4).collect())),
    ]);
    let mut catalog = Catalog::new();
    catalog.register("events", events);
    let mut la_cat = MetaCatalog::new();
    la_cat.register("A", MatrixMeta::dense(120, 8));
    la_cat.register("B", MatrixMeta::dense(8, 120));
    la_cat.register("x", MatrixMeta::dense(120, 1));
    let mut hy = HybridOptimizer::new(catalog, Optimizer::new(la_cat).with_plan_cache(32));
    hy.register_table_view("spikes", RelQuery::scan("events").select_eq("kind", 3))
        .expect("view materializes");
    let pipeline = HybridPipeline {
        prefix: RelQuery::scan("events").select_eq("kind", 3),
        sort_key: None,
        cast: CastKind::Sparse {
            row: "eid".into(),
            col: "kind".into(),
            val: "kind".into(),
            rows: 4096,
            cols: 4,
        },
        cast_name: "E".into(),
        suffix: mul(mul(m("A"), m("B")), m("x")),
    };
    (hy, pipeline)
}

/// Four reader threads rewrite against the published snapshot while the
/// writer pushes insert/delete batches through logged mutation +
/// delta-maintenance on the live optimizer. Every reader-observed result
/// must be sound (the best plan never prices above the snapshot's
/// original), readers must never observe a stale or mid-maintenance
/// state (each loaded snapshot's epoch is a committed one), and after the
/// writer finishes, readers converge on the final epoch.
#[test]
fn concurrent_rewrites_while_maintaining() {
    let _unarmed = unarmed();
    let (mut hy, pipeline) = fixture();
    let reader = hy.reader().expect("clean state must be snapshottable");
    let initial_epoch = reader.current().epoch();

    thread::scope(|s| {
        for worker in 0..4 {
            let reader = reader.clone();
            let pipeline = &pipeline;
            s.spawn(move || {
                let mut last_epoch = 0u64;
                for i in 0..25 {
                    let snap = reader.current();
                    // Epochs only move forward for a reader.
                    assert!(
                        snap.epoch() >= last_epoch,
                        "worker {worker} iter {i}: epoch went backwards"
                    );
                    last_epoch = snap.epoch();
                    let r = snap.rewrite_hybrid(pipeline).expect("snapshot rewrite");
                    assert!(
                        r.best.est_cost <= r.ranked.original.est_cost,
                        "worker {worker} iter {i}: unsound plan ranking"
                    );
                    assert!(r.degraded.is_none(), "worker {worker} iter {i}: degraded");
                }
            });
        }

        // Writer: interleave logged inserts and deletes, each auto-
        // maintained and therefore republished at a new committed epoch.
        for batch in 0..10i64 {
            let eid = 1000 + batch;
            hy.catalog
                .insert_rows("events", vec![vec![Value::Int(eid), Value::Int(3)]])
                .expect("insert applies");
            hy.maintain_views().expect("maintenance applies");
            hy.catalog
                .delete_rows("events", vec![vec![Value::Int(eid), Value::Int(3)]])
                .expect("delete applies");
            hy.maintain_views().expect("maintenance applies");
        }
    });

    // The writer's last commit was published: readers and the live
    // optimizer agree on the final epoch.
    assert!(reader.current().epoch() > initial_epoch, "maintenance must advance the epoch");
    assert_eq!(
        reader.current().epoch(),
        hy.catalog.epoch(),
        "published snapshot must carry the final committed epoch"
    );
    // And the converged snapshot still serves sound rewrites.
    let r = reader.current().rewrite_hybrid(&pipeline).expect("final rewrite");
    assert!(r.best.est_cost <= r.ranked.original.est_cost);
}

/// The metrics registry under the same 4-reader × 25-iteration stress:
/// the sharded relaxed counters must lose no updates. A dedicated probe
/// counter bumped once per reader iteration lands on exactly 100, the
/// probe histogram's count and sum are bit-exact, and the pipeline's own
/// counters (`snapshot.reads`, `rewrite.calls`) advance by at least the
/// stress's own traffic — `>=`, not `==`, because every test in this
/// binary shares the global registry.
#[test]
fn metric_counter_totals_are_exact_under_stress() {
    let _unarmed = unarmed();
    static PROBE: hadad_obs::LazyCounter =
        hadad_obs::LazyCounter::new("test.concurrency.probe");
    static PROBE_ITERS: hadad_obs::LazyHistogram =
        hadad_obs::LazyHistogram::new("test.concurrency.iter");
    let (mut hy, pipeline) = fixture();
    let reader = hy.reader().expect("reader");
    let before = hadad_obs::snapshot();
    let reads_before = before.counter("snapshot.reads").unwrap_or(0);
    let calls_before = before.counter("rewrite.calls").unwrap_or(0);

    thread::scope(|s| {
        for _ in 0..4 {
            let reader = reader.clone();
            let pipeline = &pipeline;
            s.spawn(move || {
                for i in 0..25u64 {
                    let snap = reader.current();
                    let r = snap.rewrite_hybrid(pipeline).expect("snapshot rewrite");
                    assert!(r.best.est_cost <= r.ranked.original.est_cost);
                    PROBE.incr();
                    PROBE_ITERS.record(i);
                }
            });
        }
        for batch in 0..10i64 {
            let eid = 2000 + batch;
            hy.catalog
                .insert_rows("events", vec![vec![Value::Int(eid), Value::Int(3)]])
                .expect("insert applies");
            hy.maintain_views().expect("maintenance applies");
            hy.catalog
                .delete_rows("events", vec![vec![Value::Int(eid), Value::Int(3)]])
                .expect("delete applies");
            hy.maintain_views().expect("maintenance applies");
        }
    });

    // Exact totals: 4 threads × 25 iterations, no lost updates across
    // the counter shards or histogram buckets.
    assert_eq!(PROBE.value(), 100, "probe counter lost updates");
    let after = hadad_obs::snapshot();
    let iters = after.histogram("test.concurrency.iter").expect("probe histogram registered");
    assert_eq!(iters.count, 100, "probe histogram lost samples");
    assert_eq!(iters.sum, 4 * (0..25u64).sum::<u64>(), "probe histogram sum drifted");
    // The instrumented pipeline moved at least as much as this stress
    // drove it: 100 snapshot loads and 100 optimizer rewrites.
    assert!(after.counter("snapshot.reads").unwrap_or(0) >= reads_before + 100);
    assert!(after.counter("rewrite.calls").unwrap_or(0) >= calls_before + 100);

    // Deterministic cache-hit delta: two same-epoch rewrites through the
    // reader — whatever the stress left cached, the second must hit.
    let hits_before = after.counter("cache.hits").unwrap_or(0);
    let _ = reader.current().rewrite_hybrid(&pipeline).expect("post-stress rewrite");
    let _ = reader.current().rewrite_hybrid(&pipeline).expect("post-stress rewrite");
    let hits_after = hadad_obs::snapshot().counter("cache.hits").unwrap_or(0);
    assert!(hits_after > hits_before, "same-epoch repeat must land a cache hit");
}

/// Snapshot isolation: a reader holding a snapshot keeps that state alive
/// and consistent even after the writer mutates and republishes.
#[test]
fn held_snapshot_survives_later_updates() {
    let _unarmed = unarmed();
    let (mut hy, pipeline) = fixture();
    let reader = hy.reader().expect("reader");
    let held = reader.current();
    let held_epoch = held.epoch();
    let held_rows = held.catalog().cardinality("events").expect("events snapshotted");

    hy.catalog
        .insert_rows("events", vec![vec![Value::Int(999), Value::Int(3)]])
        .expect("insert applies");
    hy.maintain_views().expect("maintenance applies");

    // The held snapshot is frozen at its epoch and row count...
    assert_eq!(held.epoch(), held_epoch);
    assert_eq!(held.catalog().cardinality("events"), Some(held_rows));
    let r = held.rewrite_hybrid(&pipeline).expect("held snapshot rewrite");
    assert!(r.best.est_cost <= r.ranked.original.est_cost);
    // ...while a fresh load observes the committed update.
    let fresh = reader.current();
    assert!(fresh.epoch() > held_epoch);
    assert_eq!(fresh.catalog().cardinality("events"), Some(held_rows + 1));
}

/// The same isolation under deletes: the live catalog retracts by moving
/// its last row into the vacated position, through a row index the
/// snapshot never shares — a snapshot taken before the batch must keep
/// serving the pre-batch rows, in their pre-batch positions, for the base
/// table and the view alike.
#[test]
fn held_snapshot_survives_swap_removing_deletes() {
    let _unarmed = unarmed();
    let (mut hy, pipeline) = fixture();
    // One delete up front, so the live tables carry built indexes by the
    // time the snapshot is cloned from them.
    hy.catalog
        .delete_rows("events", vec![vec![Value::Int(63), Value::Int(3)]])
        .expect("delete applies");
    hy.maintain_views().expect("maintenance applies");
    let reader = hy.reader().expect("reader");
    let held = reader.current();
    let events_before = held.catalog().get("events").expect("events snapshotted").clone();
    let spikes_before = held.catalog().get("spikes").expect("view snapshotted").clone();
    assert_eq!(events_before.num_rows(), 63);

    // Delete from the front: every vacated position is refilled from the
    // tail, so the live tables' leading rows all change.
    let batch: Vec<Vec<Value>> =
        (0..16).map(|i| vec![Value::Int(i), Value::Int(i % 4)]).collect();
    hy.catalog.delete_rows("events", batch).expect("delete batch applies");
    hy.maintain_views().expect("maintenance applies");
    hy.catalog.check_indexes().expect("live indexes stay consistent");
    let live = hy.catalog.get("events").expect("events live");
    assert_eq!(live.num_rows(), 47);
    assert_ne!(live.row(0), events_before.row(0), "the live table did swap-remove");

    assert_eq!(held.catalog().get("events"), Some(&events_before));
    assert_eq!(held.catalog().get("spikes"), Some(&spikes_before));
    assert_eq!(events_before.row(0), vec![Value::Int(0), Value::Int(0)]);
    let r = held.rewrite_hybrid(&pipeline).expect("held snapshot rewrite");
    assert!(r.best.est_cost <= r.ranked.original.est_cost);
    // A fresh load sees the batch: four of the sixteen were spikes.
    let fresh = reader.current();
    assert_eq!(fresh.catalog().cardinality("events"), Some(47));
    assert_eq!(fresh.catalog().cardinality("spikes"), Some(spikes_before.num_rows() - 4));
}

/// A poisoned maintainer refuses to hand out readers (a snapshot of an
/// unknown view state would serve wrong plans forever), and existing
/// readers keep the last clean snapshot rather than observing the
/// poisoned state.
#[test]
fn poisoned_state_is_never_published() {
    let (mut hy, pipeline) = fixture();
    let reader = hy.reader().expect("reader");
    let clean_epoch = reader.current().epoch();

    // Poison maintenance via an injected fault mid-pass.
    hy.catalog
        .insert_rows("events", vec![vec![Value::Int(500), Value::Int(3)]])
        .expect("raw insert applies");
    let fault = hadad_failpoint::scoped("maintain.midpass", hadad_failpoint::FailAction::Error);
    assert!(hy.maintain_views().is_err(), "injected fault must fail the pass");
    drop(fault);

    // Readers still serve the last clean snapshot.
    assert_eq!(reader.current().epoch(), clean_epoch);
    assert!(reader.current().rewrite_hybrid(&pipeline).is_ok());
    // No new readers from a poisoned optimizer.
    assert!(hy.reader().is_err(), "poisoned state must not be snapshottable");
    // Recovery: rebuild republishes a clean snapshot at a newer epoch.
    hy.rebuild_views().expect("rebuild succeeds");
    assert!(reader.current().epoch() > clean_epoch, "rebuild must republish");
    assert!(hy.reader().is_ok());
}

/// Readers on *different* snapshots rewrite a view-carrying expression at
/// the same time and each gets what its snapshot answers alone. The LA
/// view is defined over a maintained cast. Its `V_IO`/`V_OI` atoms carry
/// only the view name, the leaf names and the literals, so they are the
/// same on every snapshot; what differs is the class data they come with
/// (`ViewRules.classes`: the cast's shape). Every call builds its own
/// view rules on top of the one shared standard set — no reader waits
/// for, or evicts, another's. The view is registered ahead of the cast,
/// so the first rewrites also race to certify it.
#[test]
fn readers_on_different_snapshots_rewrite_over_views_independently() {
    let _unarmed = unarmed();
    let (hy, _) = fixture();
    let mut la_cat = MetaCatalog::new();
    la_cat.register("v", MatrixMeta::dense(4, 1));
    let mut hy = HybridOptimizer::new((*hy.catalog).clone(), Optimizer::new(la_cat));
    hy.register_la_view("G", mul(t(m("E")), m("E"))).expect("forward reference is accepted");
    hy.register_maintained_cast(MaintainedCast {
        cast_name: "E".into(),
        view: "events".into(),
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
    let reader = hy.reader().expect("reader");

    // Three snapshots, each with more non-zeros under the view's leaf.
    let mut snapshots = vec![reader.current()];
    for batch in 0..2i64 {
        let rows = (0..40).map(|i| vec![Value::Int(100 + batch * 40 + i), Value::Int(3)]);
        hy.catalog.insert_rows("events", rows.collect()).expect("insert applies");
        hy.maintain_views().expect("maintenance applies");
        snapshots.push(reader.current());
    }

    let e = mul(mul(t(m("E")), m("E")), m("v"));
    let answer = |snap: &hadad_rewrite::CatalogSnapshot| {
        let ranked = snap.rewrite(&e).expect("rewrites");
        let plans: Vec<String> =
            ranked.plans.iter().map(|p| format!("{} @ {}", p.expr, p.est_cost)).collect();
        (plans, ranked.report.chase_rounds, ranked.report.num_facts)
    };
    let start = std::sync::Barrier::new(4);
    let concurrent: Vec<Vec<_>> = thread::scope(|s| {
        let spawned: Vec<_> = (0..4)
            .map(|tid| {
                let (snapshots, answer, start) = (&snapshots, &answer, &start);
                s.spawn(move || {
                    start.wait();
                    (0..30).map(|i| answer(&snapshots[(tid + i) % 3])).collect::<Vec<_>>()
                })
            })
            .collect();
        spawned.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });

    let sequential: Vec<_> = snapshots.iter().map(|s| answer(s)).collect();
    assert!(sequential[0].0[0].starts_with("(G v) @ "), "lands on the view");
    assert_ne!(sequential[0], sequential[2], "the snapshots price the original differently");
    for (tid, answers) in concurrent.iter().enumerate() {
        for (i, got) in answers.iter().enumerate() {
            assert_eq!(got, &sequential[(tid + i) % 3], "thread {tid}, call {i}");
        }
    }
}

/// Readers read matrix metadata from the snapshots they load while the
/// writer registers matrices on the live optimizer, restamps a maintained
/// cast and publishes — each publish folding what was registered into the
/// catalog the snapshots share. Every loaded snapshot is whole: the cast's
/// stamp matches the snapshot's own view, each batch's matrix is there
/// with every earlier one, and a call's copy of the catalog (a rewrite
/// over the batch matrices) prices against that snapshot alone.
#[test]
fn readers_read_matrix_metadata_while_the_writer_freezes_and_publishes() {
    let _unarmed = unarmed();
    let (mut hy, _) = fixture();
    hy.register_maintained_cast(MaintainedCast {
        cast_name: "S".into(),
        view: "spikes".into(),
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
    let reader = hy.reader().expect("reader");
    const BATCHES: usize = 10;

    thread::scope(|s| {
        for worker in 0..4 {
            let reader = reader.clone();
            s.spawn(move || {
                for i in 0..25 {
                    let snap = reader.current();
                    let cat = snap.meta_catalog();
                    // Every spike is one non-zero of the cast.
                    let spikes = snap.catalog().cardinality("spikes").expect("view");
                    assert_eq!(cat.get("S").map(|m| m.nnz), Some(spikes), "worker {worker}");
                    // The batch matrices arrive in order, all of them.
                    let batches =
                        (0..BATCHES).take_while(|b| cat.get(&format!("w{b}")).is_some());
                    let batches = batches.count();
                    let listed = cat.names().filter(|n| n.starts_with('w')).count();
                    assert_eq!(listed, batches, "worker {worker} iter {i}");
                    let names: Vec<&str> = cat.names().collect();
                    assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted, each once");
                    if batches > 0 {
                        let last = format!("w{}", batches - 1);
                        let ranked = snap.rewrite(&mul(m("A"), m(&last))).expect("rewrites");
                        assert_eq!(ranked.original.est_cost, expected_cost(batches - 1));
                    }
                }
            });
        }

        for batch in 0..BATCHES as i64 {
            hy.optimizer
                .cat
                .register(format!("w{batch}"), MatrixMeta::dense(8, batch as usize + 1));
            let eid = 2000 + batch;
            hy.catalog
                .insert_rows("events", vec![vec![Value::Int(eid), Value::Int(3)]])
                .expect("insert applies");
            hy.maintain_views().expect("maintenance applies");
        }
    });

    let last = reader.current();
    assert_eq!(last.epoch(), hy.catalog.epoch());
    assert_eq!(last.meta_catalog().get("S"), hy.optimizer.cat.get("S"));
    assert_eq!(last.meta_catalog().names().filter(|n| n.starts_with('w')).count(), BATCHES);
}

/// Estimated cost of `A · w{b}`, `A` being 120 × 8 and `w{b}` 8 × (b + 1),
/// both dense.
fn expected_cost(b: usize) -> f64 {
    let mut cat = MetaCatalog::new();
    cat.register("A", MatrixMeta::dense(120, 8));
    cat.register("w", MatrixMeta::dense(8, b + 1));
    hadad_core::expr_estimate(&mul(m("A"), m("w")), &cat).expect("prices").1
}

/// Registering a table view while readers run compiles a new relational
/// schema for the next publish and leaves every published one alone:
/// readers of the snapshot held from before keep the old views (the new
/// view's prefix gets no rewriting), and every snapshot a reader loads
/// answers from exactly the views it was published with. The readers run
/// the verified path, which never reads the prefix memo, so every call
/// runs PACB over its snapshot's compiled schema.
#[test]
fn a_view_registered_while_readers_run_leaves_old_snapshots_on_the_old_views() {
    let _unarmed = unarmed();
    let (mut hy, _) = fixture();
    let reader = hy.reader().expect("reader");
    let held = reader.current();
    let calm = HybridPipeline {
        prefix: RelQuery::scan("events").select_eq("kind", 1),
        sort_key: Some("eid".into()),
        cast: CastKind::Dense { columns: vec!["eid".into()] },
        cast_name: "C".into(),
        suffix: m("C"),
    };
    let env = hadad_rewrite::Env::new();
    let start = std::sync::Barrier::new(4);
    thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (reader, held, calm, env, start) = (&reader, &held, &calm, &env, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        let r = held.rewrite_hybrid_verified(calm, env, 1e-9).expect("held");
                        assert!(r.rel.rewriting.is_none(), "the held snapshot has no view");
                        assert_eq!(r.verified, Some(true));
                        let snap = reader.current();
                        let has_calm = snap.table_views().iter().any(|v| v.name == "calm");
                        let r = snap.rewrite_hybrid_verified(calm, env, 1e-9).expect("loaded");
                        assert_eq!(r.rel.rewriting.is_some(), has_calm);
                        assert_eq!(r.rel.rows_out, 16);
                    }
                })
            })
            .collect();
        start.wait();
        hy.register_table_view("calm", RelQuery::scan("events").select_eq("kind", 1))
            .expect("view materializes");
        for r in readers {
            r.join().expect("reader thread");
        }
    });
    let r = reader.current().rewrite_hybrid(&calm).expect("fresh snapshot");
    assert_eq!(r.rel.cost_best, Some(16.0), "a fresh load lands on the new view");
    assert_eq!(held.table_views().len(), 1);
}

/// A cast's stored cells as `(row, col, value bits)`.
type CastBits = Vec<(usize, usize, u64)>;

/// The cast's stored cells with their exact bits (the fixture casts sparse).
fn cast_bits(m: &Matrix) -> CastBits {
    match m {
        Matrix::Sparse(s) => s.triplets().map(|(r, c, v)| (r, c, v.to_bits())).collect(),
        Matrix::Dense(_) => unreachable!("the fixture's cast is sparse"),
    }
}

/// The prefix memo lives and dies with its snapshot. Four threads race
/// their first reads of a fresh snapshot (racing misses may both compute,
/// then one stores): every cast is bitwise the live path's, and each
/// thread's reads after its first are memo hits. The next publish starts
/// empty and answers from the new catalog; a snapshot held across the
/// publish keeps returning its first answer.
#[test]
fn prefix_memo_is_per_snapshot() {
    let _unarmed = unarmed();
    let (mut hy, pipeline) = fixture();
    let reader = hy.reader().expect("reader");
    let cold = cast_bits(&hy.rewrite_hybrid(&pipeline).expect("live rewrite").cast);
    let old = reader.current();
    let hits_before = hadad_obs::snapshot().counter("hybrid.prefix_memo_hits").unwrap_or(0);

    let start = std::sync::Barrier::new(4);
    let reads: Vec<Vec<(bool, CastBits)>> = thread::scope(|s| {
        let spawned: Vec<_> = (0..4)
            .map(|_| {
                let (old, pipeline, start) = (&old, &pipeline, &start);
                s.spawn(move || {
                    start.wait();
                    (0..25)
                        .map(|_| {
                            let r = old.rewrite_hybrid(pipeline).expect("snapshot rewrite");
                            assert!(r.degraded.is_none());
                            if r.rel.memo_hit {
                                assert_eq!(
                                    (r.rel.pacb_us, r.rel.exec_us, r.cast_us),
                                    (0, 0, 0)
                                );
                            }
                            (r.rel.memo_hit, cast_bits(&r.cast))
                        })
                        .collect()
                })
            })
            .collect();
        spawned.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });
    for (tid, thread_reads) in reads.iter().enumerate() {
        for (i, (hit, bits)) in thread_reads.iter().enumerate() {
            assert_eq!(bits, &cold, "thread {tid}, read {i}: cast differs from the live path");
            assert!(*hit || i == 0, "thread {tid}, read {i}: a stored prefix missed");
        }
    }
    let hits = reads.iter().flatten().filter(|(hit, _)| *hit).count() as u64;
    assert!(hits >= 4 * 24);
    let hits_after = hadad_obs::snapshot().counter("hybrid.prefix_memo_hits").unwrap_or(0);
    assert!(hits_after >= hits_before + hits, "every memo hit is counted");

    // A raw insert plus a maintenance pass publishes a new snapshot.
    hy.catalog
        .insert_rows("events", vec![vec![Value::Int(4000), Value::Int(3)]])
        .expect("raw insert applies");
    hy.maintain_views().expect("maintenance publishes");
    let new = reader.current();
    assert!(new.epoch() > old.epoch());
    let r = new.rewrite_hybrid(&pipeline).expect("new snapshot rewrite");
    assert!(!r.rel.memo_hit, "a new snapshot starts with an empty memo");
    let executed = pipeline.prefix.execute(new.catalog()).expect("prefix executes");
    let expected = table_to_sparse(&executed, "eid", "kind", "kind", 4096, 4);
    assert_eq!(cast_bits(&r.cast), cast_bits(&expected));
    assert_eq!(r.rel.rows_out, old.catalog().cardinality("spikes").unwrap() + 1);
    assert!(new.rewrite_hybrid(&pipeline).expect("repeat").rel.memo_hit);

    // The held snapshot still answers from its own memo, bitwise as before.
    let held = old.rewrite_hybrid(&pipeline).expect("held snapshot rewrite");
    assert!(held.rel.memo_hit);
    assert_eq!(cast_bits(&held.cast), cold);
}

/// A snapshot's column indexes are built by its readers, once. Four
/// threads race their first two reads of one fresh snapshot — a selection
/// on `events.kind` joined to the `spikes` view on `eid`, so two columns
/// are looked up eight times each: the first lookups scan, a second builds
/// (once per column, whichever thread gets there), the rest read the
/// index. Every read returns bitwise what the live catalog returns.
#[test]
fn racing_readers_build_each_column_index_once() {
    let _unarmed = unarmed();
    let (mut hy, _) = fixture();
    let reader = hy.reader().expect("reader");
    let snap = reader.current();
    let query = RelQuery::scan("events").select_eq("kind", 3).join("spikes", "eid", "eid");
    let live = query.execute(&hy.catalog).expect("live read");
    assert_eq!(live.num_rows(), 16);
    let builds = || hadad_obs::snapshot().counter("relexec.index_builds").unwrap_or(0);
    let before = builds();

    let start = std::sync::Barrier::new(4);
    let reads: Vec<Vec<Table>> = thread::scope(|s| {
        let spawned: Vec<_> = (0..4)
            .map(|_| {
                let (snap, query, start) = (&snap, &query, &start);
                s.spawn(move || {
                    start.wait();
                    (0..2).map(|_| query.execute(snap.catalog()).expect("read")).collect()
                })
            })
            .collect();
        spawned.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });
    for (tid, thread_reads) in reads.iter().enumerate() {
        for (i, got) in thread_reads.iter().enumerate() {
            assert_eq!(got, &live, "thread {tid}, read {i}");
        }
    }
    assert_eq!(builds() - before, 2, "one build per column touched: events.kind, spikes.eid");
    // Built: the next read of the snapshot builds nothing more.
    assert_eq!(query.execute(snap.catalog()).expect("read"), live);
    assert_eq!(builds() - before, 2);
}
