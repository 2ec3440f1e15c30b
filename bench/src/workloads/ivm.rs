//! `ivm_stream`: the update path alone. One op is one batch — raw
//! `catalog.insert_rows` + `catalog.delete_rows`, then `maintain_views()` —
//! with no reader registered, so `publish()` is a no-op.

use std::time::Instant;

use hadad_core::{MatrixMeta, MetaCatalog};
use hadad_linalg::rng::Rng64;
use hadad_relational::ivm::table_fingerprint;
use hadad_relational::ops;
use hadad_relational::Value;
use hadad_rewrite::{HybridOptimizer, Optimizer};

use super::hybrid::{base_catalog, register_views};
use super::{cast_table, layer, OpResult, Traced, Workload};
use crate::corpus::{ivm_corpus, tables, CorpusHash, IvmCorpus, UpdateStream, BATCH_ROWS};
use crate::trace::SpanId;

/// Batches per pass; the maintained state is checked against
/// re-materialization after every [`CHECK_EVERY_PASSES`]-th pass.
pub const BATCHES_PER_PASS: usize = 40;
pub const CHECK_EVERY_PASSES: usize = 5;

/// A hybrid optimizer with the maintained views and casts registered, plus
/// the stream that updates it. Also the write side of `serve_mixed`.
pub struct MaintainedState {
    pub hy: HybridOptimizer,
    pub corpus: IvmCorpus,
    pub stream: UpdateStream,
    pub hash: CorpusHash,
}

impl MaintainedState {
    pub fn new(rng: &mut Rng64, la_cat: MetaCatalog, plan_cache: usize) -> Self {
        let t = tables(rng);
        let corpus = ivm_corpus(rng);
        let mut hash = CorpusHash::new();
        hash.table(&t.tweets);
        hash.table(&t.users);
        let opt = Optimizer::new(la_cat).with_plan_cache(plan_cache);
        let mut hy = HybridOptimizer::new(base_catalog(&t), opt);
        register_views(&mut hy, &corpus.views);
        for c in &corpus.casts {
            hy.register_maintained_cast(c.clone()).expect("corpus cast stamps");
        }
        let mut stream_rng = Rng64::new(rng.next_u64());
        hash.u64(stream_rng.next_u64());
        let stream = UpdateStream::new(stream_rng, t.rows);
        MaintainedState { hy, corpus, stream, hash }
    }

    /// From-scratch re-materialization of every view and cast: whether the
    /// maintained tables are multiset-equal to their definitions re-run on
    /// the current base tables and the stamped cast metadata equals
    /// `MatrixMeta::from_matrix` of a fresh cast. Returns the verdict and
    /// how long the re-materialization alone took.
    pub fn matches_rematerialization(&self) -> (bool, u64) {
        let hy = &self.hy;
        let t0 = Instant::now();
        let scratch: Vec<_> = self
            .corpus
            .views
            .iter()
            .map(|v| v.def.execute(&hy.catalog).expect("view definition re-executes"))
            .collect();
        let metas: Vec<MatrixMeta> = self
            .corpus
            .casts
            .iter()
            .map(|c| {
                let i = self
                    .corpus
                    .views
                    .iter()
                    .position(|v| v.name == c.view)
                    .expect("cast reads a view");
                let sorted;
                let table = match &c.sort_key {
                    Some(k) => {
                        sorted = ops::sort_by_int(&scratch[i], k).expect("sort key exists");
                        &sorted
                    }
                    None => &scratch[i],
                };
                MatrixMeta::from_matrix(&cast_table(table, &c.cast))
            })
            .collect();
        let remat_ns = t0.elapsed().as_nanos() as u64;

        let mut ok = true;
        for (v, fresh) in self.corpus.views.iter().zip(&scratch) {
            let maintained = hy.catalog.get(v.name).expect("view is registered");
            ok &= table_fingerprint(maintained) == table_fingerprint(fresh);
        }
        for (c, fresh) in self.corpus.casts.iter().zip(&metas) {
            ok &= hy.optimizer.cat.get(&c.cast_name) == Some(fresh);
        }
        (ok, remat_ns)
    }
}

pub struct IvmWorkload {
    state: MaintainedState,
    unchecked: u64,
}

impl IvmWorkload {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x1a_0004);
        let state = MaintainedState::new(&mut rng, MetaCatalog::new(), 0);
        let mut w = IvmWorkload { state, unchecked: 0 };
        // Warm-up: reach the steady state the stream holds from here on, and
        // check it once before anything is measured.
        for i in 0..10 {
            w.op(i, None);
        }
        let (ok, _) = w.state.matches_rematerialization();
        assert!(ok, "maintained state diverged from re-materialization during warm-up");
        w.unchecked = 0;
        w
    }
}

/// One update batch, the op of `ivm_stream` and of `serve_mixed`'s writer:
/// raw `catalog.insert_rows` + `catalog.delete_rows`, then
/// `maintain_views()`. Spans go under `root` when traced. Returns whether
/// every call succeeded.
pub fn apply_batch(
    hy: &mut HybridOptimizer,
    inserts: Vec<Vec<Value>>,
    deletes: Vec<Vec<Value>>,
    tr: &mut Option<&mut Traced>,
    root: Option<SpanId>,
) -> bool {
    let sp = tr.as_deref_mut().map(|t| t.begin(layer::APPLY, root.unwrap()));
    let applied = hy
        .catalog
        .insert_rows("tweets", inserts)
        .and_then(|_| hy.catalog.delete_rows("tweets", deletes));
    if let Some(t) = tr.as_deref_mut() {
        t.end(sp.unwrap());
    }
    let sp = tr.as_deref_mut().map(|t| t.begin(layer::MAINTAIN, root.unwrap()));
    let report = hy.maintain_views();
    if let Some(t) = tr.as_deref_mut() {
        let call_ns = t.end(sp.unwrap());
        if let Ok(rep) = &report {
            t.tracer.phases(
                sp.unwrap(),
                &[(layer::PROPAGATE, rep.maintain_us), (layer::RESTAMP, rep.restamp_us)],
            );
            t.add("maintain.rows_touched", rep.rows_touched() as f64);
            // What `maintain_views` spent outside its reported phases:
            // cloning the catalog into a snapshot and publishing it (nothing,
            // while no reader is registered).
            let phases_ns = (rep.maintain_us + rep.restamp_us) as f64 * 1e3;
            t.push("snapshot.publish_ns", (call_ns as f64 - phases_ns).max(0.0));
        }
    }
    applied.is_ok() && report.is_ok()
}

impl Workload for IvmWorkload {
    fn ops_per_pass(&self) -> usize {
        BATCHES_PER_PASS
    }

    fn op(&mut self, _i: usize, mut tr: Option<&mut Traced>) -> OpResult {
        let (inserts, deletes) = self.state.stream.next_batch();
        let root = tr.as_deref_mut().map(Traced::begin_op);
        let t0 = Instant::now();
        let ok = apply_batch(&mut self.state.hy, inserts, deletes, &mut tr, root);
        let latency = t0.elapsed();
        if let Some(t) = tr {
            t.end(root.unwrap());
        }
        self.unchecked += 1;
        OpResult { latency, failed: !ok }
    }

    fn after_pass(&mut self, pass: usize, tr: Option<&mut Traced>) -> u64 {
        if (pass + 1) % CHECK_EVERY_PASSES == 0 {
            self.finish(tr)
        } else {
            0
        }
    }

    /// Checks the maintained state against re-materialization; a divergence
    /// condemns every batch since the last clean check.
    fn finish(&mut self, tr: Option<&mut Traced>) -> u64 {
        if self.unchecked == 0 {
            return 0;
        }
        let (ok, remat_ns) = self.state.matches_rematerialization();
        if let Some(t) = tr {
            t.push("maintain.remat_ns", remat_ns as f64);
        }
        let failed = if ok { 0 } else { self.unchecked };
        self.unchecked = 0;
        failed
    }

    fn corpus_hash(&self) -> u32 {
        self.state.hash.finish32()
    }
}

/// Base-table rows one batch changes.
pub const ROWS_PER_BATCH: usize = 2 * BATCH_ROWS;
