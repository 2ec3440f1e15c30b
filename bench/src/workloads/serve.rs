//! `serve_mixed`: the concurrent read path beside a sustained update
//! stream. Reader threads run a closed loop over `SnapshotReader` with a
//! Zipf mix of hybrid pipelines and a plan cache that holds half of them;
//! one writer applies an `ivm_stream` batch every [`WRITE_PERIOD`] on an
//! open-loop schedule, and every commit publishes a new snapshot that stales
//! every cache entry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hadad_core::MetaCatalog;
use hadad_linalg::rng::Rng64;
use hadad_linalg::{approx_eq, Matrix, SOUNDNESS_RTOL};
use hadad_rewrite::{CatalogSnapshot, SnapshotReader};

use super::hybrid::QueryState;
use super::ivm::{apply_batch, MaintainedState};
use super::{layer, Measured, Traced};
use crate::corpus::{serve_corpus, Zipf};
use crate::yardstick::HostSpeed;

pub const WRITE_PERIOD: Duration = Duration::from_millis(100);
pub const PLAN_CACHE_ENTRIES: usize = 32;
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Mid-run ops per reader whose value is kept, with its snapshot, for the
/// check after the window (a snapshot is a full catalog copy).
const KEPT_SAMPLES: usize = 4;
const SAMPLE_EVERY: u64 = 61;

/// Root span of a writer batch (readers' ops use [`layer::OP`]).
pub const WRITE_OP: &str = "op.write";

/// An op kept for the after-window value check.
struct Sample {
    snapshot: Arc<CatalogSnapshot>,
    query: usize,
    value: Matrix,
}

struct ReaderOutput {
    queries: Vec<QueryState>,
    /// Latency of every op, nanoseconds, in order.
    latencies_ns: Vec<f64>,
    /// The yardstick this reader timed between its ops.
    host: HostSpeed,
    failed: u64,
    samples: Vec<Sample>,
    traced: Option<Traced>,
}

#[derive(Default)]
pub struct WriterOutput {
    pub batches: u64,
    pub failed: u64,
    /// Batch latency from when the batch was due, nanoseconds.
    pub latency_ns: Vec<f64>,
    /// How late each batch started, nanoseconds.
    pub late_ns: Vec<f64>,
}

pub struct ServeRun {
    pub readers: Measured,
    pub writer: WriterOutput,
    pub traced: Option<Traced>,
    pub correct: bool,
}

pub struct ServeWorkload {
    state: MaintainedState,
    reader: SnapshotReader,
    /// One query-state set per reader thread.
    queries: Vec<Vec<QueryState>>,
    zipf: Zipf,
    rngs: Vec<Rng64>,
}

impl ServeWorkload {
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng64::new(seed ^ 0x1a_0005);
        let mut state = MaintainedState::new(&mut rng, MetaCatalog::new(), PLAN_CACHE_ENTRIES);
        let corpus = serve_corpus(&mut rng, &state.corpus);
        for name in corpus.la_cat.names() {
            let meta = corpus.la_cat.get(name).expect("listed name").clone();
            state.hy.optimizer.cat.register(name, meta);
            state.hash.matrix(corpus.la_env.get(name).expect("catalogued matrices are bound"));
        }
        let n_readers = Self::reader_threads();
        let mut queries: Vec<Vec<QueryState>> = (0..n_readers).map(|_| Vec::new()).collect();
        for q in corpus.queries {
            state.hash.str(&q.name);
            state.hash.str(&format!("{:?}", q.pipeline.prefix));
            for set in &mut queries {
                set.push(QueryState::new(q.clone(), &corpus.la_env, &corpus.la_cat));
            }
        }
        let rngs = (0..n_readers).map(|_| Rng64::new(rng.next_u64())).collect();
        let reader = state.hy.reader().expect("a clean state publishes");
        let mut w = ServeWorkload {
            state,
            reader,
            queries,
            zipf: Zipf::new(
                crate::corpus::SERVE_PREFIXES * crate::corpus::SERVE_SUFFIXES,
                ZIPF_EXPONENT,
            ),
            rngs,
        };
        // Warm-up: every pipeline once against the first snapshot.
        let snap = w.reader.current();
        for s in &mut w.queries[0] {
            let r = snap.rewrite_hybrid(&s.q.pipeline).expect("warm-up rewrite");
            s.execute_best(&r, &mut None, None);
        }
        w
    }

    /// `max(1, nproc − 1)`: with the writer, never more threads than cores.
    pub fn reader_threads() -> usize {
        crate::host::nproc().saturating_sub(1).max(1)
    }

    pub fn corpus_hash(&self) -> u32 {
        self.state.hash.finish32()
    }

    /// Runs readers and writer for a fixed window, then checks values.
    pub fn run(&mut self, seconds: f64, traced: bool) -> ServeRun {
        let window = Duration::from_secs_f64(seconds);
        let epoch = Instant::now();
        let committed = AtomicU64::new(self.state.hy.catalog.epoch());
        let (state, reader, zipf) = (&mut self.state, &self.reader, &self.zipf);
        let committed = &committed;
        let (reader_outs, (writer, writer_traced)) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .queries
                .drain(..)
                .zip(self.rngs.iter_mut())
                .enumerate()
                .map(|(k, (queries, rng))| {
                    let tr = traced.then(|| Traced::new(epoch, k as u32 + 1));
                    let reader = reader.clone();
                    scope.spawn(move || {
                        read_loop(&reader, queries, zipf, rng, epoch, window, committed, tr)
                    })
                })
                .collect();
            let tr = traced.then(|| Traced::new(epoch, 0));
            let w = write_loop(state, epoch, window, committed, tr);
            let outs: Vec<ReaderOutput> = handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect();
            (outs, w)
        });

        let mut readers = Measured::default();
        let mut merged = writer_traced;
        let mut correct = true;
        readers.clients = reader_outs.len();
        for (k, mut out) in reader_outs.into_iter().enumerate() {
            readers.failed += out.failed;
            readers.speed_factors.extend(out.host.factors(out.latencies_ns.len()));
            readers.latencies_ns.append(&mut out.latencies_ns);
            // Values, after the window: the kept mid-run ops against their
            // own snapshots, then every pipeline once against the final one.
            for s in &out.samples {
                let q = &out.queries[s.query];
                let ok =
                    approx_eq(&s.value, &q.reference(s.snapshot.catalog()), SOUNDNESS_RTOL);
                readers.failed += u64::from(!ok);
                correct &= ok;
            }
            out.samples.clear();
            if k == 0 {
                let snap = self.reader.current();
                for q in &mut out.queries {
                    let ok = match snap.rewrite_hybrid(&q.q.pipeline) {
                        Ok(r) => {
                            let (value, _) = q.execute_best(&r, &mut None, None);
                            let reference = q.reference(snap.catalog());
                            !QueryState::is_faulty(&r)
                                && value
                                    .is_some_and(|v| approx_eq(&v, &reference, SOUNDNESS_RTOL))
                        }
                        Err(_) => false,
                    };
                    readers.failed += u64::from(!ok);
                    correct &= ok;
                }
            }
            self.queries.push(out.queries);
            if let (Some(m), Some(t)) = (merged.as_mut(), out.traced) {
                m.merge(t);
            }
        }
        let (ok, remat_ns) = self.state.matches_rematerialization();
        correct &= ok;
        if let Some(t) = merged.as_mut() {
            t.push("maintain.remat_ns", remat_ns as f64);
        }

        readers.attempted = readers.latencies_ns.len() as u64;
        readers.failed = readers.failed.min(readers.attempted);
        ServeRun { readers, writer, traced: merged, correct }
    }
}

#[allow(clippy::too_many_arguments)]
fn read_loop(
    reader: &SnapshotReader,
    mut queries: Vec<QueryState>,
    zipf: &Zipf,
    rng: &mut Rng64,
    epoch: Instant,
    window: Duration,
    committed: &AtomicU64,
    mut tr: Option<Traced>,
) -> ReaderOutput {
    let mut latencies_ns = Vec::with_capacity(1 << 14);
    let mut host = HostSpeed::start();
    let mut samples = Vec::new();
    let mut failed = 0u64;
    let mut n = 0u64;
    while epoch.elapsed() < window {
        host.tick(latencies_ns.len());
        let idx = zipf.sample(rng);
        let q = &mut queries[idx];
        let mut t = tr.as_mut();
        let root = t.as_deref_mut().map(Traced::begin_op);
        let t0 = Instant::now();
        let sp = t.as_deref_mut().map(|t| t.begin(layer::SNAPSHOT_LOAD, root.unwrap()));
        let snap = reader.current();
        if let Some(t) = t.as_deref_mut() {
            t.end(sp.unwrap());
        }
        let sp_h = t.as_deref_mut().map(|t| t.begin(layer::HYBRID, root.unwrap()));
        let result = snap.rewrite_hybrid(&q.q.pipeline);
        let hybrid_ns = t.as_deref_mut().map_or(0, |t| t.end(sp_h.unwrap()));
        let (value, eval_ns) = match &result {
            Ok(r) => q.execute_best(r, &mut t, root),
            Err(_) => (None, 0),
        };
        let latency = t0.elapsed();
        if let Some(t) = t.as_deref_mut() {
            t.end(root.unwrap());
        }
        latencies_ns.push(latency.as_nanos() as f64);
        n += 1;

        let lag = committed.load(Ordering::Relaxed).saturating_sub(snap.epoch());
        match (&result, value) {
            (Ok(r), Some(v)) => {
                failed += u64::from(QueryState::is_faulty(r));
                if let Some(t) = t {
                    q.record(t, sp_h.unwrap(), r, (hybrid_ns, eval_ns));
                    let hit = r.ranked.report.cache.hit;
                    t.add("cache.hits", f64::from(u8::from(hit)));
                    t.push(
                        if hit { "cache.hit_ns" } else { "cache.miss_ns" },
                        latency.as_nanos() as f64,
                    );
                    t.push("snapshot.epoch_lag", lag as f64);
                }
                if n % SAMPLE_EVERY == 0 && samples.len() < KEPT_SAMPLES {
                    samples.push(Sample { snapshot: snap, query: idx, value: v });
                }
            }
            _ => failed += 1,
        }
    }
    host.sample(latencies_ns.len());
    ReaderOutput { queries, latencies_ns, host, failed, samples, traced: tr }
}

fn write_loop(
    state: &mut MaintainedState,
    epoch: Instant,
    window: Duration,
    committed: &AtomicU64,
    mut tr: Option<Traced>,
) -> (WriterOutput, Option<Traced>) {
    let mut out = WriterOutput::default();
    for k in 1u32.. {
        let due = WRITE_PERIOD * k;
        if due >= window {
            break;
        }
        // The batch is generated before it is due, so a late start is the
        // system's doing, not the generator's.
        let (inserts, deletes) = state.stream.next_batch();
        if let Some(wait) = due.checked_sub(epoch.elapsed()) {
            std::thread::sleep(wait);
        }
        let root = tr.as_mut().map(|t| t.begin_root(WRITE_OP));
        let begin = epoch.elapsed();
        let ok = apply_batch(&mut state.hy, inserts, deletes, &mut tr.as_mut(), root);
        committed.store(state.hy.catalog.epoch(), Ordering::Relaxed);
        let end = epoch.elapsed();
        if let Some(t) = tr.as_mut() {
            t.end(root.unwrap());
        }
        out.batches += 1;
        out.failed += u64::from(!ok);
        out.latency_ns.push((end - due).as_nanos() as f64);
        out.late_ns.push(begin.saturating_sub(due).as_nanos() as f64);
    }
    (out, tr)
}
