//! Kernel fault containment, in its own test binary: the `linalg.kernel`
//! failpoint and the panic hook are process-global, so arming them beside
//! the crate's unit tests would silently degrade every concurrent kernel
//! call to `REFERENCE`.

use hadad_linalg::{rand_gen, ExecBackend, Matrix, Parallel, REFERENCE};

fn dense(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::Dense(rand_gen::random_dense(r, c, seed))
}

fn sparse(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::Sparse(rand_gen::random_sparse(r, c, 0.15, seed))
}

/// The kernel faults recorded since the last call: the `linalg.kernel`
/// messages drained from the obs event log, and how far `kernel.panics`
/// moved.
fn kernel_panics(counted: &mut u64) -> (Vec<String>, u64) {
    let events = hadad_obs::take_events().into_iter().filter(|e| e.site == "linalg.kernel");
    let now = hadad_obs::snapshot().counter("kernel.panics").unwrap_or(0);
    let moved = now - std::mem::replace(counted, now);
    (events.map(|e| e.message).collect(), moved)
}

/// Every kernel route — D·D, S·S, D·S (the transposed SpMM route), S·D,
/// and `Aᵀ·B` over the same pairs — runs under the failpoint: each call
/// returns the `REFERENCE` value and leaves exactly one `linalg.kernel`
/// event naming the backend and the op, and one `kernel.panics`.
#[test]
fn kernel_panic_degrades_to_reference_with_event() {
    let _fp = hadad_failpoint::scoped("linalg.kernel", hadad_failpoint::FailAction::Panic);
    // Silence the default panic hook for the injected worker panics.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut counted = 0;
    kernel_panics(&mut counted);
    let backend = Parallel::with_threads(2);
    let mut failures = Vec::new();
    // bt shares a's row count so `aᵀ · bt` is well-shaped.
    for (kind, a, b, bt) in [
        ("D·D", dense(20, 10, 21), dense(10, 6, 22), dense(20, 6, 25)),
        ("S·S", sparse(20, 10, 23), sparse(10, 6, 24), sparse(20, 6, 26)),
        ("D·S", dense(20, 10, 27), sparse(10, 6, 28), sparse(20, 6, 29)),
        ("S·D", sparse(20, 10, 30), dense(10, 6, 31), dense(20, 6, 32)),
    ] {
        let got = backend.multiply(&a, &b).unwrap();
        if got != REFERENCE.multiply(&a, &b).unwrap() {
            failures.push(format!("{kind}: degraded product differs from REFERENCE"));
        }
        let recorded = kernel_panics(&mut counted);
        if recorded != (vec!["worker panic in parallel backend during multiply".into()], 1) {
            failures.push(format!("{kind}: multiply left {recorded:?}"));
        }
        let tgot = backend.transpose_multiply(&a, &bt).unwrap();
        if tgot != REFERENCE.transpose_multiply(&a, &bt).unwrap() {
            failures.push(format!("{kind}: degraded transpose-product differs from REFERENCE"));
        }
        // A sparse left operand is transposed (O(nnz)) and multiplied.
        let op = if a.is_sparse() { "multiply" } else { "transpose_multiply" };
        let recorded = kernel_panics(&mut counted);
        if recorded != (vec![format!("worker panic in parallel backend during {op}")], 1) {
            failures.push(format!("{kind}: transpose_multiply left {recorded:?}"));
        }
    }
    std::panic::set_hook(hook);
    assert!(failures.is_empty(), "{failures:#?}");
}
