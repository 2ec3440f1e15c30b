//! Kernel fault containment, in its own test binary: the `linalg.kernel`
//! failpoint and the panic hook are process-global, so arming them beside
//! the crate's unit tests would silently degrade every concurrent kernel
//! call to `REFERENCE`.

use hadad_linalg::{rand_gen, take_backend_panics, ExecBackend, Matrix, Parallel, REFERENCE};

fn dense(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::Dense(rand_gen::random_dense(r, c, seed))
}

fn sparse(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::Sparse(rand_gen::random_sparse(r, c, 0.15, seed))
}

#[test]
fn kernel_panic_degrades_to_reference_with_event() {
    let _fp = hadad_failpoint::scoped("linalg.kernel", hadad_failpoint::FailAction::Panic);
    // Silence the default panic hook for the injected worker panics.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    take_backend_panics();
    let backend = Parallel::with_threads(2);
    // bt shares a's row count so `aᵀ · bt` is well-shaped.
    for (a, b, bt) in [
        (dense(20, 10, 21), dense(10, 6, 22), dense(20, 6, 25)),
        (sparse(20, 10, 23), sparse(10, 6, 24), sparse(20, 6, 26)),
    ] {
        let got = backend.multiply(&a, &b).unwrap();
        assert_eq!(got, REFERENCE.multiply(&a, &b).unwrap());
        let tgot = backend.transpose_multiply(&a, &bt).unwrap();
        assert_eq!(tgot, REFERENCE.transpose_multiply(&a, &bt).unwrap());
    }
    std::panic::set_hook(hook);
    let events = take_backend_panics();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.backend == "parallel"));
    assert!(events.iter().any(|e| e.op == "multiply"));
    assert!(events.iter().any(|e| e.op == "transpose_multiply"));
}
