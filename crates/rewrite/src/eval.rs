//! Expression evaluation on the `hadad-linalg` backends: the execution hook
//! the optimizer uses to check a rewriting's output against the original
//! (machine-checkable soundness, paper Theorem 8.1) and the substrate the
//! benchmarks time.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use hadad_core::{Expr, OpKind, UnaryOp};
use hadad_linalg::ops::{aggregates, structural};
use hadad_linalg::{decomp, default_backend, ExecBackend, LinalgError, Matrix};

/// Named matrix bindings for evaluation. A clone shares the bound
/// matrices: an environment extended per call (a view materialized, a
/// cast lent for verification) copies names, not matrices.
#[derive(Debug, Clone, Default)]
pub struct Env {
    bindings: HashMap<String, Arc<Matrix>>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` to a matrix, replacing any prior binding.
    pub fn bind(&mut self, name: impl Into<String>, m: Matrix) -> &mut Self {
        self.bindings.insert(name.into(), Arc::new(m));
        self
    }

    /// Removes and returns the matrix bound to `name` (a copy while a
    /// clone of this environment still shares it).
    pub fn unbind(&mut self, name: &str) -> Option<Matrix> {
        let m = self.bindings.remove(name)?;
        Some(Arc::try_unwrap(m).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Matrix bound to `name`.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.bindings.get(name).map(|m| &**m)
    }
}

/// Evaluation failure.
#[derive(Debug)]
pub enum EvalError {
    /// The expression references a matrix the environment does not bind.
    Unbound(String),
    /// A scalar position held a non-1x1 matrix.
    NonScalar(String),
    /// Kernel-level failure (shape mismatch, singular matrix, ...).
    Linalg(LinalgError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Unbound(n) => write!(f, "unbound matrix {n}"),
            EvalError::NonScalar(e) => write!(f, "non-scalar multiplier in {e}"),
            EvalError::Linalg(e) => write!(f, "linalg error: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<LinalgError> for EvalError {
    fn from(e: LinalgError) -> Self {
        EvalError::Linalg(e)
    }
}

/// Evaluates `e` under `env` on the process-default execution backend (the
/// shared `Parallel` instance) — see [`eval_with`].
pub fn eval(e: &Expr, env: &Env) -> Result<Matrix, EvalError> {
    eval_with(e, env, default_backend())
}

/// Evaluates `e` under `env`, dispatching products through `backend` and
/// everything else to the shared dense/sparse kernels. Plans the extractor
/// resugars to `tr(A)·B` route to the backend's fused transpose-multiply
/// instead of materializing the transpose. `qr.Q`/`qr.R` (and
/// `lu.L`/`lu.U`) of the same operand share one factorization per call;
/// other repeated subexpressions are re-evaluated (general CSE is a
/// ROADMAP item).
pub fn eval_with(e: &Expr, env: &Env, backend: &dyn ExecBackend) -> Result<Matrix, EvalError> {
    let mut memo: HashMap<String, Matrix> = HashMap::new();
    eval_memo(e, env, backend, &mut memo).map(Cow::into_owned)
}

/// QR/LU factorizations memoized per input subexpression, so an
/// expression using both components factors once, matching how the
/// encoder shares one VREM fact for the pair. `op.out()` picks the
/// component.
fn decomp_pair(
    op: UnaryOp,
    a: &Expr,
    env: &Env,
    backend: &dyn ExecBackend,
    memo: &mut HashMap<String, Matrix>,
) -> Result<Matrix, EvalError> {
    let tag = op.kind().pred_name();
    let keys = [format!("{tag}.1({a})"), format!("{tag}.2({a})")];
    if let Some(m) = memo.get(&keys[op.out()]) {
        return Ok(m.clone());
    }
    let input = eval_memo(a, env, backend, memo)?;
    let (c1, c2) =
        if op.kind() == OpKind::Qr { decomp::qr::qr(&input)? } else { decomp::lu::lu(&input)? };
    let [k1, k2] = keys;
    let out = if op.out() == 0 { c1.clone() } else { c2.clone() };
    memo.insert(k1, Matrix::Dense(c1));
    memo.insert(k2, Matrix::Dense(c2));
    Ok(Matrix::Dense(out))
}

/// The value of `e`: a bound matrix is borrowed from `env` (a leaf costs
/// nothing, whatever its size), a computed node is owned.
fn eval_memo<'e>(
    e: &Expr,
    env: &'e Env,
    backend: &dyn ExecBackend,
    memo: &mut HashMap<String, Matrix>,
) -> Result<Cow<'e, Matrix>, EvalError> {
    use Expr::*;
    let mut go = |x: &Expr| eval_memo(x, env, backend, memo);
    Ok(Cow::Owned(match e {
        Mat(n) => {
            return env
                .get(n)
                .map(Cow::Borrowed)
                .ok_or_else(|| EvalError::Unbound(n.to_string()))
        }
        Const(v) => Matrix::scalar(*v),
        Identity(n) => Matrix::identity(*n),
        Zero(r, c) => Matrix::zeros(*r, *c),
        Add(a, b) => go(a)?.add(&*go(b)?)?,
        Sub(a, b) => go(a)?.sub(&*go(b)?)?,
        // Rewrite-aware fusion: a resugared `tr(A)·B` never materializes
        // the transpose — the backend's fused kernel reads `A` in place.
        Mul(a, b) => match a.as_ref() {
            Unary(op, inner) if op.kind() == OpKind::Transpose => {
                let lhs = go(inner)?;
                let rhs = go(b)?;
                backend.transpose_multiply(&lhs, &rhs)?
            }
            _ => {
                let lhs = go(a)?;
                let rhs = go(b)?;
                backend.multiply(&lhs, &rhs)?
            }
        },
        Hadamard(a, b) => go(a)?.hadamard(&*go(b)?)?,
        Div(a, b) => go(a)?.divide(&*go(b)?)?,
        Kron(a, b) => structural::kronecker(&*go(a)?, &*go(b)?),
        DirectSum(a, b) => structural::direct_sum(&*go(a)?, &*go(b)?),
        ScalarMul(s, a) => {
            let sv = go(s)?.as_scalar().ok_or_else(|| EvalError::NonScalar(e.to_string()))?;
            go(a)?.scalar_mul(sv)
        }
        Unary(op, a) => match op.kind() {
            OpKind::Qr | OpKind::Lu => decomp_pair(*op, a, env, backend, memo)?,
            kind => unary(kind, &*go(a)?)?,
        },
    }))
}

/// The single-output unary operator `kind` applied to `x`.
fn unary(kind: OpKind, x: &Matrix) -> Result<Matrix, EvalError> {
    use OpKind::*;
    Ok(match kind {
        Transpose => x.transpose(),
        Inv => x.inverse()?,
        Adj => decomp::adjugate::adjugate(x)?,
        Exp => decomp::exp::matrix_exp(x)?,
        Diag => structural::diag(x)?,
        Rev => structural::reverse_rows(x),
        RowSums => aggregates::row_sums(x),
        ColSums => aggregates::col_sums(x),
        RowMeans => aggregates::row_means(x),
        ColMeans => aggregates::col_means(x),
        RowMin => aggregates::row_min(x),
        RowMax => aggregates::row_max(x),
        ColMin => aggregates::col_min(x),
        ColMax => aggregates::col_max(x),
        RowVar => aggregates::row_var(x),
        ColVar => aggregates::col_var(x),
        Det => Matrix::scalar(x.det()?),
        Trace => Matrix::scalar(x.trace()?),
        Sum => Matrix::scalar(x.sum()),
        Min => Matrix::scalar(aggregates::min(x)),
        Max => Matrix::scalar(aggregates::max(x)),
        Mean => Matrix::scalar(aggregates::mean(x)),
        Var => Matrix::scalar(aggregates::var(x)),
        Cho => Matrix::Dense(decomp::cholesky::cholesky(x)?),
        Qr | Lu | Add | Mul | Hadamard | Div | ScalarMul | Kron | DirectSum => {
            unreachable!("{kind:?} is not a single-output unary operator")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadad_core::expr::dsl::*;
    use hadad_linalg::{approx_eq, rand_gen};

    #[test]
    fn evaluates_arithmetic() {
        let mut env = Env::new();
        env.bind("A", Matrix::dense(2, 2, vec![1., 2., 3., 4.]));
        env.bind("B", Matrix::dense(2, 2, vec![5., 6., 7., 8.]));
        let sum = eval(&add(m("A"), m("B")), &env).unwrap();
        assert_eq!(sum.get(0, 0), 6.0);
        let prod = eval(&mul(m("A"), m("B")), &env).unwrap();
        assert_eq!(prod.get(0, 0), 19.0);
        let d = eval(&sub(m("A"), m("B")), &env).unwrap();
        assert_eq!(d.get(1, 1), -4.0);
    }

    #[test]
    fn scalar_positions_are_checked() {
        let mut env = Env::new();
        env.bind("A", Matrix::dense(2, 2, vec![1., 2., 3., 4.]));
        assert!(matches!(eval(&smul(m("A"), m("A")), &env), Err(EvalError::NonScalar(_))));
        assert!(matches!(eval(&m("missing"), &env), Err(EvalError::Unbound(_))));
    }

    #[test]
    fn transpose_product_routes_to_fused_kernel() {
        use hadad_linalg::{ExecBackend, Parallel, REFERENCE};
        let mut env = Env::new();
        env.bind("A", Matrix::Dense(rand_gen::random_dense(6, 4, 1)));
        env.bind("B", Matrix::Dense(rand_gen::random_dense(6, 3, 2)));
        let e = mul(t(m("A")), m("B"));
        let backend = Parallel::with_threads(2);
        let got = eval_with(&e, &env, &backend).unwrap();
        assert_eq!(backend.fused_tmul_calls(), 1, "resugared tr(A)·B must fuse");
        assert_eq!(got, eval_with(&e, &env, &REFERENCE).unwrap());
        // A bare transpose (no product on top) still materializes.
        let bare = eval_with(&t(m("A")), &env, &backend).unwrap();
        assert_eq!(backend.fused_tmul_calls(), 1);
        assert_eq!(bare.shape(), (4, 6));
    }

    #[test]
    fn decompositions_recompose() {
        let mut env = Env::new();
        let d = Matrix::Dense(rand_gen::random_invertible(8, 3));
        env.bind("D", d.clone());
        let qr = |out| Expr::Unary(UnaryOp::new(OpKind::Qr, out).unwrap(), Arc::new(m("D")));
        let q_r = eval(&mul(qr(0), qr(1)), &env).unwrap();
        assert!(approx_eq(&q_r, &d, 1e-9));
    }
}
