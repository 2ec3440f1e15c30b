//! Expression evaluation on the `hadad-linalg` backends: the execution hook
//! the optimizer uses to check a rewriting's output against the original
//! (machine-checkable soundness, paper Theorem 8.1) and the substrate the
//! benchmarks time.

use std::borrow::Cow;
use std::collections::HashMap;

use hadad_core::Expr;
use hadad_linalg::ops::{aggregates, structural};
use hadad_linalg::{decomp, default_backend, ExecBackend, LinalgError, Matrix};

/// Named matrix bindings for evaluation.
#[derive(Debug, Clone, Default)]
pub struct Env {
    bindings: HashMap<String, Matrix>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `name` to a matrix, replacing any prior binding.
    pub fn bind(&mut self, name: impl Into<String>, m: Matrix) -> &mut Self {
        self.bindings.insert(name.into(), m);
        self
    }

    /// Removes and returns the matrix bound to `name`.
    pub fn unbind(&mut self, name: &str) -> Option<Matrix> {
        self.bindings.remove(name)
    }

    /// Matrix bound to `name`.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.bindings.get(name)
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
/// encoder shares one VREM fact for the pair.
fn decomp_pair(
    e: &Expr,
    a: &Expr,
    env: &Env,
    backend: &dyn ExecBackend,
    memo: &mut HashMap<String, Matrix>,
) -> Result<Matrix, EvalError> {
    use Expr::*;
    let (tag, first) = match e {
        QrQ(_) => ("QR", true),
        QrR(_) => ("QR", false),
        LuL(_) => ("LU", true),
        _ => ("LU", false),
    };
    let (key1, key2) = (format!("{tag}.1({a})"), format!("{tag}.2({a})"));
    let key = if first { key1.clone() } else { key2.clone() };
    if let Some(m) = memo.get(&key) {
        return Ok(m.clone());
    }
    let input = eval_memo(a, env, backend, memo)?;
    let (c1, c2) = if tag == "QR" { decomp::qr::qr(&input)? } else { decomp::lu::lu(&input)? };
    memo.insert(key1, Matrix::Dense(c1));
    memo.insert(key2, Matrix::Dense(c2));
    Ok(memo[&key].clone())
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
            return env.get(n).map(Cow::Borrowed).ok_or_else(|| EvalError::Unbound(n.clone()))
        }
        Const(v) => Matrix::scalar(*v),
        Identity(n) => Matrix::identity(*n),
        Zero(r, c) => Matrix::zeros(*r, *c),
        Add(a, b) => go(a)?.add(&*go(b)?)?,
        Sub(a, b) => go(a)?.sub(&*go(b)?)?,
        // Rewrite-aware fusion: a resugared `tr(A)·B` never materializes
        // the transpose — the backend's fused kernel reads `A` in place.
        Mul(a, b) => match a.as_ref() {
            Transpose(inner) => {
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
        Transpose(a) => go(a)?.transpose(),
        Inv(a) => go(a)?.inverse()?,
        Adj(a) => decomp::adjugate::adjugate(&*go(a)?)?,
        Exp(a) => decomp::exp::matrix_exp(&*go(a)?)?,
        Diag(a) => structural::diag(&*go(a)?)?,
        Rev(a) => structural::reverse_rows(&*go(a)?),
        RowSums(a) => aggregates::row_sums(&*go(a)?),
        ColSums(a) => aggregates::col_sums(&*go(a)?),
        RowMeans(a) => aggregates::row_means(&*go(a)?),
        ColMeans(a) => aggregates::col_means(&*go(a)?),
        RowMin(a) => aggregates::row_min(&*go(a)?),
        RowMax(a) => aggregates::row_max(&*go(a)?),
        ColMin(a) => aggregates::col_min(&*go(a)?),
        ColMax(a) => aggregates::col_max(&*go(a)?),
        RowVar(a) => aggregates::row_var(&*go(a)?),
        ColVar(a) => aggregates::col_var(&*go(a)?),
        Det(a) => Matrix::scalar(go(a)?.det()?),
        Trace(a) => Matrix::scalar(go(a)?.trace()?),
        Sum(a) => Matrix::scalar(go(a)?.sum()),
        Min(a) => Matrix::scalar(aggregates::min(&*go(a)?)),
        Max(a) => Matrix::scalar(aggregates::max(&*go(a)?)),
        Mean(a) => Matrix::scalar(aggregates::mean(&*go(a)?)),
        Var(a) => Matrix::scalar(aggregates::var(&*go(a)?)),
        Cho(a) => Matrix::Dense(decomp::cholesky::cholesky(&*go(a)?)?),
        QrQ(a) | QrR(a) | LuL(a) | LuU(a) => decomp_pair(e, a, env, backend, memo)?,
    }))
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
        let q_r = eval(
            &mul(
                hadad_core::Expr::QrQ(Box::new(m("D"))),
                hadad_core::Expr::QrR(Box::new(m("D"))),
            ),
            &env,
        )
        .unwrap();
        assert!(approx_eq(&q_r, &d, 1e-9));
    }
}
