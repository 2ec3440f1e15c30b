//! The LA instance of the chase's e-class analysis
//! ([`hadad_chase::Analysis`]): every class's shape, kept in a vector
//! indexed by node id beside the chased instance instead of as facts the
//! chase would have to derive, carry and index.
//!
//! * The encoders seed it: every class they create gets the shape the
//!   estimator's one-level step computes for it.
//! * `make` gives a class a chase firing mints its shape from
//!   [`op_stats`] over its operands.
//! * A firing of a registered view's `V_IO`/`V_OI` rules gives the classes
//!   it concludes on the shapes of the view definition's classes: the
//!   view's own class and, through `V_OI`, the definition's
//!   subexpressions ([`crate::catalogue::ViewRules`]).
//! * `join` refuses to merge classes of different shapes — a typed
//!   conflict instead of a silent pick.
//! * The guard `square(A)` (`inv-mul`'s "A square") holds when `A`'s shape
//!   is square.
//!
//! Nothing else is kept per class. What a plan costs follows from the
//! e-nodes extraction picks for it ([`crate::extract`]).

use std::ops::Range;
use std::sync::Arc;

use hadad_chase::{Analysis, AnalysisConflict, Atom, Bindings, Instance, NodeId, PredId, Term};

use crate::schema::{OpKind, Vrem};
use crate::stats::{op_stats, ClassStats};

/// What the analysis knows of one class: its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassData {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
}

impl ClassData {
    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl From<ClassStats> for ClassData {
    /// An estimate's shape.
    fn from(stats: ClassStats) -> Self {
        ClassData { rows: stats.rows, cols: stats.cols }
    }
}

/// Shapes of a chased VREM instance.
#[derive(Debug, Clone)]
pub struct LaAnalysis {
    /// Indexed by `NodeId.0`; a class's data sits at its union-find root.
    classes: Vec<Option<ClassData>>,
    /// Operator kind of each predicate ([`Vrem::kind_of`]).
    kinds: Arc<[Option<OpKind>]>,
    /// The `square` guard predicate.
    square: PredId,
    /// Rules whose firings give known shapes to the classes they conclude
    /// on — a view's `V_IO`/`V_OI` pair — and those shapes by CQ variable.
    views: Vec<(Range<usize>, Vec<Option<ClassData>>)>,
}

impl LaAnalysis {
    /// The analysis over classes of `vrem`, seeded with what an encoder
    /// knew of them ([`crate::Encoded::classes`]).
    pub fn new(vrem: &Vrem, classes: Vec<Option<ClassData>>) -> Self {
        LaAnalysis { classes, kinds: vrem.kinds(), square: vrem.square, views: Vec::new() }
    }

    /// Makes every firing of a rule in `rules` give `classes[v]` to the
    /// class its conclusion binds variable `v` to, where that class has no
    /// shape yet (a view's [`crate::catalogue::ViewRules`], once chased at
    /// those indexes).
    pub fn with_view(mut self, rules: Range<usize>, classes: Vec<Option<ClassData>>) -> Self {
        self.views.push((rules, classes));
        self
    }

    /// The data by node id, for a seed handed on to a later analysis.
    pub(crate) fn into_classes(self) -> Vec<Option<ClassData>> {
        self.classes
    }

    /// What is known of the class rooted at `root`.
    pub fn class(&self, root: NodeId) -> Option<ClassData> {
        self.classes.get(root.0 as usize).copied().flatten()
    }

    fn grow(&mut self, inst: &Instance) {
        if self.classes.len() < inst.num_nodes() {
            self.classes.resize(inst.num_nodes(), None);
        }
    }

    /// A new class's shape from its operator.
    fn make_op(&mut self, kind: OpKind, args: &[NodeId]) {
        let n_in = kind.num_inputs();
        let (Some(a), Some(b)) = (self.class(args[0]), self.class(args[n_in - 1])) else {
            return;
        };
        let child = [ClassStats::dense(a.rows, a.cols), ClassStats::dense(b.rows, b.cols)];
        for (out_idx, out) in args[n_in..].iter().enumerate() {
            let slot = &mut self.classes[out.0 as usize];
            if slot.is_none() {
                *slot = Some(op_stats(kind, out_idx, &child[..n_in]).into());
            }
        }
    }
}

impl Analysis for LaAnalysis {
    fn make(&mut self, inst: &Instance, rule: usize, atom: &Atom, fact: usize) {
        self.grow(inst);
        let args = &inst.fact(fact).args;
        if let Some((_, known)) = self.views.iter().find(|(rules, _)| rules.contains(&rule)) {
            for (term, &class) in atom.args.iter().zip(args) {
                let data = term.as_var().and_then(|x| known.get(x as usize)).copied().flatten();
                let slot = &mut self.classes[class.0 as usize];
                if slot.is_none() {
                    *slot = data;
                }
            }
        }
        if let Some(kind) = self.kinds.get(atom.pred.0 as usize).copied().flatten() {
            self.make_op(kind, args);
        }
    }

    fn join(
        &mut self,
        inst: &Instance,
        root: NodeId,
        absorbed: NodeId,
    ) -> Result<(), AnalysisConflict> {
        self.grow(inst);
        let (a, b) = (self.class(root), self.class(absorbed));
        if let (Some(x), Some(y)) = (a, b) {
            if x != y {
                hadad_obs::event(
                    "analysis.join",
                    hadad_obs::Severity::Warn,
                    format!(
                        "a constraint equated a {}x{} matrix with a {}x{} one",
                        x.rows, x.cols, y.rows, y.cols
                    ),
                );
                return Err(AnalysisConflict { root, absorbed });
            }
        }
        self.classes[root.0 as usize] = a.or(b);
        Ok(())
    }

    fn guard(&self, inst: &Instance, guard: &Atom, bindings: &Bindings) -> bool {
        let [Term::Var(v)] = guard.args[..] else { return false };
        guard.pred == self.square
            && bindings
                .get(v)
                .and_then(|n| self.class(inst.find(n)))
                .is_some_and(|c| c.rows == c.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `op(inputs…, outputs…)` over fresh classes of the given shapes,
    /// made by the analysis: the outputs' data.
    fn made(kind: OpKind, shapes: &[(usize, usize)]) -> Vec<Option<ClassData>> {
        let vrem = Vrem::new();
        let mut inst = Instance::new();
        let mut classes = Vec::new();
        let mut args = Vec::new();
        for &(rows, cols) in shapes {
            args.push(inst.fresh_null());
            classes.push(Some(ClassData { rows, cols }));
        }
        for _ in kind.num_inputs()..kind.arity() {
            args.push(inst.fresh_null());
        }
        let terms = (0..args.len() as u32).map(Term::Var).collect();
        let atom = Atom::new(vrem.op(kind), terms);
        let (fact, _) = inst.insert(atom.pred, args.clone());
        let mut analysis = LaAnalysis::new(&vrem, classes);
        analysis.make(&inst, 0, &atom, fact);
        args[kind.num_inputs()..].iter().map(|&out| analysis.class(out)).collect()
    }

    /// Every operator gives the class it outputs a shape — `op_stats`'s —
    /// Kronecker products and direct sums included.
    #[test]
    fn make_shapes_every_operator() {
        for &kind in OpKind::all() {
            let square = (4, 4);
            let shapes: &[(usize, usize)] = match kind {
                OpKind::ScalarMul => &[(1, 1), (3, 5)],
                OpKind::Kron | OpKind::DirectSum => &[(2, 3), (4, 5)],
                _ if kind.num_inputs() == 2 => &[square, square],
                OpKind::Transpose | OpKind::Rev => &[(3, 5)],
                _ => &[square],
            };
            let child: Vec<ClassStats> =
                shapes.iter().map(|&(r, c)| ClassStats::dense(r, c)).collect();
            for (out_idx, out) in made(kind, shapes).into_iter().enumerate() {
                let out =
                    out.unwrap_or_else(|| panic!("{kind:?} output {out_idx} has no data"));
                assert_eq!(out.shape(), op_stats(kind, out_idx, &child).shape(), "{kind:?}");
            }
        }
    }

    #[test]
    fn join_refuses_a_shape_conflict() {
        let vrem = Vrem::new();
        let mut inst = Instance::new();
        let n: Vec<NodeId> = (0..3).map(|_| inst.fresh_null()).collect();
        let data = |rows, cols| Some(ClassData { rows, cols });
        let mut analysis = LaAnalysis::new(&vrem, vec![None, data(3, 5), data(5, 3)]);
        let root = inst.merge(n[0], n[1]).unwrap();
        analysis.join(&inst, root, if root == n[0] { n[1] } else { n[0] }).unwrap();
        assert_eq!(analysis.class(root), data(3, 5), "an unknown shape takes the known one");
        let conflict = analysis.join(&inst, root, n[2]).unwrap_err();
        assert_eq!((conflict.root, conflict.absorbed), (root, n[2]));
    }
}
