//! The LA instance of the chase's e-class analysis
//! ([`hadad_chase::Analysis`]): every class's shape and estimated density,
//! kept in a vector indexed by node id beside the chased instance instead
//! of as facts the chase would have to derive, carry and index.
//!
//! * The encoders seed it: every class they create gets the stats the
//!   estimator's one-level step computes for it.
//! * `make` gives a class a chase firing mints its shape from
//!   [`op_stats`] over its operands. Densities are set only where an
//!   estimate is exact — a transpose, `rev` or scalar · M copies its
//!   operand's density (onto an existing class too, keeping the lower) —
//!   so other chase-created classes have none, and extraction prices them
//!   from their operands (see [`crate::extract`]).
//! * A firing of a registered view's `V_IO`/`V_OI` rules joins the stats
//!   of the view definition's classes into the classes it concludes on:
//!   the view's own class and, through `V_OI`, the definition's
//!   subexpressions ([`crate::catalogue::ViewRules`]).
//! * `join` keeps the lower of two densities and refuses to merge classes
//!   of different shapes — a typed conflict instead of a silent pick.
//! * The guard `square(A)` (`inv-mul`'s "A square") holds when `A`'s shape
//!   is square.
//!
//! Densities are kept quantized to parts per million ([`DENSITY_SCALE`]),
//! so extraction prices classes with exactly the values a fact-based
//! encoding of them would carry.

use std::ops::Range;
use std::sync::Arc;

use hadad_chase::{Analysis, AnalysisConflict, Atom, Bindings, Instance, NodeId, PredId, Term};

use crate::schema::{OpKind, Vrem, DENSITY_SCALE};
use crate::stats::{op_stats, ClassStats};

/// What the analysis knows of one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassData {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Estimated non-zero fraction in parts per million, if the class has
    /// an estimate (see the module docs for which classes do).
    pub density: Option<f64>,
}

impl ClassData {
    /// An estimate's shape, with its density quantized to ppm.
    pub fn estimated(stats: ClassStats) -> Self {
        let ppm = (stats.density.clamp(0.0, 1.0) * DENSITY_SCALE).round();
        ClassData { rows: stats.rows, cols: stats.cols, density: Some(ppm / DENSITY_SCALE) }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// The lower of two optional densities; an unknown one loses to any.
fn lower(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Shapes and densities of a chased VREM instance.
#[derive(Debug, Clone)]
pub struct LaAnalysis {
    /// Indexed by `NodeId.0`; a class's data sits at its union-find root.
    classes: Vec<Option<ClassData>>,
    /// Operator kind of each predicate ([`Vrem::kind_of`]).
    kinds: Arc<[Option<OpKind>]>,
    /// The operators that copy an operand's density, with that operand's
    /// position: transpose, `rev`, scalar · M.
    copies: [(PredId, usize); 3],
    /// The `square` guard predicate.
    square: PredId,
    /// Rules whose firings join known stats into the classes they
    /// conclude on — a view's `V_IO`/`V_OI` pair — and those stats by CQ
    /// variable.
    views: Vec<(Range<usize>, Vec<Option<ClassData>>)>,
}

impl LaAnalysis {
    /// The analysis over classes of `vrem`, seeded with what an encoder
    /// knew of them ([`crate::Encoded::classes`]).
    pub fn new(vrem: &Vrem, classes: Vec<Option<ClassData>>) -> Self {
        LaAnalysis {
            classes,
            kinds: vrem.kinds(),
            copies: [
                (vrem.op(OpKind::Transpose), 0),
                (vrem.op(OpKind::Rev), 0),
                (vrem.op(OpKind::ScalarMul), 1),
            ],
            square: vrem.square,
            views: Vec::new(),
        }
    }

    /// Makes every firing of a rule in `rules` join `classes[v]` into the
    /// class its conclusion binds variable `v` to (a view's
    /// [`crate::catalogue::ViewRules`], once chased at those indexes).
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

    /// A new class's shape from its operator; a density copied from the
    /// operand where the operator preserves it.
    fn make_op(&mut self, inst: &Instance, kind: OpKind, args: &[NodeId]) {
        let n_in = kind.num_inputs();
        let (Some(a), Some(b)) = (self.class(args[0]), self.class(args[n_in - 1])) else {
            return;
        };
        let child = [ClassStats::dense(a.rows, a.cols), ClassStats::dense(b.rows, b.cols)];
        for (out_idx, out) in args[n_in..].iter().enumerate() {
            let slot = &mut self.classes[out.0 as usize];
            if slot.is_none() {
                let (rows, cols) = op_stats(kind, out_idx, &child[..n_in]).shape();
                *slot = Some(ClassData { rows, cols, density: None });
            }
        }
        let source = match kind {
            OpKind::Transpose | OpKind::Rev => a,
            OpKind::ScalarMul => b,
            _ => return,
        };
        if let Some(d) = source.density {
            if self.lower_density(args[n_in], d) {
                self.pass_on(inst, args[n_in], d);
            }
        }
    }

    /// Lowers the class's density to `d` where it is higher or unknown.
    fn lower_density(&mut self, class: NodeId, d: f64) -> bool {
        match &mut self.classes[class.0 as usize] {
            Some(data) if data.density.is_none_or(|cur| d < cur) => {
                data.density = Some(d);
                true
            }
            _ => false,
        }
    }

    /// Passes a class's new density `d` on to every transpose, `rev` and
    /// scalar · M of it, and on from each of those it lowered.
    fn pass_on(&mut self, inst: &Instance, class: NodeId, d: f64) {
        let mut lowered = vec![class];
        while let Some(c) = lowered.pop() {
            for (pred, operand) in self.copies {
                for &i in inst.facts_with_pred(pred) {
                    let f = inst.fact(i);
                    let out = inst.find(f.args[f.args.len() - 1]);
                    if inst.find(f.args[operand]) == c && self.lower_density(out, d) {
                        lowered.push(out);
                    }
                }
            }
        }
    }
}

impl Analysis for LaAnalysis {
    fn make(&mut self, inst: &Instance, rule: usize, atom: &Atom, fact: usize) {
        self.grow(inst);
        let args = &inst.fact(fact).args;
        if let Some(v) = self.views.iter().position(|(rules, _)| rules.contains(&rule)) {
            for (term, &class) in atom.args.iter().zip(args) {
                let known = term.as_var().and_then(|x| self.views[v].1.get(x as usize));
                let Some(&Some(data)) = known else { continue };
                let slot = &mut self.classes[class.0 as usize];
                match slot {
                    None => *slot = Some(data),
                    Some(_) => {
                        if let Some(d) = data.density {
                            if self.lower_density(class, d) {
                                self.pass_on(inst, class, d);
                            }
                        }
                    }
                }
            }
        }
        if let Some(kind) = self.kinds.get(atom.pred.0 as usize).copied().flatten() {
            self.make_op(inst, kind, args);
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
        let joined = match (a, b) {
            (Some(x), Some(y)) if x.shape() != y.shape() => {
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
            (Some(x), Some(y)) => Some(ClassData { density: lower(x.density, y.density), ..x }),
            (x, y) => x.or(y),
        };
        self.classes[root.0 as usize] = joined;
        // A side the join lowered passes the new estimate on to its copies.
        if let Some(d) = joined.and_then(|j| j.density) {
            if [a, b].iter().any(|side| side.and_then(|s| s.density) != Some(d)) {
                self.pass_on(inst, root, d);
            }
        }
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

    /// `op(inputs…, outputs…)` over fresh classes of the given shapes
    /// (densities known), made by the analysis: the outputs' data.
    fn made(kind: OpKind, shapes: &[(usize, usize)]) -> Vec<Option<ClassData>> {
        let vrem = Vrem::new();
        let mut inst = Instance::new();
        let mut classes = Vec::new();
        let mut args = Vec::new();
        for &(rows, cols) in shapes {
            args.push(inst.fresh_null());
            classes.push(Some(ClassData { rows, cols, density: Some(0.25) }));
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
    /// Kronecker products and direct sums included; only the operators
    /// that preserve density exactly give it one.
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
                let copies =
                    matches!(kind, OpKind::Transpose | OpKind::Rev | OpKind::ScalarMul);
                assert_eq!(out.density, copies.then_some(0.25), "{kind:?}");
            }
        }
    }

    #[test]
    fn join_keeps_the_lower_density_and_refuses_a_shape_conflict() {
        let vrem = Vrem::new();
        let mut inst = Instance::new();
        let n: Vec<NodeId> = (0..4).map(|_| inst.fresh_null()).collect();
        let data = |rows, cols, density| Some(ClassData { rows, cols, density });
        let mut analysis = LaAnalysis::new(
            &vrem,
            vec![
                data(3, 5, Some(0.5)),
                data(3, 5, Some(0.125)),
                data(3, 5, None),
                data(5, 3, None),
            ],
        );
        let root = inst.merge(n[0], n[1]).unwrap();
        analysis.join(&inst, root, if root == n[0] { n[1] } else { n[0] }).unwrap();
        assert_eq!(analysis.class(root), data(3, 5, Some(0.125)));
        let old = root;
        let root = inst.merge(old, n[2]).unwrap();
        analysis.join(&inst, root, if root == old { n[2] } else { old }).unwrap();
        assert_eq!(analysis.class(root).unwrap().density, Some(0.125), "unknown loses");
        let conflict = analysis.join(&inst, root, n[3]).unwrap_err();
        assert_eq!((conflict.root, conflict.absorbed), (root, n[3]));
    }

    #[test]
    fn estimates_are_quantized_to_ppm() {
        let d = ClassData::estimated(ClassStats { rows: 3, cols: 3, density: 1.0 / 3.0 });
        assert_eq!(d.density, Some(333_333.0 / DENSITY_SCALE));
        let over = ClassData::estimated(ClassStats { rows: 1, cols: 1, density: 1.5 });
        assert_eq!(over.density, Some(1.0));
    }
}
