//! The MMC catalogue: linear-algebra properties as integrity constraints
//! over the VREM schema (paper §6.2.3–§6.2.5, `LAprop`).
//!
//! Three groups:
//! * **Functional EGDs** (`I_<rel>`): every operator relation denotes a
//!   function — equal inputs force equal output classes. These are what
//!   make the chased instance an e-graph.
//! * **Structural TGDs/EGDs**: associativity, commutativity,
//!   distributivity, transpose push-down, trace cyclicity/linearity,
//!   inverse and identity/zero laws. TGD conclusions reuse the premise's
//!   output variable, so the rewritten form lands in the *same* class as
//!   the original — equality is by construction, not by a separate EGD.
//! * **Decomposition rules** (§6.2.5): CHO/QR/LU recomposition and the
//!   structural `type` flags they imply, which is what enables
//!   decomposition *reuse* (a second `QR(M, _, _)` fact merges with a
//!   materialized one through the functional EGDs).
//!
//! Associativity-style rules are fresh-ID generators; the
//! [`hadad_chase::ChaseBudget`] bounds them exactly as the paper's PACB++
//! implementation does (§6.3).

use std::sync::{Arc, OnceLock};

use hadad_chase::{Atom, Constraint, Egd, RuleSet, Term, Tgd};

use crate::encode::CqEncoder;
use crate::expr::Expr;
use crate::schema::{OpKind, Vrem};
use crate::stats::{MetaCatalog, ShapeError};

fn v(i: u32) -> Term {
    Term::Var(i)
}

/// The constraint catalogue, ready to feed a
/// [`hadad_chase::ChaseEngine`].
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// The rule set, in firing order.
    pub constraints: Vec<Constraint>,
}

impl Catalogue {
    /// The full standard catalogue: functional + structural +
    /// decomposition + statistics-propagation constraints.
    pub fn standard(vrem: &mut Vrem) -> Catalogue {
        let mut constraints = Self::functional_egds(vrem);
        constraints.extend(Self::structural_rules(vrem));
        constraints.extend(Self::decomposition_rules(vrem));
        constraints.extend(Self::propagation_rules(vrem));
        Catalogue { constraints }
    }

    /// The standard catalogue as every rewrite reads it: the schema it was
    /// interned into and its compiled rule set, built once per process.
    /// LA properties are a fixed set of constraints; only views add to it,
    /// so a caller clones the [`Vrem`] (its own encoding interns into it),
    /// builds its view rules against the clone, and chases over
    /// [`RuleSet::extended`] — or over the shared set itself when it has
    /// nothing to add. The constraints read back from the compiled rules
    /// ([`hadad_chase::CompiledRule::constraint`]).
    pub fn shared_standard() -> &'static (Vrem, Arc<RuleSet>) {
        static SHARED: OnceLock<(Vrem, Arc<RuleSet>)> = OnceLock::new();
        SHARED.get_or_init(|| {
            let mut vrem = Vrem::new();
            let rules = RuleSet::compile(Catalogue::standard(&mut vrem).constraints);
            (vrem, Arc::new(rules))
        })
    }

    /// Names of all constraints (for tests and diagnostics).
    pub fn names(&self) -> Vec<&str> {
        self.constraints.iter().map(hadad_chase::Constraint::name).collect()
    }

    /// Static analysis of the catalogue (`hadad-analyze`): range
    /// restriction, weak acyclicity modulo conclusion-atom reuse,
    /// functional-signature cross-checks, duplicate detection, and
    /// stats-propagation coverage. `vrem` must be the schema the
    /// constraints were built over. [`hadad_analyze::RuleReport::certified`]
    /// is the registration / CI gate.
    pub fn analyze(&self, vrem: &Vrem) -> hadad_analyze::RuleReport {
        hadad_analyze::Analyzer::new(&self.constraints)
            .with_vocab(&vrem.vocab)
            .with_stats_preds(vec![vrem.size])
            .with_coverage_exempt(vec![
                vrem.name,
                vrem.lit,
                vrem.ty,
                vrem.identity,
                vrem.zero,
                vrem.density,
            ])
            .report()
    }

    /// `I_<rel>`: each operator relation is functional in its outputs.
    pub fn functional_egds(vrem: &mut Vrem) -> Vec<Constraint> {
        let mut out = Vec::new();
        for &kind in OpKind::all() {
            let pred = vrem.op(kind);
            let name = format!("I_{}", kind.pred_name());
            match kind {
                OpKind::Qr | OpKind::Lu => {
                    // P(M, O1, O2) ∧ P(M, O3, O4) → O1 = O3 ∧ O2 = O4.
                    out.push(
                        Egd::new(
                            name,
                            vec![
                                Atom::new(pred, vec![v(0), v(1), v(2)]),
                                Atom::new(pred, vec![v(0), v(3), v(4)]),
                            ],
                            vec![(v(1), v(3)), (v(2), v(4))],
                        )
                        .into(),
                    );
                }
                _ => out.push(Egd::functional(name, pred, kind.arity()).into()),
            }
        }
        out
    }

    /// Associativity, commutativity, distributivity, transpose push-down,
    /// trace properties, inverse and identity/zero laws.
    // One `push` per law keeps each rule next to its comment; a single
    // `vec![]` literal would bury them.
    #[allow(clippy::vec_init_then_push)]
    pub fn structural_rules(vrem: &mut Vrem) -> Vec<Constraint> {
        let mul = vrem.op(OpKind::Mul);
        let add = vrem.op(OpKind::Add);
        let tr = vrem.op(OpKind::Transpose);
        let inv = vrem.op(OpKind::Inv);
        let trace = vrem.op(OpKind::Trace);
        let smul = vrem.op(OpKind::ScalarMul);
        let size = vrem.size;
        let identity = vrem.identity;
        let zero = vrem.zero;
        let ty = vrem.ty;
        let sym_s = vrem.vocab.constant("S");
        let sym_o = vrem.vocab.constant("O");

        let mut out: Vec<Constraint> = Vec::new();

        // A name (or a scalar literal) denotes one matrix: two classes
        // carrying the same `name`/`lit` constant are value-equal. This is
        // what merges the fresh classes a view expansion (`V_OI`) creates
        // with the query's own leaf classes.
        let name = vrem.name;
        let lit = vrem.lit;
        out.push(
            Egd::new(
                "name-unique",
                vec![Atom::new(name, vec![v(0), v(2)]), Atom::new(name, vec![v(1), v(2)])],
                vec![(v(0), v(1))],
            )
            .into(),
        );
        out.push(
            Egd::new(
                "lit-unique",
                vec![Atom::new(lit, vec![v(0), v(2)]), Atom::new(lit, vec![v(1), v(2)])],
                vec![(v(0), v(1))],
            )
            .into(),
        );

        // (A B) C = A (B C) — both directions; the restricted chase stops
        // once every regrouping of a chain is present.
        out.push(
            Tgd::new(
                "mul-assoc-r",
                vec![
                    Atom::new(mul, vec![v(0), v(1), v(2)]),
                    Atom::new(mul, vec![v(2), v(3), v(4)]),
                ],
                vec![
                    Atom::new(mul, vec![v(1), v(3), v(5)]),
                    Atom::new(mul, vec![v(0), v(5), v(4)]),
                ],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "mul-assoc-l",
                vec![
                    Atom::new(mul, vec![v(1), v(3), v(5)]),
                    Atom::new(mul, vec![v(0), v(5), v(4)]),
                ],
                vec![
                    Atom::new(mul, vec![v(0), v(1), v(2)]),
                    Atom::new(mul, vec![v(2), v(3), v(4)]),
                ],
            )
            .into(),
        );

        // A + B = B + A (no existentials).
        out.push(
            Tgd::new(
                "add-comm",
                vec![Atom::new(add, vec![v(0), v(1), v(2)])],
                vec![Atom::new(add, vec![v(1), v(0), v(2)])],
            )
            .into(),
        );
        // (A + B) + C = A + (B + C).
        out.push(
            Tgd::new(
                "add-assoc-r",
                vec![
                    Atom::new(add, vec![v(0), v(1), v(2)]),
                    Atom::new(add, vec![v(2), v(3), v(4)]),
                ],
                vec![
                    Atom::new(add, vec![v(1), v(3), v(5)]),
                    Atom::new(add, vec![v(0), v(5), v(4)]),
                ],
            )
            .into(),
        );

        // trace(A B) = trace(B A).
        out.push(
            Tgd::new(
                "trace-cyclic",
                vec![
                    Atom::new(mul, vec![v(0), v(1), v(2)]),
                    Atom::new(trace, vec![v(2), v(3)]),
                ],
                vec![
                    Atom::new(mul, vec![v(1), v(0), v(4)]),
                    Atom::new(trace, vec![v(4), v(3)]),
                ],
            )
            .into(),
        );
        // trace(Aᵀ) = trace(A) (no existentials).
        out.push(
            Tgd::new(
                "trace-transpose",
                vec![Atom::new(tr, vec![v(0), v(1)]), Atom::new(trace, vec![v(1), v(2)])],
                vec![Atom::new(trace, vec![v(0), v(2)])],
            )
            .into(),
        );
        // trace(A + B) = trace(A) + trace(B) (scalars are 1x1 matrices, so
        // the sum of traces is an addM fact).
        out.push(
            Tgd::new(
                "trace-add",
                vec![
                    Atom::new(add, vec![v(0), v(1), v(2)]),
                    Atom::new(trace, vec![v(2), v(3)]),
                ],
                vec![
                    Atom::new(trace, vec![v(0), v(4)]),
                    Atom::new(trace, vec![v(1), v(5)]),
                    Atom::new(add, vec![v(4), v(5), v(3)]),
                ],
            )
            .into(),
        );

        // (A B)ᵀ = Bᵀ Aᵀ — push-down and pull-up.
        out.push(
            Tgd::new(
                "tr-mul",
                vec![Atom::new(mul, vec![v(0), v(1), v(2)]), Atom::new(tr, vec![v(2), v(3)])],
                vec![
                    Atom::new(tr, vec![v(0), v(4)]),
                    Atom::new(tr, vec![v(1), v(5)]),
                    Atom::new(mul, vec![v(5), v(4), v(3)]),
                ],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "tr-mul-rev",
                vec![
                    Atom::new(tr, vec![v(0), v(4)]),
                    Atom::new(tr, vec![v(1), v(5)]),
                    Atom::new(mul, vec![v(5), v(4), v(3)]),
                ],
                vec![Atom::new(mul, vec![v(0), v(1), v(2)]), Atom::new(tr, vec![v(2), v(3)])],
            )
            .into(),
        );
        // (A + B)ᵀ = Aᵀ + Bᵀ.
        out.push(
            Tgd::new(
                "tr-add",
                vec![Atom::new(add, vec![v(0), v(1), v(2)]), Atom::new(tr, vec![v(2), v(3)])],
                vec![
                    Atom::new(tr, vec![v(0), v(4)]),
                    Atom::new(tr, vec![v(1), v(5)]),
                    Atom::new(add, vec![v(4), v(5), v(3)]),
                ],
            )
            .into(),
        );
        // (s · A)ᵀ = s · Aᵀ.
        out.push(
            Tgd::new(
                "tr-scalar",
                vec![Atom::new(smul, vec![v(0), v(1), v(2)]), Atom::new(tr, vec![v(2), v(3)])],
                vec![Atom::new(tr, vec![v(1), v(4)]), Atom::new(smul, vec![v(0), v(4), v(3)])],
            )
            .into(),
        );
        // (Aᵀ)ᵀ = A.
        out.push(
            Egd::new(
                "tr-involution",
                vec![Atom::new(tr, vec![v(0), v(1)]), Atom::new(tr, vec![v(1), v(2)])],
                vec![(v(2), v(0))],
            )
            .into(),
        );
        // Aᵀ = A for symmetric A.
        out.push(
            Egd::new(
                "tr-symmetric",
                vec![
                    Atom::new(ty, vec![v(0), Term::Const(sym_s)]),
                    Atom::new(tr, vec![v(0), v(1)]),
                ],
                vec![(v(1), v(0))],
            )
            .into(),
        );

        // I A = A and A I = A.
        out.push(
            Egd::new(
                "mul-identity-l",
                vec![Atom::new(identity, vec![v(0)]), Atom::new(mul, vec![v(0), v(1), v(2)])],
                vec![(v(2), v(1))],
            )
            .into(),
        );
        out.push(
            Egd::new(
                "mul-identity-r",
                vec![Atom::new(identity, vec![v(0)]), Atom::new(mul, vec![v(1), v(0), v(2)])],
                vec![(v(2), v(1))],
            )
            .into(),
        );
        // 0 + A = A (commutativity covers A + 0).
        out.push(
            Egd::new(
                "add-zero",
                vec![Atom::new(zero, vec![v(0)]), Atom::new(add, vec![v(0), v(1), v(2)])],
                vec![(v(2), v(1))],
            )
            .into(),
        );
        // 0 A and A 0 are zero.
        out.push(
            Tgd::new(
                "mul-zero-l",
                vec![Atom::new(zero, vec![v(0)]), Atom::new(mul, vec![v(0), v(1), v(2)])],
                vec![Atom::new(zero, vec![v(2)])],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "mul-zero-r",
                vec![Atom::new(zero, vec![v(0)]), Atom::new(mul, vec![v(1), v(0), v(2)])],
                vec![Atom::new(zero, vec![v(2)])],
            )
            .into(),
        );

        // (A⁻¹)⁻¹ = A.
        out.push(
            Egd::new(
                "inv-involution",
                vec![Atom::new(inv, vec![v(0), v(1)]), Atom::new(inv, vec![v(1), v(2)])],
                vec![(v(2), v(0))],
            )
            .into(),
        );
        // A A⁻¹ = I = A⁻¹ A.
        out.push(
            Tgd::new(
                "mul-inv-identity-r",
                vec![Atom::new(inv, vec![v(0), v(1)]), Atom::new(mul, vec![v(0), v(1), v(2)])],
                vec![Atom::new(identity, vec![v(2)])],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "mul-inv-identity-l",
                vec![Atom::new(inv, vec![v(0), v(1)]), Atom::new(mul, vec![v(1), v(0), v(2)])],
                vec![Atom::new(identity, vec![v(2)])],
            )
            .into(),
        );
        // (Aᵀ)⁻¹ = (A⁻¹)ᵀ — both directions.
        out.push(
            Tgd::new(
                "inv-tr",
                vec![Atom::new(tr, vec![v(0), v(1)]), Atom::new(inv, vec![v(1), v(2)])],
                vec![Atom::new(inv, vec![v(0), v(3)]), Atom::new(tr, vec![v(3), v(2)])],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "inv-tr-rev",
                vec![Atom::new(inv, vec![v(0), v(3)]), Atom::new(tr, vec![v(3), v(2)])],
                vec![Atom::new(tr, vec![v(0), v(1)]), Atom::new(inv, vec![v(1), v(2)])],
            )
            .into(),
        );
        // (A B)⁻¹ = B⁻¹ A⁻¹, gated on A square so both factors are
        // invertible-shaped (the paper gates on metadata the same way).
        out.push(
            Tgd::new(
                "inv-mul",
                vec![
                    Atom::new(mul, vec![v(0), v(1), v(2)]),
                    Atom::new(inv, vec![v(2), v(3)]),
                    Atom::new(size, vec![v(0), v(4), v(4)]),
                ],
                vec![
                    Atom::new(inv, vec![v(0), v(5)]),
                    Atom::new(inv, vec![v(1), v(6)]),
                    Atom::new(mul, vec![v(6), v(5), v(3)]),
                ],
            )
            .into(),
        );
        // Q orthogonal ⇒ Q⁻¹ = Qᵀ.
        out.push(
            Egd::new(
                "orthogonal-inv-tr",
                vec![
                    Atom::new(ty, vec![v(0), Term::Const(sym_o)]),
                    Atom::new(tr, vec![v(0), v(1)]),
                    Atom::new(inv, vec![v(0), v(2)]),
                ],
                vec![(v(2), v(1))],
            )
            .into(),
        );
        // Q orthogonal ⇒ Qᵀ Q = I.
        out.push(
            Tgd::new(
                "orthogonal-gram",
                vec![
                    Atom::new(ty, vec![v(0), Term::Const(sym_o)]),
                    Atom::new(tr, vec![v(0), v(1)]),
                    Atom::new(mul, vec![v(1), v(0), v(2)]),
                ],
                vec![Atom::new(identity, vec![v(2)])],
            )
            .into(),
        );

        // A B + A C = A (B + C) and A C + B C = (A + B) C (the
        // factoring direction only: expansion never lowers cost and would
        // blow up the chase).
        out.push(
            Tgd::new(
                "distrib-factor-l",
                vec![
                    Atom::new(mul, vec![v(0), v(1), v(2)]),
                    Atom::new(mul, vec![v(0), v(3), v(4)]),
                    Atom::new(add, vec![v(2), v(4), v(5)]),
                ],
                vec![
                    Atom::new(add, vec![v(1), v(3), v(6)]),
                    Atom::new(mul, vec![v(0), v(6), v(5)]),
                ],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "distrib-factor-r",
                vec![
                    Atom::new(mul, vec![v(0), v(2), v(3)]),
                    Atom::new(mul, vec![v(1), v(2), v(4)]),
                    Atom::new(add, vec![v(3), v(4), v(5)]),
                ],
                vec![
                    Atom::new(add, vec![v(0), v(1), v(6)]),
                    Atom::new(mul, vec![v(6), v(2), v(5)]),
                ],
            )
            .into(),
        );

        // (s · A) B = s · (A B) and A (s · B) = s · (A B).
        out.push(
            Tgd::new(
                "scalar-pull-l",
                vec![
                    Atom::new(smul, vec![v(0), v(1), v(2)]),
                    Atom::new(mul, vec![v(2), v(3), v(4)]),
                ],
                vec![
                    Atom::new(mul, vec![v(1), v(3), v(5)]),
                    Atom::new(smul, vec![v(0), v(5), v(4)]),
                ],
            )
            .into(),
        );
        out.push(
            Tgd::new(
                "scalar-pull-r",
                vec![
                    Atom::new(smul, vec![v(0), v(1), v(2)]),
                    Atom::new(mul, vec![v(3), v(2), v(4)]),
                ],
                vec![
                    Atom::new(mul, vec![v(3), v(1), v(5)]),
                    Atom::new(smul, vec![v(0), v(5), v(4)]),
                ],
            )
            .into(),
        );

        out
    }

    /// `V_IO`/`V_OI` constraints for a registered, materialized LA view
    /// (paper §6.2.4, Figure 3): `V_IO` says every occurrence of the view's
    /// defining expression *is* the view (the chase tags its class with
    /// `name(class, view)` plus the materialized `size`, so extraction can
    /// pick the zero-cost `Mat(view)` leaf), and `V_OI` expands a use of
    /// the view name back into the definition so rewriting can continue
    /// *through* it. The optimizer extends
    /// [`Catalogue::shared_standard`] with them, per rewrite, for each
    /// registered view.
    pub fn la_view_constraints(
        vrem: &mut Vrem,
        cat: &MetaCatalog,
        view_name: &str,
        def: &Expr,
    ) -> Result<Vec<Constraint>, ShapeError> {
        let stats = crate::stats::expr_stats(def, cat)?;
        let view_sym = vrem.vocab.constant(view_name);
        let r_sym = vrem.vocab.int(stats.rows as i64);
        let c_sym = vrem.vocab.int(stats.cols as i64);
        let d_sym = crate::encode::density_sym(vrem, stats.density);
        let name_pred = vrem.name;
        let size_pred = vrem.size;
        let density_pred = vrem.density;

        let mut enc = CqEncoder::new(vrem, cat).with_sizes();
        let root = enc.enc(def)?;
        let body_sized = enc.atoms;
        // The IO premise must not demand `size`/`density` facts: classes
        // the chase itself creates (re-associations etc.) may carry none,
        // and they are exactly the subexpressions worth landing on the
        // view. `with_sizes` only appends atoms, so filtering keeps
        // variable numbering intact.
        let body_bare: Vec<Atom> = body_sized
            .iter()
            .filter(|a| a.pred != size_pred && a.pred != density_pred)
            .cloned()
            .collect();

        let name_atom = Atom::new(name_pred, vec![Term::Var(root), Term::Const(view_sym)]);
        let size_atom =
            Atom::new(size_pred, vec![Term::Var(root), Term::Const(r_sym), Term::Const(c_sym)]);
        let density_atom = Atom::new(density_pred, vec![Term::Var(root), Term::Const(d_sym)]);
        Ok(vec![
            Tgd::new(
                format!("V_IO:{view_name}"),
                body_bare,
                vec![name_atom.clone(), size_atom, density_atom],
            )
            .into(),
            Tgd::new(format!("V_OI:{view_name}"), vec![name_atom], body_sized).into(),
        ])
    }

    /// Dimension- and density-propagating TGDs: classes the *chase*
    /// creates (re-associations, transposed factors, view expansions)
    /// inherit `size` facts from their operands, so extraction does not
    /// re-infer shapes bottom-up. Dimensions propagate wherever they follow
    /// from variable sharing alone (Kron/DirectSum need arithmetic and are
    /// left to the in-process estimator); densities propagate where the
    /// estimate is exactly the operand's (transpose, reverse, scalar
    /// scaling) — the extraction DP computes the multiplicative cases from
    /// operand stats.
    pub fn propagation_rules(vrem: &mut Vrem) -> Vec<Constraint> {
        use OpKind::*;
        let size = vrem.size;
        let density = vrem.density;
        let one = vrem.vocab.int(1);
        let mut out: Vec<Constraint> = Vec::new();
        let mut rule = |name: String, premise: Vec<Atom>, conclusion: Vec<Atom>| {
            out.push(Tgd::new(name, premise, conclusion).into());
        };

        for &kind in OpKind::all() {
            let op = vrem.op(kind);
            let name = format!("size-{}", kind.pred_name());
            match kind {
                // size(o) = size(a) for same-shape binary operators.
                Add | Hadamard | Div => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1), v(2)]),
                        Atom::new(size, vec![v(0), v(3), v(4)]),
                    ],
                    vec![Atom::new(size, vec![v(2), v(3), v(4)])],
                ),
                // multiM(a, b, o) with a: r×k, b: k×c gives o: r×c.
                Mul => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1), v(2)]),
                        Atom::new(size, vec![v(0), v(3), v(4)]),
                        Atom::new(size, vec![v(1), v(4), v(5)]),
                    ],
                    vec![Atom::new(size, vec![v(2), v(3), v(5)])],
                ),
                ScalarMul => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1), v(2)]),
                        Atom::new(size, vec![v(1), v(3), v(4)]),
                    ],
                    vec![Atom::new(size, vec![v(2), v(3), v(4)])],
                ),
                Transpose => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1)]),
                        Atom::new(size, vec![v(0), v(2), v(3)]),
                    ],
                    vec![Atom::new(size, vec![v(1), v(3), v(2)])],
                ),
                Rev | Inv | Adj | Exp | Cho => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1)]),
                        Atom::new(size, vec![v(0), v(2), v(3)]),
                    ],
                    vec![Atom::new(size, vec![v(1), v(2), v(3)])],
                ),
                // Both decomposition outputs share the (square) input shape.
                Qr | Lu => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1), v(2)]),
                        Atom::new(size, vec![v(0), v(3), v(4)]),
                    ],
                    vec![
                        Atom::new(size, vec![v(1), v(3), v(4)]),
                        Atom::new(size, vec![v(2), v(3), v(4)]),
                    ],
                ),
                Diag => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1)]),
                        Atom::new(size, vec![v(0), v(2), v(3)]),
                    ],
                    vec![Atom::new(size, vec![v(1), v(2), Term::Const(one)])],
                ),
                RowSums | RowMeans | RowMin | RowMax | RowVar => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1)]),
                        Atom::new(size, vec![v(0), v(2), v(3)]),
                    ],
                    vec![Atom::new(size, vec![v(1), v(2), Term::Const(one)])],
                ),
                ColSums | ColMeans | ColMin | ColMax | ColVar => rule(
                    name,
                    vec![
                        Atom::new(op, vec![v(0), v(1)]),
                        Atom::new(size, vec![v(0), v(2), v(3)]),
                    ],
                    vec![Atom::new(size, vec![v(1), Term::Const(one), v(3)])],
                ),
                Det | Trace | Sum | Min | Max | Mean | Var => rule(
                    name,
                    vec![Atom::new(op, vec![v(0), v(1)])],
                    vec![Atom::new(size, vec![v(1), Term::Const(one), Term::Const(one)])],
                ),
                // Output dims are products/sums of operand dims: arithmetic
                // the chase cannot do; the extractor's op_stats covers them.
                Kron | DirectSum => {}
            }
        }

        // Exact density transfers.
        let tr = vrem.op(Transpose);
        let rev = vrem.op(Rev);
        let smul = vrem.op(ScalarMul);
        rule(
            "dens-tr".into(),
            vec![Atom::new(tr, vec![v(0), v(1)]), Atom::new(density, vec![v(0), v(2)])],
            vec![Atom::new(density, vec![v(1), v(2)])],
        );
        rule(
            "dens-rev".into(),
            vec![Atom::new(rev, vec![v(0), v(1)]), Atom::new(density, vec![v(0), v(2)])],
            vec![Atom::new(density, vec![v(1), v(2)])],
        );
        rule(
            "dens-multiMS".into(),
            vec![Atom::new(smul, vec![v(0), v(1), v(2)]), Atom::new(density, vec![v(1), v(3)])],
            vec![Atom::new(density, vec![v(2), v(3)])],
        );

        out
    }

    /// Decomposition recomposition and implied structural flags (§6.2.5).
    pub fn decomposition_rules(vrem: &mut Vrem) -> Vec<Constraint> {
        let mul = vrem.op(OpKind::Mul);
        let tr = vrem.op(OpKind::Transpose);
        let cho = vrem.op(OpKind::Cho);
        let qr = vrem.op(OpKind::Qr);
        let lu = vrem.op(OpKind::Lu);
        let ty = vrem.ty;
        let sym_s = vrem.vocab.constant("S");
        let sym_l = vrem.vocab.constant("L");
        let sym_u = vrem.vocab.constant("U");
        let sym_o = vrem.vocab.constant("O");

        vec![
            // M symmetric PD with CHO(M, L): L Lᵀ = M, and L is lower
            // triangular.
            Tgd::new(
                "cho-recompose",
                vec![
                    Atom::new(ty, vec![v(0), Term::Const(sym_s)]),
                    Atom::new(cho, vec![v(0), v(1)]),
                ],
                vec![
                    Atom::new(tr, vec![v(1), v(2)]),
                    Atom::new(mul, vec![v(1), v(2), v(0)]),
                    Atom::new(ty, vec![v(1), Term::Const(sym_l)]),
                ],
            )
            .into(),
            // QR(M) = [Q, R]: Q R = M, Q orthogonal, R upper triangular.
            Tgd::new(
                "qr-recompose",
                vec![Atom::new(qr, vec![v(0), v(1), v(2)])],
                vec![
                    Atom::new(mul, vec![v(1), v(2), v(0)]),
                    Atom::new(ty, vec![v(1), Term::Const(sym_o)]),
                    Atom::new(ty, vec![v(2), Term::Const(sym_u)]),
                ],
            )
            .into(),
            // LU(M) = [L, U]: L U = M, L lower / U upper triangular.
            Tgd::new(
                "lu-recompose",
                vec![Atom::new(lu, vec![v(0), v(1), v(2)])],
                vec![
                    Atom::new(mul, vec![v(1), v(2), v(0)]),
                    Atom::new(ty, vec![v(1), Term::Const(sym_l)]),
                    Atom::new(ty, vec![v(2), Term::Const(sym_u)]),
                ],
            )
            .into(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use crate::expr::dsl::*;
    use crate::extract::{Extractor, TreeSizeCost};
    use crate::stats::{MatrixMeta, MetaCatalog, TypeFlags};
    use hadad_chase::{ChaseBudget, ChaseEngine, ChaseOutcome, RuleSet};

    fn chase_of(
        e: &crate::expr::Expr,
        cat: &MetaCatalog,
    ) -> (Vrem, hadad_chase::Instance, hadad_chase::NodeId, ChaseOutcome) {
        let mut vrem = Vrem::new();
        let enc = Encoder::new(&mut vrem, cat).encode(e).unwrap();
        let catalogue = Catalogue::standard(&mut vrem);
        let rules = RuleSet::compile(catalogue.constraints);
        let engine = ChaseEngine::new(&rules).with_budget(ChaseBudget {
            max_rounds: 8,
            max_facts: 20_000,
            max_nulls: 10_000,
            deadline: None,
        });
        let mut inst = enc.instance;
        let (outcome, _) = engine.chase(&mut inst);
        (vrem, inst, enc.root, outcome)
    }

    #[test]
    fn standard_catalogue_is_well_formed() {
        let mut vrem = Vrem::new();
        let c = Catalogue::standard(&mut vrem);
        // Every operator gets a functional EGD plus the structural and
        // decomposition groups.
        assert!(c.constraints.len() > OpKind::all().len());
        assert!(c.names().contains(&"trace-cyclic"));
        assert!(c.names().contains(&"I_multiM"));
        assert!(c.names().contains(&"qr-recompose"));
    }

    #[test]
    fn trace_cyclic_derives_rotated_product() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(30, 4));
        cat.register("B", MatrixMeta::dense(4, 30));
        let e = trace(mul(m("A"), m("B")));
        let (vrem, inst, root, _) = chase_of(&e, &cat);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        let cands = ex.candidates(root);
        let strs: Vec<String> = cands.iter().map(std::string::ToString::to_string).collect();
        assert!(strs.contains(&"trace((A B))".to_string()), "{strs:?}");
        assert!(strs.contains(&"trace((B A))".to_string()), "{strs:?}");
    }

    #[test]
    fn double_transpose_collapses() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(6, 4));
        let e = t(t(m("A")));
        let (vrem, inst, root, outcome) = chase_of(&e, &cat);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        assert_eq!(ex.extract(root).unwrap(), m("A"));
    }

    #[test]
    fn qr_recomposition_reaches_input() {
        // trace(Q·R) where [Q,R] = QR(D) must land in trace(D)'s class.
        let mut cat = MetaCatalog::new();
        cat.register("D", MatrixMeta::dense(8, 8));
        let e = trace(mul(
            crate::expr::Expr::QrQ(Box::new(m("D"))),
            crate::expr::Expr::QrR(Box::new(m("D"))),
        ));
        let (vrem, inst, root, _) = chase_of(&e, &cat);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        assert_eq!(ex.extract(root).unwrap(), trace(m("D")));
    }

    #[test]
    fn cholesky_recomposition_uses_type_flag() {
        let mut cat = MetaCatalog::new();
        cat.register(
            "S",
            MatrixMeta::dense(6, 6)
                .with_flags(TypeFlags { symmetric_pd: true, ..Default::default() }),
        );
        // cho(S) · cho(S)ᵀ = S.
        let e = mul(cho(m("S")), t(cho(m("S"))));
        let (vrem, inst, root, _) = chase_of(&e, &cat);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        assert_eq!(ex.extract(root).unwrap(), m("S"));
    }

    #[test]
    fn identity_collapses_product() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(5, 5));
        let e = mul(m("A"), crate::expr::Expr::Identity(5));
        let (vrem, inst, root, _) = chase_of(&e, &cat);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        assert_eq!(ex.extract(root).unwrap(), m("A"));
    }

    #[test]
    fn name_unique_egd_merges_same_named_classes() {
        // Two instances of the same base-matrix leaf encoded separately
        // (encode_many shares the memo, so go through two sub-expressions
        // that differ syntactically but share the leaf under V_OI-style
        // duplication): insert a duplicate name fact manually.
        let mut vrem = Vrem::new();
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(4, 4));
        let enc = Encoder::new(&mut vrem, &cat).encode(&m("A")).unwrap();
        let mut inst = enc.instance;
        let sym = vrem.vocab.constant("A");
        let dup = inst.fresh_null();
        let sn = inst.const_node(sym);
        inst.insert(vrem.name, vec![dup, sn], hadad_chase::Provenance::empty(), None);
        let rules = RuleSet::compile(Catalogue::standard(&mut vrem).constraints);
        let engine = ChaseEngine::new(&rules);
        let (outcome, _) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(inst.find(dup), inst.find(enc.root));
    }

    /// `V_IO`: a query subexpression matching a registered view's
    /// definition gains the view's `name` fact, and extraction can land on
    /// the zero-extra-cost `Mat(view)` leaf.
    #[test]
    fn view_io_lands_query_on_view_leaf() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(30, 4));
        cat.register("B", MatrixMeta::dense(4, 30));
        let mut vrem = Vrem::new();
        let e = trace(mul(m("A"), m("B")));
        let enc = Encoder::new(&mut vrem, &cat).encode(&e).unwrap();
        let mut catalogue = Catalogue::standard(&mut vrem);
        catalogue.constraints.extend(
            Catalogue::la_view_constraints(&mut vrem, &cat, "W", &mul(m("A"), m("B"))).unwrap(),
        );
        let rules = RuleSet::compile(catalogue.constraints);
        let engine = ChaseEngine::new(&rules);
        let mut inst = enc.instance;
        engine.chase(&mut inst);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        // trace(W) (size 2) beats trace((A B)) (size 4) under tree size.
        assert_eq!(ex.extract(enc.root).unwrap(), trace(m("W")));
        let strs: Vec<String> =
            ex.candidates(enc.root).iter().map(std::string::ToString::to_string).collect();
        assert!(strs.contains(&"trace(W)".to_string()), "{strs:?}");
    }

    /// `V_OI`: a query *using* the view name expands into the definition,
    /// so rewriting can continue through it (here: nothing better exists,
    /// but both derivations are decodable and shapes are known for the
    /// expanded leaves via the emitted `size` atoms + `name-unique`).
    #[test]
    fn view_oi_expands_view_uses() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(6, 4));
        cat.register("B", MatrixMeta::dense(4, 6));
        cat.register("W", MatrixMeta::dense(6, 6));
        cat.register("x", MatrixMeta::dense(6, 1));
        let mut vrem = Vrem::new();
        let e = mul(m("W"), m("x"));
        let enc = Encoder::new(&mut vrem, &cat).encode(&e).unwrap();
        let mut catalogue = Catalogue::standard(&mut vrem);
        catalogue.constraints.extend(
            Catalogue::la_view_constraints(&mut vrem, &cat, "W", &mul(m("A"), m("B"))).unwrap(),
        );
        let rules = RuleSet::compile(catalogue.constraints);
        let engine = ChaseEngine::new(&rules);
        let mut inst = enc.instance;
        let (outcome, _) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        let strs: Vec<String> =
            ex.candidates(enc.root).iter().map(std::string::ToString::to_string).collect();
        // The expansion feeds the structural rules: re-association through
        // the view definition surfaces at the root.
        assert!(strs.contains(&"(W x)".to_string()), "{strs:?}");
        assert!(strs.contains(&"(A (B x))".to_string()), "{strs:?}");
        // The W leaf class itself now carries the expanded derivation too.
        let w_sym = vrem.vocab.constant("W");
        let w_class = inst
            .facts()
            .iter()
            .find(|f| f.pred == vrem.name && inst.const_of(inst.find(f.args[1])) == Some(w_sym))
            .map(|f| inst.find(f.args[0]))
            .unwrap();
        let w_strs: Vec<String> =
            ex.candidates(w_class).iter().map(std::string::ToString::to_string).collect();
        assert!(w_strs.contains(&"W".to_string()), "{w_strs:?}");
        assert!(w_strs.contains(&"(A B)".to_string()), "{w_strs:?}");
    }

    /// Size propagation: every operator fact the chase creates gets a
    /// `size` fact for its output class — extraction and the cost oracle
    /// no longer re-infer shapes bottom-up for chase-created classes.
    #[test]
    fn chase_created_classes_carry_size_facts() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(40, 10));
        cat.register("B", MatrixMeta::dense(10, 40));
        cat.register("x", MatrixMeta::dense(40, 1));
        let e = mul(mul(m("A"), m("B")), m("x"));
        let (vrem, inst, _, outcome) = chase_of(&e, &cat);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        let sized: std::collections::HashSet<_> = inst
            .facts_with_pred(vrem.size)
            .iter()
            .map(|&i| inst.find(inst.facts()[i].args[0]))
            .collect();
        let mul_pred = vrem.op(OpKind::Mul);
        assert!(inst.facts_with_pred(mul_pred).len() > 2, "re-association happened");
        for &i in inst.facts_with_pred(mul_pred) {
            let out = inst.find(inst.facts()[i].args[2]);
            assert!(sized.contains(&out), "mul output class without size fact");
        }
        // The re-associated (B x) intermediate got the right shape.
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        let bx = inst
            .facts_with_pred(mul_pred)
            .iter()
            .map(|&i| &inst.facts()[i])
            .find(|f| {
                ex.shape(f.args[0]) == Some((10, 40)) && ex.shape(f.args[1]) == Some((40, 1))
            })
            .map(|f| f.args[2])
            .expect("chase derived mul(B, x, ·)");
        assert_eq!(ex.shape(bx), Some((10, 1)));
    }

    /// Density propagation: a chase-created transpose class inherits the
    /// operand's catalogued sparsity through the `dens-tr` TGD.
    #[test]
    fn density_propagates_through_transpose() {
        let mut cat = MetaCatalog::new();
        cat.register("S", MatrixMeta::sparse(100, 50, 250)); // density 0.05
        cat.register("D", MatrixMeta::dense(100, 50));
        // (S D ᵀ-style shapes don't matter; use (D ᵀ S)ᵀ so tr-mul creates
        // transposes of both leaves.)
        let e = t(mul(t(m("D")), m("S")));
        let (mut vrem, inst, _, outcome) = chase_of(&e, &cat);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        let s_sym = vrem.vocab.constant("S");
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        // tr-mul derived Sᵀ (shape 50x100); its class must carry S's
        // density even though the encoder never saw that subexpression.
        let tr_pred = vrem.op(OpKind::Transpose);
        let s_class = inst
            .facts()
            .iter()
            .find(|f| f.pred == vrem.name && inst.const_of(inst.find(f.args[1])) == Some(s_sym))
            .map(|f| inst.find(f.args[0]))
            .unwrap();
        let st_class = inst
            .facts_with_pred(tr_pred)
            .iter()
            .map(|&i| &inst.facts()[i])
            .find(|f| inst.find(f.args[0]) == s_class)
            .map(|f| inst.find(f.args[1]))
            .expect("chase derived Sᵀ");
        assert_eq!(ex.density(st_class), Some(0.05));
    }

    #[test]
    fn associativity_exposes_regroupings() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(40, 10));
        cat.register("B", MatrixMeta::dense(10, 40));
        cat.register("x", MatrixMeta::dense(40, 1));
        let e = mul(mul(m("A"), m("B")), m("x"));
        let (vrem, inst, root, _) = chase_of(&e, &cat);
        let ex = Extractor::new(&vrem, &inst, &TreeSizeCost);
        let strs: Vec<String> =
            ex.candidates(root).iter().map(std::string::ToString::to_string).collect();
        assert!(strs.contains(&"((A B) x)".to_string()), "{strs:?}");
        assert!(strs.contains(&"(A (B x))".to_string()), "{strs:?}");
    }
}
