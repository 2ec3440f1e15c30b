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
//! No rule derives shapes: they are the chase's analysis
//! ([`crate::analysis::LaAnalysis`]), and the one rule gated on them —
//! `inv-mul`, on "A square" — reads them through a guard.
//!
//! Associativity-style rules are fresh-ID generators; the
//! [`hadad_chase::ChaseBudget`] bounds them exactly as the paper's PACB++
//! implementation does (§6.3).

use std::sync::{Arc, OnceLock};

use hadad_chase::{functional_sig, Atom, Constraint, Egd, RuleSet, Term, Tgd};

use crate::analysis::ClassData;
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

/// A registered LA view's `V_IO`/`V_OI` pair and what their firings tell
/// the chase's analysis.
#[derive(Debug, Clone)]
pub struct ViewRules {
    /// `V_IO`, then `V_OI`.
    pub constraints: Vec<Constraint>,
    /// Shape of each class the definition's CQ names, by variable: a
    /// firing of either rule gives them to the classes it concludes on
    /// ([`crate::analysis::LaAnalysis::with_view`]).
    pub classes: Vec<Option<ClassData>>,
}

impl Catalogue {
    /// The full standard catalogue: functional + structural +
    /// decomposition constraints.
    pub fn standard(vrem: &mut Vrem) -> Catalogue {
        let mut constraints = Self::functional_egds(vrem);
        constraints.extend(Self::structural_rules(vrem));
        constraints.extend(Self::decomposition_rules(vrem));
        Catalogue { constraints }
    }

    /// The standard catalogue as every rewrite reads it: the schema it was
    /// interned into and its compiled rule set, built once per process.
    /// LA properties are a fixed set of constraints; only views add to it,
    /// so a caller clones the [`Vrem`] (its own encoding interns into it),
    /// builds its view rules against the clone, and chases over
    /// [`RuleSet::extended`] — or over the shared set itself when it has
    /// nothing to add. The schema's vocabulary is frozen
    /// ([`hadad_chase::Vocabulary::freeze`]), so that clone copies no name:
    /// only what the caller interns is its own. The constraints read back
    /// from the compiled rules ([`hadad_chase::CompiledRule::constraint`]).
    pub fn shared_standard() -> &'static (Vrem, Arc<RuleSet>) {
        static SHARED: OnceLock<(Vrem, Arc<RuleSet>)> = OnceLock::new();
        SHARED.get_or_init(|| {
            let mut vrem = Vrem::new();
            let rules = RuleSet::compile(Catalogue::standard(&mut vrem).constraints);
            vrem.vocab.freeze();
            (vrem, Arc::new(rules))
        })
    }

    /// Indexes of `mul-assoc-l`/`-r` in the shared standard rules, and so
    /// in every set extending them: the watermark rules, which a chase may
    /// start where an instance's chain tables end. Asserts, once, what a
    /// table kept out of the instance rests on
    /// ([`crate::Encoded::tabulate_chains_as_cells`]): no other standard
    /// rule but the functional EGDs reads `name` and `mul` facts alone.
    pub fn watermark_rules() -> &'static [usize] {
        static ASSOC: OnceLock<Vec<usize>> = OnceLock::new();
        ASSOC.get_or_init(|| {
            let (vrem, standard) = Catalogue::shared_standard();
            let found: Vec<usize> =
                (0..standard.len()).filter(|&i| is_assoc(standard.rules()[i].name())).collect();
            assert_eq!(found.len(), 2, "the standard catalogue has both associativity rules");
            let readers = table_readers(standard, vrem);
            assert!(readers.is_empty(), "rules read name/mul facts alone: {readers:?}");
            found
        })
    }

    /// Names of all constraints (for tests and diagnostics).
    pub fn names(&self) -> Vec<&str> {
        self.constraints.iter().map(hadad_chase::Constraint::name).collect()
    }

    /// Static analysis of the catalogue (`hadad-analyze`): range
    /// restriction, weak acyclicity modulo conclusion-atom reuse,
    /// functional-signature cross-checks and duplicate detection. `vrem`
    /// must be the schema the constraints were built over.
    /// [`hadad_analyze::RuleReport::certified`] is the registration / CI
    /// gate.
    pub fn analyze(&self, vrem: &Vrem) -> hadad_analyze::RuleReport {
        hadad_analyze::Analyzer::new(&self.constraints).with_vocab(&vrem.vocab).report()
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
        let square = vrem.square;
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
        // invertible-shaped (the paper gates on metadata the same way): a
        // guard the analysis decides, since no fact carries shapes.
        out.push(
            Tgd::new(
                "inv-mul",
                vec![Atom::new(mul, vec![v(0), v(1), v(2)]), Atom::new(inv, vec![v(2), v(3)])],
                vec![
                    Atom::new(inv, vec![v(0), v(4)]),
                    Atom::new(inv, vec![v(1), v(5)]),
                    Atom::new(mul, vec![v(5), v(4), v(3)]),
                ],
            )
            .with_guard(Atom::new(square, vec![v(0)]))
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
    /// `name(class, view)`, so extraction can pick the zero-cost
    /// `Mat(view)` leaf), and `V_OI` expands a use of the view name back
    /// into the definition so rewriting can continue *through* it. Both
    /// come with the definition's estimated class stats, which the
    /// analysis joins where they fire. The optimizer extends
    /// [`Catalogue::shared_standard`] with them, per rewrite, for each
    /// registered view.
    pub fn la_view_constraints(
        vrem: &mut Vrem,
        cat: &MetaCatalog,
        view_name: &str,
        def: &Expr,
    ) -> Result<ViewRules, ShapeError> {
        let view_sym = vrem.vocab.constant(view_name);
        let name_pred = vrem.name;
        let mut enc = CqEncoder::new(vrem, cat);
        let root = enc.enc(def)?;
        let name_atom = Atom::new(name_pred, vec![Term::Var(root), Term::Const(view_sym)]);
        let io =
            Tgd::new(format!("V_IO:{view_name}"), enc.atoms.clone(), vec![name_atom.clone()]);
        let oi = Tgd::new(format!("V_OI:{view_name}"), vec![name_atom], enc.atoms);
        Ok(ViewRules { constraints: vec![io.into(), oi.into()], classes: enc.classes })
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

fn is_assoc(rule: &str) -> bool {
    matches!(rule, "mul-assoc-l" | "mul-assoc-r")
}

/// The rules of `rules` whose premise is made of `name` and `mul` atoms
/// alone, so that they could bind a class only a chain's table has. Not
/// `mul-assoc-l`/`-r`, since the table is their closure, nor the
/// functional EGDs, which it keeps by construction (one class per factor
/// sequence).
fn table_readers<'r>(rules: &'r RuleSet, vrem: &Vrem) -> Vec<&'r str> {
    let mul = vrem.op(OpKind::Mul);
    let reads = |rule: &Constraint| {
        let (premise, functional) = match rule {
            Constraint::Tgd(t) => (&t.premise, false),
            Constraint::Egd(e) => (&e.premise, functional_sig(e).is_some()),
        };
        !functional && premise.iter().all(|a| a.pred == vrem.name || a.pred == mul)
    };
    rules
        .rules()
        .iter()
        .filter(|r| !is_assoc(r.name()) && reads(r.constraint()))
        .map(|r| r.name())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::LaAnalysis;
    use crate::encode::{ChainCells, Encoder};
    use crate::expr::dsl::*;
    use crate::expr::UnaryOp;
    use crate::extract::Extractor;
    use crate::stats::{expr_stats, op_stats, ClassStats, MatrixMeta, MetaCatalog, TypeFlags};
    use hadad_chase::{ChaseBudget, ChaseEngine, ChaseOutcome, Instance, NodeId, RuleSet};

    /// An expression chased under the standard catalogue plus the
    /// `(name, definition)` views given, with its analysis.
    struct Chased {
        vrem: Vrem,
        cat: MetaCatalog,
        inst: Instance,
        root: NodeId,
        outcome: ChaseOutcome,
        analysis: LaAnalysis,
    }

    impl Chased {
        fn new(e: &Expr, cat: &MetaCatalog, views: &[(&str, Expr)]) -> Self {
            let mut vrem = Vrem::new();
            let enc = Encoder::new(&mut vrem, cat).encode(e).unwrap();
            let mut constraints = Catalogue::standard(&mut vrem).constraints;
            let mut view_rules = Vec::new();
            for (name, def) in views {
                let view = Catalogue::la_view_constraints(&mut vrem, cat, name, def).unwrap();
                let first = constraints.len();
                constraints.extend(view.constraints);
                view_rules.push((first..constraints.len(), view.classes));
            }
            let mut analysis = LaAnalysis::new(&vrem, enc.classes);
            for (rules, classes) in view_rules {
                analysis = analysis.with_view(rules, classes);
            }
            let rules = RuleSet::compile(constraints);
            let engine = ChaseEngine::new(&rules).with_budget(ChaseBudget {
                max_rounds: 8,
                max_facts: 20_000,
                max_nulls: 10_000,
                deadline: None,
            });
            let mut inst = enc.instance;
            let (outcome, _) = engine.chase_analyzed(&mut inst, &mut analysis);
            Chased { vrem, cat: cat.clone(), inst, root: enc.root, outcome, analysis }
        }

        fn extractor(&self) -> Extractor<'_> {
            let cells = ChainCells::default();
            Extractor::new(&self.vrem, &self.inst, &self.analysis, &self.cat, &cells)
        }

        fn candidates(&self, class: NodeId) -> Vec<String> {
            self.extractor().candidates(class).iter().map(|(e, _)| e.to_string()).collect()
        }

        /// The class `name(class, n)` anchors.
        fn named(&mut self, n: &str) -> NodeId {
            let sym = self.vrem.vocab.constant(n);
            let inst = &self.inst;
            inst.facts_with_pred(self.vrem.name)
                .iter()
                .map(|&i| inst.fact(i))
                .find(|f| inst.const_of(f.args[1]) == Some(sym))
                .map(|f| inst.find(f.args[0]))
                .expect("a class carries the name")
        }
    }

    fn chase_of(e: &Expr, cat: &MetaCatalog) -> Chased {
        Chased::new(e, cat, &[])
    }

    /// No standard rule but associativity and the functional EGDs reads an
    /// instance of `name` and `mul` facts; a TGD over `mul` atoms alone
    /// would, and is named.
    #[test]
    fn only_associativity_reads_a_bare_chain() {
        let (vrem, standard) = Catalogue::shared_standard();
        assert!(table_readers(standard, vrem).is_empty());
        assert_eq!(Catalogue::watermark_rules().len(), 2);
        let mul = vrem.op(OpKind::Mul);
        let atom = |args: [u32; 3]| Atom::new(mul, args.iter().map(|&a| v(a)).collect());
        let commute = Tgd::new("mul-commute", vec![atom([0, 1, 2])], vec![atom([1, 0, 3])]);
        let extended = standard.extended(vec![Constraint::Tgd(commute)]);
        assert_eq!(table_readers(&extended, vrem), ["mul-commute"]);
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
        let c = chase_of(&trace(mul(m("A"), m("B"))), &cat);
        let strs = c.candidates(c.root);
        assert!(strs.contains(&"trace((A B))".to_string()), "{strs:?}");
        assert!(strs.contains(&"trace((B A))".to_string()), "{strs:?}");
    }

    #[test]
    fn double_transpose_collapses() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(6, 4));
        let c = chase_of(&t(t(m("A"))), &cat);
        assert_eq!(c.outcome, ChaseOutcome::Saturated);
        assert_eq!(c.extractor().extract(c.root).unwrap(), m("A"));
    }

    #[test]
    fn qr_recomposition_reaches_input() {
        // trace(Q·R) where [Q,R] = QR(D) must land in trace(D)'s class.
        let mut cat = MetaCatalog::new();
        cat.register("D", MatrixMeta::dense(8, 8));
        let qr = |out| Expr::Unary(UnaryOp::new(OpKind::Qr, out).unwrap(), Box::new(m("D")));
        let e = trace(mul(qr(0), qr(1)));
        let c = chase_of(&e, &cat);
        assert_eq!(c.extractor().extract(c.root).unwrap(), trace(m("D")));
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
        let c = chase_of(&mul(cho(m("S")), t(cho(m("S")))), &cat);
        assert_eq!(c.extractor().extract(c.root).unwrap(), m("S"));
    }

    #[test]
    fn identity_collapses_product() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(5, 5));
        let c = chase_of(&mul(m("A"), Expr::Identity(5)), &cat);
        assert_eq!(c.extractor().extract(c.root).unwrap(), m("A"));
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
        inst.insert(vrem.name, vec![dup, sn]);
        let rules = RuleSet::compile(Catalogue::standard(&mut vrem).constraints);
        let engine = ChaseEngine::new(&rules);
        let (outcome, _) = engine.chase(&mut inst);
        assert_eq!(outcome, ChaseOutcome::Saturated);
        assert_eq!(inst.find(dup), inst.find(enc.root));
    }

    /// `V_IO`: a query subexpression matching a registered view's
    /// definition gains the view's `name` fact, and extraction can land on
    /// the zero-extra-cost `Mat(view)` leaf, priced from the view's
    /// catalog entry.
    #[test]
    fn view_io_lands_query_on_view_leaf() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(30, 4));
        cat.register("B", MatrixMeta::dense(4, 30));
        cat.register("W", MatrixMeta::dense(30, 30));
        let c = Chased::new(&trace(mul(m("A"), m("B"))), &cat, &[("W", mul(m("A"), m("B")))]);
        // trace(W) costs the trace alone; trace((A B)) also the product.
        assert_eq!(c.extractor().extract(c.root).unwrap(), trace(m("W")));
        let strs = c.candidates(c.root);
        assert!(strs.contains(&"trace(W)".to_string()), "{strs:?}");
    }

    /// A view rule's firing gives the definition's shapes to the classes
    /// it concludes on: expanding a use of `V` shapes the definition's
    /// leaves, which nothing else in the instance names, and `V`'s class
    /// keeps the definition's shape.
    #[test]
    fn view_rules_join_the_definition_estimate() {
        let mut cat = MetaCatalog::new();
        cat.register("S", MatrixMeta::sparse(40, 30, 80));
        cat.register("x", MatrixMeta::dense(30, 1));
        cat.register("V", MatrixMeta::dense(40, 1));
        let def = mul(m("S"), m("x"));
        let mut c = Chased::new(&m("V"), &cat, &[("V", def.clone())]);
        let v_class = c.named("V");
        assert_eq!(c.analysis.class(v_class), Some(expr_stats(&def, &cat).unwrap().into()));
        let x_class = c.named("x");
        assert_eq!(c.analysis.class(x_class).map(|d| d.shape()), Some((30, 1)));
    }

    /// `V_OI`: a query *using* the view name expands into the definition,
    /// so rewriting can continue through it (here: nothing better exists,
    /// but both derivations are decodable, and the expanded classes carry
    /// the definition's stats, which `name-unique` merges into the leaves).
    #[test]
    fn view_oi_expands_view_uses() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(6, 4));
        cat.register("B", MatrixMeta::dense(4, 6));
        cat.register("W", MatrixMeta::dense(6, 6));
        cat.register("x", MatrixMeta::dense(6, 1));
        let mut c = Chased::new(&mul(m("W"), m("x")), &cat, &[("W", mul(m("A"), m("B")))]);
        assert_eq!(c.outcome, ChaseOutcome::Saturated);
        let strs = c.candidates(c.root);
        // The expansion feeds the structural rules: re-association through
        // the view definition surfaces at the root.
        assert!(strs.contains(&"(W x)".to_string()), "{strs:?}");
        assert!(strs.contains(&"(A (B x))".to_string()), "{strs:?}");
        // The W leaf class itself now carries the expanded derivation too.
        let w_class = c.named("W");
        let w_strs = c.candidates(w_class);
        assert!(w_strs.contains(&"W".to_string()), "{w_strs:?}");
        assert!(w_strs.contains(&"(A B)".to_string()), "{w_strs:?}");
        let a_class = c.named("A");
        assert_eq!(c.analysis.class(a_class).map(|d| d.shape()), Some((6, 4)));
    }

    /// Every class a chase firing creates gets its shape from the
    /// analysis' `make` — extraction and the cost oracle never re-infer
    /// shapes bottom-up for chase-created classes.
    #[test]
    fn chase_created_classes_carry_size_facts() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(40, 10));
        cat.register("B", MatrixMeta::dense(10, 40));
        cat.register("x", MatrixMeta::dense(40, 1));
        let c = chase_of(&mul(mul(m("A"), m("B")), m("x")), &cat);
        assert_eq!(c.outcome, ChaseOutcome::Saturated);
        let inst = &c.inst;
        let mul_pred = c.vrem.op(OpKind::Mul);
        assert!(inst.facts_with_pred(mul_pred).len() > 2, "re-association happened");
        for &i in inst.facts_with_pred(mul_pred) {
            let out = inst.find(inst.fact(i).args[2]);
            assert!(c.analysis.class(out).is_some(), "mul output class without a shape");
        }
        // The re-associated (B x) intermediate got the right shape, and
        // extraction prices it at the density of its derivation.
        let ex = c.extractor();
        let shape = |class| ex.stats(class).map(|s| s.shape());
        let bx = inst
            .facts_with_pred(mul_pred)
            .iter()
            .map(|&i| inst.fact(i))
            .find(|f| shape(f.args[0]) == Some((10, 40)) && shape(f.args[1]) == Some((40, 1)))
            .map(|f| f.args[2])
            .expect("chase derived mul(B, x, ·)");
        assert_eq!(c.analysis.class(inst.find(bx)).map(|d| d.shape()), Some((10, 1)));
        let operands = [ClassStats::dense(10, 40), ClassStats::dense(40, 1)];
        assert_eq!(ex.stats(bx), Some(op_stats(OpKind::Mul, 0, &operands)));
    }

    /// Density propagation: extraction prices a chase-created transpose
    /// class at its operand's catalogued sparsity.
    #[test]
    fn density_propagates_through_transpose() {
        let mut cat = MetaCatalog::new();
        cat.register("S", MatrixMeta::sparse(100, 50, 250)); // density 0.05
        cat.register("D", MatrixMeta::dense(100, 50));
        // (Dᵀ S)ᵀ, so tr-mul creates transposes of both leaves.
        let mut c = chase_of(&t(mul(t(m("D")), m("S"))), &cat);
        assert_eq!(c.outcome, ChaseOutcome::Saturated);
        // tr-mul derived Sᵀ (shape 50x100); its class must carry S's
        // density even though the encoder never saw that subexpression.
        let s_class = c.named("S");
        let inst = &c.inst;
        let st_class = inst
            .facts_with_pred(c.vrem.op(OpKind::Transpose))
            .iter()
            .map(|&i| inst.fact(i))
            .find(|f| inst.find(f.args[0]) == s_class)
            .map(|f| inst.find(f.args[1]))
            .expect("chase derived Sᵀ");
        assert_eq!(c.extractor().stats(st_class).map(|s| s.density), Some(0.05));
    }

    /// `inv-mul`'s "A square" is a guard: `(A B)⁻¹` pushes the inverse
    /// through the product for a square `A` only, and a refusal is no veto.
    #[test]
    fn inv_mul_fires_only_for_a_square_left_factor() {
        let fired = |a: (usize, usize)| {
            let mut cat = MetaCatalog::new();
            cat.register("A", MatrixMeta::dense(a.0, a.1));
            cat.register("B", MatrixMeta::dense(a.1, a.0));
            let mut vrem = Vrem::new();
            let enc = Encoder::new(&mut vrem, &cat).encode(&inv(mul(m("A"), m("B")))).unwrap();
            let rules = RuleSet::compile(Catalogue::standard(&mut vrem).constraints);
            let mut analysis = LaAnalysis::new(&vrem, enc.classes);
            let mut inst = enc.instance;
            let (_, stats) = ChaseEngine::new(&rules).chase_analyzed(&mut inst, &mut analysis);
            assert_eq!(stats.pruned_firings(), 0);
            let rule = stats.rules.iter().find(|r| &*r.name == "inv-mul").unwrap();
            (rule.firings, rule.vetoes)
        };
        assert_eq!(fired((5, 5)), (1, 0));
        assert_eq!(fired((5, 3)), (0, 0), "(A B) is square, A is not");
    }

    #[test]
    fn associativity_exposes_regroupings() {
        let mut cat = MetaCatalog::new();
        cat.register("A", MatrixMeta::dense(40, 10));
        cat.register("B", MatrixMeta::dense(10, 40));
        cat.register("x", MatrixMeta::dense(40, 1));
        let c = chase_of(&mul(mul(m("A"), m("B")), m("x")), &cat);
        let strs = c.candidates(c.root);
        assert!(strs.contains(&"((A B) x)".to_string()), "{strs:?}");
        assert!(strs.contains(&"(A (B x))".to_string()), "{strs:?}");
    }
}
