//! Static rule-soundness analysis for HADAD constraint sets.
//!
//! The chase's guarantees are only as good as the constraints it runs:
//! the MMC catalogue and the per-view `V_IO`/`V_OI` constraints are
//! `Vec<Constraint>` values trusted at face value, with runtime
//! fact/null/round budgets as the only backstop. This crate provides the
//! classic *static* certificates of dependency theory (Fagin et al., data
//! exchange) plus HADAD-specific cross-checks, so unsound or
//! non-terminating rule sets are rejected before the chase ever runs:
//!
//! * **Safety / range restriction** ([`safety`]): EGD-equated variables
//!   must be premise-bound, atoms must match their declared arities, and
//!   a TGD may not mint existentials from an empty premise.
//! * **Weak acyclicity** ([`graph`]): the position-dependency graph must
//!   have no cycle through an existential ("special") edge. Because the
//!   engine's conclusion-atom reuse binds existentials at
//!   functional-EGD output positions to existing witnesses (see
//!   [`hadad_chase::functional_sig`]), special edges whose existential is
//!   provably reuse-bound are downgraded to *guarded* edges: a cycle
//!   through only guarded edges (e.g. `mul-assoc`) is reported as an
//!   informational finding — termination there relies on witness reuse
//!   plus the runtime [`hadad_chase::ChaseBudget`] — while a cycle
//!   through an *unguarded* special edge is a hard termination risk.
//!   The report carries both verdicts: [`RuleReport::wa_strict`]
//!   (textbook weak acyclicity) and [`RuleReport::wa_modulo_reuse`]
//!   (the certificate registration gates on).
//! * **Functional-signature cross-check**: every TGD existential should
//!   be bindable by conclusion-atom reuse — an existential at positions
//!   no co-registered EGD proves functional defeats the PR 4 reuse
//!   contract and churns nulls; it is flagged even off-cycle.
//! * **Duplicate/subsumed rules** ([`subsume`]): premise-homomorphism
//!   based redundancy detection, reusing the chase's own
//!   [`hadad_chase::homomorphism`] machinery.
//!
//! EGD interactions are out of scope for the termination certificate
//! (weak acyclicity is defined over TGDs); the functional EGDs are instead
//! consumed as the *reuse* evidence described above.

pub mod graph;
pub mod safety;
pub mod subsume;

use std::collections::{HashMap, HashSet};
use std::fmt;

use hadad_chase::chase::functional_sig;
use hadad_chase::{Constraint, FunctionalSig, PredId, ResolutionOrder, Tgd, Vocabulary};

pub use graph::{EdgeKind, PositionGraph};

/// How bad a finding is. [`Severity::Error`] findings fail certification
/// and registration; warnings and infos are reported but do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Context worth knowing (e.g. a budget-bounded guarded cycle).
    Info,
    /// Suspicious but not certifiably unsound.
    Warning,
    /// Statically unsafe or a termination risk: fails certification.
    Error,
}

/// The defect class of a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssueKind {
    /// An EGD equates a variable no premise atom binds.
    UnboundEgdVar {
        /// The offending variable index.
        var: u32,
    },
    /// An EGD statically equates two distinct constants — every match
    /// would be a [`hadad_chase::ConstClash`].
    ConstantClash,
    /// A TGD with an empty premise mints existentials: an unconditional
    /// null generator.
    UnboundedGenerator,
    /// An atom's argument count disagrees with the predicate's declared
    /// arity.
    ArityMismatch {
        /// The predicate used at the wrong arity.
        pred: PredId,
        /// Arity the vocabulary declares.
        expected: usize,
        /// Arity the atom actually uses.
        found: usize,
    },
    /// A TGD conclusion shares no variables with a non-empty premise:
    /// a cartesian generator firing once per premise match regardless of
    /// what it concluded before.
    DisconnectedConclusion,
    /// A TGD existential that conclusion-atom reuse cannot bind: no
    /// conclusion atom places it at the output positions of a predicate
    /// some co-registered EGD proves functional (with bound inputs).
    UnguardedExistential {
        /// The existential variable.
        var: u32,
    },
    /// A dependency-graph cycle through an *unguarded* special edge:
    /// the chase may mint nulls forever (not weakly acyclic).
    SpecialCycle {
        /// A witness cycle as a list of `(predicate, position)` nodes.
        path: Vec<(PredId, usize)>,
    },
    /// A cycle whose special edges are all reuse-guarded: termination
    /// relies on conclusion-atom reuse plus the runtime budget.
    GuardedCycle {
        /// A witness cycle as a list of `(predicate, position)` nodes.
        path: Vec<(PredId, usize)>,
    },
    /// The rule is redundant: another rule's premise maps into this
    /// one's and already derives everything this rule concludes.
    Subsumed {
        /// Name of the subsuming rule.
        by: String,
    },
}

/// One finding: which rule, how severe, what kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleIssue {
    /// Name of the rule the finding is anchored to.
    pub rule: String,
    /// Severity; [`Severity::Error`] fails certification.
    pub severity: Severity,
    /// The defect class.
    pub kind: IssueKind,
}

impl RuleIssue {
    /// Human-readable message; predicate names resolve through `vocab`
    /// when given, otherwise render as `pred#<id>`.
    pub fn message(&self, vocab: Option<&Vocabulary>) -> String {
        let pred_name = |p: PredId| match vocab {
            Some(v) if (p.0 as usize) < v.num_preds() => v.pred_name(p).to_owned(),
            _ => format!("pred#{}", p.0),
        };
        let path_str = |path: &[(PredId, usize)]| {
            path.iter()
                .map(|&(p, i)| format!("({}, {i})", pred_name(p)))
                .collect::<Vec<_>>()
                .join(" → ")
        };
        match &self.kind {
            IssueKind::UnboundEgdVar { var } => {
                format!(
                    "[{}] EGD equates variable ?{var} that no premise atom binds",
                    self.rule
                )
            }
            IssueKind::ConstantClash => {
                format!(
                    "[{}] EGD equates two distinct constants: every match clashes",
                    self.rule
                )
            }
            IssueKind::UnboundedGenerator => format!(
                "[{}] TGD has an empty premise but mints existentials (unconditional null \
                 generator)",
                self.rule
            ),
            IssueKind::ArityMismatch { pred, expected, found } => format!(
                "[{}] atom over `{}` uses arity {found}, declared {expected}",
                self.rule,
                pred_name(*pred)
            ),
            IssueKind::DisconnectedConclusion => format!(
                "[{}] conclusion shares no variables with the premise (cartesian generator)",
                self.rule
            ),
            IssueKind::UnguardedExistential { var } => format!(
                "[{}] existential ?{var} is not bindable by conclusion-atom reuse (no \
                 functional EGD covers its positions); the chase will mint fresh nulls",
                self.rule
            ),
            IssueKind::SpecialCycle { path } => format!(
                "[{}] termination risk: dependency cycle through an unguarded existential \
                 edge: {}",
                self.rule,
                path_str(path)
            ),
            IssueKind::GuardedCycle { path } => format!(
                "[{}] reuse-guarded cycle (termination relies on conclusion-atom reuse + \
                 chase budget): {}",
                self.rule,
                path_str(path)
            ),
            IssueKind::Subsumed { by } => {
                format!("[{}] subsumed by [{by}]: every firing is already derived", self.rule)
            }
        }
    }
}

/// The full analysis report over one constraint set.
#[derive(Debug, Clone)]
pub struct RuleReport {
    /// Number of TGDs analyzed.
    pub num_tgds: usize,
    /// Number of EGDs analyzed.
    pub num_egds: usize,
    /// Predicates some EGD proves functional, with their signatures —
    /// exactly what the chase engine's conclusion-atom reuse consumes.
    pub functional_preds: Vec<(PredId, FunctionalSig)>,
    /// All findings, most severe first.
    pub issues: Vec<RuleIssue>,
    /// Textbook weak acyclicity: no cycle through any special edge,
    /// guarded or not.
    pub wa_strict: bool,
    /// Weak acyclicity modulo conclusion-atom reuse: no cycle through an
    /// *unguarded* special edge. This is the certificate registration
    /// and the CI gate require.
    pub wa_modulo_reuse: bool,
    /// Number of `(predicate, position)` nodes in the dependency graph.
    pub positions: usize,
    /// Regular edge count.
    pub regular_edges: usize,
    /// Unguarded special (existential) edge count.
    pub special_edges: usize,
    /// Reuse-guarded special edge count.
    pub guarded_edges: usize,
}

impl RuleReport {
    /// Findings of [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &RuleIssue> {
        self.issues.iter().filter(|i| i.severity == Severity::Error)
    }

    /// The certificate: no error findings and weakly acyclic modulo
    /// reuse. Guarded cycles and warnings do not fail certification.
    pub fn certified(&self) -> bool {
        self.wa_modulo_reuse && self.errors().next().is_none()
    }

    /// The typed rejection carrying every error finding, or `None` when
    /// the set certifies.
    pub fn rejection(&self) -> Option<RuleRejection> {
        if self.certified() {
            return None;
        }
        Some(RuleRejection { issues: self.errors().cloned().collect() })
    }

    /// Multi-line human-readable rendering (used by `xtask analyze`).
    pub fn display(&self, vocab: Option<&Vocabulary>) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rules: {} TGDs + {} EGDs · functional preds: {} · positions: {} · edges: {} \
             regular / {} guarded / {} special\n",
            self.num_tgds,
            self.num_egds,
            self.functional_preds.len(),
            self.positions,
            self.regular_edges,
            self.guarded_edges,
            self.special_edges,
        ));
        out.push_str(&format!(
            "weakly acyclic (strict): {} · weakly acyclic (modulo reuse): {}\n",
            self.wa_strict, self.wa_modulo_reuse
        ));
        for issue in &self.issues {
            let tag = match issue.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "warn ",
                Severity::Info => "info ",
            };
            out.push_str(&format!("  {tag} {}\n", issue.message(vocab)));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.certified() { "CERTIFIED" } else { "REJECTED" }
        ));
        out
    }
}

/// Typed rejection of a statically-unsafe rule set: the error-severity
/// findings that killed it. Returned by registration entry points.
#[derive(Debug, Clone)]
pub struct RuleRejection {
    /// The error findings (never empty).
    pub issues: Vec<RuleIssue>,
}

impl fmt::Display for RuleRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule set rejected by static analysis ({} error(s)):", self.issues.len())?;
        for i in &self.issues {
            write!(f, "\n  {}", i.message(None))?;
        }
        Ok(())
    }
}

impl std::error::Error for RuleRejection {}

/// Builder-style analyzer over one constraint set.
pub struct Analyzer<'a> {
    constraints: &'a [Constraint],
    vocab: Option<&'a Vocabulary>,
    subsumption: bool,
}

impl<'a> Analyzer<'a> {
    /// Analyzer over `constraints` without arity validation, with
    /// subsumption on.
    pub fn new(constraints: &'a [Constraint]) -> Self {
        Analyzer { constraints, vocab: None, subsumption: true }
    }

    /// Enables arity validation and name resolution against the
    /// vocabulary the constraints were built over.
    pub fn with_vocab(mut self, vocab: &'a Vocabulary) -> Self {
        self.vocab = Some(vocab);
        self
    }

    /// Disables the quadratic duplicate/subsumption check.
    pub fn without_subsumption(mut self) -> Self {
        self.subsumption = false;
        self
    }

    /// Runs every enabled check and assembles the report.
    pub fn report(&self) -> RuleReport {
        static REPORTS: hadad_obs::LazyCounter = hadad_obs::LazyCounter::new("analyze.reports");
        REPORTS.incr();
        let _span = hadad_obs::span("analyze.report");
        let functional: HashMap<PredId, FunctionalSig> = self
            .constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::Egd(e) => functional_sig(e),
                Constraint::Tgd(_) => None,
            })
            .collect();

        let mut issues = safety::check(self.constraints, self.vocab, &functional);

        let g = PositionGraph::build(self.constraints, &functional);
        let (cycle_issues, wa_strict, wa_modulo_reuse) = g.cycle_issues(self.constraints);
        issues.extend(cycle_issues);

        if self.subsumption {
            issues.extend(subsume::check(self.constraints));
        }

        issues.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.rule.cmp(&b.rule)));

        let mut functional_preds: Vec<(PredId, FunctionalSig)> =
            functional.into_iter().collect();
        functional_preds.sort_by_key(|(p, _)| p.0);

        RuleReport {
            num_tgds: self
                .constraints
                .iter()
                .filter(|c| matches!(c, Constraint::Tgd(_)))
                .count(),
            num_egds: self
                .constraints
                .iter()
                .filter(|c| matches!(c, Constraint::Egd(_)))
                .count(),
            functional_preds,
            issues,
            wa_strict,
            wa_modulo_reuse,
            positions: g.num_positions(),
            regular_edges: g.num_edges(EdgeKind::Regular),
            special_edges: g.num_edges(EdgeKind::Special),
            guarded_edges: g.num_edges(EdgeKind::GuardedSpecial),
        }
    }
}

/// The set of a TGD's existential variables that the engine's
/// conclusion-atom reuse can bind to existing witnesses: those a lookup of
/// the TGD's [`ResolutionOrder`] binds — the order the engine compiles
/// for the rule, where an existential resolves when some conclusion atom
/// over a functional predicate places it at an output position with every
/// input position filled by a constant or an already-resolved variable.
pub fn reuse_bound_existentials(
    tgd: &Tgd,
    functional: &HashMap<PredId, FunctionalSig>,
) -> HashSet<u32> {
    let order = ResolutionOrder::compile(tgd, |p| functional.get(&p));
    tgd.existential_vars().into_iter().filter(|&v| order.binds(v)).collect()
}
