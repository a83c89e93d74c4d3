"""The literature-derived composition test suite.

The paper's first data set contains 22 composition problems drawn from the
recent literature ([5] Fagin et al., [7] Melnik et al., [8] Nash et al.) and
from the paper's own running examples, "which illustrate subtle composition
issues" and whose expected outcomes are documented (sometimes with formal
proofs).  The original downloadable archive is no longer available, so this
module reconstructs an equivalent suite of 22 problems directly from the
examples printed in the paper and the standard examples of the cited papers.

Each :class:`LiteratureProblem` records the composition problem, its source,
and — where the literature documents it — which intermediate symbols are
expected to be eliminable.  The test suite and the literature benchmark both
iterate over :func:`all_problems`.

The transitive closure of [8] Theorem 1 is the library's
:class:`~repro.algebra.expressions.TransitiveClosure`: its class holds its
syntax and semantics, so both problems that use it read back from text, and
the registry, which holds what the algorithm knows, has no rule for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.algebra.builders import natural_key_join, project
from repro.algebra.conditions import And, equals, equals_const
from repro.algebra.expressions import (
    CrossProduct,
    Difference,
    Intersection,
    LeftOuterJoin,
    Projection,
    Relation,
    Selection,
    TransitiveClosure,
    Union,
)
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.constraints.dependencies import key_constraint
from repro.mapping.composition_problem import CompositionProblem
from repro.schema.signature import RelationSchema, Signature

__all__ = ["LiteratureProblem", "all_problems", "problem_by_name"]


@dataclass(frozen=True)
class LiteratureProblem:
    """A composition problem with its documented expectations."""

    name: str
    source: str
    description: str
    problem: CompositionProblem
    #: σ2 symbols documented as eliminable; ``None`` = not documented.
    expected_eliminable: Optional[Tuple[str, ...]] = None
    #: σ2 symbols documented as NOT eliminable (inherently, or by this algorithm).
    expected_not_eliminable: Tuple[str, ...] = ()

    @property
    def expected_complete(self) -> Optional[bool]:
        """Whether the composition is expected to eliminate every σ2 symbol."""
        if self.expected_eliminable is None:
            return None
        return set(self.expected_eliminable) == set(self.problem.sigma2.names()) and not (
            self.expected_not_eliminable
        )


def _sig(**arities: int) -> Signature:
    return Signature.from_arities(arities)


# ---------------------------------------------------------------------------
# Problems from the paper's own examples
# ---------------------------------------------------------------------------


def _example1_movies() -> LiteratureProblem:
    movies = Relation("Movies", 6)
    five_star = Relation("FiveStarMovies", 3)
    names = Relation("Names", 2)
    years = Relation("Years", 2)
    sigma12 = ConstraintSet(
        [
            ContainmentConstraint(
                Projection(Selection(movies, equals_const(3, 5)), (0, 1, 2)), five_star
            )
        ]
    )
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(Projection(five_star, (0, 1)), names),
            ContainmentConstraint(Projection(five_star, (0, 2)), years),
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(Movies=6),
        sigma2=_sig(FiveStarMovies=3),
        sigma3=_sig(Names=2, Years=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="example1_movies",
    )
    return LiteratureProblem(
        name="example1_movies",
        source="paper, Example 1",
        description="Schema editing: select five-star movies then split into Names/Years.",
        problem=problem,
        expected_eliminable=("FiveStarMovies",),
    )


def _example3_inclusion_chain() -> LiteratureProblem:
    r, s, t = Relation("R", 2), Relation("S", 2), Relation("T", 2)
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2),
        sigma12=ConstraintSet([ContainmentConstraint(r, s)]),
        sigma23=ConstraintSet([ContainmentConstraint(s, t)]),
        name="example3_inclusion_chain",
    )
    return LiteratureProblem(
        name="example3_inclusion_chain",
        source="paper, Example 3",
        description="{R ⊆ S, S ⊆ T} is equivalent to {R ⊆ T}.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _example5_view_unfolding() -> LiteratureProblem:
    r1, r2, r3 = Relation("R1", 2), Relation("R2", 2), Relation("R3", 4)
    s = Relation("S", 4)
    t1, t2, t3 = Relation("T1", 2), Relation("T2", 4), Relation("T3", 4)
    sigma12 = ConstraintSet([EqualityConstraint(s, CrossProduct(r1, r2))])
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(Projection(Difference(r3, s), (0, 1)), t1),
            ContainmentConstraint(t2, Difference(t3, Selection(s, equals_const(0, "c")))),
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(R1=2, R2=2),
        sigma2=_sig(S=4),
        sigma3=_sig(R3=4, T1=2, T2=4, T3=4),
        sigma12=sigma12,
        sigma23=sigma23,
        name="example5_view_unfolding",
    )
    return LiteratureProblem(
        name="example5_view_unfolding",
        source="paper, Example 5",
        description="Neither left nor right compose applies, but view unfolding eliminates S.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _example7_left_compose() -> LiteratureProblem:
    r, s = Relation("R", 2), Relation("S", 2)
    t, u = Relation("T", 2), Relation("U", 1)
    sigma12 = ConstraintSet([ContainmentConstraint(Difference(r, s), t)])
    sigma23 = ConstraintSet([ContainmentConstraint(Projection(s, (0,)), u)])
    # To make the middle symbol S actually shared by both mappings, place the
    # difference constraint in Σ12 and the projection constraint in Σ23 as the
    # paper does (both mention S).
    problem = CompositionProblem(
        sigma1=_sig(R=2, T=2),
        sigma2=_sig(S=2),
        sigma3=_sig(U=1),
        sigma12=sigma12,
        sigma23=sigma23,
        name="example7_left_compose",
    )
    return LiteratureProblem(
        name="example7_left_compose",
        source="paper, Examples 7 and 10",
        description="R − S ⊆ T with π(S) ⊆ U: right compose fails, left compose succeeds.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _example8_intersection_left() -> LiteratureProblem:
    r, s = Relation("R", 2), Relation("S", 2)
    t, u = Relation("T", 2), Relation("U", 1)
    problem = CompositionProblem(
        sigma1=_sig(R=2, T=2),
        sigma2=_sig(S=2),
        sigma3=_sig(U=1),
        sigma12=ConstraintSet([ContainmentConstraint(Intersection(r, s), t)]),
        sigma23=ConstraintSet([ContainmentConstraint(Projection(s, (0,)), u)]),
        name="example8_intersection_left",
    )
    return LiteratureProblem(
        name="example8_intersection_left",
        source="paper, Example 8",
        description=(
            "R ∩ S ⊆ T with π(S) ⊆ U: left-normalization fails (no rule for ∩ on the left); "
            "right compose still eliminates S via the vacuous lower bound ∅."
        ),
        problem=problem,
        expected_eliminable=("S",),
    )


def _example9_domain_elimination() -> LiteratureProblem:
    r, t = Relation("R", 2), Relation("T", 2)
    s, u = Relation("S", 2), Relation("U", 1)
    problem = CompositionProblem(
        sigma1=_sig(R=2, T=2),
        sigma2=_sig(S=2),
        sigma3=_sig(U=1),
        sigma12=ConstraintSet([ContainmentConstraint(Intersection(r, t), s)]),
        sigma23=ConstraintSet([ContainmentConstraint(u, Projection(s, (0,)))]),
        name="example9_domain_elimination",
    )
    return LiteratureProblem(
        name="example9_domain_elimination",
        source="paper, Examples 9, 11 and 12",
        description=(
            "R ∩ T ⊆ S with U ⊆ π(S): left compose adds the trivial bound S ⊆ D^r and the "
            "domain-elimination step then removes every constraint."
        ),
        problem=problem,
        expected_eliminable=("S",),
    )


def _example13_right_compose() -> LiteratureProblem:
    s, t = Relation("S", 2), Relation("T", 3)
    u, r = Relation("U", 5), Relation("R", 3)
    # The paper presents this pair of constraints as an ELIMINATE input; as a
    # composition problem all outer symbols live on the σ3 side.
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(CrossProduct(s, t), u),
            ContainmentConstraint(
                t,
                CrossProduct(Selection(s, equals_const(0, "c")), Projection(r, (0,))),
            ),
        ]
    )
    problem = CompositionProblem(
        sigma1=Signature(),
        sigma2=_sig(S=2),
        sigma3=_sig(T=3, R=3, U=5),
        sigma12=ConstraintSet(),
        sigma23=sigma23,
        name="example13_right_compose",
    )
    return LiteratureProblem(
        name="example13_right_compose",
        source="paper, Examples 13 and 15",
        description="S × T ⊆ U with T ⊆ σ(S) × π(R): right compose eliminates S without Skolemization left over.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _example14_skolem() -> LiteratureProblem:
    r = Relation("R", 1)
    s = Relation("S", 1)
    t, u = Relation("T", 2), Relation("U", 2)
    # R ⊆ π_0(S × (T ∩ U)), S ⊆ π_0(σ_c(T)) — eliminating S requires the
    # Skolemizing projection rule followed by deskolemization.  The paper
    # presents it as an ELIMINATE input; all outer symbols live on the σ1 side.
    sigma12 = ConstraintSet(
        [
            ContainmentConstraint(r, Projection(CrossProduct(s, Intersection(t, u)), (0,))),
            ContainmentConstraint(s, Projection(Selection(t, equals_const(0, "c")), (0,))),
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(R=1, T=2, U=2),
        sigma2=_sig(S=1),
        sigma3=Signature(),
        sigma12=sigma12,
        sigma23=ConstraintSet(),
        name="example14_skolem",
    )
    return LiteratureProblem(
        name="example14_skolem",
        source="paper, Examples 14 and 16 (adapted arities)",
        description="Projection on the right forces Skolemization; deskolemization must clean up.",
        problem=problem,
        expected_eliminable=None,
    )


def _fagin_example17_noncomposable() -> LiteratureProblem:
    e = Relation("E", 2)
    f = Relation("F", 2)
    c = Relation("C", 2)
    d = Relation("D_rel", 2)
    sigma12 = ConstraintSet(
        [
            ContainmentConstraint(e, f),
            ContainmentConstraint(Projection(e, (0,)), Projection(c, (0,))),
            ContainmentConstraint(Projection(e, (1,)), Projection(c, (0,))),
        ]
    )
    # σ_{1=3, 2=5} in the paper's 1-based notation is σ_{0=2, 1=4} here.
    body = Selection(CrossProduct(CrossProduct(f, c), c), And(equals(0, 2), equals(1, 4)))
    sigma23 = ConstraintSet([ContainmentConstraint(Projection(body, (3, 5)), d)])
    problem = CompositionProblem(
        sigma1=_sig(E=2),
        sigma2=_sig(F=2, C=2),
        sigma3=_sig(D_rel=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="fagin_example17_noncomposable",
    )
    return LiteratureProblem(
        name="fagin_example17_noncomposable",
        source="paper Example 17, after Fagin, Kolaitis, Popa, Tan (PODS 2004)",
        description=(
            "Right compose eliminates F, but eliminating C is impossible by any means: "
            "deskolemization fails on the repeated Skolem function (step 3)."
        ),
        problem=problem,
        expected_eliminable=("F",),
        expected_not_eliminable=("C",),
    )


def _nash_transitive_closure() -> LiteratureProblem:
    r, s, t = Relation("R", 2), Relation("S", 2), Relation("T", 2)
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2),
        sigma12=ConstraintSet(
            [ContainmentConstraint(r, s), EqualityConstraint(s, TransitiveClosure(s))]
        ),
        sigma23=ConstraintSet([ContainmentConstraint(s, t)]),
        name="nash_transitive_closure",
    )
    return LiteratureProblem(
        name="nash_transitive_closure",
        source="paper Section 1.3, after Nash, Bernstein, Melnik (PODS 2005), Theorem 1",
        description=(
            "R ⊆ S, S = tc(S), S ⊆ T: S is involved in a recursive computation and cannot be "
            "eliminated; the algorithm must tolerate the unknown tc operator and keep S."
        ),
        problem=problem,
        expected_eliminable=(),
        expected_not_eliminable=("S",),
    )


def _fagin_employee_manager() -> LiteratureProblem:
    emp = Relation("Emp", 1)
    mgr1 = Relation("Mgr1", 2)
    mgr = Relation("Mgr", 2)
    self_mgr = Relation("SelfMgr", 1)
    sigma12 = ConstraintSet([ContainmentConstraint(emp, Projection(mgr1, (0,)))])
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(mgr1, mgr),
            ContainmentConstraint(Projection(Selection(mgr1, equals(0, 1)), (0,)), self_mgr),
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(Emp=1),
        sigma2=_sig(Mgr1=2),
        sigma3=_sig(Mgr=2, SelfMgr=1),
        sigma12=sigma12,
        sigma23=sigma23,
        name="fagin_employee_manager",
    )
    return LiteratureProblem(
        name="fagin_employee_manager",
        source="Fagin, Kolaitis, Popa, Tan (PODS 2004), employee/manager example",
        description=(
            "The classic employee/manager composition.  Right compose is blocked by the "
            "selection over the Skolemized lower bound, but left compose expresses the "
            "composition using the active-domain relation (the algebraic language is richer "
            "than source-to-target tgds), so Mgr1 is eliminated."
        ),
        problem=problem,
        expected_eliminable=("Mgr1",),
    )


# ---------------------------------------------------------------------------
# GLAV / data-integration style problems
# ---------------------------------------------------------------------------


def _glav_chain() -> LiteratureProblem:
    src = Relation("Src", 3)
    mid1, mid2 = Relation("Mid1", 2), Relation("Mid2", 2)
    dst = Relation("Dst", 2)
    sigma12 = ConstraintSet(
        [
            ContainmentConstraint(Projection(src, (0, 1)), mid1),
            ContainmentConstraint(Projection(src, (0, 2)), mid2),
        ]
    )
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(
                Projection(
                    Selection(CrossProduct(mid1, mid2), equals(0, 2)), (1, 3)
                ),
                dst,
            )
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(Src=3),
        sigma2=_sig(Mid1=2, Mid2=2),
        sigma3=_sig(Dst=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="glav_chain",
    )
    return LiteratureProblem(
        name="glav_chain",
        source="Madhavan & Halevy (VLDB 2003) style GLAV chain",
        description="Two GLAV assertions composed with a join query over the intermediate peers.",
        problem=problem,
        expected_eliminable=("Mid1", "Mid2"),
    )


def _view_unfolding_query() -> LiteratureProblem:
    orders = Relation("Orders", 3)
    customers = Relation("Customers", 2)
    view = Relation("BigOrders", 2)
    answer = Relation("Answer", 2)
    sigma12 = ConstraintSet(
        [
            EqualityConstraint(
                view, Projection(Selection(orders, equals_const(2, "large")), (0, 1))
            )
        ]
    )
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(
                Projection(
                    Selection(CrossProduct(view, customers), equals(1, 2)), (0, 3)
                ),
                answer,
            )
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(Orders=3),
        sigma2=_sig(BigOrders=2),
        sigma3=_sig(Customers=2, Answer=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="view_unfolding_query",
    )
    return LiteratureProblem(
        name="view_unfolding_query",
        source="Stonebraker (SIGMOD 1975) / data-integration query unfolding",
        description="A GAV view definition composed with a query over the view (classical view unfolding).",
        problem=problem,
        expected_eliminable=("BigOrders",),
    )


def _melnik_purchase_orders() -> LiteratureProblem:
    po = Relation("PurchaseOrder", 4)
    lines = Relation("OrderLines", 3)
    header = Relation("Header", 2)
    report = Relation("Report", 3)
    sigma12 = ConstraintSet(
        [
            EqualityConstraint(header, Projection(po, (0, 1))),
            EqualityConstraint(lines, Projection(po, (0, 2, 3))),
        ]
    )
    sigma23 = ConstraintSet(
        [
            ContainmentConstraint(
                Projection(
                    Selection(CrossProduct(header, lines), equals(0, 2)), (0, 1, 3)
                ),
                report,
            )
        ]
    )
    problem = CompositionProblem(
        sigma1=_sig(PurchaseOrder=4),
        sigma2=_sig(Header=2, OrderLines=3),
        sigma3=_sig(Report=3),
        sigma12=sigma12,
        sigma23=sigma23,
        name="melnik_purchase_orders",
    )
    return LiteratureProblem(
        name="melnik_purchase_orders",
        source="Melnik, Bernstein, Halevy, Rahm (SIGMOD 2005) style executable mappings",
        description="A purchase-order schema split into header/lines views, composed with a reporting query.",
        problem=problem,
        expected_eliminable=("Header", "OrderLines"),
    )


# ---------------------------------------------------------------------------
# Schema-evolution style problems
# ---------------------------------------------------------------------------


def _evolution_add_then_drop() -> LiteratureProblem:
    r = Relation("R", 2)
    s = Relation("S", 3)
    t = Relation("T", 2)
    sigma12 = ConstraintSet([EqualityConstraint(r, Projection(s, (0, 1)))])
    sigma23 = ConstraintSet([EqualityConstraint(Projection(s, (0, 2)), t)])
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=3),
        sigma3=_sig(T=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="evolution_add_then_drop",
    )
    return LiteratureProblem(
        name="evolution_add_then_drop",
        source="schema evolution: AA followed by DA (paper Figure 1)",
        description="Add an attribute then drop a different one; the intermediate table must go.",
        problem=problem,
        expected_eliminable=None,
    )


def _horizontal_partition_merge() -> LiteratureProblem:
    r = Relation("R", 2)
    s, t = Relation("S", 2), Relation("T", 2)
    w = Relation("W", 2)
    sigma12 = ConstraintSet(
        [
            EqualityConstraint(Selection(r, equals_const(1, "a")), s),
            EqualityConstraint(Selection(r, equals_const(1, "b")), t),
            EqualityConstraint(r, Union(s, t)),
        ]
    )
    sigma23 = ConstraintSet([EqualityConstraint(Union(s, t), w)])
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2, T=2),
        sigma3=_sig(W=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="horizontal_partition_merge",
    )
    return LiteratureProblem(
        name="horizontal_partition_merge",
        source="schema evolution: H followed by a merge (paper Figure 1)",
        description="Horizontally partition a table and then merge the parts back together.",
        problem=problem,
        expected_eliminable=None,
    )


def _vertical_partition_roundtrip() -> LiteratureProblem:
    r = Relation("R", 3)
    s, t = Relation("S", 2), Relation("T", 2)
    w = Relation("W", 3)
    join_back = natural_key_join(s, t, 1)
    sigma12 = ConstraintSet(
        [
            EqualityConstraint(Projection(r, (0, 1)), s),
            EqualityConstraint(Projection(r, (0, 2)), t),
            key_constraint(r, (0,)),
        ]
    )
    sigma23 = ConstraintSet([EqualityConstraint(join_back, w)])
    problem = CompositionProblem(
        sigma1=_sig(R=3),
        sigma2=_sig(S=2, T=2),
        sigma3=_sig(W=3),
        sigma12=sigma12,
        sigma23=sigma23,
        name="vertical_partition_roundtrip",
    )
    return LiteratureProblem(
        name="vertical_partition_roundtrip",
        source="schema evolution: Vf followed by Vb (paper Figure 1 and Example 2)",
        description="Vertically partition a keyed table and join the parts back (key encoded via D).",
        problem=problem,
        expected_eliminable=None,
    )


def _copy_rename_chain() -> LiteratureProblem:
    r = Relation("R", 3)
    s = Relation("S", 3)
    t = Relation("T", 3)
    problem = CompositionProblem(
        sigma1=_sig(R=3),
        sigma2=_sig(S=3),
        sigma3=_sig(T=3),
        sigma12=ConstraintSet([EqualityConstraint(r, s)]),
        sigma23=ConstraintSet([EqualityConstraint(s, t)]),
        name="copy_rename_chain",
    )
    return LiteratureProblem(
        name="copy_rename_chain",
        source="schema evolution: a chain of renames",
        description="Two identity mappings compose into one (pure view unfolding).",
        problem=problem,
        expected_eliminable=("S",),
    )


def _partial_elimination_mixed() -> LiteratureProblem:
    r = Relation("R", 2)
    s1, s2 = Relation("S1", 2), Relation("S2", 2)
    t = Relation("T", 2)
    sigma12 = ConstraintSet(
        [
            EqualityConstraint(s1, Projection(r, (0, 1))),
            EqualityConstraint(s2, TransitiveClosure(s2)),
            ContainmentConstraint(r, s2),
        ]
    )
    sigma23 = ConstraintSet(
        [ContainmentConstraint(s1, t), ContainmentConstraint(s2, t)]
    )
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S1=2, S2=2),
        sigma3=_sig(T=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="partial_elimination_mixed",
    )
    return LiteratureProblem(
        name="partial_elimination_mixed",
        source="paper Section 1.3 (best-effort elimination)",
        description="Exactly one of the two intermediate symbols can be eliminated; the other must survive.",
        problem=problem,
        expected_eliminable=("S1",),
        expected_not_eliminable=("S2",),
    )


# ---------------------------------------------------------------------------
# Operator-coverage problems (difference, outerjoin, unions)
# ---------------------------------------------------------------------------


def _difference_monotonicity() -> LiteratureProblem:
    r = Relation("R", 2)
    s = Relation("S", 2)
    t = Relation("T", 2)
    u = Relation("U", 2)
    sigma12 = ConstraintSet([ContainmentConstraint(r, s)])
    sigma23 = ConstraintSet([ContainmentConstraint(Difference(s, t), u)])
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2, U=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="difference_monotonicity",
    )
    return LiteratureProblem(
        name="difference_monotonicity",
        source="paper Section 1.3 (use of monotonicity)",
        description=(
            "S occurs in the first (monotone) argument of a difference on a left-hand side; "
            "right compose may substitute the lower bound R for it."
        ),
        problem=problem,
        expected_eliminable=("S",),
    )


def _difference_antimonotone_blocked() -> LiteratureProblem:
    r = Relation("R", 2)
    s = Relation("S", 2)
    t = Relation("T", 2)
    u = Relation("U", 2)
    sigma12 = ConstraintSet([ContainmentConstraint(r, s)])
    sigma23 = ConstraintSet([ContainmentConstraint(Difference(t, s), u)])
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2, U=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="difference_antimonotone_blocked",
    )
    return LiteratureProblem(
        name="difference_antimonotone_blocked",
        source="paper Section 1.3 (use of monotonicity, negative case)",
        description=(
            "S occurs only in the anti-monotone argument of a difference on a left-hand side, so "
            "substituting the lower bound there would be unsound; the algorithm instead moves S to "
            "the right-hand side during left-normalization and eliminates it soundly."
        ),
        problem=problem,
        expected_eliminable=("S",),
    )


def _outerjoin_tolerance() -> LiteratureProblem:
    r = Relation("R", 2)
    s = Relation("S", 2)
    t = Relation("T", 2)
    u = Relation("U", 4)
    sigma12 = ConstraintSet([EqualityConstraint(s, Selection(r, equals_const(1, "x")))])
    sigma23 = ConstraintSet(
        [ContainmentConstraint(LeftOuterJoin(t, s, equals(0, 2)), u)]
    )
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2, U=4),
        sigma12=sigma12,
        sigma23=sigma23,
        name="outerjoin_tolerance",
    )
    return LiteratureProblem(
        name="outerjoin_tolerance",
        source="paper Section 1.3 / extended TR sample run (outerjoin)",
        description=(
            "The intermediate symbol appears under a left outerjoin; view unfolding eliminates it "
            "because the defining constraint is an equality."
        ),
        problem=problem,
        expected_eliminable=("S",),
    )


def _outerjoin_right_blocked() -> LiteratureProblem:
    r = Relation("R", 2)
    s = Relation("S", 2)
    t = Relation("T", 2)
    u = Relation("U", 4)
    sigma12 = ConstraintSet([ContainmentConstraint(r, s)])
    sigma23 = ConstraintSet(
        [ContainmentConstraint(LeftOuterJoin(t, s, equals(0, 2)), u)]
    )
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2, U=4),
        sigma12=sigma12,
        sigma23=sigma23,
        name="outerjoin_right_blocked",
    )
    return LiteratureProblem(
        name="outerjoin_right_blocked",
        source="paper Section 1.3 (left outerjoin is not monotone in its second argument)",
        description=(
            "Without a defining equality, the symbol under the outerjoin's second argument cannot "
            "be substituted (not monotone), so it is kept."
        ),
        problem=problem,
        expected_eliminable=(),
        expected_not_eliminable=("S",),
    )


def _union_split_targets() -> LiteratureProblem:
    r1, r2 = Relation("R1", 2), Relation("R2", 2)
    s = Relation("S", 2)
    t1, t2 = Relation("T1", 2), Relation("T2", 2)
    sigma12 = ConstraintSet([ContainmentConstraint(Union(r1, r2), s)])
    sigma23 = ConstraintSet([ContainmentConstraint(s, Union(t1, t2))])
    problem = CompositionProblem(
        sigma1=_sig(R1=2, R2=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T1=2, T2=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="union_split_targets",
    )
    return LiteratureProblem(
        name="union_split_targets",
        source="GLAV with unions on both sides",
        description="A union lower bound composed with a union upper bound.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _key_constraint_propagation() -> LiteratureProblem:
    r = Relation("R", 3)
    s = Relation("S", 3)
    t = Relation("T", 2)
    sigma12 = ConstraintSet([EqualityConstraint(r, s), key_constraint(s, (0,))])
    sigma23 = ConstraintSet([EqualityConstraint(Projection(s, (0, 1)), t)])
    problem = CompositionProblem(
        sigma1=_sig(R=3),
        sigma2=_sig(S=3),
        sigma3=_sig(T=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="key_constraint_propagation",
    )
    return LiteratureProblem(
        name="key_constraint_propagation",
        source="paper Example 2 (key constraints via the active domain)",
        description="A keyed copy of a relation: the key constraint must be propagated when the symbol is unfolded.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _selection_pushthrough() -> LiteratureProblem:
    r = Relation("R", 2)
    s = Relation("S", 2)
    t = Relation("T", 2)
    sigma12 = ConstraintSet([ContainmentConstraint(Selection(r, equals_const(1, 7)), s)])
    sigma23 = ConstraintSet([ContainmentConstraint(Selection(s, equals_const(0, 3)), t)])
    problem = CompositionProblem(
        sigma1=_sig(R=2),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="selection_pushthrough",
    )
    return LiteratureProblem(
        name="selection_pushthrough",
        source="selection-only GLAV chain",
        description="Selections on both sides of the intermediate symbol.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _two_step_projection() -> LiteratureProblem:
    r = Relation("R", 3)
    s = Relation("S", 2)
    t = Relation("T", 1)
    sigma12 = ConstraintSet([ContainmentConstraint(Projection(r, (0, 1)), s)])
    sigma23 = ConstraintSet([ContainmentConstraint(Projection(s, (0,)), t)])
    problem = CompositionProblem(
        sigma1=_sig(R=3),
        sigma2=_sig(S=2),
        sigma3=_sig(T=1),
        sigma12=sigma12,
        sigma23=sigma23,
        name="two_step_projection",
    )
    return LiteratureProblem(
        name="two_step_projection",
        source="LAV-style projection chain",
        description="Two projections compose into one.",
        problem=problem,
        expected_eliminable=("S",),
    )


def _lav_existential_target() -> LiteratureProblem:
    r = Relation("R", 1)
    s = Relation("S", 2)
    t = Relation("T", 2)
    sigma12 = ConstraintSet([ContainmentConstraint(r, Projection(s, (0,)))])
    sigma23 = ConstraintSet([ContainmentConstraint(s, t)])
    problem = CompositionProblem(
        sigma1=_sig(R=1),
        sigma2=_sig(S=2),
        sigma3=_sig(T=2),
        sigma12=sigma12,
        sigma23=sigma23,
        name="lav_existential_target",
    )
    return LiteratureProblem(
        name="lav_existential_target",
        source="LAV assertion with an existential target (Fagin et al. style)",
        description=(
            "R ⊆ π(S) with S ⊆ T: right compose Skolemizes the projection and deskolemization "
            "produces R ⊆ π(T)."
        ),
        problem=problem,
        expected_eliminable=("S",),
    )


_BUILDERS: Tuple[Callable[[], LiteratureProblem], ...] = (
    _example1_movies,
    _example3_inclusion_chain,
    _example5_view_unfolding,
    _example7_left_compose,
    _example8_intersection_left,
    _example9_domain_elimination,
    _example13_right_compose,
    _example14_skolem,
    _fagin_example17_noncomposable,
    _nash_transitive_closure,
    _fagin_employee_manager,
    _glav_chain,
    _view_unfolding_query,
    _melnik_purchase_orders,
    _evolution_add_then_drop,
    _horizontal_partition_merge,
    _vertical_partition_roundtrip,
    _copy_rename_chain,
    _partial_elimination_mixed,
    _difference_monotonicity,
    _difference_antimonotone_blocked,
    _outerjoin_tolerance,
    _outerjoin_right_blocked,
    _union_split_targets,
    _key_constraint_propagation,
    _selection_pushthrough,
    _two_step_projection,
    _lav_existential_target,
)


def all_problems() -> List[LiteratureProblem]:
    """Return the full literature-derived suite (a superset of the paper's 22 problems)."""
    return [builder() for builder in _BUILDERS]


def problem_by_name(name: str) -> LiteratureProblem:
    """Look up a problem by its name."""
    for builder in _BUILDERS:
        problem = builder()
        if problem.name == name:
            return problem
    raise KeyError(f"unknown literature problem {name!r}")
