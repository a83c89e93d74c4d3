"""Unit tests for the cost-guided elimination planner.

Partitioning, the cost model, the bounded backtracking retry loop, the new
config knob / fingerprint coverage, and the mention-index short-circuits in
``eliminate`` (which must keep outcomes byte-identical to the full attempts).
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Projection, Relation, Union
from repro.compose import (
    ComposerConfig,
    CompositionPlan,
    build_plan,
    compose,
    compose_component,
    eliminate,
    order_symbols,
    plan_compose,
    symbol_cost,
)
from repro.compose import planner as planner_module
from repro.compose.result import EliminationMethod, EliminationOutcome
from repro.constraints.constraint import ContainmentConstraint, EqualityConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.exceptions import CompositionError
from repro.mapping.composition_problem import CompositionProblem
from repro.schema.signature import Signature


def _rel(name, arity=1):
    return Relation(name, arity)


def _problem(sigma1, sigma2, sigma3, sigma12, sigma23):
    return CompositionProblem(
        sigma1=Signature.from_arities(sigma1),
        sigma2=Signature.from_arities(sigma2),
        sigma3=Signature.from_arities(sigma3),
        sigma12=ConstraintSet(sigma12),
        sigma23=ConstraintSet(sigma23),
    )


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def test_build_plan_splits_connected_components():
    # σ2 = {A, B, C, D}: A and B co-occur, C is alone, D is never mentioned.
    constraints = ConstraintSet(
        [
            ContainmentConstraint(_rel("R1"), _rel("A")),
            ContainmentConstraint(_rel("A"), _rel("B")),
            EqualityConstraint(_rel("C"), _rel("R2")),
            ContainmentConstraint(_rel("R3"), _rel("S3")),  # no σ2 symbol
        ]
    )
    plan = build_plan(constraints, ("A", "B", "C", "D"))
    assert isinstance(plan, CompositionPlan)
    assert [component.symbols for component in plan.components] == [("A", "B"), ("C",)]
    assert [component.constraint_indices for component in plan.components] == [
        (0, 1),
        (2,),
    ]
    assert plan.free_symbols == ("D",)
    assert plan.untouched_indices == (3,)
    # Component baselines are component-local operator counts.
    assert plan.components[0].operator_count == sum(
        constraints[i].operator_count() for i in (0, 1)
    )


def test_build_plan_transitive_co_occurrence_merges_components():
    # A-B co-occur and B-C co-occur: one component {A, B, C}.
    constraints = ConstraintSet(
        [
            ContainmentConstraint(_rel("A"), _rel("B")),
            ContainmentConstraint(_rel("B"), _rel("C")),
        ]
    )
    plan = build_plan(constraints, ("A", "B", "C"))
    assert len(plan.components) == 1
    assert plan.components[0].symbols == ("A", "B", "C")
    assert plan.untouched_indices == ()


def test_build_plan_all_singletons():
    constraints = ConstraintSet(
        [
            EqualityConstraint(_rel("A"), _rel("R1")),
            EqualityConstraint(_rel("B"), _rel("R2")),
            EqualityConstraint(_rel("C"), _rel("R3")),
        ]
    )
    plan = build_plan(constraints, ("A", "B", "C"))
    assert [component.symbols for component in plan.components] == [
        ("A",),
        ("B",),
        ("C",),
    ]


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


def test_symbol_cost_tiers():
    constraints = ConstraintSet(
        [
            EqualityConstraint(_rel("A"), _rel("R1")),  # defines A: tier 0
            ContainmentConstraint(_rel("B"), _rel("R2")),  # plain mention: tier 1
            # C on both sides of one constraint: tier 2 (LC/RC dead on arrival).
            ContainmentConstraint(_rel("C"), Union(_rel("C"), _rel("R3"))),
        ]
    )
    assert symbol_cost(constraints, "A")[0] == 0
    assert symbol_cost(constraints, "B")[0] == 1
    assert symbol_cost(constraints, "C")[0] == 2
    assert order_symbols(constraints, ("C", "B", "A")) == ("A", "B", "C")


def test_symbol_cost_breaks_ties_on_mentions_then_operators():
    constraints = ConstraintSet(
        [
            ContainmentConstraint(_rel("A"), _rel("R1")),
            ContainmentConstraint(_rel("A"), _rel("R2")),
            ContainmentConstraint(Projection(Union(_rel("B"), _rel("R3")), (0,)), _rel("R4")),
        ]
    )
    # Same tier; B has fewer mentioning constraints than A.
    assert symbol_cost(constraints, "B")[1] < symbol_cost(constraints, "A")[1]
    assert order_symbols(constraints, ("A", "B")) == ("B", "A")


# ---------------------------------------------------------------------------
# Bounded backtracking
# ---------------------------------------------------------------------------


def test_compose_component_requeues_failed_symbols(monkeypatch):
    """A symbol that fails while another is present succeeds on retry."""
    constraints = ConstraintSet(
        [
            EqualityConstraint(_rel("A"), _rel("R1")),
            ContainmentConstraint(_rel("B"), _rel("R2")),
        ]
    )
    state = {"A_gone": False}

    def fake_eliminate(current, symbol, arity, config, baseline_operator_count=None):
        if symbol == "A":
            state["A_gone"] = True
            return current, EliminationOutcome(
                symbol="A", success=True, method=EliminationMethod.VIEW_UNFOLDING
            )
        if not state["A_gone"]:
            return current, EliminationOutcome(
                symbol=symbol, success=False, method=EliminationMethod.FAILED
            )
        return current, EliminationOutcome(
            symbol=symbol, success=True, method=EliminationMethod.LEFT_COMPOSE
        )

    monkeypatch.setattr(planner_module, "eliminate", fake_eliminate)
    # Force B first so its first attempt fails while A is still present.
    monkeypatch.setattr(
        planner_module, "order_symbols", lambda _constraints, symbols: tuple(symbols)
    )
    result = compose_component(constraints, ("B", "A"), (1, 1), ComposerConfig())
    assert result.order == ("B", "A")
    assert result.reorderings == 1  # B retried once, after A
    assert len(result.outcomes) == 2  # final outcome per symbol, no duplicates
    assert all(outcome.success for outcome in result.outcomes)


def test_compose_component_stops_when_no_progress():
    # One symbol that can never be eliminated: exactly one pass, no retries.
    constraints = ConstraintSet(
        [ContainmentConstraint(_rel("A"), Union(_rel("A"), _rel("R1")))]
    )
    result = compose_component(constraints, ("A",), (1,), ComposerConfig())
    assert result.reorderings == 0
    assert [outcome.success for outcome in result.outcomes] == [False]


# ---------------------------------------------------------------------------
# plan_compose and the compose() integration
# ---------------------------------------------------------------------------


def test_plan_compose_matches_fixed_on_simple_views():
    problem = _problem(
        {"R1": 1, "R2": 1},
        {"A": 1, "B": 1},
        {"S1": 1, "S2": 1},
        [
            EqualityConstraint(_rel("A"), _rel("R1")),
            EqualityConstraint(_rel("B"), _rel("R2")),
        ],
        [
            ContainmentConstraint(_rel("A"), _rel("S1")),
            ContainmentConstraint(_rel("B"), _rel("S2")),
        ],
    )
    fixed = compose(problem, ComposerConfig())
    planned = compose(problem, ComposerConfig.cost_guided())
    assert planned.is_complete and fixed.is_complete
    assert planned.constraints == fixed.constraints
    assert planned.components == 2
    assert planned.plan == (("A",), ("B",))
    assert planned.reorderings == 0
    assert "planner" in planned.phase_breakdown()
    # The fixed path records no planner statistics.
    assert fixed.components == 0 and fixed.plan == ()


def test_plan_compose_free_symbols_and_untouched_constraints():
    problem = _problem(
        {"R1": 1, "R2": 1},
        {"A": 1, "Z": 1},  # Z is mentioned nowhere
        {"S1": 1},
        [
            EqualityConstraint(_rel("A"), _rel("R1")),
            ContainmentConstraint(_rel("R1"), _rel("R2")),  # mentions no σ2 symbol
        ],
        [ContainmentConstraint(_rel("A"), _rel("S1"))],
    )
    planned = plan_compose(problem, ComposerConfig.cost_guided())
    assert planned.is_complete
    assert planned.outcome_for("Z").method == EliminationMethod.NOT_MENTIONED
    assert planned.components == 1
    # The σ1-only constraint is carried into the output verbatim.
    assert ContainmentConstraint(_rel("R1"), _rel("R2")) in planned.constraints


# ---------------------------------------------------------------------------
# Config knob
# ---------------------------------------------------------------------------


def test_elimination_order_is_validated():
    with pytest.raises(CompositionError):
        ComposerConfig(elimination_order="greedy")


def test_cost_mode_rejects_explicit_symbol_order():
    with pytest.raises(CompositionError):
        ComposerConfig(elimination_order="cost", symbol_order=("A",))


def test_fingerprint_covers_elimination_order():
    assert ComposerConfig().fingerprint() != ComposerConfig.cost_guided().fingerprint()


# ---------------------------------------------------------------------------
# eliminate() mention-index short-circuits
# ---------------------------------------------------------------------------


def test_eliminate_skips_view_unfolding_without_an_equality(monkeypatch):
    import importlib

    eliminate_module = importlib.import_module("repro.compose.eliminate")

    def explode(*args, **kwargs):  # pragma: no cover - the test fails if hit
        raise AssertionError("unfold_view should have been skipped")

    monkeypatch.setattr(eliminate_module, "unfold_view", explode)
    constraints = ConstraintSet([ContainmentConstraint(_rel("A"), _rel("R1"))])
    result, outcome = eliminate(constraints, "A", 1)
    # Left compose still eliminates A (bound dropped); the skipped unfolding
    # recorded the same reason the full attempt would have.
    assert outcome.success
    assert "no defining equality for view unfolding" in outcome.failure_reasons


def test_eliminate_skips_both_compose_steps_on_both_sides_mentions(monkeypatch):
    import importlib

    eliminate_module = importlib.import_module("repro.compose.eliminate")

    def explode(*args, **kwargs):  # pragma: no cover - the test fails if hit
        raise AssertionError("compose steps should have been skipped")

    monkeypatch.setattr(eliminate_module, "left_compose", explode)
    monkeypatch.setattr(eliminate_module, "right_compose", explode)
    constraints = ConstraintSet(
        [ContainmentConstraint(_rel("A"), Union(_rel("A"), _rel("R1")))]
    )
    result, outcome = eliminate(constraints, "A", 1)
    assert not outcome.success
    assert outcome.failure_reasons == (
        "no defining equality for view unfolding",
        "left compose failed",
        "right compose failed",
    )
    assert result is constraints


def test_eliminate_short_circuit_reasons_match_full_attempts():
    """The skip path must reproduce the unshortened outcome verbatim."""
    constraints = ConstraintSet(
        [ContainmentConstraint(_rel("A"), Union(_rel("A"), _rel("R1")))]
    )
    _, outcome = eliminate(constraints, "A", 1)
    # Reproduce without the pre-checks by calling the steps directly.
    from repro.compose.left_compose import left_compose
    from repro.compose.right_compose import right_compose
    from repro.compose.view_unfolding import unfold_view

    assert unfold_view(constraints, "A") is None
    assert left_compose(constraints, "A", 1) is None
    assert right_compose(constraints, "A", 1) is None
    assert outcome.failure_reasons == (
        "no defining equality for view unfolding",
        "left compose failed",
        "right compose failed",
    )
