"""A user-defined operator type nested under built-in operators.

``Audit`` is the user-defined operator of
``examples/extensibility_user_operator.py``: a dataclass that renders itself
through its own ``__str__``.  Under a built-in operator it must still print,
identify and compose.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.algebra.digest import expression_digest
from repro.algebra.expressions import Expression, Relation, Union
from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.constraints.constraint import ContainmentConstraint
from repro.constraints.constraint_set import ConstraintSet
from repro.engine import chain_tokens, compose_chain
from repro.exceptions import ExpressionError, SchemaError
from repro.mapping.composition_problem import CompositionProblem
from repro.mapping.mapping import Mapping
from repro.schema.signature import Signature

_EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "extensibility_user_operator.py"


def _load_example():
    spec = importlib.util.spec_from_file_location("extensibility_user_operator", _EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


example = _load_example()
Audit = example.Audit

SOURCE = Relation("Source", 2)
STAGING = Relation("Staging", 2)
R = Relation("R", 3)
T = Relation("T", 4)
AUDITED = ContainmentConstraint(Audit(Union(Audit(STAGING, "a"), R), "b"), T)
SIGMA1 = Signature.from_arities({"Source": 2})
SIGMA2 = Signature.from_arities({"Staging": 2})
SIGMA3 = Signature.from_arities({"R": 3, "T": 4})


def _problem(sigma3=SIGMA3):
    return CompositionProblem(
        sigma1=SIGMA1,
        sigma2=SIGMA2,
        sigma3=sigma3,
        sigma12=ConstraintSet([ContainmentConstraint(SOURCE, STAGING)]),
        sigma23=ConstraintSet([AUDITED]),
    )


def test_a_built_in_operator_prints_a_user_operand_through_its_str():
    union = Union(Audit(STAGING, "a"), R)
    assert str(union) == "(audit[a](Staging/2) union R/3)"
    assert repr(union) == "<Union: (audit[a](Staging/2) union R/3)>"
    assert str(AUDITED) == "audit[b]((audit[a](Staging/2) union R/3)) <= T/4"


def test_a_type_without_its_own_str_still_cannot_print():
    class Opaque(Expression):
        arity = 2
        children = ()

    with pytest.raises(ExpressionError, match="cannot render expression of type Opaque"):
        str(Union(Opaque(), STAGING))


def test_the_problem_fingerprints_and_composes_either_way():
    problem = _problem()
    assert len(problem.fingerprint()) == 16
    assert problem.fingerprint() == _problem().fingerprint()
    assert expression_digest(AUDITED.left) != expression_digest(
        Audit(Union(Audit(STAGING, "b"), R), "b")
    )
    plain = compose(problem)
    assert "Staging" in plain.remaining_symbols
    registered = compose(problem, ComposerConfig.default().with_registry(example.registry_with_audit()))
    assert registered.eliminated_symbols == ("Staging",)
    assert [str(c) for c in registered.constraints] == [
        "audit[b]((audit[a](Source/2) union R/3)) <= T/4"
    ]


def test_chain_tokens_and_compose_chain_accept_the_problem():
    problem = _problem()
    chain = (
        Mapping(SIGMA1, SIGMA2, problem.sigma12),
        Mapping(SIGMA2, SIGMA3, problem.sigma23),
    )
    config = ComposerConfig.default().with_registry(example.registry_with_audit())
    assert len(chain_tokens(chain, config, retry_residuals=True)) == 1
    result = compose_chain(chain, config)
    assert result.residual_symbols == ()
    assert result.constraints.to_text() == "audit[b]((audit[a](Source/2) union R/3)) <= T/4"


def test_a_rejected_problem_names_the_constraint():
    with pytest.raises(SchemaError) as raised:
        _problem(sigma3=Signature.from_arities({"T": 4}))
    assert str(raised.value) == (
        "Σ23 constraint audit[b]((audit[a](Staging/2) union R/3)) <= T/4 "
        "mentions relations outside σ2 ∪ σ3: ['R']"
    )
