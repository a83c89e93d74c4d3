"""Cache correctness: the expression cache must never change any output.

The interning/token cache is a pure accelerator.  These tests run the same
generated workloads with the cache disabled, with the cache enabled, and
through the batch engine, and require byte-identical results everywhere:
same constraints (to the printed text), same residual symbols, same
per-symbol outcomes.
"""

import pytest

from repro.algebra import interning
from repro.algebra.simplify import simplify_constraint_set, simplify_expression
from repro.algebra.traversal import substitute_relation
from repro.compose.composer import compose
from repro.compose.config import ComposerConfig
from repro.engine import (
    BatchComposer,
    BatchConfig,
    WorkloadConfig,
    compose_chain,
    generate_workload,
    pairwise_problems,
)


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        num_problems=8,
        min_chain_length=4,
        max_chain_length=7,
        schema_size=4,
        seed=1742,
    )
    return generate_workload(config)


def _chain_fingerprint(result):
    return (
        result.constraints.to_text(),
        tuple(result.residual_symbols),
        tuple(
            (hop.attempted_symbols, hop.eliminated_symbols, hop.residual_symbols)
            for hop in result.hops
        ),
    )


def _composition_fingerprint(result):
    return (
        result.constraints.to_text(),
        tuple(sorted(result.residual_sigma2.names())),
        tuple((o.symbol, o.success, o.method) for o in result.outcomes),
        result.output_operator_count,
    )


class TestCacheDoesNotChangeResults:
    def test_chains_identical_with_and_without_cache(self, workload):
        assert interning.active_cache() is None
        plain = [_chain_fingerprint(compose_chain(p.mappings)) for p in workload]
        with interning.shared_expression_cache():
            cached = [_chain_fingerprint(compose_chain(p.mappings)) for p in workload]
        # And once more through the same (already warm) cache object.
        cache = interning.ExpressionCache()
        with interning.shared_expression_cache(cache):
            warm1 = [_chain_fingerprint(compose_chain(p.mappings)) for p in workload]
            warm2 = [_chain_fingerprint(compose_chain(p.mappings)) for p in workload]
        assert plain == cached == warm1 == warm2

    def test_pairwise_compositions_identical(self, workload):
        problems = [p for chain in workload[:4] for p in pairwise_problems(chain)]
        plain = [_composition_fingerprint(compose(p)) for p in problems]
        with interning.shared_expression_cache():
            cached = [_composition_fingerprint(compose(p)) for p in problems]
        assert plain == cached

    def test_cache_disabled_batch_agrees(self, workload):
        cached = BatchComposer()
        uncached = BatchComposer(BatchConfig(share_expression_cache=False))
        a = [_chain_fingerprint(i.result) for i in cached.run_chains(workload).items]
        b = [_chain_fingerprint(i.result) for i in uncached.run_chains(workload).items]
        assert a == b

    def test_cost_guided_batch_agrees_with_uncached_chains(self, workload):
        config = ComposerConfig.cost_guided()
        assert interning.active_cache() is None
        plain = [_chain_fingerprint(compose_chain(p.mappings, config)) for p in workload]
        report = BatchComposer(BatchConfig(composer_config=config)).run_chains(workload)
        assert report.all_succeeded, report.summary()
        assert [_chain_fingerprint(item.result) for item in report.items] == plain


class TestPrimitiveOperationsAgree:
    """Simplification and substitution results match with the cache on/off."""

    def test_simplify_agrees_on_workload_expressions(self, workload):
        expressions = [
            side
            for problem in workload
            for mapping in problem.mappings
            for constraint in mapping.constraints
            for side in constraint.sides()
        ]
        plain = [simplify_expression(e) for e in expressions]
        with interning.shared_expression_cache():
            cached = [simplify_expression(e) for e in expressions]
            again = [simplify_expression(e) for e in expressions]
        assert plain == cached == again

    def test_simplify_constraint_sets_agree(self, workload):
        sets = [m.constraints for p in workload for m in p.mappings]
        plain = [simplify_constraint_set(s).to_text() for s in sets]
        with interning.shared_expression_cache():
            cached = [simplify_constraint_set(s).to_text() for s in sets]
        assert plain == cached

    def test_substitution_agrees(self, workload):
        from repro.algebra.expressions import Relation

        jobs = []
        for problem in workload[:4]:
            for mapping in problem.mappings:
                for constraint in mapping.constraints:
                    for name in sorted(constraint.relation_names()):
                        arity = None
                        for other in mapping.constraints:
                            for side in other.sides():
                                if isinstance(side, Relation) and side.name == name:
                                    arity = side.arity
                        if arity is not None:
                            jobs.append((constraint.left, name, Relation("Z_", arity)))
        assert jobs
        plain = [substitute_relation(e, n, r) for e, n, r in jobs]
        with interning.shared_expression_cache():
            cached = [substitute_relation(e, n, r) for e, n, r in jobs]
        assert plain == cached
