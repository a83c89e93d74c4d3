"""Incremental recomposition correctness.

The checkpoint store is a pure accelerator: every recomposition of an edited
chain must be byte-identical to composing the edited chain from scratch —
same constraints (to the printed text), same residual symbols, same
per-symbol outcomes — across randomized edit sequences and through the
batch engine.  Checkpoints must also be *invalidated* by
anything that can change a composition's output: a different composer
configuration, a mutated operator registry (version bump), a different
residual-threading mode.
"""

import random

import pytest

from repro.compose.config import ComposerConfig
from repro.constraints.constraint_set import ConstraintSet
from repro.engine import (
    BatchComposer,
    ChainGrower,
    CheckpointStore,
    EvolutionSession,
    IncrementalComposer,
    chain_tokens,
    compose_chain,
)
from repro.exceptions import EngineError
from repro.mapping.mapping import Mapping


def _fingerprint(result):
    return (
        result.constraints.to_text(),
        tuple(result.residual_symbols),
        tuple(
            (hop.attempted_symbols, hop.eliminated_symbols, hop.residual_symbols)
            for hop in result.hops
        ),
    )


def _variant(mapping, rng):
    """A same-signature mapping with structurally different constraints."""
    constraints = list(mapping.constraints)
    if len(constraints) > 1 and rng.random() < 0.5:
        rotation = rng.randrange(1, len(constraints))
        constraints = constraints[rotation:] + constraints[:rotation]
    else:
        constraints = constraints[:-1] if len(constraints) > 1 else constraints
    return Mapping(
        mapping.input_signature, mapping.output_signature, ConstraintSet(constraints)
    )


@pytest.fixture(scope="module")
def grown_chain():
    return ChainGrower(seed=321, schema_size=4).grow_many(8)


class TestIncrementalMatchesFromScratch:
    def test_append_sequence_byte_identical(self, grown_chain):
        composer = IncrementalComposer()
        for length in range(2, len(grown_chain) + 1):
            prefix = tuple(grown_chain[:length])
            incremental = composer.compose_chain(prefix)
            scratch = compose_chain(prefix)
            assert _fingerprint(incremental) == _fingerprint(scratch)
            # Every append replays exactly the one new hop.
            assert incremental.replayed_hops == 1
            assert incremental.reused_hops == length - 2

    def test_randomized_edit_sequences_byte_identical(self, grown_chain):
        rng = random.Random(99)
        composer = IncrementalComposer()
        mappings = list(grown_chain[:3])
        for _ in range(25):
            op = rng.choice(("append", "edit", "truncate"))
            if op == "append" and len(mappings) < len(grown_chain):
                # Extend towards the fully grown chain (keeps adjacency).
                mappings = list(grown_chain[: len(mappings) + 1])
            elif op == "edit":
                index = rng.randrange(len(mappings))
                mappings[index] = _variant(mappings[index], rng)
            else:
                if len(mappings) > 2:
                    mappings = mappings[:-1]
            # "append" after "edit"/"truncate" resets to the pristine prefix,
            # which doubles as a replace-suffix delta against the edited chain.
            incremental = composer.compose_chain(tuple(mappings))
            scratch = compose_chain(tuple(mappings))
            assert _fingerprint(incremental) == _fingerprint(scratch)

    def test_edit_reuses_prefix_before_the_edit(self, grown_chain):
        rng = random.Random(5)
        composer = IncrementalComposer()
        full = tuple(grown_chain)
        composer.compose_chain(full)
        for index in (1, 3, len(full) - 1):
            edited = list(full)
            edited[index] = _variant(edited[index], rng)
            result = composer.compose_chain(tuple(edited))
            # Mapping i is first consumed by hop i-1, so everything before
            # that is reused verbatim.
            assert result.reused_hops == index - 1
            assert _fingerprint(result) == _fingerprint(compose_chain(tuple(edited)))

    def test_identical_recomposition_replays_nothing(self, grown_chain):
        composer = IncrementalComposer()
        full = tuple(grown_chain)
        composer.compose_chain(full)
        again = composer.compose_chain(full)
        assert again.replayed_hops == 0
        assert again.reused_hops == len(full) - 1

    def test_retry_residuals_mode_is_part_of_the_token(self, grown_chain):
        composer = IncrementalComposer()
        retrying = composer.compose_chain(tuple(grown_chain))
        frozen = compose_chain(
            tuple(grown_chain),
            retry_residuals=False,
            checkpoints=composer.checkpoints,
        )
        # The frozen-residual fold never resumes from a retrying checkpoint.
        assert frozen.reused_hops == 0
        assert _fingerprint(frozen) == _fingerprint(
            compose_chain(tuple(grown_chain), retry_residuals=False)
        )
        assert _fingerprint(retrying) == _fingerprint(compose_chain(tuple(grown_chain)))


class TestCheckpointInvalidation:
    def test_config_change_invalidates(self, grown_chain):
        store = CheckpointStore()
        chain = tuple(grown_chain[:5])
        compose_chain(chain, ComposerConfig.default(), checkpoints=store)
        crippled = compose_chain(
            chain, ComposerConfig.no_right_compose(), checkpoints=store
        )
        assert crippled.reused_hops == 0
        assert _fingerprint(crippled) == _fingerprint(
            compose_chain(chain, ComposerConfig.no_right_compose())
        )

    def test_registry_version_bump_invalidates(self, grown_chain):
        from repro.algebra.expressions import ConstantRelation

        store = CheckpointStore()
        chain = tuple(grown_chain[:5])
        config = ComposerConfig()
        warm = compose_chain(chain, config, checkpoints=store)
        assert compose_chain(chain, config, checkpoints=store).reused_hops == len(warm.hops)

        # Registering a rule bundle (even an empty one, for an operator the
        # workload never produces) bumps the registry version, which must
        # retire every recorded checkpoint.
        config.registry.register_operator(ConstantRelation)
        bumped = compose_chain(chain, config, checkpoints=store)
        assert bumped.reused_hops == 0
        assert _fingerprint(bumped) == _fingerprint(warm)

        # Unregistering bumps again: still no reuse of either generation.
        config.registry.unregister(ConstantRelation)
        assert compose_chain(chain, config, checkpoints=store).reused_hops == 0

    def test_symbol_order_is_part_of_the_fingerprint(self, grown_chain):
        chain = tuple(grown_chain[:3])
        default_tokens = chain_tokens(chain, ComposerConfig(), True)
        ordered = ComposerConfig().with_symbol_order(
            chain[0].output_signature.names()[:1]
        )
        assert chain_tokens(chain, ordered, True) != default_tokens

    def test_store_eviction_keeps_results_correct(self, grown_chain):
        composer = IncrementalComposer(checkpoints=CheckpointStore(max_entries=2))
        for length in range(2, len(grown_chain) + 1):
            prefix = tuple(grown_chain[:length])
            assert _fingerprint(composer.compose_chain(prefix)) == _fingerprint(
                compose_chain(prefix)
            )
        assert composer.checkpoints.evictions > 0


class TestBatchReuse:
    def test_batch_byte_identical_with_checkpoints(self, grown_chain):
        # Chains sharing fingerprinted prefixes: prefix reuse actually fires
        # within the batch, and the results must still match from-scratch
        # composition.
        chains = [tuple(grown_chain[:k]) for k in (3, 5, 7, len(grown_chain))]
        scratch = [_fingerprint(compose_chain(chain)) for chain in chains]
        report = BatchComposer().run_chains(chains)
        assert report.all_succeeded, report.summary()
        assert [_fingerprint(item.result) for item in report.items] == scratch
        assert report.checkpoint_stats["hits"] > 0

    def test_serial_batch_reuses_across_runs(self, grown_chain):
        composer = BatchComposer()
        chains = [tuple(grown_chain[:k]) for k in (4, 6)]
        composer.run_chains(chains)
        report = composer.run_chains([tuple(grown_chain)])
        (item,) = report.items
        # The 6-mapping prefix was checkpointed by the first batch.
        assert item.result.reused_hops >= 5
        assert _fingerprint(item.result) == _fingerprint(
            compose_chain(tuple(grown_chain))
        )


class TestEvolutionSession:
    def test_session_tracks_replays_and_matches_scratch(self, grown_chain):
        session = EvolutionSession(grown_chain[:2])
        for mapping in grown_chain[2:]:
            session.append(mapping)
        assert session.total_replayed_hops() == len(grown_chain) - 1
        assert _fingerprint(session.result) == _fingerprint(
            compose_chain(session.mappings)
        )

        rng = random.Random(1)
        edited = _variant(session.mappings[4], rng)
        result = session.edit(4, edited)
        assert result.reused_hops == 3
        assert _fingerprint(result) == _fingerprint(compose_chain(session.mappings))

        result = session.replace_suffix(4, grown_chain[4:])
        assert _fingerprint(result) == _fingerprint(compose_chain(session.mappings))

        result = session.pop()
        assert result.replayed_hops == 0  # the shorter prefix is checkpointed
        assert _fingerprint(result) == _fingerprint(compose_chain(session.mappings))

    def test_session_rejects_composer_with_overriding_settings(self, grown_chain):
        composer = IncrementalComposer()
        with pytest.raises(EngineError):
            EvolutionSession(composer=composer, config=ComposerConfig())
        with pytest.raises(EngineError):
            # A supplied composer carries its own residual-threading mode; a
            # conflicting explicit request must not be silently dropped.
            EvolutionSession(composer=composer, retry_residuals=False)
        assert EvolutionSession(composer=composer).composer is composer

    def test_session_rejects_non_splicing_deltas(self, grown_chain):
        session = EvolutionSession(grown_chain[:4])
        before = session.mappings
        with pytest.raises(EngineError):
            session.edit(1, grown_chain[5])  # signatures do not splice
        assert session.mappings == before
        with pytest.raises(EngineError):
            session.append(grown_chain[5])
        assert session.mappings == before

    def test_empty_session_guards(self, grown_chain):
        session = EvolutionSession()
        with pytest.raises(EngineError):
            session.result
        session.append(grown_chain[0])
        assert session.result.chain_length == 1
        assert session.result.hops == ()

    def test_mapping_fingerprint_is_content_based(self, grown_chain):
        mapping = grown_chain[0]
        clone = Mapping(
            mapping.input_signature,
            mapping.output_signature,
            ConstraintSet(list(mapping.constraints)),
        )
        assert clone is not mapping
        assert clone.fingerprint() == mapping.fingerprint()
        rotated = _variant(mapping, random.Random(0))
        assert rotated.fingerprint() != mapping.fingerprint()
