"""Checkpoint tokens: cumulative fingerprints over a chain of mappings.

A chain hop's outcome is a deterministic function of the composer
configuration, the residual-threading mode, and the *structure* of the
mappings up to and including the hop — residual symbols only flow forward, so
nothing downstream can reach back into an earlier hop.  That makes the
cumulative fingerprint

    ``token[i] = H(token[i-1], fingerprint(mappings[i + 1]))``

(seeded with the config fingerprint, the threading mode and the first
mapping's fingerprint) a sound cache key for "the state of the fold after hop
``i``": two chains agreeing on ``token[i]`` agree on every composition input
of hops ``0..i``, hence — COMPOSE being deterministic — on the accumulated
constraints, the threaded residuals and every per-symbol outcome.

All component fingerprints are deterministic digests (no per-process salted
hashing), so tokens recorded in one process match tokens recomputed in
another — a checkpoint persisted before a restart is recognized after it.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import List, Sequence

from repro.algebra.digest import DIGEST_SIZE
from repro.compose.config import ComposerConfig
from repro.mapping.mapping import Mapping

__all__ = ["chain_fingerprint", "chain_tokens"]


def chain_fingerprint(mappings: Sequence[Mapping]) -> bytes:
    """Deterministic content fingerprint of a whole chain of mappings.

    Unlike :func:`chain_tokens` this covers only the chain's content (no
    composer configuration, no threading mode): the catalog uses it to
    content-address stored chains, and the service folds it — together with
    the config fingerprint — into request-deduplication keys.  Per-mapping
    fingerprints are fixed-width digests, so the concatenation is
    unambiguous.
    """
    h = blake2b(digest_size=DIGEST_SIZE)
    for mapping in mappings:
        h.update(mapping.fingerprint())
    return h.digest()


def chain_tokens(
    mappings: Sequence[Mapping],
    config: ComposerConfig,
    retry_residuals: bool,
) -> List[bytes]:
    """The per-hop checkpoint tokens of a chain (``len(mappings) - 1`` entries).

    ``tokens[i]`` names the state after hop ``i`` (the fold having consumed
    ``mappings[0 .. i + 1]``).  Residual threading mode is part of the seed
    because it changes every hop's intermediate signature.
    """
    seed = blake2b(digest_size=DIGEST_SIZE)
    seed.update(config.fingerprint())
    seed.update(b"retry" if retry_residuals else b"freeze")
    seed.update(mappings[0].fingerprint())
    token = seed.digest()

    tokens: List[bytes] = []
    for mapping in mappings[1:]:
        h = blake2b(digest_size=DIGEST_SIZE)
        h.update(token)
        h.update(mapping.fingerprint())
        token = h.digest()
        tokens.append(token)
    return tokens
