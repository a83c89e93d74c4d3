"""Memoized rewriting for expressions.

Composition workloads are highly repetitive: the same (immutable) expression
and constraint objects are threaded through every elimination round, every
chain hop, and — via the batch engine — many problems.  An
:class:`ExpressionCache` exploits that repetition in two ways:

* **fixpoint tokens**: the DAG rewriter of :mod:`repro.algebra.simplify`
  stamps every output with a per-registry sentinel, so "this object is
  already simplified" is a single attribute read.  Tokens are the memo: the
  objects themselves carry the result, there is no growing table to probe,
  insert into, or garbage-collect, and a shared subtree is simplified exactly
  once per process instead of once per occurrence per fixpoint pass;
* **failure memos**: the ``(constraint, symbol)`` pairs known to fail a
  normalization or monotonicity gate, so the best-effort retries across chain
  hops skip dead ends they already met.

The cache is *opt-in*: nothing changes unless a cache is activated, either
explicitly or through the batch engine (:mod:`repro.engine.batch`), which
shares one cache across a whole batch of composition problems so repeated
sub-expressions are simplified once.

Caches are safe to share between threads — CPython dictionary and set
operations are atomic and tokens and failure memos are both idempotent, so a
lost race merely repeats work.  Activation is process-global (not
thread-local) because sharing across worker threads is exactly the point.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "ExpressionCache",
    "active_cache",
    "activate_cache",
    "deactivate_cache",
    "shared_expression_cache",
]

#: Default bound on the number of memo entries before the cache resets itself.
DEFAULT_MAX_ENTRIES = 200_000


class ExpressionCache:
    """A cache of rewrite memo tables shared across composition problems.

    Parameters
    ----------
    max_entries:
        Soft bound on the number of entries in each internal table.  When a
        table grows past the bound it is cleared wholesale — the cache is a
        pure accelerator, so dropping it is always safe.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: (registry id, rule version) -> token stamped on simplified expressions
        self._simplify_tokens: Dict[Tuple[int, int], object] = {}
        #: (registry id, rule version) -> token stamped on simplified constraints
        self._constraint_tokens: Dict[Tuple[int, int], object] = {}
        #: (kind, registry key, registry version) -> {(constraint, symbol)}
        self._failure_memos: Dict[Tuple, set] = {}
        # Strong references keep registry ids stable for the memo keys.
        self._registries: Dict[int, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- rewrite memo tables ---------------------------------------------------

    def _token(self, table: Dict, registry: Optional[object]) -> object:
        """The per-(registry, rule-version) marker token from ``table``.

        The registry's ``version`` is part of the key, so registering or
        removing a rule mid-run retires every token stamped under the old
        rule set — stale "already simplified" marks then simply stop
        matching.
        """
        if registry is None:
            key = (0, 0)
        else:
            key = (id(registry), getattr(registry, "version", 0))
        token = table.get(key)
        if token is None:
            self._registry_key(registry)  # pin the registry's id
            token = table.setdefault(key, object())
        return token

    def simplify_token(self, registry: Optional[object]) -> object:
        """The "already simplified" marker token for ``registry``.

        The token is a tiny sentinel the rewriter stamps onto its outputs
        (``_simplified_for``), so "this object is already a fixpoint for this
        registry" is one attribute read.  COMPOSE threads the same immutable
        objects through every elimination round and chain hop, which makes
        the token the memo: per-object, allocation-free, and cycle-free (the
        token holds no references).  Keying is per registry (and rule
        version) because user-supplied rules change the normal forms.
        """
        return self._token(self._simplify_tokens, registry)

    def constraint_token(self, registry: Optional[object]) -> object:
        """The "already simplified" marker token for whole constraints.

        Whole constraints recur verbatim across elimination rounds and chain
        hops (COMPOSE re-simplifies the surviving set after every hop); the
        token turns each repeat into one attribute read.
        """
        return self._token(self._constraint_tokens, registry)

    def failure_memo(self, kind: str, registry: Optional[object]) -> set:
        """The set of ``(constraint, symbol)`` pairs known to fail ``kind``.

        Whether a single constraint can be left-/right-normalized for a
        symbol — or passes the per-constraint monotonicity gates — is a pure
        function of that constraint, the symbol and the registry's rules.
        The best-effort algorithm retries failed symbols after every chain
        hop and schema edit, re-deriving the same dead ends; recording them
        here turns each retry into one set probe per affected constraint.
        The registry's ``version`` is part of the key, so registering new
        rules invalidates recorded failures.
        """
        key = (
            kind,
            self._registry_key(registry),
            getattr(registry, "version", 0),
        )
        memo = self._failure_memos.get(key)
        if memo is None:
            memo = self._failure_memos.setdefault(key, set())
        if len(memo) >= self.max_entries:
            self._evict(memo)
        return memo

    #: Distinct registries a cache will pin before resetting its token
    #: tables.  Tokens key registries by id(), so dropping a registry
    #: reference without dropping its tokens could alias a recycled id onto a
    #: stale token; clearing both together keeps the bound safe.  (Stale
    #: tokens on expressions are harmless: a fresh token never compares
    #: identical to an old one.)
    MAX_REGISTRIES = 64

    def _registry_key(self, registry: Optional[object]) -> int:
        if registry is None:
            return 0
        key = id(registry)
        if key not in self._registries:
            if len(self._registries) >= self.MAX_REGISTRIES:
                with self._lock:
                    self._registries.clear()
                    self._simplify_tokens.clear()
                    self._constraint_tokens.clear()
                    self._failure_memos.clear()
                    self.evictions += 1
            self._registries[key] = registry
        return key

    def _evict(self, table: Dict) -> None:
        with self._lock:
            if len(table) >= self.max_entries:
                table.clear()
                self.evictions += 1

    # -- maintenance -----------------------------------------------------------

    def clear(self) -> None:
        """Drop all cached entries and reset the statistics."""
        with self._lock:
            self._simplify_tokens.clear()
            self._constraint_tokens.clear()
            self._failure_memos.clear()
            self._registries.clear()
            self.hits = self.misses = self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of memo lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """A snapshot of the cache counters (for benchmarks and reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return f"<ExpressionCache: {self.hits} hits / {self.misses} misses>"


# ---------------------------------------------------------------------------
# Process-global activation
# ---------------------------------------------------------------------------

_active: Optional[ExpressionCache] = None
_activation_lock = threading.Lock()


def active_cache() -> Optional[ExpressionCache]:
    """Return the currently active cache, or ``None`` when caching is off."""
    return _active


def activate_cache(cache: Optional[ExpressionCache] = None) -> ExpressionCache:
    """Activate ``cache`` (a fresh one when omitted) process-wide and return it."""
    global _active
    with _activation_lock:
        _active = cache or ExpressionCache()
        return _active


def deactivate_cache() -> None:
    """Deactivate expression caching process-wide."""
    global _active
    with _activation_lock:
        _active = None


@contextmanager
def shared_expression_cache(
    cache: Optional[ExpressionCache] = None,
) -> Iterator[ExpressionCache]:
    """Context manager activating a cache for the duration of a block.

    The previously active cache (usually none) is restored on exit, so scopes
    may nest; the innermost activation wins, which is what the batch engine
    relies on when callers already supplied their own cache.
    """
    global _active
    with _activation_lock:
        previous = _active
        _active = cache or ExpressionCache()
        current = _active
    try:
        yield current
    finally:
        with _activation_lock:
            _active = previous
