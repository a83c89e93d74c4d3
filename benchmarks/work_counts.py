"""Work counts for the benchmarks: calls of library functions, counted exactly.

The wrappers live here, so the library carries no counters.  A count is
deterministic for a given workload (it repeats across runs and hash seeds),
so ``check_regression.py`` gates it exactly.
"""

from contextlib import contextmanager


@contextmanager
def counting_calls(targets):
    """Count the calls of each ``(owner, name, key)`` target while the block runs.

    ``owner.name`` is wrapped for the duration of the block only; targets
    sharing a key add up.  The block receives the ``{key: count}`` dict.
    """
    counts = {key: 0 for _, _, key in targets}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = []
    for owner, name, key in targets:
        fn = getattr(owner, name)
        originals.append((owner, name, fn))
        setattr(owner, name, counted(fn, key))
    try:
        yield counts
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
