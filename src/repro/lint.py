"""Runtime markers consumed by the static-analysis suite (:mod:`repro.analysis`).

The analyzer enforces project invariants (determinism purity, exception
discipline, …) over the source tree.  Some code is *legitimately* outside an
invariant — the simulated-clock plumbing may read simulated time, the seeded
RNG helpers wrap :mod:`random` on purpose.  Such code declares its exemption
explicitly, either with a trailing line comment::

    started = time.perf_counter()  # repro: allow[determinism-purity] harness timing

or, for a whole function or class, with the :func:`lint_allow` decorator::

    @lint_allow("determinism-purity", reason="seeded RNG plumbing")
    def fresh_rng(seed: int) -> random.Random: ...

Both forms are found by the analyzer at lint time; at runtime the decorator
is a no-op, so importing it costs nothing.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_T = TypeVar("_T")


def lint_allow(*rules: str, reason: str = "") -> Callable[[_T], _T]:
    """Exempt the decorated function or class from the named analysis rules.

    ``rules`` are analyzer rule identifiers (e.g. ``"determinism-purity"``);
    ``reason`` documents why the exemption is sound.  The decorator returns
    its target unchanged — it exists purely as a marker for
    :mod:`repro.analysis`.
    """
    del rules, reason  # consumed statically by the analyzer, not at runtime

    def decorate(target: _T) -> _T:
        return target

    return decorate
