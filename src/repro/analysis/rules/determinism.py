"""Rule ``determinism-purity`` — no nondeterminism inside the simulated core.

The deterministic ``sim`` runtime (:class:`~repro.net.simulator.SimTransport`)
is the project's oracle harness, kept as the reference next to the
concurrent runtime: two runs with the same seed must take the same
decisions in the same order.  That property dies the moment simulated
code reads the wall clock, draws from an unseeded RNG, or iterates an
unordered ``set`` where the order feeds observable behaviour.  This rule
bans those constructs inside ``core/``, ``net/`` and ``dht/``:

* calls into wall-clock / entropy APIs (``time.time``, ``datetime.now``,
  ``os.urandom``, ``uuid.uuid4``, ``secrets.*`` …),
* module-level :mod:`random` functions (they share interpreter-global
  state) and ``random.Random()`` constructed without a seed,
* ``for``-loops and comprehensions iterating over a ``set`` — a literal
  set display / ``set()`` call / set comprehension in iterable position,
  or a name the enclosing scope assigned one to — without a
  ``sorted(...)`` wrapper; string hash randomisation makes that order
  differ between interpreter runs.

Simulated-clock plumbing and seeded-RNG helpers that must touch these APIs
declare it with ``# repro: allow[determinism-purity]`` or the
:func:`repro.lint.lint_allow` decorator.

The concurrent ``asyncio`` runtime (:data:`EXEMPT_FILES`) is exempt as a
whole: wall-clock waits (backpressure timeouts) and scheduler-dependent
interleavings are the *point* of that runtime — determinism is exactly the
property it trades away, and it is never the oracle harness.  The ``sim``
transport and everything else under the scope stays gated.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Union

from repro.analysis.base import Finding, Rule, SourceFile
from repro.analysis.project import Project

#: Directories the purity invariant covers.
SCOPE = ("core/", "net/", "dht/")

#: Files inside the scope that are exempt as a whole: the concurrent
#: runtimes, where wall-clock timeouts and nondeterministic interleavings
#: are legitimate by design.  Deterministic transports must NOT be added
#: here — they are the oracle harness the rule exists to protect.
EXEMPT_FILES = ("net/runtime_asyncio.py",)

#: ``module -> banned attributes`` (``*`` bans every attribute).
_BANNED_MODULE_CALLS: Dict[str, Set[str]] = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    },
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
    "secrets": {"*"},
}

#: ``datetime``-module constructors that read the wall clock.
_BANNED_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Attributes of :mod:`random` that are classes, not global-state functions.
_RANDOM_CLASS_NAMES = {"Random", "SystemRandom"}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _called_name(func: ast.expr) -> str:
    """Dotted name of a call target (best effort, '' when not a name)."""
    parts = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expression(node: ast.expr) -> bool:
    """Whether ``node`` evaluates to a freshly built unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _called_name(node.func) in {"set", "frozenset"}
    return False


def _is_set_annotation(node: ast.expr) -> bool:
    """Whether an annotation names a set type (``Set[...]``, ``set`` …)."""
    target = node.value if isinstance(node, ast.Subscript) else node
    if isinstance(target, ast.Name):
        return target.id in {"Set", "set", "FrozenSet", "frozenset", "MutableSet"}
    if isinstance(target, ast.Attribute):
        return target.attr in {"Set", "FrozenSet", "MutableSet"}
    return False


def _scope_nodes(scope_body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk ``scope_body`` without descending into nested function scopes.

    Class bodies *are* descended into: a loop in a class body executes in
    the enclosing scope's order semantics and nested functions get their
    own scope pass.  Function definitions appearing directly in the scope
    body are excluded up front for the same reason — each one is the root
    of its own pass.
    """
    stack: List[ast.AST] = [
        node
        for node in scope_body
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)


class DeterminismRule(Rule):
    """Ban wall-clock, entropy and unordered-set ordering in the core."""

    name = "determinism-purity"
    description = (
        "no wall-clock reads, unseeded/global RNG or unordered-set "
        "iteration inside core/, net/, dht/"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for sf in project.in_dirs(*SCOPE):
            if sf.rel in EXEMPT_FILES:
                continue
            yield from self._check_file(sf)

    # ------------------------------------------------------------------
    def _check_file(self, sf: SourceFile) -> Iterator[Finding]:
        # Names bound to banned callables by ``from X import Y`` imports.
        from_imports: Dict[str, str] = {}
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(sf, node, from_imports)

        # One set-iteration pass per lexical scope: the module body plus
        # every (possibly nested) function body.
        yield from self._check_scope(sf, sf.tree.body)
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(sf, node.body)

    def _check_scope(
        self, sf: SourceFile, scope_body: List[ast.stmt]
    ) -> Iterator[Finding]:
        """Set-iteration checks within one lexical scope.

        Besides literal set expressions in iterable position, names the
        scope assigns a set to (``x = set()``, ``x: Set[str] = ...``) are
        tracked so that a later ``for item in x`` is caught — the shape
        real violations take.
        """
        set_names: Set[str] = set()
        for node in _scope_nodes(scope_body):
            if isinstance(node, ast.Assign) and _is_set_expression(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_expression(node.value)
                ):
                    set_names.add(node.target.id)
        for node in _scope_nodes(scope_body):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(sf, node.iter, node, set_names)
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
            ):
                for generator in node.generators:
                    yield from self._check_iteration(
                        sf, generator.iter, node, set_names
                    )

    def _check_call(
        self, sf: SourceFile, node: ast.Call, from_imports: Dict[str, str]
    ) -> Iterator[Finding]:
        dotted = _called_name(node.func)
        if not dotted:
            return
        head, _, rest = dotted.partition(".")
        resolved = from_imports.get(head)
        if resolved and not rest:
            # ``from time import time`` style: resolve to the module path.
            head, _, rest = resolved.partition(".")
        if head in _BANNED_MODULE_CALLS:
            banned = _BANNED_MODULE_CALLS[head]
            attr = rest.split(".")[0] if rest else ""
            if "*" in banned or attr in banned:
                yield self.finding(
                    sf,
                    node,
                    f"call to {dotted}() is nondeterministic inside the "
                    "simulated core; route through the simulated clock or a "
                    "seeded RNG (allowlist if this *is* that plumbing)",
                )
            return
        if head == "datetime" and rest:
            attr = rest.split(".")[-1]
            if attr in _BANNED_DATETIME_ATTRS:
                yield self.finding(
                    sf,
                    node,
                    f"call to {dotted}() reads the wall clock; simulated "
                    "code must use the simulated clock",
                )
            return
        if head == "random":
            attr = rest.split(".")[0] if rest else ""
            if attr and attr not in _RANDOM_CLASS_NAMES:
                yield self.finding(
                    sf,
                    node,
                    f"module-level random.{attr}() uses interpreter-global "
                    "RNG state; draw from an explicitly seeded "
                    "random.Random instance",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    sf,
                    node,
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed",
                )
            elif attr == "SystemRandom":
                yield self.finding(
                    sf,
                    node,
                    "random.SystemRandom draws OS entropy and can never be "
                    "seeded; use random.Random(seed)",
                )

    def _check_iteration(
        self,
        sf: SourceFile,
        iterable: ast.expr,
        anchor: ast.AST,
        set_names: Set[str],
    ) -> Iterator[Finding]:
        is_set = _is_set_expression(iterable) or (
            isinstance(iterable, ast.Name) and iterable.id in set_names
        )
        if is_set:
            yield self.finding(
                sf,
                anchor,
                "iteration over an unordered set: the order feeds "
                "downstream behaviour and varies across interpreter runs "
                "(string hash randomisation); wrap the iterable in "
                "sorted(...)",
            )
