"""Rule ``store-contract`` — registered backends honour the store contract.

``make_store`` (``data/backends.py``) is the only way the engine obtains a
tuple store, so the classes it can return *are* the backend registry.  A
backend that misses part of the :class:`~repro.data.backends.StoreBackend`
contract fails at runtime deep inside a scenario (or worse, silently
answers differently).  This rule checks, per registered backend class:

* the class inherits :class:`StoreBackend` (directly or through a base in
  the same module) — inheriting the base class is what supplies the
  base-class ``add_batch`` / ``match_batch`` loops and the ``flush`` /
  ``close`` no-ops,
* every ``@abstractmethod`` of ``StoreBackend`` is implemented in the
  class body (or an in-module base): a missing one would raise
  ``TypeError`` only at instantiation, i.e. mid-experiment,
* any definition of the set-at-a-time calls (``add_batch`` /
  ``match_batch`` / ``remove_expired``) keeps the base signature's
  parameter names — callers pass keywords (the engine's GC calls
  ``remove_expired(published_before=…)``), so a renamed parameter is an
  API break the type system never sees.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Finding, Rule, SourceFile
from repro.analysis.project import Project

BACKENDS_FILE = "data/backends.py"
FACTORY_NAME = "make_store"
BASE_CLASS = "StoreBackend"

#: The set-at-a-time calls of the contract; a backend's definition must
#: keep the base signature's parameter names.
BATCH_CONTRACT = ("add_batch", "match_batch", "remove_expired")


def _find_class(sf: SourceFile, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }


def _is_abstract(func: ast.FunctionDef) -> bool:
    for decorator in func.decorator_list:
        name = (
            decorator.id
            if isinstance(decorator, ast.Name)
            else decorator.attr
            if isinstance(decorator, ast.Attribute)
            else None
        )
        if name == "abstractmethod":
            return True
    return False


def _param_names(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append("*" + args.vararg.arg)
    if args.kwarg:
        names.append("**" + args.kwarg.arg)
    return names


class StoreContractRule(Rule):
    """Every class make_store can return implements the store contract."""

    name = "store-contract"
    description = (
        "make_store backends inherit StoreBackend, implement every "
        "abstract method and keep batch-contract signatures"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        backends_sf = project.get(BACKENDS_FILE)
        if backends_sf is None:
            return
        base = _find_class(backends_sf, BASE_CLASS)
        if base is None:
            return
        base_methods = _methods(base)
        abstract = sorted(
            name for name, func in base_methods.items() if _is_abstract(func)
        )
        registered = self._registered_backends(backends_sf)
        for module_rel, class_name, anchor in registered:
            sf = project.get(module_rel)
            if sf is None:
                yield self.finding(
                    backends_sf,
                    anchor,
                    f"{FACTORY_NAME} returns {class_name} from "
                    f"{module_rel!r}, which is not part of the analyzed "
                    "tree",
                )
                continue
            cls = _find_class(sf, class_name)
            if cls is None:
                yield self.finding(
                    backends_sf,
                    anchor,
                    f"{FACTORY_NAME} returns {class_name}, which is not "
                    f"defined in {module_rel}",
                )
                continue
            yield from self._check_backend(
                sf, cls, abstract, base_methods
            )

    # ------------------------------------------------------------------
    def _registered_backends(
        self, backends_sf: SourceFile
    ) -> List[Tuple[str, str, ast.AST]]:
        """``(module path, class name, anchor)`` per make_store return.

        ``make_store`` imports implementations lazily; the imports inside
        the factory body name both the module and the class, and the
        ``return`` statements name which classes are actually reachable.
        """
        factory: Optional[ast.FunctionDef] = None
        for node in ast.walk(backends_sf.tree):
            if isinstance(node, ast.FunctionDef) and node.name == FACTORY_NAME:
                factory = node
        if factory is None:
            return []
        imported: Dict[str, str] = {}  # class name -> module rel path
        for node in ast.walk(factory):
            if isinstance(node, ast.ImportFrom) and node.module:
                module_rel = node.module
                prefix = "repro."
                if module_rel.startswith(prefix):
                    module_rel = module_rel[len(prefix):]
                module_rel = module_rel.replace(".", "/") + ".py"
                for alias in node.names:
                    imported[alias.asname or alias.name] = module_rel
        registered: List[Tuple[str, str, ast.AST]] = []
        seen: Set[str] = set()
        for node in ast.walk(factory):
            if not (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            if isinstance(func, ast.Name) and func.id in imported:
                if func.id not in seen:
                    seen.add(func.id)
                    registered.append((imported[func.id], func.id, node))
        return registered

    def _check_backend(
        self,
        sf: SourceFile,
        cls: ast.ClassDef,
        abstract: List[str],
        base_methods: Dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        # Resolve in-module base-class chains so a backend may share code
        # through a local intermediate class.
        defined: Dict[str, ast.FunctionDef] = {}
        inherits_base = False
        stack = [cls]
        visited: Set[str] = set()
        while stack:
            current = stack.pop()
            if current.name in visited:
                continue
            visited.add(current.name)
            for name, func in _methods(current).items():
                defined.setdefault(name, func)
            for base in current.bases:
                base_name = (
                    base.id
                    if isinstance(base, ast.Name)
                    else base.attr
                    if isinstance(base, ast.Attribute)
                    else None
                )
                if base_name == BASE_CLASS:
                    inherits_base = True
                elif base_name is not None:
                    parent = _find_class(sf, base_name)
                    if parent is not None:
                        stack.append(parent)

        if not inherits_base:
            yield self.finding(
                sf,
                cls,
                f"backend {cls.name} does not inherit {BASE_CLASS}: the "
                "base-class add_batch / match_batch do not apply and the "
                "contract is unenforced",
            )
        for name in abstract:
            if name not in defined:
                yield self.finding(
                    sf,
                    cls,
                    f"backend {cls.name} does not implement abstract "
                    f"{BASE_CLASS}.{name}: instantiation would fail "
                    "mid-experiment",
                )
        for name in BATCH_CONTRACT:
            base_func = base_methods.get(name)
            override = defined.get(name)
            if base_func is None or override is None:
                continue
            if _param_names(override) != _param_names(base_func):
                yield self.finding(
                    sf,
                    override,
                    f"backend {cls.name}.{name} changes the batch-contract "
                    f"signature: expected parameters "
                    f"{_param_names(base_func)!r}, found "
                    f"{_param_names(override)!r}",
                )
