"""R2 -- snapshot immutability: frozen classes stay frozen, boundaries freeze.

PR 6 established the publish-boundary discipline by hand: every artefact a
:class:`~repro.serving.HitlistSnapshot` (or any published day) hands out is
a ``writeable=False`` view, so concurrent readers can never be corrupted by
an in-place mutation.  This rule makes the discipline checkable:

* A class registered frozen -- by a ``__frozen_arrays__`` class attribute
  naming its array slots, or by name in
  :data:`~repro.analysis_static.config.R2_FROZEN_CLASS_NAMES` -- must not
  store to those attributes outside ``__init__``: no ``self.x = ...``, no
  ``self.x += ...``, no ``self.x[...] = ...``, no mutating ndarray calls
  (``.sort()``, ``.resize()``, ``.fill()``, ...).
* A method of a frozen class must not return a mutable ``set``, ``list``
  or ``dict`` that it also caches on ``self`` (``cached = self._sets[k] =
  set(...)``, then ``return cached``): every reader would get the same
  container, and any of them could change what the others see.  Cache a
  ``frozenset``, a ``tuple`` or a read-only mapping instead.
* A *publish-boundary* method (``ClassName.method`` in
  :data:`~repro.analysis_static.config.R2_PUBLISH_BOUNDARY_METHODS`) must
  not return a bare slice/subscript or ``np.asarray``/``np.array`` result:
  those share (or may share) memory with standing state and must be wrapped
  in ``readonly_view(...)`` or ``.readonly()`` first.
* Anywhere in the tree, a subscript store through an attribute that some
  class declared frozen (``x.hi[...] = ...`` when ``hi`` is a declared
  frozen array) is flagged -- the cross-file escape hatch numpy would only
  catch at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis_static import config
from repro.analysis_static.engine import (
    Finding,
    LintContext,
    Rule,
    SourceFile,
    register_rule,
)

#: Methods where construction-time stores are legitimate.
_CONSTRUCTORS = ("__init__", "__new__", "__post_init__")


def _self_attr(node: ast.expr) -> str | None:
    """Attribute name when *node* is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_np_array_call(node: ast.Call) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("asarray", "array", "frombuffer")
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    )


def _cache_attr(target: ast.expr) -> str | None:
    """The ``self`` attribute a store caches into: ``self.x`` or ``self.x[...]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    return _self_attr(target)


def _mutable_kind(node: ast.expr) -> str | None:
    """``set``, ``list`` or ``dict`` when *node* builds that mutable container."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return config.R2_MUTABLE_BUILDERS.get(node.func.id)
    return None


def _is_approved_wrapper(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name) and func.id in config.R2_APPROVED_WRAPPER_FUNCS:
        return True
    return (
        isinstance(func, ast.Attribute)
        and func.attr in config.R2_APPROVED_WRAPPER_METHODS
    )


@register_rule
class ImmutabilityRule(Rule):
    rule_id = "R2"
    name = "snapshot-immutability"
    description = (
        "Frozen snapshot classes must not be mutated after construction and "
        "publish-boundary methods must not leak writable array views."
    )

    def check(self, source: SourceFile, context: LintContext) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(source, node, context)
        yield from self._check_global_frozen_stores(source, context)

    # -- frozen-class mutation ------------------------------------------

    def _frozen_attrs(
        self, class_node: ast.ClassDef, context: LintContext
    ) -> tuple[bool, tuple[str, ...]]:
        """(is_frozen, restricted attr names -- empty means *all* attrs)."""
        declared = context.frozen_arrays.get(class_node.name)
        if declared is not None:
            return True, declared
        if class_node.name in config.R2_FROZEN_CLASS_NAMES:
            return True, ()
        return False, ()

    def _check_class(
        self, source: SourceFile, class_node: ast.ClassDef, context: LintContext
    ) -> Iterator[Finding]:
        frozen, restricted = self._frozen_attrs(class_node, context)
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if frozen and item.name not in _CONSTRUCTORS:
                yield from self._check_frozen_method(
                    source, class_node, item, restricted
                )
                yield from self._check_cached_returns(source, class_node, item)
            boundary_key = f"{class_node.name}.{item.name}"
            if boundary_key in config.R2_PUBLISH_BOUNDARY_METHODS:
                yield from self._check_boundary_method(source, boundary_key, item)

    def _guards(self, attr: str, restricted: tuple[str, ...]) -> bool:
        return not restricted or attr in restricted

    def _check_frozen_method(
        self,
        source: SourceFile,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        restricted: tuple[str, ...],
    ) -> Iterator[Finding]:
        cls = class_node.name
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                attr = _self_attr(target)
                if attr is not None and self._guards(attr, restricted):
                    yield self.finding(
                        source,
                        target,
                        f"store to frozen attribute self.{attr} outside "
                        f"__init__ of frozen class {cls}",
                    )
                    continue
                if isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                    if attr is not None and self._guards(attr, restricted):
                        yield self.finding(
                            source,
                            target,
                            f"in-place element store to frozen attribute "
                            f"self.{attr} outside __init__ of frozen class {cls}",
                        )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = _self_attr(node.func.value)
                if (
                    attr is not None
                    and self._guards(attr, restricted)
                    and node.func.attr in config.R2_MUTATING_ARRAY_METHODS
                ):
                    yield self.finding(
                        source,
                        node,
                        f"mutating call self.{attr}.{node.func.attr}() on "
                        f"frozen class {cls}",
                    )

    # -- cached mutable returns -----------------------------------------

    def _check_cached_returns(
        self,
        source: SourceFile,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        """Flag returns of a mutable container the method also caches on ``self``."""
        # Local names and ``self.<attr>`` caches bound to a built container.
        cached: dict[str, str] = {}
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and (kind := _mutable_kind(node.value)):
                stores = [attr for attr in map(_cache_attr, node.targets) if attr]
                if stores:
                    cached.update((f"self.{attr}", kind) for attr in stores)
                    cached.update((t.id, kind) for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(method):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
                value = value.func.value if value.func.attr == "get" else value
            key = value.id if isinstance(value, ast.Name) else f"self.{_cache_attr(value)}"
            if key in cached:
                yield self.finding(
                    source,
                    node,
                    f"{class_node.name}.{method.name} returns a cached mutable "
                    f"{cached[key]} that every reader shares; cache a frozenset, "
                    "a tuple or a read-only mapping instead",
                )

    # -- publish-boundary returns ---------------------------------------

    def _check_boundary_method(
        self,
        source: SourceFile,
        boundary_key: str,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if isinstance(node, ast.Return) and node.value is not None:
                yield from self._scan_returned(source, boundary_key, node.value)

    def _scan_returned(
        self, source: SourceFile, boundary_key: str, expr: ast.expr
    ) -> Iterator[Finding]:
        """Flag unwrapped slice/asarray results anywhere in a returned value."""
        if isinstance(expr, ast.Call):
            if _is_approved_wrapper(expr):
                return  # frozen (or private-copy) result: do not descend
            if _is_np_array_call(expr):
                yield self.finding(
                    source,
                    expr,
                    f"publish boundary {boundary_key} returns a bare "
                    "np.asarray/np.array result; wrap it in readonly_view(...)",
                )
                return
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    yield from self._scan_returned(source, boundary_key, child)
            return
        if isinstance(expr, ast.Subscript):
            yield self.finding(
                source,
                expr,
                f"publish boundary {boundary_key} returns a bare slice -- a "
                "writable view of shared state; wrap it in readonly_view(...)",
            )
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                yield from self._scan_returned(source, boundary_key, child)

    # -- cross-file frozen-attribute stores ------------------------------

    def _check_global_frozen_stores(
        self, source: SourceFile, context: LintContext
    ) -> Iterator[Finding]:
        if not context.frozen_attr_names:
            return
        for node in ast.walk(source.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                value = target.value
                if (
                    isinstance(value, ast.Attribute)
                    and value.attr in context.frozen_attr_names
                    # self-stores are handled (and allowed in __init__) above.
                    and not (
                        isinstance(value.value, ast.Name) and value.value.id == "self"
                    )
                ):
                    yield self.finding(
                        source,
                        target,
                        f"element store through declared-frozen attribute "
                        f".{value.attr}; frozen arrays are shared with "
                        "concurrent readers and must never be written",
                    )
