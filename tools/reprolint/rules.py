"""The rule registry: one class per repo invariant.

Each rule carries its code, a one-line summary (shown by
``--list-rules``), an optional path scope, and a ``check`` method that
yields :class:`~reprolint.core.Finding` objects. Pragma suppression and
scope filtering happen in the engine, so rules only encode detection.
"""

from __future__ import annotations

import ast
import functools
import os
from collections.abc import Iterator
from pathlib import Path

from reprolint.core import Finding, LintContext

__all__ = ["RULES", "Rule", "all_rule_codes"]


class Rule:
    """Base class. Subclasses set the class attributes and ``check``."""

    code: str = "RPL000"
    summary: str = ""
    #: path-segment prefixes the rule applies to; ``None`` = everywhere
    scope: tuple[str, ...] | None = None
    #: file suffixes the rule never applies to
    exempt_files: tuple[str, ...] = ()

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _iter_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function.

    Statements inside nested functions belong to the nested scope only;
    class bodies stay with the enclosing scope (a method is still its
    own scope).
    """
    pending: list[tuple[ast.AST, list[ast.stmt]]] = [(tree, tree.body)]
    while pending:
        scope_node, body = pending.pop()
        yield scope_node, body
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.append((node, node.body))
                continue  # nested function = new scope, don't descend
            if isinstance(node, ast.Lambda):
                continue
            stack.extend(ast.iter_child_nodes(node))


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements of one scope without entering nested functions."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ResourceLifecycleRule(Rule):
    """RPL001: resource acquisitions must be scoped or cleaned up.

    PR 4's bug class: a ``NeighborhoodCache`` (and its shm segment)
    constructed outside any ``with``/``finally`` leaked the segment on
    the first exception. Any call that acquires an OS-level resource
    must be one of: a ``with`` item, closed via a name referenced in a
    ``finally`` block, or handed off (returned / yielded / stored on
    ``self``) to an owner with its own lifecycle.
    """

    code = "RPL001"
    summary = (
        "engine/shm/socket/executor acquisitions must be bound in a "
        "`with` or closed in a `finally`"
    )

    RESOURCE_NAMES = frozenset(
        {
            "NeighborhoodCache",
            "ShardedIndex",
            "SharedMemory",
            "ProcessPoolExecutor",
            "ThreadPoolExecutor",
        }
    )
    RESOURCE_ATTRS = frozenset({"socket", "create_connection", "_engine"})

    def _is_resource_call(self, node: ast.AST) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.RESOURCE_NAMES:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr in self.RESOURCE_NAMES:
                return func.attr
            if func.attr == "socket":
                # only the stdlib constructor, not e.g. self.socket(...)
                if isinstance(func.value, ast.Name) and func.value.id == "socket":
                    return "socket.socket"
            if func.attr == "create_connection":
                if isinstance(func.value, ast.Name) and func.value.id == "socket":
                    return "socket.create_connection"
            if func.attr == "_engine":
                return "_engine"
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for _scope, body in _iter_scopes(ctx.tree):
            yield from self._check_scope(ctx, body)

    def _check_scope(
        self, ctx: LintContext, body: list[ast.stmt]
    ) -> Iterator[Finding]:
        with_exprs: set[int] = set()  # id() of context-manager call nodes
        escaping: set[str] = set()  # names that escape or get cleaned up
        for node in _walk_scope(body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        with_exprs.add(id(sub))
                        if isinstance(sub, ast.Name):
                            escaping.add(sub.id)
            elif isinstance(node, ast.Try) and node.finalbody:
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Name):
                            escaping.add(sub.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name):
                            escaping.add(sub.id)

        for node in _walk_scope(body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                kind = self._is_resource_call(value)
                if kind is None or id(value) in with_exprs:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        continue  # self._shm = ... — owner manages lifecycle
                    if isinstance(target, ast.Name) and target.id in escaping:
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"{kind}(...) bound outside a `with` and never "
                        "closed in a `finally`; scope the resource or "
                        "hand it off explicitly",
                    )
            elif isinstance(node, ast.Expr):
                kind = self._is_resource_call(node.value)
                if kind is not None and id(node.value) not in with_exprs:
                    yield self.finding(
                        ctx,
                        node,
                        f"{kind}(...) result discarded — the acquired "
                        "resource can never be released",
                    )


class PickleSafetyRule(Rule):
    """RPL002: no pickle, and numpy IO must pin ``allow_pickle=False``.

    PRs 6-7 removed pickle from the remote wire and the persistence
    format; ``np.load`` defaults are version-dependent, so the intent
    must be explicit at every call site. ``np.savez`` has no
    ``allow_pickle`` switch at all, so any use needs a justified pragma
    plus an object-dtype guard.
    """

    code = "RPL002"
    summary = (
        "no `pickle` import; np.load/np.save require allow_pickle=False "
        "(src/repro only)"
    )
    scope = ("src/repro",)

    NUMPY_ALIASES = frozenset({"np", "numpy"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("pickle", "_pickle", "cPickle", "dill", "cloudpickle"):
                        yield self.finding(
                            ctx, node, f"import of `{alias.name}` is forbidden"
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in ("pickle", "_pickle", "cPickle", "dill", "cloudpickle"):
                    yield self.finding(
                        ctx, node, f"import from `{node.module}` is forbidden"
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(self, ctx: LintContext, node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if not (
            isinstance(func.value, ast.Name)
            and func.value.id in self.NUMPY_ALIASES
        ):
            return
        if func.attr in ("load", "save"):
            for kw in node.keywords:
                if kw.arg == "allow_pickle":
                    if (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        return
                    yield self.finding(
                        ctx,
                        node,
                        f"np.{func.attr} must pass allow_pickle=False "
                        "(literally), not a computed or truthy value",
                    )
                    return
            yield self.finding(
                ctx,
                node,
                f"np.{func.attr} without explicit allow_pickle=False",
            )
        elif func.attr in ("savez", "savez_compressed"):
            yield self.finding(
                ctx,
                node,
                f"np.{func.attr} cannot disable pickle; guard against "
                "object dtypes and document with a pragma, or write "
                "arrays individually via np.save(allow_pickle=False)",
            )


class ModuleStateRule(Rule):
    """RPL003: no module-level mutable state outside named registries.

    PR 5's bug class: ``_ACTIVE_SHARDING`` made execution config
    ambient, breaking concurrent clusterers. Append-at-import-time
    registries (``_INDEX_REGISTRY`` style) are the one sanctioned
    pattern; anything else mutable at module scope needs a pragma with
    a justification.
    """

    code = "RPL003"
    summary = (
        "no module-level mutable containers outside *_REGISTRY-style "
        "registries (src/repro only)"
    )
    scope = ("src/repro",)

    REGISTRY_SUFFIXES = (
        "_REGISTRY",
        "_BACKENDS",
        "_COMMANDS",
        "_ALIASES",
        "_METHODS",
        "_CLUSTERERS",
        "_OPS",
        "_NAMES",
        "_DATASETS",
        "_HANDLERS",
    )
    MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque"}
    )

    def _is_mutable_value(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in self.MUTABLE_CALLS
        return False

    def _is_registry_name(self, name: str) -> bool:
        if name == "__all__":
            return True
        return name.isupper() and name.endswith(self.REGISTRY_SUFFIXES)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if not self._is_mutable_value(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_registry_name(target.id):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"module-level mutable `{target.id}` — use an "
                    "immutable constant, a *_REGISTRY name, or thread "
                    "the state through ExecutionConfig",
                )


class TypedErrorsRule(Rule):
    """RPL004: raise sites must use ``repro.exceptions`` or a whitelist.

    Callers catch ``ReproError`` subclasses to distinguish user error
    from infrastructure failure (the remote pool's retry logic depends
    on it); raising ad-hoc ``RuntimeError`` breaks that contract.
    """

    code = "RPL004"
    summary = (
        "raise sites must use the repro.exceptions hierarchy or "
        "whitelisted builtins (src/repro only)"
    )
    scope = ("src/repro",)

    BUILTIN_WHITELIST = frozenset(
        {
            "ValueError",
            "TypeError",
            "NotImplementedError",
            "KeyError",
            "SystemExit",
            "KeyboardInterrupt",
            "AssertionError",
            "StopIteration",
            "OSError",
            "TimeoutError",
        }
    )
    DOTTED_WHITELIST = frozenset({"argparse.ArgumentTypeError"})
    # fallback if src/repro/exceptions.py cannot be located at lint time
    FALLBACK_REPRO_EXCEPTIONS = frozenset(
        {
            "ReproError",
            "InvalidParameterError",
            "DataValidationError",
            "NotFittedError",
            "EstimatorError",
            "PersistenceError",
            "IndexError_",
            "RemoteExecutorError",
            "RemoteProtocolError",
            "RemoteTimeoutError",
            "WorkerUnavailableError",
            "RetryExhaustedError",
        }
    )

    @staticmethod
    @functools.lru_cache(maxsize=8)
    def _repro_exception_names(root: str) -> frozenset[str]:
        """Class names defined in src/repro/exceptions.py, parsed live."""
        candidate = Path(root) / "src" / "repro" / "exceptions.py"
        if not candidate.is_file():
            return TypedErrorsRule.FALLBACK_REPRO_EXCEPTIONS
        try:
            tree = ast.parse(candidate.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return TypedErrorsRule.FALLBACK_REPRO_EXCEPTIONS
        names = {
            node.name for node in tree.body if isinstance(node, ast.ClassDef)
        }
        return frozenset(names) or TypedErrorsRule.FALLBACK_REPRO_EXCEPTIONS

    def _allowed_names(self) -> frozenset[str]:
        return self.BUILTIN_WHITELIST | self._repro_exception_names(os.getcwd())

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        allowed = self._allowed_names()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name):
                # lowercase names are re-raised exception variables
                if not exc.id[:1].isupper():
                    continue
                if exc.id in allowed:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"raise of `{exc.id}` — use the repro.exceptions "
                    "hierarchy or a whitelisted builtin",
                )
            elif isinstance(exc, ast.Attribute):
                dotted = _dotted(exc)
                if dotted is None:
                    continue
                if dotted in self.DOTTED_WHITELIST:
                    continue
                if ".exceptions." in f".{dotted}" and dotted.split(".")[-1]:
                    continue  # repro.exceptions.Foo / exceptions.Foo
                yield self.finding(
                    ctx,
                    node,
                    f"raise of `{dotted}` — use the repro.exceptions "
                    "hierarchy or a whitelisted builtin",
                )


class WireSafetyRule(Rule):
    """RPL005: raw ``sendall`` lives only in ``remote/protocol.py``.

    The frame helpers there are the single place that handles partial
    writes, length prefixes, and ``ascontiguousarray`` before putting
    array buffers on the wire. A ``sendall`` anywhere else bypasses
    framing and will interleave with protocol messages.
    """

    code = "RPL005"
    summary = "raw sock.sendall only inside remote/protocol.py"
    exempt_files = ("remote/protocol.py",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sendall"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "raw .sendall bypasses the frame helpers in "
                    "remote/protocol.py; use send_msg/send_array",
                )


class GlobalRandomRule(Rule):
    """RPL006: no global-state ``np.random.*`` calls under ``src/``.

    Every stochastic code path takes a ``numpy.random.Generator`` (see
    ``repro.rng.ensure_rng``) so runs are reproducible and parallel
    workers do not share hidden RNG state.
    """

    code = "RPL006"
    summary = (
        "no global np.random.* state under src/ — accept a Generator "
        "(repro.rng.ensure_rng)"
    )
    scope = ("src",)

    ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    NUMPY_ALIASES = frozenset({"np", "numpy"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self.NUMPY_ALIASES
            ):
                continue
            if node.attr in self.ALLOWED:
                continue
            yield self.finding(
                ctx,
                node,
                f"np.random.{node.attr} uses hidden global RNG state; "
                "accept a numpy Generator instead",
            )


class SwallowedExceptionRule(Rule):
    """RPL007: no bare/blind ``except`` that swallows silently.

    A handler for ``Exception``/``BaseException`` (or a bare
    ``except:``) whose body neither re-raises nor calls anything (log,
    convert, record) hides infrastructure failures — the worker-pool
    bug class where a dead worker looked like an empty result.
    """

    code = "RPL007"
    summary = "no bare/blind `except:` that swallows without re-raise or handling"

    BLIND = frozenset({"Exception", "BaseException"})

    def _is_blind(self, node: ast.ExceptHandler) -> bool:
        if node.type is None:
            return True
        types = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for t in types:
            if isinstance(t, ast.Name) and t.id in self.BLIND:
                return True
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` — catch a specific type, or at "
                    "minimum `except Exception` with handling",
                )
                continue
            if not self._is_blind(node):
                continue
            handles = any(
                isinstance(sub, (ast.Raise, ast.Call))
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if not handles:
                yield self.finding(
                    ctx,
                    node,
                    "`except Exception` swallows silently — re-raise, "
                    "convert to a typed error, or log before continuing",
                )


class FloatEqualityRule(Rule):
    """RPL008: no ``==``/``!=`` against float literals on distances.

    Accumulated float error means exact comparison against ``0.0`` (or
    any literal) silently mis-classifies border points; the codebase
    uses squared-threshold comparisons instead. The one sanctioned
    shape is the clamp idiom ``x[x == 0.0] = 1.0`` (guarding division),
    which is exempt.
    """

    code = "RPL008"
    summary = (
        "float-literal ==/!= comparisons flagged (clamp idiom "
        "`x[x == 0.0] = y` exempt)"
    )

    def _clamp_exempt(self, tree: ast.Module) -> set[int]:
        """id()s of Compare nodes inside a Subscript assign target."""
        exempt: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                for sub in ast.walk(target.slice):
                    if isinstance(sub, ast.Compare):
                        exempt.add(id(sub))
        return exempt

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        exempt = self._clamp_exempt(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare) or id(node) in exempt:
                continue
            lefts = [node.left, *node.comparators[:-1]]
            for op, left, right in zip(node.ops, lefts, node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"float equality against {side.value!r} — "
                            "use a squared-threshold comparison "
                            "(abs(x - y) <= eps) instead",
                        )
                        break


_RULE_CLASSES: tuple[type[Rule], ...] = (
    ResourceLifecycleRule,
    PickleSafetyRule,
    ModuleStateRule,
    TypedErrorsRule,
    WireSafetyRule,
    GlobalRandomRule,
    SwallowedExceptionRule,
    FloatEqualityRule,
)

RULES: dict[str, Rule] = {cls.code: cls() for cls in _RULE_CLASSES}


def all_rule_codes() -> list[str]:
    return sorted(RULES)
