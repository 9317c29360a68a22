"""AST-based determinism linter for the simulator core.

The repo's hard product guarantee is byte-identical reports under fixed
seeds. The four things that historically break that class of guarantee in
Python simulators are each a mechanical pattern:

* ``unseeded-random`` — draws from the module-level :mod:`random` RNG (or a
  ``random.Random()`` constructed without a seed), and NumPy generators
  constructed without a seed (``np.random.default_rng()``,
  ``np.random.RandomState()``, or either named as a dataclass field's
  ``default_factory``). Repo idiom is an explicit ``random.Random(seed)``
  or ``np.random.default_rng(seed)`` instance per stream.
* ``wall-clock`` — ``time.time()`` / ``time.perf_counter()`` and friends
  feeding simulation state. Wall-clock reads are only legitimate in the
  allowlisted measurement sites (reducer wall-time metrics, the round
  runner's throughput timer).
* ``set-iteration`` — iterating a ``set`` literal/constructor (directly or
  via a set-valued local) drives callbacks in hash order, which is stable
  per process but not a contract; repo idiom is ``sorted(...)`` first.
* ``mutable-default`` — a mutable default argument shares state across
  simulator instances, leaking one run's state into the next.

One hygiene rule rides the same pass, since ruff (whose F401 it stands in
for) is not part of the toolchain:

* ``unused-import`` — a name a module imports and never reads. An
  ``__init__.py`` re-exports what it imports, and a name listed in
  ``__all__`` is exported, so neither is flagged. A name read only in a
  string annotation counts as read.

The linter is flow-insensitive and deliberately conservative: it flags only
patterns it can prove from the AST, so a clean tree stays clean without
suppression comments.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.checks.findings import Finding

RULE_UNSEEDED_RANDOM = "unseeded-random"
RULE_WALL_CLOCK = "wall-clock"
RULE_SET_ITERATION = "set-iteration"
RULE_MUTABLE_DEFAULT = "mutable-default"
RULE_UNUSED_IMPORT = "unused-import"

#: Files (matched by path suffix) where wall-clock reads are the point:
#: they measure host-side wall time and never feed simulation state.
WALL_CLOCK_ALLOWLIST: tuple[str, ...] = (
    "repro/mapreduce/reducer.py",
    "repro/experiments/rounds.py",
)

#: Wall-clock functions of the :mod:`time` module.
_TIME_WALL_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Wall-clock constructors reached through the :mod:`datetime` module.
_DATETIME_WALL_FNS = frozenset({"now", "utcnow", "today"})

#: NumPy's generator constructors, seeded from OS entropy when called bare.
_NUMPY_GENERATORS = frozenset({"default_rng", "RandomState"})

#: Callables producing a fresh mutable object when used as a default.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that evaluate to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


class _CallVisitor(ast.NodeVisitor):
    """Flags unseeded-random and wall-clock calls, tracking import aliases."""

    def __init__(self, display_path: str, wall_clock_allowed: bool) -> None:
        self.display_path = display_path
        self.wall_clock_allowed = wall_clock_allowed
        self.findings: list[Finding] = []
        self._random_modules: set[str] = set()
        self._time_modules: set[str] = set()
        self._datetime_modules: set[str] = set()
        #: local name -> original name, for ``from random import ...``.
        self._random_funcs: dict[str, str] = {}
        self._time_funcs: dict[str, str] = {}
        #: Local names of ``numpy`` and of ``numpy.random``, and of the
        #: generator constructors ``from numpy.random import ...`` binds.
        self._numpy_modules: set[str] = set()
        self._numpy_random_modules: set[str] = set()
        self._numpy_funcs: dict[str, str] = {}

    def _flag(self, rule: str, line: int, message: str) -> None:
        self.findings.append(Finding(rule=rule, path=self.display_path, line=line, message=message))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_modules.add(local)
            elif alias.name == "time":
                self._time_modules.add(local)
            elif alias.name == "datetime":
                self._datetime_modules.add(local)
            elif alias.name == "numpy" or (alias.name == "numpy.random" and not alias.asname):
                self._numpy_modules.add(local)
            elif alias.name == "numpy.random":
                self._numpy_random_modules.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                self._random_funcs[alias.asname or alias.name] = alias.name
        elif node.module == "time":
            for alias in node.names:
                self._time_funcs[alias.asname or alias.name] = alias.name
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_modules.add(alias.asname or alias.name)
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._numpy_random_modules.add(alias.asname or alias.name)
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name in _NUMPY_GENERATORS:
                    self._numpy_funcs[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def _numpy_generator(self, node: ast.AST) -> str | None:
        """The NumPy generator constructor ``node`` names, or ``None``."""
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self._numpy_modules and rest.startswith("random."):
            rest = rest[len("random.") :]
        elif head not in self._numpy_random_modules:
            return self._numpy_funcs.get(dotted)
        return rest if rest in _NUMPY_GENERATORS else None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # A generator constructor called bare, or named as a zero-argument
        # factory, seeds itself from OS entropy.
        unseeded = [(node, func)] if not node.args and not node.keywords else []
        unseeded += [(kw.value, kw.value) for kw in node.keywords if kw.arg == "default_factory"]
        for where, target in unseeded:
            generator = self._numpy_generator(target)
            if generator is not None:
                self._flag(
                    RULE_UNSEEDED_RANDOM,
                    where.lineno,
                    f"np.random.{generator}() constructed without a seed; pass an "
                    "explicit seed so the stream is reproducible",
                )
        dotted = _dotted_name(func)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if rest and head in self._random_modules:
                self._check_random_call(node, rest)
            elif rest and head in self._time_modules:
                if rest in _TIME_WALL_FNS:
                    self._flag_wall_clock(node, dotted)
            elif rest and head in self._datetime_modules:
                if rest.rpartition(".")[2] in _DATETIME_WALL_FNS:
                    self._flag_wall_clock(node, dotted)
            elif not rest:
                original = self._random_funcs.get(head)
                if original is not None:
                    self._check_random_call(node, original)
                original = self._time_funcs.get(head)
                if original is not None and original in _TIME_WALL_FNS:
                    self._flag_wall_clock(node, f"time.{original}")
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, attr: str) -> None:
        if attr == "Random":
            if not node.args and not node.keywords:
                self._flag(
                    RULE_UNSEEDED_RANDOM,
                    node.lineno,
                    "random.Random() constructed without a seed; pass an explicit "
                    "seed so the stream is reproducible",
                )
            return
        if attr == "seed":
            # Seeding the global RNG is not itself a draw; any later draw
            # through the module-level API is still flagged below.
            return
        if attr == "SystemRandom":
            self._flag(
                RULE_UNSEEDED_RANDOM,
                node.lineno,
                "random.SystemRandom is OS-entropy backed and cannot be seeded",
            )
            return
        self._flag(
            RULE_UNSEEDED_RANDOM,
            node.lineno,
            f"random.{attr}() draws from the unseeded module-level RNG; use a "
            "random.Random(seed) instance",
        )

    def _flag_wall_clock(self, node: ast.Call, dotted: str) -> None:
        if self.wall_clock_allowed:
            return
        self._flag(
            RULE_WALL_CLOCK,
            node.lineno,
            f"{dotted}() reads the wall clock outside the measurement "
            "allowlist; simulation logic must use simulated time",
        )


def _scope_nodes(scope: ast.AST) -> list[ast.AST]:
    """Nodes belonging to ``scope``, not descending into nested scopes."""
    barrier = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    collected: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        collected.append(node)
        if not isinstance(node, barrier):
            stack.extend(ast.iter_child_nodes(node))
    return collected


def _scan_set_iteration(tree: ast.Module, display_path: str) -> list[Finding]:
    findings: list[Finding] = []
    scopes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        nodes = _scope_nodes(scope)
        set_assigned: set[str] = set()
        otherwise_bound: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]:
                otherwise_bound.add(arg.arg)
        for node in nodes:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], None
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets, value = [node.target], None
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                targets, value = [node.optional_vars], None
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        if value is not None and _is_set_expr(value) and target is name_node:
                            set_assigned.add(name_node.id)
                        else:
                            otherwise_bound.add(name_node.id)
        set_locals = set_assigned - otherwise_bound
        for node in nodes:
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if _is_set_expr(candidate):
                    findings.append(
                        Finding(
                            rule=RULE_SET_ITERATION,
                            path=display_path,
                            line=candidate.lineno,
                            message="iteration over an unordered set expression; sort "
                            "first so event order does not depend on hashing",
                        )
                    )
                elif isinstance(candidate, ast.Name) and candidate.id in set_locals:
                    findings.append(
                        Finding(
                            rule=RULE_SET_ITERATION,
                            path=display_path,
                            line=candidate.lineno,
                            message=f"iteration over set-valued local {candidate.id!r}; "
                            "sort first so event order does not depend on hashing",
                        )
                    )
    return findings


def _scan_mutable_defaults(tree: ast.Module, display_path: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                label = getattr(node, "name", "<lambda>")
                findings.append(
                    Finding(
                        rule=RULE_MUTABLE_DEFAULT,
                        path=display_path,
                        line=default.lineno,
                        message=f"mutable default argument in {label!r} is shared "
                        "across calls and instances; default to None instead",
                    )
                )
    return findings


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation reads, those inside string annotations included."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(quoted) if isinstance(sub, ast.Name))
    return names


def unused_imports(tree: ast.Module, display_path: str) -> list[Finding]:
    """``unused-import`` findings: names ``tree`` imports and never reads.

    Flow-insensitive: a name counts as read if the module reads it
    anywhere, so only an import nothing could use is flagged. Nothing in
    an ``__init__.py`` is (its imports are the package's re-exports).
    """
    if display_path.endswith("__init__.py"):
        return []
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            if "__all__" in names and isinstance(node.value, (ast.List, ast.Tuple)):
                read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [
        Finding(
            rule=RULE_UNUSED_IMPORT,
            path=display_path,
            line=line,
            message=f"{name!r} is imported but never read; delete the import",
        )
        for name, line in imported.items()
        if name not in read
    ]


def lint_source(
    source: str, display_path: str, *, wall_clock_allowed: bool = False
) -> list[Finding]:
    """Lint one module's source text; findings are sorted by line."""
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                path=display_path,
                line=exc.lineno or 0,
                message=f"module does not parse: {exc.msg}",
            )
        ]
    visitor = _CallVisitor(display_path, wall_clock_allowed)
    visitor.visit(tree)
    findings = visitor.findings
    findings += _scan_set_iteration(tree, display_path)
    findings += _scan_mutable_defaults(tree, display_path)
    findings += unused_imports(tree, display_path)
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve().parent).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(root: str | Path) -> list[Finding]:
    """Lint one file, or every ``*.py`` file under a directory.

    Display paths are made relative to the *parent* of ``root`` so the
    output reads naturally both for the package tree (``repro/...``) and
    for fixture directories (``fixtures/...``).
    """
    root = Path(root)
    if root.is_file():
        files = [root]
        base = root.parent
    else:
        files = sorted(root.rglob("*.py"))
        base = root
    findings: list[Finding] = []
    for path in files:
        display = _display_path(path, base)
        allowed = any(display.endswith(entry) for entry in WALL_CLOCK_ALLOWLIST)
        findings += lint_source(
            path.read_text(encoding="utf-8"), display, wall_clock_allowed=allowed
        )
    return findings
