"""Repro-specific static lint pass (``python -m repro.analysis.lint``).

The runtime simulates a distributed machine on *virtual* time with
cooperative HPX-threads, which makes several ordinary Python idioms
model violations: wall-clock reads break determinism, OS threading
primitives bypass the scheduler, and a blocking ``.get()`` inside an
action handler can re-enter the scheduler and deadlock a locality.
These constraints are invisible to generic linters, so this module
walks the AST and enforces them with repro-specific error codes.  A
rule stays only while it guards a hazard that no dynamic tool (the
race detector, the deadlock detector, the schedule explorer or a
runtime raise) reports, or has caught a real defect:

======  ================================================================
code    rule
======  ================================================================
PX000   the file does not parse
PX101   no wall-clock time (``time.time``/``sleep``/``datetime.now``
        and friends) inside the ``repro`` package -- virtual time only
PX102   no unseeded randomness (module-level ``random.*`` functions or
        ``random.Random()`` without a seed) -- determinism
PX201   no OS ``threading``/``multiprocessing``/``concurrent.futures``
        primitives outside the scheduler -- HPX-threads only
PX301   no blocking ``.get()`` inside a component action handler --
        suspension re-enters the scheduler on the locality's own pool
PX501   no mutable default arguments (``[]``/``{}``/``set()``/...)
PX601   no unused imports (the stand-in for ruff's F401; honours
        ``# noqa`` and ``# noqa: F401`` on the import line)
PX801   no iterating unordered collections of shared identity in an
        action handler -- a ``for`` over a ``self.*`` set, or over a
        dict that other handlers populate, dispatches in arrival/hash
        order, which the schedule explorer will happily permute;
        iterate ``sorted(...)`` instead
PX901   no bare ``except:`` and no swallowed broad exceptions in
        service and handler code paths (``repro/service/`` files and
        component action handlers): a bare ``except`` also traps
        ``SystemExit``/``KeyboardInterrupt``, and an ``except
        Exception:`` whose body does nothing hides job/parcel failures
        the durability audits depend on seeing -- catch the specific
        exception, or record/re-raise what was caught
======  ================================================================

Any finding can be suppressed with a trailing
``# repro-lint: disable=PX101`` comment (comma-separated codes, or
``all``) on the offending line, or for a whole file with a
``# repro-lint: disable-file=...`` comment anywhere in the file.
``--json`` emits machine-readable findings for CI tooling.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
import tokenize
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set

__all__ = ["Finding", "lint_file", "lint_paths", "lint_source", "main"]

_DISABLE_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")
_DISABLE_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9,\s]+)")
#: ruff's suppression comment: bare ``# noqa`` or ``# noqa: F401, ...``.
_NOQA = re.compile(r"#\s*noqa(?::\s*([A-Z]+[0-9]+(?:[,\s]+[A-Z]+[0-9]+)*))?")

_WALL_CLOCK_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
}
_WALL_CLOCK_DATETIME = {"now", "utcnow", "today"}
_OS_THREADING_MODULES = {"threading", "multiprocessing", "_thread"}
_MUTABLE_DEFAULT_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}
#: Paths whose every function is a "service code path" for PX901: the
#: job service's durability audits only work when failures surface.
_PX901_SERVICE_PARTS = ("repro/service/",)
#: Exception names considered "broad" for the swallowed-handler half of
#: PX901 (a bare ``except:`` is flagged regardless of its body).
_PX901_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _parse_codes(text: str) -> Set[str]:
    return {part.strip().upper() for part in text.split(",") if part.strip()}


def _collect_disables(source: str) -> tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and whole-file suppressed codes from lint comments."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            file_match = _DISABLE_FILE.search(tok.string)
            if file_match:
                per_file |= _parse_codes(file_match.group(1))
                continue
            line_match = _DISABLE_LINE.search(tok.string)
            if line_match:
                codes = _parse_codes(line_match.group(1))
                per_line.setdefault(tok.start[0], set()).update(codes)
            noqa = _NOQA.search(tok.string)
            if noqa and "F401" in re.split(r"[,\s]+", noqa.group(1) or "F401"):
                per_line.setdefault(tok.start[0], set()).add("PX601")
    except tokenize.TokenError:  # pragma: no cover - half-written files
        pass
    return per_line, per_file


def _in_repro_package(path: str) -> bool:
    parts = os.path.abspath(path).replace(os.sep, "/").split("/")
    return "repro" in parts


def _call_name(node: ast.Call) -> str:
    """Dotted name of the called object ('' when not a plain name chain)."""
    parts: List[str] = []
    func: ast.expr = node.func
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
        return ".".join(reversed(parts))
    return ""


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, apply_model_rules: bool) -> None:
        self.path = path
        self.model_rules = apply_model_rules
        normalized = os.path.abspath(path).replace(os.sep, "/")
        self._px901_file = any(p in normalized for p in _PX901_SERVICE_PARTS)
        #: Nesting stack: True while inside a public component action
        #: handler (the "handler code path" half of PX901's scope).
        self._handler_stack: List[bool] = []
        self.findings: List[Finding] = []
        self._class_stack: List[bool] = []  # "is a Component subclass"
        self._imported: Dict[str, tuple[int, int, str]] = {}
        self._used_names: Set[str] = set()
        self._has_all_export = False

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    # Imports (PX201, PX601) ------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if self.model_rules and root in _OS_THREADING_MODULES:
                self.report(
                    node, "PX201",
                    f"OS concurrency module '{alias.name}' bypasses the "
                    f"cooperative scheduler; use HPX-threads/LCOs",
                )
            bound = alias.asname or root
            self._imported[bound] = (node.lineno, node.col_offset + 1, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if self.model_rules and (
            root in _OS_THREADING_MODULES
            or module == "concurrent.futures"
        ):
            self.report(
                node, "PX201",
                f"OS concurrency import from '{module}' bypasses the "
                f"cooperative scheduler; use HPX-threads/LCOs",
            )
        for alias in node.names:
            if alias.name == "*":
                continue
            # Explicit re-export idiom ("import x as x") is intentional.
            if alias.asname is not None and alias.asname == alias.name:
                continue
            bound = alias.asname or alias.name
            self._imported[bound] = (
                node.lineno, node.col_offset + 1, f"{module}.{alias.name}"
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._used_names.add(node.id)
        elif node.id == "__all__":
            self._has_all_export = True
        self.generic_visit(node)

    # Wall clock / randomness (PX101, PX102) --------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if self.model_rules and name:
            head, _, tail = name.partition(".")
            if head == "time" and tail in _WALL_CLOCK_TIME:
                self.report(
                    node, "PX101",
                    f"wall-clock call '{name}()' breaks virtual-time "
                    f"determinism; use the pool clock / add_cost",
                )
            elif name.endswith(tuple(f"datetime.{m}" for m in _WALL_CLOCK_DATETIME)):
                self.report(
                    node, "PX101",
                    f"wall-clock call '{name}()' breaks virtual-time "
                    f"determinism; timestamps must come from virtual time",
                )
            elif head == "random" and tail and tail != "Random":
                self.report(
                    node, "PX102",
                    f"'{name}()' uses the global unseeded RNG; construct "
                    f"random.Random(seed) so runs are reproducible",
                )
            elif name in ("random.Random", "Random") and not node.args:
                seeded = any(kw.arg in ("x", "seed") for kw in node.keywords)
                if not seeded:
                    self.report(
                        node, "PX102",
                        "random.Random() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )
        self.generic_visit(node)

    # Component action handlers (PX301, PX801) ------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        def base_name(b: ast.expr) -> str:
            if isinstance(b, ast.Name):
                return b.id
            if isinstance(b, ast.Attribute):
                return b.attr
            return ""

        is_component = any(
            base_name(b) == "Component" or base_name(b).endswith("Component")
            for b in node.bases
        )
        self._class_stack.append(is_component)
        if self.model_rules and is_component:
            self._check_unordered_iteration(node)
        self.generic_visit(node)
        self._class_stack.pop()

    @staticmethod
    def _self_attr(expr: ast.expr) -> str | None:
        """``"x"`` when ``expr`` is exactly ``self.x``, else None."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr
        return None

    def _check_unordered_iteration(self, node: ast.ClassDef) -> None:
        """PX801: handlers iterating unordered shared collections.

        Evidence that ``self.x`` is order-unstable: the class binds it
        to a set anywhere, or a *public* (parcel-invokable) method
        populates it (``self.x.add(...)`` / ``self.x[k] = ...``) --
        then its iteration order is arrival order, which differs per
        schedule.  A handler iterating such an attribute directly (or
        via ``.keys()/.values()/.items()``) dispatches nondeterministically;
        ``for gid in sorted(self.x)`` does not match and is the fix.
        """
        set_bound: Set[str] = set()
        arrival_ordered: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                value = sub.value
                is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
                    isinstance(value, ast.Call)
                    and _call_name(value).split(".")[-1] in ("set", "frozenset")
                )
                if is_set:
                    for target in sub.targets:
                        attr = self._self_attr(target)
                        if attr is not None:
                            set_bound.add(attr)
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "add"
                ):
                    attr = self._self_attr(sub.func.value)
                    if attr is not None:
                        arrival_ordered.add(attr)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Subscript):
                            attr = self._self_attr(target.value)
                            if attr is not None:
                                arrival_ordered.add(attr)
        unstable = set_bound | arrival_ordered
        if not unstable:
            return

        def iterated_attr(expr: ast.expr) -> str | None:
            attr = self._self_attr(expr)
            if attr is not None:
                return attr
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("keys", "values", "items")
            ):
                return self._self_attr(expr.func.value)
            return None

        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            for sub in ast.walk(stmt):
                iters = []
                if isinstance(sub, (ast.For, ast.AsyncFor)):
                    iters.append(sub.iter)
                elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                      ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in sub.generators)
                for it in iters:
                    attr = iterated_attr(it)
                    if attr is None or attr not in unstable:
                        continue
                    why = (
                        "a set" if attr in set_bound
                        else "populated by action handlers"
                    )
                    self.report(
                        it, "PX801",
                        f"handler '{stmt.name}' iterates 'self.{attr}' "
                        f"({why}): the order is arrival/hash order and "
                        f"differs across schedules; iterate "
                        f"sorted(self.{attr}) for deterministic dispatch",
                    )

    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        # PX501: mutable defaults.
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _call_name(default).split(".")[-1] in _MUTABLE_DEFAULT_CALLS
            )
            if mutable:
                self.report(
                    default, "PX501",
                    f"mutable default argument in '{node.name}()' is shared "
                    f"across calls; default to None and construct inside",
                )

        # PX301: blocking future.get() inside a component action handler.
        if (
            self.model_rules
            and self._class_stack
            and self._class_stack[-1]
            and not node.name.startswith("_")
        ):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "get"
                    and not call.args
                    and not call.keywords
                ):
                    self.report(
                        call, "PX301",
                        f"blocking '.get()' inside action handler "
                        f"'{node.name}' re-enters the scheduler on the "
                        f"locality's pool; chain with .then()/dataflow or "
                        f"suppress if suspension is intended",
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self._visit_function_body(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self._visit_function_body(node)

    def _visit_function_body(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        is_handler = bool(
            self._class_stack
            and self._class_stack[-1]
            and not node.name.startswith("_")
        )
        self._handler_stack.append(is_handler)
        try:
            self.generic_visit(node)
        finally:
            self._handler_stack.pop()

    # Service / handler exception hygiene (PX901) ---------------------------
    def visit_Try(self, node: ast.Try) -> None:
        if self.model_rules and (
            self._px901_file or any(self._handler_stack)
        ):
            for handler in node.handlers:
                self._check_except_handler(handler)
        self.generic_visit(node)

    def _check_except_handler(self, handler: ast.ExceptHandler) -> None:
        if handler.type is None:
            self.report(
                handler, "PX901",
                "bare 'except:' in a service/handler code path also traps "
                "SystemExit and KeyboardInterrupt; name the exception you "
                "mean to survive",
            )
            return
        if self._broad_exception_names(handler.type) and self._swallows(
            handler.body
        ):
            caught = ast.unparse(handler.type)
            self.report(
                handler, "PX901",
                f"'except {caught}:' whose body does nothing swallows the "
                f"failure; jobs/parcels that die here become invisible to "
                f"the durability audits -- record a cause, re-raise, or "
                f"catch the specific exception",
            )

    @staticmethod
    def _broad_exception_names(expr: ast.expr) -> bool:
        """True when the except clause catches Exception/BaseException."""
        types = expr.elts if isinstance(expr, ast.Tuple) else [expr]
        for t in types:
            name = t.attr if isinstance(t, ast.Attribute) else (
                t.id if isinstance(t, ast.Name) else ""
            )
            if name in _PX901_BROAD_EXCEPTIONS:
                return True
        return False

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        """True when the handler body discards the exception entirely:
        nothing but ``pass``/``...``/``continue``/``break`` or a bare
        constant ``return`` -- no call, no raise, no binding."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue
            if isinstance(stmt, ast.Return) and (
                stmt.value is None or isinstance(stmt.value, ast.Constant)
            ):
                continue
            return False
        return True

    # PX601 epilogue --------------------------------------------------------
    def finish(self, tree: ast.Module) -> None:
        if self._has_all_export or os.path.basename(self.path) == "__init__.py":
            return
        exported: Set[str] = set()
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets
                )
            ):
                return  # explicit export list: imports may be re-exports
        for bound, (line, col, original) in self._imported.items():
            if bound in self._used_names or bound in exported:
                continue
            if bound.startswith("_"):
                continue
            if original.startswith("__future__."):
                continue  # compiler directives, never "used" (ruff parity)
            self.findings.append(
                Finding(
                    path=self.path, line=line, col=col, code="PX601",
                    message=f"'{original}' imported but unused",
                )
            )


def lint_source(source: str, path: str) -> List[Finding]:
    """Lint one file's source text; returns surviving findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                code="PX000", message=f"syntax error: {exc.msg}",
            )
        ]
    checker = _Checker(path, apply_model_rules=_in_repro_package(path))
    checker.visit(tree)
    checker.finish(tree)
    per_line, per_file = _collect_disables(source)
    kept: List[Finding] = []
    for finding in checker.findings:
        if "ALL" in per_file or finding.code in per_file:
            continue
        line_codes = per_line.get(finding.line, set())
        if "ALL" in line_codes or finding.code in line_codes:
            continue
        kept.append(finding)
    return kept


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path)


def _iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
        else:
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git", ".ruff_cache")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    for path in _iter_python_files(paths):
        findings.extend(lint_file(path))
    return findings


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repro-specific static lint for the ParalleX model.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--json", action="store_true",
        help="emit findings as a JSON array instead of text",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)
    findings = lint_paths(args.paths)
    if args.json:
        print(json.dumps([asdict(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
