"""asyncio-hygiene: the event loop in service/ and cluster/ never blocks.

The serving tiers run on one event loop; a single blocking call inside
an ``async def`` stalls *every* connection (latency cliffs that load
tests rarely catch, because the blocked coroutine still completes).
Four checks, all scoped to ``async def`` bodies in ``service/`` and
``cluster/`` (nested sync ``def``\\ s are skipped — they run wherever
their caller puts them, e.g. an executor):

* **blocking-call** — ``time.sleep``, blocking ``subprocess``/``os``
  process helpers, synchronous socket/url/file I/O (``open``,
  ``Path.read_text``...), and ``.result()`` on futures.  CPU-bound
  engine compute must go through ``run_in_executor`` — referencing
  ``engine.score_many`` inside a ``partial(...)`` is fine, *calling*
  it inline is not.
* **engine-call** — a direct call of ``<...>engine<...>.score/align/
  score_many/align_many`` inside an async body (the batcher's
  contract: a group runs on its worker thread unless
  ``engine.inline`` hands back its call, bounded, and only then
  through that call on the loop).
* **unawaited-coroutine** — an expression-statement call of an
  ``async def`` defined in the same module (``self.foo()`` or bare
  ``foo()``) whose result is discarded: the coroutine never runs.
  Only ``self.``-receivers are matched for attribute calls — an
  unrelated object may share a method name with a module coroutine
  (``StreamWriter.close()`` vs an async ``close`` method).
* **sync-lock-across-await** — a plain ``with`` on something named
  like a lock whose body contains ``await``: a thread lock held across
  a suspension point deadlocks the loop the moment a second task wants
  it (use ``asyncio.Lock`` + ``async with``).
"""

from __future__ import annotations

import ast

from fragalign.analysis.findings import Finding
from fragalign.analysis.project import Project, qualname_of

ID = "asyncio-hygiene"
DESCRIPTION = "async bodies in service/ and cluster/ must not block the loop"

_SUBDIRS = ("service", "cluster")

# Dotted calls that block the calling thread.
_BLOCKING_DOTTED = {
    "time.sleep",
    "os.system",
    "os.waitpid",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.create_connection",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
}
# Bare names whose call blocks (builtin file open; input).
_BLOCKING_NAMES = {"open", "input"}
# Attribute calls that block regardless of receiver (sync file/Path I/O,
# concurrent.futures results).
_BLOCKING_ATTRS = {"read_text", "write_text", "read_bytes", "write_bytes", "result"}
_ENGINE_VERBS = {"score", "align", "score_many", "align_many"}


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _async_names(tree: ast.Module) -> set[str]:
    """Names of every async def in the module (functions and methods)."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }


def _lockish(expr: ast.AST) -> bool:
    name = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    return name is not None and "lock" in name.lower()


class _AsyncBodyVisitor(ast.NodeVisitor):
    """Walk one async def's body without descending into nested defs."""

    def __init__(
        self, rule_path: str, qualname: str, async_names: set[str]
    ) -> None:
        self.path = rule_path
        self.qualname = qualname
        self.async_names = async_names
        self.findings: list[Finding] = []

    def _finding(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=ID, path=self.path, line=node.lineno, symbol=self.qualname,
                message=message,
            )
        )

    # Don't descend: nested defs get their own context (or none).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted in _BLOCKING_DOTTED:
            self._finding(
                node,
                f"blocking call {dotted}() inside an async def "
                "(use the asyncio equivalent or an executor)",
            )
        elif isinstance(node.func, ast.Name) and node.func.id in _BLOCKING_NAMES:
            self._finding(
                node,
                f"blocking call {node.func.id}() inside an async def "
                "(synchronous I/O stalls the event loop)",
            )
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _BLOCKING_ATTRS:
            self._finding(
                node,
                f".{node.func.attr}() inside an async def blocks the event loop",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ENGINE_VERBS
            and dotted is not None
            and "engine" in dotted.rsplit(".", 1)[0].lower()
        ):
            self._finding(
                node,
                f"direct engine compute {dotted}() inside an async def "
                "(dispatch through run_in_executor, like the MicroBatcher)",
            )
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            target = None
            if isinstance(call.func, ast.Name) and call.func.id in self.async_names:
                target = call.func.id
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in self.async_names
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
            ):
                target = call.func.attr
            if target is not None:
                self._finding(
                    node,
                    f"coroutine {target}(...) is never awaited "
                    "(await it, or wrap it in create_task)",
                )
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if any(_lockish(item.context_expr) for item in node.items) and any(
            isinstance(inner, ast.Await)
            for stmt in node.body
            for inner in ast.walk(stmt)
        ):
            self._finding(
                node,
                "synchronous lock held across an await "
                "(use asyncio.Lock with 'async with')",
            )
        self.generic_visit(node)


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for path in project.files(*_SUBDIRS):
        tree = project.tree(path)
        relpath = project.relpath(path)
        async_names = _async_names(tree)
        for node, stack in project.walk_with_stack(path):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            visitor = _AsyncBodyVisitor(
                relpath, qualname_of(stack + [node]), async_names
            )
            for stmt in node.body:
                visitor.visit(stmt)
            findings.extend(visitor.findings)
    return findings
