"""The analyzed project: file discovery, parsed-AST cache, registry.

A :class:`Project` wraps one package root (normally ``src/fragalign``)
plus its test directory.  Rules pull files and ASTs through it so
every rule sees the same parse and path normalization, and so tests
can point the whole analyzer at a synthetic fixture tree.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

__all__ = ["Project", "qualname_of", "FIELDS_MODULE"]

# Where the request-field registry (and JobSpec) lives, relative to
# the package root.
FIELDS_MODULE = "job.py"


def qualname_of(stack: list[ast.AST]) -> str:
    """Dotted qualname for a node's enclosing def/class stack
    (``Class.method`` / ``outer.<locals>.inner`` style, simplified)."""
    parts = [
        node.name
        for node in stack
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return ".".join(parts) or "<module>"


class Project:
    """One package tree under analysis.

    Parameters
    ----------
    root:
        The package root (the directory holding ``align/``,
        ``service/``, ``cluster/``...).
    tests:
        The test directory whose sources the kernel-parity rule scans
        for co-mentions.  Defaults to ``<root>/../../tests`` (the
        repo's ``src/<pkg>`` layout) when that exists.
    """

    def __init__(self, root: str | Path, tests: str | Path | None = None) -> None:
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise NotADirectoryError(f"analysis root {self.root} is not a directory")
        if tests is None:
            candidate = self.root.parent.parent / "tests"
            tests = candidate if candidate.is_dir() else None
        self.tests = Path(tests).resolve() if tests is not None else None
        self._trees: dict[Path, ast.Module] = {}
        self._sources: dict[Path, str] = {}

    # -- file discovery -----------------------------------------------

    def files(self, *subdirs: str) -> list[Path]:
        """Sorted ``.py`` files under the given package subdirs (or the
        whole root when none are given).  Missing subdirs are simply
        empty — rules degrade gracefully on partial fixture trees."""
        roots = [self.root / s for s in subdirs] if subdirs else [self.root]
        out: list[Path] = []
        for base in roots:
            if base.is_file() and base.suffix == ".py":
                out.append(base)
            elif base.is_dir():
                out.extend(p for p in base.rglob("*.py"))
        return sorted(set(out))

    def file(self, relpath: str) -> Path | None:
        """One package file by root-relative path, or None if absent."""
        path = self.root / relpath
        return path if path.is_file() else None

    def test_files(self) -> list[Path]:
        if self.tests is None:
            return []
        return sorted(self.tests.rglob("*.py"))

    def relpath(self, path: Path) -> str:
        """Root-relative posix path (test files get a ``tests/`` prefix)."""
        path = Path(path).resolve()
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            if self.tests is not None:
                try:
                    return f"tests/{path.relative_to(self.tests).as_posix()}"
                except ValueError:
                    pass
            return path.as_posix()

    # -- parsing ------------------------------------------------------

    def source(self, path: Path) -> str:
        path = Path(path)
        if path not in self._sources:
            self._sources[path] = path.read_text()
        return self._sources[path]

    def tree(self, path: Path) -> ast.Module:
        path = Path(path)
        if path not in self._trees:
            self._trees[path] = ast.parse(self.source(path), filename=str(path))
        return self._trees[path]

    def walk_with_stack(self, path: Path) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
        """Yield every node with its enclosing def/class stack."""

        def visit(node: ast.AST, stack: list[ast.AST]):
            for child in ast.iter_child_nodes(node):
                yield child, stack
                scoped = isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                yield from visit(child, stack + [child] if scoped else stack)

        yield from visit(self.tree(path), [])

    # -- the request-field registry -----------------------------------

    def load_field_registry(self) -> list[dict] | None:
        """Parse ``_SPECS`` out of ``job.py`` **statically**
        (no import): the registry is required to stay a pure literal.
        Returns the list of spec dicts, or None when the module or the
        literal is missing/unreadable (the knob rule reports that)."""
        path = self.file(FIELDS_MODULE)
        if path is None:
            return None
        for node in ast.walk(self.tree(path)):
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "_SPECS" not in names:
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                return None
            if isinstance(value, (list, tuple)) and all(
                isinstance(item, dict) for item in value
            ):
                return list(value)
            return None
        return None
