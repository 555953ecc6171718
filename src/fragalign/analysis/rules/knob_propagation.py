"""knob-propagation: only :class:`~fragalign.job.JobSpec` makes keys.

The request schema lives once, in ``job.py`` (``_SPECS``, a pure
literal this rule parses without importing anything), beside the
frozen ``JobSpec`` that every layer passes around and that derives the
cache, ring and group keys from the registry's participation flags
(the ring key from the ``cache_key`` flag, so routing cannot disagree
with caching).  Three checks keep it that way:

* **registry** — ``_SPECS`` stays a pure literal of complete entries;
* **spec** — ``JobSpec`` declares exactly the registered *knobs* (the
  fields with any participation flag on), so deleting a registry field,
  or adding an unregistered knob to the spec, fails in both directions;
* **keys** — no ``def`` outside ``job.py`` whose name makes a key
  (``cache_key``, ``ring_key``, ``key_for``, ``_key``, …) names a
  registered field: as a parameter, a variable, an attribute, a keyword
  or a string.  Such a function would be restating the key by hand.

The non-semantic fields (trace context, deadline) have every flag off:
they are not spec fields, so no derived key can contain them, and the
keys check stops them entering a hand-built one.
"""

from __future__ import annotations

import ast
import re

from fragalign.analysis.findings import Finding
from fragalign.analysis.project import FIELDS_MODULE, Project, qualname_of

ID = "knob-propagation"
DESCRIPTION = "only JobSpec (job.py) derives keys from the request-field registry"

_FLAGS = ("cache_key", "group_key", "keyset")
_REQUIRED_SPEC_KEYS = {"name", "kind", "ops", "doc", *_FLAGS}
_KEY_DEF = re.compile(r"(?:^|_)key(?:_|$)")


def _names_in(node: ast.AST) -> set[str]:
    """Every identifier-like name a def mentions: parameters,
    variables, attributes, keywords and string constants."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            out.add(sub.arg)
        elif isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.keyword) and sub.arg is not None:
            out.add(sub.arg)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _check_spec(project: Project, path, knobs: set[str], findings: list[Finding]) -> None:
    tree = project.tree(path)
    spec = next(
        (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "JobSpec"), None
    )
    if spec is None:
        findings.append(
            Finding(
                rule=ID, path=FIELDS_MODULE, line=0, symbol="JobSpec",
                message="job.py must define the JobSpec class",
            )
        )
        return
    declared = {
        stmt.target.id
        for stmt in spec.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }
    for name in sorted(knobs - declared):
        findings.append(
            Finding(
                rule=ID, path=FIELDS_MODULE, line=spec.lineno, symbol="JobSpec",
                message=f"missing registered field {name!r} in JobSpec (its keys would drop it)",
            )
        )
    for name in sorted(declared - knobs):
        findings.append(
            Finding(
                rule=ID, path=FIELDS_MODULE, line=spec.lineno, symbol="JobSpec",
                message=(
                    f"{name!r} in JobSpec is not a registered request field "
                    "(register it in job.py's _SPECS or remove it)"
                ),
            )
        )


def _check_key_defs(project: Project, fields: set[str], findings: list[Finding]) -> None:
    for path in project.files():
        relpath = project.relpath(path)
        if relpath == FIELDS_MODULE:
            continue
        for node, stack in project.walk_with_stack(path):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _KEY_DEF.search(node.name):
                continue
            named = sorted(_names_in(node) & fields)
            if named:
                findings.append(
                    Finding(
                        rule=ID, path=relpath, line=node.lineno,
                        symbol=qualname_of(stack + [node]),
                        message=(
                            f"builds a key from registered field(s) {named} outside "
                            "job.py; derive it with JobSpec.cache_key/ring_key/group_key"
                        ),
                    )
                )


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    path = project.file(FIELDS_MODULE)
    specs = project.load_field_registry()
    if specs is None:
        if path is not None:
            findings.append(
                Finding(
                    rule=ID, path=FIELDS_MODULE, line=0, symbol="_SPECS",
                    message="job.py must define the _SPECS registry as a pure literal tuple of dicts",
                )
            )
        return findings

    for k, spec in enumerate(specs):
        missing = _REQUIRED_SPEC_KEYS - set(spec)
        if missing:
            findings.append(
                Finding(
                    rule=ID, path=FIELDS_MODULE, line=0,
                    symbol=str(spec.get("name", f"_SPECS[{k}]")),
                    message=f"registry entry missing keys {sorted(missing)}",
                )
            )
    specs = [s for s in specs if not (_REQUIRED_SPEC_KEYS - set(s))]
    knobs = {s["name"] for s in specs if any(s[flag] for flag in _FLAGS)}
    _check_spec(project, path, knobs, findings)
    _check_key_defs(project, {s["name"] for s in specs}, findings)
    return findings
