"""determinism: key-making code must be reproducible across processes.

Cache keys, routing keys and response payloads must hash/compare the
same on every replica and every restart — the cluster tier's whole
correctness story (one owner per key, warm caches that survive
restarts) rests on it.  Two scopes:

* **whole files** that exist to build identities —
  ``job.py`` (the :class:`~fragalign.job.JobSpec` keys),
  ``service/protocol.py``, ``cluster/ring.py``;
* **key-making functions** anywhere in ``service/`` and ``cluster/``:
  any def whose name matches ``cache_key|ring_key|key_for|shard_for|
  fingerprint|normalize`` (substring, so ``_normalize`` and
  ``model_fingerprint`` count).

Inside scope the rule forbids sources of cross-process or cross-run
drift:

* the builtin ``hash()`` (salted per process by PYTHONHASHSEED) and
  ``id()`` (an address);
* wall clock — ``time.time``/``time_ns``/``monotonic``,
  ``datetime.now``/``utcnow``/``today``;
* entropy — ``random.*``, ``np.random.*``, ``uuid.*``,
  ``os.urandom``, ``secrets.*``.

``hashlib`` is deliberately **allowed**: the ring hashes with sha1
precisely because it is stable where ``hash()`` is not.  Code that
legitimately needs a clock or RNG (timeouts, jitter, keyset
*generation* with an explicit seed) belongs outside key-making
functions — or, for real exceptions, in the baseline with a reason.
"""

from __future__ import annotations

import ast
import re

from fragalign.analysis.findings import Finding
from fragalign.analysis.project import Project, qualname_of

ID = "determinism"
DESCRIPTION = "key-making code must not use hash()/clock/entropy"

_KEY_FUNC = re.compile(r"cache_key|ring_key|key_for|shard_for|fingerprint|normalize")
_WHOLE_FILES = ("job.py", "service/protocol.py", "cluster/ring.py")
_SUBDIRS = ("service", "cluster")

_FORBIDDEN_NAMES = {
    "hash": "builtin hash() is salted per process (PYTHONHASHSEED)",
    "id": "id() is a memory address, unstable across runs",
}
_FORBIDDEN_DOTTED = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "per-process clock",
    "datetime.now": "wall clock",
    "datetime.utcnow": "wall clock",
    "datetime.today": "wall clock",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "os.urandom": "entropy",
}
_FORBIDDEN_PREFIXES = {
    "random.": "entropy",
    "np.random.": "entropy",
    "numpy.random.": "entropy",
    "uuid.": "entropy",
    "secrets.": "entropy",
}


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _violation(node: ast.Call) -> str | None:
    """Why this call breaks determinism, or None."""
    if isinstance(node.func, ast.Name) and node.func.id in _FORBIDDEN_NAMES:
        return f"{node.func.id}(): {_FORBIDDEN_NAMES[node.func.id]}"
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    if dotted in _FORBIDDEN_DOTTED:
        return f"{dotted}(): {_FORBIDDEN_DOTTED[dotted]}"
    for prefix, why in _FORBIDDEN_PREFIXES.items():
        if dotted.startswith(prefix):
            return f"{dotted}(): {why}"
    return None


def check(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    whole = {project.file(rel) for rel in _WHOLE_FILES} - {None}
    scanned: set = set()

    def scan(path, restrict_to_key_funcs: bool) -> None:
        relpath = project.relpath(path)
        for node, stack in project.walk_with_stack(path):
            if not isinstance(node, ast.Call):
                continue
            if restrict_to_key_funcs and not any(
                isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _KEY_FUNC.search(s.name)
                for s in stack
            ):
                continue
            why = _violation(node)
            if why is not None:
                findings.append(
                    Finding(
                        rule=ID, path=relpath, line=node.lineno,
                        symbol=qualname_of(stack),
                        message=f"non-deterministic {why} in key-making code",
                    )
                )

    for path in sorted(whole):
        scanned.add(path)
        scan(path, restrict_to_key_funcs=False)
    for path in project.files(*_SUBDIRS):
        if path in scanned:
            continue
        scan(path, restrict_to_key_funcs=True)
    return findings
