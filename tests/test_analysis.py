"""The static analyzer: every rule family fires on a seeded fixture,
stays quiet on a clean one, and the real tree passes.

The ``test_real_tree_*_fails`` tests are the acceptance mechanics:
deleting a field from the registry, hand-building a key outside
``job.py``, or deleting an oracle from ``align/`` must fail
``fragalign check``.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

import fragalign
from fragalign.analysis import (
    Baseline,
    BaselineError,
    CheckResult,
    Finding,
    Severity,
    format_report,
    run_check,
)
from fragalign.cli import main

REAL_ROOT = Path(fragalign.__file__).resolve().parent
REAL_TESTS = REAL_ROOT.parent.parent / "tests"
REAL_BASELINE = REAL_ROOT.parent.parent / "analysis-baseline.json"


def write(root: Path, rel: str, src: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(src))


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    return root


@pytest.fixture
def testdir(tmp_path):
    tdir = tmp_path / "tests"
    tdir.mkdir()
    return tdir


# ---------------------------------------------------------------------------
# kernel-parity
# ---------------------------------------------------------------------------


class TestKernelParity:
    def _run(self, root, tests):
        return run_check(root, tests=tests, rules=["kernel-parity"]).new

    def test_missing_oracle_fires(self, pkg, testdir):
        write(pkg, "align/k.py", "def foo_scores_batch(pairs):\n    pass\n")
        findings = self._run(pkg, testdir)
        assert [f.symbol for f in findings] == ["foo_scores_batch"]
        assert "no matching *_reference oracle" in findings[0].message

    def test_missing_parity_test_fires(self, pkg, testdir):
        write(
            pkg,
            "align/k.py",
            """
            def foo_scores_batch(pairs):
                pass

            def foo_score_reference(a, b):
                pass
            """,
        )
        findings = self._run(pkg, testdir)
        assert [f.symbol for f in findings] == ["foo_scores_batch"]
        assert "no test file references both" in findings[0].message

    def test_clean_when_oracle_and_test_exist(self, pkg, testdir):
        write(
            pkg,
            "align/k.py",
            """
            def foo_scores_batch(pairs):
                pass

            def foo_score_reference(a, b):
                pass
            """,
        )
        write(
            testdir,
            "test_k.py",
            "# parity: foo_scores_batch vs foo_score_reference\n",
        )
        assert self._run(pkg, testdir) == []

    def test_directive_names_the_oracle(self, pkg, testdir):
        write(
            pkg,
            "align/k.py",
            """
            def odd_align(x):  # parity-oracle: special_align_reference
                pass

            def special_align_reference(a, b):
                pass
            """,
        )
        write(testdir, "test_k.py", "# odd_align special_align_reference\n")
        assert self._run(pkg, testdir) == []

    def test_directive_to_missing_oracle_fires(self, pkg, testdir):
        write(
            pkg,
            "align/k.py",
            "def odd_align(x):  # parity-oracle: ghost_reference\n    pass\n",
        )
        findings = self._run(pkg, testdir)
        assert len(findings) == 1
        assert "does not exist" in findings[0].message

    def test_score_kernel_rejects_align_only_oracle(self, pkg, testdir):
        write(
            pkg,
            "align/k.py",
            """
            def foo_scores_batch(pairs):
                pass

            def foo_align_reference(a, b):
                pass
            """,
        )
        write(testdir, "test_k.py", "# foo_scores_batch foo_align_reference\n")
        findings = self._run(pkg, testdir)
        assert [f.symbol for f in findings] == ["foo_scores_batch"]


# ---------------------------------------------------------------------------
# knob-propagation
# ---------------------------------------------------------------------------


_SPEC_TEMPLATE = """
_SPECS = (
    {{"name": "mode", "kind": "str", "ops": ("score", "align"),
      "cache_key": True, "group_key": True, "keyset": True, "doc": "d"}},
    {{"name": "band", "kind": "int", "ops": ("score", "align"),
      "cache_key": True, "group_key": True, "keyset": True, "doc": "d"}},
    {{"name": "trace_id", "kind": "str", "ops": ("score", "align"),
      "cache_key": False, "group_key": False, "keyset": False, "doc": "d"}},
)


class JobSpec:
    {spec_fields}

    def cache_key(self, op, a, b, model_fp):
        return (op, a, b, self.mode, self.band, model_fp)
"""


def _knob_tree(pkg: Path, spec_fields: str = "mode: str\n    band: int"):
    write(pkg, "job.py", _SPEC_TEMPLATE.format(spec_fields=spec_fields))
    write(
        pkg,
        "service/server.py",
        """
        class Server:
            def lookup(self, request):
                return self.cache.get(request.spec.cache_key(request.op, request.a, request.b, ""))
        """,
    )


class TestKnobPropagation:
    def _run(self, root):
        return run_check(root, tests=None, rules=["knob-propagation"]).new

    def test_clean_tree(self, pkg):
        _knob_tree(pkg)
        assert self._run(pkg) == []

    def test_missing_field_in_cache_key_fires(self, pkg):
        # JobSpec derives every key: a registered field missing from it
        # is missing from the cache key.
        _knob_tree(pkg, spec_fields="mode: str")
        findings = self._run(pkg)
        assert any(
            "missing registered field 'band'" in f.message and f.symbol == "JobSpec"
            for f in findings
        )

    def test_unregistered_extra_param_fires(self, pkg):
        _knob_tree(pkg, spec_fields="mode: str\n    band: int\n    gap: float")
        findings = self._run(pkg)
        assert any(
            "'gap'" in f.message and "not a registered request field" in f.message
            for f in findings
        )

    def test_key_def_outside_spec_module_fires(self, pkg):
        _knob_tree(pkg)
        write(
            pkg,
            "service/server.py",
            """
            class Server:
                def cache_key(self, op, a, b, mode, band):
                    return (op, a, b, mode, band)
            """,
        )
        findings = self._run(pkg)
        assert [(f.path, f.symbol) for f in findings] == [
            ("service/server.py", "Server.cache_key")
        ]
        assert "['band', 'mode']" in findings[0].message

    def test_non_semantic_field_in_hand_built_key_fires(self, pkg):
        _knob_tree(pkg)
        write(
            pkg,
            "service/batcher.py",
            """
            def _job_key(request):
                return (request.op, request.spec.group_key(request.op), request["trace_id"])
            """,
        )
        findings = self._run(pkg)
        assert [f.symbol for f in findings] == ["_job_key"]
        assert "'trace_id'" in findings[0].message

    def test_missing_registry_fires(self, pkg):
        _knob_tree(pkg)
        (pkg / "job.py").write_text("SPECS = []\n")
        findings = self._run(pkg)
        assert any("pure literal" in f.message for f in findings)


# ---------------------------------------------------------------------------
# asyncio-hygiene
# ---------------------------------------------------------------------------


class TestAsyncioHygiene:
    def _run(self, root):
        return run_check(root, tests=None, rules=["asyncio-hygiene"]).new

    def test_seeded_violations_fire(self, pkg):
        write(
            pkg,
            "service/app.py",
            """
            import asyncio
            import time

            async def good():
                await asyncio.sleep(0.1)

            async def bad_sleep():
                time.sleep(1)

            async def bad_open(path):
                return open(path)

            async def bad_lock(lock, fut):
                with lock:
                    await fut

            async def bad_engine(engine, pairs):
                return engine.score_many(pairs)
            """,
        )
        by_symbol = {f.symbol: f.message for f in self._run(pkg)}
        assert "time.sleep" in by_symbol["bad_sleep"]
        assert "open()" in by_symbol["bad_open"]
        assert "lock held across an await" in by_symbol["bad_lock"]
        assert "run_in_executor" in by_symbol["bad_engine"]
        assert "good" not in by_symbol

    def test_unawaited_self_coroutine_fires_but_not_writer_close(self, pkg):
        write(
            pkg,
            "cluster/conn.py",
            """
            class Conn:
                async def close(self):
                    pass

                async def bad(self):
                    self.close()

                async def fine(self, writer):
                    writer.close()
                    await self.close()
            """,
        )
        findings = self._run(pkg)
        assert [f.symbol for f in findings] == ["Conn.bad"]
        assert "never awaited" in findings[0].message

    def test_sync_code_is_out_of_scope(self, pkg):
        write(
            pkg,
            "service/retry.py",
            """
            import time

            def backoff():
                time.sleep(0.5)
            """,
        )
        assert self._run(pkg) == []


# ---------------------------------------------------------------------------
# io-timeout
# ---------------------------------------------------------------------------


class TestIoTimeout:
    def _run(self, root):
        return run_check(root, tests=None, rules=["io-timeout"]).new

    def test_unbounded_network_awaits_fire(self, pkg):
        write(
            pkg,
            "service/conn.py",
            """
            import asyncio

            async def bad_read(reader):
                return await reader.readline()

            async def bad_connect(host, port):
                return await asyncio.open_connection(host, port)

            async def bad_drain(writer):
                await writer.drain()
            """,
        )
        by_symbol = {f.symbol: f.message for f in self._run(pkg)}
        assert set(by_symbol) == {"bad_read", "bad_connect", "bad_drain"}
        assert "...readline()" in by_symbol["bad_read"]
        assert "asyncio.open_connection()" in by_symbol["bad_connect"]
        assert "wait_for" in by_symbol["bad_drain"]

    def test_wait_for_wrapper_and_directive_pass(self, pkg):
        write(
            pkg,
            "cluster/conn.py",
            """
            import asyncio

            async def bounded(reader):
                return await asyncio.wait_for(reader.readline(), timeout=2.0)

            async def justified(reader):
                # io-timeout: the caller's request_timeout bounds this wait
                return await reader.readline()

            async def inline_justified(writer):
                await writer.drain()  # io-timeout: drain after abort is instant
            """,
        )
        assert self._run(pkg) == []

    def test_bare_directive_without_justification_fires(self, pkg):
        write(
            pkg,
            "service/conn.py",
            """
            async def lazy(reader):
                # io-timeout:
                return await reader.readline()
            """,
        )
        findings = self._run(pkg)
        assert [f.symbol for f in findings] == ["lazy"]

    def test_code_outside_serving_tiers_is_exempt(self, pkg):
        write(
            pkg,
            "engine/io.py",
            """
            async def whatever(reader):
                return await reader.readline()
            """,
        )
        assert self._run(pkg) == []

    def test_client_verbs_are_not_matched(self, pkg):
        # Higher-level calls own their timeout obligations internally;
        # the rule checks the raw stream waits they are built from.
        write(
            pkg,
            "cluster/route.py",
            """
            async def route(client, a, b):
                return await client.score(a, b)
            """,
        )
        assert self._run(pkg) == []


# ---------------------------------------------------------------------------
# hot-kernel-numpy
# ---------------------------------------------------------------------------


class TestNumpyHotLoops:
    def _run(self, root):
        return run_check(root, tests=None, rules=["hot-kernel-numpy"]).new

    def test_seeded_violations_fire(self, pkg):
        write(
            pkg,
            "align/pairwise.py",
            """
            import numpy as np

            def foo_scores_batch(pairs):
                out = np.zeros(len(pairs))  # outside the loop: fine
                for k in range(len(pairs)):
                    t = np.zeros(4)
                    out = np.concatenate([out, t])
                    w = t.astype(np.float64)
                return out
            """,
        )
        messages = [f.message for f in self._run(pkg)]
        assert len(messages) == 3
        assert any("np.zeros" in m and "allocates per iteration" in m for m in messages)
        assert any("np.concatenate" in m and "reallocates" in m for m in messages)
        assert any(".astype" in m for m in messages)

    def test_cold_functions_and_nested_defs_are_exempt(self, pkg):
        write(
            pkg,
            "align/hirschberg.py",
            """
            import numpy as np

            def helper(pairs):
                for k in pairs:
                    np.zeros(3)

            def bar_sweep(xs):
                buf = np.zeros(8)
                def inner():
                    for x in xs:
                        np.zeros(2)
                return buf
            """,
        )
        assert self._run(pkg) == []

    def test_files_outside_the_hot_list_are_exempt(self, pkg):
        write(
            pkg,
            "align/chain.py",
            """
            import numpy as np

            def foo_batch(xs):
                for x in xs:
                    np.zeros(2)
            """,
        )
        assert self._run(pkg) == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _run(self, root):
        return run_check(root, tests=None, rules=["determinism"]).new

    def test_whole_file_scope(self, pkg):
        write(
            pkg,
            "cluster/ring.py",
            """
            import hashlib
            import time

            def ring_key(op):
                return hashlib.sha1(op.encode()).hexdigest() + str(hash(op))

            def helper():
                return time.time()
            """,
        )
        findings = self._run(pkg)
        messages = {f.symbol: f.message for f in findings}
        assert "hash()" in messages["ring_key"]
        assert "time.time()" in messages["helper"]
        assert not any("sha1" in m for m in messages.values())

    def test_key_function_scope(self, pkg):
        write(
            pkg,
            "service/other.py",
            """
            import random
            import time

            def cache_key(x):
                return random.random()

            def jitter():
                return time.time()
            """,
        )
        findings = self._run(pkg)
        assert [f.symbol for f in findings] == ["cache_key"]
        assert "random.random" in findings[0].message


# ---------------------------------------------------------------------------
# baseline round-trip
# ---------------------------------------------------------------------------


class TestBaseline:
    def _finding(self, line=3):
        return Finding(
            rule="r", path="p.py", line=line, symbol="s", message="m"
        )

    def test_fixme_placeholders_do_not_pass(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert Baseline.write(path, [self._finding()]) == 1
        with pytest.raises(BaselineError, match="real justification"):
            Baseline.load(path)

    def test_justified_entry_suppresses_across_line_churn(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.write(path, [self._finding()])
        obj = json.loads(path.read_text())
        obj["entries"][0]["justification"] = "known false positive: fixture"
        path.write_text(json.dumps(obj))
        baseline = Baseline.load(path)
        new, suppressed, stale = baseline.apply([self._finding(line=99)])
        assert (new, len(suppressed), stale) == ([], 1, [])

    def test_stale_entries_are_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.write(path, [self._finding()])
        obj = json.loads(path.read_text())
        obj["entries"][0]["justification"] = "was real once"
        path.write_text(json.dumps(obj))
        new, suppressed, stale = Baseline.load(path).apply([])
        assert (new, suppressed, len(stale)) == ([], [], 1)

    def test_duplicate_entries_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        entry = {"rule": "r", "path": "p.py", "symbol": "s", "justification": "x"}
        path.write_text(json.dumps({"version": 1, "entries": [entry, entry]}))
        with pytest.raises(BaselineError, match="duplicate"):
            Baseline.load(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").entries == []


# ---------------------------------------------------------------------------
# runner + CLI
# ---------------------------------------------------------------------------


class TestRunnerAndCli:
    def test_unknown_rule_id_raises(self, pkg):
        with pytest.raises(ValueError, match="unknown rule"):
            run_check(pkg, rules=["no-such-rule"])

    def test_warnings_do_not_gate(self):
        warn = Finding(
            rule="r", path="p.py", line=1, symbol="s", message="m",
            severity=Severity.WARNING,
        )
        assert CheckResult(new=[warn]).exit_code == 0

    def test_stale_baseline_fails_the_run(self, pkg, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "kernel-parity",
                            "path": "gone.py",
                            "symbol": "gone",
                            "justification": "suppressed a thing that was removed",
                        }
                    ],
                }
            )
        )
        result = run_check(pkg, baseline_path=baseline)
        assert result.exit_code == 1 and len(result.stale) == 1
        assert "prune it" in format_report(result)

    def test_cli_exits_nonzero_on_seeded_violation(self, pkg, testdir, capsys):
        write(pkg, "align/k.py", "def foo_scores_batch(pairs):\n    pass\n")
        rc = main(
            ["check", "--root", str(pkg), "--tests", str(testdir), "--format", "json"]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"][0]["rule"] == "kernel-parity"

    def test_cli_update_baseline_writes_fixmes_and_still_fails(
        self, pkg, testdir, capsys
    ):
        write(pkg, "align/k.py", "def foo_scores_batch(pairs):\n    pass\n")
        baseline = pkg.parent / "baseline.json"
        rc = main(
            [
                "check", "--root", str(pkg), "--tests", str(testdir),
                "--baseline", str(baseline), "--update-baseline",
            ]
        )
        assert rc == 2  # FIXME placeholders are not justifications
        entries = json.loads(baseline.read_text())["entries"]
        assert entries and entries[0]["justification"].startswith("FIXME")
        capsys.readouterr()

    def test_cli_rule_filter(self, pkg, testdir, capsys):
        write(pkg, "align/k.py", "def foo_scores_batch(pairs):\n    pass\n")
        rc = main(
            [
                "check", "--root", str(pkg), "--tests", str(testdir),
                "--rule", "determinism",
            ]
        )
        assert rc == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# the real tree
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_real_tree_is_clean(self):
        result = run_check(
            REAL_ROOT, tests=REAL_TESTS, baseline_path=REAL_BASELINE
        )
        assert result.baseline_error is None
        assert [f.format() for f in result.new] == []
        assert result.exit_code == 0

    def test_cli_defaults_resolve_to_the_real_tree(self, capsys):
        assert main(["check"]) == 0
        assert "fragalign check: ok" in capsys.readouterr().out

    def _copy_tree(self, tmp_path) -> Path:
        root = tmp_path / "fragalign"
        shutil.copytree(REAL_ROOT, root)
        return root

    def test_real_tree_registry_field_deletion_fails(self, tmp_path):
        import ast

        root = self._copy_tree(tmp_path)
        from fragalign.analysis.project import Project

        specs = Project(root, tests=REAL_TESTS).load_field_registry()
        pruned = [s for s in specs if s["name"] != "band"]
        job = root / "job.py"
        lines = job.read_text().splitlines()
        node = next(
            n for n in ast.parse(job.read_text()).body
            if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "_SPECS"
        )
        lines[node.lineno - 1:node.end_lineno] = ["_SPECS = " + repr(tuple(pruned))]
        job.write_text("\n".join(lines) + "\n")
        result = run_check(
            root, tests=REAL_TESTS, rules=["knob-propagation"]
        )
        assert result.exit_code == 1
        assert any("'band'" in f.message for f in result.new)

    def test_real_tree_hand_built_key_fails(self, tmp_path):
        root = self._copy_tree(tmp_path)
        server = root / "service/server.py"
        server.write_text(
            server.read_text()
            + "\n\ndef cache_key(op, a, b, mode, band):\n    return (op, a, b, mode, band)\n"
        )
        result = run_check(root, tests=REAL_TESTS, rules=["knob-propagation"])
        assert result.exit_code == 1
        assert [f.symbol for f in result.new] == ["cache_key"]

    def test_real_tree_oracle_deletion_fails(self, tmp_path):
        root = self._copy_tree(tmp_path)
        pairwise = root / "align/pairwise.py"
        pairwise.write_text(
            pairwise.read_text().replace(
                "def local_score_reference", "def _local_score_reference"
            )
        )
        result = run_check(root, tests=REAL_TESTS, rules=["kernel-parity"])
        assert result.exit_code == 1
        assert any(f.symbol == "local_scores_batch" for f in result.new)
