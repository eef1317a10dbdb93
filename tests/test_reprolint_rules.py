"""reprolint: good/bad snippet pairs per rule, pragmas, CLI, self-clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reprolint import Finding, all_rule_codes, lint_source
from reprolint.cli import main as reprolint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings: list[Finding]) -> list[str]:
    return [f.code for f in findings]


def lint(source: str, path: str = "src/repro/mod.py") -> list[Finding]:
    return lint_source(source, path)


# ---------------------------------------------------------------------------
# RPL001 resource lifecycle
# ---------------------------------------------------------------------------


class TestResourceLifecycle:
    def test_unscoped_shared_memory_flagged(self):
        src = (
            "def f(name):\n"
            "    shm = SharedMemory(name=name)\n"
            "    return 1\n"
        )
        assert codes(lint(src)) == ["RPL001"]

    def test_discarded_resource_call_flagged(self):
        src = "def f():\n    socket.socket()\n"
        assert codes(lint(src)) == ["RPL001"]

    def test_with_statement_ok(self):
        src = (
            "def f():\n"
            "    with socket.socket() as s:\n"
            "        s.connect(('h', 1))\n"
        )
        assert codes(lint(src)) == []

    def test_engine_call_outside_with_flagged(self):
        src = "def f(self, X):\n    eng = self._engine(X)\n    return 1\n"
        assert codes(lint(src)) == ["RPL001"]

    def test_engine_index_outside_finally_flagged(self):
        src = (
            "def f(X, config):\n"
            "    index = resolve_engine_index(X, 'cosine', config)\n"
            "    rows = index.batch_range_query_rows([0], 0.5)\n"
            "    index.close()\n"
            "    return rows\n"
        )
        assert codes(lint(src)) == ["RPL001"]

    def test_sharded_index_outside_finally_flagged(self):
        src = "def f(X):\n    index = ShardedIndex(n_shards=2)\n    return 1\n"
        assert codes(lint(src)) == ["RPL001"]

    def test_chained_acquisition_flagged(self):
        src = "def f(X):\n    index = ShardedIndex(n_shards=2).build(X)\n    return 1\n"
        assert codes(lint(src)) == ["RPL001"]

    def test_chained_acquisition_closed_in_finally_ok(self):
        src = (
            "def f(X):\n"
            "    index = ShardedIndex(n_shards=2).build(X)\n"
            "    try:\n"
            "        return index.batch_range_query(X, 0.5)\n"
            "    finally:\n"
            "        index.close()\n"
        )
        assert codes(lint(src)) == []

    def test_engine_call_as_with_item_ok(self):
        src = (
            "def f(self, X):\n"
            "    with self._engine(X) as eng:\n"
            "        return eng.query()\n"
        )
        assert codes(lint(src)) == []

    def test_closed_in_finally_ok(self):
        src = (
            "def f(name):\n"
            "    shm = SharedMemory(name=name)\n"
            "    try:\n"
            "        return shm.buf[0]\n"
            "    finally:\n"
            "        shm.close()\n"
        )
        assert codes(lint(src)) == []

    def test_returned_resource_ok(self):
        # handing the resource to the caller transfers ownership
        src = (
            "def connect(h, p):\n"
            "    sock = socket.create_connection((h, p))\n"
            "    return sock\n"
        )
        assert codes(lint(src)) == []

    def test_attribute_binding_ok(self):
        # self._shm has an owner with its own close(); not a local leak
        src = "def open(self, n):\n    self._shm = SharedMemory(create=True, size=n)\n"
        assert codes(lint(src)) == []

    def test_executor_flagged(self):
        src = "def f():\n    pool = ProcessPoolExecutor(4)\n    pool.submit(g)\n"
        assert codes(lint(src)) == ["RPL001"]


# ---------------------------------------------------------------------------
# RPL002 pickle safety
# ---------------------------------------------------------------------------


class TestPickleSafety:
    def test_pickle_import_flagged(self):
        assert codes(lint("import pickle\n")) == ["RPL002"]

    def test_pickle_from_import_flagged(self):
        assert codes(lint("from pickle import dumps\n")) == ["RPL002"]

    def test_np_load_without_kwarg_flagged(self):
        assert codes(lint("data = np.load(p)\n")) == ["RPL002"]

    def test_np_load_allow_pickle_true_flagged(self):
        assert codes(lint("data = np.load(p, allow_pickle=True)\n")) == ["RPL002"]

    def test_np_load_allow_pickle_false_ok(self):
        assert codes(lint("data = np.load(p, allow_pickle=False)\n")) == []

    def test_np_savez_always_flagged(self):
        assert codes(lint("np.savez(p, x=a)\n")) == ["RPL002"]

    def test_out_of_scope_path_not_flagged(self):
        assert codes(lint_source("import pickle\n", "benchmarks/bench.py")) == []


# ---------------------------------------------------------------------------
# RPL003 module-level mutable state
# ---------------------------------------------------------------------------


class TestModuleState:
    def test_module_level_dict_flagged(self):
        assert codes(lint("STATE = {}\n")) == ["RPL003"]

    def test_annotated_module_level_dict_flagged(self):
        assert codes(lint("_CACHE: dict = {}\n")) == ["RPL003"]

    def test_registry_suffix_ok(self):
        assert codes(lint("_INDEX_REGISTRY: dict = {}\n")) == []

    def test_dunder_all_ok(self):
        assert codes(lint("__all__ = ['a', 'b']\n")) == []

    def test_frozen_constant_ok(self):
        assert codes(lint("LIMITS = (1, 2, 3)\nNAME = 'x'\n")) == []

    def test_function_local_dict_ok(self):
        assert codes(lint("def f():\n    cache = {}\n    return cache\n")) == []


# ---------------------------------------------------------------------------
# RPL004 typed errors
# ---------------------------------------------------------------------------


class TestTypedErrors:
    def test_ad_hoc_runtime_error_flagged(self):
        assert codes(lint("raise RuntimeError('boom')\n")) == ["RPL004"]

    def test_repro_exception_ok(self):
        assert codes(lint("raise InvalidParameterError('bad eps')\n")) == []

    def test_builtin_whitelist_ok(self):
        src = "raise ValueError('x')\nraise TypeError('y')\nraise NotImplementedError\n"
        assert codes(lint(src)) == []

    def test_reraise_variable_ok(self):
        src = "try:\n    f()\nexcept ValueError as exc:\n    raise exc\n"
        assert codes(lint(src)) == []

    def test_bare_raise_ok(self):
        src = "try:\n    f()\nexcept ValueError:\n    raise\n"
        assert codes(lint(src)) == []

    def test_dotted_whitelist_ok(self):
        assert codes(lint("raise argparse.ArgumentTypeError('x')\n")) == []

    def test_exceptions_module_attribute_ok(self):
        assert codes(lint("raise exceptions.PersistenceError('x')\n")) == []

    def test_out_of_scope_not_flagged(self):
        assert codes(lint_source("raise RuntimeError('x')\n", "tests/t.py")) == []


# ---------------------------------------------------------------------------
# RPL005 wire safety
# ---------------------------------------------------------------------------


class TestWireSafety:
    def test_sendall_outside_protocol_flagged(self):
        src = "def f(sock, buf):\n    sock.sendall(buf)\n"
        assert codes(lint_source(src, "src/repro/remote/pool.py")) == ["RPL005"]

    def test_sendall_inside_protocol_ok(self):
        src = "def f(sock, buf):\n    sock.sendall(buf)\n"
        assert codes(lint_source(src, "src/repro/remote/protocol.py")) == []

    def test_sendall_in_tests_flagged_too(self):
        src = "def f(sock):\n    sock.sendall(b'x')\n"
        assert codes(lint_source(src, "tests/test_x.py")) == ["RPL005"]


# ---------------------------------------------------------------------------
# RPL006 global RNG state
# ---------------------------------------------------------------------------


class TestGlobalRandom:
    def test_global_np_random_call_flagged(self):
        assert codes(lint("x = np.random.rand(3)\n")) == ["RPL006"]

    def test_seed_call_flagged(self):
        assert codes(lint("np.random.seed(0)\n")) == ["RPL006"]

    def test_default_rng_ok(self):
        assert codes(lint("rng = np.random.default_rng(0)\n")) == []

    def test_generator_annotation_ok(self):
        assert codes(lint("def f(rng: np.random.Generator): ...\n")) == []

    def test_out_of_scope_not_flagged(self):
        assert codes(lint_source("np.random.rand(3)\n", "benchmarks/b.py")) == []

    @pytest.mark.parametrize("factory", ["ensure_rng(s)", "np.random.default_rng(s)"])
    def test_generator_stored_on_self_flagged(self, factory):
        src = f"class C:\n    def __init__(self, s):\n        self._rng = {factory}\n"
        assert codes(lint(src)) == ["RPL006"]

    def test_generator_local_to_fit_ok(self):
        src = (
            "class C:\n"
            "    def __init__(self, seed):\n"
            "        self.seed = seed\n"
            "    def fit(self, n):\n"
            "        rng = ensure_rng(self.seed)\n"
            "        return rng.choice(n)\n"
        )
        assert codes(lint(src)) == []


# ---------------------------------------------------------------------------
# RPL007 swallowed exceptions
# ---------------------------------------------------------------------------


class TestSwallowedExceptions:
    def test_bare_except_flagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert codes(lint(src)) == ["RPL007"]

    def test_blind_except_pass_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert codes(lint(src)) == ["RPL007"]

    def test_blind_except_assignment_only_flagged(self):
        src = "try:\n    f()\nexcept Exception:\n    x = None\n"
        assert codes(lint(src)) == ["RPL007"]

    def test_blind_except_with_logging_ok(self):
        src = "try:\n    f()\nexcept Exception as e:\n    log.warning(e)\n"
        assert codes(lint(src)) == []

    def test_blind_except_reraise_ok(self):
        src = (
            "try:\n"
            "    f()\n"
            "except Exception as e:\n"
            "    raise ValueError('ctx') from e\n"
        )
        assert codes(lint(src)) == []

    def test_typed_swallow_ok(self):
        # swallowing a *specific* type is a deliberate, reviewable choice
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert codes(lint(src)) == []


# ---------------------------------------------------------------------------
# RPL008 float equality
# ---------------------------------------------------------------------------


class TestFloatEquality:
    def test_float_equality_flagged(self):
        assert codes(lint("ok = d == 0.0\n")) == ["RPL008"]

    def test_float_inequality_flagged(self):
        assert codes(lint("ok = d != 1.5\n")) == ["RPL008"]

    def test_clamp_idiom_exempt(self):
        assert codes(lint("norms[norms == 0.0] = 1.0\n")) == []

    def test_integer_equality_ok(self):
        assert codes(lint("ok = n == 0\n")) == []

    def test_threshold_comparison_ok(self):
        assert codes(lint("ok = abs(d) <= 1e-12\n")) == []


# ---------------------------------------------------------------------------
# Pragmas and engine behavior
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_line_pragma_suppresses(self):
        src = "STATE = {}  # reprolint: disable=RPL003 -- justified\n"
        assert codes(lint(src)) == []

    def test_line_pragma_wrong_code_does_not_suppress(self):
        src = "STATE = {}  # reprolint: disable=RPL008\n"
        assert codes(lint(src)) == ["RPL003"]

    def test_file_pragma_suppresses_everywhere(self):
        src = (
            "# reprolint: disable-file=RPL003\n"
            "STATE = {}\n"
            "OTHER = {}\n"
        )
        assert codes(lint(src)) == []

    def test_pragma_in_string_literal_ignored(self):
        src = "x = 'reprolint: disable=RPL003'\nSTATE = {}\n"
        assert codes(lint(src)) == ["RPL003"]

    def test_multi_code_pragma(self):
        src = "STATE = {}  # reprolint: disable=RPL003,RPL008\n"
        assert codes(lint(src)) == []


class TestEngine:
    def test_syntax_error_reported_as_rpl000(self):
        findings = lint("def f(:\n")
        assert codes(findings) == ["RPL000"]

    def test_findings_sorted_and_located(self):
        src = "A = {}\nB = {}\n"
        findings = lint(src)
        assert [f.line for f in findings] == [1, 2]
        assert findings[0].path == "src/repro/mod.py"

    def test_every_rule_has_a_code(self):
        assert all_rule_codes() == [
            "RPL001",
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
        ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_json_report(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import pickle\n")
        out = tmp_path / "report.json"
        rc = reprolint_main(
            [str(bad), "--format", "json", "--output", str(out)]
        )
        assert rc == 1
        report = json.loads(out.read_text())
        assert report["tool"] == "reprolint"
        assert report["counts"] == {"RPL002": 1}
        assert report["checked_files"] == 1
        assert report["findings"][0]["code"] == "RPL002"

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("X = (1, 2)\n")
        assert reprolint_main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in all_rule_codes():
            assert code in out

    def test_select_unknown_code_is_usage_error(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("X = 1\n")
        with pytest.raises(SystemExit) as exc:
            reprolint_main([str(good), "--select", "RPL999"])
        assert exc.value.code == 2

    def test_self_clean_on_repo(self):
        """The repo's own invariant gate: `python -m reprolint src benchmarks`."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", "src", "benchmarks"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
