"""Fixture suite for the reprolint static analyzer (``tools/reprolint``).

Every rule family is exercised through the public API (:func:`lint_source`
and :func:`lint_paths`) with a known-bad snippet that must fire and a
known-good snippet that must stay quiet, so a regression in either
direction (missed bug or new false positive) fails loudly.  The closing
test lints the real repo tree — the same invocation CI runs — and pins it
clean, which is what makes the in-source annotations trustworthy.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import RULES, explain, lint_paths, lint_source  # noqa: E402
from tools.reprolint.__main__ import main as reprolint_main  # noqa: E402


def rules_of(diags) -> list[str]:
    return [diag.rule for diag in diags]


def lint(snippet: str, path: str = "src/repro/fixture.py"):
    return lint_source(textwrap.dedent(snippet), path=path)


# ---------------------------------------------------------------- RL100 locks
LOCK_BAD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0  # reprolint: guarded-by(_lock)

        def bump(self):
            self.total += 1
"""

LOCK_GOOD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0  # reprolint: guarded-by(_lock)

        def bump(self):
            with self._lock:
                self.total += 1

        # reprolint: holds(_lock)
        def _bump_locked(self):
            self.total += 1
"""


def test_lock_rule_fires_on_unguarded_access():
    diags = lint(LOCK_BAD)
    assert rules_of(diags) == ["RL100"]
    assert "total" in diags[0].message and "_lock" in diags[0].message


def test_lock_rule_quiet_on_guarded_and_holds_access():
    assert lint(LOCK_GOOD) == []


def test_lock_rule_init_is_exempt_but_nested_function_is_not():
    snippet = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0  # reprolint: guarded-by(_lock)
                self.total = 1  # re-assignment in __init__ stays legal

            def schedule(self):
                def on_timer():
                    self.total += 1  # escapes the lock scope
                return on_timer
    """
    assert rules_of(lint(snippet)) == ["RL100"]


def test_lock_annotation_on_non_attribute_is_malformed():
    snippet = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                total = 0  # reprolint: guarded-by(_lock)
    """
    assert "RL101" in rules_of(lint(snippet))


def test_holds_with_unknown_lock_is_malformed():
    snippet = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0  # reprolint: guarded-by(_lock)

            # reprolint: holds(_mutex)
            def peek(self):
                return 1
    """
    assert "RL101" in rules_of(lint(snippet))


# ---------------------------------------------------------------- RR200 leaks
LEAK_BAD_NO_RELEASE = """
    from multiprocessing import shared_memory

    def scratch():
        shm = shared_memory.SharedMemory(create=True, size=16)
        shm.buf[0] = 1
"""

LEAK_BAD_HAPPY_PATH_ONLY = """
    import sqlite3

    def rows(path):
        conn = sqlite3.connect(path)
        out = conn.execute("select 1").fetchall()
        conn.close()
        return out
"""

LEAK_GOOD = """
    import sqlite3
    from multiprocessing import shared_memory

    def rows_ctx(path):
        with sqlite3.connect(path) as conn:
            return conn.execute("select 1").fetchall()

    def rows_finally(path):
        conn = sqlite3.connect(path)
        try:
            return conn.execute("select 1").fetchall()
        finally:
            conn.close()

    def make_conn(path):
        return sqlite3.connect(path)

    class Plane:
        def __init__(self):
            # reprolint: owned-by(Plane)
            self._shm = shared_memory.SharedMemory(create=True, size=16)
"""


def test_leak_rule_fires_when_resource_never_released():
    assert rules_of(lint(LEAK_BAD_NO_RELEASE)) == ["RR200"]


def test_leak_rule_fires_on_happy_path_only_release():
    diags = lint(LEAK_BAD_HAPPY_PATH_ONLY)
    assert rules_of(diags) == ["RR201"]
    assert "happy path" in diags[0].message


def test_leak_rule_quiet_on_with_finally_return_and_owned_by():
    assert lint(LEAK_GOOD) == []


def test_leak_rule_fires_on_unannotated_self_storage():
    snippet = """
        from concurrent.futures import ProcessPoolExecutor

        class Runner:
            def start(self):
                self._pool = ProcessPoolExecutor(max_workers=2)
    """
    assert rules_of(lint(snippet)) == ["RR200"]


def test_leak_rule_attribute_read_is_not_an_ownership_escape():
    # returning shm.name copies a field; the segment itself still leaks
    snippet = """
        from multiprocessing import shared_memory

        def publish():
            shm = shared_memory.SharedMemory(create=True, size=16)
            return shm.name
    """
    assert rules_of(lint(snippet)) == ["RR200"]


# -------------------------------------------------------------- RP300 pickles
PICKLE_SNIPPET = """
    import pickle

    def read(blob):
        return pickle.loads(blob)
"""

#: a handler behind gate calls: no guard excuses the load any more
HANDLER_BEHIND_GATES = """
    import pickle

    class Handler:
        def do_POST(self):
            if not self._require_trusted_peer():
                return
            if not self._require_pickle_optin():
                return
            payload = pickle.loads(self.rfile.read(10))
            self.respond(payload)
"""


def test_pickle_rule_fires_outside_allowlist():
    for path in ("src/repro/service/jobs.py", "src/repro/substrate/parallel.py"):
        assert rules_of(lint(PICKLE_SNIPPET, path=path)) == ["RP300"]


def test_pickle_rule_quiet_in_allowlisted_and_dev_paths():
    assert lint(PICKLE_SNIPPET, path="tests/test_roundtrip.py") == []
    assert lint(PICKLE_SNIPPET, path="benchmarks/bench_pickle.py") == []


def test_pickle_rule_fires_in_service_persistence_and_server():
    """The journal and the HTTP front end read wire documents only: a
    reintroduced ``pickle.loads`` in either fails the lint."""
    for path in ("src/repro/service/persistence.py", "src/repro/service/aserver.py"):
        assert rules_of(lint(PICKLE_SNIPPET, path=path)) == ["RP300"]


def test_pickle_rule_rejects_the_retired_loopback_guard():
    """No guard call excuses a handler's unpickle any more — neither the
    pre-/v1 loopback check nor an opt-in gate."""
    path = "src/repro/service/aserver.py"
    assert rules_of(lint(HANDLER_BEHIND_GATES, path=path)) == ["RP300"]


def test_pickle_rule_sees_through_import_aliases():
    snippet = """
        import pickle as pkl

        def read(blob):
            return pkl.loads(blob)
    """
    assert rules_of(lint(snippet)) == ["RP300"]


# -------------------------------------------------------- RS400 suppressions
def test_suppression_with_reason_silences_the_finding():
    snippet = """
        import pickle

        def read(blob):
            # reprolint: disable=RP300 -- fixture bytes written by this test
            return pickle.loads(blob)
    """
    assert lint(snippet) == []


def test_suppression_without_reason_is_rejected_and_suppresses_nothing():
    snippet = """
        import pickle

        def read(blob):
            # reprolint: disable=RP300
            return pickle.loads(blob)
    """
    fired = rules_of(lint(snippet))
    assert "RS400" in fired and "RP300" in fired


def test_suppression_for_other_rule_does_not_mask_the_finding():
    snippet = """
        import pickle

        def read(blob):
            # reprolint: disable=RR200 -- wrong rule id on purpose
            return pickle.loads(blob)
    """
    fired = rules_of(lint(snippet))
    assert "RP300" in fired and "RL101" not in fired


# -------------------------------------------------------- engine / CLI / misc
def test_syntax_error_reports_rx000():
    assert rules_of(lint_source("def broken(:\n", path="x.py")) == ["RX000"]


def test_unconsumed_annotation_is_flagged():
    snippet = """
        def free_function():
            x = 1  # reprolint: owned-by(Nobody)
            return x
    """
    assert "RL101" in rules_of(lint(snippet))


def test_rule_catalogue_and_explain_cover_every_rule():
    assert {"RL100", "RL101", "RR200", "RR201", "RP300", "RS400", "RX000"} <= set(RULES)
    for rule_id in RULES:
        text = explain(rule_id)
        assert rule_id in text and RULES[rule_id]["title"] in text


def test_cli_explain_and_exit_codes(tmp_path, capsys):
    assert reprolint_main(["--explain", "RR200"]) == 0
    assert "RR200" in capsys.readouterr().out
    assert reprolint_main(["--explain", "ZZ999"]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent(LEAK_BAD_NO_RELEASE), encoding="utf-8")
    report = tmp_path / "report.txt"
    assert reprolint_main([str(bad), "--report", str(report)]) == 1
    assert "RR200" in report.read_text(encoding="utf-8")
    capsys.readouterr()

    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    assert reprolint_main([str(good)]) == 0
    assert "clean" in capsys.readouterr().out


def test_diagnostics_carry_position_and_format():
    diags = lint(LOCK_BAD, path="pkg/mod.py")
    (diag,) = diags
    assert diag.path == "pkg/mod.py" and diag.line > 1 and diag.col >= 1
    formatted = diag.format()
    assert formatted.startswith("pkg/mod.py:") and ":RL100 " not in formatted
    assert " RL100 " in formatted


# ------------------------------------------------------------ the real tree
def test_repository_tree_is_lint_clean():
    """The exact invocation CI blocks on: src/ tests/ benchmarks/ are clean."""
    diags, n_files = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"]
    )
    assert [diag.format() for diag in diags] == []
    assert n_files > 50  # the sweep actually walked the tree


def test_annotated_modules_really_carry_annotations():
    """Guard against the annotations being refactored away while the lint
    keeps passing vacuously."""
    expected = {
        "src/repro/service/scheduler.py": "guarded-by(_cv)",
        "src/repro/lru.py": "guarded-by(_lock)",
        "src/repro/service/metrics.py": "guarded-by(_lock)",
        "src/repro/service/persistence.py": "guarded-by(_lock); owned-by(SqliteResultBackend)",
        "src/repro/substrate/factor_cache.py": "guarded-by(_lock)",
    }
    for rel_path, marker in expected.items():
        text = (REPO_ROOT / rel_path).read_text(encoding="utf-8")
        assert f"reprolint: {marker}" in text, rel_path


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
