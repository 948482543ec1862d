"""The reach gate's line accounting (``tools/reach.py``), on a tiny
synthetic package: no entry point is run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

USED = '''\
import functools


@functools.lru_cache
def decorated():
    return 1


def outer():
    def inner():
        return 2
    return inner


class Box:
    @property
    def size(self):
        return 3
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def package(tmp_path):
    (tmp_path / "used.py").write_text(USED)
    (tmp_path / "unused.py").write_text("def f():\n    pass\n")
    (tmp_path / "allowed.py").write_text("def g():\n    pass\n")
    (tmp_path / "constants.py").write_text("X = 1\n")
    return tmp_path


def test_spans_start_at_the_decorator_and_hold_nested_functions(reach, package):
    # decorated: lines 4-6 from its decorator; outer: 9-12 with inner
    # inside it; the property: 16-18 from its decorator.
    assert reach.function_spans(package / "used.py") == [
        (4, 6), (9, 12), (16, 18)]


def test_reached_lines_and_verdicts(reach, package):
    used = str(package / "used.py")
    # A decorated function's code starts at its decorator; a nested
    # function's call lands inside its parent's span.
    reached = {(used, 4), (used, 10)}
    rows, problems = reach.measure(package, reached,
                                   {"allowed.py": "a reason"})
    assert ("used.py", 7, 10) in rows
    assert ("constants.py", 0, 0) in rows
    assert problems == ["unused.py: 2 function lines, none reached"]


def test_a_stale_allow_list_entry_fails(reach, package):
    used = str(package / "used.py")
    _, problems = reach.measure(
        package, {(used, 16), (str(package / "allowed.py"), 1)},
        {"allowed.py": "a reason", "unused.py": "a reason",
         "gone.py": "a reason"})
    assert problems == ["allowed.py: allow-listed but reached",
                        "gone.py: allow-listed but missing"]


def test_a_failing_entry_keeps_its_stdout_tail(reach, tmp_path, monkeypatch):
    """A CLI that reports its failure on stdout and exits 1 leaves that
    report in the entry's note."""
    monkeypatch.setattr(reach, "ENTRIES", [
        "-c 'print(\"3 of 6 runs\", \"failed\"); raise SystemExit(1)'"])
    log = tmp_path / "reached.tsv"
    log.touch()
    [note] = reach.run_entries(log, str(tmp_path))
    assert "3 of 6 runs failed" in note
