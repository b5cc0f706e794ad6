"""Stale references in the docs and CI files fail here, not at review.

* every ``benchmarks/*.py`` script named in EXPERIMENTS.md, DESIGN.md §4
  and the CI workflow exists;
* every ``tests/*.py`` file named in the CI workflow and the verify
  skill notes exists;
* every dotted ``repro.*`` name in README.md, DESIGN.md and
  docs/ALGORITHM.md resolves: each component is a submodule found by
  ``importlib.util.find_spec`` or an attribute of what precedes it.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# ``benchmarks/<path>.py``, or a bare ``bench_*.py`` (tables omit the dir).
BENCH_RE = re.compile(r"(?:\bbenchmarks/|\b(?=bench_))([\w/]+\.py)")
TEST_RE = re.compile(r"\btests/\w+\.py\b")
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _read(relpath):
    return (ROOT / relpath).read_text(encoding="utf-8")


def _design_section_4():
    text = _read("DESIGN.md")
    start = text.index("\n## 4.")
    return text[start:text.index("\n## 5.", start)]


def _bench_refs():
    sources = {
        "EXPERIMENTS.md": _read("EXPERIMENTS.md"),
        "DESIGN.md section 4": _design_section_4(),
        "ci.yml": _read(".github/workflows/ci.yml"),
    }
    return sorted(
        {
            (source, name)
            for source, text in sources.items()
            for name in BENCH_RE.findall(text)
        }
    )


def _test_refs():
    sources = (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md")
    return sorted(
        {
            (source, path)
            for source in sources
            for path in TEST_RE.findall(_read(source))
        }
    )


def _dotted_refs():
    sources = ("README.md", "DESIGN.md", "docs/ALGORITHM.md")
    return sorted(
        {
            (source, name)
            for source in sources
            for name in DOTTED_RE.findall(_read(source))
        }
    )


def _resolve(dotted):
    """Walk ``repro.a.b.C`` component by component; raise on a miss."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    prefix = parts[0]
    for part in parts[1:]:
        prefix = f"{prefix}.{part}"
        if hasattr(obj, "__path__") and importlib.util.find_spec(prefix):
            obj = importlib.import_module(prefix)
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            raise LookupError(f"{prefix} does not resolve")


def test_references_found():
    # Guards the extractors: an empty list would pass every check below.
    assert len(_bench_refs()) >= 20
    assert len(_test_refs()) >= 10
    assert len(_dotted_refs()) >= 30


@pytest.mark.parametrize("source,name", _bench_refs())
def test_named_bench_exists(source, name):
    assert (ROOT / "benchmarks" / name).is_file(), (
        f"{source} names benchmarks/{name}, which does not exist"
    )


@pytest.mark.parametrize("source,path", _test_refs())
def test_named_test_file_exists(source, path):
    assert (ROOT / path).is_file(), f"{source} names {path}, which does not exist"


@pytest.mark.parametrize("source,name", _dotted_refs())
def test_dotted_name_resolves(source, name):
    try:
        _resolve(name)
    except (ImportError, LookupError) as exc:
        pytest.fail(f"{source} names {name}: {exc}")
