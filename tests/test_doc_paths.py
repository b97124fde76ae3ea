"""Every repo-relative path cited in ``src/`` names a file that exists.

Docstrings and comments point readers at ``docs/...``, ``tests/...``,
``benchmarks/...``, ``examples/...``, ``perfbench/...`` and root
``*.md`` files.  A rename or deletion that leaves such a citation
dangling fails here.  A cited glob (``benchmarks/bench_*.py``) must
match at least one file.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_CITATION = re.compile(
    r"(?<![\w./-])"
    r"(?:(?:docs|tests|benchmarks|examples|perfbench)/[\w.*/-]+|[\w-]+\.md\b)"
)


def _citations(text: str) -> set[str]:
    """Repo-relative paths cited in ``text`` (sentence punctuation
    trimmed; ``tests/x.py::TestY`` cites ``tests/x.py``)."""
    return {m.group(0).rstrip(".-/") for m in _CITATION.finditer(text)}


def _exists(path: str) -> bool:
    if "*" in path:
        return any(ROOT.glob(path))
    return (ROOT / path).exists()


def test_scanner_finds_citations():
    text = (
        "see docs/DESIGN.md section 8, `tests/test_online.py::TestOnlineChunk`"
        " and ROADMAP.md.  Not src/repro/docs/x.md or kernels/ckernels.c;"
        " benchmarks/bench_*.py is a glob."
    )
    assert _citations(text) == {
        "docs/DESIGN.md", "tests/test_online.py", "ROADMAP.md",
        "benchmarks/bench_*.py",
    }
    assert not _exists("docs/NO_SUCH_FILE.md")
    assert not _exists("benchmarks/no_such_*.py")
    assert _exists("benchmarks/bench_*.py")


def test_cited_paths_exist():
    cited: dict[str, list[str]] = {}
    for source in sorted((ROOT / "src").rglob("*.py")):
        for path in _citations(source.read_text(encoding="utf-8")):
            cited.setdefault(path, []).append(str(source.relative_to(ROOT)))
    assert "docs/DESIGN.md" in cited  # the scanner sees the tree
    missing = {path: where for path, where in cited.items() if not _exists(path)}
    assert not missing, f"cited paths that do not exist: {missing}"
