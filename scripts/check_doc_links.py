#!/usr/bin/env python
"""Check intra-repo links in the project's markdown documentation.

Scans ``README.md`` and ``docs/*.md`` for inline markdown links
(``[text](target)``) whose targets are repo-relative paths and fails
when a target file does not exist.  External links (``http(s)://``,
``mailto:``) and pure in-page anchors (``#section``) are ignored;
anchors on file targets are stripped before the existence check.

It also scans every Python file under ``src/`` and ``scripts/`` for
cited markdown file names (``docs/ARCHITECTURE.md``, ``README.md``)
and fails when a cited file does not exist at that repo-relative path,
so docstrings cannot point readers at a document nobody wrote.

Run from anywhere:

    python scripts/check_doc_links.py

Exit status 0 when all links and citations resolve, 1 otherwise (one
line per broken one).  Used by the CI ``docs`` job and
``tests/test_docs.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline markdown link: [text](target).  Images ![alt](target) match
#: too (the leading ``!`` is simply not captured).  Targets containing
#: spaces or parentheses are out of scope — the docs do not use them.
_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: A markdown file name cited in Python source, e.g.
#: ``docs/BENCHMARKS.md``.
_CITATION_PATTERN = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")

#: Markdown files a script writes rather than reads
#: (``scripts/make_experiments_report.py``); citing them is fine.
_GENERATED_DOCS = frozenset({"EXPERIMENTS.md"})


def iter_doc_files(root: Path) -> Iterable[Path]:
    """The markdown files whose links are checked."""
    readme = root / "README.md"
    if readme.exists():
        yield readme
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def iter_source_files(root: Path) -> Iterable[Path]:
    """The Python files whose markdown citations are checked."""
    for directory in ("src", "scripts"):
        yield from sorted((root / directory).rglob("*.py"))


def missing_citations(source: Path, root: Path = REPO_ROOT) -> List[str]:
    """Markdown file names cited in ``source`` that do not exist."""
    return [
        name
        for name in _CITATION_PATTERN.findall(source.read_text(encoding="utf-8"))
        if name not in _GENERATED_DOCS and not (root / name).exists()
    ]


def broken_links(doc: Path, root: Path = REPO_ROOT) -> List[Tuple[str, str]]:
    """``(target, reason)`` for every unresolvable link in ``doc``."""
    broken: List[Tuple[str, str]] = []
    for target in _LINK_PATTERN.findall(doc.read_text(encoding="utf-8")):
        if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        resolved = (doc.parent / path_part).resolve()
        try:
            resolved.relative_to(root)
        except ValueError:
            broken.append((target, "points outside the repository"))
            continue
        if not resolved.exists():
            broken.append((target, "target does not exist"))
    return broken


def main(root: Path = REPO_ROOT) -> int:
    failures = 0
    for doc in iter_doc_files(root):
        for target, reason in broken_links(doc, root):
            print(
                "%s: broken link %r (%s)"
                % (doc.relative_to(root), target, reason)
            )
            failures += 1
    for source in iter_source_files(root):
        for name in missing_citations(source, root):
            print("%s: cites missing %s" % (source.relative_to(root), name))
            failures += 1
    if failures:
        print("%d broken intra-repo link(s) or citation(s)" % failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
