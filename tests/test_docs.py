"""Documentation health: required docs exist, intra-repo links resolve,
and every markdown file cited in ``src/`` or ``scripts/`` exists.

The same link check runs in the CI ``docs`` job via
``scripts/check_doc_links.py``; running it in the unit suite keeps the
tier-1 gate authoritative locally too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_doc_links.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_required_docs_exist():
    for relative in ("README.md", "docs/ARCHITECTURE.md", "docs/BENCHMARKS.md"):
        assert (REPO_ROOT / relative).exists(), "%s is missing" % relative


def test_readme_links_docs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/BENCHMARKS.md" in readme


def test_no_broken_intra_repo_links():
    checker = _load_checker()
    failures = [
        (str(doc.relative_to(REPO_ROOT)), target, reason)
        for doc in checker.iter_doc_files(REPO_ROOT)
        for target, reason in checker.broken_links(doc)
    ]
    assert failures == []


def test_checker_detects_broken_links(tmp_path):
    checker = _load_checker()
    doc = tmp_path / "BAD.md"
    doc.write_text(
        "[ok](#anchor) [ok](https://example.org) [bad](nope/missing.md)",
        encoding="utf-8",
    )
    broken = checker.broken_links(doc)
    assert [target for target, _reason in broken] == ["nope/missing.md"]


def test_checker_fails_on_a_missing_doc_citation(tmp_path):
    checker = _load_checker()
    (tmp_path / "README.md").write_text("# Project\n", encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text("# A\n", encoding="utf-8")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    module = package / "mod.py"
    module.write_text(
        '"""See README.md, docs/ARCHITECTURE.md and DESIGN.md §4."""\n',
        encoding="utf-8",
    )
    assert checker.missing_citations(module, tmp_path) == ["DESIGN.md"]
    assert checker.main(tmp_path) == 1
    module.write_text('"""See docs/ARCHITECTURE.md."""\n', encoding="utf-8")
    assert checker.main(tmp_path) == 0


def test_checker_cli_passes_on_repo():
    completed = subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
