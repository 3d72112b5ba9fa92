"""Documentation guards: link integrity, CLI coverage, runnable doctests.

Three rot detectors:

* every intra-repo Markdown link in README.md and docs/ resolves, and so
  does every ``*.md`` file cited in ``src/`` and ``benchmarks/`` (same
  check as ``tools/check_docs.py`` and the docs CI job);
* every CLI flag of every ``repro`` subcommand is documented in
  ``docs/cli.md``, so the parser cannot grow options the docs don't know;
* the doctest examples embedded in the ``repro.io`` (and registry)
  docstrings execute, so documented snippets can't rot.
"""

import doctest
import sys
from pathlib import Path

import pytest

import repro.io
import repro.io.dlgp
import repro.io.tabular
import repro.workloads.registry
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402  (repo tools/ is not a package)


def test_markdown_links_resolve():
    problems = check_docs.check_all(REPO_ROOT)
    assert not problems, "broken documentation links:\n" + "\n".join(problems)


def test_cited_markdown_files_must_resolve(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("# Guide\n\n## Partial answers\n")
    (tmp_path / "README.md").write_text("# Readme\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "module.py").write_text(
        '"""See docs/guide.md, guide.md#partial-answers and README.md.\n\n'
        "Design notes live in DESIGN.md; see also docs/guide.md#no-such-heading\n"
        'and https://example.org/REMOTE.md, which is not checked.\n"""\n'
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_x.py").write_text("# table title: notes.md\n")
    problems = check_docs.check_all(tmp_path)
    assert sorted(problems) == [
        "benchmarks/bench_x.py:1: cites missing Markdown file notes.md",
        "src/pkg/module.py:3: cites missing Markdown file DESIGN.md",
        "src/pkg/module.py:3: cites missing anchor #no-such-heading in docs/guide.md",
    ]


def test_docs_pages_exist():
    for page in ("index", "architecture", "formats", "cli", "engine", "incremental"):
        assert (REPO_ROOT / "docs" / f"{page}.md").is_file(), f"docs/{page}.md missing"


def test_every_cli_flag_is_documented():
    cli_doc = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, type(parser._subparsers._group_actions[0]))
    )
    for name, subparser in subparsers.choices.items():
        assert f"repro {name}" in cli_doc, f"subcommand {name!r} undocumented"
        for action in subparser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                assert option in cli_doc, (
                    f"flag {option!r} of `repro {name}` is missing from docs/cli.md"
                )


@pytest.mark.parametrize(
    "module",
    [repro.io, repro.io.dlgp, repro.io.tabular, repro.workloads.registry],
    ids=lambda module: module.__name__,
)
def test_io_doctests_execute(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} should embed doctest examples"
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
