#!/usr/bin/env python3
"""Check intra-repo Markdown links and the Markdown files code cites.

For every inline link ``[text](target)`` outside fenced code blocks:

* external targets (``http(s)://``, ``mailto:``) are skipped;
* relative targets must resolve to an existing file or directory,
  relative to the linking file;
* ``#anchor`` fragments (bare, or attached to a Markdown target) must
  match a heading of the target document, using GitHub's slug rules
  (lowercased, punctuation stripped, spaces to hyphens).

Every ``*.md`` file name cited in ``src/**/*.py`` and ``benchmarks/*.py``
(``docs/engine.md``, ``README.md``, ``docs/architecture.md#partial-answers``)
must resolve to an existing file, relative to the repo root, the citing
file's directory or ``docs/``; a ``#anchor`` must match one of its headings.

Exit status 0 when everything resolves; otherwise each broken link or
citation is printed as ``file:line: message`` and the status is 1.  Used by
the `docs` CI job and by ``tests/test_docs.py``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Files whose links are checked: the README plus the whole docs tree.
DOC_GLOBS = ("README.md", "docs/**/*.md")

#: Program files whose ``*.md`` citations are checked.
CODE_GLOBS = ("src/**/*.py", "benchmarks/*.py")

_LINK_RE = re.compile(r"\[[^\]\n]*\]\(([^()\s]+)\)")
_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
_EXTERNAL = ("http://", "https://", "mailto:")
#: A Markdown file name in code, not part of a longer token or URL.
_CITATION_RE = re.compile(r"(?<![\w/.:-])([\w./-]*\w\.md)(?!\w)(?:#([\w-]+))?")


def _strip_fences(text: str) -> str:
    """Blank fenced code blocks, preserving line numbers for reporting."""
    def blank(match: re.Match) -> str:
        return "\n" * match.group(0).count("\n")

    return _FENCE_RE.sub(blank, text)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (sufficient approximation)."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> set[str]:
    text = _strip_fences(path.read_text(encoding="utf-8"))
    return {github_slug(heading) for heading in _HEADING_RE.findall(text)}


def check_file(path: Path) -> list[str]:
    """All broken-link messages for one Markdown file."""
    problems: list[str] = []
    text = _strip_fences(path.read_text(encoding="utf-8"))
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL):
                continue
            where = f"{path.relative_to(REPO_ROOT)}:{line_number}"
            target_path, _, fragment = target.partition("#")
            if not target_path:
                resolved = path
            else:
                resolved = (path.parent / target_path).resolve()
                if not resolved.exists():
                    problems.append(f"{where}: broken link -> {target}")
                    continue
            if fragment:
                if resolved.suffix.lower() != ".md":
                    continue
                if fragment not in heading_slugs(resolved):
                    problems.append(
                        f"{where}: missing anchor #{fragment} in "
                        f"{resolved.relative_to(REPO_ROOT)}"
                    )
    return problems


def check_citations(path: Path, root: Path = REPO_ROOT) -> list[str]:
    """Messages for the ``*.md`` names one program file cites that resolve
    nowhere (or whose ``#anchor`` names no heading)."""
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in _CITATION_RE.finditer(line):
            name, fragment = match.group(1), match.group(2)
            where = f"{path.relative_to(root)}:{line_number}"
            resolved = next(
                (
                    candidate
                    for candidate in (root / name, path.parent / name, root / "docs" / name)
                    if candidate.is_file()
                ),
                None,
            )
            if resolved is None:
                problems.append(f"{where}: cites missing Markdown file {name}")
            elif fragment and fragment not in heading_slugs(resolved):
                problems.append(
                    f"{where}: cites missing anchor #{fragment} in "
                    f"{resolved.relative_to(root)}"
                )
    return problems


def check_all(root: Path = REPO_ROOT) -> list[str]:
    problems: list[str] = []
    files = sorted({path for glob in DOC_GLOBS for path in root.glob(glob)})
    if not files:
        problems.append(f"no Markdown files matched {DOC_GLOBS} under {root}")
    for path in files:
        problems.extend(check_file(path))
    for path in sorted({path for glob in CODE_GLOBS for path in root.glob(glob)}):
        problems.extend(check_citations(path, root))
    return problems


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(problem, file=sys.stderr)
    checked = sorted({str(p) for g in DOC_GLOBS for p in REPO_ROOT.glob(g)})
    code = sorted({str(p) for g in CODE_GLOBS for p in REPO_ROOT.glob(g)})
    if not problems:
        print(
            f"docs ok: {len(checked)} files, all intra-repo links resolve; "
            f"{len(code)} program files, all cited Markdown files resolve"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
