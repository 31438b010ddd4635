#!/usr/bin/env python3
"""Documentation consistency checks (the CI `docs` job).

1. Every repo-relative markdown link in the checked documents resolves to
   an existing file or directory (anchors and external URLs are ignored).
2. Every bench target (`bench/*.cpp`) is mentioned in docs/BENCHMARKS.md,
   so the bench catalogue cannot silently drift from the tree.
3. Every `--flag` that README.md, docs/*.md or the verify skill quotes
   after `mega_campaign` (in an inline code span or a fenced command line)
   is one mega_campaign parses: a config field-table row's flag (the
   `X(member, "flag=METAVAR", ...)` rows under src/) or one of the flags
   its main() matches by hand. So a removed flag cannot linger in the docs.
4. Every key README.md's JSONL summary-row paragraph quotes (a snake_case
   inline code span) is a result-table row (the `X(member, kind)` rows
   under src/) or `rounds`.

Exits non-zero with one line per violation.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    REPO / "README.md",
    REPO / "docs" / "ARCHITECTURE.md",
    REPO / "docs" / "BENCHMARKS.md",
]

# Documents whose quoted mega_campaign command lines are checked.
FLAG_DOCS = [
    REPO / "README.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]
MEGA_CAMPAIGN = REPO / "examples" / "mega_campaign.cpp"
SRC = REPO / "src"

# [text](target) — excluding images and in-page/external targets.
LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
# A field-table row with a flag: X(member, "flag=METAVAR", range, digest).
ROW_FLAG_RE = re.compile(r'^\s*X\(\w+,\s*"([a-z][a-z0-9-]*)=', re.M)
# A result-table row: X(member, kSame|kPerShardCount|kLocal). Its second
# argument is a bare kind token, never a quoted flag, so ROW_FLAG_RE cannot
# match a result row.
RESULT_ROW_RE = re.compile(
    r"^\s*X\((\w+),\s*(?:kSame|kPerShardCount|kLocal)\)", re.M)
# A snake_case inline code span: a summary-row key.
KEY_SPAN_RE = re.compile(r"`([a-z][a-z0-9_]*)`")
# The summary row's keys that are not result rows.
SUMMARY_OWN_KEYS = {"rounds"}
# A flag mega_campaign's main() matches by hand: flag(arg, "--name=", &v).
HAND_FLAG_RE = re.compile(r'flag\(arg,\s*"(--[a-z][a-z0-9-]*)=')
FENCE_RE = re.compile(r"^\s*```")
SPAN_RE = re.compile(r"`([^`]+)`")


def check_links(doc: pathlib.Path) -> list[str]:
    errors = []
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}:{lineno}: broken link "
                    f"'{target}' -> {resolved}"
                )
    return errors


def check_bench_catalogue() -> list[str]:
    benchmarks_md = (REPO / "docs" / "BENCHMARKS.md").read_text()
    errors = []
    for src in sorted((REPO / "bench").glob("*.cpp")):
        if src.stem not in benchmarks_md:
            errors.append(
                f"docs/BENCHMARKS.md: bench target '{src.stem}' "
                f"(bench/{src.name}) is not documented"
            )
    return errors


def known_flags() -> set[str]:
    """The flags mega_campaign parses: field-table rows plus hand-parsed."""
    flags = set()
    for header in SRC.rglob("*.hpp"):
        flags.update("--" + f for f in ROW_FLAG_RE.findall(header.read_text()))
    flags.update(HAND_FLAG_RE.findall(MEGA_CAMPAIGN.read_text()))
    return flags


def quoted_commands(doc: pathlib.Path):
    """Yield (line number, text) for every fenced command line (backslash
    continuations joined) and every inline code span outside fences."""
    prose = []
    in_fence = False
    pending = None  # (line number, text) of a continued fenced command
    for lineno, line in enumerate(doc.read_text().splitlines(), start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            prose.append("")
            continue
        if in_fence:
            prose.append("")
            text = line.split(" #", 1)[0].rstrip()
            if pending is not None:
                text = pending[1] + " " + text
            start = pending[0] if pending is not None else lineno
            if text.endswith("\\"):
                pending = (start, text[:-1])
            else:
                pending = None
                yield start, text
            continue
        prose.append(line)
    text = "\n".join(prose)
    for m in SPAN_RE.finditer(text):
        yield text.count("\n", 0, m.start()) + 1, m.group(1)


def check_mega_campaign_flags(known: set[str]) -> list[str]:
    errors = []
    if not known:
        return [f"{MEGA_CAMPAIGN.relative_to(REPO)}: no flags found"]
    for doc in FLAG_DOCS:
        if not doc.exists():
            continue
        for lineno, text in quoted_commands(doc):
            at = text.find("mega_campaign")
            if at < 0:
                continue
            for flag in FLAG_RE.findall(text[at:]):
                if flag not in known:
                    errors.append(
                        f"{doc.relative_to(REPO)}:{lineno}: mega_campaign "
                        f"flag '{flag}' is not a flag it parses"
                    )
    return errors


def check_summary_keys() -> list[str]:
    """README's summary-row paragraph quotes only keys the row writes."""
    rows, errors = set(), []
    for header in SRC.rglob("*.hpp"):
        rows.update(RESULT_ROW_RE.findall(header.read_text()))
    if not rows:
        return ["src/: no result-table rows found"]
    readme = REPO / "README.md"
    paragraphs = [p for p in readme.read_text().split("\n\n")
                  if "summary row" in p]
    if not paragraphs:
        return ["README.md: no summary-row paragraph found"]
    for para in paragraphs:
        for key in KEY_SPAN_RE.findall(para):
            if key not in rows | SUMMARY_OWN_KEYS:
                errors.append(f"README.md: summary-row key '{key}' is not "
                              "a result-table row")
    return errors


def main() -> int:
    errors = []
    for doc in DOCS:
        if not doc.exists():
            errors.append(f"missing document: {doc.relative_to(REPO)}")
            continue
        errors.extend(check_links(doc))
    errors.extend(check_bench_catalogue())
    errors.extend(check_mega_campaign_flags(known_flags()))
    errors.extend(check_summary_keys())
    for err in errors:
        print(err, file=sys.stderr)
    if not errors:
        print(f"docs OK: {len(DOCS)} documents, links resolve, "
              "bench catalogue complete, mega_campaign flags documented, "
              "summary-row keys are result rows")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
