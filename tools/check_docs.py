#!/usr/bin/env python3
"""Docs drift gate: dead links, stale API names and doc pointers, undocumented and stale CLI flags.

Five checks, all stdlib-only, run by the CI ``docs`` job (and runnable
locally with ``python tools/check_docs.py``):

1. **Links** — every intra-repository markdown link in ``docs/*.md``
   and ``README.md`` must resolve to an existing file (external
   ``http(s)``/``mailto`` links and pure ``#anchor`` links are
   skipped; a fragment on a file link is stripped before resolving).
2. **CLI flags** — every ``--flag`` a subsystem CLI defines (parsed
   from its live ``--help`` output, so the check cannot go stale) must
   be mentioned, verbatim, in that subsystem's document.  A new flag
   without documentation fails the build.
3. **Stale mentions** — every ``--flag`` that ``docs/*.md``,
   ``README.md`` or the verify skill (:data:`VERIFY_SKILL`, the
   repository's run-it-end-to-end recipe) mentions must be defined by
   one of those CLIs (or by a :data:`CITED_CLIS` command).  A renamed
   or deleted flag leaving a stale mention behind a dead name fails the
   build.
4. **API names** — every backticked ``repro.``-qualified dotted name in
   ``docs/*.md`` and ``README.md`` (a code span holding nothing but the
   name, e.g. ``repro.storage.TwoTierCache``) must resolve: the longest
   importable module prefix, then ``getattr`` for the rest.  A deleted
   or renamed function, class or module fails the build.

5. **Doc pointers** — every ``*.md`` name in a ``src/`` docstring or
   comment (e.g. ``docs/storage.md``) must name a file in the
   repository, as a path from its root.  A pointer at a document that
   was never written, or was moved, fails the build.

Exit codes: 0 clean, 1 drift found, 2 environment error (a CLI's
``--help`` could not be produced).
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: (module, subcommand or None, doc that must mention its flags).
CLI_DOC_MAP = [
    ("repro.experiments.runner", None, "docs/experiments.md"),
    ("repro.validate", None, "docs/validation.md"),
    ("repro.sampling", None, "docs/sampling.md"),
    ("repro.bench", None, "docs/benchmarking.md"),
    ("repro.bench", "compare", "docs/benchmarking.md"),
    ("repro.service", "serve", "docs/service.md"),
    ("repro.service", "submit", "docs/service.md"),
    ("repro.service", "status", "docs/service.md"),
    ("repro.service", "result", "docs/service.md"),
    ("repro.service", "watch", "docs/service.md"),
    ("repro.service", "metrics", "docs/service.md"),
    ("repro.service", "health", "docs/service.md"),
    ("repro.chaos", None, "docs/robustness.md"),
    ("repro.obs", "report", "docs/observability.md"),
]

#: Commands whose flags the docs may cite without any doc having to
#: list them all (the benchmark harness documents itself in
#: ``perfbench/README.md``).  A ``.py`` entry is run as a script.
CITED_CLIS = [("perfbench/run.py", None)]

#: The recipe for building and running the repository end to end; its
#: flag mentions are held to check 3 like the docs'.
VERIFY_SKILL = ".claude/skills/verify/SKILL.md"

#: Markdown inline links: [text](target).  Reference-style links and
#: autolinks are not used in this repository's docs.
_LINK = re.compile(r"\[[^\]]*\]\(([^()\s]+)\)")

#: A flag *definition* line in argparse help output: the option name at
#: the start of an indented line (possibly after a short option).
_FLAG_DEF = re.compile(r"^\s+(?:-\w,\s+)?(--[a-z][a-z0-9-]*)", re.MULTILINE)

#: A flag *mention* in a document: ``--name`` not glued to a word.
_FLAG_MENTION = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")

#: A backticked span holding only a ``repro.``-qualified dotted name.
_API_NAME = re.compile(r"`(repro(?:\.\w+)+)`")

#: A markdown file name, optionally with a directory path, in source text.
_MD_NAME = re.compile(r"(?<![\w./-])((?:[\w.-]+/)*[\w.-]+\.md)\b")

_MISSING = object()


def _doc_files() -> list:
    docs_dir = os.path.join(ROOT, "docs")
    files = sorted(
        os.path.join(docs_dir, name)
        for name in os.listdir(docs_dir)
        if name.endswith(".md")
    )
    files.append(os.path.join(ROOT, "README.md"))
    return files


def check_links() -> list:
    """Return one problem string per unresolvable intra-repo link."""
    problems = []
    for path in _doc_files():
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, ROOT)
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):  # in-page anchor
                continue
            target = target.split("#", 1)[0]
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target)
            )
            if not os.path.exists(resolved):
                problems.append(f"{rel}: dead link -> {match.group(1)}")
    return problems


def resolves(name: str) -> bool:
    """Whether the dotted ``name`` imports as a module, or as a module
    followed by attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute, _MISSING)
            if target is _MISSING:
                return False
        return True
    return False


def check_names() -> list:
    """Return one problem string per backticked ``repro.`` name in the
    docs that does not resolve (see :func:`resolves`)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    problems = []
    for path in _doc_files():
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, ROOT)
        for name in sorted(set(_API_NAME.findall(text))):
            if not resolves(name):
                problems.append(f"{rel}: names `{name}`, which does not resolve")
    return problems


def check_pointers() -> list:
    """Return one problem string per ``*.md`` name in a docstring or
    comment under ``src/`` that is not a file of the repository."""
    problems = []
    for directory, _, names in sorted(os.walk(SRC)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, ROOT)
            with open(path, "rb") as handle:
                tokens = list(tokenize.tokenize(handle.readline))
            for token in tokens:
                if token.type not in (tokenize.STRING, tokenize.COMMENT):
                    continue
                for match in _MD_NAME.finditer(token.string):
                    target = match.group(1)
                    if not os.path.isfile(os.path.join(ROOT, target)):
                        line = token.start[0] + token.string.count(
                            "\n", 0, match.start())
                        problems.append(
                            f"{rel}:{line}: names {target}, which is not a "
                            f"file of the repository"
                        )
    return problems


def cli_flags(module: str, subcommand: str) -> list:
    """The --flags ``python -m module [subcommand] --help`` defines
    (``python module ...`` for a ``.py`` path)."""
    argv = [sys.executable]
    argv += [module] if module.endswith(".py") else ["-m", module]
    if subcommand:
        argv.append(subcommand)
    argv.append("--help")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=60, env=env, cwd=ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv[1:])} exited {proc.returncode}: "
            f"{proc.stderr.strip()[:200]}"
        )
    flags = sorted(set(_FLAG_DEF.findall(proc.stdout)))
    return [flag for flag in flags if flag != "--help"]


def check_flags() -> list:
    """Return one problem string per CLI flag missing from its doc, and
    one per stale flag mention (see :func:`check_mentions`)."""
    problems = []
    doc_cache = {}
    defined = {"--help"}
    for module, subcommand in CITED_CLIS:
        defined.update(cli_flags(module, subcommand))
    for module, subcommand, doc in CLI_DOC_MAP:
        if doc not in doc_cache:
            with open(os.path.join(ROOT, doc), "r", encoding="utf-8") as handle:
                doc_cache[doc] = handle.read()
        text = doc_cache[doc]
        label = f"python -m {module}" + (f" {subcommand}" if subcommand else "")
        flags = cli_flags(module, subcommand)
        defined.update(flags)
        for flag in flags:
            if flag not in text:
                problems.append(f"{doc}: `{label}` flag {flag} undocumented")
    return problems + check_mentions(defined)


def check_mentions(defined: set) -> list:
    """Return one problem string per ``--flag`` a doc or the verify skill
    mentions that is not in ``defined`` (the flags every CLI defines)."""
    problems = []
    for path in _doc_files() + [os.path.join(ROOT, VERIFY_SKILL)]:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        rel = os.path.relpath(path, ROOT)
        for flag in sorted(set(_FLAG_MENTION.findall(text)) - defined):
            problems.append(f"{rel}: mentions {flag}, which no CLI defines")
    return problems


def main() -> int:
    try:
        problems = (check_links() + check_names() + check_pointers()
                    + check_flags())
    except (RuntimeError, subprocess.SubprocessError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for problem in problems:
        print(problem)
    docs = len(_doc_files())
    clis = len(CLI_DOC_MAP)
    if problems:
        print(f"check_docs: {len(problems)} problem(s) across "
              f"{docs} documents / {clis} CLIs")
        return 1
    print(f"check_docs: OK ({docs} documents, {clis} CLI surfaces, "
          "no dead links, API names or doc pointers, no undocumented or "
          "stale flags)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
