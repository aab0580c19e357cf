"""The docs gate's stale-mention, API-name and doc-pointer checks
(``tools/check_docs.py``).

A flag a CLI no longer defines must not survive in the docs: the gate
reports every ``--flag`` a document mentions that no mapped CLI defines.
Nor may a deleted function: every backticked ``repro.`` name must resolve.
Nor may a source docstring point at a document that does not exist.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "check_docs.py")


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gate_docs(monkeypatch, check_docs, tmp_path, text, skill=""):
    doc = tmp_path / "service.md"
    doc.write_text(text, encoding="utf-8")
    skill_path = tmp_path / ".claude" / "skills" / "verify" / "SKILL.md"
    skill_path.parent.mkdir(parents=True)
    skill_path.write_text(skill, encoding="utf-8")
    monkeypatch.setattr(check_docs, "_doc_files", lambda: [str(doc)])
    monkeypatch.setattr(check_docs, "ROOT", str(tmp_path))


class TestStaleMentions:
    def test_a_leftover_deleted_flag_is_flagged(self, monkeypatch, check_docs, tmp_path):
        _gate_docs(
            monkeypatch, check_docs, tmp_path,
            "Boot a pair with `serve --replicas 2 --replica-id a`.\n",
        )
        defined = {"--help", "--replica-id", "--cache-dir"}
        assert check_docs.check_mentions(defined) == [
            "service.md: mentions --replicas, which no CLI defines"
        ]

    def test_defined_flags_and_non_flags_pass(self, monkeypatch, check_docs, tmp_path):
        _gate_docs(
            monkeypatch, check_docs, tmp_path,
            "Run `serve --cache-dir d`, a rule\n\n---\n\nand x--y, "
            "then `--help`.\n",
        )
        assert check_docs.check_mentions({"--help", "--cache-dir"}) == []

    def test_the_verify_skill_is_held_to_the_same_check(self, monkeypatch, check_docs, tmp_path):
        _gate_docs(
            monkeypatch, check_docs, tmp_path,
            "Run `serve --cache-dir d`.\n",
            skill="serve --cache-dir d \\\n    --profile-dir /tmp/prof &\n",
        )
        assert check_docs.check_mentions({"--help", "--cache-dir"}) == [
            ".claude/skills/verify/SKILL.md: mentions --profile-dir, which "
            "no CLI defines"
        ]


class TestApiNames:
    def test_a_deleted_method_is_flagged(self, monkeypatch, check_docs, tmp_path):
        _gate_docs(
            monkeypatch, check_docs, tmp_path,
            "Recovery used `repro.rename.renamer.Renamer.squash` and "
            "`repro.rename.renamer.Renamer.rename`.\n",
        )
        assert check_docs.check_names() == [
            "service.md: names `repro.rename.renamer.Renamer.squash`, "
            "which does not resolve"
        ]

    def test_modules_classes_and_other_spans_pass(self, monkeypatch, check_docs, tmp_path):
        _gate_docs(
            monkeypatch, check_docs, tmp_path,
            "See `repro.storage`, `repro.storage.TwoTierCache`, "
            "`repro.chaos.faults.Fault` and `python -m repro.validate --quick`.\n",
        )
        assert check_docs.check_names() == []


class TestDocPointers:
    def _plant(self, monkeypatch, check_docs, tmp_path, source):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(source, encoding="utf-8")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "storage.md").write_text("# Storage\n")
        (tmp_path / "README.md").write_text("# Readme\n")
        monkeypatch.setattr(check_docs, "ROOT", str(tmp_path))
        monkeypatch.setattr(check_docs, "SRC", str(tmp_path / "src"))

    def test_a_dangling_name_is_flagged(self, monkeypatch, check_docs, tmp_path):
        self._plant(
            monkeypatch, check_docs, tmp_path,
            '"""The model.\n\nSee ``docs/storage.md`` and DESIGN.md.\n"""\n'
            "\n#: Values tabulated in EXPERIMENTS.md.\nVALUES = {}\n",
        )
        assert check_docs.check_pointers() == [
            "src/pkg/mod.py:3: names DESIGN.md, which is not a file of "
            "the repository",
            "src/pkg/mod.py:6: names EXPERIMENTS.md, which is not a file "
            "of the repository",
        ]

    def test_existing_files_pass(self, monkeypatch, check_docs, tmp_path):
        self._plant(
            monkeypatch, check_docs, tmp_path,
            '"""See ``docs/storage.md`` and README.md."""\n'
            "# README.md (\"Workloads\")\n",
        )
        assert check_docs.check_pointers() == []

    def test_the_repository_has_no_dangling_pointer(self, check_docs):
        assert check_docs.check_pointers() == []
