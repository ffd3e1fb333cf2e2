"""EXPERIMENTS.md's tables are written by ``benchmarks/paper/regenerate.py``
and held by its ``--check``.

The full ``--check`` (~90 s) is CI's ``paper-identity`` job; this keeps
the machinery honest in tier-1: blocks and section functions pair up one
to one, rendering is deterministic, and ``--check`` passes on the
committed file and fails, with a diff, once a single cell differs — on
the two cheapest sections.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "paper"))

import regenerate
from inputs import Analogue

CHEAPEST = ["fig5", "parallel_shingle"]  # both read the one "22k" pipeline run


def test_every_block_has_one_section_function_and_vice_versa():
    text = regenerate.EXPERIMENTS.read_text(encoding="utf-8")
    opened = re.findall(r"<!-- paper:(\w+) -->", text)
    closed = re.findall(r"<!-- /paper:(\w+) -->", text)
    assert opened == closed and len(opened) == len(set(opened))
    assert not set(regenerate.SECTIONS) & set(regenerate.TIMED)
    assert set(opened) == set(regenerate.SECTIONS) | set(regenerate.TIMED)


def test_rendering_a_section_twice_is_byte_identical(mode_workload, tiny_metagenome):
    _, config = mode_workload

    def render():
        return regenerate.quality(Analogue(tiny_metagenome, tiny_metagenome, config))

    first = render()
    assert first == render()
    assert any("PR" in line for line in first)


def test_check_passes_on_the_committed_file_and_fails_on_an_edited_cell(tmp_path, capsys):
    committed = regenerate.EXPERIMENTS.read_text(encoding="utf-8")
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(committed, encoding="utf-8")
    assert regenerate.main(["--check", *CHEAPEST], path=copy) == 0
    assert capsys.readouterr().out == ""

    block = regenerate.block_pattern(CHEAPEST[0]).search(committed)
    cell = re.compile(r"\d").search(committed, block.end(1), block.start(2))
    edited = committed[:cell.start()] + str((int(cell[0]) + 1) % 10) + committed[cell.end():]
    copy.write_text(edited, encoding="utf-8")
    assert regenerate.main(["--check", *CHEAPEST], path=copy) == 1
    diff = capsys.readouterr().out
    assert diff.startswith("--- EXPERIMENTS.md (committed)") and "\n@@" in diff
    assert copy.read_text(encoding="utf-8") == edited  # --check writes nothing

    assert regenerate.main(CHEAPEST, path=copy) == 0
    assert copy.read_text(encoding="utf-8") == committed


def test_unknown_block_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        regenerate.main(["--check", "fig7b"])  # a timed block is not checkable
    assert exit_info.value.code == 2
    assert "no such block" in capsys.readouterr().err
