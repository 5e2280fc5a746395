"""The README's examples run as written: the command-line block, line by
line through ``cli.main``, and the library quick start through ``exec``."""

import re
import shlex
from pathlib import Path

import pytest

from histospline.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def block_with(language, marker):
    (block,) = [b for b in fenced_blocks(language) if marker in b]
    return block


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    block = block_with("bash", "histospline generate")
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert commands[-1].startswith("histospline compare")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        program, *argv = shlex.split(command)
        assert program == "histospline"
        assert main(argv) == 0, f"{command}: {capsys.readouterr().err}"
    assert "kl_ab=" in capsys.readouterr().out


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(block_with("python", "import histospline"), str(README), "exec"), namespace)
    estimate = namespace["estimate"]
    assert estimate.normalization() == pytest.approx(1.0, abs=1e-12)
    assert namespace["other"] is not estimate
