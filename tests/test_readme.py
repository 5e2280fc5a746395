"""The README's examples run as written: the command-line block, line by
line through ``cli.main``, and the library quick start through ``exec``;
its settings table lists what the parser and ``RunConfig`` declare."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from histospline.cli import RunConfig, build_parser, main

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


def test_settings_table_matches_run_config(capsys):
    # each row: config key, flag, the commands that take it, the default
    # as --emit-config prints it
    rows = re.findall(r"^\| `(\w+)` \| `([\w-]+)`[^|]* \| ([a-z, ]+) \| `(.+)` \|$",
                      README.read_text(), re.M)
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    spellings, listed = {}, {}  # config key -> flag or positional name, and its commands
    for command, sub in commands.choices.items():
        for action in sub._actions:
            spellings[action.dest] = (action.option_strings or [action.dest])[0]
            listed.setdefault(action.dest, []).append(command)
    assert main(["generate", "--emit-config"]) == 0
    defaults = json.loads(capsys.readouterr().out)
    keys = [key for key in RunConfig.__dataclass_fields__ if key != "command"]
    assert rows == [(key, spellings[key], ", ".join(listed[key]), json.dumps(defaults[key]))
                    for key in keys]
    for key in keys:  # the commands are those the field's metadata names
        metadata = RunConfig.__dataclass_fields__[key].metadata
        assert listed[key] == [*metadata]
