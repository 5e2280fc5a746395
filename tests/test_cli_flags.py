"""Each setting reaches ``RunConfig`` through its flag, in every command
that takes it, as the type its field's annotation names."""

import pytest

from histospline import cli

# (command, arguments, config key, the value RunConfig holds)
FLAGS = [
    *[(command, [*source, *flag], key, value)
      for command, source in (("generate", []), ("estimate", ["--input", "in.csv"]))
      for flag, key, value in (
          (["--count", "5"], "count", 5),
          (["--seed", "3"], "seed", 3),
          (["--v0-range", "20", "30"], "v0_range", (20.0, 30.0)),
          (["--t-react-range", "1", "2"], "t_react_range", (1.0, 2.0)),
          (["--decel-range", "3", "4"], "decel_range", (3.0, 4.0)),
          (["--dt", "1"], "dt", 1.0),
          (["--out-dir", "d"], "out_dir", "d"),
      )],
    ("estimate", ["--input", "in.csv"], "input", "in.csv"),
    ("estimate", ["--input", "in.csv", "--column", "y"], "column", "y"),
    ("estimate", ["--simulate"], "simulate", True),
    ("estimate", ["--input", "in.csv", "--rule", "fixed:7"], "rule", "fixed:7"),
    ("estimate", ["--input", "in.csv", "--bc", "clamped"], "bc", "clamped"),
    ("estimate", ["--input", "in.csv", "--grid", "11"], "grid", 11),
    ("estimate", ["--input", "in.csv", "--knuth-max", "300"], "knuth_max", 300),
    ("compare", ["a.csv", "b.csv"], "curve_a", "a.csv"),
    ("compare", ["a.csv", "b.csv"], "curve_b", "b.csv"),
    ("compare", ["a.csv", "b.csv", "--grid", "11"], "grid", 11),
]


@pytest.mark.parametrize("command, argv, key, value", FLAGS,
                         ids=[f"{command}-{key}" for command, _, key, _ in FLAGS])
def test_each_flag_reaches_run_config_with_its_type(command, argv, key, value):
    config = cli.resolve_config(cli.build_parser().parse_args([command, *argv]))
    assert getattr(config, key) != getattr(cli.RunConfig(command="generate"), key)
    assert getattr(config, key) == value
    assert type(getattr(config, key)) is type(value)
    if isinstance(value, tuple):
        assert {*map(type, getattr(config, key))} == {float}


def test_every_setting_has_a_flag_case():
    assert {key for _, _, key, _ in FLAGS} == set(cli.RunConfig.__dataclass_fields__) - {"command"}


def test_compare_takes_no_out_dir_flag(tmp_path, capsys):
    # compare writes nothing, so it has no --out-dir; a config file's
    # out_dir is a valid key for it, as every key is
    never = tmp_path / "never"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["compare", "a.csv", "b.csv", "--out-dir", str(never)])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    assert not never.exists()
    config = tmp_path / "config.json"
    config.write_text('{"out_dir": "d"}')
    args = cli.build_parser().parse_args(["compare", "a.csv", "b.csv", "--config", str(config)])
    assert cli.resolve_config(args).out_dir == "d"
