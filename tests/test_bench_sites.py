"""The benchmark's traced run wraps package functions by the names its
callers look them up by; a rename in the package fails here."""

from pathlib import Path

import histospline.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_lookup_sites_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import measure

    names = [(owner, attr) for owner, attrs in layers.SITES for attr in attrs]
    names.append((layers.histogram, "knuth_log_posterior"))
    before = [getattr(owner, attr) for owner, attr in names]
    commands = dict(cli._COMMANDS)
    with layers.instrumented(measure.SpanRecorder()):
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(names, before))
    assert [getattr(owner, attr) for owner, attr in names] == before
    assert cli._COMMANDS == commands and "open" not in vars(cli)
