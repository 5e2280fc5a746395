"""Set-up step of one benchmark run: import the package, build the
workload's inputs from the seed and compute the oracles its checks use.

Runs in a fresh interpreter, so its wall time includes the import a real
process pays; ``run.py`` repeats it and reports the median as
``setup_s``.  Writes ``oracle.json`` and, for the library workloads,
``inputs.npz`` into ``--out``.

    python3 bench/prepare.py --workload knuth-mixed --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

import histospline as hs
from checks import corpus_csv_sha256, cumulative_oracle, knuth_oracle

CLI_COUNT = 1000
KNUTH_SEARCH_MAX = 200
WIDE_BIN_COUNTS = (1000, 2000, 3000)
WIDE_SAMPLES = 200_000
BOUNDARIES = ("clamped", "natural", "not-a-knot")


def knuth_mixed_vectors(seed: int) -> dict[str, np.ndarray]:
    """Light and heavy tails, 10^3 to 8.7*10^5 samples: the chosen bin
    count ranges from a few dozen to the scan cap."""
    rng = np.random.default_rng(seed)
    return {
        "normal-1e3": rng.normal(size=1_000),
        "normal-1e4": rng.normal(size=10_000),
        "normal-1e5": rng.normal(size=100_000),
        "bimodal-1e5": np.concatenate([rng.normal(-2.0, 0.7, 50_000), rng.normal(3.0, 1.1, 50_000)]),
        "lognormal-1e5": rng.lognormal(size=100_000),
        "cauchy-1e4": rng.standard_cauchy(10_000),
        "braking": hs.flatten_positions(hs.generate_corpus(CLI_COUNT, seed=seed)),
    }


def prepare_cli(seed: int, out: Path) -> None:
    corpus = hs.generate_corpus(CLI_COUNT, seed=seed)
    samples = hs.Samples(hs.flatten_positions(corpus))
    bins = hs.select_bin_count(samples, hs.BinRule.knuth(KNUTH_SEARCH_MAX))
    hist = hs.build_histogram(samples, bins)
    expected = {}
    for boundary in ("not-a-knot", "natural"):
        est = hs.estimate_from_histogram(hist, hs.BinRule.knuth(), boundary)
        expected[boundary] = {
            "bin_count": bins,
            "turning_points": hs.count_turning_points(est, 1001),
            "sample_count": len(samples),
        }
    oracle = {"corpus_sha256": corpus_csv_sha256(corpus), "estimate": expected}
    (out / "oracle.json").write_text(json.dumps(oracle))


def prepare_library(vectors: dict[str, np.ndarray], requests: list[dict], out: Path) -> None:
    arrays = dict(vectors)
    for request in requests:
        values = vectors[request["vector"]]
        if request["rule"] == "knuth":
            request["bins"] = knuth_oracle(values, KNUTH_SEARCH_MAX)
        key = f"F:{request['vector']}:{request['bins']}"
        if key not in arrays:
            arrays[key] = cumulative_oracle(values, request["bins"])
        request["F"] = key
    np.savez(out / "inputs.npz", **arrays)
    (out / "oracle.json").write_text(json.dumps({"requests": requests}))


def prepare(workload: str, seed: int, out: Path) -> None:
    if workload == "cli-braking":
        prepare_cli(seed, out)
    elif workload == "knuth-mixed":
        vectors = knuth_mixed_vectors(seed)
        requests = [
            {"name": name, "vector": name, "rule": "knuth", "boundary": "not-a-knot"}
            for name in vectors
        ]
        prepare_library(vectors, requests, out)
    elif workload == "wide-bins":
        vectors = {"normal-2e5": np.random.default_rng(seed).normal(size=WIDE_SAMPLES)}
        requests = [
            {"name": f"B{bins}-{boundary}", "vector": "normal-2e5", "rule": f"fixed:{bins}",
             "boundary": boundary, "bins": bins}
            for bins in WIDE_BIN_COUNTS
            for boundary in BOUNDARIES
        ]
        prepare_library(vectors, requests, out)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
