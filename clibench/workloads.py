"""Workload definitions: seeded mixture inputs and the CLI commands of one pass.

Every workload draws its fit file (and, for scoring, a query file) with
``coastrank sample`` from a Mallows mixture whose centers are fixed per
workload; ``--seed`` only chooses the draws. Fixing the centers keeps the
shape of the fitted tree, and so the work of a pass, comparable across seeds.
A workload may draw several independent data sets, each in a directory of
its own (``data0``, ``data1``, ...). One pass runs the commands on one data
set, and successive passes take the data sets in turn, so that the median
pass of a run spans several draws and seed-to-seed differences in the work
of one data set average out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Seed of the mixture centers; the same for every run of a workload.
CENTER_SEED = 20260210


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    components: int
    phi: float
    size: int
    max_leaves: int
    lam: float
    commands: tuple[str, ...]
    query_size: int = 0
    uniform_mix: float = 0.0  # share of the query file drawn from a uniform Plackett-Luce
    datasets: int = 1
    aggregator: str = "auto"  # ``fit --aggregator``

    @property
    def outputs(self) -> tuple[str, ...]:
        """Data outputs of one pass, relative to its data set directory
        (manifests are left out: they hold wall times)."""
        files = {
            "fit": ("tree.json", "trace.csv"),
            "prune": ("sub.json",),
            "eval": ("report.csv",),
            "depth": ("depths.csv",),
            "anomaly": ("scores.csv",),
        }
        return tuple(f for c in self.commands for f in files[c])

    @property
    def uniform_label(self) -> int:
        """Label of the uniform Plackett-Luce rows in the query file (its last component)."""
        return self.components


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-n50", n=50, components=4, phi=0.3, size=5000,
                 max_leaves=8, lam=0.01, commands=("fit", "prune"), aggregator="depth-climb"),
        Workload("eval-n7", n=7, components=3, phi=0.7, size=350,
                 max_leaves=8, lam=0.01, commands=("fit", "prune", "eval"), datasets=8),
        Workload("score-n20", n=20, components=4, phi=0.5, size=20000,
                 max_leaves=16, lam=0.01, commands=("fit", "prune", "depth", "anomaly"),
                 query_size=2000, uniform_mix=0.1),
    )
}

def _specs(w: Workload, seed: int) -> tuple[dict, dict | None]:
    rng = np.random.default_rng([CENTER_SEED, w.n, w.components])
    mallows = [
        {"type": "mallows", "center": [int(r) + 1 for r in rng.permutation(w.n)],
         "phi": w.phi, "mix": 1.0 / w.components}
        for _ in range(w.components)
    ]
    fit = {"n": w.n, "seed": seed, "components": mallows}
    if not w.query_size:
        return fit, None
    share = (1.0 - w.uniform_mix) / w.components
    query = {
        "n": w.n,
        "seed": seed,
        "components": [dict(c, mix=share) for c in mallows]
        + [{"type": "plackett_luce", "weights": [1.0] * w.n, "mix": w.uniform_mix}],
    }
    return fit, query


def dataset_dirs(w: Workload, d: Path) -> list[Path]:
    return [d / f"data{k}" for k in range(w.datasets)]


def sample_commands(w: Workload, seed: int, d: Path) -> list[list[str]]:
    """Write the mixture specs and return the ``sample`` commands that draw the inputs."""
    cmds = []
    for k, dk in enumerate(dataset_dirs(w, d)):
        dk.mkdir(parents=True, exist_ok=True)
        # distinct for every (seed, k); with one data set the seed is used as is
        cmds += _sample_commands(w, seed * w.datasets + k, dk)
    return cmds


def _sample_commands(w: Workload, seed: int, d: Path) -> list[list[str]]:
    fit_spec, query_spec = _specs(w, seed)
    (d / "fit_spec.json").write_text(json.dumps(fit_spec))
    cmds = [["sample", "--spec", str(d / "fit_spec.json"), "--size", str(w.size),
             "--seed", str(seed), "--out", str(d / "fit.rnk")]]
    if query_spec is not None:
        (d / "query_spec.json").write_text(json.dumps(query_spec))
        # a stream of its own, so the query rows are not a copy of the fit rows
        cmds.append(["sample", "--spec", str(d / "query_spec.json"),
                     "--size", str(w.query_size), "--seed", str(seed + 1_000_003),
                     "--out", str(d / "query.rnk")])
    return cmds


def pass_commands(w: Workload, d: Path) -> list[list[str]]:
    """The CLI commands of one pipeline pass on the data set directory ``d``, in order."""
    fit, query = str(d / "fit.rnk"), str(d / "query.rnk")
    argv = {
        "fit": ["fit", "--input", fit, "--epsilon", "0", "--max-leaves", str(w.max_leaves),
                "--aggregator", w.aggregator,
                "--trace", str(d / "trace.csv"), "--out", str(d / "tree.json")],
        "prune": ["prune", "--tree", str(d / "tree.json"), "--input", fit,
                  "--lambda", str(w.lam), "--out", str(d / "sub.json")],
        "eval": ["eval", "--tree", str(d / "tree.json"), "--input", fit,
                 "--out", str(d / "report.csv")],
        "depth": ["depth", "--tree", str(d / "sub.json"), "--fit", fit, "--query", query,
                  "--out", str(d / "depths.csv")],
        "anomaly": ["anomaly", "--tree", str(d / "sub.json"), "--fit", fit, "--query", query,
                    "--out", str(d / "scores.csv")],
    }
    return [argv[c] for c in w.commands]
