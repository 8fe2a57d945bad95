"""The config-key walk: every row of `hierfed.cli._KEYS`, given each value
its kind rejects, in a config that reads that row.

`tests/test_cli.py` asserts that each such config exits 2 and names its key;
`tools/identical_artifacts.py` runs the same configs on two source trees and
compares their exits.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

from hierfed import cli

_COMMON = (True, "x", [1], {})
_NUMERIC = _COMMON + (math.nan, math.inf)
# The values each kind rejects, whatever the key. float keys take NaN and inf:
# LatencyParams, after the read, rejects those by name.
REJECTED = {
    cli.integer: _NUMERIC + (2.5,),
    cli.non_negative_integer: _NUMERIC + (2.5, -1),
    cli.positive_integer: _NUMERIC + (2.5, 0),
    cli.finite: _NUMERIC,
    cli.non_negative: _NUMERIC + (-0.5,),
    cli.positive: _NUMERIC + (0, -0.5),
    cli.fraction: _NUMERIC + (1.5,),
    cli.pathname: (True, [1], {}, 0),  # "x" is a path; 0 would open standard input
    float: _COMMON,
    bool: ("x", [1], {}, 0),
    list: (True, 1),  # entries of a list of lists
}


def rejected(kind) -> tuple:
    """The values `kind` rejects; for a list kind, non-lists and one-entry
    lists of a value its entry kind rejects."""
    if isinstance(kind, list):
        return (True, "x", {}, 5) + tuple([v] for v in REJECTED[kind[0]])
    return REJECTED[kind]


def bases(workdir: Path) -> dict[str, dict]:
    """Valid configs by name, one per form the rows are read in (the
    quadratic task, a parents tree, a synthetic pool, a pool file); the pool
    file and the run outputs go under `workdir`."""
    quadratic = {
        "seed": 7,
        "topology": {"layer_sizes": [8, 4, 2, 1], "fanouts": [2, 2, 2]},
        "task": {"kind": "quadratic", "dimension": 2, "samples_per_device": 6, "batch_size": 3},
        "schedule": {"taus": [2, 1, 1], "rounds": 4},
        "lr": 0.05,
        "latency": {"deadline": 1e9, "frequencies": {"min": 1e9, "max": 2e9}, "t_edge": {"multipliers": [10, 20]}},
        "compare": {"depths": [3]},
        "output_dir": str(workdir / "out"),
    }
    pool_file = workdir / "pool.csv"
    pool_file.write_text("x0,x1,label\n" + "".join(f"{i % 7},{i % 5},{i % 4}\n" for i in range(200)))
    parents = copy.deepcopy(quadratic)
    parents["topology"] = {"layer_sizes": [8, 4, 2, 1], "parents": [[0, 0, 1, 1, 2, 2, 3, 3], [0, 0, 1, 1], [0, 0]]}
    out = {"quadratic": quadratic, "parents": parents}
    for name, pool in (("pool", {"synthetic": {"samples": 400}}), ("pool_file", {"file": str(pool_file)})):
        out[name] = copy.deepcopy(quadratic)
        out[name]["task"] = {"kind": "tiny_mlp", "pool": pool, "size_range": [4, 6]}
    return out


def _base_name(section: str, key: str) -> str:
    if key == "parents":
        return "parents"
    if section == "task.pool":
        return "pool_file"
    if section in ("task pool", "task tiny_mlp", "task.pool.synthetic"):
        return "pool"
    return "quadratic"


def commands(where: str, key: str) -> tuple[str, ...]:
    """The subcommands that read a key of section `where`: compare.* only
    compare-depths and output_dir only run; run and theory read every other
    key. optimize is left out: it stops before lr, weighted, theory.* and the
    schedule flags."""
    if where == "compare":
        return ("compare-depths",)
    return ("run",) if key == "output_dir" else ("run", "theory")


def cases(workdir: Path):
    """(name, command, config, text stderr must hold) of every walk case:
    each row under each of its `commands`."""
    configs = bases(workdir)
    for section, rows in cli._KEYS.items():
        where, _, kinds = section.partition(" ")
        for key, kind, _ in rows:
            parents = [] if where == "config" else where.split(".")
            for value in rejected(kind):
                cfg = copy.deepcopy(configs[_base_name(section, key)])
                node = cfg
                for part in parents:
                    node = node.setdefault(part, {})
                node[key] = value
                name = ".".join(parents + [key]) + (f"({kinds})" if kinds else "") + f"={value!r}"
                for command in commands(where, key):
                    yield name, command, cfg, f"{where} key {key!r}"
