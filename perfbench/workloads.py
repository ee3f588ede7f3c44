"""The benchmark's four workloads, as lists of scenario configs.

Every config starts from a shipped file in `scenarios/`.  `scaling` and
`light-cone` shrink the shipped problem sizes so that one pass fits the
benchmark's time budget (README.md gives the figures); `heat` adds three
heat configs on other lattices the default memory budget admits.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

NAMES = ("assembly", "heat", "scaling", "light-cone")

# extra heat lattices: (config stem, lattice)
HEAT_LATTICES = (
    ("heat_box2x2", {"dims": 2, "extent": 2, "geometry": "box", "n_max": 2}),
    ("heat_chain3", {"dims": 1, "extent": 3, "geometry": "chain", "n_max": 3}),
    ("heat_chain2", {"dims": 1, "extent": 2, "geometry": "chain", "n_max": 9}),
)
SCALING_SIZES = [3, 4, 5, 6]          # shipped: 3..8 (eval lattice 4^10)
LIGHT_CONE = {"chain_length": 4, "n_max": 3}   # shipped: 5 sites, n_max 2


def _shipped(root: Path, stem: str) -> dict:
    return json.loads((root / "scenarios" / f"{stem}.json").read_text())


def _variant(base: dict, stem: str, *, params=None, lattice=None) -> dict:
    cfg = copy.deepcopy(base)
    if params:
        cfg["params"].update(params)
    if lattice:
        cfg["model"]["lattice"] = dict(lattice)
    cfg["output"] = {"json": f"{stem}_report.json"}
    if "csv" in base.get("output", {}):
        cfg["output"]["csv"] = f"{stem}.csv"
    return cfg


def build(root: Path, name: str) -> list[tuple[str, dict]]:
    """(stem, config) pairs of one workload, in run order."""
    if name == "assembly":
        stems = ("verify_mean_field", "gap_mean_field", "bogolubov_boost")
        return [(s, _shipped(root, s)) for s in stems]
    if name == "heat":
        ring = _shipped(root, "heat_ring4")
        return ([("heat_ring4", ring),
                 ("decay_ring16", _shipped(root, "decay_ring16"))]
                + [(stem, _variant(ring, stem, lattice=lat))
                   for stem, lat in HEAT_LATTICES])
    if name == "scaling":
        return [(s, _variant(_shipped(root, s), s,
                             params={"sizes": SCALING_SIZES}))
                for s in ("scaling_aij", "scaling_z")]
    if name == "light-cone":
        return [("lieb_robinson_chain4",
                 _variant(_shipped(root, "lieb_robinson_chain5"),
                          "lieb_robinson_chain4", params=LIGHT_CONE))]
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def write(configs, cfg_dir: Path) -> list[Path]:
    """Write the configs as JSON files, for `cli.load_config` to read."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, cfg in configs:
        path = cfg_dir / f"{stem}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths.append(path)
    return paths
