"""The benchmark's workloads and the output gate.

A workload is a fixed list of CLI steps, each the argv of one
``chain_census.cli.main`` call together with the exact standard output
the seed commit printed for it.  Expected values are constants recorded
here and in ``expected/``, never recomputed by the code under test.

Why these three workloads:

* planar-sweep: the paper's planar headline run as users run it.
  Tolerant floats, grid adjacency with guard-band certification and
  pairwise-disjoint layers, so chains = walks; chain backtracking
  dominates, and richness, exact arithmetic and trees are absent.
* exact-census: both exact constructions have repeated layers, so
  chains < walks and a counting shortcut must handle coincidences.
  Rational points in R^4 and integer points in R^3; ``count --walks``
  builds the adjacency twice; ``decompose`` runs the covering search.
* trees: an exact-rational star and a tolerant-float star of 3-paths.
  Tree counting scans layers without adjacency, so chain and adjacency
  changes should not move this workload.

``--smoke`` sizes exist for the benchmark's own tests only.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("planar-sweep", "exact-census", "trees")

# The verb whose summed time is reported as main_verb_s.
MAIN_VERB = {"planar-sweep": "experiment", "exact-census": "count", "trees": "count-tree"}

# Sizes and the outputs the seed commit printed for them.
#   planar-chain k=5: chains = walks = n^3, incidences = 5n.
#   orthogonal d=4 k=3: chains = 2*ff(n/2, 2)^2 (the closed form).
#   star l=3: (n/3)^3 embeddings; star-paths k=3 joints-fixed: n^4.
SIZES = {
    "full": {
        "planar_n": (64, 128, 256),
        "orthogonal_n": 60,
        "orthogonal_counts": (1513800, 1620000),
        "odd_n": 343,
        "odd_counts": (1890816, 2120544),
        "star_n": 150,
        "star_count": 125000,
        "paths_n": 30,
        "paths_line": "PASS computed=810000 expected=810000 (joints-fixed floor)",
    },
    "smoke": {
        "planar_n": (4, 8, 16),
        "orthogonal_n": 12,
        "orthogonal_counts": (1800, 2592),
        "odd_n": 64,
        "odd_counts": (39744, 49920),
        "star_n": 15,
        "star_count": 125,
        "paths_n": 10,
        "paths_line": "PASS computed=10000 expected=10000 (joints-fixed floor)",
    },
}


@dataclass(frozen=True)
class Step:
    verb: str
    argv: tuple[str, ...]
    expect: str
    # Directory of point files this step generates; their lines are
    # permuted by the benchmark seed before any later step reads them.
    shuffle_dir: str | None = None


def build(name: str, workdir: str, seed: int, smoke: bool = False) -> list[Step]:
    """The steps of workload `name`, writing its files under `workdir`."""
    size = SIZES["smoke" if smoke else "full"]
    glob = ("--seed", str(seed))
    if name == "planar-sweep":
        ns = size["planar_n"]
        rows = [f"planar-chain,5,{n},{n**3},{n**3},{5 * n}" for n in ns]
        csv = "construction,k,n,chains,walks,incidences\n" + "".join(r + "\n" for r in rows)
        argv = ("experiment", "--construction", "planar-chain", "--k", "5",
                "--n-list", ",".join(map(str, ns)))
        return [Step("experiment", glob + argv, csv)]
    if name == "exact-census":
        orth = os.path.join(workdir, "orthogonal")
        odd = os.path.join(workdir, "3d-odd-regular")
        orth_manifest = os.path.join(orth, "manifest.txt")
        odd_manifest = os.path.join(odd, "manifest.txt")
        decompose = (EXPECTED_DIR / f"decompose-3d-odd-regular-k3-n{size['odd_n']}.txt").read_text()
        return [
            Step("generate",
                 glob + ("--out", orth, "generate", "--construction", "orthogonal",
                         "--d", "4", "--k", "3", "--n", str(size["orthogonal_n"])),
                 orth_manifest + "\n", shuffle_dir=orth),
            Step("count", glob + ("count", "--manifest", orth_manifest, "--walks"),
                 "chains {}\nwalks {}\n".format(*size["orthogonal_counts"])),
            Step("generate",
                 glob + ("--out", odd, "generate", "--construction", "3d-odd-regular",
                         "--k", "3", "--n", str(size["odd_n"])),
                 odd_manifest + "\n", shuffle_dir=odd),
            Step("count", glob + ("count", "--manifest", odd_manifest, "--walks"),
                 "chains {}\nwalks {}\n".format(*size["odd_counts"])),
            Step("decompose", glob + ("--eps", "0.25", "decompose", "--manifest", odd_manifest),
                 decompose),
        ]
    if name == "trees":
        star = os.path.join(workdir, "star")
        tree = os.path.join(star, "star.tree")
        layers = []
        for i in range(1, 5):
            layers += ["--layer", os.path.join(star, f"star-layer{i}.pts")]
        return [
            Step("generate",
                 glob + ("--out", star, "generate", "--construction", "star",
                         "--l", "3", "--n", str(size["star_n"])),
                 tree + "\n", shuffle_dir=star),
            Step("count-tree", glob + ("count-tree", "--tree", tree, *layers),
                 f"{size['star_count']}\n"),
            Step("verify",
                 glob + ("verify", "--claim", "floor", "--construction", "star-paths",
                         "--k", "3", "--n", str(size["paths_n"])),
                 size["paths_line"] + "\n"),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def shuffle_point_files(directory: str, seed: int) -> None:
    """Permute the point lines of every .pts file in directory, by seed.

    Counts do not depend on point order, so this varies the inputs of the
    deterministic constructions without changing any expected output.
    """
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".pts"):
            continue
        path = os.path.join(directory, fname)
        with open(path) as fh:
            header, *points = fh.read().splitlines()
        random.Random(f"{seed}/{fname}").shuffle(points)
        with open(path, "w") as fh:
            fh.write("\n".join([header, *points]) + "\n")
