"""JSON interchange: rationals as "p/q" strings, point sets, lattices."""

from __future__ import annotations

import json

from .exact import rat, rat_to_str
from .hull import FaceLattice, PointSet


def pointset_to_dict(ps: PointSet) -> dict:
    out = {
        "ambient_dim": ps.ambient_dim,
        "points": [[rat_to_str(x) for x in p] for p in ps.points],
    }
    if ps.labels is not None:
        out["labels"] = list(ps.labels)
    return out


def pointset_from_dict(data: dict) -> PointSet:
    points = tuple(tuple(rat(x) for x in row) for row in data["points"])
    labels = tuple(data["labels"]) if "labels" in data and data["labels"] else None
    return PointSet(int(data["ambient_dim"]), points, labels)


def lattice_to_dict(lat: FaceLattice) -> dict:
    return {
        "dims": [lat.ambient_dim, lat.polytope_dim],
        "faces": [
            {"dim": f.dim, "vertices": list(f.vertices)}
            for f in lat.faces
            if f.dim >= 0
        ],
        "f_vector": list(lat.f_vector),
    }


def _reject_float(text: str):
    raise ValueError(f"JSON number {text} is a float; write rationals as \"p/q\" strings")


def read_json(path: str):
    """Parse a JSON input file, rejecting floats since they are not exact."""
    with open(path) as fh:
        return json.load(fh, parse_float=_reject_float)


def load_pointset(path: str) -> PointSet:
    return pointset_from_dict(read_json(path))


def dump_json(data: dict, path: str | None) -> str:
    """Serialize deterministically; write to path when given, return the text."""
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
