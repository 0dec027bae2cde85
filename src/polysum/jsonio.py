"""JSON interchange: rationals as "p/q" strings, point sets, lattices and
block-determinant specs."""

from __future__ import annotations

import json

from .detasym import DeltaSpec
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


def _is_int(value) -> bool:
    """A JSON integer; true and false are not, though bool subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of_scalars(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) or _is_int(x) for x in value)


def pointset_from_dict(data: dict) -> PointSet:
    fields = data if isinstance(data, dict) else {}
    dim, rows, labels = fields.get("ambient_dim"), fields.get("points"), fields.get("labels")
    if not (
        (isinstance(dim, str) or _is_int(dim))
        and isinstance(rows, list)
        and all(_list_of_scalars(row) for row in rows)
        and (labels is None or _list_of_scalars(labels))
    ):
        raise ValueError(
            'a point set is {"ambient_dim": int, "points": [[int or "p/q", ...], ...]}'
            ' with optional "labels": [...]'
        )
    points = tuple(tuple(rat(x) for x in row) for row in rows)
    return PointSet(int(dim), points, tuple(labels) if labels else None)


def delta_spec_from_dict(data: dict) -> DeltaSpec:
    fields = data if isinstance(data, dict) else {}
    kappa, beta, x = fields.get("kappa"), fields.get("beta"), fields.get("x")
    if not (
        all(isinstance(v, list) and all(_is_int(k) for k in v) for v in (kappa, beta))
        and isinstance(x, list)
        and all(_list_of_scalars(row) for row in x)
    ):
        raise ValueError(
            'a delta spec is {"kappa": [int, ...], "beta": [int, ...],'
            ' "x": [[int or "p/q", ...], ...]}'
        )
    return DeltaSpec(tuple(kappa), tuple(beta), tuple(tuple(rat(v) for v in row) for row in x))


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
