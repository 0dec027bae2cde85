"""JSON interchange: rationals as "p/q" strings, point sets, lattices,
block-determinant specs and run reports."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

from .detasym import DeltaSpec
from .exact import rat, rat_to_str
from .hull import FaceLattice, PointSet


@dataclass
class RunReport:
    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    timing: Optional[dict] = None

    def check(self, name, expected, actual, holds=operator.eq):
        """Record whether ``holds(actual, expected)``: equality unless given."""
        self.checks.append(
            {"name": name, "expected": expected, "actual": actual, "pass": holds(actual, expected)}
        )

    def check_that(self, name, condition):
        self.check(name, True, bool(condition))

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "checks": self.checks,
            "passed": self.passed,
        }
        if self.timing is not None:
            out["timing"] = self.timing
        return out


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
    return PointSet(int(dim), points, tuple(labels) if labels is not None else None)


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
            {"dim": j, "vertices": list(face)}
            for j, level in enumerate(lat.levels)
            for face in sorted(level)
        ],
        "f_vector": list(lat.f_vector),
    }


def _reject_float(text: str):
    raise ValueError(f"JSON number {text} is a float; write rationals as \"p/q\" strings")


def read_json(path: str):
    """Parse a JSON input file, rejecting floats since they are not exact."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=_reject_float)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def load_pointset(path: str) -> PointSet:
    return pointset_from_dict(read_json(path))


def _scalar(value) -> str:
    """None, a bool, an int or a float as ``json`` writes it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _encode(value, indent: str, out: list) -> None:
    """Append ``value`` as ``json.dumps(value, indent=2, sort_keys=True)``
    writes it, nested ``indent`` deep, to ``out``.

    A plain recursive function: the ``json`` module's indented encoder builds
    closures that hold each other in reference cycles, so every call leaves
    garbage that only the cyclic collector frees.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        sep = "\n" + inner
        if isinstance(value, dict):
            out.append("{")
            for key, item in sorted(value.items()):
                key = key if isinstance(key, str) else _scalar(key)
                out += (sep, encode_basestring_ascii(key), ": ")
                _encode(item, inner, out)
                sep = ",\n" + inner
            out.append("\n" + indent + "}")
        else:
            out.append("[")
            for item in value:
                out.append(sep)
                _encode(item, inner, out)
                sep = ",\n" + inner
            out.append("\n" + indent + "]")
    else:
        out.append(_scalar(value))


def dump_json(data: dict, path: str | None) -> str:
    """Serialize deterministically, byte for byte as ``json.dumps(data,
    indent=2, sort_keys=True)``; write to path when given, return the text."""
    out: list[str] = []
    _encode(data, "", out)
    text = "".join(out)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
