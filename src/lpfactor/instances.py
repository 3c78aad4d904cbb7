"""Problem instances and their JSON interchange format.

An LP instance is a triple (f, g, h) of simple functions over one atomic
measure space together with the exponent p and the radius eps; a sequence
instance is a triple (x, y, z) of finite prefixes (implicit all-zero tails)
with the radius eps.  Numbers round-trip exactly through JSON; INFINITE
measures and p = oo serialize as the string "inf".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import and_, mul, sub, truth
from typing import Union

from .measure import INFINITE, Exponent, MeasureSpace, SimpleFunction
from .measure import all_finite, check_eps, defect_bound, fsum_or_inf, l1_defect

__all__ = [
    "LpInstance",
    "SeqInstance",
    "instance_from_json",
    "load_instance",
    "space_to_json",
    "space_from_json",
]


def json_fields(data, what: str, **convert) -> list:
    """The values of ``data``, parsed JSON describing ``what``, at the keys
    of ``convert``, each passed through its converter.

    Raises ValueError unless ``data`` is an object, naming a key that is
    missing or whose value has the wrong shape for its converter.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    for key, to_value in convert.items():
        if key not in data:
            raise ValueError(f"{what} lacks {key!r}")
        try:
            convert[key] = to_value(data[key])
        except TypeError:
            raise ValueError(f"{what} {key!r} has the wrong shape") from None
    return list(convert.values())


def json_floats(values) -> tuple:
    """A JSON list of numbers as a tuple of floats; TypeError for another shape."""
    if not isinstance(values, (list, tuple)):
        raise TypeError
    return tuple(map(float, values))


def zero_pad(*prefixes) -> tuple:
    """The prefixes as tuples, each extended with zeros to the longest length.

    A sequence is a finite prefix with an implicit all-zero tail, so the
    padding changes no sequence.
    """
    n = max(map(len, prefixes))
    return tuple(tuple(s) + (0.0,) * (n - len(s)) for s in prefixes)


def space_to_json(space: MeasureSpace) -> dict:
    return {
        "atoms": [{"measure": "inf" if math.isinf(m) else m} for m in space.measures]
    }


def space_from_json(data: dict) -> MeasureSpace:
    """The space of ``space_to_json``; other keys, such as atom ids, are ignored."""
    (atoms,) = json_fields(data, "space", atoms=list)
    measure = lambda m: INFINITE if m == "inf" else float(m)
    return MeasureSpace(json_fields(atom, "atom", measure=measure)[0] for atom in atoms)


@dataclass(frozen=True)
class LpInstance:
    f: SimpleFunction
    g: SimpleFunction
    h: SimpleFunction
    p: Exponent
    eps: float

    def __post_init__(self):
        if not isinstance(self.p, Exponent):
            object.__setattr__(self, "p", Exponent(self.p))
        check_eps(self.eps)
        if not (self.f.space == self.g.space == self.h.space):
            raise ValueError("f, g, h must share one measure space")

    @property
    def space(self) -> MeasureSpace:
        return self.f.space

    def defect(self) -> float:
        """The L1 distance between h and fg, summed atom by atom."""
        fs, gs, hs = self.f.coefficients, self.g.coefficients, self.h.coefficients
        measures = self.space.measures
        defects = list(map(abs, map(sub, hs, map(mul, fs, gs))))
        mask = list(map(and_, map(truth, defects), map(truth, measures)))
        return l1_defect(defects, measures, mask)

    def feasibility_bound(self) -> float:
        return defect_bound(self.eps)

    def to_json(self) -> dict:
        return {
            "kind": "lp",
            "space": space_to_json(self.space),
            "f": list(self.f.coefficients),
            "g": list(self.g.coefficients),
            "h": list(self.h.coefficients),
            "p": self.p.to_json(),
            "eps": self.eps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "LpInstance":
        space, *fgh, p, eps = json_fields(
            data, "LP instance", space=space_from_json, f=json_floats,
            g=json_floats, h=json_floats, p=Exponent, eps=float,
        )
        return cls(*(SimpleFunction(space, c) for c in fgh), p, eps)


@dataclass(frozen=True)
class SeqInstance:
    x: tuple
    y: tuple
    z: tuple
    eps: float

    def __post_init__(self):
        check_eps(self.eps)
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if not all(map(all_finite, (self.x, self.y, self.z))):
            raise ValueError("coefficients must be finite reals")

    def padded(self) -> tuple:
        return zero_pad(self.x, self.y, self.z)

    def defect(self) -> float:
        x, y, z = self.padded()
        return fsum_or_inf(map(abs, map(sub, z, map(mul, x, y))))

    def feasibility_bound(self) -> float:
        return defect_bound(self.eps / 2.0)  # eps^2/16: L_1 x L_oo at eps/2

    def to_json(self) -> dict:
        return {
            "kind": "seq",
            "x": list(self.x),
            "y": list(self.y),
            "z": list(self.z),
            "eps": self.eps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeqInstance":
        return cls(*json_fields(
            data, "sequence instance", x=json_floats, y=json_floats,
            z=json_floats, eps=float,
        ))


Instance = Union[LpInstance, SeqInstance]


def instance_from_json(data: dict) -> Instance:
    json_fields(data, "instance")  # ValueError unless an object
    kind = data.get("kind", "lp" if "space" in data else "seq")
    if kind == "lp":
        return LpInstance.from_json(data)
    if kind == "seq":
        return SeqInstance.from_json(data)
    raise ValueError(f"unknown instance kind {kind!r}")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
