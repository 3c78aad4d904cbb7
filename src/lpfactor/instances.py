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
from itertools import chain
from operator import and_, mul, sub, truth
from typing import Union

from .measure import INFINITE, Exponent, MeasureSpace, SimpleFunction
from .measure import check_eps, fsum_or_inf, l1_defect

__all__ = [
    "LpInstance",
    "SeqInstance",
    "instance_from_json",
    "load_instance",
    "space_to_json",
    "space_from_json",
]


def space_to_json(space: MeasureSpace) -> dict:
    return {
        "atoms": [{"measure": "inf" if math.isinf(m) else m} for m in space.measures]
    }


def space_from_json(data: dict) -> MeasureSpace:
    """The space of ``space_to_json``; other keys, such as atom ids, are ignored."""
    return MeasureSpace(
        INFINITE if entry["measure"] == "inf" else float(entry["measure"])
        for entry in data["atoms"]
    )


@dataclass(frozen=True)
class LpInstance:
    f: SimpleFunction
    g: SimpleFunction
    h: SimpleFunction
    p: Exponent
    eps: float

    def __post_init__(self):
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
        return (self.eps / 2.0) * (self.eps / 2.0)

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
        space = space_from_json(data["space"])
        return cls(
            f=SimpleFunction(space, tuple(data["f"])),
            g=SimpleFunction(space, tuple(data["g"])),
            h=SimpleFunction(space, tuple(data["h"])),
            p=Exponent(data["p"]),
            eps=float(data["eps"]),
        )


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
        if not all(map(math.isfinite, chain(self.x, self.y, self.z))):
            raise ValueError("coefficients must be finite reals")

    def padded(self) -> tuple:
        n = max(len(self.x), len(self.y), len(self.z))
        pad = lambda s: s + (0.0,) * (n - len(s))
        return pad(self.x), pad(self.y), pad(self.z)

    def defect(self) -> float:
        x, y, z = self.padded()
        return fsum_or_inf(map(abs, map(sub, z, map(mul, x, y))))

    def feasibility_bound(self) -> float:
        return (self.eps / 4.0) * (self.eps / 4.0)

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
        return cls(
            x=tuple(data["x"]),
            y=tuple(data["y"]),
            z=tuple(data["z"]),
            eps=float(data["eps"]),
        )


Instance = Union[LpInstance, SeqInstance]


def instance_from_json(data: dict) -> Instance:
    kind = data.get("kind", "lp" if "space" in data else "seq")
    if kind == "lp":
        return LpInstance.from_json(data)
    if kind == "seq":
        return SeqInstance.from_json(data)
    raise ValueError(f"unknown instance kind {kind!r}")


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
