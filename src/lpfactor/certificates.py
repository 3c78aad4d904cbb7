"""Factorization certificates: the factor pair plus the promised radii.

A certificate is checkable by recomputation alone; it carries no solver
state.  ``strict_u`` / ``strict_v`` record whether the promise on that side
is an open ball (strict inequality) or a closed one; the closed v-side
appears in the countably-valued p = 1 construction, and the closed u-side
only via the p = oo argument swap.  The product tolerance belongs to the
verifier, not to the certificate; ``from_json`` ignores the
``product_tolerance`` key that older files carry.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .instances import json_fields, json_floats

__all__ = ["FactorizationCertificate"]


@dataclass(frozen=True)
class FactorizationCertificate:
    u: tuple
    v: tuple
    radius_u: float
    radius_v: float
    strict_u: bool = True
    strict_v: bool = True
    # Parameter record for audit (not part of the verifiable payload).
    params: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(map(float, self.u)))
        object.__setattr__(self, "v", tuple(map(float, self.v)))
        if len(self.u) != len(self.v):
            raise ValueError("factor pair lengths differ")

    @classmethod
    def _trusted(
        cls, u, v, radius_u, radius_v, strict_u=True, strict_v=True, params=None
    ) -> "FactorizationCertificate":
        """The certificate a solver built: u and v are sequences of floats
        of one length.

        Skips the constructor's conversion and length check, which cannot
        fail or change anything on such values; u and v become tuples.
        """
        cert = object.__new__(cls)
        cert.__dict__.update(
            u=tuple(u),
            v=tuple(v),
            radius_u=radius_u,
            radius_v=radius_v,
            strict_u=strict_u,
            strict_v=strict_v,
            params=params,
        )
        return cert

    def transposed(self) -> "FactorizationCertificate":
        """The certificate with the roles of u and v exchanged.

        This is the one p = oo swap: the p = 1 solve of (g, f, h),
        transposed, answers (f, g, h) at p = oo, and a closed v-side bound
        lands on the u side.  u and v were converted when this certificate
        was built.
        """
        return self._trusted(
            self.v,
            self.u,
            self.radius_v,
            self.radius_u,
            self.strict_v,
            self.strict_u,
            self.params,
        )

    def to_json(self) -> dict:
        return {
            "u": list(self.u),
            "v": list(self.v),
            "radius_u": self.radius_u,
            "radius_v": self.radius_v,
            "strict_u": self.strict_u,
            "strict_v": self.strict_v,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FactorizationCertificate":
        u, v, radius_u, radius_v, strict_v = json_fields(
            data, "certificate", u=json_floats, v=json_floats,
            radius_u=float, radius_v=float, strict_v=bool,
        )
        strict_u = bool(data.get("strict_u", True))
        return cls(u, v, radius_u, radius_v, strict_u, strict_v)
