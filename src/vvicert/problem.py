"""Problem bundles: the objective, ordering cone, kernel, default e vector and
named points, with canonical serialization used for files and report hashing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .cone import OrderingCone
from .errors import DimensionMismatchError, ProblemFileError, VviCertError
from .model import Kernel, PiecewiseVectorFn, _memoized

__all__ = ["Problem", "FORMAT_VERSION"]

FORMAT_VERSION = "vvicert/1"


@dataclass
class Problem:
    f: PiecewiseVectorFn
    cone: OrderingCone
    kernel: Kernel
    e: np.ndarray
    points: dict = field(default_factory=dict)
    name: str = ""
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only copies; the attributes themselves stay reassignable
        self.e = np.array(self.e, dtype=float)
        self.points = {k: np.array(v, dtype=float) for k, v in self.points.items()}
        for a in (self.e, *self.points.values()):
            a.setflags(write=False)

    @classmethod
    def from_dict(cls, spec: dict, name: str = "") -> "Problem":
        if not isinstance(spec, dict):
            raise VviCertError(f"a problem is a JSON object, not {type(spec).__name__}")
        version = spec.get("version")
        if version != FORMAT_VERSION:
            raise VviCertError(
                f"unsupported problem version {version!r} (expected {FORMAT_VERSION!r})"
            )
        f = PiecewiseVectorFn.from_dict(spec)
        with ProblemFileError.reading("cone"):
            cone = OrderingCone.from_dict(spec.get("cone", {"orthant": f.m}))
            if cone.dim != f.m:
                raise DimensionMismatchError(
                    f"cone dimension {cone.dim} disagrees with output dimension {f.m}"
                )
        with ProblemFileError.reading("kernel"):
            kernel = Kernel.from_dict(spec.get("kernel", {"kind": "difference"}), f.n)
        with ProblemFileError.reading("e"):
            e = np.asarray(spec.get("e", [0.5] * f.m), dtype=float)
            if e.shape != (f.m,):
                raise DimensionMismatchError(f"e of shape {e.shape}, expected ({f.m},)")
        with ProblemFileError.reading("points"):
            points = {k: np.asarray(v, dtype=float) for k, v in spec.get("points", {}).items()}
            for k, v in points.items():
                if v.shape != (f.n,):
                    raise DimensionMismatchError(f"{k!r} of shape {v.shape}, expected ({f.n},)")
        return cls(f, cone, kernel, e, points, name=name or spec.get("name", ""))

    def to_dict(self) -> dict:
        out = {"version": FORMAT_VERSION}
        if self.name:
            out["name"] = self.name
        out.update(self.f.to_dict())
        out["cone"] = self.cone.to_dict()
        out["kernel"] = self.kernel.to_dict()
        out["e"] = self.e.tolist()
        if self.points:
            out["points"] = {k: v.tolist() for k, v in self.points.items()}
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def _memoized(self, key, build):
        """build(), run once per key for this problem object (see
        model._memoized); the audit keeps its checker verdicts here."""
        return _memoized(self._memo, key, build)

    def point(self, name_or_values) -> np.ndarray:
        """Resolve a named point or pass through explicit coordinates."""
        if isinstance(name_or_values, str):
            if name_or_values not in self.points:
                raise VviCertError(f"problem has no named point {name_or_values!r}")
            return self.points[name_or_values]
        return np.asarray(name_or_values, dtype=float)

    def __repr__(self) -> str:
        label = self.name or "unnamed"
        return f"Problem({label}, n={self.f.n}, m={self.f.m}, kernel={self.kernel.kind})"
