"""Necklace parameters and the word-indexed tube hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParamsInvalid, check_count
from .geometry import ROUND, child_map, pattern_of_child
from .transforms import Similarity4, identity, rotation


@dataclass
class NecklaceParams:
    """Scale b, child count m, and the separation constants of a
    disjointness run at b.

    The child-count window 4b^2/3 <= 2pi/m <= 3b^2/2 is a hard requirement,
    so every params object is inside it.  The strict regime b < rho/10,
    rho = min(c0, c1)/10, is only reported (strict_conforming), since c0 and
    c1 come from a disjointness run at b itself.
    """

    b: float
    m: int
    c0: float = None          # min dist(tau_i, tau_j) / b^2, from a run
    c1: float = None          # the same for the tilde family

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ParamsInvalid(f"b = {self.b} outside (0,1)")
        if self.m < 4 or self.m % 2:
            raise ParamsInvalid(f"m = {self.m} must be an even integer >= 4")
        lo, hi = 4 * self.b ** 2 / 3, 3 * self.b ** 2 / 2
        if not lo <= self.beta <= hi:
            raise ParamsInvalid(
                f"2pi/m = {self.beta:.6g} outside [{lo:.6g}, {hi:.6g}]")

    @property
    def beta(self):
        return 2.0 * math.pi / self.m

    @property
    def rho(self):
        """rho = min(c0, c1)/10; needs the empirical constants."""
        if self.c0 is None or self.c1 is None:
            return None
        return min(self.c0, self.c1) / 10.0

    def strict_conforming(self):
        """b < rho/10, the paper's regime; False without c0 and c1."""
        return self.rho is not None and self.b < self.rho / 10

    def jacobian_exponent(self):
        """s = -4 log(2mb) / log(b)."""
        return -4.0 * math.log(2 * self.m * self.b) / math.log(self.b)

    def to_json(self):
        return {"b": self.b, "m": self.m, "c0": self.c0, "c1": self.c1,
                "rho": self.rho, "beta": self.beta,
                "strict_conforming": self.strict_conforming(),
                "jacobian_exponent": self.jacobian_exponent()}


@dataclass
class Tube:
    word: tuple
    transform: Similarity4
    pattern: str

    @property
    def level(self):
        return len(self.word)


@dataclass
class TubeSystem:
    params: NecklaceParams
    tubes: list

    def level(self, k):
        return [t for t in self.tubes if t.level == k]

    def scale_errors(self):
        """Relative error of each transform's scale against b^level."""
        out = []
        for t in self.tubes:
            want = self.params.b ** t.level
            out.append(abs(t.transform.scale - want) / want if want else 0.0)
        return out


def child_tubes(parent, params, js=None):
    """The m children of a tube: (S o rho^j o child_map, pattern(j))."""
    inner = child_map(params.b, parent.pattern != ROUND)
    return [Tube(parent.word + (j,),
                 parent.transform.compose(rotation(j, params.m).compose(inner)),
                 pattern_of_child(j))
            for j in (js if js is not None else range(1, params.m + 1))]


def generate(params, k, children_per_tube=None):
    """The level-<=k tube system; optionally a sampled subtree.

    With `children_per_tube` set, each tube keeps that many children (parity
    mixed, deterministic), which keeps k = 3 tractable at m = 1700.
    ParamsInvalid unless k is an integer >= 0, and children_per_tube None
    or an integer >= 1.
    """
    check_count("k", k, 0)
    if children_per_tube is not None:
        check_count("children_per_tube", children_per_tube, 1)
    js = None
    if children_per_tube is not None and children_per_tube < params.m:
        c = children_per_tube
        js = sorted({(t * params.m) // c + 1 for t in range(c)})
        if all(j % 2 == 0 for j in js):
            js[-1] = js[-1] - 1
        if all(j % 2 == 1 for j in js):
            js[-1] = js[-1] + 1 if js[-1] < params.m else js[-1] - 1
        js = sorted(set(js))
    root = Tube((), identity(), ROUND)
    tubes = [root]
    frontier = [root]
    for _ in range(k):
        nxt = []
        for t in frontier:
            nxt.extend(child_tubes(t, params, js))
        tubes.extend(nxt)
        frontier = nxt
    return TubeSystem(params, tubes)
