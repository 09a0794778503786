"""Necklace parameters and the word-indexed tube hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ParamsInvalid
from .geometry import ROUND, pattern_of_child
from .transforms import PHI, PSI, Similarity4, identity, rotation, scaling


@dataclass
class NecklaceParams:
    """Scale b, child count m, and the empirically certified constants.

    The child-count window 4b^2/3 <= 2pi/m <= 3b^2/2 is a hard requirement;
    the strict-regime inequality b < min(b0, b1, rho/10) is only reported,
    since the empirical separation constants put that threshold far below
    any b large enough to compute with.
    """

    b: float
    m: int
    c0: float = None          # empirical: min dist(tau_i, tau_j) / b^2
    c1: float = None          # empirical: the tilde side
    b_window: tuple = (0.01, 0.1)   # (b0, b1): grid range where c's are stable
    enforce_window: bool = True

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ParamsInvalid(f"b = {self.b} outside (0,1)")
        if self.m < 4 or self.m % 2:
            raise ParamsInvalid(f"m = {self.m} must be an even integer >= 4")
        if self.enforce_window and not self.window_conforming():
            lo, hi = 4 * self.b ** 2 / 3, 3 * self.b ** 2 / 2
            raise ParamsInvalid(
                f"2pi/m = {2 * math.pi / self.m:.6g} outside [{lo:.6g}, {hi:.6g}]")

    def window_conforming(self):
        lo, hi = 4 * self.b ** 2 / 3, 3 * self.b ** 2 / 2
        return lo <= 2 * math.pi / self.m <= hi

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
        r = self.rho
        if r is None:
            return False
        b0, b1 = self.b_window
        return self.b < min(b0, b1, r / 10.0)

    def jacobian_exponent(self):
        """s = -4 log(2mb) / log(b)."""
        return -4.0 * math.log(2 * self.m * self.b) / math.log(self.b)

    def to_json(self):
        return {"b": self.b, "m": self.m, "c0": self.c0, "c1": self.c1,
                "rho": self.rho, "beta": self.beta,
                "window_conforming": self.window_conforming(),
                "strict_conforming": self.strict_conforming(),
                "jacobian_exponent": self.jacobian_exponent()}


def tiny_params():
    """Visualization-only profile; violates the child-count window, flagged."""
    return NecklaceParams(b=0.2, m=12, enforce_window=False)


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
    """The m children of a tube: (S o rho^j o Phi|Psi o lambda, pattern(j))."""
    inner = PHI if parent.pattern == ROUND else PSI
    lam = scaling(params.b)
    out = []
    for j in (js if js is not None else range(1, params.m + 1)):
        step = rotation(j, params.m).compose(inner).compose(lam)
        out.append(Tube(parent.word + (j,),
                        parent.transform.compose(step),
                        pattern_of_child(j)))
    return out


def generate(params, k, children_per_tube=None):
    """The level-<=k tube system; optionally a sampled subtree.

    With `children_per_tube` set, each tube keeps that many children (parity
    mixed, deterministic), which keeps k = 3 tractable at m = 1700.
    """
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
