"""Rigid + scale similarities of R^4 and the two coordinate isometries.

Phi exchanges coordinates in the (x2,x4)-plane and flips x3 before the e3
shift; Psi swaps the two R^2 factors.  Both are orientation preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParamsInvalid


@dataclass(frozen=True)
class Similarity4:
    """x -> scale * A x + t with A orthogonal."""

    A: np.ndarray
    t: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=np.float64))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))
        err = self.orthogonality_error()
        if err > 1e-9:
            raise ParamsInvalid(f"matrix not orthogonal (err {err})")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.scale * (x @ self.A.T) + self.t

    def compose(self, other):
        """self after other: (self o other)(x) = self(other(x))."""
        return Similarity4(
            self.A @ other.A,
            self.scale * (other.t @ self.A.T) + self.t,
            self.scale * other.scale,
        )

    def inverse(self):
        Ainv = self.A.T
        return Similarity4(Ainv, -(self.t @ Ainv.T) / self.scale, 1.0 / self.scale)

    def orthogonality_error(self):
        return float(np.abs(self.A @ self.A.T - np.eye(4)).max())

E3 = np.array([0.0, 0.0, 1.0, 0.0])

A_PHI = np.array([
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, -1, 0],
    [0, 1, 0, 0],
], dtype=float)

A_PSI = np.array([
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
], dtype=float)

PHI = Similarity4(A_PHI, E3)
PSI = Similarity4(A_PSI, E3)


def identity():
    return Similarity4(np.eye(4), np.zeros(4))


def rotation(j, m):
    """The j-th power of the 2pi/m rotation in the (x3,x4)-plane."""
    a = 2.0 * np.pi * j / m
    c, s = np.cos(a), np.sin(a)
    A = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, c, -s],
        [0, 0, s, c],
    ])
    return Similarity4(A, np.zeros(4))


def scaling(b):
    return Similarity4(np.eye(4), np.zeros(4), float(b))


def phi(x):
    """Phi(x1,x2,x3,x4) = (x1, x4, 1-x3, x2)."""
    x = np.asarray(x, dtype=float)
    return np.stack([x[..., 0], x[..., 3], 1.0 - x[..., 2], x[..., 1]], axis=-1)


def psi(x):
    """Psi(x1,x2,x3,x4) = (x3, x4, 1+x1, x2)."""
    x = np.asarray(x, dtype=float)
    return np.stack([x[..., 2], x[..., 3], 1.0 + x[..., 0], x[..., 1]], axis=-1)
