"""Polyomino enumeration and the polyomino and box constructors."""

import hashlib
import itertools
import json

import pytest

from cubalex import complex_core as cc
from cubalex import factories as fa
from cubalex.errors import ParamsInvalid


def test_free_polyominoes_pinned():
    # the whole enumeration up to 9 squares, shapes and order, byte for byte
    data = json.dumps(fa.free_polyominoes(9)).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "a33a55d811618181f21c50e8cd3b9906fc640b65169f7bcd8eb402777a26e189")


# -- the lattice disk test against the complex it replaced --------------------

# OEIS A000105 (free polyominoes) and A000104 (those without holes)
FREE = [1, 1, 2, 5, 12, 35, 108, 369, 1285, 4655]
DISKS = [1, 1, 2, 5, 12, 35, 107, 363, 1248, 4460]


def complex_is_disk(cells):
    return not cc.cell_check(fa.grid_complex(cells))


def test_disk_test_matches_cell_check_on_free_polyominoes():
    shapes = [p for v in fa.free_polyominoes(9).values() for p in v]
    assert [p for p in shapes
            if fa.is_disk_polyomino(p) != complex_is_disk(p)] == []


def test_disk_test_matches_cell_check_on_grid_subsets():
    # every non-empty subset of a 3x3 grid: disconnected sets, corner-only
    # contact and the ring around a hole among them
    grid = list(itertools.product(range(3), repeat=2))
    subsets = [s for r in range(1, 10) for s in itertools.combinations(grid, r)]
    assert [s for s in subsets
            if fa.is_disk_polyomino(s) != complex_is_disk(s)] == []
    ring = [c for c in grid if c != (1, 1)]
    for cells in (ring, [(0, 0), (1, 1)], [(0, 0), (2, 0)],
                  [(0, 0), (1, 0), (1, 1), (2, 2)]):
        assert not fa.is_disk_polyomino(cells)
        assert cells in [list(s) for s in subsets]


def test_polyomino_counts_match_oeis():
    polys = fa.free_polyominoes(10)
    assert [len(polys[k]) for k in range(1, 11)] == FREE
    assert [sum(map(fa.is_disk_polyomino, polys[k]))
            for k in range(1, 11)] == DISKS


# -- bad polyomino and box input ---------------------------------------------


@pytest.mark.parametrize("cells", [[], [(0, 0), (0, 0)], [(0.5, 0)],
                                   [(0, 0, 0)], [(0,)], [3], ["ab"]])
def test_bad_polyomino_raises_params_invalid(cells):
    with pytest.raises(ParamsInvalid):
        fa.is_disk_polyomino(cells)


@pytest.mark.parametrize("n, corners", [(2, []), (3, []),
                                        (2, [(0, 0), (1, 0), (0, 0)]),
                                        (3, [(0, 0, 0), (0, 0, 0)])])
def test_bad_box_corners_raise_params_invalid(n, corners):
    with pytest.raises(ParamsInvalid):
        fa.box_complex(n, corners)


def test_grid_complex_refuses_empty_list():
    with pytest.raises(ParamsInvalid):
        fa.grid_complex([])
