"""cubalex: cubical complexes, combinatorial Alexander maps, and the
quasi-self-similar wild Cantor set substrate in R^4."""

__version__ = "0.1.0"

from . import alexander, complex_core, factories, refinement, shelling, weaving
from . import necklace  # noqa: F401
from .complex_core import (
    Complex, build_complex, canonical_triangulation, from_json, is_isomorphic,
)
