"""The quasi-self-similar wild Cantor set substrate in R^4.

Two model solid tubes (a round and a flat torus thickened to radius rho*b)
spawn m children each under rigid+scale similarities; the level-k system has
m^k tubes of scale b^k.  This package verifies the desk-checkable claims:
pairwise core distances, containment in the parent tube, cyclic Hopf
linking, and the exact-scale ledger.
"""

from .transforms import (
    Similarity4, PHI, PSI, identity, rotation, scaling, phi, psi,
)
from .tubes import NecklaceParams, Tube, TubeSystem, generate, child_tubes
from .geometry import (
    child_map, circle_frame, circle_points, dist_to_core, sample_core,
    sample_model_torus, tau_similarity,
)
from .verify import verify_disjointness, verify_containment, verify_linking
from .export import export_geometry
