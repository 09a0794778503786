"""Exception hierarchy shared by all cubalex modules."""

import numbers


class CubalexError(Exception):
    """Base class for all domain errors."""


# -- parameters and input files ----------------------------------------------

class ParamsInvalid(CubalexError):
    pass


def check_count(name, value, least):
    """ParamsInvalid unless value is an integer >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ParamsInvalid(f"{name} = {value!r}, need an integer >= {least}")


def json_fields(data, what, *keys):
    """data's values at `keys`; ParamsInvalid, naming `what`, unless data
    is a JSON object holding them all."""
    if not isinstance(data, dict):
        raise ParamsInvalid(f"{what} is not a JSON object")
    for key in keys:
        if key not in data:
            raise ParamsInvalid(f"{what} lacks key {key!r}")
    return [data[key] for key in keys]


# -- complex construction / validation ------------------------------------

class MissingFace(CubalexError):
    pass


class IllegalIntersection(CubalexError):
    """Two cubes intersect in something that is not a common cube."""


class FaceOveruse(CubalexError):
    """An (n-1)-simplex is a face of more than two n-simplices."""


class NotCubical(CubalexError):
    pass


class UnknownVertex(CubalexError):
    pass


class NotACell(CubalexError):
    """Heuristic cell check failed (Euler characteristic / boundary)."""


# -- Alexander labelings ----------------------------------------------------

class OddCycle(CubalexError):
    """Adjacency graph is not bipartite: no parity function exists."""

    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = cycle or []


class LabelClash(CubalexError):
    """Some n-simplex does not carry all n+1 labels."""


class HasBoundary(CubalexError):
    pass


class BadCenterLabel(CubalexError):
    pass


class UnmatchedSimplex(CubalexError):
    pass


class NonSimplicialStar(CubalexError):
    pass


class BoundaryViolation(CubalexError):
    pass


# -- shelling ----------------------------------------------------------------

class NotAPermutation(CubalexError):
    pass


# -- refinement / molecules ---------------------------------------------------

class DuplicateMaxAtom(CubalexError):
    pass


class BadAttachment(CubalexError):
    pass


class NotATree(CubalexError):
    pass


class CubeNotInMolecule(CubalexError):
    pass


class NoDisjointCollars(CubalexError):
    pass


# -- weaving -------------------------------------------------------------------

class InconsistentFaces(CubalexError):
    pass


class ColorComponentWithoutRoot(CubalexError):
    pass


# -- necklace --------------------------------------------------------------------

class MinimizationNotConverged(CubalexError):
    pass


class SamplingBudgetExceeded(CubalexError):
    pass


class IntegralNotConverged(CubalexError):
    pass
