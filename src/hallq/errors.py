"""Exception hierarchy shared across the package."""

from __future__ import annotations


class HallqError(Exception):
    """Base for all errors raised deliberately by this package."""


class LabelError(HallqError):
    """Unknown or malformed isomorphism-class label."""


class RelationError(HallqError):
    """A representation violates the defining relation of the algebra."""


class WitnessError(HallqError):
    """A claimed submodule witness fails validation."""


class CeilingError(HallqError):
    """Requested computation exceeds a work bound, counted before the work
    starts: the subspaces the counting engine's search could visit, or the
    classes of an Ext^1 walk."""


class HypothesisError(HallqError):
    """The algebra identity assumed by an expansion check does not hold."""


class InterpolationError(HallqError):
    """Prime-indexed counts do not fit a single integer polynomial."""


class InternalInvariantError(HallqError):
    """An internal consistency check failed; indicates a bug, not bad input."""
