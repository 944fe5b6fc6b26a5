"""MPI constants: wildcards and reduction operations."""

from __future__ import annotations

__all__ = ["ANY_SOURCE", "ANY_TAG", "SUM", "PROD", "MAX", "MIN", "LAND", "BAND", "Op"]

#: match any sender
ANY_SOURCE = -1
#: match any tag
ANY_TAG = -1


class Op:
    """A reduction operation, named after the numpy ufunc that applies it.

    Only a reduction over real data calls the ufunc, so numpy is
    imported there and not when the operation is defined.
    """

    def __init__(self, name: str, ufunc: str) -> None:
        self.name = name
        self.ufunc = ufunc

    def __call__(self, a, b):
        """Reduce two arrays (or scalars) elementwise."""
        import numpy as np

        return getattr(np, self.ufunc)(a, b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Op {self.name}>"


SUM = Op("sum", "add")
PROD = Op("prod", "multiply")
MAX = Op("max", "maximum")
MIN = Op("min", "minimum")
LAND = Op("land", "logical_and")
BAND = Op("band", "bitwise_and")
