"""MPI datatypes: predefined types plus contiguous/vector constructors.

Buffers carry real arrays only in verify-mode runs, but the datatype
layer matters for two things the paper's workloads exercise:

- **sizing**: NPB codes send "count x MPI_DOUBLE_PRECISION"; datatypes
  make those sizes explicit and checkable;
- **non-contiguous transfers**: MG's face exchanges and FT's transposes
  move strided sections; a vector datatype carries the pack/unpack cost
  model (an extra host copy per side) that real MPI implementations pay
  for derived types.

Usage::

    from repro.mpi.datatypes import DOUBLE, vector

    comm.send_typed(buf, count=100, datatype=DOUBLE, dest=1)
    col = vector(count=64, blocklen=1, stride=64, base=DOUBLE)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Datatype", "BYTE", "CHAR", "INT", "LONG", "FLOAT", "DOUBLE",
    "COMPLEX", "ITEMSIZE", "contiguous", "vector",
]


@dataclass(frozen=True)
class Datatype:
    """An MPI datatype: size, extent and contiguity.

    ``size`` is the number of meaningful bytes per element; ``extent``
    the span it covers in memory.  ``contiguous`` types map straight to
    DMA; derived non-contiguous types must be packed (one host copy on
    each side, charged by the communicator's typed operations).
    ``np_dtype`` names the numpy dtype of one element (``"float64"``).
    """

    name: str
    size: int
    extent: int
    np_dtype: Optional[str] = None
    contiguous: bool = True

    def __post_init__(self):
        if self.size <= 0 or self.extent < self.size:
            raise ValueError(f"bad datatype geometry: {self}")

    def __mul__(self, count: int) -> int:
        """Total payload bytes for ``count`` elements."""
        return self.size * int(count)

    def __repr__(self) -> str:  # pragma: no cover
        c = "" if self.contiguous else ", non-contiguous"
        return f"<Datatype {self.name}: {self.size}B/{self.extent}B{c}>"


BYTE = Datatype("MPI_BYTE", 1, 1, "uint8")
CHAR = Datatype("MPI_CHAR", 1, 1, "int8")
INT = Datatype("MPI_INT", 4, 4, "int32")
LONG = Datatype("MPI_LONG", 8, 8, "int64")
FLOAT = Datatype("MPI_FLOAT", 4, 4, "float32")
DOUBLE = Datatype("MPI_DOUBLE", 8, 8, "float64")
COMPLEX = Datatype("MPI_DOUBLE_COMPLEX", 16, 16, "complex128")

#: bytes per element, by numpy dtype name, for sizing buffers without numpy
ITEMSIZE = {t.np_dtype: t.size for t in (BYTE, CHAR, INT, LONG, FLOAT, DOUBLE, COMPLEX)}


def contiguous(count: int, base: Datatype, name: str = "") -> Datatype:
    """``count`` consecutive elements of ``base`` (MPI_Type_contiguous)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return Datatype(
        name or f"contig({count},{base.name})",
        size=base.size * count,
        extent=base.extent * count,
        np_dtype=base.np_dtype,
        contiguous=base.contiguous,
    )


def vector(count: int, blocklen: int, stride: int, base: Datatype,
           name: str = "") -> Datatype:
    """``count`` blocks of ``blocklen`` elements, ``stride`` apart
    (MPI_Type_vector).  Non-contiguous unless the stride closes ranks.
    """
    if count < 1 or blocklen < 1 or stride < blocklen:
        raise ValueError("need count>=1, blocklen>=1, stride>=blocklen")
    is_contig = (stride == blocklen) and base.contiguous
    return Datatype(
        name or f"vector({count}x{blocklen}/{stride},{base.name})",
        size=base.size * blocklen * count,
        extent=base.extent * (stride * (count - 1) + blocklen),
        np_dtype=base.np_dtype,
        contiguous=is_contig,
    )
