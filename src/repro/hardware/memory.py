"""Process address spaces, registration, pin-down cache, NIC MMU/TLB.

User-level networks need the NIC to DMA directly into application
buffers, which requires (a) the pages to be pinned and (b) a
virtual-to-bus address translation.  The three interconnects differ:

- **InfiniBand (VAPI)** and **Myrinet (GM)** require explicit buffer
  registration.  Their MPI ports hide the cost behind a *pin-down cache*
  [Tezuka et al. 98]: buffers are registered on first use and
  de-registered lazily, so the cost is only paid when the application
  touches *new* buffers.  This is what the paper's buffer-reuse
  micro-benchmark (Figs. 7, 8) exposes.
- **Quadrics (Elan3)** needs no registration: the NIC has an MMU kept
  coherent by system software.  But the NIC's translation cache still
  misses on first touch of a page, and the miss is serviced by the host
  kernel — the paper observes a steep latency rise for Quadrics at 0 %
  buffer reuse across *all* sizes.

Buffers live in a simulated per-process virtual address space so that
reuse patterns (Table 4) can be tracked by address exactly like the
paper's modified MPICH logging did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PAGE_SIZE",
    "Buffer",
    "AddressSpace",
    "PinDownCache",
    "NicTlb",
    "RegistrationError",
]

PAGE_SIZE = 4096


class RegistrationError(RuntimeError):
    """Raised on invalid registration operations."""


class Buffer:
    """A typed application buffer in a simulated address space.

    ``data`` optionally carries a real numpy array (verification-scale
    app runs); paper-scale runs use placeholder buffers where only
    ``nbytes`` and ``addr`` matter for timing and profiling.
    """

    __slots__ = ("addr", "nbytes", "data", "space", "freed")

    def __init__(self, addr: int, nbytes: int, space: "AddressSpace", data: Optional[np.ndarray] = None):
        self.addr = addr
        self.nbytes = nbytes
        self.space = space
        self.data = data
        self.freed = False

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    def pages(self) -> range:
        """Page numbers spanned by this buffer."""
        return range(*_page_span(self))

    @property
    def npages(self) -> int:
        return len(self.pages())

    def view(self, offset: int, nbytes: int) -> "Buffer":
        """A sub-buffer sharing this buffer's address range (and data)."""
        if offset < 0 or offset + nbytes > self.nbytes:
            raise ValueError(
                f"view [{offset}, {offset + nbytes}) outside buffer of {self.nbytes} bytes"
            )
        sub = None
        if self.data is not None:
            flat = self.data.reshape(-1).view("uint8")
            sub = flat[offset:offset + nbytes]
        return Buffer(self.addr + offset, nbytes, self.space, sub)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Buffer 0x{self.addr:x}+{self.nbytes}>"


class AddressSpace:
    """Page-aligned allocator for one process's simulated address space.

    A simple bump allocator with an exact-size free list: freed blocks of
    size ``n`` are recycled for later ``n``-byte allocations.  That is
    enough to make "allocate a fresh buffer each iteration" (low reuse)
    and "reuse one buffer" (high reuse) behave like the paper's
    benchmark, while keeping allocation O(1).
    """

    def __init__(self, rank: int, base: int = 0x1000_0000) -> None:
        self.rank = rank
        self._next = base
        self._free: Dict[int, list] = {}
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self.total_allocs = 0

    def _aligned_size(self, nbytes: int) -> int:
        return max(1, (nbytes + PAGE_SIZE - 1)) // PAGE_SIZE * PAGE_SIZE

    def alloc(self, nbytes: int, data: Optional[np.ndarray] = None, recycle: bool = True) -> Buffer:
        """Allocate a page-aligned buffer of ``nbytes``.

        ``recycle=False`` forces a fresh address range even if a freed
        block of the right size exists — used by the buffer-reuse
        micro-benchmark to emulate a 0 %-reuse application.
        """
        if nbytes < 0:
            raise ValueError("negative allocation")
        size = self._aligned_size(nbytes)
        bucket = self._free.get(size)
        if recycle and bucket:
            addr = bucket.pop()
        else:
            addr = self._next
            self._next += size
        self.allocated_bytes += size
        self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
        self.total_allocs += 1
        return Buffer(addr, nbytes, self, data)

    def alloc_array(self, shape, dtype="float64", recycle: bool = True) -> Buffer:
        import numpy as np

        arr = np.zeros(shape, dtype=dtype)
        return self.alloc(arr.nbytes, data=arr, recycle=recycle)

    def free(self, buf: Buffer) -> None:
        if buf.space is not self:
            raise ValueError("buffer belongs to a different address space")
        if buf.freed:
            raise ValueError("double free")
        buf.freed = True
        size = self._aligned_size(buf.nbytes)
        self._free.setdefault(size, []).append(buf.addr)
        self.allocated_bytes -= size


class _PageRuns:
    """An LRU-ordered page set stored as runs of consecutive pages.

    Both caches below touch whole buffers: every page of a buffer moves
    to the most-recently-used end in ascending address order.  The page
    order is therefore the concatenation of ``runs`` — ``(start, end)``
    page ranges, least recently used first — and a lookup costs
    O(runs) instead of one dict move per page.  It reproduces exactly
    the order a per-page ``OrderedDict`` walk produces: the touched
    range leaves every run it overlaps (the run's remaining pieces keep
    its place) and is appended at the end, merged with the last run
    when the addresses continue it.
    """

    __slots__ = ("runs", "npages")

    def __init__(self) -> None:
        self.runs: List[Tuple[int, int]] = []
        self.npages = 0

    def touch(self, first: int, end: int) -> int:
        """Move pages ``[first, end)`` to the MRU end; return how many
        of them were not in the set before."""
        runs = self.runs
        if runs:
            s, e = runs[-1]
            if e == end and s <= first:
                return 0  # already the MRU suffix, in order
        # cut the range out of every run it overlaps, newest first; the
        # runs are disjoint, so the scan ends once all of it is found
        want = end - first
        present = 0
        for i in range(len(runs) - 1, -1, -1):
            s, e = runs[i]
            if s >= end or e <= first:
                continue
            if s < first:
                if end < e:  # the run holds the whole range
                    runs[i:i + 1] = ((s, first), (end, e))
                    present = want
                    break
                runs[i] = (s, first)
                present += e - first
            elif end < e:
                runs[i] = (end, e)
                present += end - s
            else:
                del runs[i]
                present += e - s
            if present == want:
                break
        if runs and runs[-1][1] == first:
            runs[-1] = (runs[-1][0], end)
        else:
            runs.append((first, end))
        missing = want - present
        self.npages += missing
        return missing

    def evict(self, keep: int) -> int:
        """Drop least recently used pages until at most ``keep`` remain;
        return how many were dropped."""
        over = self.npages - keep
        if over <= 0:
            return 0
        runs = self.runs
        k = over
        i = 0
        while k:
            s, e = runs[i]
            if e - s <= k:
                k -= e - s
                i += 1
            else:
                runs[i] = (s + k, e)
                k = 0
        del runs[:i]
        self.npages = keep
        return over

    def count(self, first: int, end: int) -> int:
        """How many pages of ``[first, end)`` are in the set."""
        n = 0
        for s, e in self.runs:
            if s < end and first < e:
                n += (e if e < end else end) - (s if s > first else first)
        return n

    def clear(self) -> None:
        self.runs.clear()
        self.npages = 0


def _page_span(buf: Buffer) -> Tuple[int, int]:
    """``[first, end)`` page range of ``buf`` (a zero-byte buffer still
    spans the page it points into)."""
    addr = buf.addr
    return (addr // PAGE_SIZE,
            (addr + max(buf.nbytes, 1) - 1) // PAGE_SIZE + 1)


class PinDownCache:
    """LRU pin-down cache for registered memory (VAPI / GM style).

    ``lookup(buf)`` returns the host-side cost in microseconds of making
    the buffer DMA-able: zero-ish on a full hit, registration cost for
    every missing page otherwise.  Eviction (when pinned bytes exceed
    ``capacity_bytes``) charges the lazy de-registration cost.
    """

    def __init__(
        self,
        capacity_bytes: int,
        register_base_us: float,
        register_page_us: float,
        deregister_page_us: float,
        hit_us: float = 0.05,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.register_base_us = register_base_us
        self.register_page_us = register_page_us
        self.deregister_page_us = deregister_page_us
        self.hit_us = hit_us
        self._pages = _PageRuns()
        self.hits = 0
        self.misses = 0
        self.evicted_pages = 0

    @property
    def pinned_bytes(self) -> int:
        return self._pages.npages * PAGE_SIZE

    def lookup(self, buf: Buffer) -> float:
        """Cost (µs) to ensure ``buf`` is registered; updates the cache."""
        missing = self._pages.touch(*_page_span(buf))
        if missing:
            self.misses += 1
            cost = self.register_base_us + missing * self.register_page_us
        else:
            self.hits += 1
            cost = self.hit_us
        # Lazy de-registration of LRU pages beyond capacity, charged one
        # page at a time (the float sum must not change with batching).
        evicted = self._pages.evict(self.capacity_bytes // PAGE_SIZE)
        if evicted:
            self.evicted_pages += evicted
            dereg = self.deregister_page_us
            for _ in range(evicted):
                cost += dereg
        return cost

    def contains(self, buf: Buffer) -> bool:
        first, end = _page_span(buf)
        return self._pages.count(first, end) == end - first

    def clear(self) -> None:
        self._pages.clear()


class NicTlb:
    """NIC-resident translation cache (Elan3 MMU model).

    Quadrics needs no registration, but the Elan's on-NIC MMU must hold a
    translation for every page it touches; on a miss the translations are
    installed by host system software: a fixed trap cost per faulting
    lookup plus a (small, batched) per-page table update.  ``lookup``
    returns the host-side stall in microseconds.
    """

    def __init__(self, entries: int, miss_base_us: float = 10.0,
                 miss_page_us: float = 13.0, bulk_threshold_pages: int = 32,
                 bulk_page_us: float = 0.5, hit_us: float = 0.0) -> None:
        self.entries = entries
        self.miss_base_us = miss_base_us
        self.miss_page_us = miss_page_us
        self.bulk_threshold_pages = bulk_threshold_pages
        self.bulk_page_us = bulk_page_us
        self.hit_us = hit_us
        self._tlb = _PageRuns()
        self.hits = 0
        self.misses = 0

    def lookup(self, buf: Buffer) -> float:
        """Miss cost: a trap plus per-page installs, with large regions
        switching to a batched fill rate (one trap maps the whole run of
        pages) — so message-sized buffers pay dearly (Figs. 7-8) while
        gigantic working sets stay affordable."""
        missing = self._tlb.touch(*_page_span(buf))
        self._tlb.evict(self.entries)
        if missing:
            self.misses += 1
            capped = min(missing, self.bulk_threshold_pages)
            bulk = missing - capped
            return self.miss_base_us + capped * self.miss_page_us + bulk * self.bulk_page_us
        self.hits += 1
        return self.hit_us

    def clear(self) -> None:
        self._tlb.clear()
