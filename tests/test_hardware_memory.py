"""Tests for address spaces, buffers, pin-down cache and NIC TLB."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.memory import (
    PAGE_SIZE,
    AddressSpace,
    Buffer,
    NicTlb,
    PinDownCache,
)


class TestAddressSpace:
    def test_alloc_is_page_aligned(self):
        space = AddressSpace(0)
        for n in (1, 100, PAGE_SIZE, PAGE_SIZE + 1):
            buf = space.alloc(n)
            assert buf.addr % PAGE_SIZE == 0
            assert buf.nbytes == n

    def test_fresh_allocations_do_not_overlap(self):
        space = AddressSpace(0)
        bufs = [space.alloc(1000, recycle=False) for _ in range(50)]
        spans = sorted((b.addr, b.addr + max(b.nbytes, 1)) for b in bufs)
        for (a0, a1), (b0, _b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_recycle_reuses_address(self):
        space = AddressSpace(0)
        b1 = space.alloc(5000)
        addr = b1.addr
        space.free(b1)
        b2 = space.alloc(5000)
        assert b2.addr == addr

    def test_no_recycle_forces_fresh_address(self):
        space = AddressSpace(0)
        b1 = space.alloc(5000)
        addr = b1.addr
        space.free(b1)
        b2 = space.alloc(5000, recycle=False)
        assert b2.addr != addr

    def test_double_free_rejected(self):
        space = AddressSpace(0)
        b = space.alloc(10)
        space.free(b)
        with pytest.raises(ValueError):
            space.free(b)

    def test_foreign_buffer_free_rejected(self):
        s1, s2 = AddressSpace(0), AddressSpace(1)
        b = s1.alloc(10)
        with pytest.raises(ValueError):
            s2.free(b)

    def test_alloc_array_carries_data(self):
        space = AddressSpace(0)
        buf = space.alloc_array((4, 4), dtype=np.float32)
        assert buf.data.shape == (4, 4)
        assert buf.nbytes == 64

    def test_accounting(self):
        space = AddressSpace(0)
        b = space.alloc(2 * PAGE_SIZE)
        assert space.allocated_bytes == 2 * PAGE_SIZE
        space.free(b)
        assert space.allocated_bytes == 0
        assert space.peak_bytes == 2 * PAGE_SIZE

    @given(sizes=st.lists(st.integers(min_value=1, max_value=10 * PAGE_SIZE),
                          min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_property_live_buffers_never_overlap(self, sizes):
        space = AddressSpace(0)
        live = []
        for i, n in enumerate(sizes):
            buf = space.alloc(n)
            live.append(buf)
            if i % 3 == 2:
                space.free(live.pop(0))
        spans = sorted((b.addr, b.addr + max(b.nbytes, 1)) for b in live)
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0


class TestBuffer:
    def test_pages_span(self):
        space = AddressSpace(0)
        buf = space.alloc(PAGE_SIZE * 2 + 1)
        assert buf.npages == 3

    def test_view_shares_data(self):
        space = AddressSpace(0)
        buf = space.alloc_array(16, dtype=np.uint8)
        view = buf.view(4, 8)
        view.data[:] = 7
        assert (buf.data[4:12] == 7).all()
        assert view.addr == buf.addr + 4

    def test_view_bounds_checked(self):
        space = AddressSpace(0)
        buf = space.alloc(16)
        with pytest.raises(ValueError):
            buf.view(10, 10)


class TestPinDownCache:
    def make(self, capacity=10 * PAGE_SIZE):
        return PinDownCache(capacity_bytes=capacity, register_base_us=20.0,
                            register_page_us=5.0, deregister_page_us=1.0)

    def test_first_touch_pays_full_cost(self):
        cache = self.make()
        space = AddressSpace(0)
        buf = space.alloc(2 * PAGE_SIZE)
        cost = cache.lookup(buf)
        assert cost == pytest.approx(20.0 + 2 * 5.0)
        assert cache.misses == 1

    def test_reuse_is_nearly_free(self):
        cache = self.make()
        buf = AddressSpace(0).alloc(PAGE_SIZE)
        cache.lookup(buf)
        assert cache.lookup(buf) == pytest.approx(cache.hit_us)
        assert cache.hits == 1

    def test_partial_overlap_registers_missing_pages_only(self):
        cache = self.make()
        space = AddressSpace(0)
        big = space.alloc(4 * PAGE_SIZE)
        cache.lookup(big.view(0, 2 * PAGE_SIZE))
        cost = cache.lookup(big)  # 2 pages cached, 2 new
        assert cost == pytest.approx(20.0 + 2 * 5.0)

    def test_lru_eviction_charges_dereg(self):
        cache = self.make(capacity=3 * PAGE_SIZE)
        space = AddressSpace(0)
        b1 = space.alloc(2 * PAGE_SIZE)
        b2 = space.alloc(2 * PAGE_SIZE)
        cache.lookup(b1)
        cost = cache.lookup(b2)  # exceeds capacity: evict oldest page
        assert cache.evicted_pages == 1
        assert cost == pytest.approx(20.0 + 2 * 5.0 + 1 * 1.0)
        assert cache.pinned_bytes <= 3 * PAGE_SIZE

    def test_contains(self):
        cache = self.make()
        buf = AddressSpace(0).alloc(PAGE_SIZE)
        assert not cache.contains(buf)
        cache.lookup(buf)
        assert cache.contains(buf)

    @given(seq=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_property_pinned_bytes_never_exceeds_capacity(self, seq):
        cache = self.make(capacity=4 * PAGE_SIZE)
        space = AddressSpace(0)
        bufs = [space.alloc(PAGE_SIZE, recycle=False) for _ in range(8)]
        for i in seq:
            cache.lookup(bufs[i])
            assert cache.pinned_bytes <= 4 * PAGE_SIZE


class TestNicTlb:
    def test_miss_then_hit(self):
        tlb = NicTlb(entries=16, miss_base_us=12.0, miss_page_us=1.5)
        buf = AddressSpace(0).alloc(2 * PAGE_SIZE)
        assert tlb.lookup(buf) == pytest.approx(12.0 + 2 * 1.5)
        assert tlb.lookup(buf) == pytest.approx(0.0)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_bulk_fill_rate_beyond_threshold(self):
        tlb = NicTlb(entries=1 << 20, miss_base_us=10.0, miss_page_us=13.0,
                     bulk_threshold_pages=32, bulk_page_us=0.5)
        huge = AddressSpace(0).alloc(1000 * PAGE_SIZE)
        cost = tlb.lookup(huge)
        assert cost == pytest.approx(10.0 + 32 * 13.0 + 968 * 0.5)
        # far cheaper than the naive per-page fault cost
        assert cost < 1000 * 13.0 / 10

    def test_capacity_eviction_causes_re_miss(self):
        tlb = NicTlb(entries=2, miss_base_us=10.0, miss_page_us=1.0)
        space = AddressSpace(0)
        a = space.alloc(PAGE_SIZE, recycle=False)
        b = space.alloc(PAGE_SIZE, recycle=False)
        c = space.alloc(PAGE_SIZE, recycle=False)
        tlb.lookup(a)
        tlb.lookup(b)
        tlb.lookup(c)  # evicts a
        assert tlb.lookup(a) == pytest.approx(11.0)


class _PageWalkReference:
    """Both caches as one ``OrderedDict`` entry per page, walked page by
    page: the model the run-based caches must reproduce exactly."""

    def __init__(self):
        self.pages = OrderedDict()
        self.hits = self.misses = self.evicted_pages = 0

    def touch(self, buf):
        missing = 0
        for page in buf.pages():
            if page in self.pages:
                self.pages.move_to_end(page)
            else:
                missing += 1
                self.pages[page] = None
        return missing

    def pin_lookup(self, c, buf):
        missing = self.touch(buf)
        cost = 0.0
        if missing:
            self.misses += 1
            cost += c.register_base_us + missing * c.register_page_us
        else:
            self.hits += 1
            cost += c.hit_us
        while len(self.pages) * PAGE_SIZE > c.capacity_bytes:
            self.pages.popitem(last=False)
            self.evicted_pages += 1
            cost += c.deregister_page_us
        return cost

    def tlb_lookup(self, t, buf):
        missing = self.touch(buf)
        while len(self.pages) > t.entries:
            self.pages.popitem(last=False)
        if missing:
            self.misses += 1
            capped = min(missing, t.bulk_threshold_pages)
            return (t.miss_base_us + capped * t.miss_page_us
                    + (missing - capped) * t.bulk_page_us)
        self.hits += 1
        return t.hit_us


def _page_order(runs):
    return [p for s, e in runs.runs for p in range(s, e)]


#: one step: ``None`` clears the cache, else (first page, byte offset
#: into it, nbytes) — spans reach past the caches' 6-page capacity
_STEPS = st.lists(
    st.one_of(st.none(),
              st.tuples(st.integers(0, 24), st.integers(0, PAGE_SIZE - 1),
                        st.integers(0, 9 * PAGE_SIZE))),
    min_size=1, max_size=80)


class TestRunCachesMatchPageWalk:
    """Randomized equivalence of the run-based LRU and a page walk:
    overlapping, adjacent, repeated and over-capacity buffers, clear()."""

    @staticmethod
    def _buffers(steps):
        space = AddressSpace(0)
        return [None if step is None else
                Buffer(step[0] * PAGE_SIZE + step[1], step[2], space)
                for step in steps]

    @given(steps=_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_pin_down_cache(self, steps):
        cache = PinDownCache(capacity_bytes=6 * PAGE_SIZE + 100,
                             register_base_us=20.0, register_page_us=5.3,
                             deregister_page_us=0.7, hit_us=0.05)
        ref = _PageWalkReference()
        probes = [Buffer(p * PAGE_SIZE, PAGE_SIZE, None) for p in range(36)]
        for buf in self._buffers(steps):
            if buf is None:
                cache.clear()
                ref.pages.clear()
                continue
            assert cache.lookup(buf) == ref.pin_lookup(cache, buf)
            assert (cache.hits, cache.misses, cache.evicted_pages) == \
                (ref.hits, ref.misses, ref.evicted_pages)
            assert cache.pinned_bytes == len(ref.pages) * PAGE_SIZE
            assert _page_order(cache._pages) == list(ref.pages)
            for probe in probes + [buf]:
                assert cache.contains(probe) == all(
                    p in ref.pages for p in probe.pages())

    @given(steps=_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_nic_tlb(self, steps):
        tlb = NicTlb(entries=6, miss_base_us=10.0, miss_page_us=13.0,
                     bulk_threshold_pages=3, bulk_page_us=0.5, hit_us=0.01)
        ref = _PageWalkReference()
        for buf in self._buffers(steps):
            if buf is None:
                tlb.clear()
                ref.pages.clear()
                continue
            assert tlb.lookup(buf) == ref.tlb_lookup(tlb, buf)
            assert (tlb.hits, tlb.misses) == (ref.hits, ref.misses)
            assert _page_order(tlb._tlb) == list(ref.pages)
