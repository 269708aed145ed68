"""Property: a short invalidation drops exactly what a page scan drops.

:meth:`repro.cpu.icache.ICache.invalidate_range` probes the few line
start addresses that can overlap a short range instead of checking every
cached line on the range's pages.  The reference here is the page scan
it replaced.  Each case fills both caches with the same lines (dense
runs, so a page holds hundreds of lines, and lines that cross a page
end) and then applies the same invalidations, short rewrites and long
shootdowns alike; the cached lines and their page index must agree after
every one.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cpu.icache import ICache
from repro.errors import DecodeError
from repro.memory import PAGE_SIZE
from repro.memory.pages import page_index

#: Encodings of 1, 2, 5 and 10 bytes (nop, syscall, ret, callq *%rax,
#: mov $imm32, movabs $imm64); immediates are random bytes.
OPCODES = (b"\x90", b"\x0f\x05", b"\xc3", b"\xff\xd0", b"\xb8", b"\x48\xb8")
IMMEDIATE = {b"\xb8": 4, b"\x48\xb8": 8}
SPAN = 3 * PAGE_SIZE


class PageScanICache(ICache):
    """The reference: every cached line on the range's pages is checked."""

    def invalidate_range(self, start, length):
        end = start + length
        for page in range(page_index(start), page_index(end - 1) + 1):
            addrs = self._line_pages.get(page)
            if addrs:
                doomed = [addr for addr in addrs if addr < end
                          and start < addr + len(self._lines[addr][0])]
                for addr in doomed:
                    raw = self._lines.pop(addr)[0]
                    for p in range(page_index(addr),
                                   page_index(addr + len(raw) - 1) + 1):
                        lines = self._line_pages.get(p)
                        if lines is not None:
                            lines.discard(addr)
                            if not lines:
                                del self._line_pages[p]


def program(seed: int) -> bytes:
    rng = random.Random(seed)
    code = bytearray()
    while len(code) < SPAN:
        opcode = rng.choice(OPCODES)
        code += opcode + rng.randbytes(IMMEDIATE.get(opcode, 0))
    return bytes(code[:SPAN])


def fill(cache, code, addresses):
    def read(addr, n):
        return code[addr:addr + n]

    for addr in addresses:
        try:
            cache.fetch(addr, read)
        except DecodeError:
            pass


def state(cache):
    return set(cache._lines), {page: set(addrs) for page, addrs
                               in cache._line_pages.items()}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dense=st.tuples(st.integers(0, SPAN - 1), st.integers(0, 600)),
       scattered=st.lists(st.integers(0, SPAN - 1), max_size=200),
       ranges=st.lists(
           st.tuples(st.integers(0, 10**6), st.integers(-20, 20),
                     st.one_of(st.integers(1, 20),
                               st.integers(1, 2 * PAGE_SIZE))),
           min_size=1, max_size=12))
def test_probe_drops_what_the_page_scan_drops(seed, dense, scattered,
                                              ranges):
    """Each range starts near a fetched address (its anchor), so short
    rewrites land among cached lines and clip their ends."""
    code = program(seed)
    first, count = dense
    addresses = list(range(first, min(SPAN, first + count))) + scattered
    caches = ICache(), PageScanICache()
    for cache in caches:
        fill(cache, code, addresses)
    new, ref = caches
    assert state(new) == state(ref)
    for anchor, offset, length in ranges:
        start = offset + (addresses[anchor % len(addresses)]
                          if addresses else 0)
        for cache in caches:
            cache.invalidate_range(start, length)
        assert state(new) == state(ref), (start, length)
