"""Property: a short invalidation drops exactly what a page scan drops,
and the shift-based page index agrees with the ``range`` one.

:meth:`repro.cpu.icache.ICache.invalidate_range` probes the few line
start addresses that can overlap a short range instead of checking every
cached line on the range's pages, and lines and blocks are indexed by
page with shifts.  The reference here is the page scan and the
``range(page_index(...))`` indexing they replaced.  Each case fills both
caches with the same lines (dense runs, so a page holds hundreds of
lines, and lines that cross a page end) and blocks, and then applies the
same invalidations, short rewrites and long shootdowns alike; the cached
lines, the cached blocks and both page indexes must agree after every
one.  Lines and blocks that straddle a page end get their own property:
indexed on both pages, dropped by a store on either.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cpu.icache import LINE_SPAN, Block, ICache, decode_line
from repro.errors import DecodeError
from repro.memory import PAGE_SIZE
from repro.memory.pages import page_index

#: Encodings of 1, 2, 5 and 10 bytes (nop, syscall, ret, callq *%rax,
#: mov $imm32, movabs $imm64); immediates are random bytes.
OPCODES = (b"\x90", b"\x0f\x05", b"\xc3", b"\xff\xd0", b"\xb8", b"\x48\xb8")
IMMEDIATE = {b"\xb8": 4, b"\x48\xb8": 8}
SPAN = 3 * PAGE_SIZE


class PageScanICache(ICache):
    """The reference: lines and blocks indexed by ``range(page_index…)``
    plus ``setdefault``, and every cached line on the range's pages
    checked on invalidation."""

    def fetch_entry(self, address, read_bytes):
        line = self._lines.get(address)
        if line is not None:
            return line
        line = decode_line(read_bytes(address, LINE_SPAN))
        self._lines[address] = line
        for page in range(page_index(address),
                          page_index(address + len(line[0]) - 1) + 1):
            self._line_pages.setdefault(page, set()).add(address)
        return line

    def install_block(self, block):
        old = self._blocks.get(block.entry)
        if old is not None:
            self._drop_block(old)
        self._blocks[block.entry] = block
        for page in range(page_index(block.entry),
                          page_index(block.end - 1) + 1):
            self._blocks_by_page.setdefault(page, set()).add(block.entry)

    def _drop_block(self, block):
        block.valid = False
        if self._blocks.get(block.entry) is block:
            del self._blocks[block.entry]
        for page in range(page_index(block.entry),
                          page_index(block.end - 1) + 1):
            entries = self._blocks_by_page.get(page)
            if entries is not None:
                entries.discard(block.entry)
                if not entries:
                    del self._blocks_by_page[page]

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
        for page in range(page_index(start), page_index(end - 1) + 1):
            entries = self._blocks_by_page.get(page)
            if entries:
                for entry in [e for e in entries
                              if e < end and start < self._blocks[e].end]:
                    self._drop_block(self._blocks[entry])


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


def blocks(code, entries, length):
    """Straight-line blocks of up to *length* instructions decoded from
    *code* at each entry (a fresh list per cache: installing consumes)."""
    made = []
    for entry in entries:
        steps, rip = [], entry
        while len(steps) < length and rip < SPAN:
            try:
                raw, insn, fn = decode_line(code[rip:rip + LINE_SPAN])
            except DecodeError:
                break
            rip += len(raw)
            steps.append((rip, fn, insn))
        if steps:
            made.append(Block(entry, rip, steps))
    return made


def install(cache, code, entries, length):
    for block in blocks(code, entries, length):
        cache.install_block(block)


def state(cache):
    return (set(cache._lines),
            {page: set(addrs) for page, addrs in cache._line_pages.items()},
            {entry: block.end for entry, block in cache._blocks.items()},
            {page: set(entries) for page, entries
             in cache._blocks_by_page.items()})


def pages_of(start, end):
    return set(range(page_index(start), page_index(end - 1) + 1))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       dense=st.tuples(st.integers(0, SPAN - 1), st.integers(0, 600)),
       scattered=st.lists(st.integers(0, SPAN - 1), max_size=200),
       entries=st.lists(st.integers(0, SPAN - 1), max_size=40),
       block_len=st.integers(1, 64),
       ranges=st.lists(
           st.tuples(st.integers(0, 10**6), st.integers(-20, 20),
                     st.one_of(st.integers(1, 20),
                               st.integers(1, 2 * PAGE_SIZE))),
           min_size=1, max_size=12))
def test_probe_drops_what_the_page_scan_drops(seed, dense, scattered,
                                              entries, block_len, ranges):
    """Each range starts near a fetched address (its anchor), so short
    rewrites land among cached lines and clip their ends."""
    code = program(seed)
    first, count = dense
    addresses = list(range(first, min(SPAN, first + count))) + scattered
    caches = ICache(), PageScanICache()
    for cache in caches:
        fill(cache, code, addresses)
        install(cache, code, entries, block_len)
    new, ref = caches
    assert state(new) == state(ref)
    for anchor, offset, length in ranges:
        start = offset + (addresses[anchor % len(addresses)]
                          if addresses else 0)
        for cache in caches:
            cache.invalidate_range(start, length)
        assert state(new) == state(ref), (start, length)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       boundary=st.sampled_from((PAGE_SIZE, 2 * PAGE_SIZE)),
       cross=st.integers(1, 9),
       before=st.integers(1, 300),
       block_len=st.integers(1, 64),
       second_page=st.booleans(),
       pick=st.integers(0, 10**6),
       byte=st.integers(0, 10**6))
def test_straddlers_indexed_on_both_pages_dropped_from_either(
        seed, boundary, cross, before, block_len, second_page, pick, byte):
    """Lines and blocks that cross *boundary* sit on both pages' index;
    a one-byte store into one of them, on either page, drops it.  A
    10-byte ``movabs`` planted *cross* bytes before the boundary makes
    sure there is at least one of each."""
    code = bytearray(program(seed))
    planted = boundary - cross
    code[planted:planted + 10] = b"\x48\xb8" + bytes(range(8))
    code = bytes(code)
    near = list(range(boundary - LINE_SPAN, boundary))
    entries = [*range(boundary - before, boundary), planted]
    caches = ICache(), PageScanICache()
    for cache in caches:
        fill(cache, code, near)
        install(cache, code, entries, block_len)
    new, ref = caches
    assert state(new) == state(ref)
    lines = [(addr, addr + len(line[0]), new._line_pages)
             for addr, line in new._lines.items()
             if addr < boundary < addr + len(line[0])]
    blocks_ = [(entry, block.end, new._blocks_by_page)
               for entry, block in new._blocks.items()
               if entry < boundary < block.end]
    assert (planted, planted + 10, new._line_pages) in lines
    assert blocks_ and blocks_[-1][0] == planted
    for start, end, index in lines + blocks_:
        for page in pages_of(start, end):
            assert start in index[page]
    start, end, index = (lines + blocks_)[pick % len(lines + blocks_)]
    lo, hi = (boundary, end) if second_page else (start, boundary)
    store = lo + byte % (hi - lo)
    for cache in caches:
        cache.invalidate_range(store, 1)
    assert state(new) == state(ref)
    assert all(start not in entries for entries in index.values())
