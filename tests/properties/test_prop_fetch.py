"""Properties of two cold-path shortcuts: the icache's first fetch from
the page map, and the VFS path canonicalizer's no-op test.

:meth:`repro.cpu.icache.ICache.fetch_entry` slices a line window that
fits in one page straight from the page's memoized entry when that entry
allows EXEC, and takes the permission-checked ``read_bytes`` span loop
otherwise.  The reference is the same cache without a page map.  Each
case lays random code on an RX page followed by an RX, RW or unmapped
page, warms either page's entry or not, and fetches at every offset of
the first page and the head of the second (so page-tail lines straddle
and second-page lines hit a non-exec entry): the line or the exception,
the cached lines, their page index and the hit/miss counters must agree.

:func:`repro.kernel.vfs._canon` skips ``posixpath.normpath`` for paths
it cannot change; on paths built from ``/``, ``//``, ``.``, ``..``,
``a`` and ``.b`` it must still equal ``normpath``.
"""

import posixpath
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cpu.icache import ICache
from repro.errors import DecodeError, ProtectionKeyFault, SegmentationFault
from repro.kernel.vfs import _canon
from repro.memory import PAGE_SIZE, Prot
from repro.memory.address_space import AddressSpace

BASE = 0x40_0000
RX = Prot.READ | Prot.EXEC

#: Encodings of 1, 2, 5 and 10 bytes (nop, syscall, ret, callq *%rax,
#: mov $imm32, movabs $imm64) plus bytes that do not decode.
CHUNKS = (b"\x90", b"\x0f\x05", b"\xc3", b"\xff\xd0",
          b"\xb8\x01\x02\x03\x04", b"\x48\xb8" + bytes(range(8)),
          b"\x06", b"\xff")


def code_page(seed):
    """One page of random code, a pure function of *seed*."""
    rng = random.Random(seed)
    out = bytearray()
    while len(out) < PAGE_SIZE:
        out += rng.choice(CHUNKS)
    return bytes(out[:PAGE_SIZE])


def _space(code, tail, next_prot, pkey, warm):
    space = AddressSpace()
    space.mmap(BASE, PAGE_SIZE, RX, fixed=True)
    space.write_kernel(BASE, code)
    if pkey:
        # A non-default protection key: a fetch is not subject to PKU.
        space.pkey_mprotect(BASE, PAGE_SIZE, RX, pkey)
    if next_prot is not None:
        space.mmap(BASE + PAGE_SIZE, PAGE_SIZE, next_prot, fixed=True)
        space.write_kernel(BASE + PAGE_SIZE, tail)
    for page, flag in enumerate(warm):
        if flag:
            space.page_entry(BASE // PAGE_SIZE + page)
    return space


def _outcome(call):
    try:
        return ("ok", call())
    except (SegmentationFault, ProtectionKeyFault) as exc:
        return (type(exc), str(exc), exc.address, exc.access, exc.reason)
    except DecodeError as exc:
        return (type(exc), str(exc))


@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from((RX, Prot.READ | Prot.WRITE, None)),
       st.sampled_from((0, 3)), st.tuples(st.booleans(), st.booleans()))
@settings(max_examples=25, deadline=None)
def test_page_map_fetch_matches_read_bytes(seed, next_prot, pkey, warm):
    code, tail = code_page(seed), code_page(seed + 1)
    mapped = _space(code, tail, next_prot, pkey, warm)
    plain = _space(code, tail, next_prot, pkey, warm)
    via_map, reference = ICache(), ICache()
    addrs = range(BASE, BASE + PAGE_SIZE + 32)
    for _ in range(2):                       # misses, then hits
        for addr in addrs:
            got = _outcome(lambda: via_map.fetch_entry(
                addr, mapped.fetch, mapped._fast))
            want = _outcome(lambda: reference.fetch_entry(
                addr, plain.fetch))
            assert got == want, hex(addr)
    assert via_map._lines == reference._lines
    assert via_map._line_pages == reference._line_pages
    assert (via_map.hits, via_map.misses) == \
        (reference.hits, reference.misses)


SEGMENTS = st.sampled_from(("/", "//", ".", "..", "a", ".b"))


@given(st.lists(SEGMENTS, max_size=12))
@settings(max_examples=400, deadline=None)
def test_canon_matches_normpath(segments):
    path = "/" + "".join(segments)
    assert _canon(path) == posixpath.normpath(path)
