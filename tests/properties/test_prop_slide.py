"""Property: the nop slide lands where a regex match per page lands.

:func:`repro.cpu.dispatch.slide_nops` reads a page in place when the
environment's page map holds an executable entry for it, and through
``mem_fetch`` otherwise; either way it takes the landing from a constant
compare of the page's bytes and runs the regex only over what the
compare leaves.  The reference here is the slide it replaced: one
``\\x90*`` match per fetched page, crossing into the next page only when
the rest of the page was all nops, and stopping at a fetch fault.  The
cases cover bytes stored anywhere in the sled, runs that end exactly at
the page end, and next pages that are executable, non-executable or
unmapped, each with no page map, a cold one and a warm one; then the
execute-only trampoline page (fetch is exempt from PKU) and an entry
evicted by ``mprotect`` between two slides.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cpu import dispatch
from repro.cpu.state import CpuContext
from repro.errors import ProtectionKeyFault, SegmentationFault
from repro.interposers.base import SLED_SIZE, TRAMPOLINE_PKEY
from repro.memory import AddressSpace, PAGE_SIZE, Prot
from repro.memory.pku import xom_pkru_for

RX = Prot.READ | Prot.EXEC
RW = Prot.READ | Prot.WRITE
NOP = 0x90
TAIL = bytes([0xF1, 0x07, 0x00, 0xC3, 0xC3, 0xC3])  # any non-nop tail
_REFERENCE_RUN = re.compile(rb"\x90*").match


#: How the slide finds the page bytes: ``fetch`` — an environment with
#: no page map, every page through ``mem_fetch``; ``cold`` — a page map
#: with no entries yet, filled by the first fetch of each page; ``warm``
#: — a page map already holding every mapped page's entry.
PAGE_MAPS = ("fetch", "cold", "warm")


class FetchEnv:
    def __init__(self, pages, page_map="fetch"):
        self.space = AddressSpace()
        for addr, data, prot, *pkey in pages:
            self.space.mmap(addr, PAGE_SIZE, RW, name=f"p{addr:#x}",
                            fixed=True)
            self.space.write_kernel(addr, data)
            self.space.pkey_mprotect(addr, PAGE_SIZE, prot,
                                     pkey=pkey[0] if pkey else 0)
        self.space._fast.clear()
        if page_map != "fetch":
            self.mem_space = self.space
        if page_map == "warm":
            for addr, *_rest in pages:
                self.space.page_entry(addr // PAGE_SIZE)

    def mem_fetch(self, addr, n):
        return self.space.fetch(addr, n)


def reference_landing(env, rip: int) -> int:
    while True:
        try:
            chunk = env.mem_fetch(rip, PAGE_SIZE - rip % PAGE_SIZE)
        except (SegmentationFault, ProtectionKeyFault):
            return rip
        run_len = _REFERENCE_RUN(chunk).end()
        rip += run_len
        if run_len < len(chunk):
            return rip


def slide_landing(env, rip: int) -> int:
    ctx = CpuContext()
    ctx.rip = rip
    dispatch.slide_nops(env, ctx)
    return ctx.rip


@st.composite
def sled_pages(draw):
    """Page 0: the trampoline sled (or a page of nops) with bytes stored
    into it; page 1: absent, or nops up to a stop byte, RX or RW."""
    full = draw(st.booleans())
    first = bytearray(b"\x90" * PAGE_SIZE if full
                      else b"\x90" * SLED_SIZE + TAIL)
    stores = draw(st.lists(
        st.tuples(st.integers(0, PAGE_SIZE - 1), st.integers(0, 255)),
        max_size=3))
    for offset, value in stores:
        first[offset] = value
    pages = [(0, bytes(first), RX)]
    kind = draw(st.sampled_from(["none", "RX", "RW"]))
    if kind != "none":
        run = draw(st.integers(0, PAGE_SIZE))
        stop = draw(st.integers(0, 255).filter(lambda b: b != NOP))
        second = (b"\x90" * run + bytes([stop]))[:PAGE_SIZE]
        pages.append((PAGE_SIZE, second, RX if kind == "RX" else RW))
    # Land anywhere, but often near a stored byte or the page end.
    near = [offset for offset, _ in stores] + [SLED_SIZE, PAGE_SIZE - 1]
    rip = draw(st.one_of(
        st.integers(0, PAGE_SIZE - 1),
        st.sampled_from(near).flatmap(
            lambda at: st.integers(max(0, at - 20), at))))
    return pages, rip


@given(case=sled_pages())
@settings(max_examples=300, deadline=None)
def test_slide_lands_where_the_regex_lands(case):
    pages, rip = case
    for page_map in PAGE_MAPS:
        env = FetchEnv(pages, page_map)
        landing = slide_landing(env, rip)
        assert landing == reference_landing(env, rip), page_map


def test_run_ending_at_page_end_crosses_only_into_executable_page():
    nops = b"\x90" * PAGE_SIZE
    for page_map in PAGE_MAPS:
        for prot, expect in ((RX, PAGE_SIZE + 7), (RW, PAGE_SIZE)):
            env = FetchEnv([(0, nops, RX),
                            (PAGE_SIZE, b"\x90" * 7 + b"\xf4", prot)],
                           page_map)
            assert slide_landing(env, 3000) == expect, page_map
            assert reference_landing(env, 3000) == expect, page_map
        env = FetchEnv([(0, nops, RX)], page_map)
        assert slide_landing(env, 0) == PAGE_SIZE, page_map


@pytest.mark.parametrize("page_map", PAGE_MAPS)
def test_execute_only_trampoline_page_slides(page_map):
    # The trampoline page carries its own key and PKRU denies data access
    # through it; the slide, a fetch, still reads it.
    sled = b"\x90" * SLED_SIZE + TAIL
    env = FetchEnv([(0, sled, RX, TRAMPOLINE_PKEY)], page_map)
    pkru = xom_pkru_for(TRAMPOLINE_PKEY)
    with pytest.raises(ProtectionKeyFault):
        env.space.read(100, 1, pkru=pkru)
    assert slide_landing(env, 100) == SLED_SIZE
    assert slide_landing(env, SLED_SIZE - 1) == SLED_SIZE


def test_entry_evicted_between_slides():
    # The first slide finds the page's entry; mprotect evicts it, so the
    # second slide takes the checked fetch, which faults on the now
    # non-executable page; the third refills the entry and reads the
    # store made meanwhile.
    env = FetchEnv([(0, b"\x90" * SLED_SIZE + TAIL, RX)], "warm")
    pages = env.space._fast
    assert slide_landing(env, 100) == SLED_SIZE
    env.space.mprotect(0, PAGE_SIZE, RW)
    assert 0 not in pages
    assert slide_landing(env, 100) == 100
    env.space.write_kernel(2000, b"\xcc")
    env.space.mprotect(0, PAGE_SIZE, RX)
    assert 0 not in pages
    assert slide_landing(env, 100) == 2000
    assert pages[0][1] & Prot.EXEC
    assert slide_landing(env, 100) == 2000
