"""Property: the nop slide lands where a regex match per page lands.

:func:`repro.cpu.dispatch.slide_nops` takes the landing from a constant
compare of the fetched bytes and runs the regex only over what the
compare leaves.  The reference here is the slide it replaced: one
``\\x90*`` match per fetched page, crossing into the next page only when
the rest of the page was all nops, and stopping at a fetch fault.  The
cases cover bytes stored anywhere in the sled, runs that end exactly at
the page end, and next pages that are executable, non-executable or
unmapped.
"""

import re

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cpu import dispatch
from repro.cpu.state import CpuContext
from repro.errors import ProtectionKeyFault, SegmentationFault
from repro.interposers.base import SLED_SIZE
from repro.memory import AddressSpace, PAGE_SIZE, Prot

RX = Prot.READ | Prot.EXEC
RW = Prot.READ | Prot.WRITE
NOP = 0x90
TAIL = bytes([0xF1, 0x07, 0x00, 0xC3, 0xC3, 0xC3])  # any non-nop tail
_REFERENCE_RUN = re.compile(rb"\x90*").match


class FetchEnv:
    def __init__(self, pages):
        self.space = AddressSpace()
        for addr, data, prot in pages:
            self.space.mmap(addr, PAGE_SIZE, RW, name=f"p{addr:#x}",
                            fixed=True)
            self.space.write_kernel(addr, data)
            self.space.mprotect(addr, PAGE_SIZE, prot)

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


@given(sled_pages())
@settings(max_examples=300, deadline=None)
def test_slide_lands_where_the_regex_lands(case):
    pages, rip = case
    env = FetchEnv(pages)
    assert slide_landing(env, rip) == reference_landing(env, rip)


def test_run_ending_at_page_end_crosses_only_into_executable_page():
    nops = b"\x90" * PAGE_SIZE
    for prot, expect in ((RX, PAGE_SIZE + 7), (RW, PAGE_SIZE)):
        env = FetchEnv([(0, nops, RX),
                        (PAGE_SIZE, b"\x90" * 7 + b"\xf4", prot)])
        assert slide_landing(env, 3000) == expect
        assert reference_landing(env, 3000) == expect
    env = FetchEnv([(0, nops, RX)])
    assert slide_landing(env, 0) == PAGE_SIZE
