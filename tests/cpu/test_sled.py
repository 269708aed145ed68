"""Oracle test for the single-byte nop run slide (the trampoline sled).

The executor in :mod:`repro.cpu.dispatch` slides a nop run with one fetch
per page and a ``bytes.lstrip``.  The byte-at-a-time loop it replaced is
kept here as the reference; both must leave the same ``rip``, raise the
same exception and retire the same instructions and cycles.
"""

import pytest

from repro.arch.assembler import Asm
from repro.arch.isa import Mnemonic
from repro.cpu import dispatch
from repro.cpu.core import step
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.icache import ICache
from repro.cpu.state import CpuContext
from repro.errors import (
    Breakpoint,
    Halt,
    ProtectionKeyFault,
    ReproError,
    SegmentationFault,
)
from repro.interposers.base import SLED_SIZE, TRAMPOLINE_PKEY
from repro.memory import AddressSpace, PAGE_SIZE, Prot
from repro.memory.pku import xom_pkru_for

RX = Prot.READ | Prot.EXEC
RW = Prot.READ | Prot.WRITE
HOSTCALL_INDEX = 7


def reference_nop(insn):
    """The byte-at-a-time sled loop the page-wise slide replaced."""
    if insn.length != 1:
        return lambda env, ctx: None

    def run(env, ctx):
        while True:
            lookahead = b""
            for span in (64, 16, 4, 1):  # degrade at page boundaries
                try:
                    lookahead = env.mem_fetch(ctx.rip, span)
                    break
                except (SegmentationFault, ProtectionKeyFault):
                    continue
            run_len = 0
            while run_len < len(lookahead) and lookahead[run_len] == 0x90:
                run_len += 1
            if run_len == 0:
                break
            ctx.rip = (ctx.rip + run_len) & ((1 << 64) - 1)
            if run_len < len(lookahead):
                break
    return run


class SledEnv:
    """Bare environment over a list of ``(addr, bytes, prot, pkey)`` pages."""

    def __init__(self, pages, pkru: int = 0):
        self.context = CpuContext()
        self.context.pkru.value = pkru
        self.icache = ICache()
        self.space = AddressSpace()
        self.cycles = CycleModel()
        self.hostcalls = []
        for addr, data, prot, pkey in pages:
            self.space.mmap(addr, PAGE_SIZE, RW, name=f"p{addr:#x}",
                            fixed=True)
            self.space.write_kernel(addr, data)
            self.space.pkey_mprotect(addr, PAGE_SIZE, prot, pkey=pkey)

    def mem_fetch(self, addr, n):
        return self.space.fetch(addr, n)

    def mem_read(self, addr, n):
        return self.space.read(addr, n, pkru=self.context.pkru)

    def mem_write(self, addr, data):
        self.space.write(addr, data, pkru=self.context.pkru)

    def on_syscall(self):
        raise AssertionError("no syscalls in sled programs")

    def on_hostcall(self, index):
        self.hostcalls.append(index)

    def charge(self, event):
        self.cycles.charge(event)


def trampoline_page() -> bytes:
    """The interposers' layout: the sled, then ``HOSTCALL; RET``."""
    asm = Asm()
    asm.nop(SLED_SIZE)
    asm.hostcall(HOSTCALL_INDEX)
    asm.ret()
    return asm.assemble()


def trace(pages, rip, steps=3, pkru=0, patch=None):
    """Step from *rip*; record ``(rip, retired, cycles, hostcalls)`` after
    each step and ``(exception, rip)`` for the exception that ended the
    run, if any.  ``patch(env)`` runs after the first step."""
    env = SledEnv(pages, pkru=pkru)
    env.context.rip = rip
    out = []
    try:
        for index in range(steps):
            step(env)
            out.append((env.context.rip, env.cycles.counts[Event.INSTRUCTION],
                        env.cycles.cycles, tuple(env.hostcalls)))
            if patch is not None and index == 0:
                patch(env)
    except ReproError as exc:
        out.append((type(exc).__name__, env.context.rip))
    return out


def both(monkeypatch, *args, **kwargs):
    new = trace(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setitem(dispatch.COMPILERS, Mnemonic.NOP, reference_nop)
        old = trace(*args, **kwargs)
    assert new == old
    return new


@pytest.mark.parametrize("xom", [False, True])
@pytest.mark.parametrize("landing", [0, 300, 1023, 1024, SLED_SIZE - 1])
def test_trampoline_landings(monkeypatch, landing, xom):
    # With xom the page carries the trampoline key and PKRU denies data
    # access through it: fetch must still succeed (P4a).
    pkey = TRAMPOLINE_PKEY if xom else 0
    pkru = xom_pkru_for(TRAMPOLINE_PKEY).value if xom else 0
    pages = [(0, trampoline_page(), RX, pkey)]
    if xom:
        with pytest.raises(ProtectionKeyFault):
            SledEnv(pages, pkru=pkru).mem_read(landing, 1)
    out = both(monkeypatch, pages, landing, steps=2, pkru=pkru)
    # One step slides to the tail; the next runs the HOSTCALL.
    assert out[0][:2] == (SLED_SIZE, 1)
    assert out[1][3] == (HOSTCALL_INDEX,)


BASE = 0x40_0000
HLT_PAGE = b"\x90" * 50 + b"\xf4"


@pytest.mark.parametrize("next_page,expect", [
    ((HLT_PAGE, RX), Halt),
    ((HLT_PAGE, RW), SegmentationFault),
    (None, SegmentationFault),
])
def test_sled_to_page_end(monkeypatch, next_page, expect):
    # Nops from 4000 to the page end: the slide crosses into an executable
    # next page, and stops at the boundary of a non-executable or
    # unmapped one, where the next fetch faults.
    first = b"\xf4" * 4000 + b"\x90" * (PAGE_SIZE - 4000)
    pages = [(BASE, first, RX, 0)]
    if next_page is not None:
        pages.append((BASE + PAGE_SIZE, next_page[0], next_page[1], 0))
    out = both(monkeypatch, pages, BASE + 4000)
    stop = BASE + PAGE_SIZE + (50 if expect is Halt else 0)
    assert out[0][:2] == (stop, 1)
    assert out[-1][0] == expect.__name__


def test_sled_overwritten_mid_run(monkeypatch):
    # A byte stored into the middle of the sled stops the slide there; the
    # slide re-reads memory, so a second landing sees the store too.
    def patch(env):
        env.space.write_kernel(2000, b"\xcc")
        env.context.rip = 100

    pages = [(0, trampoline_page(), RX, 0)]
    out = both(monkeypatch, pages, 100, patch=patch)
    assert out[0][0] == SLED_SIZE
    assert out[1][:2] == (2000, 2)
    assert out[2][0] == Breakpoint.__name__
