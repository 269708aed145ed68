"""Oracle test for the single-byte nop run slide (the trampoline sled).

The executor in :mod:`repro.cpu.dispatch` slides a nop run with one fetch
per page and a compiled-regex match, and the block engine caches a slide
as a one-step block whose replay re-reads the run from live memory.  The
byte-at-a-time loop the slide replaced is kept here as the reference,
single-stepped.  Every case also runs single-stepped with the real
executor and through ``run_unit`` under each block-mode tier (block
cache, chain, chain + trace JIT, the last with :data:`HOT_THRESHOLD`
patched low so traces form within a few landings).  All of them must
leave the same registers, raise the same exception and retire the same
instructions, cycles and hostcalls.
"""

import pytest

from repro.arch.assembler import Asm
from repro.arch.isa import Mnemonic
from repro.arch.registers import Reg
from repro.cpu import blocks, dispatch
from repro.cpu.blocks import run_unit
from repro.cpu.core import step
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.engine import EngineConfig
from repro.cpu.icache import ICache, decode_line
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
#: A lowered :data:`repro.cpu.blocks.HOT_THRESHOLD`: a block forms its
#: trace on its second replay.
HOT = 2
#: Landings enough for the trace JIT tier to compile and then run a trace.
WARM = HOT + 3

#: Execution modes checked against the reference: the real executor
#: single-stepped, then the block-mode tiers.
MODES = {
    "single-step": None,
    "block-cache": EngineConfig(chain=False),
    "chain": EngineConfig(trace_jit=False),
    "trace-jit": EngineConfig(),
}


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
    """Bare environment over a list of ``(addr, bytes, prot, pkey)`` pages,
    speaking both the single-step and the block-executor protocol."""

    def __init__(self, pages, pkru: int = 0, engine=None, rsp: int = 0):
        self.context = CpuContext()
        self.context.pkru.value = pkru
        self.context.set(Reg.RSP, rsp)
        self.icache = ICache(engine=engine)
        # mem_space: the trace JIT compiles only for environments whose
        # mem_read/mem_write are this space's read/write.
        self.space = self.mem_space = AddressSpace()
        self.cycles = CycleModel()
        self.unit_retired = 0
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

    def charge(self, event, times=1):
        self.cycles.charge(event, times)


def trampoline_page() -> bytes:
    """The interposers' layout: the sled, then ``HOSTCALL; RET``."""
    asm = Asm()
    asm.nop(SLED_SIZE)
    asm.hostcall(HOSTCALL_INDEX)
    asm.ret()
    return asm.assemble()


def run(pages, landings, mode="single-step", pkru=0, rsp=0, patch=None):
    """Land at each ``(rip, steps)`` in turn (``rip=None`` continues where
    the last landing stopped) and run *steps* instructions, single-stepped
    or in units under *mode*.  After each landing record ``(rip, retired,
    cycles, hostcalls, registers)``, or ``(exception, rip, retired)`` for
    the exception that ended it.  ``patch(env, i)`` runs after landing
    *i*.  Returns the records and the environment."""
    env = SledEnv(pages, pkru=pkru, engine=MODES[mode], rsp=rsp)
    out = []
    for index, (rip, steps) in enumerate(landings):
        if rip is not None:
            env.context.rip = rip
        try:
            done = 0
            while done < steps:
                if env.icache.engine is None:
                    step(env)
                    done += 1
                else:
                    done += run_unit(env, steps - done)
            out.append((env.context.rip,
                        env.cycles.counts[Event.INSTRUCTION],
                        env.cycles.cycles, tuple(env.hostcalls),
                        tuple(env.context.get(reg) for reg in Reg)))
        except ReproError as exc:
            out.append((type(exc).__name__, env.context.rip,
                        env.cycles.counts[Event.INSTRUCTION]))
        if patch is not None:
            patch(env, index)
    return out, env


def every_mode(monkeypatch, *args, **kwargs):
    """Run the case single-stepped with the reference executor and then
    under every mode; assert every mode's records equal the reference's.
    Returns the records and ``{mode: environment}``."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", HOT)
    # Decoded lines are memoised per process with their executor: clear
    # the memo on both sides of the reference run, so that it decodes with
    # the reference executor and leaks none of it.
    decode_line.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setitem(dispatch.COMPILERS, Mnemonic.NOP, reference_nop)
            reference, _env = run(*args, **kwargs)
    finally:
        decode_line.cache_clear()
    envs = {}
    for mode in MODES:
        out, envs[mode] = run(*args, mode=mode, **kwargs)
        assert out == reference, mode
    return reference, envs


def slide_traces(env):
    """The compiled superblocks whose last step is a nop slide."""
    return [block.superblock for block in env.icache._blocks.values()
            if block.superblock is not None and block.superblock.trace
            and block.superblock.blocks[-1].steps[-1][1]
            is dispatch.slide_nops]


@pytest.mark.parametrize("xom", [False, True])
@pytest.mark.parametrize("landing", [0, 300, 1023, 1024, SLED_SIZE - 1])
def test_trampoline_landings(monkeypatch, landing, xom):
    # With xom the page carries the trampoline key and PKRU denies data
    # access through it: fetch must still succeed (P4a), from the cached
    # block and the compiled trace too.
    pkey = TRAMPOLINE_PKEY if xom else 0
    pkru = xom_pkru_for(TRAMPOLINE_PKEY).value if xom else 0
    pages = [(0, trampoline_page(), RX, pkey)]
    if xom:
        with pytest.raises(ProtectionKeyFault):
            SledEnv(pages, pkru=pkru).mem_read(landing, 1)
    # One step slides to the tail and the next runs the HOSTCALL; then
    # land again and again, slide and HOSTCALL in one go.
    landings = [(landing, 1), (None, 1)] + [(landing, 2)] * WARM
    out, envs = every_mode(monkeypatch, pages, landings, pkru=pkru)
    assert out[0][:2] == (SLED_SIZE, 1)
    assert out[1][3] == (HOSTCALL_INDEX,)
    assert out[-1][1] == 2 + 2 * WARM
    assert out[-1][3] == (HOSTCALL_INDEX,) * (1 + WARM)
    for mode in ("block-cache", "chain", "trace-jit"):
        assert len(envs[mode].icache.block_at(landing).steps) == 1
    assert slide_traces(envs["trace-jit"])
    assert envs["trace-jit"].icache.trace_hits


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
    out, _envs = every_mode(monkeypatch, pages, [(BASE + 4000, 3)] * WARM)
    stop = BASE + PAGE_SIZE + (50 if expect is Halt else 0)
    # Each landing slides (1) and then faults: hlt retires charged, with
    # RIP past it; a fetch fault retires nothing.
    halt = expect is Halt
    assert out == [(expect.__name__, stop + halt, (index + 1) * (1 + halt))
                   for index in range(WARM)]


def test_sled_overwritten_mid_run(monkeypatch):
    # A byte stored into the middle of the sled stops the slide there; the
    # slide re-reads memory, so a later landing sees the store too, even
    # from a cached block or a compiled trace (a kernel-privilege store
    # invalidates no decoded line).
    def patch(env, index):
        if index == WARM - 1:
            env.space.write_kernel(2000, b"\xcc")

    pages = [(0, trampoline_page(), RX, 0)]
    out, _envs = every_mode(monkeypatch, pages,
                            [(100, 1)] * WARM + [(100, 2)], patch=patch)
    assert [record[:2] for record in out[:WARM]] == [
        (SLED_SIZE, n) for n in range(1, WARM + 1)]
    assert out[WARM] == (Breakpoint.__name__, 2001, WARM + 2)


def test_hot_block_falls_through_into_padding(monkeypatch):
    # A hot loop whose body falls through into a nop run: the body block
    # is cut before the run, the run is a block of its own, and the trace
    # formed from the body ends in the slide.
    def loop(a):
        a.label("top")
        a.add_ri(Reg.RBX, 1)
        a.mov_rr(Reg.RCX, Reg.RBX)
        a.nop(30)
        a.add_ri(Reg.RDX, 3)
        a.jmp("top")

    asm = Asm()
    loop(asm)
    pages = [(BASE, asm.assemble(), RX, 0)]
    out, envs = every_mode(monkeypatch, pages, [(BASE, 40)] * 3)
    assert out[-1][1] == 120
    assert out[-1][4][Reg.RBX] == 24
    heads = {sb.entry: len(sb.blocks)
             for sb in slide_traces(envs["trace-jit"])}
    assert heads.get(BASE) == 2


def test_interposed_call_runs_as_one_unit(monkeypatch):
    # The rewritten-site path: ``call *%rax`` into the sled, the slide,
    # the trampoline's HOSTCALL and RET.  Chained, a warm landing runs the
    # call, the slide and the HOSTCALL in one unit.
    landing = 39
    stack = 0x80_0000
    asm = Asm()
    asm.label("top")
    asm.mov_ri(Reg.RAX, landing)
    asm.call_reg(Reg.RAX)
    asm.add_ri(Reg.RBX, 1)
    asm.jmp("top")
    pages = [(0, trampoline_page(), RX, TRAMPOLINE_PKEY),
             (BASE, asm.assemble(), RX, 0), (stack, b"", RW, 0)]
    pkru = xom_pkru_for(TRAMPOLINE_PKEY).value
    rsp = stack + PAGE_SIZE - 64
    out, envs = every_mode(monkeypatch, pages, [(BASE, 42)] * WARM,
                           pkru=pkru, rsp=rsp)
    assert out[-1][3] == (HOSTCALL_INDEX,) * (6 * WARM)
    assert out[-1][4][Reg.RSP] == rsp
    for mode, retired in (("block-cache", 2), ("chain", 4), ("trace-jit", 4)):
        envs[mode].context.rip = BASE
        assert run_unit(envs[mode], 100) == retired, mode
