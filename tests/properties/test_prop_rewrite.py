"""Rewrite-pass oracle: ``rewrite_sites_safely`` against the per-site
protocol it replaced.

:func:`rewrite_site_safely` below is the per-site body zpoline and libK23
ran before the one-pass rewrite: save the permissions, ``mprotect`` the
window writable, store the two bytes, restore, and invalidate each
thread's icache over the site.  The property builds two identical
machines, applies the reference site by site to one and the one-pass
rewrite to the other, and requires the same:

- bytes of every image page, and every page's protection and pkey;
- each icache's lines, blocks (with their chain, heat and superblock
  state), page indexes and counters, ``invalidation_unlinks`` included,
  and its recording-doomed flag;
- ordered ``CycleCharge``/``RewriteApplied`` stream seen by a sink that
  takes every event and every charge.

The machine is the stress program after a short run under the full
engine, so its icache holds chained blocks and formed superblocks over
real image pages.  Drawn per example: a site list (unsorted, as K23's
log order may be, or sorted), sites inside cached blocks, anywhere on an
executable page, and one that straddles the program's text page into
its data page; whether libc's text page is execute-only; whether a
second thread holds lines around the sites; and whether the first
thread has a live recording span over one site.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cycles import Event
from repro.cpu.engine import EngineConfig
from repro.errors import DecodeError, SegmentationFault
from repro.interposers.zpoline import CALL_RAX, rewrite_sites_safely
from repro.memory.pages import PAGE_SIZE, Prot, page_base, round_up_pages
from repro.observability.events import CycleCharge, RewriteApplied
from repro.observability.sinks import Sink
from repro.runapi import RunConfig, prepare

PROT_RWX = Prot.READ | Prot.WRITE | Prot.EXEC

PROGRAM = "/usr/bin/syscall-stress"
LIBC = "/usr/lib/x86_64-linux-gnu/libc.so.6"


def rewrite_site_safely(kernel, process, address: int) -> None:
    """The per-site protocol the one-pass rewrite replaced (reference)."""
    space = process.address_space
    saved_prot = space.prot_at(address)
    saved_prot_next = space.prot_at(address + 1)
    start = page_base(address)
    span = round_up_pages((address + 2) - start)
    kernel.cycles.charge(Event.MPROTECT)
    space.mprotect(start, span, PROT_RWX)
    space.write_kernel(address, CALL_RAX)  # single atomic 2-byte store
    kernel.cycles.charge(Event.MPROTECT)
    space.mprotect(start, PAGE_SIZE, saved_prot)
    if span > PAGE_SIZE:
        space.mprotect(start + PAGE_SIZE, span - PAGE_SIZE, saved_prot_next)
    kernel.cycles.charge(Event.ICACHE_FLUSH)
    for thread in process.threads:
        thread.icache.invalidate_range(address, 2)
    kernel.cycles.charge(Event.REWRITE_SITE)
    if kernel.bus.enabled:
        kernel.bus.emit(RewriteApplied, ts=kernel.cycles.cycles,
                        pid=process.pid, tid=0, site=address,
                        protocol="static-safe", atomic=True, coherent=True)


class RewriteStreamSink(Sink):
    """Records every charge and every ``RewriteApplied``, in bus order."""

    each_event = True
    each_charge = True

    def __init__(self):
        self.records = []

    def accept(self, event):
        if type(event) is CycleCharge:
            self.records.append(("C", event.ts, event.event, event.times,
                                 event.cycles))
        elif type(event) is RewriteApplied:
            self.records.append(("W", event.ts, event.pid, event.site,
                                 event.protocol))


def machine(xom: bool = False, sibling_lines=(), recording=None):
    """The stress program after a short run under the full engine, with
    the drawn extras applied; returns ``(kernel, process)``."""
    prepared = prepare(RunConfig("native", "stress", seed=5,
                                 params=(("iterations", 20),)))
    kernel = prepared.kernel
    kernel.engine = EngineConfig()
    kernel.block_cache_enabled = True
    process = prepared.spawn()
    kernel.run_process(process, max_steps=1_000_000)
    space = process.address_space
    if xom:
        libc = next(r for r in space.regions if r.name == LIBC)
        base, _length = space.exec_runs(libc.start, libc.end)[0]
        space.mprotect(base, PAGE_SIZE, Prot.EXEC)
    if sibling_lines:
        sibling = process.spawn_thread()
        for addr in sibling_lines:
            try:
                sibling.icache.fetch(addr, space.read_kernel)
            except (DecodeError, SegmentationFault):
                pass
    if recording is not None:
        lo, hi = recording
        icache = process.threads[0].icache
        icache.begin_record(lo)
        icache._rec_hi = hi
    return kernel, process


@lru_cache(maxsize=None)
def candidates():
    """Sites inside cached blocks, every executable page's bounds, and
    the text page's last byte (a site straddling into the data page)."""
    _kernel, process = machine()
    space = process.address_space
    icache = process.threads[0].icache
    in_blocks = sorted({addr for block in icache._blocks.values()
                        for addr in range(block.entry, block.end)})
    pages = sorted(base for region in space.regions
                   for base, length in space.exec_runs(region.start,
                                                       region.end)
                   for base in range(base, base + length, PAGE_SIZE))
    text = next(r for r in space.regions if r.name == PROGRAM)
    straddle = space.exec_runs(text.start, text.end)[0][0] + PAGE_SIZE - 1
    return in_blocks, pages, straddle


@st.composite
def cases(draw):
    in_blocks, pages, straddle = candidates()
    site = st.one_of(
        st.sampled_from(in_blocks) if in_blocks else st.nothing(),
        st.builds(lambda base, off: base + off, st.sampled_from(pages),
                  st.integers(0, PAGE_SIZE - 2)),
        st.just(straddle))
    sites = draw(st.lists(site, min_size=1, max_size=12))
    if draw(st.booleans()):
        sites = sorted(sites)
    sibling = draw(st.booleans())
    sibling_lines = tuple(sorted({addr for s in sites
                                  for addr in range(s - 4, s + 2)}
                                 )) if sibling else ()
    recording = None
    if draw(st.booleans()):
        lo = draw(st.sampled_from(sites)) - draw(st.integers(0, 6))
        recording = (lo, lo + draw(st.integers(1, 12)))
    return dict(sites=sites, xom=draw(st.booleans()),
                sibling_lines=sibling_lines, recording=recording)


def block_state(block):
    sb = block.superblock
    return (block.end, block.valid, block.heat, block.term,
            None if block.succ is None else block.succ.entry,
            None if sb is None else (sb.entry, sb.valid, sb.n_steps),
            [(s.entry, s.valid) for s in block.sbs])


def icache_state(icache):
    counters = {name: getattr(icache, name) for name in (
        "hits", "misses", "block_hits", "block_installs", "chain_links",
        "chain_follows", "superblocks_formed", "superblock_hits",
        "traces_compiled", "trace_hits", "guard_fails",
        "invalidation_unlinks")}
    return {
        "lines": [(addr, line[0]) for addr, line in icache._lines.items()],
        "line_pages": {page: sorted(addrs) for page, addrs
                       in icache._line_pages.items()},
        "blocks": [(entry, block_state(block))
                   for entry, block in icache._blocks.items()],
        "blocks_by_page": {page: sorted(entries) for page, entries
                           in icache._blocks_by_page.items()},
        "counters": counters,
        "rec": (icache._rec_active, icache._rec_lo, icache._rec_hi,
                icache._rec_doomed),
    }


def state(process):
    space = process.address_space
    memory = [(region.start, space.read_kernel(region.start, region.size))
              for region in space.regions]
    return {"memory": memory, "prot": sorted(space._prot.items()),
            "pkey": sorted(space._pkey.items()),
            "icaches": [icache_state(t.icache) for t in process.threads]}


def rewrite(case, one_pass: bool):
    kernel, process = machine(case["xom"], case["sibling_lines"],
                              case["recording"])
    sink = RewriteStreamSink()
    kernel.bus.attach(sink)
    if one_pass:
        rewrite_sites_safely(kernel, process, case["sites"])
    else:
        for site in case["sites"]:
            rewrite_site_safely(kernel, process, site)
    return state(process), sink.records


@given(case=cases())
@settings(max_examples=120, deadline=None)
def test_one_pass_matches_per_site_protocol(case):
    want_state, want_stream = rewrite(case, one_pass=False)
    got_state, got_stream = rewrite(case, one_pass=True)
    assert got_stream == want_stream
    assert got_state == want_state


def test_machine_has_what_the_property_needs():
    """The drawn machine covers chains, superblocks over image pages, a
    site that straddles two pages, and blocks on several pages."""
    kernel, process = machine()
    icache = process.threads[0].icache
    blocks = list(icache._blocks.values())
    assert any(block.succ is not None for block in blocks)
    assert any(block.superblock is not None
               and len(block.superblock.blocks) > 1 for block in blocks)
    assert len(icache._blocks_by_page) > 1
    _in_blocks, _pages, straddle = candidates()
    space = process.address_space
    assert space.prot_at(straddle) & Prot.EXEC
    assert not space.prot_at(straddle + 1) & Prot.EXEC
