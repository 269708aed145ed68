"""Properties of libLogger's one-entry ``/proc/$PID/maps`` cache and of
the table behind ``Prot.text``.

:meth:`repro.core.liblogger.LibLogger.maps_entries` renders the maps text
at every trap but parses it only when it differs from the previous
trap's.  Over random ``mmap``/``mprotect``/``munmap`` sequences on two
processes (traps alternate between them, as a forked child's do), the
entries must equal a fresh ``parse_maps(render_maps(p))`` at every trap,
and a trap whose text did not change must reuse the previous parse.
"""

import types

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.liblogger import LibLogger
from repro.errors import MapError
from repro.kernel import Kernel
from repro.kernel.procfs import parse_maps, render_maps
from repro.memory import PAGE_SIZE, Prot
from repro.memory.address_space import AddressSpace

BASE = 0x40_0000
SLOTS = 6
NAMES = ("/usr/lib/libc.so.6", "/usr/bin/app", "[anon]", "[stack]")
PROTS = st.integers(min_value=0, max_value=7).map(Prot)

OPS = st.one_of(
    st.tuples(st.just("mmap"), st.integers(0, SLOTS - 1),
              st.integers(1, 3), PROTS, st.sampled_from(NAMES)),
    st.tuples(st.just("mprotect"), st.integers(0, SLOTS - 1),
              st.integers(1, 3), PROTS),
    st.tuples(st.just("munmap"), st.integers(0, SLOTS - 1),
              st.integers(1, 3)),
    st.tuples(st.just("trap")))


def test_prot_text_matches_the_flag_tests():
    for bits in range(8):
        prot = Prot(bits)
        assert prot.text == (("r" if prot & Prot.READ else "-")
                             + ("w" if prot & Prot.WRITE else "-")
                             + ("x" if prot & Prot.EXEC else "-") + "p")


def _apply(space, op):
    kind, slot, pages = op[0], op[1], op[2]
    addr, length = BASE + slot * PAGE_SIZE, pages * PAGE_SIZE
    try:
        if kind == "mmap":
            space.mmap(addr, length, op[3], name=op[4], fixed=True)
        elif kind == "mprotect":
            space.mprotect(addr, length, op[3])
        else:
            space.munmap(addr, length)
    except MapError:
        pass  # mprotect over a gap: refused, the layout is unchanged


@given(st.lists(st.tuples(st.integers(0, 1), OPS), max_size=30))
@settings(max_examples=60, deadline=None)
def test_cached_entries_equal_a_fresh_parse_at_every_trap(steps):
    logger = LibLogger(Kernel(seed=1))
    processes = [types.SimpleNamespace(address_space=AddressSpace())
                 for _ in range(2)]
    previous = None
    for which, op in steps:
        process = processes[which]
        if op[0] != "trap":
            _apply(process.address_space, op)
        text = render_maps(process)
        entries = logger.maps_entries(process)
        assert entries == parse_maps(text.decode())
        if previous is not None and previous[0] == text:
            assert entries is previous[1]
        previous = (text, entries)
