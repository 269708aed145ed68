"""zpoline: load-time static rewriting (Yasukata et al., ATC'23).

Mechanism (faithful to §2.2.1):

- the LD_PRELOAD constructor installs the trampoline at address 0, then
  disassembles every executable region present *at that moment* with a
  linear sweep and rewrites each discovered ``syscall``/``sysenter`` to
  ``callq *%rax``;
- page permissions are saved before patching and restored afterwards, the
  2-byte store is atomic, and every core's instruction stream is
  invalidated — zpoline does runtime rewriting *once*, safely (P5 ✓);
- ``-ultra`` additionally validates, at the trampoline entry, that the
  return address points just past a known rewritten site, using the
  address-space-sized bitmap (P4a ✓, at P4b's memory cost).

Faithful pitfalls:

- **P1a** — injection rides on LD_PRELOAD alone; an empty-env ``execve``
  silently sheds it.
- **P2a** — the sweep desyncs on embedded data (missing real sites) and
  never sees code generated or dlopen'd later.
- **P2b** — nothing before the constructor runs is interposed; vDSO calls
  never surface.
- **P3a** — a desynced sweep can "find" syscall bytes inside data or other
  instructions and rewrite them, corrupting the program.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.arch.disassembler import find_syscall_sites_linear
from repro.cpu.cycles import Event
from repro.interposers.base import (
    Interposer,
    install_trampoline,
    make_injector_library,
    prepend_ld_preload,
)
from repro.memory.bitmap import AddressBitmap
from repro.observability.events import RewriteApplied

LIB_PATH = "/opt/interposers/libzpoline.so"

CALL_RAX = b"\xff\xd0"


def rewrite_sites_safely(kernel, process, sites: Sequence[int]) -> None:
    """The correct cross-modifying-code protocol (what zpoline and K23 do,
    and lazypoline does not), applied to every site in *sites*, in order:
    save page permissions, make the page writable, store both bytes in one
    shot, restore the *saved* permissions, and invalidate every core's
    instruction stream.

    Every site makes the protocol's four charges and emits its
    ``RewriteApplied``.  No host ``mprotect`` runs: the store is
    kernel-privileged and the saved permissions come back unchanged.
    Each core's icache is invalidated over every site once all the
    stores are done; nothing reads it in between.
    """
    space = process.address_space
    charge = kernel.cycles.charge
    bus = kernel.bus
    for address in sites:
        charge(Event.MPROTECT)
        space.write_kernel(address, CALL_RAX)  # single atomic 2-byte store
        charge(Event.MPROTECT)
        charge(Event.ICACHE_FLUSH)
        charge(Event.REWRITE_SITE)
        if bus.enabled:
            bus.emit(RewriteApplied, ts=kernel.cycles.cycles,
                     pid=process.pid, tid=0, site=address,
                     protocol="static-safe", atomic=True, coherent=True)
    for thread in process.threads:
        invalidate = thread.icache.invalidate_range
        for address in sites:
            invalidate(address, len(CALL_RAX))


class ZpolineInterposer(Interposer):
    """zpoline-default / zpoline-ultra."""

    state_key = "zpoline"
    entry_charges = (Event.TRAMPOLINE_SLED, Event.ZPOLINE_HANDLER)

    def __init__(self, kernel, hook=None, variant: str = "default"):
        super().__init__(kernel, hook)
        if variant not in ("default", "ultra"):
            raise ValueError(f"unknown zpoline variant {variant!r}")
        self.variant = variant
        self.name = f"zpoline-{variant}"
        if variant == "ultra":
            self.site_check = (Event.BITMAP_CHECK, "bitmap", self.name)
        self._entry_idx = kernel.hostcalls.register(self.intercept,
                                                    "zpoline.entry")
        make_injector_library(kernel, LIB_PATH, "zpoline", self._constructor)

    def before_exec(self, process) -> None:
        prepend_ld_preload(process.env, LIB_PATH)

    # -- constructor: trampoline + one-shot static rewrite ----------------------

    def _constructor(self, thread, base: int) -> None:
        process = thread.process
        install_trampoline(self.kernel, process, self._entry_idx, xom=True)
        state = {
            "rewritten": [],
            "bitmap": AddressBitmap() if self.variant == "ultra" else None,
        }
        process.interposer_state["zpoline"] = state
        sites = state["rewritten"]
        for region_base, region_len, _name in self._scan_targets(process):
            code = process.address_space.read_kernel(region_base, region_len)
            sites.extend(region_base + offset
                         for offset in find_syscall_sites_linear(code))
        rewrite_sites_safely(self.kernel, process, sites)
        if state["bitmap"] is not None:
            for site in sites:
                state["bitmap"].set(site)

    def _scan_targets(self, process) -> List[tuple]:
        """Maximal executable page runs present at load time, excluding the
        trampoline itself and the interposer's own library.

        Scanning is page-granular: the data pages of an image are rw- and
        therefore skipped, exactly like a real rewriter walking PT_LOAD
        segments by their protection.
        """
        space = process.address_space
        return [(base, length, region.name)
                for region in space.regions
                if region.name not in ("[trampoline]", LIB_PATH, "[vdso]")
                for base, length in space.exec_runs(region.start,
                                                    region.end)]
