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

from typing import List

from repro.arch.disassembler import find_syscall_sites_linear
from repro.cpu.cycles import Event
from repro.interposers.base import (
    Interposer,
    install_trampoline,
    make_injector_library,
    prepend_ld_preload,
)
from repro.memory.bitmap import AddressBitmap
from repro.memory.pages import PAGE_SIZE, Prot, page_base, round_up_pages
from repro.observability.events import RewriteApplied

LIB_PATH = "/opt/interposers/libzpoline.so"

CALL_RAX = b"\xff\xd0"

#: The patch window's permissions while the two bytes are stored.
PROT_RWX = Prot.READ | Prot.WRITE | Prot.EXEC


def rewrite_site_safely(kernel, process, address: int) -> None:
    """The correct cross-modifying-code protocol (what zpoline and K23 do,
    and lazypoline does not): save page permissions, make the page
    writable, store both bytes in one shot, restore the *saved*
    permissions, and invalidate every core's instruction stream."""
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
        for region_base, region_len, region_name in self._scan_targets(process):
            code = process.address_space.read_kernel(region_base, region_len)
            for offset in find_syscall_sites_linear(code):
                site = region_base + offset
                rewrite_site_safely(self.kernel, process, site)
                state["rewritten"].append(site)
                if state["bitmap"] is not None:
                    state["bitmap"].set(site)

    def _scan_targets(self, process) -> List[tuple]:
        """Maximal executable page runs present at load time, excluding the
        trampoline itself and the interposer's own library.

        Scanning is page-granular: the data pages of an image are rw- and
        therefore skipped, exactly like a real rewriter walking PT_LOAD
        segments by their protection.
        """
        targets = []
        space = process.address_space
        for region in space.regions:
            if region.name in ("[trampoline]", LIB_PATH, "[vdso]"):
                continue
            run_start = None
            addr = region.start
            while addr <= region.end:
                executable = (addr < region.end
                              and space.prot_at(addr) & Prot.EXEC)
                if executable and run_start is None:
                    run_start = addr
                elif not executable and run_start is not None:
                    targets.append((run_start, addr - run_start, region.name))
                    run_start = None
                addr += PAGE_SIZE
        return targets
