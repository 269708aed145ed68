"""libK23 — K23's in-process fast interposer (§5.2/§5.3, right half of
Figure 4).

The library image carries one piece of real simulated code: the fake-syscall
handoff routine (``mov rax,1023; syscall; mov rax,1024; syscall``), executed
while the ptracer is still attached so the protocol traverses the genuine
trap path.  Everything else happens in the constructor and handlers:

1. install the XOM trampoline at address 0;
2. load this program's sealed offline log, map ``(region, offset)`` pairs
   back to virtual addresses, and **validate** that each target still
   decodes as ``syscall``/``sysenter`` before touching it;
3. perform the single selective rewrite with the safe protocol
   (save/restore permissions, atomic store, cross-core invalidation) —
   P3a/P3b/P5;
4. record every rewritten site in a robin-hood hash set, bounded by the log
   size (P4b) and consulted at the trampoline entry in the ``-ultra``
   variants (P4a);
5. run the handoff, after which the ptracer detaches;
6. arm the SUD fallback: unlogged sites still trap and get interposed —
   but are **never rewritten** (P2a without reintroducing P3b);
7. guard ``prctl``: any attempt to disable dispatch aborts the process
   (P1b), and ``execve`` re-attaches a fresh ptracer before being forwarded
   so the next image restarts the whole online phase (§5.3).
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.arch.decoder import decode
from repro.arch.registers import Reg
from repro.errors import DecodeError, SegmentationFault
from repro.core.logs import SiteLog
from repro.interposers.base import (
    allocate_selector_page,
    install_trampoline,
    write_selector,
)
from repro.interposers.zpoline import rewrite_sites_safely
from repro.kernel.syscalls import (
    K23_FAKE_SYSCALL_DETACH,
    K23_FAKE_SYSCALL_STATE,
    SIGSYS,
    SYSCALL_DISPATCH_FILTER_BLOCK,
)
from repro.loader.image import SimImage
from repro.memory.hashset import RobinHoodSet

LIB_PATH = "/opt/k23/libk23.so"


def build_libk23_image(kernel, constructor, finish_hostcall: int) -> SimImage:
    """The libK23 library image: constructor + the handoff routine."""
    image = SimImage(name=LIB_PATH, entry="")
    asm = image.asm
    asm.label("__k23_handoff")
    asm.endbr64()
    asm.mov_ri(Reg.RAX, K23_FAKE_SYSCALL_STATE)
    asm.mark("k23.fake_state")
    asm.syscall_()
    asm.mov_ri(Reg.RAX, K23_FAKE_SYSCALL_DETACH)
    asm.mark("k23.fake_detach")
    asm.syscall_()
    asm.hostcall(finish_hostcall)
    asm.ret()
    image.constructors.append(constructor)
    image.finalize()
    return image


class LibK23:
    """Per-interposer in-process component (state lives per process)."""

    def __init__(self, interposer):
        self.interposer = interposer
        self.kernel = interposer.kernel
        self._finish_idx = self.kernel.hostcalls.register(
            self._finish_init, "k23.finish_init")
        self._entry_idx = self.kernel.hostcalls.register(
            interposer.intercept, "k23.entry")
        self.image = build_libk23_image(self.kernel, self.constructor,
                                        self._finish_idx)
        self.kernel.loader.register_image(self.image)

    # ------------------------------------------------------------ constructor

    def constructor(self, thread, base: int) -> None:
        """libK23 init: trampoline, selective rewrite, handoff injection."""
        kernel = self.kernel
        process = thread.process
        timeline = self.interposer.timeline
        state: Dict[str, object] = {
            "base": base,
            "rewritten": [],
            "skipped_log_entries": [],
            "hashset": RobinHoodSet(),
            "from_ptracer": None,
            "handoff_token": ("k23", process.pid),
            "selector": None,
        }
        process.interposer_state["k23"] = state

        install_trampoline(kernel, process, self._entry_idx, xom=True)
        timeline.append(("libk23:trampoline", 0))

        # Single selective rewrite of pre-validated sites (§5.2 step ④).
        sites = self._resolve_logged_sites(process, state)
        rewrite_sites_safely(kernel, process, sites)
        state["rewritten"].extend(sites)
        for site in sites:
            state["hashset"].add(site)
        timeline.append(("libk23:rewrote", len(state["rewritten"])))

        # Inject the handoff call: push the stub return address, jump into
        # the library's __k23_handoff routine (real simulated code, so the
        # fake syscalls traverse the genuine trap path while traced).
        ctx = thread.context
        rsp = ctx.get(Reg.RSP) - 8
        ctx.set(Reg.RSP, rsp)
        process.address_space.write_kernel(rsp, struct.pack("<Q", ctx.rip))
        ctx.rip = base + self.image.symbol("__k23_handoff")

    def _resolve_logged_sites(self, process, state) -> List[int]:
        """Map the sealed log's (region, offset) pairs to addresses and
        validate each still decodes as a syscall instruction."""
        if not SiteLog.exists(self.kernel.vfs, process.path):
            self.interposer.timeline.append(("libk23:no-log", process.path))
            return []
        log = SiteLog.load(self.kernel.vfs, process.path)
        space = process.address_space
        bases: Dict[str, int] = {}
        for key, (base, image, ns) in process.loaded_images.items():
            if ns == 0:
                bases[image.name] = base
        sites: List[int] = []
        for region_name, offset in log:
            base = bases.get(region_name)
            if base is None:
                state["skipped_log_entries"].append(
                    (region_name, offset, "region not loaded"))
                continue
            site = base + offset
            try:
                insn = decode(space.read_kernel(site, 2), 0)
            except DecodeError:
                state["skipped_log_entries"].append(
                    (region_name, offset, "undecodable"))
                continue
            except SegmentationFault:
                state["skipped_log_entries"].append(
                    (region_name, offset, "outside mapped region"))
                continue
            if not insn.is_syscall_site:
                state["skipped_log_entries"].append(
                    (region_name, offset, "not a syscall instruction"))
                continue
            sites.append(site)
        return sites

    # ----------------------------------------------------- post-handoff init

    def _finish_init(self, thread) -> None:
        """Runs right after the detach fake-syscall: arm the SUD fallback."""
        kernel = self.kernel
        process = thread.process
        state = process.interposer_state["k23"]
        selector = allocate_selector_page(kernel, process)
        state["selector"] = selector
        # The SUD fallback (P2a): unlogged sites trap into the shared SIGSYS
        # body, which — unlike lazypoline's — never rewrites: discovery-
        # driven patching is exactly what enables attack-induced
        # misidentification (P3b).
        process.dispositions.set_action(SIGSYS, self.interposer.sigsys_entry)
        for t in process.threads:
            t.sud.arm(allow_start=0, allow_len=0, selector_addr=selector)
        process.sud_armed_ever = True
        write_selector(kernel, process, selector,
                       SYSCALL_DISPATCH_FILTER_BLOCK)
        self.interposer.timeline.append(
            ("libk23:sud-fallback-armed", selector))
