"""Interposer framework: hooks, forwarding, and the trampoline at address 0.

The *hook* is the user-facing interposition function.  Its signature is::

    hook(thread, nr, args, forward) -> int | BLOCKED

where ``forward()`` executes the original system call (with full kernel cost
accounting) and returns its result.  The default :data:`EMPTY_HOOK` forwards
unconditionally — the paper's overhead-isolation methodology (§6.2).  Use
cases (tracing, sandboxing, emulation) supply richer hooks; see
``examples/``.

Every interposed syscall takes one host path, :meth:`Interposer.intercept`,
from the trampoline's ``HOSTCALL`` tail or from SIGSYS; a mechanism
supplies only data (its charges, site check, discovery step and guard).

This module also owns the shared trampoline machinery: the page at virtual
address 0 holding a nop sled (landing pad for ``callq *%rax`` with RAX = the
syscall number) that slides into a HOSTCALL tail, protected as eXecute-Only
Memory via PKU — reads and writes keep faulting like a proper NULL
dereference, while execution proceeds (the asymmetry behind P4a).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
from repro.cpu.cycles import Event
from repro.errors import InterposerAbort
from repro.kernel.syscall_impl import BLOCKED
from repro.kernel.syscalls import (
    SYSCALL_DISPATCH_FILTER_ALLOW,
    SYSCALL_DISPATCH_FILTER_BLOCK,
    Errno,
    Nr,
)
from repro.loader.image import SimImage
from repro.memory.pages import PAGE_SIZE, Prot
from repro.memory.pku import xom_pkru_for
from repro.observability.events import SyscallEnter, SyscallExit

_NR_FORK = int(Nr.fork)
_ENOSYS = -Errno.ENOSYS
_MASK64 = (1 << 64) - 1
_PROT_WRITE = int(Prot.WRITE)
_ALLOW = SYSCALL_DISPATCH_FILTER_ALLOW
_BLOCK = SYSCALL_DISPATCH_FILTER_BLOCK
_ORIGIN = {"rewrite": "rewrite-handler", "sud": "sud-handler"}
_RCX, _RSP, _R11 = int(Reg.RCX), int(Reg.RSP), int(Reg.R11)

#: Bytes of trampoline tail code (HOSTCALL imm16 = 5, RET = 1).
TRAMPOLINE_TAIL_BYTES = 6

#: Size of the nop sled: one landing byte per interposable syscall number.
#: The sled fills the whole trampoline page up to the tail, so *any* RAX
#: value below ~PAGE_SIZE lands safely (Linux numbers stop below 512, but
#: K23's fake syscalls 1023/1024 — and any forged number — must slide into
#: the tail rather than fetch trailing garbage).  Larger values fall off
#: the page and fault, exactly as on the real systems.
SLED_SIZE = PAGE_SIZE - TRAMPOLINE_TAIL_BYTES

#: The protection key the trampoline page is tagged with.
TRAMPOLINE_PKEY = 1

#: The user-facing interposition function.  Called as
#: ``hook(thread, nr, args, forward)`` where *thread* is the trapping
#: simulated thread, *nr* the syscall number, *args* the six argument
#: registers, and *forward* a zero-argument closure that executes the
#: original call (returning its result, or ``BLOCKED`` when the call
#: parked for a restart).  The hook returns the value the application
#: sees — usually ``forward()``'s result, a substitute, or ``BLOCKED``
#: propagated unchanged.
SyscallHook = Callable[[object, int, List[int], Callable[[], int]], int]


def EMPTY_HOOK(thread, nr: int, args: List[int], forward: Callable[[], int]):
    """The paper's evaluation hook: forward and return (§6.2)."""
    return forward()


class Interposer:
    """Base class: lifecycle hooks, per-pid accounting, and the one host
    path of an interposed syscall (:meth:`intercept`)."""

    name = "interposer"

    # -- the mechanism's data for intercept() ----------------------------------

    #: ``process.interposer_state`` key; a ``selector`` in that dict is
    #: toggled to ALLOW around every forwarded call.
    state_key = ""
    #: Charged, in order, on every trampoline entry.
    entry_charges: Tuple[Event, ...] = ()
    #: NULL-execution check: ``(charge, site-set field, abort prefix)``.
    site_check: Optional[Tuple[Event, str, str]] = None
    #: Charged after the site check, or first on SIGSYS (stack switch).
    switch_charges: Tuple[Event, ...] = ()
    #: ``discover(thread, site)``: SIGSYS only, once dispatch is off.
    discover: Optional[Callable[[object, int], None]] = None
    #: Syscall numbers :meth:`guard` sees before they are forwarded.
    guarded: FrozenSet[int] = frozenset()

    def __init__(self, kernel, hook: Optional[SyscallHook] = None):
        self.kernel = kernel
        self.hook: SyscallHook = hook or EMPTY_HOOK
        #: pid → list of (nr, via) for every application syscall this
        #: interposer intercepted.  ``via`` ∈ {"sud", "rewrite", "ptrace"}.
        self.handled: Dict[int, List[tuple]] = {}

    # -- lifecycle (called by the kernel) -------------------------------------

    def install(self) -> "Interposer":
        """Make this interposer govern subsequently spawned processes."""
        self.kernel.interposer = self
        return self

    def before_exec(self, process) -> None:
        """Adjust *process* (environment, tracer) before its image loads."""

    def on_process_exit(self, process) -> None:
        """Cleanup hook."""

    # -- accounting --------------------------------------------------------------

    def record(self, pid: int, nr: int, via: str) -> None:
        self.handled.setdefault(pid, []).append((nr, via))

    def handled_count(self, pid: Optional[int] = None) -> int:
        if pid is not None:
            return len(self.handled.get(pid, []))
        return sum(len(entries) for entries in self.handled.values())

    # -- the interposed path -----------------------------------------------------

    def intercept(self, thread, sigctx=None) -> None:
        """Interpose the syscall *thread* is making: the trampoline entry
        (a ``callq *%rax`` from a rewritten site; live registers, return
        address on the stack) or, with *sigctx*, the SIGSYS body (the
        frame's registers).

        Order: entry charges and site check, or switch charges; selector
        to ALLOW; discovery; guard; hook and forwarded call; selector back
        to BLOCK unless the call execve'd; result or restart.  Registers,
        stack and selector are accessed in place, with no call frames.
        """
        charge = self.kernel.cycles.charge
        process = thread.process
        state = process.interposer_state.get(self.state_key)
        space = process.address_space
        if sigctx is None:
            for event in self.entry_charges:
                charge(event)
            regs = thread.context._regs
            check = self.site_check
            if check is not None and state is not None:
                charge(check[0])
                rsp = regs[_RSP]
                off = rsp % PAGE_SIZE
                page = space._pages.get(rsp // PAGE_SIZE)
                if page is not None and off <= PAGE_SIZE - 8:
                    site = int.from_bytes(page[off:off + 8], "little") - 2
                else:
                    site = read_return_address(thread) - 2
                if site not in state[check[1]]:
                    raise InterposerAbort(
                        f"{check[2]}: trampoline entered from unknown site "
                        f"{site:#x} (NULL-execution check)")
            for event in self.switch_charges:
                charge(event)
            nr = regs[0]
            via = "rewrite"
        else:
            for event in self.switch_charges:
                charge(event)
            regs = sigctx.saved["regs"]
            nr = sigctx.info["nr"]
            via = "sud"
        args = [regs[7], regs[6], regs[2], regs[10], regs[8], regs[9]]
        selector = state.get("selector") if state is not None else None
        if selector is not None:
            charge(Event.SUD_SELECTOR_WRITE)
            idx = selector // PAGE_SIZE
            entry = space._fast.get(idx) or space.page_entry(idx)
            if entry is not None and entry[1] & _PROT_WRITE:
                entry[0][selector % PAGE_SIZE] = _ALLOW
            else:
                space.write_kernel(selector, _SELECTOR_BYTES[_ALLOW])
        if sigctx is not None and self.discover is not None:
            self.discover(thread, sigctx.fault_rip)
        if nr in self.guarded:
            self.guard(thread, nr, args)
        result = self.run_hook(thread, nr, args, via)
        if selector is not None and not thread._just_execed:
            charge(Event.SUD_SELECTOR_WRITE)
            idx = selector // PAGE_SIZE
            entry = space._fast.get(idx) or space.page_entry(idx)
            if entry is not None and entry[1] & _PROT_WRITE:
                entry[0][selector % PAGE_SIZE] = _BLOCK
            else:
                space.write_kernel(selector, _SELECTOR_BYTES[_BLOCK])
        if sigctx is None:
            if result is BLOCKED:
                restart_from_trampoline(thread)
            elif not thread._just_execed:  # the tail's RET resumes the app
                thread.context._regs[0] = result & _MASK64
        elif result is BLOCKED:
            # Resume on the syscall itself: it re-dispatches, uncharged.
            thread._sud_restart_credit = True
            sigctx.saved["rip"] = sigctx.fault_rip
        else:
            sigctx.saved["regs"][0] = result & _MASK64

    def sigsys_entry(self, sigctx) -> None:
        """The SIGSYS disposition of SUD-based mechanisms."""
        self.intercept(sigctx.thread, sigctx)

    def guard(self, thread, nr: int, args: List[int]) -> None:
        """Policy on a :attr:`guarded` call before it is forwarded (runs
        with dispatch already off)."""

    # -- forwarding ------------------------------------------------------------------

    def run_hook(self, thread, nr: int, args: List[int], via: str,
                 hooked: bool = True):
        """Run the hook over the application's original syscall; returns
        its result, or BLOCKED when the call parked for a restart.

        With :data:`EMPTY_HOOK`, or *hooked* False (the ``forward()``
        closure a user hook gets), this is the forwarded call itself,
        inline: record, kernel entry, charges, bus events, exit hook.
        """
        hook = self.hook
        if hooked and hook is not EMPTY_HOOK:
            return hook(thread, nr, args,
                        lambda: self.run_hook(thread, nr, args, via, False))
        kernel = self.kernel
        cycles = kernel.cycles
        bus = kernel.bus
        process = thread.process
        pid = process.pid
        origin = _ORIGIN[via]
        # Record up front so never-returning calls (exit, execve) are still
        # accounted; roll back if the call parked for a restart.
        handled = self.handled.get(pid)
        if handled is None:
            handled = self.handled[pid] = []
        handled.append((nr, via))
        if bus.enabled:
            bus.emit(SyscallEnter, ts=cycles.cycles, pid=pid,
                     tid=thread.tid, nr=nr, site=0, phase=origin)
        result = kernel.do_syscall(thread, nr, args, origin)
        if result is BLOCKED:
            kernel.syscall_log.pop()
            if bus.enabled:
                bus.emit(SyscallExit, ts=cycles.cycles, pid=pid,
                         tid=thread.tid, nr=nr, phase=origin, result=None)
            handled.pop()
            return result
        cycles.charge(Event.KERNEL_SYSCALL)
        if process.sud_armed_ever:
            cycles.charge(Event.SUD_ARMED_SLOWPATH)
        if result is None:
            result = _ENOSYS
        if bus.enabled:
            bus.emit(SyscallExit, ts=cycles.cycles, pid=pid, tid=thread.tid,
                     nr=nr, phase=origin,
                     result=result if isinstance(result, int) else None)
        fi = kernel.fault_injector
        if fi is not None:
            # The forwarded application call completes here (the raw trap
            # returned early from the SUD/rewrite dispatch path).
            fi.on_syscall_exit(thread, nr, origin)
        # The forwarded syscall really enters the kernel, which clobbers
        # RCX and R11 (the asymmetry K23's trampoline exploits, §6.2.1).
        ctx = thread.context
        regs = ctx._regs
        regs[_RCX] = ctx.rip & _MASK64
        regs[_R11] = 0x202
        if (nr == _NR_FORK and isinstance(result, int)
                and 0 < result < (1 << 63)):
            # fork executed while the handler had dispatch disabled, so
            # the child inherited an ALLOW selector.  Real selector-based
            # interposers re-initialize in the child (atfork hooks);
            # mirror that here.
            self.on_fork_child(thread, result)
        return result

    def on_fork_child(self, thread, child_pid: int) -> None:
        """Child-side re-initialization after a forwarded fork (overridden
        by selector-based interposers)."""


# ---------------------------------------------------------------- LD_PRELOAD


def prepend_ld_preload(env: Dict[str, str], lib_path: str) -> None:
    """Prepend *lib_path* to LD_PRELOAD (idempotent)."""
    existing = env.get("LD_PRELOAD", "")
    entries = [entry for entry in existing.replace(":", " ").split() if entry]
    if lib_path not in entries:
        entries.insert(0, lib_path)
    env["LD_PRELOAD"] = ":".join(entries)


def make_injector_library(kernel, lib_path: str, name: str,
                          constructor) -> SimImage:
    """Build and register a minimal LD_PRELOAD library whose constructor is
    the host-level *constructor* (the interposer's init hook)."""
    image = SimImage(name=lib_path, entry="")
    image.asm.label(f"{name}_init_marker")
    image.asm.endbr64()
    image.asm.ret()
    image.constructors.append(constructor)
    image.finalize()
    kernel.loader.register_image(image)
    return image


# ----------------------------------------------------------------- trampoline


def install_trampoline(kernel, process, entry_hostcall: int,
                       xom: bool = True) -> int:
    """Map the landing-pad trampoline at virtual address 0.

    Layout: ``SLED_SIZE`` single-byte nops, then ``HOSTCALL entry; RET``.
    ``callq *%rax`` with RAX = syscall-number lands inside the sled and
    slides into the tail.  With *xom*, the page is tagged with a dedicated
    protection key and every thread's PKRU denies data access through it —
    NULL reads/writes still fault, NULL execution does not (P4a).

    Returns the address of the tail (for tests).
    """
    asm = Asm()
    asm.nop(SLED_SIZE)
    tail = asm.offset
    asm.hostcall(entry_hostcall)
    asm.ret()
    blob = asm.assemble()

    space = process.address_space
    space.mmap(0, PAGE_SIZE, Prot.READ | Prot.WRITE, name="[trampoline]",
               fixed=True)
    space.write_kernel(0, blob)
    space.mprotect(0, PAGE_SIZE, Prot.READ | Prot.EXEC)
    if xom:
        space.pkey_mprotect(0, PAGE_SIZE, Prot.READ | Prot.EXEC,
                            pkey=TRAMPOLINE_PKEY)
        locked = xom_pkru_for(TRAMPOLINE_PKEY)
        for thread in process.threads:
            thread.context.pkru.value |= locked.value
        process.interposer_state["trampoline_pkru"] = locked.value
    process.interposer_state["trampoline_tail"] = tail
    kernel.cycles.charge(Event.MPROTECT)
    return tail


# --------------------------------------------------------- handler-side helpers


def read_return_address(thread) -> int:
    """Top of stack — where the trampoline's RET will resume (site + 2)."""
    rsp = thread.context.get(Reg.RSP)
    return struct.unpack(
        "<Q", thread.process.address_space.read_kernel(rsp, 8))[0]


def restart_from_trampoline(thread) -> None:
    """Blocked-forward restart for the rewritten path: undo the implicit
    ``call`` push and re-execute the rewritten site once unparked."""
    ctx = thread.context
    return_addr = read_return_address(thread)
    ctx.set(Reg.RSP, ctx.get(Reg.RSP) + 8)
    ctx.rip = return_addr - 2


# ------------------------------------------------------------ selector machinery


def allocate_selector_page(kernel, process) -> int:
    """Map one rw page holding the SUD selector byte; returns its address.

    Real interposers place the selector in a PKU-protected data section; the
    threat model (§3) assumes that protection, so we keep it plainly
    addressable but note the assumption.
    """
    base = process.address_space.mmap(None, PAGE_SIZE,
                                      Prot.READ | Prot.WRITE,
                                      name="[sud-selector]")
    process.address_space.write_kernel(base, b"\x00")
    return base


#: The one-byte store of each selector value, built once.
_SELECTOR_BYTES = tuple(bytes([value]) for value in range(256))


def write_selector(kernel, process, selector_addr: int, value: int) -> None:
    """Toggle the selector byte (charged: one user-space store)."""
    kernel.cycles.charge(Event.SUD_SELECTOR_WRITE)
    process.address_space.write_kernel(selector_addr, _SELECTOR_BYTES[value])


def reblock_child_selector(kernel, child_pid: int, selector_addr: int,
                           block_value: int = 1) -> None:
    """Re-arm a fork child's inherited selector (see
    :meth:`Interposer.on_fork_child`)."""
    child = kernel.find_process(child_pid)
    if child is not None and selector_addr:
        write_selector(kernel, child, selector_addr, block_value)
