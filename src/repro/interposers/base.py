"""Interposer framework: hooks, forwarding, and the trampoline at address 0.

The *hook* is the user-facing interposition function.  Its signature is::

    hook(thread, nr, args, forward) -> int | BLOCKED

where ``forward()`` executes the original system call (with full kernel cost
accounting) and returns its result.  The default :data:`EMPTY_HOOK` forwards
unconditionally — the paper's overhead-isolation methodology (§6.2).  Use
cases (tracing, sandboxing, emulation) supply richer hooks; see
``examples/``.

This module also owns the shared trampoline machinery: the page at virtual
address 0 holding a nop sled (landing pad for ``callq *%rax`` with RAX = the
syscall number) that slides into a HOSTCALL tail, protected as eXecute-Only
Memory via PKU — reads and writes keep faulting like a proper NULL
dereference, while execution proceeds (the asymmetry behind P4a).
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
from repro.kernel.syscalls import Nr as _Nr

_NR_FORK = int(_Nr.fork)
from repro.cpu.cycles import Event
from repro.kernel.syscall_impl import BLOCKED
from repro.loader.image import SimImage
from repro.memory.pages import PAGE_SIZE, Prot
from repro.memory.pku import xom_pkru_for

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
    """Base class: lifecycle hooks plus per-pid accounting."""

    name = "interposer"

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

    # -- forwarding ------------------------------------------------------------------

    def forward(self, thread, nr: int, args: List[int], via: str):
        """Execute the application's original syscall; returns result or
        BLOCKED (propagated so the caller can arrange a restart)."""
        origin = "rewrite-handler" if via == "rewrite" else "sud-handler"
        # Record up front so never-returning calls (exit, execve) are still
        # accounted; roll back if the call parked for a restart.
        self.record(thread.process.pid, nr, via)
        result = self.kernel.direct_syscall(thread, nr, args, origin=origin)
        if result is BLOCKED:
            self.handled[thread.process.pid].pop()
        else:
            # The forwarded syscall really enters the kernel, which clobbers
            # RCX and R11 (the asymmetry K23's trampoline exploits, §6.2.1).
            thread.context.set(Reg.RCX, thread.context.rip)
            thread.context.set(Reg.R11, 0x202)
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

    def run_hook(self, thread, nr: int, args: List[int], via: str):
        """Invoke the user hook with a forward closure; returns result or
        BLOCKED."""
        if self.hook is EMPTY_HOOK:
            return self.forward(thread, nr, args, via)

        def do_forward():
            return self.forward(thread, nr, args, via)

        return self.hook(thread, nr, args, do_forward)


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
    rsp = ctx.get(Reg.RSP)
    return_addr = struct.unpack(
        "<Q", thread.process.address_space.read_kernel(rsp, 8))[0]
    ctx.set(Reg.RSP, rsp + 8)
    ctx.rip = return_addr - 2


def finish_trampoline_call(thread, result: int) -> None:
    """Store the syscall result; the trampoline tail's RET resumes the app.

    No-op when the forwarded call was an ``execve`` that replaced the whole
    context — the fresh image must start untouched.
    """
    if not thread._just_execed:
        thread.context.set_syscall_result(result)


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
