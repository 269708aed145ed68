"""The vDSO: user-space fast paths that never execute a ``syscall``.

Linux maps a small shared object into every process; libc routes
``clock_gettime``/``gettimeofday``/``getcpu``/``time`` through it, so those
"system calls" complete without a ``syscall`` instruction.  Rewriting-based
interposers therefore never see them — half of pitfall P2b.  K23's ptracer
disables the vDSO at startup, forcing libc onto the real syscall path
(§5.2), which is why only K23 observes these calls.

The vDSO body is host-implemented (a ``HOSTCALL`` standing for the pure
user-space gettime code); crucially it is **not** a syscall: SUD does not
trap it, rewriters find no ``0F 05`` in it, and the kernel's syscall
dispatch never runs.  Each invocation is recorded in ``kernel.vdso_calls``
as ground truth for the exhaustiveness experiments.
"""

from __future__ import annotations

import struct

from repro.arch.assembler import Asm
from repro.arch.registers import Reg

#: Symbol names exported by the simulated vDSO.
VDSO_CLOCK_GETTIME = "__vdso_clock_gettime"
VDSO_GETTIMEOFDAY = "__vdso_gettimeofday"


def build_vdso(kernel):
    """Assemble the vDSO image for *kernel*.

    Returns ``(code_bytes, symbols)`` where symbols maps exported names to
    offsets within the blob.
    """

    def _emit(thread, symbol):
        if kernel.bus.enabled:
            from repro.observability.events import VdsoCall

            kernel.bus.emit(VdsoCall, ts=kernel.cycles.cycles,
                            pid=thread.process.pid, tid=thread.tid,
                            symbol=symbol, site=thread.context.rip)

    def vdso_clock_gettime(thread):
        """Host body: write the current time into *(rsi) and return 0."""
        kernel.vdso_calls.append(
            (thread.process.pid, VDSO_CLOCK_GETTIME, thread.context.rip)
        )
        _emit(thread, VDSO_CLOCK_GETTIME)
        timespec_ptr = thread.context.get(Reg.RSI)
        ns = kernel.now_ns()
        payload = struct.pack("<qq", ns // 1_000_000_000, ns % 1_000_000_000)
        thread.process.address_space.write_kernel(timespec_ptr, payload)
        thread.context.set(Reg.RAX, 0)

    def vdso_gettimeofday(thread):
        kernel.vdso_calls.append(
            (thread.process.pid, VDSO_GETTIMEOFDAY, thread.context.rip)
        )
        _emit(thread, VDSO_GETTIMEOFDAY)
        timeval_ptr = thread.context.get(Reg.RDI)
        ns = kernel.now_ns()
        payload = struct.pack("<qq", ns // 1_000_000_000,
                              (ns % 1_000_000_000) // 1000)
        thread.process.address_space.write_kernel(timeval_ptr, payload)
        thread.context.set(Reg.RAX, 0)

    clock_idx = kernel.hostcalls.register(vdso_clock_gettime,
                                          VDSO_CLOCK_GETTIME)
    tod_idx = kernel.hostcalls.register(vdso_gettimeofday, VDSO_GETTIMEOFDAY)

    asm = Asm()
    asm.label(VDSO_CLOCK_GETTIME)
    asm.endbr64()
    asm.hostcall(clock_idx)
    asm.ret()
    asm.align(16)
    asm.label(VDSO_GETTIMEOFDAY)
    asm.endbr64()
    asm.hostcall(tod_idx)
    asm.ret()
    return asm.assemble(), dict(asm.labels)
