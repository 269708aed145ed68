"""The simulated C library.

Every wrapper owns its own ``syscall`` instruction, so a program that calls
``write`` and ``openat`` exercises two distinct syscall *sites* — the
property that makes K23's offline logs small and stable (Table 2 counts
unique sites, not calls).  The time functions route through the vDSO when
the loader found one (pitfall P2b: no ``syscall`` instruction executes), and
fall back to real syscalls when the vDSO is absent — which is precisely what
K23's ptracer forces by disabling the vDSO (§5.2).

``dlopen``/``dlmopen`` are host-implemented (as in real life they are
loader, not kernel, functionality); dlmopen's namespace argument gives
interposers the isolated-copy semantics prior work relies on (§5.3).
"""

from __future__ import annotations

import functools
from typing import Dict, Tuple

from repro.arch.registers import Reg
from repro.cpu.cycles import Event
from repro.kernel.syscalls import Nr
from repro.loader.image import SimImage

#: Canonical path, matching the paper's Figure 3 log excerpts.
LIBC_PATH = "/usr/lib/x86_64-linux-gnu/libc.so.6"

#: vDSO pointer slots in libc's data section (loader-patched).
VDSO_CLOCK_SLOT = "__vdso_clock_gettime_ptr"
VDSO_TOD_SLOT = "__vdso_gettimeofday_ptr"

#: Wrappers generated mechanically: symbol name → syscall number.
_PLAIN_WRAPPERS: Dict[str, int] = {
    "read": Nr.read,
    "write": Nr.write,
    "open": Nr.open,
    "openat": Nr.openat,
    "close": Nr.close,
    "lseek": Nr.lseek,
    "stat": Nr.stat,
    "fstat": Nr.fstat,
    "newfstatat": Nr.newfstatat,
    "access": Nr.access,
    "getdents64": Nr.getdents64,
    "unlink": Nr.unlink,
    "mkdir": Nr.mkdir,
    "getcwd": Nr.getcwd,
    "chdir": Nr.chdir,
    "fsync": Nr.fsync,
    "fdatasync": Nr.fdatasync,
    "dup": Nr.dup,
    "fcntl": Nr.fcntl,
    "ioctl": Nr.ioctl,
    "mmap": Nr.mmap,
    "munmap": Nr.munmap,
    "mprotect": Nr.mprotect,
    "pkey_mprotect": Nr.pkey_mprotect,
    "pkey_alloc": Nr.pkey_alloc,
    "pkey_free": Nr.pkey_free,
    "brk": Nr.brk,
    "getpid": Nr.getpid,
    "gettid": Nr.gettid,
    "getppid": Nr.getppid,
    "getuid": Nr.getuid,
    "uname": Nr.uname,
    "nanosleep": Nr.nanosleep,
    "sched_yield": Nr.sched_yield,
    "getrandom": Nr.getrandom,
    "futex": Nr.futex,
    "rt_sigaction": Nr.rt_sigaction,
    "rt_sigprocmask": Nr.rt_sigprocmask,
    "arch_prctl": Nr.arch_prctl,
    "setpriority": Nr.setpriority,
    "kill": Nr.kill,
    "prctl": Nr.prctl,
    "socket": Nr.socket,
    "bind": Nr.bind,
    "listen": Nr.listen,
    "accept": Nr.accept,
    "recvfrom": Nr.recvfrom,
    "sendto": Nr.sendto,
    "shutdown": Nr.shutdown,
    "connect": Nr.connect,
    "epoll_create": Nr.epoll_create,
    "epoll_ctl": Nr.epoll_ctl,
    "epoll_wait": Nr.epoll_wait,
    "fork": Nr.fork,
    "execve": Nr.execve,
    "wait4": Nr.wait4,
    "exit": Nr.exit,
    "exit_group": Nr.exit_group,
}


#: The host-implemented entry points, in :func:`_register_hostcalls` order.
_HOST_SYMBOLS = ("dlopen", "dlmopen", "pthread_create", "pthread_exit",
                 "burn")


def build_libc(kernel) -> SimImage:
    """The libc image bound to *kernel*'s hostcall registry.

    Registers libc's host functions with *kernel* and returns the image
    assembled for their indices; kernels that register at the same
    indices share one image.
    """
    return _assemble_libc(_register_hostcalls(kernel))


def _register_hostcalls(kernel) -> Tuple[int, ...]:
    """Register dlopen, dlmopen, pthread_create, thread_exit and burn with
    *kernel*; returns their hostcall indices in that order."""

    def dlopen_host(thread):
        kernel.cycles.charge(Event.DLOPEN)
        path = thread.process.address_space.read_cstr(
            thread.context.get(Reg.RDI))
        base = kernel.loader.load_library(thread.process, path,
                                          run_constructors_on=thread)
        thread.context.set(Reg.RAX, base)

    def dlmopen_host(thread):
        kernel.cycles.charge(Event.DLOPEN)
        namespace = thread.context.get(Reg.RDI)
        path = thread.process.address_space.read_cstr(
            thread.context.get(Reg.RSI))
        base = kernel.loader.load_library(thread.process, path,
                                          run_constructors_on=thread,
                                          namespace=namespace)
        thread.context.set(Reg.RAX, base)

    def pthread_create_host(thread):
        """Spawn a new thread at the function in RDI (pthread_create-lite).

        Inherits the caller's registers, PKRU, and — as on Linux clone —
        the SUD configuration.  The new thread gets its own stack.
        """
        from repro.memory.pages import PAGE_SIZE as _PS, Prot as _Prot

        process = thread.process
        entry = thread.context.get(Reg.RDI)
        child = process.spawn_thread()
        child.context.restore(thread.context.save())
        stack = process.address_space.mmap(None, 16 * _PS,
                                           _Prot.READ | _Prot.WRITE,
                                           name="[thread-stack]")
        child.context.set(Reg.RSP, stack + 16 * _PS - 16)
        child.context.rip = entry
        child.sud = thread.sud.copy()
        thread.context.set(Reg.RAX, child.tid)

    def thread_exit_host(thread):
        """End the calling thread (pthread_exit-lite)."""
        thread.exited = True

    def burn_host(thread):
        """Model application compute: charge RDI cycles in one step.

        Workloads use this to represent request-processing work (parsing,
        hashing, page-cache copies) without single-stepping millions of
        filler instructions.  It is pure user-space work: no interposer
        ever sees it, exactly like real computation.
        """
        kernel.cycles.charge_cycles(thread.context.get(Reg.RDI),
                                    label="app-compute")

    register = kernel.hostcalls.register
    return (register(dlopen_host, "libc.dlopen"),
            register(dlmopen_host, "libc.dlmopen"),
            register(pthread_create_host, "libc.pthread_create"),
            register(thread_exit_host, "libc.thread_exit"),
            register(burn_host, "libc.burn"))


@functools.lru_cache(maxsize=None)
def _assemble_libc(indices: Tuple[int, ...]) -> SimImage:
    """Assemble libc with its host functions at hostcall *indices* (the
    order :func:`_register_hostcalls` returns).  Memoised on the indices:
    the image depends on nothing else, and every caller gets the same
    finalized, read-only image."""
    image = SimImage(name=LIBC_PATH, entry="")
    asm = image.asm

    # -- mechanical wrappers ------------------------------------------------
    for symbol, number in _PLAIN_WRAPPERS.items():
        asm.label(symbol)
        asm.endbr64()
        asm.mov_ri(Reg.RAX, int(number))
        asm.syscall_site(f"{symbol}.syscall")
        asm.ret()
        asm.align(16)

    # -- generic syscall(3): nr in RDI, args shifted down one register -------
    asm.label("syscall")
    asm.endbr64()
    asm.mov_rr(Reg.RAX, Reg.RDI)
    asm.mov_rr(Reg.RDI, Reg.RSI)
    asm.mov_rr(Reg.RSI, Reg.RDX)
    asm.mov_rr(Reg.RDX, Reg.R10)
    asm.mov_rr(Reg.R10, Reg.R8)
    asm.mov_rr(Reg.R8, Reg.R9)
    asm.syscall_site("syscall.syscall")
    asm.ret()
    asm.align(16)

    # -- a legacy sysenter-based entry (exercises 0F 34 handling) ------------
    asm.label("legacy_getpid")
    asm.endbr64()
    asm.mov_ri(Reg.RAX, int(Nr.getpid))
    asm.mark("legacy_getpid.sysenter")
    asm.sysenter_()
    asm.ret()
    asm.align(16)

    # -- vDSO-routed time functions (P2b) -------------------------------------
    for symbol, slot, number in (
        ("clock_gettime", VDSO_CLOCK_SLOT, Nr.clock_gettime),
        ("gettimeofday", VDSO_TOD_SLOT, Nr.gettimeofday),
    ):
        asm.label(symbol)
        asm.endbr64()
        asm.lea_rip_label(Reg.RAX, slot)
        asm.load(Reg.RAX, Reg.RAX)
        asm.test_rr(Reg.RAX, Reg.RAX)
        asm.je(f"{symbol}.syscall_path")
        asm.jmp_reg(Reg.RAX)  # tail-call into the vDSO; returns to caller
        asm.label(f"{symbol}.syscall_path")
        asm.mov_ri(Reg.RAX, int(number))
        asm.syscall_site(f"{symbol}.syscall")
        asm.ret()
        asm.align(16)

    # -- dlopen / dlmopen / threads / burn (host-implemented entry points) ----
    for symbol, index in zip(_HOST_SYMBOLS, indices):
        asm.label(symbol)
        asm.endbr64()
        asm.hostcall(index)
        asm.ret()
        asm.align(16)

    # -- data section: vDSO slots + a realistic jump-table-style data island --
    image.begin_data()
    asm.label(VDSO_CLOCK_SLOT)
    asm.dq(0)
    asm.label(VDSO_TOD_SLOT)
    asm.dq(0)
    image.finalize()
    return image
