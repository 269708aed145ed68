"""System call numbers, errno values, and prctl/SUD constants.

Numbers are the real x86-64 Linux ABI values — the microbenchmark's
"non-existent system call 500" and the ``prctl(PR_SET_SYSCALL_USER_DISPATCH)``
bypass of pitfall P1b only make sense against the genuine numbering.
"""

from __future__ import annotations

import enum


class Nr(enum.IntEnum):
    """x86-64 Linux syscall numbers (subset implemented by the simulator)."""

    read = 0
    write = 1
    open = 2
    close = 3
    stat = 4
    fstat = 5
    lseek = 8
    mmap = 9
    mprotect = 10
    munmap = 11
    brk = 12
    rt_sigaction = 13
    rt_sigprocmask = 14
    rt_sigreturn = 15
    ioctl = 16
    access = 21
    sched_yield = 24
    dup = 32
    nanosleep = 35
    getpid = 39
    socket = 41
    connect = 42
    accept = 43
    sendto = 44
    recvfrom = 45
    shutdown = 48
    bind = 49
    listen = 50
    clone = 56
    fork = 57
    execve = 59
    exit = 60
    wait4 = 61
    kill = 62
    uname = 63
    fcntl = 72
    fsync = 74
    fdatasync = 75
    getcwd = 79
    chdir = 80
    mkdir = 83
    unlink = 87
    gettimeofday = 96
    ptrace = 101
    getuid = 102
    getppid = 110
    arch_prctl = 158
    setpriority = 141
    prctl = 157
    gettid = 186
    futex = 202
    epoll_create = 213
    getdents64 = 217
    clock_gettime = 228
    exit_group = 231
    epoll_wait = 232
    epoll_ctl = 233
    openat = 257
    newfstatat = 262
    pwritev = 296
    process_vm_readv = 310
    process_vm_writev = 311
    getrandom = 318
    pkey_mprotect = 329
    pkey_alloc = 330
    pkey_free = 331

    @classmethod
    def name_of(cls, number: int) -> str:
        """Readable name for traces; unknown numbers render as ``sys_<n>``."""
        member = cls._value2member_map_.get(number)
        return f"sys_{number}" if member is None else member.name


#: The paper's microbenchmark syscall: non-existent number 500, chosen to
#: minimize in-kernel time and emphasize interposition overhead (§6.2.1).
FAKE_SYSCALL_STRESS = 500

#: K23's fake syscall numbers for the ptracer↔libK23 handoff protocol
#: (§5.3): the kernel rejects them with ENOSYS, but the ptracer observes
#: them at the syscall-entry stop.
K23_FAKE_SYSCALL_STATE = 1023
K23_FAKE_SYSCALL_DETACH = 1024


class Errno(enum.IntEnum):
    """Linux errno values (positive; syscalls return them negated)."""

    EPERM = 1
    ENOENT = 2
    ESRCH = 3
    EINTR = 4
    EIO = 5
    EBADF = 9
    ECHILD = 10
    EAGAIN = 11
    ENOMEM = 12
    EACCES = 13
    EFAULT = 14
    EBUSY = 16
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENFILE = 23
    EMFILE = 24
    ENOTTY = 25
    ESPIPE = 29
    EPIPE = 32
    ERANGE = 34
    ENOSYS = 38
    ENOTEMPTY = 39
    EADDRINUSE = 98
    ECONNREFUSED = 111


# -------------------------------------------------------------------- clone

#: ``clone(2)`` flag subset (include/uapi/linux/sched.h) — enough to model
#: thread creation (shared VM) vs. fork-style child processes.
CLONE_VM = 0x0000_0100
CLONE_FS = 0x0000_0200
CLONE_FILES = 0x0000_0400
CLONE_SIGHAND = 0x0000_0800
CLONE_THREAD = 0x0001_0000


# ---------------------------------------------------------------- prctl / SUD

PR_SET_SYSCALL_USER_DISPATCH = 59
PR_SYS_DISPATCH_OFF = 0
PR_SYS_DISPATCH_ON = 1

#: Selector byte values (include/uapi/linux/syscall_user_dispatch.h).
SYSCALL_DISPATCH_FILTER_ALLOW = 0
SYSCALL_DISPATCH_FILTER_BLOCK = 1

# ------------------------------------------------------------------- signals

SIGHUP = 1
SIGINT = 2
SIGQUIT = 3
SIGILL = 4
SIGTRAP = 5
SIGABRT = 6
SIGBUS = 7
SIGFPE = 8
SIGKILL = 9
SIGUSR1 = 10
SIGSEGV = 11
SIGUSR2 = 12
SIGPIPE = 13
SIGALRM = 14
SIGTERM = 15
SIGCHLD = 17
SIGSTOP = 19
SIGURG = 23
SIGWINCH = 28
SIGSYS = 31

SIGNAL_NAMES = {
    SIGHUP: "SIGHUP",
    SIGINT: "SIGINT",
    SIGQUIT: "SIGQUIT",
    SIGILL: "SIGILL",
    SIGTRAP: "SIGTRAP",
    SIGABRT: "SIGABRT",
    SIGBUS: "SIGBUS",
    SIGFPE: "SIGFPE",
    SIGKILL: "SIGKILL",
    SIGUSR1: "SIGUSR1",
    SIGSEGV: "SIGSEGV",
    SIGUSR2: "SIGUSR2",
    SIGPIPE: "SIGPIPE",
    SIGALRM: "SIGALRM",
    SIGTERM: "SIGTERM",
    SIGCHLD: "SIGCHLD",
    SIGSTOP: "SIGSTOP",
    SIGURG: "SIGURG",
    SIGWINCH: "SIGWINCH",
    SIGSYS: "SIGSYS",
}

# ------------------------------------------------------------------- ptrace ops

PTRACE_TRACEME = 0
PTRACE_PEEKTEXT = 1
PTRACE_POKETEXT = 4
PTRACE_CONT = 7
PTRACE_KILL = 8
PTRACE_ATTACH = 16
PTRACE_DETACH = 17
PTRACE_SYSCALL = 24
PTRACE_GETREGS = 12
PTRACE_SETREGS = 13

# ------------------------------------------------------------------- misc ABI

ARCH_SET_FS = 0x1002
AT_FDCWD = -100
