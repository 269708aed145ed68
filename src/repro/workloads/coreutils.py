"""Simulated coreutils: ``pwd``, ``touch``, ``ls``, ``cat``, ``clear``.

Each utility is reconstructed so that its *main-phase* execution touches the
same number of unique syscall sites the paper's offline phase measured
(Table 2): pwd 7, touch 9, ls 10, cat 11, clear 13.  Sites are unique libc
wrappers (each wrapper owns one ``syscall`` instruction), so the counts are
a direct function of which C-library entry points the utility exercises —
just like the real measurements.

The common prologue mirrors glibc's post-init behaviour (locale machinery:
``openat``/``fstat``/``mmap``/``close``); the per-utility bodies add their
characteristic calls.
"""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.arch.registers import Reg
from repro.loader.image import SimImage
from repro.workloads.programs import ProgramBuilder, RESULT, data_ref

#: Paper Table 2 expectations, used by tests and the Table 2 benchmark.
TABLE2_COREUTILS: Dict[str, int] = {
    "/usr/bin/pwd": 7,
    "/usr/bin/touch": 9,
    "/usr/bin/ls": 10,
    "/usr/bin/cat": 11,
    "/usr/bin/clear": 13,
}

LOCALE_PATH = "/usr/lib/locale/locale-archive"


def _locale_prologue(builder: ProgramBuilder, with_fstat: bool = True) -> None:
    """glibc-style locale load: openat + fstat + mmap + close (4 wrappers)."""
    builder.string("locale", LOCALE_PATH)
    builder.libc("openat", (1 << 64) - 100, data_ref("locale"), 0)
    builder.asm.mov_rr(Reg.RBX, Reg.RAX)
    if with_fstat:
        builder.libc("fstat", Reg.RBX, 0)
    builder.libc("mmap", 0, 4096, 1, 0x22, (1 << 64) - 1, 0)
    builder.libc("close", Reg.RBX)


def build_pwd() -> ProgramBuilder:
    """pwd: locale(4) + getcwd + write + exit = 7 unique sites."""
    builder = ProgramBuilder("/usr/bin/pwd", stub_profile=30)
    builder.buffer("buf", 128)
    builder.start()
    _locale_prologue(builder)
    builder.libc("getcwd", data_ref("buf"), 128)
    builder.libc("write", 1, data_ref("buf"), RESULT)
    builder.exit(0)
    return builder


def build_touch() -> ProgramBuilder:
    """touch: locale(4) + newfstatat + dup + fcntl + brk + exit = 9."""
    builder = ProgramBuilder("/usr/bin/touch", stub_profile=30)
    builder.string("target", "/tmp/touched")
    builder.start()
    _locale_prologue(builder)
    builder.libc("brk", 0)
    builder.libc("newfstatat", (1 << 64) - 100, data_ref("target"), 0, 0)
    builder.libc("openat", (1 << 64) - 100, data_ref("target"), 0o100)
    builder.asm.mov_rr(Reg.RBX, Reg.RAX)
    builder.libc("dup", Reg.RBX)
    builder.libc("fcntl", Reg.RBX, 0, 0)
    builder.libc("close", Reg.RBX)
    builder.exit(0)
    return builder


def build_ls() -> ProgramBuilder:
    """ls: locale(4) + ioctl + newfstatat + getdents64 + brk + write + exit
    = 10 unique sites.  Its long startup (>100 pre-main syscalls, §6.1)
    comes from the loader-stub profile."""
    builder = ProgramBuilder("/usr/bin/ls", stub_profile=92)
    builder.string("dir", "/home/user")
    builder.buffer("dents", 512)
    builder.buffer("out", 256)
    builder.start()
    _locale_prologue(builder)
    builder.libc("brk", 0)
    builder.libc("ioctl", 1, 0x5413, 0)  # TIOCGWINSZ probe
    builder.libc("newfstatat", (1 << 64) - 100, data_ref("dir"), 0, 0)
    builder.libc("openat", (1 << 64) - 100, data_ref("dir"), 0o200000)
    builder.asm.mov_rr(Reg.RBX, Reg.RAX)
    builder.libc("getdents64", Reg.RBX, data_ref("dents"), 512)
    builder.libc("write", 1, data_ref("dents"), RESULT)
    builder.libc("close", Reg.RBX)
    builder.exit(0)
    return builder


def build_cat() -> ProgramBuilder:
    """cat: locale(4) + newfstatat + ioctl + lseek + read + write + brk +
    exit = 11 unique sites."""
    builder = ProgramBuilder("/usr/bin/cat", stub_profile=40)
    builder.string("target", "/etc/motd")
    builder.buffer("buf", 512)
    builder.start()
    _locale_prologue(builder)
    builder.libc("brk", 0)
    builder.libc("ioctl", 1, 0x5401, 0)  # TCGETS probe on stdout
    builder.libc("newfstatat", (1 << 64) - 100, data_ref("target"), 0, 0)
    builder.libc("openat", (1 << 64) - 100, data_ref("target"), 0)
    builder.asm.mov_rr(Reg.RBX, Reg.RAX)
    builder.libc("lseek", Reg.RBX, 0, 1)
    builder.label(".cat_loop")
    builder.libc("read", Reg.RBX, data_ref("buf"), 512)
    # Exit on EOF *or* error (jle, signed): a read result of -EBADF/-EINTR
    # must not be fed to write as a count — under fault injection a failed
    # openat would otherwise spin this loop forever.
    builder.asm.test_rr(Reg.RAX, Reg.RAX)
    builder.asm.jle(".cat_done")
    builder.libc("write", 1, data_ref("buf"), RESULT)
    builder.asm.jmp(".cat_loop")
    builder.label(".cat_done")
    builder.libc("close", Reg.RBX)
    builder.exit(0)
    return builder


def build_clear() -> ProgramBuilder:
    """clear: locale(4) + terminfo probing (access, newfstatat, read,
    lseek) + ioctl + uname + write + brk + exit = 13 unique sites."""
    builder = ProgramBuilder("/usr/bin/clear", stub_profile=34)
    builder.string("terminfo", "/usr/share/terminfo/x/xterm")
    builder.buffer("buf", 256)
    builder.start()
    _locale_prologue(builder)
    builder.libc("brk", 0)
    builder.libc("uname", 0)
    builder.libc("access", data_ref("terminfo"), 0)
    builder.libc("newfstatat", (1 << 64) - 100, data_ref("terminfo"), 0, 0)
    builder.libc("openat", (1 << 64) - 100, data_ref("terminfo"), 0)
    builder.asm.mov_rr(Reg.RBX, Reg.RAX)
    builder.libc("read", Reg.RBX, data_ref("buf"), 256)
    builder.libc("lseek", Reg.RBX, 0, 0)
    builder.libc("ioctl", 1, 0x5401, 0)
    builder.libc("write", 1, data_ref("buf"), 7)
    builder.libc("close", Reg.RBX)
    builder.exit(0)
    return builder


_BUILDERS = {
    "/usr/bin/pwd": build_pwd,
    "/usr/bin/touch": build_touch,
    "/usr/bin/ls": build_ls,
    "/usr/bin/cat": build_cat,
    "/usr/bin/clear": build_clear,
}


def install_coreutils(kernel, names: "List[str] | None" = None) -> List[str]:
    """Register the coreutils (and their supporting files); returns paths."""
    kernel.vfs.create(LOCALE_PATH, b"\x00" * 64)
    kernel.vfs.create("/etc/motd", b"welcome to repro\n")
    kernel.vfs.create("/usr/share/terminfo/x/xterm", b"\x1b[H\x1b[2J\x00")
    kernel.vfs.mkdir("/home/user", exist_ok=True)
    kernel.vfs.create("/home/user/a.txt", b"")
    kernel.vfs.create("/home/user/b.txt", b"")
    paths = []
    for path in _BUILDERS:
        if names is not None and path not in names:
            continue
        kernel.loader.register_image(coreutil_image(path))
        paths.append(path)
    return paths


@functools.lru_cache(maxsize=None)
def coreutil_image(path: str) -> SimImage:
    """The finalized image of the utility at *path*, built once per
    process and shared read-only by every kernel that installs it."""
    return _BUILDERS[path]().build()
