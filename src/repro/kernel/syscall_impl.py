"""System call implementations.

Each entry is ``impl(kernel, thread, args) -> int | None | BLOCKED``:

- an ``int`` is the return value (negative errno on failure);
- ``None`` means the implementation fully managed the thread context
  (``execve``) or never returns (``exit``);
- :data:`BLOCKED` rewinds RIP over the ``syscall`` instruction and parks the
  thread on a wake condition, so the call transparently retries when ready —
  restartable-syscall semantics for ``accept``/``recvfrom``/``wait4``/
  ``epoll_wait``.

ABI simplifications (documented in DESIGN.md): socket addresses are bare
integer ports; ``stat`` results are existence checks; iovec-based calls take
flat pointers.  The syscall *mix*, blocking behaviour, and failure modes —
what the interposition experiments measure — are preserved.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from repro.arch.registers import Reg
from repro.cpu.cycles import Event
from repro.errors import MapError, ProcessExited, SegmentationFault, VFSError
from repro.kernel.process import (
    FileFD,
    ListenFD,
    Process,
    SocketFD,
    Thread,
)
from repro.kernel.syscalls import (
    CLONE_THREAD,
    CLONE_VM,
    Errno,
    Nr,
    PR_SET_SYSCALL_USER_DISPATCH,
    PR_SYS_DISPATCH_OFF,
    PR_SYS_DISPATCH_ON,
)
from repro.memory.pages import PAGE_SIZE, Prot, round_up_pages


class _Blocked:
    """Sentinel: rewind and retry when the wake condition fires."""

    def __repr__(self) -> str:  # pragma: no cover
        return "BLOCKED"


BLOCKED = _Blocked()

#: Linux clamps every read/write to this (fs/read_write.c, rw_verify_area):
#: INT_MAX rounded down to a page boundary.  The clamp is what keeps a
#: negative return value fed back as a count — e.g. ``write(1, buf,
#: read_result)`` after an injected EINTR — from becoming a 2^64-byte copy.
MAX_RW_COUNT = 0x7FFF_F000

# open(2) flag bits.
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

# mmap(2) flag bits.
MAP_FIXED = 0x10
MAP_ANONYMOUS = 0x20

# epoll_ctl ops.
EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2


class EpollFD:
    """Minimal epoll instance: a set of watched fds."""

    def __init__(self) -> None:
        self.watched: List[int] = []

    def describe(self) -> str:
        return f"epoll:{self.watched}"


# --------------------------------------------------------------------- helpers


def _read_cstr(process: Process, addr: int) -> str:
    return process.address_space.read_cstr(addr)


def _read_ptr_array(process: Process, addr: int, limit: int = 256) -> List[int]:
    """Read a NULL-terminated array of 8-byte pointers."""
    out: List[int] = []
    if addr == 0:
        return out
    cursor = addr
    while len(out) < limit:
        ptr = struct.unpack("<Q",
                            process.address_space.read_kernel(cursor, 8))[0]
        if ptr == 0:
            break
        out.append(ptr)
        cursor += 8
    return out


def _resolve(process: Process, path: str) -> str:
    if path.startswith("/"):
        return path
    base = process.cwd.rstrip("/")
    return f"{base}/{path}" if base else f"/{path}"


#: In-kernel data-copy cost: ~0.5 cycles per byte moved between user
#: buffers and kernel objects (page cache, socket queues).  This is what
#: makes the 4 KiB Table 6 rows slower than the 0 KiB rows.
def _charge_copy(kernel, nbytes: int) -> None:
    kernel.cycles.charge_cycles(nbytes // 2, label="io-data-copy")


def _block(thread: Thread, condition: Callable[[], bool]):
    """Park the thread and request a restart (see module docstring).

    The *caller's* dispatch layer decides how to rewind: the trap path backs
    RIP onto the ``syscall`` instruction; interposer handlers rewind onto the
    rewritten site or the SIGSYS fault address.
    """
    thread.block_until(condition)
    return BLOCKED


# ---------------------------------------------------------------------- file I/O


def _user_buffer(process: Process, buf: int, count: int) -> Optional[bytes]:
    """Fetch a user read/write buffer, or None for EFAULT.

    *count* must already be clamped to :data:`MAX_RW_COUNT`; the mapping
    check walks pages and short-circuits at the first hole, so even a
    clamped-from-2^64 count terminates quickly.
    """
    if count == 0:
        return b""
    if not buf or not process.address_space.is_mapped(buf, count):
        return None
    return process.address_space.read_kernel(buf, count)


def sys_read(kernel, thread: Thread, args) -> int:
    fd, buf, count = args[0], args[1], min(args[2], MAX_RW_COUNT)
    if fd == 0:
        return 0  # stdin: EOF
    descriptor = thread.process.get_fd(fd)
    if isinstance(descriptor, FileFD):
        data = bytes(descriptor.inode.data[descriptor.offset:
                                           descriptor.offset + count])
        if data and (not buf or not thread.process.address_space.is_mapped(
                buf, len(data))):
            return -Errno.EFAULT
        descriptor.offset += len(data)
        if data:
            thread.process.address_space.write_kernel(buf, data)
        _charge_copy(kernel, len(data))
        return len(data)
    if isinstance(descriptor, SocketFD):
        return sys_recvfrom(kernel, thread, args)
    return -Errno.EINVAL


def sys_write(kernel, thread: Thread, args) -> int:
    fd, buf, count = args[0], args[1], min(args[2], MAX_RW_COUNT)
    data = _user_buffer(thread.process, buf, count)
    if data is None:
        return -Errno.EFAULT
    _charge_copy(kernel, len(data))
    if fd in (1, 2):
        thread.process.output.extend(data)
        return count
    descriptor = thread.process.get_fd(fd)
    if isinstance(descriptor, FileFD):
        inode = descriptor.inode
        if inode.immutable:
            return -Errno.EPERM
        end = descriptor.offset + len(data)
        if len(inode.data) < end:
            inode.data.extend(b"\x00" * (end - len(inode.data)))
        inode.data[descriptor.offset:end] = data
        descriptor.offset = end
        return len(data)
    if isinstance(descriptor, SocketFD):
        return sys_sendto(kernel, thread, args)
    return -Errno.EINVAL


def _do_open(kernel, thread: Thread, path: str, flags: int) -> int:
    process = thread.process
    path = _resolve(process, path)
    if path.startswith("/proc/"):
        from repro.kernel.procfs import resolve_proc_path
        from repro.kernel.vfs import Inode

        content = resolve_proc_path(kernel, process, path)
        if content is not None:
            # Synthesized, snapshot-at-open inode (never placed in the VFS).
            return process.alloc_fd(FileFD(Inode(path=path,
                                                 data=bytearray(content))))
    if not kernel.vfs.exists(path):
        if not flags & O_CREAT:
            return -Errno.ENOENT
        try:
            kernel.vfs.create(path)
        except VFSError as exc:
            return -exc.errno
    inode = kernel.vfs.lookup(path)
    if flags & O_TRUNC and not inode.is_dir:
        if inode.immutable:
            return -Errno.EPERM
        inode.data.clear()
    descriptor = FileFD(inode, flags)
    if flags & O_APPEND:
        descriptor.offset = len(inode.data)
    return process.alloc_fd(descriptor)


def sys_open(kernel, thread: Thread, args) -> int:
    path = _read_cstr(thread.process, args[0])
    return _do_open(kernel, thread, path, args[1])


def sys_openat(kernel, thread: Thread, args) -> int:
    # dirfd (args[0]) is honoured only as AT_FDCWD; absolute paths dominate.
    path = _read_cstr(thread.process, args[1])
    return _do_open(kernel, thread, path, args[2])


def sys_close(kernel, thread: Thread, args) -> int:
    try:
        thread.process.close_fd(args[0])
    except VFSError as exc:
        return -exc.errno
    return 0


def sys_lseek(kernel, thread: Thread, args) -> int:
    fd, offset, whence = args[0], args[1], args[2]
    descriptor = thread.process.get_fd(fd)
    if not isinstance(descriptor, FileFD):
        return -Errno.ESPIPE
    size = len(descriptor.inode.data)
    if whence == 0:
        descriptor.offset = offset
    elif whence == 1:
        descriptor.offset += offset
    elif whence == 2:
        descriptor.offset = size + offset
    else:
        return -Errno.EINVAL
    return descriptor.offset


def sys_stat(kernel, thread: Thread, args) -> int:
    path = _resolve(thread.process, _read_cstr(thread.process, args[0]))
    return 0 if kernel.vfs.exists(path) else -Errno.ENOENT


def sys_fstat(kernel, thread: Thread, args) -> int:
    try:
        thread.process.get_fd(args[0])
    except VFSError as exc:
        return -exc.errno
    return 0


def sys_newfstatat(kernel, thread: Thread, args) -> int:
    path = _resolve(thread.process, _read_cstr(thread.process, args[1]))
    return 0 if kernel.vfs.exists(path) else -Errno.ENOENT


def sys_access(kernel, thread: Thread, args) -> int:
    path = _resolve(thread.process, _read_cstr(thread.process, args[0]))
    return 0 if kernel.vfs.exists(path) else -Errno.ENOENT


def sys_getdents64(kernel, thread: Thread, args) -> int:
    fd, buf, count = args[0], args[1], args[2]
    descriptor = thread.process.get_fd(fd)
    if not isinstance(descriptor, FileFD) or not descriptor.inode.is_dir:
        return -Errno.ENOTDIR
    if descriptor.offset:
        return 0  # one-shot listing
    names = kernel.vfs.listdir(descriptor.inode.path)
    blob = b"".join(name.encode() + b"\x00" for name in names)[:count]
    if buf and blob:
        thread.process.address_space.write_kernel(buf, blob)
    descriptor.offset = 1
    return len(blob)


def sys_unlink(kernel, thread: Thread, args) -> int:
    path = _resolve(thread.process, _read_cstr(thread.process, args[0]))
    try:
        kernel.vfs.unlink(path)
    except VFSError as exc:
        return -exc.errno
    return 0


def sys_mkdir(kernel, thread: Thread, args) -> int:
    path = _resolve(thread.process, _read_cstr(thread.process, args[0]))
    try:
        kernel.vfs.mkdir(path)
    except VFSError as exc:
        return -exc.errno
    return 0


def sys_getcwd(kernel, thread: Thread, args) -> int:
    buf, size = args[0], args[1]
    cwd = thread.process.cwd.encode() + b"\x00"
    if len(cwd) > size:
        return -Errno.ERANGE
    if buf:
        thread.process.address_space.write_kernel(buf, cwd)
    return len(cwd)


def sys_chdir(kernel, thread: Thread, args) -> int:
    path = _resolve(thread.process, _read_cstr(thread.process, args[0]))
    if not kernel.vfs.is_dir(path):
        return -Errno.ENOENT
    thread.process.cwd = path
    return 0


def sys_fsync(kernel, thread: Thread, args) -> int:
    try:
        thread.process.get_fd(args[0])
    except VFSError as exc:
        return -exc.errno
    return 0


def sys_dup(kernel, thread: Thread, args) -> int:
    try:
        descriptor = thread.process.get_fd(args[0])
    except VFSError as exc:
        return -exc.errno
    return thread.process.alloc_fd(descriptor)


def sys_fcntl(kernel, thread: Thread, args) -> int:
    return 0


def sys_ioctl(kernel, thread: Thread, args) -> int:
    return -Errno.ENOTTY


# ---------------------------------------------------------------------- memory


def sys_mmap(kernel, thread: Thread, args) -> int:
    addr, length, prot, flags, fd = args[0], args[1], args[2], args[3], args[4]
    if length == 0:
        return -Errno.EINVAL
    name = "[anon]"
    if not flags & MAP_ANONYMOUS and fd < (1 << 63):
        try:
            descriptor = thread.process.get_fd(fd)
        except VFSError as exc:
            return -exc.errno
        if isinstance(descriptor, FileFD):
            name = descriptor.inode.path
    try:
        base = thread.process.address_space.mmap(
            addr if addr else None, length, Prot(prot & 0x7), name=name,
            fixed=bool(flags & MAP_FIXED))
    except MapError:
        return -Errno.EINVAL
    if flags & MAP_FIXED:
        # A fixed mapping replaces whatever lived there: like munmap, real
        # kernels shoot down every core's stale decodes for the range.
        kernel.icache_shootdown(thread.process, base,
                                round_up_pages(length))
    return base


def sys_munmap(kernel, thread: Thread, args) -> int:
    start, length = args[0], args[1]
    try:
        thread.process.address_space.munmap(start, length)
    except MapError:
        return -Errno.EINVAL
    # Unmapping is an IPI-backed TLB/icache shootdown on every core: any
    # recorded block or decoded line overlapping the (page-rounded) range
    # must go, or stale code keeps executing from unmapped pages.  This
    # covers partial-region unmaps that split a region, too — invalidation
    # is by page range, not by region.
    kernel.icache_shootdown(thread.process, start, round_up_pages(length))
    return 0


def sys_mprotect(kernel, thread: Thread, args) -> int:
    kernel.cycles.charge(Event.MPROTECT)
    try:
        thread.process.address_space.mprotect(args[0], args[1],
                                              Prot(args[2] & 0x7))
    except MapError:
        return -Errno.EINVAL
    # Deliberately NO icache shootdown: mprotect leaves already-decoded
    # lines in place (the P5 stale-decode window interposers patch inside).
    kernel.notify_prot_change(thread, args[0], args[1], args[2] & 0x7)
    return 0


def sys_pkey_mprotect(kernel, thread: Thread, args) -> int:
    kernel.cycles.charge(Event.MPROTECT)
    try:
        thread.process.address_space.pkey_mprotect(
            args[0], args[1], Prot(args[2] & 0x7), args[3])
    except MapError:
        return -Errno.EINVAL
    kernel.notify_prot_change(thread, args[0], args[1], args[2] & 0x7)
    return 0


def sys_pkey_alloc(kernel, thread: Thread, args) -> int:
    used = getattr(thread.process, "_pkeys_used", None)
    if used is None:
        used = thread.process._pkeys_used = [0]
    for key in range(1, 16):
        if key not in used:
            used.append(key)
            return key
    return -Errno.EINVAL


def sys_pkey_free(kernel, thread: Thread, args) -> int:
    used = getattr(thread.process, "_pkeys_used", [0])
    if args[0] in used and args[0] != 0:
        used.remove(args[0])
        return 0
    return -Errno.EINVAL


def sys_brk(kernel, thread: Thread, args) -> int:
    process = thread.process
    request = args[0]
    if process.brk_cursor == 0:
        process.brk_cursor = process.address_space.mmap(
            None, PAGE_SIZE, Prot.READ | Prot.WRITE, name="[heap]")
    if request == 0 or request <= process.brk_cursor:
        return process.brk_cursor
    grow = round_up_pages(request - process.brk_cursor)
    try:
        process.address_space.mmap(process.brk_cursor + PAGE_SIZE, grow,
                                   Prot.READ | Prot.WRITE, name="[heap]",
                                   fixed=True)
    except MapError:
        return process.brk_cursor
    process.brk_cursor = request
    return process.brk_cursor


# ------------------------------------------------------------------- identity/time


def sys_getpid(kernel, thread: Thread, args) -> int:
    return thread.process.pid


def sys_gettid(kernel, thread: Thread, args) -> int:
    return thread.tid


def sys_getppid(kernel, thread: Thread, args) -> int:
    parent = thread.process.parent
    return parent.pid if parent else 1


def sys_getuid(kernel, thread: Thread, args) -> int:
    return 1000


def sys_uname(kernel, thread: Thread, args) -> int:
    if args[0]:
        blob = b"Linux\x00repro\x006.8.0-sim\x00"
        thread.process.address_space.write_kernel(args[0], blob)
    return 0


def sys_clock_gettime(kernel, thread: Thread, args) -> int:
    ns = kernel.now_ns()
    if args[1]:
        payload = struct.pack("<qq", ns // 1_000_000_000, ns % 1_000_000_000)
        thread.process.address_space.write_kernel(args[1], payload)
    return 0


def sys_gettimeofday(kernel, thread: Thread, args) -> int:
    ns = kernel.now_ns()
    if args[0]:
        payload = struct.pack("<qq", ns // 1_000_000_000,
                              (ns % 1_000_000_000) // 1000)
        thread.process.address_space.write_kernel(args[0], payload)
    return 0


def sys_nanosleep(kernel, thread: Thread, args) -> int:
    if args[0]:
        sec, nsec = struct.unpack(
            "<qq", thread.process.address_space.read_kernel(args[0], 16))
        kernel.cycles.charge_cycles(int((sec * 1_000_000_000 + nsec) * 3.2),
                                    label="nanosleep")
    return 0


def sys_sched_yield(kernel, thread: Thread, args) -> int:
    return 0


def sys_getrandom(kernel, thread: Thread, args) -> int:
    buf, count = args[0], args[1]
    data = bytes(kernel.rng.getrandbits(8) for _ in range(min(count, 256)))
    if kernel.recorder is not None:
        # The nondeterministic-input seam for record/replay: the drawn
        # bytes come from the seeded kernel RNG (whose state checkpoints
        # capture), so the log entry is the replay-side cross-check, not
        # the reproduction source.
        kernel.recorder.on_nondet("getrandom",
                                  {"pid": thread.process.pid,
                                   "count": count, "data": data.hex()})
    if buf:
        thread.process.address_space.write_kernel(buf, data)
    return len(data)


def sys_futex(kernel, thread: Thread, args) -> int:
    return 0


def sys_rt_sigprocmask(kernel, thread: Thread, args) -> int:
    return 0


def sys_arch_prctl(kernel, thread: Thread, args) -> int:
    return 0


def sys_setpriority(kernel, thread: Thread, args) -> int:
    return 0


# ---------------------------------------------------------------------- signals


def sys_rt_sigaction(kernel, thread: Thread, args) -> int:
    """Register a *simulated* handler address for a signal.

    Host-level interposer handlers register through
    ``Process.dispositions.set_action`` directly (they are not addressable
    from simulated code); applications use this syscall.
    """
    signal, handler = args[0], args[1]
    thread.process.dispositions.set_action(signal, handler or None)
    return 0


def sys_rt_sigreturn(kernel, thread: Thread, args) -> Optional[int]:
    frames = thread.signal_frames
    if not frames:
        return -Errno.EINVAL
    kernel.cycles.charge(Event.SIGRETURN)
    signal, saved = frames.pop()
    thread.blocked_signals.discard(signal)
    thread.context.restore(saved)
    thread._just_execed = True  # suppress result/clobber writes
    # The mask just cleared: deliver anything that queued while the
    # handler ran (possibly pushing a fresh frame for the same signal).
    kernel.flush_pending_signals(thread)
    return None


def sys_kill(kernel, thread: Thread, args) -> int:
    target = kernel.find_process(args[0])
    if target is None:
        return -Errno.ESRCH
    signal = args[1]
    if target is thread.process:
        # Route through normal delivery so handlers, masking, and the
        # core-dump/terminate classification all apply; an unhandled fatal
        # signal raises ProcessKilled out of this frame exactly as before.
        kernel.deliver_signal(thread, signal)
        return 0
    from repro.kernel.signals import default_action

    try:
        # Cross-process: apply the target's disposition.  Handler-equipped
        # targets would need a cross-thread delivery queue; the simulator's
        # drivers only ever kill with default-disposition signals.
        if target.dispositions.get_action(signal) is None:
            default_action(signal)
    except ProcessExited as exc:
        target.terminate(exc.status)
        target.core_dumped = bool(getattr(exc, "core", False))
    return 0


# ---------------------------------------------------------------------- prctl/SUD


def sys_prctl(kernel, thread: Thread, args) -> int:
    option = args[0]
    if option == PR_SET_SYSCALL_USER_DISPATCH:
        mode = args[1]
        if mode == PR_SYS_DISPATCH_ON:
            thread.sud.arm(allow_start=args[2], allow_len=args[3],
                           selector_addr=args[4])
            thread.process.sud_armed_ever = True
            return 0
        if mode == PR_SYS_DISPATCH_OFF:
            # The P1b lever: nothing in the vanilla kernel stops a process
            # from disarming its own dispatch.
            thread.sud.disarm()
            return 0
        return -Errno.EINVAL
    return 0


def sys_ptrace(kernel, thread: Thread, args) -> int:
    # Simulated-code tracers are not supported; tracers are host-level
    # (repro.kernel.ptrace.Tracer).  PTRACE_TRACEME succeeds as a no-op so
    # loader stubs behave.
    return 0 if args[0] == 0 else -Errno.EPERM


# ---------------------------------------------------------------------- sockets


def sys_socket(kernel, thread: Thread, args) -> int:
    return thread.process.alloc_fd(SocketFD())


def sys_bind(kernel, thread: Thread, args) -> int:
    descriptor = thread.process.get_fd(args[0])
    if not isinstance(descriptor, SocketFD):
        return -Errno.EINVAL
    descriptor.pending_port = args[1]  # simplified: port passed directly
    return 0


def sys_listen(kernel, thread: Thread, args) -> int:
    process = thread.process
    descriptor = process.get_fd(args[0])
    if not isinstance(descriptor, SocketFD):
        return -Errno.EINVAL
    port = getattr(descriptor, "pending_port", None)
    if port is None:
        return -Errno.EINVAL
    try:
        listener = kernel.net.bind_listen(port, args[1] or 128)
    except Exception:
        return -Errno.EADDRINUSE
    process.fds[args[0]] = ListenFD(listener)
    return 0


#: accept4 flag: the accept itself (not the new socket) is non-blocking.
SOCK_NONBLOCK = 0x800


def sys_accept(kernel, thread: Thread, args):
    descriptor = thread.process.get_fd(args[0])
    if not isinstance(descriptor, ListenFD):
        return -Errno.EINVAL
    listener = descriptor.listener
    if not listener.pending:
        # accept4(SOCK_NONBLOCK): multi-worker servers race on a shared
        # level-triggered listener; the losers must see EAGAIN and
        # return to epoll_wait instead of parking forever.
        if args[3] & SOCK_NONBLOCK:
            return -Errno.EAGAIN
        return _block(thread, lambda: listener.has_pending or listener.closed)
    connection = listener.pending.popleft()
    return thread.process.alloc_fd(SocketFD(connection))


def sys_recvfrom(kernel, thread: Thread, args):
    fd, buf, count = args[0], args[1], min(args[2], MAX_RW_COUNT)
    descriptor = thread.process.get_fd(fd)
    if not isinstance(descriptor, SocketFD) or descriptor.connection is None:
        return -Errno.EINVAL
    connection = descriptor.connection
    chunk = connection.server_recv(count)
    if chunk is None:
        return _block(thread, lambda: connection.server_readable)
    if chunk and buf:
        thread.process.address_space.write_kernel(buf, chunk)
    _charge_copy(kernel, len(chunk))
    return len(chunk)


def sys_sendto(kernel, thread: Thread, args) -> int:
    fd, buf, count = args[0], args[1], min(args[2], MAX_RW_COUNT)
    descriptor = thread.process.get_fd(fd)
    if not isinstance(descriptor, SocketFD) or descriptor.connection is None:
        return -Errno.EINVAL
    data = _user_buffer(thread.process, buf, count)
    if data is None:
        return -Errno.EFAULT
    _charge_copy(kernel, len(data))
    return descriptor.connection.server_send(data)


def sys_shutdown(kernel, thread: Thread, args) -> int:
    descriptor = thread.process.get_fd(args[0])
    if isinstance(descriptor, SocketFD) and descriptor.connection:
        descriptor.connection.server_close()
        return 0
    return -Errno.EINVAL


def sys_connect(kernel, thread: Thread, args) -> int:
    return -Errno.ECONNREFUSED  # simulated clients are host-level drivers


# ------------------------------------------------------------------------ epoll


def sys_epoll_create(kernel, thread: Thread, args) -> int:
    return thread.process.alloc_fd(EpollFD())


def sys_epoll_ctl(kernel, thread: Thread, args) -> int:
    epfd, op, fd = args[0], args[1], args[2]
    descriptor = thread.process.get_fd(epfd)
    if not isinstance(descriptor, EpollFD):
        return -Errno.EINVAL
    if op == EPOLL_CTL_ADD and fd not in descriptor.watched:
        descriptor.watched.append(fd)
    elif op == EPOLL_CTL_DEL and fd in descriptor.watched:
        descriptor.watched.remove(fd)
    return 0


def _epoll_ready(process: Process, epoll: EpollFD) -> List[int]:
    ready = []
    for fd in epoll.watched:
        descriptor = process.fds.get(fd)
        if isinstance(descriptor, ListenFD) and descriptor.listener.has_pending:
            ready.append(fd)
        elif (isinstance(descriptor, SocketFD) and descriptor.connection
              and descriptor.connection.server_readable):
            ready.append(fd)
    return ready


def sys_epoll_wait(kernel, thread: Thread, args):
    epfd, events_buf, max_events = args[0], args[1], args[2]
    descriptor = thread.process.get_fd(epfd)
    if not isinstance(descriptor, EpollFD):
        return -Errno.EINVAL
    process = thread.process
    ready = _epoll_ready(process, descriptor)
    if not ready:
        return _block(thread, lambda: bool(_epoll_ready(process, descriptor)))
    ready = ready[:max_events]
    if events_buf:
        blob = b"".join(struct.pack("<Q", fd) for fd in ready)
        process.address_space.write_kernel(events_buf, blob)
    return len(ready)


# ----------------------------------------------------------------- process mgmt


def sys_exit(kernel, thread: Thread, args) -> None:
    raise ProcessExited(args[0] & 0xFF)


def sys_fork(kernel, thread: Thread, args) -> int:
    import copy as _copy

    parent = thread.process
    child = Process(kernel, kernel.new_pid(), parent.path,
                    list(parent.argv), dict(parent.env))
    child.address_space = parent.address_space.fork_copy()
    child.cwd = parent.cwd
    child.fds = dict(parent.fds)
    child._next_fd = parent._next_fd
    child.dispositions = parent.dispositions.copy()
    child.parent = parent
    child.sud_armed_ever = parent.sud_armed_ever
    child.vdso_enabled = parent.vdso_enabled
    child.brk_cursor = parent.brk_cursor
    child.loaded_images = dict(parent.loaded_images)
    try:
        child.interposer_state = _copy.deepcopy(parent.interposer_state)
    except Exception:
        child.interposer_state = dict(parent.interposer_state)
    child.seccomp = parent.seccomp.copy()  # filters are inherited
    if parent.premain_log_len > 0:
        # A child forked after main entry starts in main phase: the
        # pre-main exclusion covers loader/interposer-constructor traffic,
        # which the child inherits rather than re-executing, and the fork
        # point itself is app-aligned across mechanisms — so forked
        # workers stay visible to occurrence-counted fault injection.
        child.premain_log_len = len(kernel.syscall_log)
    child_thread = child.spawn_thread(core_id=thread.core_id)
    child_thread.context.restore(thread.context.save())
    child_thread.context.set_syscall_result(0)  # fork returns 0 in the child
    child_thread.sud = thread.sud.copy()
    parent.children.append(child)
    kernel.processes[child.pid] = child
    kernel.emit_lifecycle("spawn", child)
    return child.pid


def sys_clone(kernel, thread: Thread, args) -> int:
    """``clone(2)``, raw-ABI argument order: (flags, stack, ptid, ctid, tls).

    ``CLONE_VM|CLONE_THREAD`` creates a sibling thread in the calling
    process; anything else degenerates to :func:`sys_fork`.  Per-thread SUD
    state is *inherited* by the new thread (Linux copies the parent's
    ``syscall_user_dispatch`` config in ``copy_thread``), and the
    process-wide ``sud_armed_ever`` slow-path flag is untouched — it lives
    on the process, so every thread created after any arm keeps paying the
    armed slow path even if the arming thread has since disarmed.
    """
    flags, child_stack = args[0], args[1]
    if flags & CLONE_VM and flags & CLONE_THREAD:
        child = thread.process.spawn_thread()
        child.context.restore(thread.context.save())
        child.context.set_syscall_result(0)  # clone returns 0 in the child
        # The child resumes past the syscall with the kernel's usual
        # RCX/R11 clobber already applied (it never re-enters dispatch).
        child.context.set(Reg.RCX, child.context.rip)
        child.context.set(Reg.R11, 0x202)
        if child_stack:
            child.context.set(Reg.RSP, child_stack)
        child.sud = thread.sud.copy()
        return child.tid
    return sys_fork(kernel, thread, args)


def sys_wait4(kernel, thread: Thread, args):
    wanted, status_ptr = args[0], args[1]
    process = thread.process

    def reapable() -> Optional[Process]:
        for child in process.children:
            if child.exited and not getattr(child, "_reaped", False):
                if wanted in (0, child.pid) or wanted >= (1 << 63):
                    return child
        return None

    child = reapable()
    if child is None:
        if not process.children:
            return -Errno.ECHILD
        return _block(thread, lambda: reapable() is not None)
    child._reaped = True
    if status_ptr:
        process.address_space.write_kernel(
            status_ptr, struct.pack("<i", (child.exit_status or 0) << 8))
    return child.pid


def sys_execve(kernel, thread: Thread, args) -> Optional[int]:
    process = thread.process
    try:
        path = _read_cstr(process, args[0])
        argv_ptrs = _read_ptr_array(process, args[1])
        envp_ptrs = _read_ptr_array(process, args[2])
        argv = [_read_cstr(process, p) for p in argv_ptrs]
        env_list = [_read_cstr(process, p) for p in envp_ptrs]
    except SegmentationFault:
        return -Errno.EFAULT
    return do_execve(kernel, thread, path, argv or [path], env_list)


def do_execve(kernel, thread: Thread, path: str, argv: List[str],
              env_list: List[str]) -> Optional[int]:
    """The exec machinery, shared by the syscall and host-level callers.

    ``env_list`` is exactly what the caller passed — an empty list really
    does produce an empty environment (the P1a scenario), unless an attached
    ptracer rewrites it (the K23 fix).
    """
    process = thread.process
    path = _resolve(process, path)
    if not kernel.vfs.exists(path):
        return -Errno.ENOENT
    env = {}
    for entry in env_list:
        key, _, value = entry.partition("=")
        if key:
            env[key] = value

    tracer = process.tracer
    if tracer is not None and not tracer.detached:
        hook = getattr(tracer, "on_execve", None)
        if hook is not None:
            env = hook(process, path, argv, env)

    # Tear down the old image (Linux execve semantics).
    from repro.memory.address_space import AddressSpace

    process.address_space = AddressSpace()
    process.fds = {}
    process._next_fd = 3
    process.dispositions = type(process.dispositions)()
    process.sud_armed_ever = False
    process.brk_cursor = 0
    process.loaded_images = {}
    process.interposer_state = {}
    process.path = path
    process.argv = list(argv)
    process.env = env
    process.vdso_enabled = not (tracer is not None and not tracer.detached
                                and tracer.disable_vdso)
    process.threads = [thread]
    thread.mem_space = process.address_space
    # SUD does not survive exec (the kernel clears the config with the rest
    # of the mm), and neither do signal frames, masks, or queued signals —
    # they reference the torn-down image.
    thread.sud.disarm()
    thread.sud.selector_addr = 0
    thread.sud.allow_start = 0
    thread.sud.allow_len = 0
    thread.signal_frames.clear()
    thread.blocked_signals.clear()
    thread.pending_signals.clear()
    thread._sud_restart_credit = False
    thread.icache.flush_all()
    fresh = thread.context.__class__()
    thread.context.restore(fresh.save())

    kernel.loader.load_into(process, path, argv, env)
    thread._just_execed = True
    kernel.emit_lifecycle("exec", process)
    return None


def sys_exit_group(kernel, thread: Thread, args) -> None:
    raise ProcessExited(args[0] & 0xFF)


# ------------------------------------------------------------------------- table

#: Handlers shared between syscall numbers; every other ``Nr.<name>``
#: is served by ``sys_<name>``.
_ALIASES = {Nr.fdatasync: "fsync"}

_HANDLER_NAMES = {nr: "sys_" + _ALIASES.get(nr, nr.name) for nr in Nr}

#: ``Nr`` → handler, for every number that has one.
SYSCALL_TABLE: Dict[int, Callable] = {
    nr: globals()[name] for nr, name in _HANDLER_NAMES.items()
    if name in globals()}
