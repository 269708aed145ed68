"""The one interposed-syscall path (``Interposer.intercept`` and
``Interposer.run_hook``), mechanism by mechanism: restarts, aborts, the
K23 guard, user hooks, and the hostcall table it is reached through."""

import pytest

from repro.arch.registers import Reg
from repro.core import K23Interposer, OfflinePhase
from repro.core.offline import import_logs
from repro.errors import InvalidOpcode
from repro.interposers.lazypoline import LazypolineInterposer
from repro.interposers.zpoline import ZpolineInterposer
from repro.kernel import Kernel
from repro.kernel.syscalls import (PR_SET_SYSCALL_USER_DISPATCH,
                                   PR_SYS_DISPATCH_OFF, Nr)
from repro.workloads.programs import RESULT, ProgramBuilder, data_ref
from tests.kernel.test_net import echo_server
from tests.simutil import spawn_and_run


def _k23(register, path, variant="ultra", seed=21, hook=None):
    """Offline phase on one machine, K23 online on a fresh one."""
    offline_kernel = Kernel(seed=seed)
    register(offline_kernel)
    offline = OfflinePhase(offline_kernel)
    offline.run(path)
    kernel = Kernel(seed=seed + 1)
    register(kernel)
    import_logs(kernel, offline.export())
    return kernel, K23Interposer(kernel, hook=hook, variant=variant).install()


def _rewriting(name, kernel, hook=None):
    if name == "zpoline-default":
        return ZpolineInterposer(kernel, hook=hook).install()
    if name == "lazypoline":
        return LazypolineInterposer(kernel, hook=hook).install()
    raise ValueError(name)


# ------------------------------------------------------ BLOCKED restarts


def _park_in_accept(kernel, process):
    """Run until the server's only thread parks in ``accept``."""
    kernel.run_process(process, max_steps=50_000)
    thread = process.main_thread
    assert not process.exited and thread.block_condition is not None
    return thread


def _serve(kernel, process, payload):
    conn = kernel.net.connect(8080)
    conn.client_send(payload)
    kernel.run_process(process, max_steps=200_000)
    assert conn.client_recv_all() == payload


@pytest.mark.parametrize("mechanism", ("zpoline-default", "lazypoline"))
def test_blocked_accept_on_rewritten_path_rewinds_and_rolls_back(mechanism):
    kernel = Kernel(seed=3)
    echo_server(kernel, port=8080, requests=2)
    interposer = _rewriting(mechanism, kernel)
    process = kernel.spawn_process("/bin/echo1")
    _park_in_accept(kernel, process)
    # lazypoline discovers the accept site through SIGSYS on its first
    # execution, and that parked call restarts on the rewritten site.
    _serve(kernel, process, b"one")
    thread = _park_in_accept(kernel, process)
    ctx = thread.context
    # The restart undid the trampoline's implicit push and put RIP back
    # on the rewritten two-byte call, whose return address is still on
    # the stack just below RSP.
    rsp = ctx.get(Reg.RSP)
    return_addr = int.from_bytes(
        process.address_space.read_kernel(rsp - 8, 8), "little")
    assert ctx.rip == return_addr - 2
    assert process.address_space.read_kernel(ctx.rip, 2) == b"\xff\xd0"
    # The parked accept is neither logged nor counted as handled yet.
    handled = interposer.handled[process.pid]
    assert [nr for nr, _via in handled].count(Nr.accept) == 1
    assert [r.nr for r in kernel.syscall_log].count(Nr.accept) == 1

    _serve(kernel, process, b"two")
    assert process.exited and process.exit_status == 0
    accepts = [via for nr, via in interposer.handled[process.pid]
               if nr == Nr.accept]
    assert accepts == ["rewrite", "rewrite"]


# ---------------------------------------------------- NULL-execution aborts


def _register_null_call(kernel):
    """P4a's bug: ``call *%rax`` with RAX = 0 lands in the trampoline."""
    builder = ProgramBuilder("/bin/nullcall")
    builder.start()
    builder.libc("getpid")
    asm = builder.asm
    asm.xor_rr(Reg.RAX, Reg.RAX)
    asm.mark("null_call")
    asm.call_reg(Reg.RAX)
    builder.exit(0)
    builder.register(kernel)


def _null_call_site(process):
    base, image, _ns = process.loaded_images["/bin/nullcall"]
    return base + image.asm.marks["null_call"]


@pytest.mark.parametrize("mechanism", ("zpoline-ultra", "K23-ultra"))
def test_null_execution_abort_names_the_site(mechanism):
    if mechanism == "K23-ultra":
        kernel, _k23_interposer = _k23(_register_null_call, "/bin/nullcall")
        prefix = "libK23:"
    else:
        kernel = Kernel(seed=4)
        _register_null_call(kernel)
        ZpolineInterposer(kernel, variant="ultra").install()
        prefix = "zpoline-ultra:"
    process = spawn_and_run(kernel, "/bin/nullcall")
    assert process.exited and process.exit_status != 0
    detail = process.kill_detail
    assert detail.startswith(prefix)
    assert f"unknown site {_null_call_site(process):#x}" in detail
    assert "NULL-execution check" in detail


# ---------------------------------------------------------------- K23 guard


def _register_prctl_off(kernel):
    builder = ProgramBuilder("/bin/prctloff")
    builder.start()
    builder.libc("prctl", PR_SET_SYSCALL_USER_DISPATCH, PR_SYS_DISPATCH_OFF,
                 0, 0, 0)
    builder.libc("getpid")
    builder.exit(0)
    builder.register(kernel)


@pytest.mark.parametrize("variant", ("default", "ultra", "ultra+"))
def test_k23_prctl_guard_aborts_before_forwarding(variant):
    kernel, k23 = _k23(_register_prctl_off, "/bin/prctloff", variant=variant)
    process = spawn_and_run(kernel, "/bin/prctloff")
    assert process.exited and process.exit_status != 0
    assert "disable Syscall User Dispatch (P1b)" in process.kill_detail
    # The guarded prctl never reached the kernel, and getpid never ran.
    app = [r.nr for r in kernel.app_requested_syscalls(process.pid)
           if r.origin != "ptrace"]
    assert Nr.prctl not in app and Nr.getpid not in app
    assert all(t.sud.enabled for t in process.threads)


# ------------------------------------------------------------- user hooks


def _register_getuid_access(kernel):
    """getuid's result is the length of a write, then one access."""
    kernel.vfs.create("/etc/motd", b"hi\n")
    builder = ProgramBuilder("/bin/hooked")
    builder.string("path", "/etc/motd")
    builder.string("msg", "hello\n")
    builder.start()
    builder.libc("getuid")
    builder.libc("write", 1, data_ref("msg"), RESULT)
    builder.libc("access", data_ref("path"), 4)
    builder.exit(0)
    builder.register(kernel)


@pytest.mark.parametrize("mechanism",
                         ("zpoline-default", "lazypoline", "K23-ultra+"))
def test_user_hook_sees_call_and_working_forward(mechanism):
    seen = []

    def hook(thread, nr, args, forward):
        if nr == Nr.getuid:
            seen.append(("getuid", forward()))
            return 3  # substituted: the write below prints three bytes
        if nr == Nr.access:
            seen.append(("access", list(args[:2]), forward()))
            return forward()  # forwarding twice runs the call twice
        return forward()

    if mechanism.startswith("K23"):
        kernel, interposer = _k23(_register_getuid_access, "/bin/hooked",
                                  variant="ultra+", hook=hook)
    else:
        kernel = Kernel(seed=6)
        _register_getuid_access(kernel)
        interposer = _rewriting(mechanism, kernel, hook=hook)
    process = spawn_and_run(kernel, "/bin/hooked")
    assert process.exit_status == 0
    assert bytes(process.output) == b"hel"
    assert seen[0] == ("getuid", 1000)
    (name, (path_addr, mode), result), = seen[1:]
    assert (name, mode, result) == ("access", 4, 0)
    assert process.address_space.read_cstr(path_addr) == "/etc/motd"
    # Each forward() ran the real call once more, and was recorded once
    # (K23's ptracer sees the loader's own calls before the handoff).
    forwarded = [r.nr for r in kernel.app_requested_syscalls(process.pid)
                 if r.origin in ("rewrite-handler", "sud-handler")
                 and r.nr in (Nr.getuid, Nr.access)]
    assert forwarded == [Nr.getuid, Nr.access, Nr.access]
    handled = [nr for nr, via in interposer.handled[process.pid]
               if via != "ptrace" and nr in (Nr.getuid, Nr.access)]
    assert handled == [Nr.getuid, Nr.access, Nr.access]


# ---------------------------------------------------------- hostcall table


def test_unregistered_hostcall_index_raises_invalid_opcode():
    kernel = Kernel()
    index = kernel.hostcalls.register(lambda thread: None, "t")
    with pytest.raises(InvalidOpcode, match=f"unregistered hostcall "
                                            f"{index + 1}"):
        kernel.hostcalls.table[index + 1]
    with pytest.raises(InvalidOpcode):
        kernel.dispatch_hostcall(None, index + 7)


def test_unregistered_hostcall_in_guest_code_raises_sigill():
    kernel = Kernel(seed=7)
    builder = ProgramBuilder("/bin/badhost")
    builder.start()
    builder.asm.hostcall(0x7777)  # far above every registered index
    builder.exit(0)
    builder.register(kernel)
    process = spawn_and_run(kernel, "/bin/badhost")
    assert process.exited and process.exit_status != 0
    assert "SIGILL" in process.kill_detail

