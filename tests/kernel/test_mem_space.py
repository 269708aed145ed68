"""``Thread.mem_space`` is a plain attribute bound to the live address
space: every thread of every process must see its process's current
space after spawn, clone, fork, execve and a checkpoint restore."""

from repro.kernel import Kernel
from repro.kernel.syscalls import CLONE_THREAD, CLONE_VM, Nr
from repro.replay.checkpoint import capture, restore
from tests.kernel.test_process_mgmt import execve_program, fork_program


def assert_bound(kernel):
    threads = [t for p in kernel.processes.values() for t in p.threads]
    assert threads
    for thread in threads:
        assert thread.mem_space is thread.process.address_space


def test_spawn_and_clone():
    kernel = Kernel(seed=42)
    execve_program(kernel, empty_env=True)
    process = kernel.spawn_process("/usr/bin/hello")
    assert_bound(kernel)
    kernel.do_syscall(process.main_thread, Nr.clone,
                      [CLONE_VM | CLONE_THREAD, 0x123000, 0, 0, 0, 0],
                      origin="interposer-internal")
    assert len(process.threads) == 2
    assert_bound(kernel)


def test_fork():
    kernel = Kernel(seed=42)
    fork_program(kernel)
    parent = kernel.spawn_process("/bin/fork1")
    kernel.run()
    child = next(p for p in kernel.processes.values() if p.parent is parent)
    assert child.address_space is not parent.address_space
    assert_bound(kernel)


def test_execve_rebinds_the_new_space():
    kernel = Kernel(seed=42)
    execve_program(kernel, empty_env=True)
    process = kernel.spawn_process("/bin/execer")
    before = process.address_space
    kernel.run_process(process)
    assert process.path == "/usr/bin/hello"
    assert process.address_space is not before
    assert bytes(process.output) == b"hello\n"
    assert_bound(kernel)


def test_checkpoint_restore_onto_a_fresh_machine():
    """Restore materializes the fork child on a machine that never ran
    the fork; its thread and the parent's see their own spaces."""
    def fresh():
        kernel = Kernel(seed=42)
        fork_program(kernel)
        return kernel, kernel.spawn_process("/bin/fork1")

    kernel, parent = fresh()
    while len(kernel.processes) < 2:
        kernel.run(max_steps=50)
    state = capture(kernel, seq=0)
    replayed, _parent = fresh()
    restore(replayed, state)
    assert len(replayed.processes) == 2
    assert_bound(replayed)
    replayed.run()
    kernel.run()
    outputs = {pid: bytes(p.output) for pid, p in kernel.processes.items()}
    assert {pid: bytes(p.output)
            for pid, p in replayed.processes.items()} == outputs
    assert sorted(outputs.values()) == [b"C", b"P"]
