"""Guards for the program images every kernel shares (DESIGN.md §3c).

libc, the loader stub, the coreutils and the stress program are each
assembled once per process and mapped into every address space that
loads them.  zpoline, lazypoline and K23 rewrite syscall sites in their
mapped copies; these tests check that no rewrite ever reaches a shared
image, and that the shared stub and libc code only call hostcalls the
kernel running them registered.
"""

import pytest

from repro import runapi
from repro.arch.disassembler import linear_sweep
from repro.arch.isa import Mnemonic
from repro.faultinject import conformance
from repro.loader import libc, linker
from repro.workloads import coreutils, stress

REWRITERS = ("zpoline-ultra", "lazypoline", "K23-ultra")
WORKLOADS = ("stress", "ls")

#: (module, attribute) of every shared-image memo.
IMAGE_MEMOS = ((libc, "_assemble_libc"), (linker, "_assemble_stub"),
               (coreutils, "coreutil_image"), (stress, "stress_image"))


@pytest.fixture
def built(monkeypatch):
    """Record every shared image handed out, with the memo and arguments
    that produced it, starting from empty memos."""
    calls = {}
    memos = [getattr(module, name) for module, name in IMAGE_MEMOS]
    for (module, name), memo in zip(IMAGE_MEMOS, memos):
        memo.cache_clear()

        def record(*args, _memo=memo):
            image = _memo(*args)
            calls[id(image)] = (_memo, args, image)
            return image

        monkeypatch.setattr(module, name, record)
    yield calls
    for memo in memos:
        memo.cache_clear()


def fresh(memo, args):
    """The same image built again, bypassing the memo."""
    return memo.__wrapped__(*args)


def boot(mechanism, workload, extra_hostcalls=0):
    """Boot and exec one workload without running it; *extra_hostcalls*
    are registered first, as a tool or a test harness might, so the
    process's libc and stub hostcall indices shift."""
    params = ((("iterations", conformance.STRESS_ITERATIONS),)
              if workload == "stress" else ())
    prepared = runapi.boot(runapi.RunConfig(
        mechanism, workload, seed=conformance.KERNEL_SEED, params=params))
    for index in range(extra_hostcalls):
        prepared.kernel.hostcalls.register(lambda thread: None,
                                           f"extra{index}")
    return prepared.kernel, prepared.spawn()


def test_rewriters_leave_shared_images_intact(built):
    for mechanism in REWRITERS:
        for workload in WORKLOADS:
            assert conformance.run_cell(mechanism, workload, 1) \
                .exit_status == 0
    later = [boot(mechanism, workload, extra)[1]
             for mechanism in REWRITERS for workload in WORKLOADS
             for extra in (0, 1)]
    assert len({memo for memo, _args, _image in built.values()}) == \
        len(IMAGE_MEMOS)
    for memo, args, image in built.values():
        rebuilt = fresh(memo, args)
        assert image.blob == rebuilt.blob, (memo, args)
        assert image.asm.labels == rebuilt.asm.labels
        assert image.syscall_sites == rebuilt.syscall_sites
    # Processes loading the same images after all those rewrites map
    # the bytes of a fresh build.
    for process in later:
        space = process.address_space
        shared = [(base, image) for base, image, _ns
                  in process.loaded_images.values() if id(image) in built]
        assert len(shared) == 3  # libc, the program and the stub
        for base, image in shared:
            memo, args, _image = built[id(image)]
            size = image.code_size
            assert space.read_kernel(base, size) == \
                fresh(memo, args).blob[:size], image.name


def hostcall_names(kernel, space, base, size):
    names = []
    for item in linear_sweep(space.read_kernel(base, size)):
        insn = item.instruction
        if insn is not None and insn.mnemonic is Mnemonic.HOSTCALL:
            names.append(kernel.hostcalls.name(insn.hostcall))
    return names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shared_code_calls_only_its_own_kernels_hostcalls(built, workload):
    """Kernels that register different hostcalls before exec (zpoline's
    trampoline entry, a harness's own) each get libc and stub code for
    their own indices, whatever an earlier kernel left in the memos.

    Each extra hostcall shifts libc by one index, so a ``native`` kernel
    loads the very libc image the ``zpoline-ultra`` kernel before it
    rewrote in place; the native copy must still be the pristine code.
    """
    for extra in (0, 1, 2):
        for mechanism in ("zpoline-ultra", "native"):
            kernel, process = boot(mechanism, workload, extra)
            kernel.run_process(process)
            assert process.exit_status == 0
            space = process.address_space
            stub_base, stub, _ = process.loaded_images["[ld.so]"]
            stub_calls = hostcall_names(kernel, space, stub_base,
                                        stub.code_size)
            assert stub_calls[-1] == "loader_done", (mechanism, extra)
            assert all(name.startswith("ctor:")
                       for name in stub_calls[:-1])
            assert len(stub_calls) == (1 if mechanism == "native" else 2)
            libc_base, libc_image, _ = process.loaded_images[libc.LIBC_PATH]
            assert hostcall_names(kernel, space, libc_base,
                                  libc_image.code_size) == [
                "libc.dlopen", "libc.dlmopen", "libc.pthread_create",
                "libc.thread_exit", "libc.burn"]
            if mechanism == "native":
                for base, image, _ns in process.loaded_images.values():
                    if id(image) in built:
                        size = image.code_size
                        assert space.read_kernel(base, size) == \
                            image.blob[:size], (image.name, extra)
