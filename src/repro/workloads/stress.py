"""The §6.2.1 microbenchmark: syscall number 500, invoked in a tight loop.

Number 500 does not exist, so the kernel rejects it immediately — minimal
in-kernel time, maximal emphasis on interposition overhead.  The loop runs
through libc's generic ``syscall(3)`` shim (one stable site, so every
mechanism reaches steady state after the first iteration).
"""

from __future__ import annotations

import functools

from repro.kernel.syscalls import FAKE_SYSCALL_STRESS
from repro.loader.image import SimImage
from repro.workloads.programs import ProgramBuilder

STRESS_PATH = "/usr/bin/syscall-stress"

#: Iterations per measured run.  The paper runs 100 M on hardware; the
#: simulator's per-iteration cost is deterministic, so a few thousand
#: iterations measure the same per-call cycle cost.
DEFAULT_ITERATIONS = 2_000


def build_stress(iterations: int = DEFAULT_ITERATIONS) -> ProgramBuilder:
    builder = ProgramBuilder(STRESS_PATH, stub_profile=10)
    builder.start()
    builder.loop(iterations)
    builder.libc("syscall", FAKE_SYSCALL_STRESS)
    builder.end_loop()
    builder.exit(0)
    return builder


@functools.lru_cache(maxsize=None)
def stress_image(iterations: int = DEFAULT_ITERATIONS) -> SimImage:
    """The finalized stress image for *iterations*, built once per process
    and shared read-only by every kernel that installs it."""
    return build_stress(iterations).build()


def install_stress(kernel, iterations: int = DEFAULT_ITERATIONS) -> str:
    kernel.loader.register_image(stress_image(iterations))
    return STRESS_PATH
