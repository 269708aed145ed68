"""Traffic-source unit tests."""

import warnings

import pytest

from repro.kernel import Kernel
from repro.workloads.clients import (
    DriveResult,
    HTTP_REQUEST,
    KeepAliveSource,
    MirroredSource,
    REDIS_GET,
    TrafficSource,
    redis_benchmark,
    wrk,
)
from tests.kernel.test_net import echo_server


def keepalive_echo(kernel, port=8080):
    """An echo server that serves many requests per connection."""
    from repro.arch.registers import Reg
    from repro.workloads.programs import ProgramBuilder, RESULT, data_ref

    builder = ProgramBuilder("/bin/kecho")
    builder.buffer("buf", 256)
    builder.start()
    builder.libc("socket", 2, 1, 0)
    builder.asm.mov_rr(Reg.R14, Reg.RAX)
    builder.libc("bind", Reg.R14, port, 0)
    builder.libc("listen", Reg.R14, 128)
    builder.label(".accept")
    builder.libc("accept", Reg.R14, 0, 0)
    builder.asm.mov_rr(Reg.R13, Reg.RAX)
    builder.label(".req")
    builder.libc("recvfrom", Reg.R13, data_ref("buf"), 256, 0, 0, 0)
    builder.asm.test_rr(Reg.RAX, Reg.RAX)
    builder.asm.je(".closed")
    builder.libc("sendto", Reg.R13, data_ref("buf"), RESULT, 0, 0, 0)
    builder.asm.jmp(".req")
    builder.label(".closed")
    builder.libc("close", Reg.R13)
    builder.asm.jmp(".accept")
    builder.register(kernel)


@pytest.fixture
def served_kernel():
    kernel = Kernel(seed=70)
    keepalive_echo(kernel, port=8080)
    process = kernel.spawn_process("/bin/kecho")
    kernel.run_process(process, max_steps=200_000)
    return kernel


def test_drive_result_math():
    result = DriveResult(requests=10, cycles=1000, failures=0)
    assert result.cycles_per_request == 100.0
    empty = DriveResult(requests=0, cycles=50, failures=5)
    assert empty.cycles_per_request == float("inf")


def test_wrk_sends_http_payload(served_kernel):
    generator = wrk(served_kernel, 8080, connections=1)
    result = generator.drive(1)
    assert result.requests == 1
    # The echo server reflected the request bytes back.
    # (drained inside drive; send another to inspect)
    generator.connections[0].client_send(HTTP_REQUEST)
    served_kernel.run(max_steps=100_000)
    assert generator.connections[0].client_recv_all() == HTTP_REQUEST


def test_redis_benchmark_payload_shape():
    assert REDIS_GET.startswith(b"*2\r\n$3\r\nGET")


def test_cycles_measured_only_during_drive(served_kernel):
    generator = wrk(served_kernel, 8080, connections=1)
    generator.warmup(2)
    before = served_kernel.cycles.cycles
    result = generator.drive(5)
    after = served_kernel.cycles.cycles
    assert result.cycles == after - before
    assert result.requests == 5


def test_multi_connection_needs_matching_workers(served_kernel):
    """A single-worker server can only progress one connection's session at
    a time — the reason the macro configs match connections to workers."""
    generator = KeepAliveSource(served_kernel, 8080, connections=3,
                               payload=b"m")
    result = generator.drive(3)
    assert result.requests >= 1
    assert generator.failures >= 1  # the starved connections


def test_batching_respects_request_limit(served_kernel):
    generator = KeepAliveSource(served_kernel, 8080, connections=1,
                               payload=b"m")
    result = generator.drive(7)
    assert result.requests == 7
    assert result.failures == 0


def test_close_shuts_connections(served_kernel):
    generator = wrk(served_kernel, 8080, connections=2)
    generator.drive(2)
    generator.close()
    assert all(conn.client_closed for conn in generator.connections)


def test_stall_guard_reports_partial(served_kernel):
    """Kill the server mid-drive: the guard stops the drive rather than
    spinning forever."""
    generator = wrk(served_kernel, 8080, connections=1)
    generator.drive(2)
    server = next(iter(served_kernel.processes.values()))
    server.terminate(137)
    result = generator.drive(20)
    assert result.requests < 20
    assert generator.failures > 0


def test_new_names_do_not_warn(served_kernel):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        KeepAliveSource(served_kernel, 8080, connections=1, payload=b"x")
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


def test_wrk_and_redis_benchmark_return_sources(served_kernel):
    assert issubclass(KeepAliveSource, TrafficSource)
    assert issubclass(MirroredSource, TrafficSource)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert type(wrk(served_kernel, 8080, 2)) is KeepAliveSource
        assert type(redis_benchmark(served_kernel, 8080, 2)) is \
            KeepAliveSource
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]


def test_mirrored_source_drive_returns_result_only(served_kernel):
    primary = KeepAliveSource(served_kernel, 8080, connections=1,
                              payload=b"ping")
    kernel_b = Kernel(seed=70)
    keepalive_echo(kernel_b, port=8080)
    kernel_b.run_process(kernel_b.spawn_process("/bin/kecho"),
                         max_steps=200_000)
    shadow = KeepAliveSource(kernel_b, 8080, connections=1,
                             payload=b"ping")
    mirror = MirroredSource(primary, shadow)
    result = mirror.drive(2)
    assert result.requests == 2
    assert mirror.mismatches == []
