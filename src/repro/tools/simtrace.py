"""simtrace — strace for the simulated machine.

Usage::

    python -m repro.tools.simtrace <program> [--interposer MECH] [--summary]
                                   [--seed N] [--trace-out FILE.json]
                                   [--jsonl-out FILE.jsonl]

``<program>`` is one of the bundled workloads (pwd, touch, ls, cat, clear)
or any absolute path previously registered by a setup module.
``--interposer`` is any Table 5 mechanism name (default: K23-ultra); K23
variants automatically run their offline phase first.  ``--trace-out``
additionally records the run through the instrumentation bus and writes a
Chrome trace-event JSON (load it in Perfetto / chrome://tracing): one
track per simulated thread plus a cycle-attribution flamegraph track.
``--jsonl-out`` writes the raw event stream as seq-numbered JSONL — the
input format of ``python -m repro tracediff`` / ``traceq``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import OfflinePhase
from repro.core.offline import import_logs
from repro.interposers.hooks import CountingHook, TracingHook, chain
from repro.interposers.registry import REGISTRY
from repro.kernel import Kernel
from repro.workloads.coreutils import install_coreutils

COREUTILS = {"pwd", "touch", "ls", "cat", "clear"}


def _resolve_program(name: str) -> str:
    if name.lstrip("/").rsplit("/", 1)[-1] in COREUTILS:
        return f"/usr/bin/{name.rsplit('/', 1)[-1]}"
    if name.startswith("/"):
        return name
    raise SystemExit(f"unknown program {name!r}; "
                     f"bundled: {', '.join(sorted(COREUTILS))}")


def trace(program: str, mechanism: str = "K23-ultra", seed: int = 1,
          summary: bool = False, out=None, trace_out: Optional[str] = None,
          jsonl_out: Optional[str] = None):
    out = out or sys.stdout
    path = _resolve_program(program)

    kernel = Kernel(seed=seed)
    trace_sink = None
    jsonl_sink = None
    jsonl_file = None
    if trace_out is not None:
        from repro.observability.export import TraceSink

        trace_sink = TraceSink(mechanism=mechanism,
                               workload=path.rsplit("/", 1)[-1])
        kernel.bus.attach(trace_sink)
    if jsonl_out is not None:
        from repro.observability.sinks import StreamingJSONLSink

        jsonl_file = open(jsonl_out, "w")
        jsonl_sink = StreamingJSONLSink(jsonl_file)
        kernel.bus.attach(jsonl_sink)
    tracer = TracingHook(bus=kernel.bus)
    counter = CountingHook(bus=kernel.bus)
    hook = chain(tracer, counter)

    install_coreutils(kernel)
    if REGISTRY.needs_offline(mechanism):
        offline_kernel = Kernel(seed=seed + 1)
        install_coreutils(offline_kernel)
        offline = OfflinePhase(offline_kernel)
        offline.run(path)
        import_logs(kernel, offline.export())
    interposer = REGISTRY.create(mechanism, kernel)
    interposer.hook = hook
    process = kernel.spawn_process(path)
    kernel.run_process(process)

    if not summary:
        for line in tracer.formatted():
            print(line, file=out)
    print(counter.summary(), file=out)
    missed = kernel.uninterposed_syscalls(process.pid)
    vdso = [e for e in kernel.vdso_calls if e[0] == process.pid]
    print(f"\ncoverage: {interposer.handled_count(process.pid)} interposed, "
          f"{len(missed)} missed, {len(vdso)} vDSO calls unseen "
          f"(mechanism: {mechanism})", file=out)
    print(f"exit status: {process.exit_status}", file=out)
    if trace_sink is not None:
        from repro.observability.export import write_chrome_trace

        written = write_chrome_trace(trace_sink, trace_out)
        print(f"trace: {written} "
              f"({len(trace_sink.trace_events)} events; open in Perfetto)",
              file=out)
    if jsonl_sink is not None:
        jsonl_sink.close()
        jsonl_file.close()
        print(f"jsonl trace: {jsonl_out}", file=out)
    return process, tracer, counter, missed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simtrace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("program", help="bundled coreutil name or path")
    parser.add_argument("--interposer", default="K23-ultra",
                        choices=list(REGISTRY.names()))
    parser.add_argument("--summary", action="store_true",
                        help="histogram only (strace -c)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace-event/Perfetto JSON of "
                             "the run")
    parser.add_argument("--jsonl-out", default=None, metavar="FILE",
                        help="write the raw event stream as seq-numbered "
                             "JSONL (tracediff/traceq input)")
    args = parser.parse_args(argv)
    process, _tracer, _counter, _missed = trace(
        args.program, args.interposer, args.seed, args.summary,
        trace_out=args.trace_out, jsonl_out=args.jsonl_out)
    return 0 if process.exit_status == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
