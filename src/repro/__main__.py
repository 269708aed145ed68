"""``python -m repro`` — the unified CLI.

One dispatcher over the tools::

    python -m repro simtrace <program> [--seed N] [--trace-out F] ...
    python -m repro evalrun [table2..6|figure1..4|matrix|report] [--jobs N] ...
    python -m repro conformance [--smoke] [--seed N] [--jobs N] ...
    python -m repro pitfallcheck [zpoline|lazypoline|K23|all] [--seed N] ...
    python -m repro shadow --primary A --shadow B --workload W [--seed N] ...
    python -m repro tracediff A.jsonl B.jsonl [--context N] ...
    python -m repro traceq TRACE [--type T] [--phase P] [--count] ...
    python -m repro replay --bundle B --to-seq N [--step] [--seed N] ...
    python -m repro loadtest [--workload W] [--requests N] [--jobs N] ...
    python -m repro sloexplain [EXEMPLAR_ID] [--worst] [--list] ...

The shared flags — ``--seed``, ``--jobs``, ``--trace-out`` — mean the
same thing everywhere they are accepted (determinism seed, process-pool
width, Perfetto trace output); passing one to a subcommand that does not
support it is an error here — naming the subcommands that *do* accept
it — rather than an argparse surprise there.  The old module paths
(``python -m repro.tools.simtrace`` etc.) keep working.
"""

from __future__ import annotations

import importlib
import sys
from typing import List, Optional, Tuple

#: subcommand → (implementation module, shared flags it supports).
SUBCOMMANDS = {
    "simtrace": ("repro.tools.simtrace", ("--seed", "--trace-out")),
    "evalrun": ("repro.tools.evalrun",
                ("--seed", "--jobs", "--trace-out")),
    "conformance": ("repro.tools.conformance",
                    ("--seed", "--jobs", "--trace-out")),
    "pitfallcheck": ("repro.tools.pitfallcheck", ("--seed",)),
    "shadow": ("repro.tools.shadow", ("--seed", "--trace-out")),
    "tracediff": ("repro.tools.tracediff", ()),
    "traceq": ("repro.tools.traceq", ()),
    "replay": ("repro.tools.replay", ("--seed",)),
    "loadtest": ("repro.tools.loadtest", ("--seed", "--jobs")),
    "sloexplain": ("repro.tools.sloexplain", ()),
}

SHARED_FLAGS = ("--seed", "--jobs", "--trace-out")


def supporters_of(flag: str) -> Tuple[str, ...]:
    """The subcommands that accept *flag* (for the mismatch error)."""
    return tuple(name for name, (_module, shared) in SUBCOMMANDS.items()
                 if flag in shared)


def _usage() -> str:
    lines = ["usage: python -m repro <subcommand> [options]", "",
             "subcommands:"]
    for name, (module, shared) in SUBCOMMANDS.items():
        extra = f"  (shared: {', '.join(shared)})" if shared else ""
        lines.append(f"  {name:<14}{module}{extra}")
    lines += ["",
              "Run `python -m repro <subcommand> --help` for the full "
              "option list."]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 2
    name, rest = argv[0], argv[1:]
    if name not in SUBCOMMANDS:
        print(f"unknown subcommand {name!r}\n\n{_usage()}", file=sys.stderr)
        return 2
    module_name, supported = SUBCOMMANDS[name]
    for flag in SHARED_FLAGS:
        if flag in supported:
            continue
        if any(arg == flag or arg.startswith(flag + "=") for arg in rest):
            accepted = supporters_of(flag)
            hint = (f" (supported by: {', '.join(accepted)})"
                    if accepted else "")
            print(f"{name} does not support {flag}{hint}", file=sys.stderr)
            return 2
    module = importlib.import_module(module_name)
    return module.main(rest)


if __name__ == "__main__":
    raise SystemExit(main())
