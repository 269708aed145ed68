"""In-memory span tracer that wraps a program's entry points from outside.

A :class:`Tracer` replaces functions and methods with timing wrappers
(monkey-patching: the program's source is never edited), keeps every
span in memory as per-name aggregates, and restores the originals on
:meth:`Tracer.uninstall`.

Accounting is in integer nanoseconds of one clock, so it is exact:

- a span's *self* time is its duration minus the durations of the spans
  it directly caused (its children);
- the self times of all spans add up to the summed duration of the
  outermost spans (the sum telescopes);
- ``other_ns`` is the traced window minus that sum, so self times plus
  ``other_ns`` equal the window with no residual.

Spans nest through one shared stack, so a tracer observes one thread of
one process.  Work done in forked workers is invisible to it.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import sys
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: Attribute set on every wrapper, naming its span; used to find wrappers
#: that must not survive :meth:`Tracer.uninstall`.
MARKER = "__perfbench_span__"


def resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` → (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span aggregates keyed by span name, plus the patches that feed them.

    Attributes:
        layer_of: span name → layer name.
        calls / self_ns / incl_ns: per span name.
        keyed_self_ns / keyed_incl_ns: per (span name, key) for spans
            given a ``key`` function (e.g. the mechanism family).
        started_ns / stopped_ns: the traced window, set by
            :meth:`start` and :meth:`stop`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stack: List[List[int]] = []
        self.layer_of: Dict[str, str] = {}
        self.calls: Dict[str, int] = collections.Counter()
        self.self_ns: Dict[str, int] = collections.Counter()
        self.incl_ns: Dict[str, int] = collections.Counter()
        self.keyed_self_ns: Dict[Tuple[str, str], int] = collections.Counter()
        self.keyed_incl_ns: Dict[Tuple[str, str], int] = collections.Counter()
        self._top = [0]
        self._patches: List[Tuple[object, str, object]] = []
        self._packages: set = set()
        self.started_ns: Optional[int] = None
        self.stopped_ns: Optional[int] = None

    # ------------------------------------------------------------ spans

    def _close(self, name: str, key: Optional[str], child: List[int],
               start: int) -> Tuple[int, int]:
        elapsed = self.clock() - start
        self.stack.pop()
        own = elapsed - child[0]
        self.calls[name] += 1
        self.self_ns[name] += own
        self.incl_ns[name] += elapsed
        if key is not None:
            self.keyed_self_ns[name, key] += own
            self.keyed_incl_ns[name, key] += elapsed
        if self.stack:
            self.stack[-1][0] += elapsed
        else:
            self._top[0] += elapsed
        return own, elapsed

    def wrap(self, fn: Callable, name: str, layer: str,
             key: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A wrapper timing each call of *fn* as span *name* of *layer*.

        ``key(args, kwargs)`` (optional) sub-keys the span;
        ``after(args, kwargs, result, sub, elapsed_ns)`` (optional) runs
        after a call that returned, outside the span, to collect counts.
        """
        self.layer_of[name] = layer
        stack, clock = self.stack, self.clock
        if key is None and after is None:
            # The hot path (per-syscall, per-event spans): inline _close.
            calls, self_ns, incl_ns, top = (self.calls, self.self_ns,
                                            self.incl_ns, self._top)

            def wrapper(*args, **kwargs):
                child = [0]
                stack.append(child)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    calls[name] += 1
                    self_ns[name] += elapsed - child[0]
                    incl_ns[name] += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        top[0] += elapsed
        else:
            def wrapper(*args, **kwargs):
                sub = key(args, kwargs) if key is not None else None
                child = [0]
                stack.append(child)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._close(name, sub, child, start)
                    raise
                _own, elapsed = self._close(name, sub, child, start)
                if after is not None:
                    after(args, kwargs, result, sub, elapsed)
                return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARKER, name)
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the caller around a block of its own code."""
        self.layer_of[name] = layer
        child = [0]
        self.stack.append(child)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, None, child, start)

    # ---------------------------------------------------------- patching

    def patch(self, target: str, name: str, layer: str,
              key: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Wrap *target* (see :func:`resolve`) as span *name*.

        A class attribute is replaced on the class.  A module-level
        function is replaced in its module and in every loaded module of
        the same top-level package that imported it by name, so callers
        holding ``from mod import func`` references are traced too.
        """
        owner, attr = resolve(target)
        original = owner.__dict__[attr]
        wrapper = self.wrap(original, name, layer, key=key, after=after)
        if isinstance(owner, type):
            self._packages.add(owner.__module__.split(".")[0] + ".")
            self._set(owner, attr, wrapper)
            return
        package = owner.__name__.split(".")[0] + "."
        self._packages.add(package)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module is not owner and not module_name.startswith(package):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._set(module, alias, wrapper)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first.

        A module first imported while the tracer was installed may have
        copied a wrapper with ``from mod import func``; those copies are
        unwrapped too.
        """
        while self._patches:
            owner, attr, previous = self._patches.pop()
            setattr(owner, attr, previous)
        for package in self._packages:
            for owner, attr in leftover_wrappers(package):
                value = owner.__dict__[attr]
                while is_wrapper(value):
                    value = value.__wrapped__
                setattr(owner, attr, value)

    # ------------------------------------------------------------ window

    def start(self) -> None:
        self.started_ns = self.clock()

    def stop(self) -> None:
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} span(s) still open")
        self.stopped_ns = self.clock()

    @property
    def total_ns(self) -> int:
        return self.stopped_ns - self.started_ns

    @property
    def other_ns(self) -> int:
        """Window time outside every span — the closing remainder."""
        return self.total_ns - self._top[0]

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer; these plus :attr:`other_ns` equal
        :attr:`total_ns` exactly."""
        out: Dict[str, int] = collections.Counter()
        for name, ns in self.self_ns.items():
            out[self.layer_of[name]] += ns
        return dict(out)


def is_wrapper(value: object) -> bool:
    return isinstance(value, types.FunctionType) and MARKER in value.__dict__


def leftover_wrappers(prefix: str) -> List[Tuple[object, str]]:
    """Every (module or class, attribute) under the modules named
    *prefix*\\* whose value is still a tracer wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not (module_name + ".").startswith(prefix) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if is_wrapper(value):
                found.append((module, attr))
            if isinstance(value, type) and value.__module__ == module_name:
                found.extend((value, name) for name, member
                             in list(vars(value).items())
                             if is_wrapper(member))
    return found
