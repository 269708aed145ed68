"""Declarative mechanism registry — the evaluated configurations.

Every interposition mechanism the evaluation (§6.2) exercises is described
by a :class:`MechanismSpec` and registered, in Table 5 order, with the
module-level :data:`REGISTRY`.  Construction sites (the evaluation runner,
the benchmarks, the CLI tools, the examples) go through
:meth:`MechanismRegistry.create` instead of hard-coding class names, so new
mechanisms — an Arm variant riding on :mod:`repro.arch.arm64`, a seccomp
tracer, an eBPF sketch — plug in with one ``register`` call and immediately
appear in every table, figure, and tool.

Specs carry the factory (as a lazy ``"module:attr"`` reference, so
registering K23 does not import :mod:`repro.core` at import time), the
Table 4 variant name, whether the mechanism needs the K23 offline phase
and whether it arms Syscall User Dispatch.  Which cycle-model events a
mechanism charges is not listed here; it is measured
(:func:`repro.evaluation.breakdown.decompose`).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.interposers.base import Interposer, SyscallHook


class UnknownMechanismError(ValueError):
    """Raised for a name the registry has never seen; lists valid names."""

    def __init__(self, name: str, valid: Tuple[str, ...]):
        super().__init__(
            f"unknown mechanism {name!r}; valid mechanisms: "
            + ", ".join(valid))
        self.name = name
        self.valid = valid


@dataclass(frozen=True)
class MechanismSpec:
    """One evaluated mechanism configuration.

    Attributes:
        name: identifier as printed in Tables 4/5/6 (e.g. ``"K23-ultra"``).
        factory: lazy ``"module:attr"`` reference to the interposer class
            (or any callable accepting ``(kernel, hook=..., **kwargs)``).
        kwargs: extra keyword arguments the factory is called with
            (``variant=...``, ``interpose=...``).
        family: mechanism family (``"zpoline"``, ``"K23"``, ``"SUD"``, ...).
        variant: Table 4 variant name within the family, if any.
        needs_offline: True when the mechanism requires K23's offline logs
            to be imported before install.
        arms_sud: True when the mechanism initializes Syscall User Dispatch
            (and therefore pays the armed slow path and, multi-threaded,
            the signal-contention model).
        description: one line for ``--list`` style output.
    """

    name: str
    factory: str
    kwargs: Tuple[Tuple[str, object], ...] = ()
    family: str = ""
    variant: Optional[str] = None
    needs_offline: bool = False
    arms_sud: bool = False
    description: str = ""

    def resolve_factory(self) -> Callable[..., Interposer]:
        module_name, _, attr = self.factory.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attr)


class MechanismRegistry:
    """Ordered name → :class:`MechanismSpec` mapping with construction."""

    def __init__(self) -> None:
        self._specs: Dict[str, MechanismSpec] = {}

    # -- registration ---------------------------------------------------------

    def register(self, spec: MechanismSpec, replace: bool = False) -> MechanismSpec:
        if spec.name in self._specs and not replace:
            raise ValueError(f"mechanism {spec.name!r} already registered")
        existing = spec.name in self._specs
        if existing and replace:
            # Preserve evaluation order on re-registration.
            items = [(name, (spec if name == spec.name else value))
                     for name, value in self._specs.items()]
            self._specs = dict(items)
        else:
            self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        self._specs.pop(name, None)

    # -- lookup ---------------------------------------------------------------

    def get(self, name: str) -> MechanismSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownMechanismError(name, self.names()) from None

    def names(self) -> Tuple[str, ...]:
        """Registration (= Table 5 evaluation) order."""
        return tuple(self._specs)

    def canonical(self, name: str) -> str:
        """Resolve *name* case-insensitively to its registered spelling.

        Table names are mixed-case (``"K23-ultra"``, ``"SUD"``) but CLI
        users type lowercase; ``canonical("k23-ultra")`` returns
        ``"K23-ultra"``.  Unknown names raise
        :class:`UnknownMechanismError` naming every valid mechanism.
        """
        if name in self._specs:
            return name
        lowered = name.lower()
        for registered in self._specs:
            if registered.lower() == lowered:
                return registered
        raise UnknownMechanismError(name, self.names())

    def specs(self) -> Tuple[MechanismSpec, ...]:
        return tuple(self._specs.values())

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[MechanismSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def needs_offline(self, name: str) -> bool:
        return self.get(name).needs_offline

    # -- construction ---------------------------------------------------------

    def create(self, name: str, kernel, hook: Optional[SyscallHook] = None,
               install: bool = True) -> Interposer:
        """Instantiate mechanism *name* on *kernel*.

        With *install* (the default) the interposer governs subsequently
        spawned processes, mirroring how each real mechanism injects
        itself.  Unknown names raise :class:`UnknownMechanismError` naming
        every valid mechanism.
        """
        spec = self.get(name)
        factory = spec.resolve_factory()
        interposer = factory(kernel, hook=hook, **dict(spec.kwargs))
        return interposer.install() if install else interposer

    def describe(self) -> str:
        """Human-readable catalogue (for CLI ``--list`` output)."""
        lines = []
        for spec in self:
            flags = []
            if spec.needs_offline:
                flags.append("offline-phase")
            if spec.arms_sud:
                flags.append("SUD-armed")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"{spec.name:<22} {spec.description}{suffix}")
        return "\n".join(lines)


#: The process-wide registry, pre-populated with the paper's comparison set.
REGISTRY = MechanismRegistry()


def _register_defaults() -> None:
    register = REGISTRY.register
    register(MechanismSpec(
        name="native",
        factory="repro.interposers.null_interposer:NullInterposer",
        family="native",
        description="no interposition — the baseline every table divides by"))
    register(MechanismSpec(
        name="zpoline-default",
        factory="repro.interposers.zpoline:ZpolineInterposer",
        kwargs=(("variant", "default"),),
        family="zpoline", variant="default",
        description="load-time static rewriting, no hardening"))
    register(MechanismSpec(
        name="zpoline-ultra",
        factory="repro.interposers.zpoline:ZpolineInterposer",
        kwargs=(("variant", "ultra"),),
        family="zpoline", variant="ultra",
        description="zpoline plus the bitmap NULL-execution check"))
    register(MechanismSpec(
        name="lazypoline",
        factory="repro.interposers.lazypoline:LazypolineInterposer",
        family="lazypoline", arms_sud=True,
        description="SUD-discovery runtime rewriting"))
    register(MechanismSpec(
        name="K23-default",
        factory="repro.core.k23:K23Interposer",
        kwargs=(("variant", "default"),),
        family="K23", variant="default", needs_offline=True, arms_sud=True,
        description="offline-validated selective rewrite + SUD fallback"))
    register(MechanismSpec(
        name="K23-ultra",
        factory="repro.core.k23:K23Interposer",
        kwargs=(("variant", "ultra"),),
        family="K23", variant="ultra", needs_offline=True, arms_sud=True,
        description="K23 plus the hash-set NULL-execution check"))
    register(MechanismSpec(
        name="K23-ultra+",
        factory="repro.core.k23:K23Interposer",
        kwargs=(("variant", "ultra+"),),
        family="K23", variant="ultra+", needs_offline=True, arms_sud=True,
        description="K23-ultra plus the dedicated-stack switch"))
    register(MechanismSpec(
        name="SUD-no-interposition",
        factory="repro.interposers.sud_interposer:SudInterposer",
        kwargs=(("interpose", False),),
        family="SUD", variant="no-interposition", arms_sud=True,
        description="SUD armed with an ALLOW selector — the slow-path floor"))
    register(MechanismSpec(
        name="SUD",
        factory="repro.interposers.sud_interposer:SudInterposer",
        kwargs=(("interpose", True),),
        family="SUD", variant=None, arms_sud=True,
        description="pure SUD interposition via SIGSYS"))


_register_defaults()
