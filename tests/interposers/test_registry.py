"""Mechanism-registry tests: ordering, construction, metadata, errors."""

import pytest

from repro.core.k23 import K23Interposer
from repro.interposers import (
    REGISTRY,
    MechanismRegistry,
    MechanismSpec,
    NullInterposer,
    SudInterposer,
    UnknownMechanismError,
    ZpolineInterposer,
)
from repro.kernel import Kernel

TABLE5_ORDER = (
    "native",
    "zpoline-default",
    "zpoline-ultra",
    "lazypoline",
    "K23-default",
    "K23-ultra",
    "K23-ultra+",
    "SUD-no-interposition",
    "SUD",
)


class TestCatalogue:
    def test_table5_order(self):
        assert REGISTRY.names() == TABLE5_ORDER

    def test_mechanisms_derived_from_registry(self):
        # The evaluation matrix reads the registry where it enumerates
        # mechanisms; no evaluation module keeps its own copy.
        from repro.evaluation import report, runner
        from repro.evaluation import pipeline as pipe

        assert (tuple(spec.mechanism for spec in pipe.micro_specs())
                == REGISTRY.names())
        for module in (runner, report):
            assert not hasattr(module, "MECHANISMS")

    def test_needs_offline_only_k23(self):
        offline = {name for name in REGISTRY.names()
                   if REGISTRY.needs_offline(name)}
        assert offline == {"K23-default", "K23-ultra", "K23-ultra+"}

    def test_sud_armed_flags(self):
        armed = {spec.name for spec in REGISTRY if spec.arms_sud}
        assert armed == {"lazypoline", "K23-default", "K23-ultra",
                         "K23-ultra+", "SUD-no-interposition", "SUD"}

    def test_hashset_check_only_on_ultra_variants(self):
        """Measured, not declared: only the K23 ultra variants charge the
        hash-set probe on the stress loop's per-call path."""
        from repro.cpu.cycles import Event
        from repro.evaluation.sensitivity import measured_decompositions

        with_check = {d.mechanism for d in measured_decompositions()
                      if Event.HASHSET_CHECK in d.rows}
        assert with_check == {"K23-ultra", "K23-ultra+"}

    def test_describe_lists_every_mechanism(self):
        text = REGISTRY.describe()
        for name in TABLE5_ORDER:
            assert name in text


class TestConstruction:
    def test_create_installs_by_default(self):
        kernel = Kernel(seed=3)
        interposer = REGISTRY.create("native", kernel)
        assert isinstance(interposer, NullInterposer)
        assert kernel.interposer is interposer

    def test_create_without_install(self):
        kernel = Kernel(seed=3)
        interposer = REGISTRY.create("zpoline-ultra", kernel, install=False)
        assert isinstance(interposer, ZpolineInterposer)
        assert interposer.variant == "ultra"
        assert kernel.interposer is not interposer

    def test_create_applies_variant_kwargs(self):
        kernel = Kernel(seed=3)
        k23 = REGISTRY.create("K23-ultra+", kernel, install=False)
        assert isinstance(k23, K23Interposer)
        assert k23.variant == "ultra+"
        sud = REGISTRY.create("SUD-no-interposition", kernel, install=False)
        assert isinstance(sud, SudInterposer)
        assert sud.interpose is False

    def test_create_passes_hook(self):
        events = []

        def hook(thread, nr, args, forward):
            events.append(nr)
            return forward()

        kernel = Kernel(seed=3)
        interposer = REGISTRY.create("SUD", kernel, hook=hook)
        assert interposer.hook is hook

    def test_unknown_name_lists_valid_mechanisms(self):
        with pytest.raises(UnknownMechanismError) as excinfo:
            REGISTRY.create("frobnicator", Kernel(seed=3))
        message = str(excinfo.value)
        assert "frobnicator" in message
        for name in TABLE5_ORDER:
            assert name in message

    def test_registry_create_delegates(self):
        kernel = Kernel(seed=3)
        interposer = REGISTRY.create("zpoline-default", kernel)
        assert isinstance(interposer, ZpolineInterposer)
        with pytest.raises(ValueError):
            REGISTRY.create("no-such-mechanism", Kernel(seed=3))


class TestMutation:
    def _registry_with_copy(self):
        registry = MechanismRegistry()
        for spec in REGISTRY:
            registry.register(spec)
        return registry

    def test_register_new_mechanism_appends(self):
        registry = self._registry_with_copy()
        registry.register(MechanismSpec(
            name="ptrace-everything",
            factory="repro.interposers.ptracer:PtraceInterposer",
            family="ptrace",
            description="ptrace from first instruction"))
        assert registry.names()[-1] == "ptrace-everything"
        kernel = Kernel(seed=3)
        interposer = registry.create("ptrace-everything", kernel,
                                     install=False)
        assert interposer.__class__.__name__ == "PtraceInterposer"

    def test_duplicate_registration_rejected(self):
        registry = self._registry_with_copy()
        with pytest.raises(ValueError):
            registry.register(MechanismSpec(
                name="SUD",
                factory="repro.interposers.sud_interposer:SudInterposer"))

    def test_replace_preserves_order(self):
        registry = self._registry_with_copy()
        replacement = MechanismSpec(
            name="lazypoline",
            factory="repro.interposers.lazypoline:LazypolineInterposer",
            description="replaced")
        registry.register(replacement, replace=True)
        assert registry.names() == TABLE5_ORDER
        assert registry.get("lazypoline").description == "replaced"

    def test_unregister(self):
        registry = self._registry_with_copy()
        registry.unregister("SUD")
        assert "SUD" not in registry
        with pytest.raises(UnknownMechanismError):
            registry.get("SUD")
