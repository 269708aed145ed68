"""Property: the inlined-draw schedule generator matches the reference
loop that calls ``randrange``, ``expovariate``, ``lognormvariate`` and
``paretovariate`` — same digest, same name tables — over arrival
process, weight tables, connection and server counts and request
count."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.traffic.config import ARRIVALS, REQUEST_KINDS, TrafficConfig
from repro.traffic.schedule import generate_schedule
from tests.traffic.test_schedule import reference_schedule

# Small weights reach the bounds where the rejection loop is easiest to
# get wrong: totals of 1 and of powers of two.
WEIGHTS = st.integers(min_value=1, max_value=17)


@st.composite
def configs(draw):
    tenants = tuple((f"t{i}", draw(WEIGHTS))
                    for i in range(draw(st.integers(1, 3))))
    kinds = draw(st.lists(st.sampled_from(REQUEST_KINDS), min_size=1,
                          max_size=len(REQUEST_KINDS), unique=True))
    mix = tuple((kind, draw(WEIGHTS)) for kind in kinds)
    # A tenant-scoped override for the first tenant, sometimes.
    if draw(st.booleans()):
        mix += ((f"t0:{kinds[0]}", draw(WEIGHTS)),)
    servers = draw(st.integers(1, 5))
    connections = draw(st.one_of(
        st.integers(servers, 70),
        st.sampled_from([c for c in (1, 2, 4, 64, 2048) if c >= servers])))
    return TrafficConfig(
        requests=draw(st.integers(1, 400)),
        rate=draw(st.integers(1_000, 500_000)),
        arrival=draw(st.sampled_from(ARRIVALS)),
        servers=servers, connections=connections,
        tenants=tenants, mix=mix,
        ramp=tuple(draw(st.lists(st.integers(1, 32), min_size=1,
                                 max_size=6))))


@given(configs(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_generator_matches_reference(config, seed):
    schedule = generate_schedule(config, seed)
    assert (schedule.digest(), schedule.tenant_names,
            schedule.kind_names) == reference_schedule(config, seed)
