"""Differential tests: the dyadic-integer exact ledger sums against a
plain ``fractions.Fraction`` reference.

``Resource.exact_busy_seconds``, ``Resource.exact_busy_by_job`` and
``ResourcePool.exact_untagged_seconds`` accumulate float durations as
integer counts of 2**-1074 units.  Every assertion here compares them by
value with ``sum(Fraction(d) for ...)`` — the definition the SCD003
conservation rule relies on — over generated ledgers (zeros, subnormals,
values near the float maximum, heavy repeats, untagged entries) and
over the real ledgers of one certifier battery cell.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import Resource, ResourcePool

SPECIALS = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308,
            sys.float_info.min, sys.float_info.max,
            sys.float_info.max / 3, 0.1, 1.0, 3.0e-6, 1 / 3]

durations = st.one_of(
    st.sampled_from(SPECIALS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
jobs = st.one_of(st.none(), st.integers(min_value=0, max_value=5))


@st.composite
def ledgers(draw, max_size=200):
    """``(job, duration)`` entries drawn from a small pool, so that most
    entries repeat (as on real fleet ledgers)."""
    pool = draw(st.lists(st.tuples(jobs, durations), min_size=1,
                         max_size=12))
    return draw(st.lists(st.sampled_from(pool), max_size=max_size))


def ref_total(ledger):
    return sum((Fraction(d) for _, d in ledger), Fraction(0))


def ref_by_job(ledger):
    by_job = {}
    for job, duration in ledger:
        by_job[job] = by_job.get(job, Fraction(0)) + Fraction(duration)
    return by_job


def audited(ledger, name="link"):
    resource = Resource(name, audit=True)
    for job, duration in ledger:
        resource.schedule(0.0, duration, job=job)
    return resource


def assert_matches_reference(resource):
    ledger = resource.ledger
    total = resource.exact_busy_seconds()
    by_job = resource.exact_busy_by_job()
    assert isinstance(total, Fraction)
    assert total == ref_total(ledger)
    reference = ref_by_job(ledger)
    assert by_job == reference
    assert list(by_job) == list(reference)   # first-appearance order
    assert all(isinstance(v, Fraction) for v in by_job.values())


@settings(max_examples=150, deadline=None)
@given(ledgers())
def test_resource_exact_sums_match_fraction_reference(ledger):
    assert_matches_reference(audited(ledger))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), jobs, durations),
                max_size=120))
def test_pool_exact_accessors_match_fraction_reference(entries):
    pool = ResourcePool(audit=True)
    for name, job, duration in entries:
        pool.get(name).schedule(0.0, duration, job=job)
    exact = pool.exact_busy_seconds()
    untagged = pool.exact_untagged_seconds()
    for name, resource in pool.resources().items():
        assert exact[name] == ref_total(resource.ledger)
        want = ref_by_job(resource.ledger).get(None, Fraction(0))
        assert untagged.get(name, Fraction(0)) == want
        assert (name in untagged) == bool(want)


def test_extreme_values_sum_exactly():
    tiny, huge = 5e-324, sys.float_info.max
    resource = audited([(1, tiny)] * 1000 + [(None, huge)] * 3
                       + [(2, 0.0), (1, 0.1)])
    assert_matches_reference(resource)
    by_job = resource.exact_busy_by_job()
    assert by_job[1] == 1000 * Fraction(tiny) + Fraction(0.1)
    assert by_job[None] == 3 * Fraction(huge)   # no float overflow
    assert by_job[2] == 0


def test_empty_and_unaudited_ledgers():
    assert Resource("idle", audit=True).exact_busy_seconds() == 0
    assert Resource("idle", audit=True).exact_busy_by_job() == {}
    bare = Resource("bare")
    bare.schedule(0.0, 1.0, job=1)
    for accessor in (bare.exact_busy_seconds, bare.exact_busy_by_job,
                     bare.replay_float_accumulation):
        with pytest.raises(RuntimeError, match="enable_audit"):
            accessor()


def test_battery_cell_ledgers_match_fraction_reference():
    from repro.sched.battery import fleet_cases, run_fleet_case

    case = next(c for c in fleet_cases() if c.name == "scale-32")
    pool = run_fleet_case(case).network.pool
    resources = pool.resources()
    assert sum(len(r.ledger) for r in resources.values()) > 10_000
    for resource in resources.values():
        assert_matches_reference(resource)
    assert pool.exact_untagged_seconds() == {}
