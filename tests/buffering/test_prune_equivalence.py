"""The staircase prune is exactly the greedy quadratic dominance prune.

``reference_prune`` below is the straightforward definition: sort by
``(cap, -req, tau)``, keep a candidate unless an option kept before it
dominates it (:meth:`Option.dominates`, absolute 1e-12 tolerance on every
axis), then downsample evenly along the cap axis past ``max_options``.
``VanGinnekenInserter._prune`` must return the very same objects in the very
same order, including on exact duplicates and on near-ties within the
tolerance, where dominance is not transitive and the greedy order decides.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffering.vanginneken import Option, VanGinnekenInserter
from repro.cts import ispd09_buffer_library

COMPOSITE = ispd09_buffer_library().by_name("INV_S").parallel(8)


def reference_prune(options, max_options):
    if len(options) <= 1:
        return options
    ordered = sorted(options, key=lambda o: (o.cap, -o.req, o.tau))
    kept = []
    for candidate in ordered:
        if any(existing.dominates(candidate) for existing in kept):
            continue
        kept.append(candidate)
    if len(kept) > max_options:
        step = (len(kept) - 1) / (max_options - 1)
        indices = sorted({round(i * step) for i in range(max_options)})
        kept = [kept[i] for i in indices]
    return kept


def assert_same_prune(options, max_options):
    expected = reference_prune(options, max_options)
    actual = VanGinnekenInserter(COMPOSITE, max_options=max_options)._prune(options)
    assert [id(o) for o in actual] == [id(o) for o in expected]


def near(*bases):
    """Values on and around the tolerance boundaries of each base.

    Each base is stepped up and down by the 1e-12 tolerance three times,
    rounding every step exactly as the prune rounds ``x + 1e-12`` and
    ``x - 1e-12``, so candidates land exactly on a kept option's
    thresholds; half steps land strictly inside the band.
    """
    values = []
    for base in bases:
        values += [base, base + 5e-13, base - 5e-13]
        up = down = base
        for _ in range(3):
            up += 1e-12
            down -= 1e-12
            values += [up, down]
    return st.sampled_from(values)


def option(cap, req, tau):
    return st.tuples(cap, req, tau).map(lambda fields: Option(*fields))


#: Values on a coarse grid, each nudged by a near-tie offset.
GRID_OPTION = option(
    near(0.0, 1.0, 2.0, 10.0),
    near(-30.0, -20.0, -10.0, 0.0),
    st.one_of(st.just(0.0), near(0.0, 1.0, 5.0)),
)

#: Every option within a few tolerance steps of one point.
TIGHT_OPTION = option(near(1.0), near(-10.0), near(0.0, 1.0))

#: Spread-out values, many of them buffered variants (``tau == 0``).
SPREAD_OPTION = option(
    st.floats(0.0, 500.0),
    st.floats(-1000.0, 0.0),
    st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
)

MAX_OPTIONS = st.sampled_from([4, 5, 8, 32])


@st.composite
def with_duplicates(draw, element):
    """A list plus equal-valued copies (distinct objects) of some entries."""
    options = draw(st.lists(element, max_size=60))
    copies = draw(st.lists(st.integers(0, 59), max_size=12))
    options += [Option(*options[i][:3]) for i in copies if i < len(options)]
    return draw(st.permutations(options))


@settings(max_examples=300, deadline=None)
@given(with_duplicates(GRID_OPTION), MAX_OPTIONS)
def test_prune_matches_reference_on_near_ties(options, max_options):
    assert_same_prune(options, max_options)


@settings(max_examples=200, deadline=None)
@given(with_duplicates(TIGHT_OPTION), MAX_OPTIONS)
def test_prune_matches_reference_within_one_tolerance_band(options, max_options):
    assert_same_prune(options, max_options)


@settings(max_examples=150, deadline=None)
@given(with_duplicates(SPREAD_OPTION), MAX_OPTIONS)
def test_prune_matches_reference_on_spread_options(options, max_options):
    assert_same_prune(options, max_options)


@settings(max_examples=50, deadline=None)
@given(st.lists(near(-5.0, -4.0), min_size=40, max_size=120), MAX_OPTIONS)
def test_prune_matches_reference_on_buffered_variants(reqs, max_options):
    # Buffered variants at one site all share cap (the buffer's input cap)
    # and tau == 0; only their required times differ.
    options = [Option(cap=COMPOSITE.input_cap, req=req, tau=0.0) for req in reqs]
    assert_same_prune(options, max_options)


def test_exact_duplicates_are_all_kept():
    options = [Option(cap=1.0, req=-2.0, tau=0.0) for _ in range(3)]
    kept = VanGinnekenInserter(COMPOSITE)._prune(options)
    assert [id(o) for o in kept] == [id(o) for o in options]


@pytest.mark.parametrize("axis", ["cap", "req", "tau"])
def test_a_difference_of_exactly_the_tolerance_is_not_strict(axis):
    # ``k`` is better than ``c`` on one axis by exactly one rounded
    # tolerance step and equal elsewhere: no strict improvement, both stay.
    c = Option(cap=1.0, req=-10.0, tau=1.0)
    fields = {"cap": 1.0 - 1e-12, "req": -10.0 + 1e-12, "tau": 1.0 - 1e-12}
    k = c._replace(**{axis: fields[axis]})
    assert not k.dominates(c)
    kept = VanGinnekenInserter(COMPOSITE)._prune([c, k])
    assert [id(o) for o in kept] == [id(k), id(c)]


def test_tolerance_chain_is_decided_greedily():
    # Within the tolerance dominance is not transitive: a dominates b and b
    # would dominate c, but a does not dominate c (c's tau is lower by more
    # than the tolerance).  b is dropped before c is looked at, so c stays.
    a = Option(cap=1.0, req=-10.0, tau=2e-12)
    b = Option(cap=1.0, req=-10.0 - 2e-12, tau=1e-12)
    c = Option(cap=1.0, req=-10.0 - 4e-12, tau=5e-13)
    assert a.dominates(b) and b.dominates(c) and not a.dominates(c)
    kept = VanGinnekenInserter(COMPOSITE)._prune([c, b, a])
    assert [id(o) for o in kept] == [id(a), id(c)]
