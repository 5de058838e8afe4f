"""Set cover gadget: structure, tight radius-one equivalence, larger radii."""

import pytest

from lkcds.hardness import (
    BACKWARD_ONLY,
    hardness_instance,
    hardness_sweep,
    random_setcover,
)
from lkcds.oracles import SetCoverInstance, exact_cds, exact_setcover


def small_instance():
    return SetCoverInstance(3, ((0, 1), (1, 2), (2,)), 2)


def test_gadget_structure():
    sc = small_instance()
    hi = hardness_instance(sc, 1)
    m, n = len(sc.sets), sc.universe_size
    assert hi.pre_graph.n == m + n + 2
    guard, pendant = m + n, m + n + 1
    assert hi.roles[guard] == "guard" and hi.roles[pendant] == "pendant"
    # guard adjacent to every set vertex plus the pendant only
    assert hi.pre_graph.adj[guard] == (0, 1, 2, pendant)
    # incidence edges follow the sets
    assert hi.pre_graph.adj[0] == (m + 0, m + 1, guard)
    assert hi.k_out == sc.k + 1 and hi.offset == 1


def test_radius_one_is_identity_subdivision():
    sc = small_instance()
    hi = hardness_instance(sc, 1)
    assert hi.graph == hi.pre_graph
    assert all(role != "subdivision" for role in hi.roles.values())


def test_larger_radius_subdivides():
    sc = small_instance()
    hi = hardness_instance(sc, 2)
    assert hi.regime == BACKWARD_ONLY
    assert hi.graph.n == hi.pre_graph.n + hi.pre_graph.m  # one interior per edge
    assert sum(1 for role in hi.roles.values() if role == "subdivision") == hi.pre_graph.m


def test_positive_transfer():
    # a cover of size 2 plus the guard dominates and connects
    sc = small_instance()
    hi = hardness_instance(sc, 1)
    cov = exact_setcover(sc)
    assert cov.found and len(cov.solution) <= sc.k
    cds = exact_cds(hi.graph, 1, hi.k_out)
    assert cds.found
    assert cds.value <= len(cov.solution) + 1


def test_negative_transfer():
    # two disjoint singletons cannot be covered with one set
    sc = SetCoverInstance(2, ((0,), (1,)), 1)
    assert not exact_setcover(sc).found
    hi = hardness_instance(sc, 1)
    assert not exact_cds(hi.graph, 1, hi.k_out).found


def test_uncoverable_element_disconnects():
    sc = SetCoverInstance(2, ((0,),), 1)  # element 1 in no set
    hi = hardness_instance(sc, 1)
    assert not hi.graph.is_connected()
    assert exact_cds(hi.graph, 1, hi.k_out).status == "infeasible"


def test_radius_one_equivalence_sample():
    rows = hardness_sweep(range(40), 1)
    assert len(rows) == 40
    for row in rows:
        assert row.forward_ok, row
        assert row.backward_ok, row
    # the sample must exercise both answers
    assert any(r.cover_found for r in rows)
    assert any(not r.cover_found for r in rows)


def test_radius_two_backward_direction_holds():
    # a cheap dominating set still recovers a cover after subdivision
    rows = hardness_sweep(range(25), 2)
    for row in rows:
        assert row.backward_ok, row


def test_random_setcover_is_seeded():
    assert random_setcover(5) == random_setcover(5)
    assert random_setcover(5) != random_setcover(6)
    sc = random_setcover(123)
    assert 1 <= sc.universe_size <= 8
    assert 1 <= len(sc.sets) <= 8
    for s in sc.sets:
        assert all(0 <= e < sc.universe_size for e in s)


def test_rejects_bad_radius():
    with pytest.raises(ValueError):
        hardness_instance(small_instance(), 0)
