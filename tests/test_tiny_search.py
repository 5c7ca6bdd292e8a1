"""The pruned search finds the same first decomposition as plain
backtracking, ``None`` included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planedec import main_decomposer
from planedec.main_decomposer import decompose_21
from planedec.tiny_search import tiny_search

import instances


def _small_graphs():
    return [g for g in instances.face_test_graphs() if g.m <= 10]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_tiny_search_matches_plain_backtracking(data):
    graphs = _small_graphs()
    g = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    vs = list(g.vertices())
    caps = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    out_cap = dict(zip(vs, caps))
    forbid = set(data.draw(st.sets(st.sampled_from(vs))))
    edges = sorted(g.edges)
    assert tiny_search(edges, out_cap, forbid) == \
        instances.reference_tiny_search(edges, out_cap, forbid)


@pytest.mark.parametrize("L", range(5, 14))
def test_tiny_search_replays_the_3_by_L_ladder_inputs(L, monkeypatch):
    inputs = []

    def record(edges, out_cap, forbid_match):
        inputs.append((list(edges), dict(out_cap), set(forbid_match)))
        return tiny_search(edges, out_cap, forbid_match)

    monkeypatch.setattr(main_decomposer, "tiny_search", record)
    decompose_21(instances.grid(3, L))
    assert inputs
    for edges, out_cap, forbid in inputs:
        found = tiny_search(edges, out_cap, forbid)
        assert found is not None
        assert found == instances.reference_tiny_search(edges, out_cap, forbid)


def test_tiny_search_keeps_no_python_recursion():
    """A path of 3000 edges under cap 1 everywhere: the search goes 3000
    levels deep, far past the recursion limit."""
    n = 3001
    edges = [(v, v + 1) for v in range(1, n)]
    found = tiny_search(edges, dict.fromkeys(range(1, n + 1), 1), set())
    assert found is not None
    assert sorted(found.arcs) == edges and not found.matching
