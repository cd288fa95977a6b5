"""Wiring topology: distances, paths, taps."""

import pytest

from repro.powergrid.topology import GridTopology, Outlet


def _toy_grid():
    """Board - j0 - j1 bus with one outlet per junction and a stub branch."""
    g = GridTopology()
    g.add_outlet(Outlet("board", (0, 0), "board", is_board=True))
    g.add_outlet(Outlet("j0", (5, 0), "board"))
    g.add_outlet(Outlet("j1", (10, 0), "board"))
    g.add_outlet(Outlet("o0", (5, 2), "board"))
    g.add_outlet(Outlet("o1", (10, 2), "board"))
    g.add_outlet(Outlet("stub", (7, 3), "board"))
    g.add_cable("board", "j0", 5.0)
    g.add_cable("j0", "j1", 5.0)
    g.add_cable("j0", "o0", 2.0)
    g.add_cable("j1", "o1", 2.0)
    g.add_cable("j0", "stub", 3.0)
    return g


def test_duplicate_outlet_rejected():
    g = GridTopology()
    g.add_outlet(Outlet("a", (0, 0), "b"))
    with pytest.raises(ValueError):
        g.add_outlet(Outlet("a", (1, 1), "b"))


def test_cable_validation():
    g = _toy_grid()
    with pytest.raises(ValueError):
        g.add_cable("j0", "j1", 0.0)
    with pytest.raises(KeyError):
        g.add_cable("j0", "missing", 3.0)


def test_electrical_distance_follows_cables():
    g = _toy_grid()
    assert g.electrical_distance("o0", "o1") == 2.0 + 5.0 + 2.0
    assert g.electrical_distance("board", "o1") == 5.0 + 5.0 + 2.0


def test_signal_path_sequence():
    g = _toy_grid()
    assert g.signal_path("o0", "o1") == ["o0", "j0", "j1", "o1"]


def test_tap_branches_finds_off_path_stubs():
    g = _toy_grid()
    branches = g.tap_branches("o0", "o1")
    ends = {b.end_outlet: b for b in branches}
    assert "stub" in ends
    assert ends["stub"].branch_length == 3.0
    assert ends["stub"].junction == "j0"
    # The board hangs off j0 too.
    assert "board" in ends


def test_tap_branches_respects_max_length():
    g = _toy_grid()
    branches = g.tap_branches("o0", "o1", max_branch_length=2.5)
    ends = {b.end_outlet for b in branches}
    assert "stub" not in ends


def test_degree_counts_junction_order():
    g = _toy_grid()
    assert g.degree("j0") == 4
    assert g.degree("o0") == 1


def test_distance_along_path_is_cumulative():
    g = _toy_grid()
    path = g.signal_path("o0", "o1")
    dist = g.distance_along_path(path)
    assert dist == [0.0, 2.0, 7.0, 9.0]
