"""The per-grid 3-point stencil table: every formula that reads it against
the same formula written inline on the nodes, on the full grid, on the
Pohozaev window and on a uniform line; the table's sharing across reports;
and reports that do not depend on whether the table existed already."""

import json

import numpy as np
import pytest

import qcurv.potential
from qcurv import (
    Polynomial,
    RadialField,
    SolverConfig,
    build_report,
    constants,
    make_grid,
    radial_polyharmonic,
    solve_continuation,
)
from qcurv.geometry import _polyharmonic_valid_nodes
from qcurv.potential import _STENCIL_FACTORS, stencil_table

GRIDS = [(m, kind) for m in range(2, 7) for kind in ("uniform", "sinh-clustered")]


# ----------------------------------------------------------------------
# the formulas written inline on the nodes
# ----------------------------------------------------------------------
def _interior(nodes, values):
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    fm, f0, fp = values[:-2], values[1:-1], values[2:]
    denom = hm * hp * (hm + hp)
    d1 = (hm**2 * fp - hp**2 * fm + (hp**2 - hm**2) * f0) / denom
    d2 = 2.0 * (hm * fp + hp * fm - (hm + hp) * f0) / denom
    return d1, d2


def _d1_inline(nodes, values):
    out = np.empty_like(values)
    out[1:-1] = _interior(nodes, values)[0]
    out[0] = 0.0
    out[-1] = (values[-1] - values[-2]) / (nodes[-1] - nodes[-2])
    return out


def _d2_inline(nodes, values):
    out = np.empty_like(values)
    out[1:-1] = _interior(nodes, values)[1]
    out[0] = 2.0 * (values[1] - values[0]) / nodes[1] ** 2
    out[-1] = out[-2]
    return out


def _lap_interior_inline(nodes, values, n):
    out = np.zeros_like(values)
    d1, d2 = _interior(nodes, values)
    out[1:-1] = d2 + (n - 1) / nodes[1:-1] * d1
    return out


def _lap_radial_inline(nodes, values, n):
    out = _lap_interior_inline(nodes, values, n)
    a = 2.0 * (values[1] - values[0]) / nodes[1] ** 2
    b = 2.0 * (values[2] - values[0]) / nodes[2] ** 2
    out[0] = n * a + (n - 1) / 3.0 * (b - a)
    return out


def _valid_after_spreading(node_count, k):
    """The nodes a k-fold composition keeps, by spreading an all-valid
    mask one stencil at a time: each step loses the outermost node, and
    k >= 2 also drops the first k - 1 nodes."""
    valid = np.ones(node_count, dtype=bool)
    for _ in range(k):
        spread = np.empty_like(valid)
        spread[1:-1] = valid[:-2] & valid[1:-1] & valid[2:]
        spread[0] = valid[0] & valid[1] & valid[2]
        spread[-1] = False
        valid = spread
    valid[: k - 1] = False
    return valid


def _grid_and_values(m, kind):
    grid = make_grid(m, 40.0, 256, map_kind=kind)
    values = np.random.default_rng(m).normal(size=grid.nodes.shape)
    return grid, values


# ----------------------------------------------------------------------
# bit-identity with the inline formulas
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m, kind", GRIDS)
def test_stencils_on_the_full_grid_match_their_inline_formulas(m, kind):
    grid, values = _grid_and_values(m, kind)
    nodes, n, st = grid.nodes, grid.n, grid.stencil
    np.testing.assert_array_equal(st.d1(values), _d1_inline(nodes, values))
    np.testing.assert_array_equal(st.d2(values), _d2_inline(nodes, values))
    np.testing.assert_array_equal(
        st.laplacian(values), _lap_interior_inline(nodes, values, n)
    )
    np.testing.assert_array_equal(
        st.laplacian(values, origin=True), _lap_radial_inline(nodes, values, n)
    )
    field = RadialField(grid=grid, values=values)
    expected = values
    for k in range(1, m + 1):
        expected = -_lap_radial_inline(nodes, expected, n)
        got = radial_polyharmonic(field, k)
        keep = np.zeros(len(nodes), dtype=bool)
        keep[_polyharmonic_valid_nodes(len(nodes), k)] = True
        np.testing.assert_array_equal(keep, _valid_after_spreading(len(nodes), k))
        # The zeroed ends are exactly the complement of the kept nodes.
        np.testing.assert_array_equal(got.values == 0.0, ~keep)
        np.testing.assert_array_equal(got.values[keep], expected[keep])


@pytest.mark.parametrize("R", [3.0, 20.0])
@pytest.mark.parametrize("m, kind", GRIDS)
def test_stencils_on_the_pohozaev_window_match_their_inline_formulas(m, kind, R):
    grid, values = _grid_and_values(m, kind)
    idx = grid.nearest_index(R)
    lo, hi = idx - (m + 2), idx + m + 3
    window = grid.stencil.window(lo, hi)
    nodes, part = grid.nodes[lo:hi], values[lo:hi]
    np.testing.assert_array_equal(window.nodes, nodes)
    np.testing.assert_array_equal(window.d1(part), _d1_inline(nodes, part))
    np.testing.assert_array_equal(window.d2(part), _d2_inline(nodes, part))
    np.testing.assert_array_equal(
        window.laplacian(part), _lap_interior_inline(nodes, part, grid.n)
    )


@pytest.mark.parametrize("m", range(2, 7))
def test_stencils_on_a_uniform_line_match_their_inline_formulas(m):
    n, step, rho0 = 2 * m, 1e-3, 0.7
    for k in range(1, m + 1):
        nodes = rho0 + step * np.arange(-k, k + 1, dtype=float)
        values = np.exp(-nodes * nodes) + nodes**3
        table = stencil_table(nodes, n)
        np.testing.assert_array_equal(
            table.laplacian(values), _lap_interior_inline(nodes, values, n)
        )
        composed, expected = values, values
        for _ in range(k):
            composed = table.laplacian(composed)
            expected = _lap_interior_inline(nodes, expected, n)
        assert composed[k] == expected[k]


# ----------------------------------------------------------------------
# one read-only table per grid
# ----------------------------------------------------------------------
def _solve_on_a_grid_of_its_own(r_max):
    """A solve whose (m, r_max, N) grid no other test builds, so its
    discretization is fresh and has no stencil table yet."""
    m = 2
    return solve_continuation(
        SolverConfig(
            m=m,
            sign=1,
            volume=0.5 * constants(m).vol_sphere,
            profile=Polynomial.from_text(
                " + ".join(f"1.0 * x{i}^2" for i in range(1, 2 * m + 1))
            ),
            r_max=r_max,
            n_intervals=512,
        )
    )


@pytest.fixture
def table_builds(monkeypatch):
    """The dimensions of the stencil tables built while the test runs."""
    calls = []
    build = qcurv.potential.stencil_table

    def counted(nodes, n):
        calls.append(n)
        return build(nodes, n)

    monkeypatch.setattr(qcurv.potential, "stencil_table", counted)
    return calls


def test_stencil_table_is_read_only_and_built_once_per_grid(table_builds):
    record = _solve_on_a_grid_of_its_own(41.25)
    assert table_builds == []
    build_report(record)
    build_report(record)
    assert table_builds == [record.grid.n]
    table = record.grid.stencil
    for name in ("nodes",) + _STENCIL_FACTORS:
        array = getattr(table, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    window = table.window(10, 20)
    assert not window.hm.flags.writeable


def test_report_on_a_fresh_grid_equals_one_on_a_grid_with_its_table(table_builds):
    fresh = _solve_on_a_grid_of_its_own(41.5)
    first = json.dumps(build_report(fresh).to_json_dict())
    assert len(table_builds) == 1  # built during the first report
    again = solve_continuation(fresh.config)
    assert again.grid is fresh.grid
    second = json.dumps(build_report(again).to_json_dict())
    assert len(table_builds) == 1
    assert first == second
