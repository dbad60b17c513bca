"""The per-grid 3-point stencil table: every formula that reads it against
the same formula written inline on the nodes, on the full grid, on the
Pohozaev window and on a uniform line; the origin rule of the composed
operator against its formula; the table's sharing across reports; and
reports that do not depend on whether the table existed already.

The table applies each stencil in difference form, c_-(f_{i-1} - f_i) +
c_+(f_{i+1} - f_i), and the inline formulas are the plain three-term
forms, so the two agree to rounding, not bit for bit.  Both are taken on
the same computed spacings hm, hp.  Counting roundings along the longest
path of any one term, a single stencil is within 12 u (u = eps / 2) of
its exact value on those spacings, relative to the absolute stencil
|c_-|(|f_{i-1}| + |f_i|) + |c_+|(|f_{i+1}| + |f_i|) (for the Laplacian
with |c| = |c''| + (n-1)/r |c'|): the inline f' takes 9 roundings, the
inline Laplacian 12 and the table's coefficient plus its application 9.
The origin rule takes 6 on each side.  So one stencil's two forms differ
by at most 24 u = 12 eps times the absolute stencil of |f|, and k composed
stencils by at most 12 k eps times the k-fold absolute stencil of |f|.
The origin rule itself is the same formula in both, so it agrees bit for
bit.
"""

import json

import numpy as np
import pytest

import qcurv.diagnostics
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
from qcurv.diagnostics import _STENCIL_ROWS, _polyharmonic_valid_nodes, stencil_table

GRIDS = [(m, kind) for m in range(2, 7) for kind in ("uniform", "sinh-clustered")]
EPS = np.finfo(float).eps


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


def _lap_interior_inline(nodes, values, n):
    out = np.zeros_like(values)
    d1, d2 = _interior(nodes, values)
    out[1:-1] = d2 + (n - 1) / nodes[1:-1] * d1
    return out


def _origin_value(nodes, values, n):
    """Delta f(0) by the origin rule n a + (n - 1)/3 (b - a), with a and b
    the secants 2 (f_i - f_0) / r_i^2 of the two leading nodes, along the
    last axis."""
    a = 2.0 * (values[..., 1] - values[..., 0]) / nodes[1] ** 2
    b = 2.0 * (values[..., 2] - values[..., 0]) / nodes[2] ** 2
    return n * a + (n - 1) / 3.0 * (b - a)


def _lap_radial_inline(nodes, values, n):
    out = _lap_interior_inline(nodes, values, n)
    out[0] = _origin_value(nodes, values, n)
    return out


def _abs_rows(nodes, n):
    """|c_-| and |c_+| of f' and of the Laplacian (|c''| + (n-1)/r |c'|)
    on the computed spacings, for the rounding bounds."""
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    hs = hm + hp
    d1 = (hp / (hm * hs), hm / (hp * hs))
    d2 = (2.0 / (hm * hs), 2.0 / (hp * hs))
    radial = (n - 1) / nodes[1:-1]
    return d1, (d2[0] + radial * d1[0], d2[1] + radial * d1[1])


def _abs_stencil(rows, size):
    """The absolute stencil of ``size`` on the interior nodes, 0 at the ends."""
    out = np.zeros_like(size)
    out[1:-1] = rows[0] * (size[:-2] + size[1:-1]) + rows[1] * (size[2:] + size[1:-1])
    return out


def _abs_radial_laplacian(nodes, size, n):
    """The absolute Laplacian with the origin rule's absolute value at 0."""
    out = _abs_stencil(_abs_rows(nodes, n)[1], size)
    a = 2.0 * (size[1] + size[0]) / nodes[1] ** 2
    b = 2.0 * (size[2] + size[0]) / nodes[2] ** 2
    out[0] = n * a + (n - 1) / 3.0 * (a + b)
    return out


def _assert_within(got, expected, bound):
    excess = np.abs(got - expected) - bound
    assert np.all(excess <= 0.0), f"worst excess {excess.max():.3e}"


def _assert_single_stencils_agree(table, nodes, values, n):
    """d1 and the interior Laplacian of ``table`` against the inline
    formulas on ``nodes``, within 12 eps of the absolute stencils; the end
    entries, which both take from the same formula, exactly."""
    d1_rows, lap_rows = _abs_rows(nodes, n)
    size = np.abs(values)
    for got, expected, rows in (
        (table.d1(values), _d1_inline(nodes, values), d1_rows),
        (table.laplacian(values), _lap_interior_inline(nodes, values, n), lap_rows),
    ):
        bound = 12 * EPS * _abs_stencil(rows, size)
        _assert_within(got[1:-1], expected[1:-1], bound[1:-1])
        assert got[0] == expected[0]
    assert table.d1(values)[-1] == _d1_inline(nodes, values)[-1]


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


def _grid_table(grid):
    """The grid's table, as the checks' per-grid layout holds it."""
    return qcurv.diagnostics._layout(grid).stencil()


def _grid_and_values(m, kind):
    grid = make_grid(m, 40.0, 256, map_kind=kind)
    values = np.random.default_rng(m).normal(size=grid.nodes.shape)
    return grid, values


# ----------------------------------------------------------------------
# agreement with the inline formulas
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m, kind", GRIDS)
def test_stencils_on_the_full_grid_match_their_inline_formulas(m, kind):
    grid, values = _grid_and_values(m, kind)
    nodes, n, st = grid.nodes, grid.n, _grid_table(grid)
    _assert_single_stencils_agree(st, nodes, values, n)
    field = RadialField(grid=grid, values=values)
    # The origin value of (-Delta) f is the rule's formula, bit for bit.
    assert radial_polyharmonic(field, 1).values[0] == -_origin_value(nodes, values, n)
    expected, size, chained = values, np.abs(values), values
    for k in range(1, m + 1):
        expected = -_lap_radial_inline(nodes, expected, n)
        size = _abs_radial_laplacian(nodes, size, n)
        # The table's Laplacian with the origin rule's formula at r = 0.
        origin = _origin_value(nodes, chained, n)
        chained = st.laplacian(chained)
        chained[0] = origin
        chained = -chained
        got = radial_polyharmonic(field, k)
        keep = np.zeros(len(nodes), dtype=bool)
        keep[_polyharmonic_valid_nodes(len(nodes), k)] = True
        np.testing.assert_array_equal(keep, _valid_after_spreading(len(nodes), k))
        # The zeroed ends are exactly the complement of the kept nodes.
        np.testing.assert_array_equal(got.values == 0.0, ~keep)
        np.testing.assert_array_equal(got.values[keep], chained[keep])
        _assert_within(got.values[keep], expected[keep], 12 * k * EPS * size[keep])


@pytest.mark.parametrize("R", [3.0, 20.0])
@pytest.mark.parametrize("m, kind", GRIDS)
def test_stencils_on_the_pohozaev_window_match_their_inline_formulas(m, kind, R):
    grid, values = _grid_and_values(m, kind)
    idx = grid.nearest_index(R)
    lo, hi = idx - (m + 2), idx + m + 3
    nodes, part = grid.nodes[lo:hi], values[lo:hi]
    window = stencil_table(nodes, grid.n)
    _assert_single_stencils_agree(window, nodes, part, grid.n)
    # The window's rows are the full table's at the same nodes, bit for bit.
    full = _grid_table(grid)
    for name in _STENCIL_ROWS:
        np.testing.assert_array_equal(
            getattr(window, name), getattr(full, name)[:, lo : hi - 2]
        )
    np.testing.assert_array_equal(
        window.d1(part)[1:-1], full.d1(values)[lo + 1 : hi - 1]
    )


@pytest.mark.parametrize("m", range(2, 7))
def test_stencils_on_a_uniform_line_match_their_inline_formulas(m):
    n, step, rho0 = 2 * m, 1e-3, 0.7
    for k in range(1, m + 1):
        nodes = rho0 + step * np.arange(-k, k + 1, dtype=float)
        values = np.exp(-nodes * nodes) + nodes**3
        table = stencil_table(nodes, n)
        _assert_single_stencils_agree(table, nodes, values, n)
        lap_rows = _abs_rows(nodes, n)[1]
        composed, expected, size = values, values, np.abs(values)
        for _ in range(k):
            composed = table.laplacian(composed)
            expected = _lap_interior_inline(nodes, expected, n)
            size = _abs_stencil(lap_rows, size)
        assert abs(composed[k] - expected[k]) <= 12 * k * EPS * size[k]


@pytest.mark.parametrize("m, kind", GRIDS)
def test_stencils_on_a_stack_of_fields_match_each_field_alone(m, kind):
    # The Pohozaev functional runs its chain on a stack of unit vectors at
    # once; each row must come out as that field would alone.
    grid, _ = _grid_and_values(m, kind)
    stack = np.random.default_rng(m + 10).normal(size=(3, len(grid.nodes)))
    st = _grid_table(grid)
    for method in (st.d1, st.laplacian):
        rows = method(stack)
        for field, row in zip(stack, rows):
            np.testing.assert_array_equal(row, method(field))
    # The origin rule, taken on the whole stack, is each field's origin
    # value of (-Delta) f, bit for bit.
    origins = _origin_value(grid.nodes, stack, grid.n)
    for field, origin in zip(stack, origins):
        got = radial_polyharmonic(RadialField(grid=grid, values=field), 1)
        assert got.values[0] == -origin


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
    """The (node count, dimension) of each stencil table built while the
    test runs: a grid's full table and its Pohozaev window's."""
    calls = []
    build = qcurv.diagnostics.stencil_table

    def counted(nodes, n):
        calls.append((len(nodes), n))
        return build(nodes, n)

    monkeypatch.setattr(qcurv.diagnostics, "stencil_table", counted)
    return calls


def test_stencil_table_is_read_only_and_built_once_per_grid(table_builds):
    record = _solve_on_a_grid_of_its_own(41.25)
    assert table_builds == []
    build_report(record)
    build_report(record)
    n, m = record.grid.n, record.grid.m
    assert sorted(table_builds) == [(2 * m + 3, n), (len(record.grid.nodes), n)]
    window = stencil_table(record.grid.nodes[10:20], n)
    for table in (_grid_table(record.grid), window):
        for name in ("nodes",) + _STENCIL_ROWS:
            array = getattr(table, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


def test_report_on_a_fresh_grid_equals_one_on_a_grid_with_its_table(table_builds):
    fresh = _solve_on_a_grid_of_its_own(41.5)
    first = json.dumps(build_report(fresh).to_json_dict())
    assert len(table_builds) == 2  # the grid's and the window's, in the first report
    again = solve_continuation(fresh.config)
    assert again.grid is fresh.grid
    second = json.dumps(build_report(again).to_json_dict())
    assert len(table_builds) == 2
    assert first == second
