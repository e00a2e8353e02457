"""The batched sweep against the per-state functions it replaces, point by point.

``superq sweep`` evaluates its grid as one (T*P, 2, 2) coefficient array.
The reference here builds each point's state with ``super_qubit_state`` and
reads every column from the per-state functions.  For blocks of length >= 8
each cell must be the same text (so the same bits); below that only the two
Gram columns may move, by BLAS's fused tail rounding.
"""

import cmath
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superq.cli import SWEEP_HEADER, main as cli_main, sweep_thetas
from superq.entanglement import (
    _gram_grid,
    concurrence_gram,
    concurrence_superqubit,
    entanglement_entropy_bits,
)
from superq.errors import InvalidDimensionError, NormalizationError
from superq.moebius import ExtendedComplex, _cartesian_grid, _grid_phases
from superq.serialize import csv_cell
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _super_qubit_grid,
    _vdot_low,
    pole_probabilities,
    super_qubit_state,
)
from superq.uncertainty import variance_quadratures_closed

GRAM_COLUMNS = {"concurrence_gram", "entropy_bits"}
# Largest change BLAS's fused tail (blocks shorter than 8) may make to a Gram column.
SMALL_DIM_TOL = 1e-15

# (--zeta-re, --zeta-im), or None for --zeta-inf
EDGE_ZETAS = [
    None,
    (0.0, 0.0),
    (1e300, 0.0),
    (1e-300, 0.0),
    (-1e300, 1e300),
    (0.0, -1e-300),
]


def zeta_parts(log_modulus, phase):
    zeta = cmath.rect(math.exp(log_modulus), phase)
    return zeta.real, zeta.imag


# the edge cases, or a modulus log-uniform in [0.25, 4] with a uniform phase
ZETAS = st.one_of(
    st.sampled_from(EDGE_ZETAS),
    st.builds(zeta_parts, st.floats(math.log(0.25), math.log(4.0)), st.floats(0.0, 2.0 * math.pi)),
)
COUNTS = st.integers(1, 40)


def zeta_argv(zeta):
    return ["--zeta-inf"] if zeta is None else [f"--zeta-re={zeta[0]!r}", f"--zeta-im={zeta[1]!r}"]


def zeta_label(zeta):
    return ExtendedComplex.infinity() if zeta is None else ExtendedComplex.from_value(complex(*zeta))


def reference_rows(t_count, p_count, zeta, dim):
    """The sweep's rows from one super_qubit_state per point, as CSV cell text."""
    label = zeta_label(zeta)
    zeta_cells = (math.inf, 0.0) if zeta is None else zeta
    phis = [2.0 * math.pi * j / p_count for j in range(p_count)]
    rows = []
    for theta in sweep_thetas(t_count):
        for phi in phis:
            base = SuperQubitParams(theta, phi, label)
            state = super_qubit_state(base, dim)
            var_x, var_p = variance_quadratures_closed(CoherentParams(0.0, base))
            row = [theta, phi, *zeta_cells, concurrence_superqubit(base.theta, label)]
            row += [concurrence_gram(state), entanglement_entropy_bits(state)]
            row += [*pole_probabilities(state, label), var_x, var_p]
            rows.append([csv_cell(value) for value in row])
    return rows


def sweep_rows(t_count, p_count, zeta, dim):
    """The rows of ``superq sweep`` run in-process, as lists of cell text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(
            ["sweep", *zeta_argv(zeta), "--grid", f"{t_count},{p_count}", "--dim", str(dim)]
        )
    assert (code, err.getvalue()) == (0, "")
    lines = out.getvalue().rstrip("\n").split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    return [line.split(",") for line in lines[1:]]


@settings(max_examples=30, deadline=None)
@given(t_count=COUNTS, p_count=COUNTS, zeta=ZETAS, dim=st.integers(8, 130))
def test_every_cell_equals_the_per_state_reference(t_count, p_count, zeta, dim):
    got = sweep_rows(t_count, p_count, zeta, dim)
    assert got == reference_rows(t_count, p_count, zeta, dim)


@settings(max_examples=30, deadline=None)
@given(t_count=COUNTS, p_count=COUNTS, zeta=ZETAS, dim=st.integers(2, 7))
def test_short_blocks_move_only_the_gram_columns(t_count, p_count, zeta, dim):
    got = sweep_rows(t_count, p_count, zeta, dim)
    want = reference_rows(t_count, p_count, zeta, dim)
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        for name, cell, expected in zip(SWEEP_HEADER, got_row, want_row):
            if name in GRAM_COLUMNS:
                assert abs(float(cell) - float(expected)) <= SMALL_DIM_TOL, name
            else:
                assert cell == expected, name


@pytest.mark.parametrize("zeta", [None, (0.0, 0.0), (0.7, -1.9)])
def test_output_does_not_depend_on_dim(zeta):
    # short blocks included: the grid's sums always round as BLAS's blocked loop
    rows = [sweep_rows(14, 6, zeta, dim) for dim in (2, 5, 7, 8, 9, 64, 257)]
    assert all(other == rows[0] for other in rows[1:])


def test_one_stacked_eigvalsh_and_no_states(monkeypatch):
    shapes, built = [], []
    eigvalsh = np.linalg.eigvalsh
    post_init = SuperVector.__post_init__

    def counting_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(SuperVector, "__post_init__", counting_post_init)
    assert len(sweep_rows(6, 7, (0.5, 0.25), 64)) == 42
    assert shapes == [(42, 2, 2)]
    assert built == []


class TestGridKernels:
    @pytest.mark.parametrize("dim", [2, 5, 64])
    @pytest.mark.parametrize("zeta", [None, (0.0, 0.0), (1e300, -1e-300), (-0.4, 2.2)])
    def test_coefficients_equal_each_state_bit_for_bit(self, dim, zeta):
        thetas = sweep_thetas(27)
        phis = [2.0 * math.pi * j / 5 for j in range(5)] + [7.5, -0.0]
        label = zeta_label(zeta)
        coeffs = _super_qubit_grid(thetas, *_grid_phases(thetas, phis), label, dim)
        states = [
            super_qubit_state(SuperQubitParams(theta, phi, label), dim)
            for theta in thetas
            for phi in phis
        ]
        assert coeffs.shape == (len(states), 2, 2)
        for got, state in zip(coeffs, states):
            assert not state.coeffs[:, 2:].any()
            assert got.tobytes() == state.coeffs[:, :2].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-3.0, 3.0)),
            min_size=8,
            max_size=8,
        ),
        dim=st.integers(8, 40),
    )
    def test_low_level_dot_rounds_as_blas(self, parts, dim):
        x, y = np.zeros(dim, dtype=np.complex128), np.zeros(dim, dtype=np.complex128)
        x.real[:2], x.imag[:2], y.real[:2], y.imag[:2] = np.reshape(parts, (4, 2))
        assert _vdot_low(x[:2], y[:2]).tobytes() == np.complex128(np.vdot(x, y)).tobytes()

    def test_grid_refuses_what_one_point_refuses(self):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\], got 3.5"):
            _grid_phases([0.0, 1.0, 3.5], [0.0])
        with pytest.raises(ValueError, match="phi must be finite, got nan"):
            _grid_phases([0.0, 1.0], [0.5, math.nan])
        with pytest.raises(InvalidDimensionError, match="dim must be >= 2, got 1"):
            _super_qubit_grid([1.0], *_grid_phases([1.0], [0.0]), ExtendedComplex.infinity(), 1)

    def test_pole_rows_take_azimuth_zero(self):
        cos_phi, sin_phi = _grid_phases([0.0, 1.0, math.pi], [1.0, 2.0 * math.pi + 0.5])
        assert cos_phi[[0, 2]].tolist() == [[1.0, 1.0]] * 2
        assert sin_phi[[0, 2]].tolist() == [[0.0, 0.0]] * 2
        assert cos_phi[1].tolist() == [math.cos(1.0), math.cos((2.0 * math.pi + 0.5) % (2.0 * math.pi))]

    def test_last_unnormalized_state_is_refused(self):
        thetas = [0.3, 2.0]
        coeffs = _super_qubit_grid(thetas, *_grid_phases(thetas, [0.0, 1.0]), zeta_label((1.0, 0.0)), 8)
        coeffs[-1, 0, 0] += 1e-9
        with pytest.raises(NormalizationError, match="norm"):
            _gram_grid(coeffs)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan)])
    def test_non_finite_state_is_refused(self, bad):
        # as concurrence_gram refuses it: a NaN norm is not within tol of 1
        thetas = [0.3, 2.0]
        coeffs = _super_qubit_grid(thetas, *_grid_phases(thetas, [0.0, 1.0]), zeta_label((1.0, 0.0)), 8)
        coeffs[1, 1, 0] = bad
        with pytest.raises(NormalizationError, match="norm"):
            _gram_grid(coeffs)

    def test_non_unit_cartesian_point_is_refused(self):
        thetas = [0.3, 2.0]
        cos_phi, sin_phi = _grid_phases(thetas, [0.0, 1.0])
        cos_phi[-1, -1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="must be a unit vector"):
            _cartesian_grid(thetas, cos_phi, sin_phi)
