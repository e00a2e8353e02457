"""The batched sweep against the per-state functions it replaces, point by point.

``superq sweep`` evaluates its grid as one (T*P, 2, 2) stack of boson levels
0 and 1 through the kernels of the per-state functions.  The reference here
builds each point's state with ``super_qubit_state`` and reads every column
from the per-state functions.  At every dim each cell must be the same text
(so the same bits): the dots pad a row shorter than 8 levels with zeros.
"""

import cmath
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superq.cli import SWEEP_HEADER, main as cli_main, sweep_thetas
from superq.entanglement import (
    _DISTINCT_MIN,
    _gram_entries,
    _gram_measures,
    concurrence_gram,
    concurrence_superqubit,
    entanglement_entropy_bits,
)
from superq.errors import NormalizationError
from superq.moebius import ExtendedComplex, _cartesian_grid, _grid_phases
from superq.serialize import csv_cell
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    _super_qubit_grid,
    pole_probabilities,
    super_qubit_state,
)
from superq.uncertainty import _variance_grid, variance_quadratures_closed

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
@given(t_count=COUNTS, p_count=COUNTS, zeta=ZETAS, dim=st.integers(2, 130))
# the draws stop at 40 x 40: one large grid at the pole and at a generic zeta
@example(t_count=100, p_count=100, zeta=None, dim=64)
@example(t_count=100, p_count=100, zeta=(0.5, -1.3), dim=64)
# one state's entropy squared its Gram entries with libm's pow, the grid's with x * x:
# point 76, near a pure state, read 6.4e-16 bits alone and 4.8e-16 in the grid
@example(t_count=20, p_count=5, zeta=(-1e300, 1e300), dim=8)
# a dim below BLAS's 8-entry block, whose dots pad the reference's states as the grid's
@example(t_count=9, p_count=7, zeta=(0.5, -1.3), dim=3)
def test_every_cell_equals_the_per_state_reference(t_count, p_count, zeta, dim):
    got = sweep_rows(t_count, p_count, zeta, dim)
    assert got == reference_rows(t_count, p_count, zeta, dim)


@pytest.mark.parametrize("zeta", [None, (0.0, 0.0), (0.7, -1.9)])
def test_output_does_not_depend_on_dim(zeta):
    # the grid's states are their two low levels at every dim
    rows = [sweep_rows(14, 6, zeta, dim) for dim in (2, 5, 7, 8, 9, 64, 257)]
    assert all(other == rows[0] for other in rows[1:])


def test_no_eigvalsh_and_no_states(monkeypatch):
    # the Gram spectrum is read in closed form from the Gram pass
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
    assert shapes == []
    assert built == []


def positive_spectra(coeffs) -> list[float]:
    """lam- and lam+ of each state of a stack, test-side from its Gram entries, the positive ones only."""
    g00, g11, g01, det = _gram_entries(coeffs)
    high = [
        0.5 * (a + b + math.sqrt((a - b) * (a - b) + 4.0 * (c.real * c.real + c.imag * c.imag)))
        for a, b, c in zip(g00.tolist(), g11.tolist(), g01.tolist())
    ]
    low = [d / h for d, h in zip(det.tolist(), high)]
    return [lam for lam in low + high if lam > 0.0]


@pytest.mark.parametrize("zeta", [(0.7, 0.2), None])
def test_one_log2_per_distinct_eigenvalue(monkeypatch, zeta):
    t_count = p_count = 25
    thetas = sweep_thetas(t_count)
    phis = [2.0 * math.pi * j / p_count for j in range(p_count)]
    distinct = set(positive_spectra(_super_qubit_grid(thetas, *_grid_phases(thetas, phis), [zeta_label(zeta)])))
    logged = []
    log2 = math.log2
    monkeypatch.setattr(math, "log2", lambda x: logged.append(x) or log2(x))
    assert len(sweep_rows(t_count, p_count, zeta, 64)) == t_count * p_count
    assert sorted(logged) == sorted(distinct)
    assert len(logged) < t_count * p_count


def test_stacks_below_the_crossover_take_one_log2_per_value(monkeypatch):
    thetas = sweep_thetas(4)[1:3]
    eight = _super_qubit_grid(thetas, *_grid_phases(thetas, [0.1, 0.2, 0.3, 0.4]), [zeta_label((0.7, 0.2))])
    logged = []
    log2 = math.log2
    monkeypatch.setattr(math, "log2", lambda x: logged.append(x) or log2(x))
    # one state keeps its two logs, lam- and lam+
    _gram_measures(eight[0])
    assert len(logged) == 2
    # eight mixed states repeated: one log per positive value below the crossover, one per
    # distinct value from it
    for count in (_DISTINCT_MIN - 1, _DISTINCT_MIN):
        stack = np.resize(eight, (count, 2, 2))
        logged.clear()
        _gram_measures(stack)
        values = positive_spectra(stack)
        assert sorted(logged) == sorted(values if count < _DISTINCT_MIN else set(values))


class TestGridKernels:
    @pytest.mark.parametrize("dim", [2, 5, 64])
    @pytest.mark.parametrize("zeta", [None, (0.0, 0.0), (1e300, -1e-300), (-0.4, 2.2)])
    def test_coefficients_equal_each_state_bit_for_bit(self, dim, zeta):
        thetas = sweep_thetas(27)
        phis = [2.0 * math.pi * j / 5 for j in range(5)] + [7.5, -0.0]
        label = zeta_label(zeta)
        coeffs = _super_qubit_grid(thetas, *_grid_phases(thetas, phis), [label])
        states = [
            super_qubit_state(SuperQubitParams(theta, phi, label), dim)
            for theta in thetas
            for phi in phis
        ]
        assert coeffs.shape == (len(states), 2, 2)
        for got, state in zip(coeffs, states):
            assert not state.coeffs[:, 2:].any()
            assert got.tobytes() == state.coeffs[:, :2].tobytes()

    def test_labels_are_the_outer_rows(self):
        # one call over several labels is the labels' own grids in label order, bit for bit
        thetas, phis = sweep_thetas(6), [0.0, 2.5, 7.5]
        phases = _grid_phases(thetas, phis)
        labels = [zeta_label(zeta) for zeta in (None, (0.0, 0.0), (-0.4, 2.2), (1e300, -1e-300))]
        each = np.concatenate([_super_qubit_grid(thetas, *phases, [label]) for label in labels])
        assert _super_qubit_grid(thetas, *phases, labels).tobytes() == each.tobytes()
        assert _super_qubit_grid(thetas, *phases, []).shape == (0, 2, 2)
        # and the closed variances take the same rows: row (k*T + i)*P + j is
        # variance_quadratures_closed at (zeta_k, theta_i, phi_j), bit for bit
        points = [
            variance_quadratures_closed(CoherentParams(0.0, SuperQubitParams(theta, phi, label)))
            for label in labels
            for theta in thetas
            for phi in phis
        ]
        assert np.stack(_variance_grid(thetas, *phases, labels), axis=1).tobytes() == np.array(points).tobytes()
        assert [var.shape for var in _variance_grid(thetas, *phases, [])] == [(0,), (0,)]

    def test_grid_refuses_what_one_point_refuses(self):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\], got 3.5"):
            _grid_phases([0.0, 1.0, 3.5], [0.0])
        with pytest.raises(ValueError, match="phi must be finite, got nan"):
            _grid_phases([0.0, 1.0], [0.5, math.nan])

    def test_pole_rows_take_azimuth_zero(self):
        cos_phi, sin_phi = _grid_phases([0.0, 1.0, math.pi], [1.0, 2.0 * math.pi + 0.5])
        assert cos_phi[[0, 2]].tolist() == [[1.0, 1.0]] * 2
        assert sin_phi[[0, 2]].tolist() == [[0.0, 0.0]] * 2
        assert cos_phi[1].tolist() == [math.cos(1.0), math.cos((2.0 * math.pi + 0.5) % (2.0 * math.pi))]

    def test_last_unnormalized_state_is_refused(self):
        thetas = [0.3, 2.0]
        coeffs = _super_qubit_grid(thetas, *_grid_phases(thetas, [0.0, 1.0]), [zeta_label((1.0, 0.0))])
        coeffs[-1, 0, 0] += 1e-9
        with pytest.raises(NormalizationError, match="norm"):
            _gram_entries(coeffs)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan)])
    def test_non_finite_state_is_refused(self, bad):
        # as concurrence_gram refuses it: a NaN norm is not within tol of 1
        thetas = [0.3, 2.0]
        coeffs = _super_qubit_grid(thetas, *_grid_phases(thetas, [0.0, 1.0]), [zeta_label((1.0, 0.0))])
        coeffs[1, 1, 0] = bad
        with pytest.raises(NormalizationError, match="norm"):
            _gram_entries(coeffs)

    def test_non_unit_cartesian_point_is_refused(self):
        thetas = [0.3, 2.0]
        cos_phi, sin_phi = _grid_phases(thetas, [0.0, 1.0])
        cos_phi[-1, -1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="must be a unit vector"):
            _cartesian_grid(thetas, cos_phi, sin_phi)
