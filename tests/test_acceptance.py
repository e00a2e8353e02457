"""Acceptance criteria: every closed-form claim against its matrix oracle.

Each test prints one `[criterion N] PASS/FAIL` line with the measured
residual and the pinned tolerance; run with ``pytest -s`` to see the lines.
"""

import cmath
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np

from superq import fock
from superq.entanglement import (
    concurrence_gram,
    concurrence_n_state,
    concurrence_superqubit,
    entropy_from_z,
    reduced_boson_density,
)
from superq.moebius import ExtendedComplex
from superq.superstate import (
    CoherentParams,
    SuperQubitParams,
    SuperVector,
    commutator_suite,
    flip_operator,
    flip_state,
    n_superparticle_state,
    super_annihilation,
    super_annihilation_transposed,
    super_qubit_state,
)
from superq.uncertainty import (
    GOLDEN_RATIO,
    fibonacci_number,
    fibonacci_record,
    quadrature_stats_numeric,
    variance_quadratures_closed,
)

from conftest import dense, guarded_norm

THETAS = tuple(np.linspace(0.0, math.pi, 5))
PHIS = tuple(np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False))
ZETAS = tuple(
    ExtendedComplex.from_value(mod * cmath.exp(1j * phase))
    for mod, phase in zip((0.25, 0.5, 1.0, 2.0, 4.0), (0.0, 1.2, 2.5, 3.7, 5.0))
)
ALPHAS = (1.2 - 0.3j, -0.7 + 1.8j, 1.9 + 0.6j)  # all |alpha| <= 2


def _criterion(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status} {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def _grid_states(dim):
    for zeta in ZETAS:
        for theta in THETAS:
            for phi in PHIS:
                yield zeta, super_qubit_state(SuperQubitParams(theta, phi, zeta), dim)


def _displace(d, state):
    return SuperVector([d @ psi for psi in state.coeffs])


def test_criterion_1_reference_annihilation():
    dim = 64
    worst = 0.0
    for zeta in ZETAS:
        a_op = super_annihilation(zeta, dim)
        for theta in THETAS:
            for phi in PHIS:
                state = super_qubit_state(SuperQubitParams(theta, phi, zeta), dim)
                worst = max(worst, a_op.apply(state).norm())
    _criterion(1, worst <= 1e-10, f"max ||A psi|| = {worst:.3e} <= 1e-10 at dim=64")


def test_criterion_2_coherent_eigenrelation():
    dim = 96
    worst = 0.0
    references = list(_grid_states(dim))
    for alpha in ALPHAS:
        d = fock.displacement_operator(alpha, dim)
        for zeta, reference in references:
            a_op = super_annihilation(zeta, dim)
            coherent = _displace(d, reference)
            residual = a_op.apply(coherent) - alpha * coherent
            worst = max(worst, guarded_norm(residual) / coherent.norm())
    _criterion(
        2, worst <= 1e-8, f"max guarded ||A psi - alpha psi|| = {worst:.3e} <= 1e-8 at dim=96"
    )


def test_criterion_3_commutator_algebra():
    dim = 64
    worst = float(np.max(dataclasses.astuple(commutator_suite(ZETAS, dim))))
    _criterion(3, worst <= 1e-10, f"max guarded commutator residual = {worst:.3e} <= 1e-10")


def test_criterion_4_concurrence_closed_vs_gram():
    dim = 64
    worst = 0.0
    spread = 0.0
    for zeta in ZETAS:
        per_n = [
            concurrence_gram(n_superparticle_state(n, zeta, dim)) for n in (1, 2, 5)
        ]
        spread = max(spread, max(per_n) - min(per_n))
        worst = max(worst, max(abs(c - concurrence_n_state(zeta)) for c in per_n))
    for zeta in ZETAS:
        for theta in THETAS:
            for phi in PHIS:
                state = super_qubit_state(SuperQubitParams(theta, phi, zeta), dim)
                worst = max(
                    worst, abs(concurrence_gram(state) - concurrence_superqubit(theta, zeta))
                )
    passed = worst <= 1e-10 and spread <= 1e-10
    _criterion(
        4,
        passed,
        f"max |closed - Gram| = {worst:.3e} <= 1e-10, n-spread = {spread:.3e} <= 1e-10",
    )


def test_criterion_5_alpha_and_flip_invariance():
    dim = 96
    alpha = 1.5
    d = fock.displacement_operator(alpha, dim)
    alpha_drift = 0.0
    flip_drift = 0.0
    for _, reference in _grid_states(dim):
        c_reference = concurrence_gram(reference)
        alpha_drift = max(
            alpha_drift, abs(concurrence_gram(_displace(d, reference)) - c_reference)
        )
        flip_drift = max(
            flip_drift, abs(concurrence_gram(flip_state(reference)) - c_reference)
        )
    passed = alpha_drift <= 1e-8 and flip_drift <= 1e-12
    _criterion(
        5,
        passed,
        f"alpha drift = {alpha_drift:.3e} <= 1e-8, flip drift = {flip_drift:.3e} <= 1e-12",
    )


def test_criterion_6_entropy_consistency():
    dim = 32
    worst = 0.0
    states = [n_superparticle_state(1, zeta, dim) for zeta in ZETAS]
    states += [
        super_qubit_state(SuperQubitParams(theta, phi, zeta), dim)
        for zeta in ZETAS
        for theta in THETAS[::2]
        for phi in PHIS[::2]
    ]
    for state in states:
        c = concurrence_gram(state)
        spectral = -sum(
            lam * math.log2(lam)
            for lam in reduced_boson_density(state).eigenvalues()
            if lam > 1e-16
        )
        worst = max(worst, abs(spectral - entropy_from_z(math.sqrt(max(0.0, 1.0 - c * c)))))
    exact_poles = entropy_from_z(0.0) == 1.0 and entropy_from_z(1.0) == 0.0 and entropy_from_z(-1.0) == 0.0
    passed = worst <= 1e-9 and exact_poles
    _criterion(
        6,
        passed,
        f"max |spectral - closed| = {worst:.3e} <= 1e-9, E(0)=1 and E(+-1)=0 exactly: {exact_poles}",
    )


def test_criterion_7_quadrature_dispersions():
    dim = 64
    worst = 0.0
    for zeta in ZETAS:
        for theta in THETAS[::2]:
            for phi in PHIS[::2]:
                base = SuperQubitParams(theta, phi, zeta)
                for alpha in (0.0, 1.1 - 0.6j, 1.9 + 0.6j):
                    params = CoherentParams(alpha, base)
                    closed = variance_quadratures_closed(params)
                    numeric = quadrature_stats_numeric(params, dim)
                    worst = max(
                        worst,
                        abs(closed[0] - numeric.var_x),
                        abs(closed[1] - numeric.var_p),
                    )
    point = CoherentParams(
        0.0, SuperQubitParams(0.5 * math.pi, 0.25 * math.pi, ExtendedComplex.from_value(1.0))
    )
    closed_at_point = variance_quadratures_closed(point)
    record5 = fibonacci_record(5, dim)
    exact = record5.zeta_sq == Fraction(1) and record5.dispersion_closed == Fraction(5, 8)
    closed_gap = max(abs(closed_at_point[0] - 0.625), abs(closed_at_point[1] - 0.625))
    numeric_gap = abs(quadrature_stats_numeric(point, dim).var_x - 0.625)
    passed = worst <= 1e-8 and exact and closed_gap <= 1e-15 and numeric_gap <= 1e-8
    _criterion(
        7,
        passed,
        f"max |closed - matrix| = {worst:.3e} <= 1e-8; 5/8 point exact rational, "
        f"closed float gap = {closed_gap:.1e}, numeric gap = {numeric_gap:.3e} <= 1e-8",
    )


def test_criterion_8_fibonacci_table():
    dim = 64
    numeric_worst = 0.0
    exact_all = True
    signs = []
    for n in range(3, 21):
        record = fibonacci_record(n, dim)
        f = fibonacci_number
        exact_all = exact_all and (
            record.zeta_sq == Fraction(f(n - 1), f(n - 2)) - Fraction(1, 2)
            and record.dispersion_closed == Fraction(f(n), f(n + 1))
            and (1 + Fraction(1, 2) / (1 + record.zeta_sq)) / 2 == record.dispersion_closed
        )
        numeric_worst = max(
            numeric_worst, abs(record.dispersion_numeric - float(record.dispersion_closed))
        )
        signs.append(1 if float(record.zeta_sq) > GOLDEN_RATIO - 0.5 else -1)
    alternating = all(a != b for a, b in zip(signs, signs[1:]))
    passed = exact_all and numeric_worst <= 1e-8 and alternating
    _criterion(
        8,
        passed,
        f"exact rational identities for n=3..20: {exact_all}, max numeric gap = "
        f"{numeric_worst:.3e} <= 1e-8, circle signs alternate: {alternating}",
    )


def test_criterion_9_golden_limit():
    golden_zeta = ExtendedComplex.from_value(math.sqrt(GOLDEN_RATIO - 0.5))
    point = CoherentParams(
        0.0, SuperQubitParams(0.5 * math.pi, 0.25 * math.pi, golden_zeta)
    )
    closed = variance_quadratures_closed(point)
    closed_gap = max(abs(closed[0] - 1.0 / GOLDEN_RATIO), abs(closed[1] - 1.0 / GOLDEN_RATIO))
    ladder_gap = abs(float(fibonacci_record(20, 64).dispersion_closed) - 1.0 / GOLDEN_RATIO)
    passed = closed_gap <= 1e-14 and ladder_gap <= 1e-7
    _criterion(
        9,
        passed,
        f"closed variance at golden circle gap = {closed_gap:.3e} <= 1e-14, "
        f"|dispersion(20) - 1/phi| = {ladder_gap:.3e} <= 1e-7",
    )


def test_criterion_10_transposed_operator_relations():
    dim = 64
    flip = flip_operator(dim)
    matrix_gap = 0.0
    for zeta in ZETAS:
        conjugated = dense(flip @ super_annihilation(zeta, dim) @ flip)
        matrix_gap = max(
            matrix_gap,
            float(np.abs(conjugated - dense(super_annihilation_transposed(zeta, dim))).max()),
        )
    eigen_dim = 96
    worst_eigen = 0.0
    for alpha, zeta_value, theta, phi in (
        (0.8j, 1.0 + 1.0j, 2.0, 1.0),
        (1.3 - 0.4j, 0.6, 0.9, 2.2),
    ):
        zeta = ExtendedComplex.from_value(zeta_value)
        params = CoherentParams(alpha, SuperQubitParams(theta, phi, zeta))
        state = flip_state(
            _displace(
                fock.displacement_operator(alpha, eigen_dim),
                super_qubit_state(params.base, eigen_dim),
            )
        )
        residual = super_annihilation_transposed(zeta, eigen_dim).apply(state) - alpha * state
        worst_eigen = max(worst_eigen, residual.norm())
    passed = matrix_gap == 0.0 and worst_eigen <= 1e-8
    _criterion(
        10,
        passed,
        f"||X A X - A^T|| = {matrix_gap:.1e} (exact), flipped eigen residual = "
        f"{worst_eigen:.3e} <= 1e-8",
    )


def test_criterion_11_cli_contract(run_cli, golden_dir, monkeypatch):
    monkeypatch.delenv("SUPERQ_DIM", raising=False)
    code, out, _ = run_cli(["verify", "--suite", "all", "--dim", "64", "--tol", "1e-8"])
    payload = json.loads(out)
    verify_green = code == 0 and payload["summary"]["passed"] == payload["summary"]["total"]

    fib_code, fib_out, _ = run_cli(["fibonacci", "--n-max", "10", "--dim", "64"])
    fib_golden = (golden_dir / "fibonacci_nmax10_dim64.csv").read_text()
    state_code, state_out, _ = run_cli(
        ["state", "--theta", "0", "--phi", "0", "--zeta-re", "1", "--zeta-im", "0", "--dim", "4"]
    )
    state_golden = (golden_dir / "state_theta0_zeta1_dim4.json").read_text()
    goldens_match = (
        fib_code == 0 and state_code == 0 and fib_out == fib_golden and state_out == state_golden
    )
    passed = verify_green and goldens_match
    _criterion(
        11,
        passed,
        f"verify --suite all exit 0 with {payload['summary']['passed']}/"
        f"{payload['summary']['total']} checks green: {verify_green}; "
        f"golden CSV/JSON byte equality: {goldens_match}",
    )
