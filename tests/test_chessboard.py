import math
import random
from fractions import Fraction
from itertools import product

import pytest

from entwined.chessboard import (ENUMERATION_CAP, ChessboardProblem, CornerHistogram, KernelValue,
                                 enumerate_corner_histogram, kernel_corner_sum, kernel_phase_series,
                                 kernel_transfer_matrix)
from helpers import brute_histogram, brute_kernel, brute_kernel_exact


def test_single_step_straight_path():
    hist = enumerate_corner_histogram(ChessboardProblem(n_steps=1, displacement=1))
    assert hist.counts == {0: 1}


def test_two_steps_return():
    # sequences RR, RL; only RL returns, with one corner
    hist = enumerate_corner_histogram(ChessboardProblem(n_steps=2, displacement=0))
    assert hist.counts == {1: 1}


def test_four_steps_return_total():
    # RRLL, RLRL, RLLR qualify out of the 8 sequences
    hist = enumerate_corner_histogram(ChessboardProblem(n_steps=4, displacement=0))
    assert hist.total() == 3
    assert hist.counts == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("n_steps", range(1, 13))
@pytest.mark.parametrize("incoming", [False, True])
def test_enumeration_matches_brute_force(n_steps, incoming):
    # the displacement range includes out-of-range and wrong-parity
    # endpoints, which have no paths
    for displacement in range(-n_steps - 1, n_steps + 2):
        for initial, final in product(("right", "left"), ("any", "right", "left")):
            problem = ChessboardProblem(n_steps=n_steps, displacement=displacement,
                                        initial_direction=initial, final_direction=final,
                                        incoming_corner=incoming)
            got = enumerate_corner_histogram(problem).counts
            want = brute_histogram(n_steps, displacement, initial=initial, final=final,
                                   incoming=incoming)
            assert got == want


@pytest.mark.parametrize("incoming", [False, True])
@pytest.mark.parametrize("initial", ["right", "left"])
def test_histogram_mass_closed_form(initial, incoming):
    # k left steps out of n: all C(n, k) placements with a free first step,
    # C(n-1, k - first) with the first step fixed
    init_bit = 0 if initial == "right" else 1
    for n_steps in range(1, 25):
        for lefts in range(n_steps + 1):
            problem = ChessboardProblem(n_steps=n_steps, displacement=n_steps - 2 * lefts,
                                        initial_direction=initial, incoming_corner=incoming)
            if incoming:
                want = math.comb(n_steps, lefts)
            else:
                want = math.comb(n_steps - 1, lefts - init_bit) if lefts >= init_bit else 0
            assert enumerate_corner_histogram(problem).total() == want


def test_histogram_mass_equals_brute_count():
    # total multiplicity checked purely against an independent count
    for n_steps in range(1, 11):
        for displacement in range(-n_steps, n_steps + 1, 2):
            hist = enumerate_corner_histogram(
                ChessboardProblem(n_steps=n_steps, displacement=displacement))
            want = sum(brute_histogram(n_steps, displacement).values())
            assert hist.total() == want


def test_corner_parity_matches_final_direction():
    # starting right: even corner counts end right, odd end left
    for n_steps in range(2, 9):
        for displacement in range(-n_steps, n_steps + 1, 2):
            right = brute_histogram(n_steps, displacement, final="right")
            left = brute_histogram(n_steps, displacement, final="left")
            assert all(r % 2 == 0 for r in right)
            assert all(r % 2 == 1 for r in left)


def test_corner_sum_trivial_and_derived_values():
    k = kernel_corner_sum(CornerHistogram({0: 1}), 0.1, 1.0)
    assert (k.phi_plus, k.phi_minus) == (1.0, 0.0)
    k = kernel_corner_sum(CornerHistogram({1: 1}), 0.1, 1.0)
    assert (k.phi_plus, k.phi_minus) == (0.0, 0.1)
    k = kernel_corner_sum(CornerHistogram({0: 1, 2: 1}), 0.5, 1.0)
    assert (k.phi_plus, k.phi_minus) == (0.75, 0.0)


def test_corner_sum_sign_pattern_exact():
    # even R lands in phi_plus with sign (-1)^(R/2), odd in phi_minus with (-1)^((R-1)/2)
    em = Fraction(3, 10)
    for r in range(8):
        k = kernel_corner_sum(CornerHistogram({r: 1}), em, 1, exact=True)
        term = em**r
        if r % 2 == 0:
            assert k.phi_minus == 0
            assert k.phi_plus == (term if r % 4 == 0 else -term)
        else:
            assert k.phi_plus == 0
            assert k.phi_minus == (term if r % 4 == 1 else -term)


_OVERFLOW = "^corner sum overflowed double precision; use exact=True$"


def test_corner_sum_overflow_reported():
    # the sum turns inf; then a single power past double range, which Python
    # raises as a bare errno OverflowError
    with pytest.raises(OverflowError, match=_OVERFLOW):
        kernel_corner_sum(CornerHistogram({500: 10**6}), 10.0, 10.0)
    hist = enumerate_corner_histogram(ChessboardProblem(n_steps=24, displacement=0))
    with pytest.raises(OverflowError, match=_OVERFLOW):
        kernel_corner_sum(hist, 1e200, 1.0)
    assert kernel_corner_sum(hist, 1e200, 1.0, exact=True) == kernel_transfer_matrix(
        ChessboardProblem(n_steps=24, displacement=0, step_size=1e200), exact=True)


@pytest.mark.filterwarnings("error")
def test_float_transfer_refuses_an_amplitude_past_double_range():
    problem = ChessboardProblem(n_steps=24, displacement=0, step_size=1e200)
    with pytest.raises(OverflowError, match=_OVERFLOW):
        kernel_transfer_matrix(problem)
    # (1e15)**23 = 1e345 is out of range; 1e13 keeps every amplitude finite
    with pytest.raises(OverflowError, match=_OVERFLOW):
        kernel_transfer_matrix(ChessboardProblem(n_steps=24, displacement=0, step_size=1e15))
    k = kernel_transfer_matrix(ChessboardProblem(n_steps=24, displacement=0, step_size=1e13))
    assert math.isfinite(k.phi_plus) and math.isfinite(k.phi_minus)


@pytest.mark.filterwarnings("error")
def test_phase_series_stops_at_the_first_amplitude_past_double_range():
    # at eps*mass = 0.9 the return amplitude passes double range at step 2410,
    # t = 2169; one step before, the series ends on finite amplitudes
    series = kernel_phase_series(2168.2, 0.9, 1.0)
    assert len(series) == 2409
    assert all(math.isfinite(k.phi_plus) and math.isfinite(k.phi_minus) for _t, k in series)
    assert max(abs(k.phi_minus) for _t, k in series) > 1e308
    with pytest.raises(OverflowError, match=_OVERFLOW):
        kernel_phase_series(2169.0, 0.9, 1.0)


def test_enumeration_cap_error_names_cap():
    with pytest.raises(ValueError, match="enumeration too large.*24"):
        enumerate_corner_histogram(ChessboardProblem(n_steps=30, displacement=0))


def test_transfer_matrix_massless_collapses_to_straight_path():
    for n_steps in (1, 5, 40):
        k = kernel_transfer_matrix(ChessboardProblem(n_steps=n_steps, displacement=n_steps, mass=0.0))
        assert (k.phi_plus, k.phi_minus) == (1.0, 0.0)
        k = kernel_transfer_matrix(ChessboardProblem(n_steps=n_steps, displacement=n_steps - 2 if n_steps > 1 else -1, mass=0.0))
        assert (k.phi_plus, k.phi_minus) == (0.0, 0.0)


def test_transfer_matrix_two_steps():
    k = kernel_transfer_matrix(ChessboardProblem(n_steps=2, displacement=0, step_size=0.1, mass=1.0))
    assert k.phi_plus == pytest.approx(0.0, abs=1e-15)
    assert k.phi_minus == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("incoming", [False, True])
@pytest.mark.parametrize("initial", ["right", "left"])
def test_transfer_matrix_equals_brute_kernel(initial, incoming):
    eps, mass = 0.1, 1.0
    for n_steps in (3, 6, 9):
        for displacement in range(-n_steps, n_steps + 1, 2):
            problem = ChessboardProblem(n_steps=n_steps, displacement=displacement,
                                        step_size=eps, mass=mass, initial_direction=initial,
                                        incoming_corner=incoming)
            k = kernel_transfer_matrix(problem)
            want = brute_kernel(n_steps, displacement, eps, mass, initial=initial,
                                incoming=incoming)
            assert k.phi_plus == pytest.approx(want.real, abs=1e-13)
            assert k.phi_minus == pytest.approx(want.imag, abs=1e-13)


def test_transfer_matrix_matches_enumeration_at_twelve_steps():
    problem = ChessboardProblem(n_steps=12, displacement=0, step_size=0.1, mass=1.0)
    hist = enumerate_corner_histogram(problem)
    summed = kernel_corner_sum(hist, problem.step_size, problem.mass)
    transferred = kernel_transfer_matrix(problem)
    assert abs(summed.phi_plus - transferred.phi_plus) < 1e-12
    assert abs(summed.phi_minus - transferred.phi_minus) < 1e-12


def test_exact_mode_agrees_between_backends():
    eps = Fraction(1, 10)
    for n_steps in (2, 5, 8):
        for displacement in range(-n_steps, n_steps + 1, 2):
            problem = ChessboardProblem(n_steps=n_steps, displacement=displacement,
                                        step_size=eps, mass=1)
            hist = enumerate_corner_histogram(problem)
            summed = kernel_corner_sum(hist, eps, 1, exact=True)
            transferred = kernel_transfer_matrix(problem, exact=True)
            assert summed.phi_plus == transferred.phi_plus
            assert summed.phi_minus == transferred.phi_minus


@pytest.mark.parametrize("eps_mass", [Fraction(1, 3), Fraction(7, 5)])
def test_closed_form_corner_sum_equals_exact_transfer_up_to_the_cap(eps_mass):
    # brute force checks the histogram up to 12 steps and acceptance 1 up to
    # 14; past them, its exact corner sum meets the exact transfer, an
    # independent route, on every problem that has paths ("any" against the
    # sum of the two final directions, which is how the transfer reads it)
    for n_steps in range(13, ENUMERATION_CAP + 1):
        for displacement, initial, incoming in product(range(-n_steps, n_steps + 1, 2),
                                                       ("right", "left"), (False, True)):
            summed = {}
            for final in ("right", "left", "any"):
                problem = ChessboardProblem(n_steps=n_steps, displacement=displacement,
                                            step_size=eps_mass, mass=1, initial_direction=initial,
                                            final_direction=final, incoming_corner=incoming)
                hist = enumerate_corner_histogram(problem)
                summed[final] = kernel_corner_sum(hist, eps_mass, 1, exact=True)
                if final != "any":
                    assert summed[final] == kernel_transfer_matrix(problem, exact=True)
            assert summed["any"] == KernelValue(summed["right"].phi_plus + summed["left"].phi_plus,
                                                summed["right"].phi_minus + summed["left"].phi_minus)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, Fraction(3, 10)])
def test_exact_transfer_equals_brute_kernel(eps):
    # float step sizes are exact binary fractions with denominators near 2**55
    for n_steps in range(1, 11):
        for displacement in range(-n_steps, n_steps + 1):
            for initial, final, incoming in product(("right", "left"), ("any", "right", "left"),
                                                    (False, True)):
                problem = ChessboardProblem(n_steps=n_steps, displacement=displacement,
                                            step_size=eps, mass=1, initial_direction=initial,
                                            final_direction=final, incoming_corner=incoming)
                k = kernel_transfer_matrix(problem, exact=True)
                assert type(k.phi_plus) is Fraction and type(k.phi_minus) is Fraction
                assert (k.phi_plus, k.phi_minus) == brute_kernel_exact(
                    n_steps, displacement, eps, initial=initial, final=final, incoming=incoming)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_phase_series_points_are_the_kernels_of_their_return_problems(eps):
    # the series, the float kernel and the exact kernel step one recurrence:
    # the k-th point is the float kernel of the k-step return problem, signed
    # zeros included, and the exact kernel rounds to it
    rng = random.Random(19)
    for initial, final, incoming in product(("right", "left"), ("any", "right", "left"), (False, True)):
        n_steps, mass = rng.randint(1, 60), rng.choice([0.0, 1.0, rng.uniform(0.0, 3.0)])
        series = kernel_phase_series(n_steps * eps, eps, mass, initial, final, incoming)
        assert len(series) == n_steps
        for k, (_, point) in enumerate(series, start=1):
            problem = ChessboardProblem(n_steps=k, displacement=0, step_size=eps, mass=mass,
                                        initial_direction=initial, final_direction=final,
                                        incoming_corner=incoming)
            assert repr(point) == repr(kernel_transfer_matrix(problem))
            exact = kernel_transfer_matrix(problem, exact=True)
            assert abs(float(exact.phi_plus) - point.phi_plus) <= 1e-12
            assert abs(float(exact.phi_minus) - point.phi_minus) <= 1e-12


def test_invalid_problem_rejected():
    with pytest.raises(ValueError):
        ChessboardProblem(n_steps=0, displacement=0)
    with pytest.raises(ValueError):
        ChessboardProblem(n_steps=2, displacement=0, step_size=-1.0)
    with pytest.raises(ValueError):
        ChessboardProblem(n_steps=2, displacement=0, initial_direction="up")


def test_parity_violating_problem_has_empty_histogram():
    hist = enumerate_corner_histogram(ChessboardProblem(n_steps=3, displacement=0))
    assert hist.counts == {}
    k = kernel_transfer_matrix(ChessboardProblem(n_steps=3, displacement=0))
    assert (k.phi_plus, k.phi_minus) == (0.0, 0.0)


def test_phase_series_massless_has_no_imaginary_part():
    series = kernel_phase_series(2.0, 0.1, 0.0)
    assert all(k.phi_minus == 0.0 for _, k in series)


def test_phase_series_requires_subunit_corner_weight():
    with pytest.raises(ValueError):
        kernel_phase_series(1.0, 0.5, 3.0)


def test_phase_series_monotone_phase_over_first_quarter_period():
    # mass 1: quarter carrier period is pi/2
    series = kernel_phase_series(math.pi / 2, 0.05, 1.0)
    args = [abs(math.atan2(k.phi_minus, k.phi_plus))
            for _, k in series if (k.phi_plus, k.phi_minus) != (0.0, 0.0)]
    assert len(args) > 10
    assert all(b > a for a, b in zip(args, args[1:]))


def test_phase_series_richardson_self_convergence():
    # arg K(0, t*) at eps converges ~ first order; the coarse value must sit
    # within 2% of the extrapolated limit
    t_star = 1.58
    args = {}
    for eps in (0.01, 0.005):
        series = kernel_phase_series(t_star + eps / 2, eps, 1.0)
        t, k = series[-1]
        assert t == pytest.approx(t_star)
        args[eps] = math.atan2(k.phi_minus, k.phi_plus)
    extrapolated = 2.0 * args[0.005] - args[0.01]
    assert abs(args[0.01] - extrapolated) <= 0.02 * abs(extrapolated)
