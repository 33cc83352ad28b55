"""Lattice zigzag kernel on the 1+1 light-cone lattice.

Paths take ``n_steps`` unit steps, each one cell right or left; a corner is
an adjacent pair of opposite steps and every corner carries the weight
``i * eps * mass``.  The kernel splits into real and imaginary parts by
corner count mod 4:

    phi_plus  = sum over R = 0, 4, ... minus sum over R = 2, 6, ...
    phi_minus = sum over R = 1, 5, ... minus sum over R = 3, 7, ...

with each term ``N(R) * (eps * mass)**R``.  Two independent routes are
provided: the corner-weighted sum over a histogram counted in closed form,
and a position-resolved transfer-matrix evolution, in float or exact
arithmetic.  ``ENUMERATION_CAP`` bounds the steps of the first route.

Direction conventions: the first step equals ``initial_direction`` by
default.  With ``incoming_corner=True`` the first step is free and
``initial_direction`` is read as the incoming direction of travel, so an
immediate reversal counts one corner.  ``final_direction`` restricts the
last step ("any" sums both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import SpecError

RIGHT = "right"
LEFT = "left"
ANY = "any"

ENUMERATION_CAP = 24
_COLUMN = {RIGHT: 0, LEFT: 1}
_OVERFLOW = "corner sum overflowed double precision; use exact=True"


@dataclass(frozen=True)
class ChessboardProblem:
    """Endpoint data for the lattice kernel.

    ``displacement`` is net right steps minus left steps in cell units; a
    path exists only if |displacement| <= n_steps with matching parity.
    """

    n_steps: int
    displacement: int
    step_size: float = 1.0
    mass: float = 1.0
    initial_direction: str = RIGHT
    final_direction: str = ANY
    incoming_corner: bool = False

    def __post_init__(self):
        problems = []
        if self.n_steps < 1:
            problems.append("n_steps: must be >= 1")
        if not (self.step_size > 0):
            problems.append("step_size: must be positive")
        if self.mass < 0:
            problems.append("mass: must be non-negative")
        if self.initial_direction not in (RIGHT, LEFT):
            problems.append(f"initial_direction: must be {RIGHT} or {LEFT}")
        if self.final_direction not in (RIGHT, LEFT, ANY):
            problems.append(f"final_direction: must be {RIGHT}, {LEFT} or {ANY}")
        SpecError.check(problems)

    @property
    def has_paths(self) -> bool:
        return abs(self.displacement) <= self.n_steps and (self.displacement - self.n_steps) % 2 == 0


@dataclass(frozen=True)
class CornerHistogram:
    """Map from corner count R to the number N(R) of matching paths."""

    counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for r, n in self.counts.items():
            if r < 0 or n < 0:
                raise ValueError("corner counts and multiplicities must be non-negative")

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class KernelValue:
    """The split kernel K = phi_plus + i * phi_minus."""

    phi_plus: float
    phi_minus: float


def _check_cap(n_steps: int) -> None:
    if n_steps > ENUMERATION_CAP:
        raise SpecError([f"n_steps: exceeds enumeration cap {ENUMERATION_CAP} "
                         f"(enumeration too large: n_steps={n_steps} > {ENUMERATION_CAP})"])


def _runs(steps: int, runs: int) -> int:
    """Ways to split ``steps`` steps into ``runs`` non-empty runs (1 for none in none)."""
    return math.comb(steps - 1, runs - 1) if steps >= runs >= 1 else int(steps == runs == 0)


def enumerate_corner_histogram(problem: ChessboardProblem) -> CornerHistogram:
    """Count corners over every step sequence consistent with the problem.

    Counted in closed form (Gersch 1981): a sequence whose first step runs in
    direction f, with k runs, holds ``ceil(k/2)`` runs of f, ``floor(k/2)`` of
    the other direction o and R = k - 1 corners, and n_f and n_o steps split
    into such runs ``C(n_f - 1, ceil(k/2) - 1) * C(n_o - 1, floor(k/2) - 1)``
    ways.  The parity of k fixes the last step.  With ``incoming_corner`` both
    first steps count, one that reverses ``initial_direction`` with one more
    corner.  Raises when ``n_steps`` exceeds ``ENUMERATION_CAP``.
    """
    n = problem.n_steps
    _check_cap(n)
    if not problem.has_paths:
        return CornerHistogram({})
    steps = {RIGHT: (n + problem.displacement) // 2, LEFT: (n - problem.displacement) // 2}
    initial = problem.initial_direction
    hist: dict[int, int] = {}
    for first in (RIGHT, LEFT) if problem.incoming_corner else (initial,):
        other = LEFT if first == RIGHT else RIGHT
        for k in range(1, n + 1):
            if problem.final_direction in (ANY, first if k % 2 else other):
                r = k - 1 + (first != initial)
                count = _runs(steps[first], (k + 1) // 2) * _runs(steps[other], k // 2)
                hist[r] = hist.get(r, 0) + count
    return CornerHistogram({r: count for r, count in sorted(hist.items()) if count})


def kernel_corner_sum(hist: CornerHistogram, eps, mass, exact: bool = False) -> KernelValue:
    """Evaluate the corner-weighted sums over a histogram.

    Even R contributes to phi_plus with sign (-1)**(R//2); odd R to
    phi_minus with sign (-1)**((R-1)//2).  With ``exact=True``, ``eps`` and
    ``mass`` are taken as rationals and the components come back as
    :class:`fractions.Fraction`; in float, a sum past double range raises
    OverflowError.
    """
    if exact:
        em = Fraction(eps) * Fraction(mass)
        plus = Fraction(0)
        minus = Fraction(0)
    else:
        em = float(eps) * float(mass)
        plus = 0.0
        minus = 0.0
    for r in sorted(hist.counts):
        count = hist.counts[r]
        try:
            term = count * em**r
        except OverflowError:  # a float power raises where a float sum turns inf
            raise OverflowError(_OVERFLOW) from None
        if r % 2 == 0:
            plus += term if r % 4 == 0 else -term
        else:
            minus += term if r % 4 == 1 else -term
    if not exact and not (math.isfinite(plus) and math.isfinite(minus)):
        raise OverflowError(_OVERFLOW)
    return KernelValue(phi_plus=plus, phi_minus=minus)


def _transfer_steps(n: int, eps, mass, initial_direction: str, incoming_corner: bool,
                    exact: bool = False):
    """Yield ``(psi, denominator)`` after each of ``n`` steps.

    Row ``n`` of ``psi`` is displacement 0; column 0 holds right movers,
    column 1 left movers.  In float arithmetic ``psi`` is one complex128
    ``(2n+1, 2)`` array, a reversal weighs ``i*eps*mass`` and ``denominator``
    is None.  In exact arithmetic, with ``eps*mass = p/r`` in lowest terms,
    scaling every step by ``r`` makes a straight move weigh ``r`` and a
    reversal ``i*p``: ``psi`` is a ``(2n+1, 2, 2)`` object array of Python
    ints whose last axis is (re, im), numerators over ``denominator = r**step``.
    Float amplitudes are never multiplied by a straight weight: ``1.0 * x``
    turns a ``-0.0`` component into ``0.0``.
    """
    if exact:
        q = Fraction(eps) * Fraction(mass)
        r, rotate = q.denominator, np.array([-q.numerator, q.numerator], dtype=object)
        psi = np.zeros((2 * n + 1, 2, 2), dtype=object)
        psi[n, _COLUMN[initial_direction], 0] = 1

        def straight(a):
            return r * a

        def reverse(a):  # i*p*(re + i*im) = -p*im + i*p*re
            return rotate * a[..., ::-1]
    else:
        r, w = None, 1j * eps * mass
        psi = np.zeros((2 * n + 1, 2), dtype=np.complex128)
        psi[n, _COLUMN[initial_direction]] = 1.0

        def straight(a):
            return a

        def reverse(a):
            return w * a
    for step in range(n):
        moved = straight(psi)
        turned = reverse(psi) if incoming_corner or step > 0 else np.zeros_like(psi)
        psi = np.zeros_like(psi)
        psi[1:, 0] = moved[:-1, 0] + turned[:-1, 1]  # right movers, one row up
        psi[:-1, 1] = moved[1:, 1] + turned[1:, 0]
        yield psi, None if r is None else r ** (step + 1)


def _read(psi: np.ndarray, denominator, idx: int, final_direction: str) -> KernelValue:
    """The kernel at row ``idx`` of one state of :func:`_transfer_steps`; raises
    OverflowError on a float amplitude past double range."""
    k = psi[idx, 0] + psi[idx, 1] if final_direction == ANY else psi[idx, _COLUMN[final_direction]]
    if denominator is None:
        plus, minus = float(k.real), float(k.imag)
        if not (math.isfinite(plus) and math.isfinite(minus)):
            raise OverflowError(_OVERFLOW)
        return KernelValue(plus, minus)
    return KernelValue(Fraction(k[0], denominator), Fraction(k[1], denominator))


def kernel_transfer_matrix(problem: ChessboardProblem, exact: bool = False) -> KernelValue:
    """Kernel via n_steps applications of the per-step 2x2 transfer operator.

    The state is one complex amplitude per (position, direction) pair: a
    step moves a cell along its direction with weight 1, or reverses with
    weight ``i*eps*mass``.  Agrees with enumeration + corner sum exactly
    and scales to step counts far past the enumeration cap.  With
    ``exact=True`` the components come back as :class:`fractions.Fraction`;
    in float, a kernel past double range raises OverflowError.
    """
    n = problem.n_steps
    idx = n + problem.displacement
    if not (0 <= idx < 2 * n + 1):
        zero = Fraction(0) if exact else 0.0
        return KernelValue(zero, zero)
    with np.errstate(over="ignore", invalid="ignore"):  # _read refuses what overflowed
        for state in _transfer_steps(n, problem.step_size, problem.mass,
                                     problem.initial_direction, problem.incoming_corner, exact):
            pass
    return _read(*state, idx, problem.final_direction)


def _phase_steps(t_max: float, eps: float, mass: float) -> int:
    """Steps of a phase series up to ``t_max``; raises SpecError on a broken precondition
    or a transfer state, one complex128 (2n+1, 2) array, past the largest array."""
    if not (eps > 0):
        raise SpecError(["eps: must be positive"])
    problems = []
    if eps * mass >= 1.0:
        problems.append(f"t_max: a phase series needs eps*mass < 1 (got {eps * mass})")
    n = np.floor(t_max / eps + 1e-9)
    if n < 1:
        problems.append(f"t_max: smaller than one step of {eps}")
    elif not np.isfinite(n):
        problems.append(f"t_max: {t_max} is not a finite number of steps of {eps}")
    elif (2 * int(n) + 1) * 2 * np.dtype(np.complex128).itemsize > np.iinfo(np.intp).max:
        problems.append(f"t_max: too large: the transfer state of {n:.6g} steps passes the largest "
                        f"array, {np.iinfo(np.intp).max} bytes")
    SpecError.check(problems)
    return int(n)


def kernel_phase_series(t_max: float, eps: float, mass: float,
                        initial_direction: str = RIGHT, final_direction: str = ANY,
                        incoming_corner: bool = False) -> list[tuple[float, KernelValue]]:
    """Return-to-origin kernel K(0, t) for t = eps, 2*eps, ..., t_max.

    One transfer evolution is run and the displacement-0 amplitude read off
    after every step (odd step counts have no returning path and yield 0).
    Used to watch the carrier phase build up; requires ``eps*mass < 1``.
    Raises OverflowError at the first amplitude past double range.
    """
    n = _phase_steps(t_max, eps, mass)
    with np.errstate(over="ignore", invalid="ignore"):  # _read refuses what overflowed
        return [((step + 1) * eps, _read(*state, n, final_direction))
                for step, state in enumerate(_transfer_steps(n, eps, mass, initial_direction,
                                                             incoming_corner))]
