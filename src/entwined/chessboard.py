"""Lattice zigzag kernel on the 1+1 light-cone lattice.

Paths take ``n_steps`` unit steps, each one cell right or left; a corner is
an adjacent pair of opposite steps and every corner carries the weight
``i * eps * mass``.  The kernel splits into real and imaginary parts by
corner count mod 4:

    phi_plus  = sum over R = 0, 4, ... minus sum over R = 2, 6, ...
    phi_minus = sum over R = 1, 5, ... minus sum over R = 3, 7, ...

with each term ``N(R) * (eps * mass)**R``.  Two independent routes are
provided: the corner-weighted sum over a histogram from exhaustive
enumeration of step sequences, and a position-resolved transfer-matrix
evolution, in float or exact arithmetic, that scales far beyond the
enumeration cap.

Direction conventions: the first step equals ``initial_direction`` by
default.  With ``incoming_corner=True`` the first step is free and
``initial_direction`` is read as the incoming direction of travel, so an
immediate reversal counts one corner.  ``final_direction`` restricts the
last step ("any" sums both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import SpecError

RIGHT = "right"
LEFT = "left"
ANY = "any"

ENUMERATION_CAP = 24
_COLUMN = {RIGHT: 0, LEFT: 1}


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

    def as_complex(self) -> complex:
        return complex(self.phi_plus) + 1j * complex(self.phi_minus)


def _check_cap(n_steps: int) -> None:
    if n_steps > ENUMERATION_CAP:
        raise SpecError([f"n_steps: exceeds enumeration cap {ENUMERATION_CAP} "
                         f"(enumeration too large: n_steps={n_steps} > {ENUMERATION_CAP})"])


def _half_table(width: int) -> np.ndarray:
    """Counts of all ``2**width`` bit patterns (bit = left step), indexed
    ``[first bit, last bit, lefts, internal corners]``.

    The corner axis has ``width + 1`` entries so one extra corner fits.
    """
    b = np.arange(1 << width, dtype=np.uint64)
    first = (b & np.uint64(1)).astype(np.int64)
    last = (b >> np.uint64(width - 1)).astype(np.int64)
    lefts = np.bitwise_count(b).astype(np.int64)
    pair_mask = np.uint64((1 << (width - 1)) - 1)
    corners = np.bitwise_count((b ^ (b >> np.uint64(1))) & pair_mask).astype(np.int64)
    size = width + 1
    flat = ((first * 2 + last) * size + lefts) * size + corners
    return np.bincount(flat, minlength=4 * size * size).reshape(2, 2, size, size)


def _first_step(table: np.ndarray, init_bit: int, incoming: bool) -> np.ndarray:
    """Drop the leading first-bit axis under the first-step constraint."""
    if not incoming:
        return table[init_bit]
    out = table[init_bit].copy()
    out[..., 1:] += table[1 - init_bit][..., :-1]  # immediate reversal: one corner
    return out


def _last_step(table: np.ndarray, final_bit: int | None) -> np.ndarray:
    """Drop the last-bit axis (third from the end) under ``final_direction``."""
    return table.sum(axis=-3) if final_bit is None else table[..., final_bit, :, :]


def enumerate_corner_histogram(problem: ChessboardProblem) -> CornerHistogram:
    """Count corners over every step sequence consistent with the problem.

    Sequences are bit masks (bit = left step) split into a low half of
    ``n_steps // 2`` bits and a high half of the rest.  Each half's
    ``2**width`` patterns are counted exhaustively by (first bit, last bit,
    lefts, corners); the halves are joined by convolving their corner counts
    over left counts that add up to the displacement, with one more corner
    where the boundary bits differ.  Per-R counts are integers, so the result
    equals a walk over all sequences.  Raises when ``n_steps`` exceeds
    ``ENUMERATION_CAP``.
    """
    n = problem.n_steps
    _check_cap(n)
    if not problem.has_paths:
        return CornerHistogram({})
    init_bit = 0 if problem.initial_direction == RIGHT else 1
    final_bit = {RIGHT: 0, LEFT: 1}.get(problem.final_direction)
    lefts = (n - problem.displacement) // 2
    low_bits = n // 2
    high = _last_step(_half_table(n - low_bits), final_bit)  # [first, lefts, corners]
    if low_bits == 0:  # n == 1: the high half holds the first step too
        hist = _first_step(high, init_bit, problem.incoming_corner)[lefts]
    else:
        low = _first_step(_half_table(low_bits), init_bit, problem.incoming_corner)  # [last, lefts, corners]
        hist = np.zeros(n + 2, dtype=np.int64)
        for low_lefts in range(max(0, lefts - (n - low_bits)), min(low_bits, lefts) + 1):
            for a in (0, 1):
                for b in (0, 1):
                    joined = np.convolve(low[a, low_lefts], high[b, lefts - low_lefts])
                    shift = int(a != b)
                    hist[shift:shift + joined.size] += joined
    return CornerHistogram({int(r): int(c) for r, c in enumerate(hist) if c})


def kernel_corner_sum(hist: CornerHistogram, eps, mass, exact: bool = False) -> KernelValue:
    """Evaluate the corner-weighted sums over a histogram.

    Even R contributes to phi_plus with sign (-1)**(R//2); odd R to
    phi_minus with sign (-1)**((R-1)//2).  With ``exact=True``, ``eps`` and
    ``mass`` are taken as rationals and the components come back as
    :class:`fractions.Fraction`.
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
        term = count * em**r
        if r % 2 == 0:
            plus += term if r % 4 == 0 else -term
        else:
            minus += term if r % 4 == 1 else -term
    if not exact and not (np.isfinite(plus) and np.isfinite(minus)):
        raise OverflowError("corner sum overflowed double precision; use exact=True")
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
    """The kernel at row ``idx`` of one state of :func:`_transfer_steps`."""
    k = psi[idx, 0] + psi[idx, 1] if final_direction == ANY else psi[idx, _COLUMN[final_direction]]
    if denominator is None:
        return KernelValue(float(k.real), float(k.imag))
    return KernelValue(Fraction(k[0], denominator), Fraction(k[1], denominator))


def kernel_transfer_matrix(problem: ChessboardProblem, exact: bool = False) -> KernelValue:
    """Kernel via n_steps applications of the per-step 2x2 transfer operator.

    The state is one complex amplitude per (position, direction) pair: a
    step moves a cell along its direction with weight 1, or reverses with
    weight ``i*eps*mass``.  Agrees with enumeration + corner sum exactly
    and scales to step counts far past the enumeration cap.  With
    ``exact=True`` the components come back as :class:`fractions.Fraction`.
    """
    n = problem.n_steps
    idx = n + problem.displacement
    if not (0 <= idx < 2 * n + 1):
        zero = Fraction(0) if exact else 0.0
        return KernelValue(zero, zero)
    for state in _transfer_steps(n, problem.step_size, problem.mass, problem.initial_direction,
                                 problem.incoming_corner, exact):
        pass
    return _read(*state, idx, problem.final_direction)


def _phase_steps(t_max: float, eps: float, mass: float) -> int:
    """Steps of a phase series up to ``t_max``; raises SpecError on a broken precondition."""
    if not (eps > 0):
        raise SpecError(["eps: must be positive"])
    problems = []
    if eps * mass >= 1.0:
        problems.append(f"t_max: a phase series needs eps*mass < 1 (got {eps * mass})")
    n = int(np.floor(t_max / eps + 1e-9))
    if n < 1:
        problems.append(f"t_max: smaller than one step of {eps}")
    SpecError.check(problems)
    return n


def kernel_phase_series(t_max: float, eps: float, mass: float,
                        initial_direction: str = RIGHT, final_direction: str = ANY,
                        incoming_corner: bool = False) -> list[tuple[float, KernelValue]]:
    """Return-to-origin kernel K(0, t) for t = eps, 2*eps, ..., t_max.

    One transfer evolution is run and the displacement-0 amplitude read off
    after every step (odd step counts have no returning path and yield 0).
    Used to watch the carrier phase build up; requires ``eps*mass < 1``.
    """
    n = _phase_steps(t_max, eps, mass)
    return [((step + 1) * eps, _read(*state, n, final_direction))
            for step, state in enumerate(_transfer_steps(n, eps, mass, initial_direction, incoming_corner))]
