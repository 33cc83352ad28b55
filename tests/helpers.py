"""Independent oracles used across the test suite.

These deliberately avoid the library's path/accumulation machinery: the
chessboard oracle walks explicit step tuples, the profile oracle stamps
the closed-form single-loop density directly onto cell arrays, and field
text is checked against numpy's own ``savetxt``.  The exceptions check
counting against itself: clipped counting against the library's slab
expansion with no window, masked afterwards and added up with
``np.add.at``; the store bound of a counting pass, summed over the same
incidences; and a fan counted one ray at a time against the whole fan
stacked into one multi-frame array and counted by ``accumulate``.  Identity-frame
counting is checked against an integer slab expansion, which bins in
half-cell integers and never rounds, and framed counting against one that
applies each frame in Fractions and rounds only in the final binning.  The sinusoid fit is checked
against the same search with each trial frequency's normal equations summed
by ``math.fsum`` and solved exactly in Fractions, and against the
golden-section search it replaced; the channel lag against one sum of
Python-int products per lag.  A ray's
cord repeats are checked by trying repeats counts against the shared
steady-window formula.  A path's continuity is checked by expanding it
into its logical segments, one row each, and comparing every consecutive
pair.
"""

import io
import math
from fractions import Fraction
from itertools import product

import numpy as np

from entwined.density import (DensityField, SinusoidFit, _brent, _cell_ceil, _cell_floor,
                              _fft_bracket, _incidences, _slabs, accumulate)
from entwined.paths import (_JOIN_ULPS, RIGHT_MOVER, SegmentArray, build_cable,
                            cable_steady_window, right_envelope)
from entwined.propagator import RaySpec, ray_repeats, write_ray


def continuity_by_expansion(path):
    """The expanding continuity check: every consecutive pair of the
    path's logical segments, same-frame pairs compared exactly in half-cell
    integers, cross-frame pairs in frame-applied floats to within
    ``_JOIN_ULPS`` ulps of the largest |coordinate| of the two segments.
    Raises AssertionError naming the first broken pair's logical segments."""
    s = path.segs.expand()
    if s.rows < 2:
        return
    same = s.frame_idx[1:] == s.frame_idx[:-1]
    ok_int = (s.x1[1:] == s.x2[:-1]) & (s.t1[1:] == s.t2[:-1])
    bad = same & ~ok_int
    if bad.any():
        i = int(np.nonzero(bad)[0][0]) + 1
        raise AssertionError(f"discontinuity between segments {i - 1} and {i}")
    if (~same).any():
        x1, t1, x2, t2 = s.row_endpoints()
        cross = np.nonzero(~same)[0] + 1
        before = cross - 1
        scale = np.abs([x1[before], t1[before], x2[before], t2[before],
                        x1[cross], t1[cross], x2[cross], t2[cross]]).max(axis=0)
        tol = _JOIN_ULPS * np.spacing(scale)
        mis = (np.abs(x1[cross] - x2[before]) > tol) | (np.abs(t1[cross] - t2[before]) > tol)
        if mis.any():
            i = int(cross[np.nonzero(mis)[0][0]])
            raise AssertionError(f"discontinuity at frame change before segment {i}")


def brute_corners(n_steps, displacement, initial="right", final="any", incoming=False):
    """Yield the corner count of every matching +-1 step tuple, in a fixed order."""
    init = +1 if initial == "right" else -1
    firsts = [+1, -1] if incoming else [init]
    for first in firsts:
        for rest in product((+1, -1), repeat=n_steps - 1):
            seq = (first,) + rest
            if sum(seq) != displacement:
                continue
            if final == "right" and seq[-1] != +1:
                continue
            if final == "left" and seq[-1] != -1:
                continue
            corners = sum(1 for a, b in zip(seq, seq[1:]) if a != b)
            if incoming and first != init:
                corners += 1
            yield corners


def brute_histogram(n_steps, displacement, initial="right", final="any", incoming=False):
    """Corner histogram by explicit enumeration of +-1 step tuples."""
    hist = {}
    for corners in brute_corners(n_steps, displacement, initial, final, incoming):
        hist[corners] = hist.get(corners, 0) + 1
    return hist


def brute_kernel(n_steps, displacement, eps, mass, initial="right", final="any", incoming=False):
    """Kernel directly as sum over paths of (i*eps*mass)**corners."""
    total = 0j
    for corners in brute_corners(n_steps, displacement, initial, final, incoming):
        total += (1j * eps * mass) ** corners
    return total


def brute_kernel_exact(n_steps, displacement, q, initial="right", final="any", incoming=False):
    """Kernel as exact (real, imaginary) Fractions: the sum over paths of (i*q)**corners.

    ``q`` (eps*mass) is taken as ``Fraction(q)``, so a float is its exact
    binary value.  Powers of i*q are built by explicit multiplication.
    """
    q = Fraction(q)
    powers = [(Fraction(1), Fraction(0))]  # (i*q)**R as (real, imaginary)
    for _ in range(n_steps + 1):
        re, im = powers[-1]
        powers.append((-im * q, re * q))
    re = im = Fraction(0)
    for corners in brute_corners(n_steps, displacement, initial, final, incoming):
        re += powers[corners][0]
        im += powers[corners][1]
    return re, im


def loop_cells(n):
    """Per-cell right-mover counts of one loop over its own period (2n cells)."""
    col = np.zeros(2 * n, dtype=np.int64)
    col[0 : n // 2] = 1
    col[n : 3 * n // 2] = -1
    return col


def profile_oracle(n, fiber_offsets_cells, t_cells, lagged=False):
    """Stamp loop_cells at each (offset_cells, weight) pair onto a profile.

    ``fiber_offsets_cells`` is an iterable of (offset_in_cells, weight).
    With ``lagged=True`` the left-mover channel (delayed a quarter period)
    is produced instead.
    """
    base = loop_cells(n)
    if lagged:
        base = np.roll(np.concatenate([base, np.zeros(n // 2, dtype=np.int64)]), n // 2)
    prof = np.zeros(t_cells, dtype=np.int64)
    for off, weight in fiber_offsets_cells:
        lo = off
        hi = min(off + len(base), t_cells)
        if lo >= t_cells or hi <= lo:
            continue
        prof[lo:hi] += weight * base[: hi - lo]
    return prof


def cord_fiber_offsets(n, origin_cells=0, repeats=1):
    """Fiber offsets (in cells) of a cord train: quartets one period apart."""
    quartet = [0, n // 2, n + 1, 3 * n // 2 + 1]
    out = []
    for r in range(repeats):
        out.extend(origin_cells + q + 2 * n * r for q in quartet)
    return out


def savetxt_bytes(matrix):
    """The bytes ``np.savetxt`` writes for an integer matrix, tab-delimited."""
    buf = io.BytesIO()
    np.savetxt(buf, matrix, fmt="%d", delimiter="\t")
    return buf.getvalue()


def int64_copy(field):
    """A copy of ``field`` in an int64 store, the widest: counting into it
    never widens it, and no sum in it wraps."""
    out = field.copy()
    out.counts = out.counts.astype(np.int64)
    return out


def fan_envelopes(region, M):
    """An empty int64 field of the region's cells (``int64_copy``), each
    ray's counted rows, framed by ``write_ray`` on a cable built for that ray
    alone, and those rows stacked into one multi-frame array whose
    ``frame_idx`` is the ray's index."""
    lattice = region.lattice
    cell = lattice.cell_physical
    t0 = _cell_floor(region.t_range[0], cell)
    x0 = _cell_floor(region.x_range[0], cell)
    field = DensityField(cell, t0, x0, _cell_ceil(region.t_range[1], cell) - t0,
                         _cell_ceil(region.x_range[1], cell) - x0)
    envelopes = []
    for v in region.ray_fan:
        ray = RaySpec.from_velocity(v, lattice.mass, region.t_range)
        cable = build_cable((0.0, 0.0), lattice, M=M, repeats=ray_repeats(ray, lattice, M))
        envelopes.append(right_envelope(write_ray(ray, cable)))
    frames = [envelope.frames[0] for envelope in envelopes]
    stacked = SegmentArray.stack([envelope.reframed(i, frames)
                                  for i, envelope in enumerate(envelopes)], frames)
    return int64_copy(field), envelopes, stacked


def one_pass_fan(region, M):
    """A fan counted the one-pass way: its stacked rows (``fan_envelopes``)
    counted by one clipped ``accumulate`` into an int64 field of the
    region's cells.  A ray's (2, t_cells) profile is its own rows counted
    the same way alone and summed over x.  Returns the field and the (rays,
    2, t_cells) profiles."""
    field, envelopes, stacked = fan_envelopes(region, M)
    profiles = np.stack([accumulate(field.copy(), envelope, clip=True).counts.sum(axis=2)
                         for envelope in envelopes])
    return accumulate(field, stacked, clip=True), profiles


def expand_then_mask(field, envelope):
    """What ``accumulate(field, envelope, clip=True)`` should leave in a copy of
    ``field``: every slab of every row expanded with no window, the
    incidences outside the field dropped, the rest added one at a time, into
    an int64 copy (``int64_copy``)."""
    out = int64_copy(field)
    k, j, idx = _incidences(envelope, field.cell)
    k = k - field.t0_cell
    j = j - field.x0_cell
    if field.wrap_x:
        j = np.mod(j, field.x_cells)
    inside = (k >= 0) & (k < field.t_cells) & (j >= 0) & (j < field.x_cells)
    signed = (envelope.time_dir.astype(np.int64) * envelope.weight)[idx]
    right = (envelope.species == RIGHT_MOVER)[idx]
    for channel, keep in ((out.adolescent, inside & right), (out.senescent, inside & ~right)):
        np.add.at(channel, (k[keep], j[keep]), signed[keep])
    return out


def held_bound(field):
    """The largest |count| or |x-summed row| of a channel that ``field``
    holds, summed in Python ints."""
    counts = field.counts.astype(object)
    return int(max(np.abs(counts).max(), np.abs(counts.sum(axis=2)).max()))


def channel_sign_bound(field, envelope):
    """The bound a counting pass of ``envelope`` into ``field`` sizes its
    store by, summed over incidences: the largest |count| or |x-summed row|
    ``field`` holds (``held_bound``) plus the largest sum, over (channel,
    sign, time cell of the field), of the |net weight| of the segments of
    that channel and sign with an incidence in that time cell.  A segment is
    a frame and a pair of end points, lower t first; its net weight sums
    time_dir * weight over its stored rows, whichever way they run."""
    net, first = {}, {}
    rows = zip(envelope.frame_idx.tolist(), envelope.x1.tolist(), envelope.t1.tolist(),
               envelope.x2.tolist(), envelope.t2.tolist(), envelope.weight.tolist())
    for row, (frame, x1, t1, x2, t2, weight) in enumerate(rows):
        key = (frame, x1, t1, x2, t2) if t1 < t2 else (frame, x2, t2, x1, t1)
        net[key] = net.get(key, 0) + (weight if t1 < t2 else -weight)
        first.setdefault(key, row)
    row_net = np.zeros(envelope.rows, dtype=np.int64)  # 0 on all but a segment's first row
    row_net[list(first.values())] = [net[key] for key in first]
    k, _, idx = _incidences(envelope, field.cell)
    k = k - field.t0_cell
    keep = (k >= 0) & (k < field.t_cells) & (row_net[idx] != 0)
    k, idx = k[keep], idx[keep]
    group = 2 * (envelope.species != RIGHT_MOVER)[idx] + (row_net[idx] < 0)
    sums = np.zeros((4, field.t_cells), dtype=np.int64)
    np.add.at(sums, (group, k), np.abs(row_net[idx]))
    return held_bound(field) + int(sums.max())


def rows_int(segs, window=None):
    """Row phase of the exact integer slab expansion for identity-frame segments.

    Returns each stored row's first slab and slab count, and ``expand(a,
    b)``, which gives the absolute (t_cell, x_cell) and the stored row of
    every (row, covered time-cell) incidence of rows a..b-1, all in
    half-cell integer math.  ``window`` (t_lo, t_hi), if given, clamps each
    row's slab range to [t_lo, t_hi), so slabs outside it are never expanded.
    """
    x1 = segs.x1.astype(np.int64)
    t1 = segs.t1.astype(np.int64)
    x2 = segs.x2.astype(np.int64)
    t2 = segs.t2.astype(np.int64)
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    k_lo = lo // 2
    k_hi = (hi - 1) // 2 + 1  # exclusive; zero-measure touch of the next cell excluded
    if window is not None:
        np.clip(k_lo, window[0], None, out=k_lo)
        np.clip(k_hi, None, window[1], out=k_hi)
    counts = (k_hi - k_lo).clip(min=0)
    slope = np.sign((x2 - x1) * (t2 - t1))

    def expand(a: int, b: int):
        c = counts[a:b]

        def spread(row_values):
            return np.repeat(row_values[a:b], c)

        k = _slabs(k_lo[a:b], c)
        # midpoint of the covered part of slab k, in doubled half-cell units
        t2x = np.maximum(spread(lo), 2 * k) + np.minimum(spread(hi), 2 * k + 2)
        x2x = 2 * spread(x1) + spread(slope) * (t2x - 2 * spread(t1))
        return k, np.floor_divide(x2x, 4), np.repeat(np.arange(a, b), c)

    return k_lo, counts, expand


def incidences_int(segs, window=None):
    """(t_cell, x_cell, stored row) of every incidence of identity-frame
    ``segs`` on the lattice's own cells, by ``rows_int``."""
    _, counts, expand = rows_int(segs, window)
    return expand(0, len(counts))


def incidences_exact(segs, cell, window=None):
    """(t_cell, x_cell, stored row) of every incidence of ``segs``, each
    row's frame applied in Fractions of the frame's float fields.

    Slab edges and x midpoints are exact; only their binning follows the
    library's rule: a value within max(1e-9, 1e-12*|s|) of an integer ``s``
    is that integer, others are floored or ceiled.  ``window`` (t_lo, t_hi),
    if given, clamps each row's slab range to [t_lo, t_hi).
    """
    half = Fraction(segs.lattice.half)
    cell = Fraction(cell)

    def snapped(rounding, s):
        r = round(s)
        return r if abs(s - r) <= max(Fraction(1e-9), Fraction(1e-12) * abs(s)) else rounding(s)

    out = []
    for row in range(segs.rows):
        f = segs.frames[segs.frame_idx[row]]
        ts, xs, drift, x0, t0 = (Fraction(value) for value in
                                 (f.t_scale, f.x_scale, f.drift, f.x0, f.t0))
        ta = ts * int(segs.t1[row]) * half + t0
        tb = ts * int(segs.t2[row]) * half + t0
        xa = xs * int(segs.x1[row]) * half + drift * ta + x0
        xb = xs * int(segs.x2[row]) * half + drift * tb + x0
        lo, hi = min(ta, tb), max(ta, tb)
        k_lo = snapped(math.floor, lo / cell)
        k_hi = max(snapped(math.ceil, hi / cell), k_lo + 1)
        if window is not None:
            k_lo, k_hi = max(k_lo, window[0]), min(k_hi, window[1])
        for k in range(k_lo, k_hi):
            t_m = (max(lo, k * cell) + min(hi, (k + 1) * cell)) / 2
            x_m = xa + (xb - xa) / (tb - ta) * (t_m - ta) if tb != ta else xa
            out.append((k, snapped(math.floor, x_m / cell), row))
    k, j, idx = np.array(out, dtype=np.int64).reshape(-1, 3).T
    return k, j, idx


def framed_window_end(ray, spec, counts, repeats):
    """Where the steady window of the cable with ``counts`` cords per shift
    and ``repeats`` repeats ends once ``write_ray`` has framed it onto
    ``ray``: retuned by m/omega and started at ``ray.t_span[0]``."""
    t_scale = spec.mass_scale * spec.mass / ray.omega
    lo, hi = cable_steady_window(spec, counts, repeats)
    return t_scale * hi + (ray.t_span[0] - t_scale * lo)


def repeats_covering(ray, spec, counts):
    """The fewest repeats whose framed steady window (``framed_window_end``)
    reaches ``ray.t_span[1]``: the rule ``ray_repeats`` states, found by
    trying one repeats count after another."""
    repeats = 1
    while framed_window_end(ray, spec, counts, repeats) < ray.t_span[1]:
        repeats += 1
    return repeats


def _solve3(gram, rhs):
    """The exact solution, as Fractions, of the 3x3 system ``gram @ x = rhs``
    of floats, by Cramer's rule in integers: every float is an integer over
    a power of two, so one common power scales them all to integers."""
    exact = [Fraction(v) for v in (*gram[0], *gram[1], *gram[2], *rhs)]
    scale = max(f.denominator for f in exact)
    m = [int(f * scale) for f in exact]
    rows, b = [m[0:3], m[3:6], m[6:9]], m[9:12]

    def det(g):
        return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
                - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
                + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))
    whole = det(rows)
    if whole == 0:
        raise ValueError("singular normal equations")
    return [Fraction(det([r[:i] + [v] + r[i + 1:] for r, v in zip(rows, b)]), whole) for i in range(3)]


def exact_residual(times, values):
    """rms residual and coefficients of the fit at one frequency, as a function
    of omega: the normal equations of the sampled sin, cos and 1 summed by
    ``math.fsum`` (each sum correctly rounded) and solved exactly
    (``_solve3``), and the rms of the explicit residual summed by
    ``math.fsum``.  No BLAS or LAPACK call is made, so no CPU changes a bit
    of it."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)

    def fsum(x):
        return math.fsum(x.tolist())
    n, y = len(times), fsum(values)

    def residual(omega: float):
        s, c = np.sin(omega * times), np.cos(omega * times)
        ss, sc, cc, sy, cy, s1, c1 = (fsum(s * s), fsum(s * c), fsum(c * c), fsum(s * values),
                                      fsum(c * values), fsum(s), fsum(c))
        coef = [float(x) for x in _solve3([[ss, sc, s1], [sc, cc, c1], [s1, c1, n]], [sy, cy, y])]
        resid = values - coef[0] * s - coef[1] * c - coef[2]
        return math.sqrt(fsum(resid * resid) / n), coef
    return residual


def _sinusoid_fit(omega, rms, coef):
    return SinusoidFit(amplitude=float(np.hypot(coef[0], coef[1])), period=float(2.0 * np.pi / omega),
                       phase=float(np.arctan2(coef[1], coef[0])), offset=float(coef[2]),
                       rms_residual=rms)


def fit_sinusoid_oracle(times, values):
    """The sinusoid fit with an exact solve per trial: ``fit_sinusoid``'s
    bracket and Brent search with every trial frequency solved by
    ``exact_residual``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = _fft_bracket(times, values)
    omega, (rms, coef) = _brent(exact_residual(times, values), lo, hi)
    return _sinusoid_fit(omega, rms, coef)


def fit_sinusoid_golden(times, values):
    """The sinusoid fit ``fit_sinusoid`` replaced, solved exactly
    (``exact_residual``): a 90-step golden-section search over 0.6-1.6
    times the dominant FFT bin."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    residual = exact_residual(times, values)
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft(values - values.mean()))
    spec[0] = 0.0
    omega0 = 2.0 * np.pi * int(np.argmax(spec)) / (dt * len(times))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.6 * omega0, 1.6 * omega0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, _ = residual(c)
    fd, _ = residual(d)
    for _ in range(90):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc, _ = residual(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd, _ = residual(d)
    omega = 0.5 * (a + b)
    return _sinusoid_fit(omega, *residual(omega))


def best_lag_loop(reference, delayed, max_lag):
    """``best_lag`` as one sum of products per lag, scored in Python ints,
    which never wrap; the first of equal scores wins."""
    reference = [int(v) for v in reference]
    delayed = [int(v) for v in delayed]
    window = len(reference) - max_lag
    if window <= 0:
        raise ValueError("max_lag leaves no overlap window")
    scores = [sum(a * b for a, b in zip(reference[:window], delayed[lag:lag + window]))
              for lag in range(max_lag + 1)]
    return scores.index(max(scores))
