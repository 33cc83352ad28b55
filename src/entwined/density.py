"""Signed per-cell counting of envelope segments, and reference densities.

Counting rule: a segment contributes to every time cell its span overlaps
(zero-measure touches excluded); within each covered slab it adds its
traversal sign (+1 forward in t, -1 backward) to the channel named by its
species, in the spatial cell containing the segment midpoint of that slab.
Boundary events at exact cell edges bind to the later cell (half-open
cells).

There is one slab expansion, in float64, of the frame-applied end points
``SegmentArray.row_endpoints`` gives; each row is the straight line between
them.  Slab edges and x midpoints in cells are floored or ceiled, except
that a value within max(1e-9, 1e-12*|s|) of an integer is snapped to it
(``_snapped``).  For identity frames on the lattice's own cells this is
exact over the whole int32 half-cell range.  Slab edges of lattice rows
there are exact half cells and x midpoints exact quarter cells; float64
computes them to a few ulps, far below 1e-12*|s|.  The x midpoints take
their slope from float end points, and its rounding error times a row's
length is again a few ulps of the end points.  Up to 2**31 half cells the
tolerance stays under 1.1e-3 cells, far short of the quarter cell between a
true non-integer value and an integer.  So identity-frame counts equal the
integer half-cell expansion, as
``test_identity_frame_expansion_matches_the_integer_oracle`` checks at
origins up to 5e8 cells, and a frame that shifts a path by whole cells
counts exactly like building the path at the shifted origin.

Fields hold two integer channels: adolescent (right movers) and senescent
(left movers).  A stored segment of multiplicity w counts w times.  Stored
rows that lie on one segment of one frame, whichever way they run, are
merged before the expansion: each distinct segment is expanded once, and
each of its incidences scatter-adds its net signed weight (the sum of
time_dir * w over its rows, which may cancel to 0) straight into the
field's one store.  A count starts from an empty field: a plan (``_plan``)
refuses a field that holds any count, takes all the passes of a call
(``accumulate`` makes one, a ray fan one per ray) and, touching no store,
bounds every count and x-summed row per channel, sign and time cell.  That
bound is the one exactness rule: a plan whose bound reaches 2**53 is
refused, so every count and row a call leaves is exact as a float64, the
type profiles and fits read it as.  The count (``_count``) widens the store
once, if it must, to the narrowest signed integer type, int8 to int64, that
holds the bound, then scatters; if it raises, it zeroes what it counted.
Export writes a channel's text one row block at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import PERIOD, LatticeSpec, SpecError
from .paths import RIGHT_MOVER, EntwinedPath, SegmentArray, build_cable, right_envelope

_WIDTHS = (np.int8, np.int16, np.int32, np.int64)  # store types, narrowest first
_LOW = 2 ** 32 - 1  # low half of an int64
_EXACT_LIMIT = 2 ** 53  # store bound refused from here: float64 holds integers below it
_BLOCK = 16384  # incidences expanded at once by ``accumulate``
_FORMAT_BLOCK = 16384  # cells formatted at once by ``_format_matrix``
_UNIFORM_TOL = 1e-6  # largest spread of the time steps, relative to their mean, still called uniform
_FIT_SAMPLES = 8  # fewest samples a sinusoid fit takes
_FIT_RTOL = 1e-10  # relative width at which the frequency search stops
_FIT_TRIALS = 60  # most frequencies the search solves for one fit

CHANNELS = ("adolescent", "senescent")


class DensityField:
    """Two-channel signed-integer accumulation grid over (x, t) cells.

    Both channels live in one signed integer store, ``counts``, of shape (2,
    t_cells, x_cells); ``adolescent`` and ``senescent`` are its views
    ``counts[0]`` and ``counts[1]``.  A new store is int8 zeros, which a
    counting pass replaces with a wider one before a count could pass it.
    NumPy computes in the store's type: widen a channel before arithmetic
    on it (sums already take int64).  Cell (i, j) of each channel covers t in
    [ (t0_cell+i)*cell, +cell ) and x in [ (x0_cell+j)*cell, +cell ).
    ``wrap_x`` folds spatial indices modulo the grid width (periodic/ring
    domains).
    """

    def __init__(self, cell: float, t0_cell: int, x0_cell: int, t_cells: int, x_cells: int,
                 wrap_x: bool = False):
        if t_cells <= 0 or x_cells <= 0:
            raise ValueError("field must have positive extent")
        self.cell = float(cell)
        self.t0_cell = int(t0_cell)
        self.x0_cell = int(x0_cell)
        self.wrap_x = bool(wrap_x)
        self.counts = np.zeros((2, t_cells, x_cells), dtype=np.int8)

    @property
    def adolescent(self) -> np.ndarray:
        return self.counts[0]

    @property
    def senescent(self) -> np.ndarray:
        return self.counts[1]

    @property
    def t_cells(self) -> int:
        return self.counts.shape[1]

    @property
    def x_cells(self) -> int:
        return self.counts.shape[2]

    @property
    def origin_offset(self) -> tuple[float, float]:
        """(x, t) coordinates of the lower edge of cell (0, 0)."""
        return (self.x0_cell * self.cell, self.t0_cell * self.cell)

    def channel(self, name: str) -> np.ndarray:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
        return self.counts[CHANNELS.index(name)]

    def t_centers(self) -> np.ndarray:
        return (self.t0_cell + np.arange(self.t_cells) + 0.5) * self.cell

    def copy(self) -> "DensityField":
        out = DensityField(self.cell, self.t0_cell, self.x0_cell, self.t_cells, self.x_cells,
                           wrap_x=self.wrap_x)
        out.counts = self.counts.copy()  # in the source's type: a copy into int8 would wrap
        return out


@dataclass(frozen=True)
class Region:
    """Half-open cell-index window [t_lo, t_hi) x [x_lo, x_hi), absolute indices."""

    t_lo: int
    t_hi: int
    x_lo: int
    x_hi: int

    def slices(self, field: DensityField) -> tuple[slice, slice]:
        ti = self.t_lo - field.t0_cell
        tj = self.t_hi - field.t0_cell
        xi = self.x_lo - field.x0_cell
        xj = self.x_hi - field.x0_cell
        if not (0 <= ti < tj <= field.t_cells and 0 <= xi < xj <= field.x_cells):
            raise ValueError("region empty or outside field bounds")
        return slice(ti, tj), slice(xi, xj)


def _snapped(rounding, s):
    """``rounding`` (``np.floor`` or ``np.ceil``) of the cell coordinates
    ``s``, as int64, except that a value within max(1e-9, 1e-12*|s|) of an
    integer is that integer.

    The tolerance grows with |s| because the rounding error of a float
    cell coordinate does: a fixed 1e-9 misbins coordinates of 1e8 cells
    and more, which int32 half-cell columns still reach.
    """
    r = np.rint(s)
    near = np.abs(s - r) <= np.maximum(1e-9, 1e-12 * np.abs(s))
    return np.where(near, r, rounding(s)).astype(np.int64)


def _cell_index(rounding, value: float, cell: float) -> int:
    """``_snapped`` of the one cell coordinate ``value / cell``; OverflowError
    where it is not finite or lies past the int64 range of a cell index."""
    s = value / cell
    if not abs(s) < 2.0 ** 63:
        raise OverflowError(f"{s!r} cells from 0, past the int64 range of a cell index")
    return int(_snapped(rounding, s))


def _cell_floor(value: float, cell: float) -> int:
    return _cell_index(np.floor, value, cell)


def _cell_ceil(value: float, cell: float) -> int:
    return _cell_index(np.ceil, value, cell)


def steady_region(path: EntwinedPath, field: DensityField) -> Region:
    """Cells at least one construct period away from the path's temporal ends.

    The window is recorded on the path at construction; cells only partially
    inside it are excluded.
    """
    if path.steady_window is None:
        raise ValueError(f"path of kind {path.kind!r} has no steady window")
    lo, hi = path.steady_window
    t_lo = max(_cell_ceil(lo, field.cell), field.t0_cell)
    t_hi = min(_cell_floor(hi, field.cell), field.t0_cell + field.t_cells)
    return Region(t_lo, t_hi, field.x0_cell, field.x0_cell + field.x_cells)


def _planned_field(key: str, cell: float, t0_cell: int, x0_cell: int, t_cells: int, x_cells: int,
                   wrap_x: bool) -> DensityField:
    """A planner's empty field, or ``SpecError`` naming ``key`` where its
    store in int64, the widest, would pass the largest array."""
    size = 2 * t_cells * x_cells * np.dtype(np.int64).itemsize
    if size > np.iinfo(np.intp).max:
        raise SpecError([f"{key}: too large: the field of {t_cells} x {x_cells} cells takes "
                         f"{size} bytes, past the largest array, {np.iinfo(np.intp).max} bytes"])
    return DensityField(cell, t0_cell, x0_cell, t_cells, x_cells, wrap_x=wrap_x)


def field_for_segments(segs: SegmentArray, cell: float | None = None, pad: int = 1,
                       wrap_x: bool = False) -> DensityField:
    """Smallest cell-aligned field covering every stored row, counted or
    not, padded by ``pad`` cells."""
    if cell is None:
        cell = segs.lattice.eps
    if not segs.rows:
        raise ValueError("no segments")
    x1, t1, x2, t2 = segs.row_endpoints()
    t_lo = _cell_floor(float(min(t1.min(), t2.min())), cell) - pad
    t_hi = _cell_ceil(float(max(t1.max(), t2.max())), cell) + pad
    x_lo = _cell_floor(float(min(x1.min(), x2.min())), cell) - pad
    x_hi = _cell_ceil(float(max(x1.max(), x2.max())), cell) + pad
    return DensityField(cell, t_lo, x_lo, t_hi - t_lo, x_hi - x_lo, wrap_x=wrap_x)


def _slabs(k_lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Slab index of every incidence: each row's run k_lo, k_lo+1, ... of
    ``counts`` slabs, rows one after the other."""
    starts = np.cumsum(counts) - counts
    return np.repeat(k_lo - starts, counts) + np.arange(int(counts.sum()))


def _slab_ranges(segs: SegmentArray, cell: float, window=None):
    """Each stored row's first slab and slab count, from its frame-applied
    t end points alone (``row_times``): the slabs its t span overlaps, and
    at least the one it sits in (a frame of ``t_scale`` 0 maps a row to one
    time).  Slab edges are binned by ``_snapped``.  ``window`` (t_lo, t_hi),
    if given, then clamps each range to [t_lo, t_hi), so slabs outside it
    are never expanded."""
    t1, t2 = segs.row_times()
    k_lo = _snapped(np.floor, np.minimum(t1, t2) / cell)
    # exclusive; a row mapped to one time still covers the one slab it sits in
    k_hi = np.maximum(_snapped(np.ceil, np.maximum(t1, t2) / cell), k_lo + 1)
    if window is not None:
        np.clip(k_lo, window[0], None, out=k_lo)
        np.clip(k_hi, None, window[1], out=k_hi)
    return k_lo, (k_hi - k_lo).clip(min=0)


def _expander(segs: SegmentArray, cell: float, k_lo: np.ndarray, counts: np.ndarray):
    """``expand(a, b)``, which gives the absolute (t_cell, x_cell) and the
    stored row of every (row, covered time-cell) incidence of rows a..b-1,
    row i covering ``counts[i]`` slabs from ``k_lo[i]``.

    Each row is the straight line between its ``row_endpoints()``: a slab's
    x midpoint lies at ``x1 + slope * (t_m - t1)``, ``slope = (x2 - x1) /
    (t2 - t1)`` (0 where t2 == t1, so a row that a frame of ``t_scale`` 0
    maps to one time bins at x1), with ``t_m`` the midpoint of the slab's
    part of the row.  X midpoints are binned by ``_snapped``.  The slope's
    rounding error times a row's length stays far below the ``1e-12*|s|``
    tolerance, so identity frames still bin exactly.
    """
    x1, t1, x2, t2 = segs.row_endpoints()
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    dt = t2 - t1
    slope = np.where(dt != 0, (x2 - x1) / np.where(dt == 0, 1.0, dt), 0.0)

    def expand(a: int, b: int):
        c = counts[a:b]

        def spread(row_values):
            return np.repeat(row_values[a:b], c)

        k = _slabs(k_lo[a:b], c)
        s = np.maximum(spread(lo), k * cell)  # in place: few block-length arrays at once
        s += np.minimum(spread(hi), (k + 1) * cell)
        s *= 0.5  # the slab's t midpoint t_m, then x1 + slope * (t_m - t1), in cells
        s -= spread(t1)
        s *= spread(slope)
        s += spread(x1)
        s /= cell
        return k, _snapped(np.floor, s), np.repeat(np.arange(a, b), c)

    return expand


def _incidences(segs: SegmentArray, cell: float, window=None):
    """(t_cell, x_cell, stored row) of every incidence, the whole expansion
    at once.  ``window`` (t_lo, t_hi) keeps only slabs t_lo <= t_cell < t_hi."""
    k_lo, counts = _slab_ranges(segs, cell, window)
    return _expander(segs, cell, k_lo, counts)(0, len(counts))


def _blocks(counts: np.ndarray):
    """Consecutive row ranges (a, b) of at most ``_BLOCK`` incidences each;
    a row with more incidences than that is a range of its own."""
    ends = np.cumsum(counts)
    a = 0
    while a < len(counts):
        base = int(ends[a - 1]) if a else 0
        b = max(int(np.searchsorted(ends, base + _BLOCK, side="right")), a + 1)
        yield a, b
        a = b


def _distinct(envelope: SegmentArray):
    """Group the stored rows that are one segment: the same frame and end
    points, whichever way they run.

    Returns, per group in the order of its first stored row: that row's
    index and the net signed weight, the sum of time_dir * weight.  A row's
    end points are taken lower t first, which fixes its species.  A net
    weight past int64 raises OverflowError; it is never wrapped.
    """
    swap = envelope.t1 > envelope.t2
    ends = (np.where(swap, envelope.x2, envelope.x1), np.where(swap, envelope.t2, envelope.t1),
            np.where(swap, envelope.x1, envelope.x2), np.where(swap, envelope.t1, envelope.t2))
    keys = (*ends, envelope.frame_idx)
    order = np.lexsort(keys)  # stable: each group's rows in stored order
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(new)
    weight, sign = envelope.weight[order], envelope.time_dir[order]
    # high and low 32 bits summed apart: neither sum wraps, so a net past int64 is seen
    high = np.add.reduceat(sign * (weight >> 32), starts)
    low = np.add.reduceat(sign * (weight & _LOW), starts)
    high += low >> 32
    if high.min() < -2 ** 31 or high.max() >= 2 ** 31:
        raise OverflowError("the net weight of a segment passes int64")
    first = order[starts]
    by_first = np.argsort(first)
    return first[by_first], ((high << 32) | (low & _LOW))[by_first]


def _pass(envelope: SegmentArray):
    """A counting pass: ``envelope``'s distinct segments, first rows and net weights (``_distinct``)."""
    first, signed = _distinct(envelope)
    return envelope.subset(first), first, signed


def accumulate(field: DensityField, envelope: SegmentArray, clip: bool = False) -> DensityField:
    """Count the envelope's signed counts into the empty ``field`` (in place)
    and return it; a field that holds any count raises ValueError, untouched.

    ``envelope`` is a SegmentArray, usually ``right_envelope(path)``.  Each
    stored row counts with its multiplicity; counts are integers and the
    result is independent of segment order.  Out-of-bounds incidences raise
    unless ``clip`` is set.  With ``clip``, each row's slab range is first
    cut to the field's t window, so slabs outside it are never expanded;
    what still falls outside in x is dropped.

    Each distinct segment in a frame counts once, with its net signed
    weight: stored rows on the same segment and in the same frame are
    merged by ``_distinct`` before the expansion, whichever way they run.
    A segment whose rows cancel to weight 0 is still expanded and
    bounds-checked, and an out-of-field error names its first stored row.
    Segments are expanded in consecutive blocks of at most ``_BLOCK``
    incidences, so transient memory is one block, not the whole incidence
    list nor a copy of the field.  Each block's signed weights are
    scatter-added straight into ``field.counts``, in the store's type.  A
    call whose plan's bound (``_plan``) reaches 2**53 raises OverflowError
    before it widens the store or scatters.  A call that raises later
    leaves every count 0, though the store may stay widened.  An x-summed
    profile is a row sum of the field: ``field.channel(name).sum(axis=1)``.
    """
    if not isinstance(envelope, SegmentArray):
        raise TypeError(f"counting takes a SegmentArray, not {type(envelope).__name__}; "
                        "pass the path's right envelope, right_envelope(path)")
    if envelope.rows:
        _count(_plan(field, [_pass(envelope)], clip))
    return field


@dataclass(frozen=True)
class CountPlan:
    """A counting call planned by ``_plan``: its empty field, passes
    ``(segments, first, signed, k_lo, counts, left)`` and ``clip``, the bound
    on every count and x-summed row once counted and the type that holds it."""

    field: DensityField
    passes: list
    clip: bool
    bound: int
    dtype: np.dtype


def _plan(field: DensityField, passes, clip: bool) -> CountPlan:
    """Plan counting ``passes`` (each as ``_pass`` makes it) into ``field``,
    widening and scattering nothing: their slab ranges (``_slab_ranges``, cut
    to the field's t window with ``clip``) and one bound on every count,
    x-summed row and ray profile.  A field that holds any count raises
    ValueError, and a bound that reaches 2**53 OverflowError.

    The bound is the largest sum, over (channel, sign, time cell), of the
    |net weight| of the segments whose slab range covers the cell.  A
    segment adds at most one incidence per time cell, wrapped in x or not,
    so the passes give a cell and its x-summed row P - N, P and N sums of
    positive and negative weights, and |P - N| <= max(P, N).  The high and
    low 32 bits of each |net weight| are summed apart, so no sum wraps.
    """
    if field.counts.any():
        raise ValueError("the field already holds counts; a count starts from an empty field")
    window = (field.t0_cell, field.t0_cell + field.t_cells) if clip else None
    # left: channel 1, senescent; right movers are 0, adolescent
    planned = [(segments, first, signed, *_slab_ranges(segments, field.cell, window),
                segments.species != RIGHT_MOVER) for segments, first, signed in passes]
    span = field.t_cells + 1  # differences over the t cells, one run per (channel, sign)
    diff = np.zeros((2, 4 * span), dtype=np.int64)  # high and low halves of the sizes
    for _, _, signed, k_lo, counts, left in planned:
        size = np.abs(signed).view(np.uint64)  # |-2**63| too
        halves = (size >> 32).view(np.int64), (size & _LOW).view(np.int64)
        for ufunc, ends in ((np.add, k_lo), (np.subtract, k_lo + counts)):
            at = np.clip(ends - field.t0_cell, 0, field.t_cells)
            np.add(at, span, out=at, where=signed < 0)  # in place: no per-segment key
            np.add(at, 2 * span, out=at, where=left)
            for row, half in zip(diff, halves):
                ufunc.at(row, at, half)
    high, low = np.cumsum(diff.reshape(2, 4, span), axis=2)
    high += low >> 32
    low &= _LOW
    top = int(high.max())
    bound = (top << 32) + int(low[high == top].max())
    if bound >= _EXACT_LIMIT:
        raise OverflowError(f"counts can reach {bound}, which reaches 2**53; counts past it "
                            "would not be exact as float64")
    dtype = np.dtype(next(d for d in _WIDTHS if np.iinfo(d).max >= bound))
    return CountPlan(field, planned, clip, bound, dtype)


def _count(plan: CountPlan, profiles=None) -> None:
    """Count a plan's passes into its field, which holds no count: replace the
    store with zeros of the plan's type if that is wider, then expand and
    scatter one pass after the other, one block at a time.  ``profiles``, if
    given, holds one int64 array of shape (2, field.t_cells) per pass, to
    which each landed incidence of the pass is added too, at (channel, t):
    its x-summed profile.  A raise leaves the store and the profiles all 0.
    """
    field, clip = plan.field, plan.clip
    if plan.dtype.itemsize > field.counts.itemsize:  # never narrowed: a wider store stays
        field.counts = np.zeros(field.counts.shape, plan.dtype)
    cell, rows, cols = field.cell, field.t_cells, field.x_cells
    flat = field.counts.reshape(-1)  # a view: ``counts`` is contiguous
    views = [None] * len(plan.passes) if profiles is None else [p.reshape(-1) for p in profiles]
    try:
        for (segments, first, signed, k_lo, counts, left), view in zip(plan.passes, views):
            expand = _expander(segments, cell, k_lo, counts)
            # exact in the store's type: no landed |weight| passes the bound it was sized for
            weights = signed.astype(flat.dtype)
            # the channel is folded into the linear index, so one scatter covers both
            channel_offset = np.where(left, rows, 0)

            def scatter(a: int, b: int) -> None:
                """Scatter the landing incidences of segments a..b-1; its block
                arrays die on return, before the next block is expanded."""
                k, j, idx = expand(a, b)
                k -= field.t0_cell
                j -= field.x0_cell
                col = np.mod(j, cols) if field.wrap_x else j
                ok = (k >= 0) & (k < rows) & (col >= 0) & (col < cols)
                if not ok.all():
                    if not clip:
                        bad = int(np.flatnonzero(~ok)[0])
                        raise ValueError(
                            f"stored row {int(first[idx[bad]])} writes outside the field at cell "
                            f"(t={int(k[bad]) + field.t0_cell}, x={int(j[bad]) + field.x0_cell}); "
                            "pass clip=True to drop it"
                        )
                    k, col, idx = k[ok], col[ok], idx[ok]
                lin = k  # built in place
                lin += channel_offset[idx]
                if view is not None:
                    np.add.at(view, lin, signed[idx])
                lin *= cols
                lin += col
                np.add.at(flat, lin, weights[idx])

            for a, b in _blocks(counts):
                scatter(a, b)
    except BaseException:
        for zeroed in (flat, *views):
            if zeroed is not None:
                zeroed[:] = 0
        raise


def plan_carrier(spec: LatticeSpec, M: int, repeats: int):
    """The carrier run, planned: the cable ``build_cable((0.0, 0.0), spec, M,
    repeats)``, its ``steady_region`` in the field that covers it, padded by
    2 cells, and the plan (``_plan``) that counts its right envelope there.

    Raises ``SpecError`` for every rule ``build_cable`` refuses, a steady
    region shorter than a sinusoid fit takes, and counts the plan refuses.
    """
    cable = build_cable((0.0, 0.0), spec, M=M, repeats=repeats)
    field = field_for_segments(cable.segs, pad=2)
    region = steady_region(cable, field)
    cells = max(0, region.t_hi - region.t_lo)
    problems = []
    if cells < _FIT_SAMPLES:
        problems.append(f"repeats: steady region is only {cells} cells; a sinusoid fit needs "
                        f"at least {_FIT_SAMPLES} (increase repeats or the lattice's n)")
    try:
        counting = _plan(field, [_pass(right_envelope(cable))], clip=False)
    except OverflowError as exc:
        problems.append(f"M: {exc}")
    SpecError.check(problems)
    return cable, region, counting


# ---------------------------------------------------------------------------
# reference densities


@dataclass(frozen=True)
class ReferenceDensity:
    """Closed-form reference evaluated at lattice times, mod one period.

    kinds: fiber_unit (single-loop right-mover wave), fiber_unit_lagged
    (the same delayed a quarter period), square_wave (two-fiber sum),
    delta_chain (cord spikes; needs eps), sinusoid (no closed form:
    ``compare`` fits its amplitude, period and phase, and ``reference_eval``
    refuses it).
    """

    kind: str
    eps: float = 0.0

    KINDS = ("fiber_unit", "fiber_unit_lagged", "square_wave", "delta_chain", "sinusoid")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if self.kind == "delta_chain" and not (self.eps > 0):
            raise ValueError("delta_chain needs eps")


def _fiber_unit(t: np.ndarray) -> np.ndarray:
    m = np.mod(t, PERIOD)
    return np.where(m <= 1.0, 1.0, np.where((m > 2.0) & (m <= 3.0), -1.0, 0.0))


def _square_wave(t: np.ndarray) -> np.ndarray:
    return np.where(np.mod(t, PERIOD) < 2.0, 1.0, -1.0)


def reference_eval(ref: ReferenceDensity, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if ref.kind == "fiber_unit":
        return _fiber_unit(t)
    if ref.kind == "fiber_unit_lagged":
        return _fiber_unit(t - 1.0)
    if ref.kind == "square_wave":
        return _square_wave(t)
    if ref.kind == "delta_chain":
        return _square_wave(t) - _square_wave(t - ref.eps)
    raise ValueError("a sinusoid reference is fitted by compare, not evaluated")


# ---------------------------------------------------------------------------
# comparison and fitting


@dataclass(frozen=True)
class SinusoidFit:
    amplitude: float
    period: float
    phase: float
    offset: float
    rms_residual: float

    @property
    def rel_rms(self) -> float:
        return self.rms_residual / self.amplitude if self.amplitude else math.inf

    @property
    def omega(self) -> float:
        return 2.0 * np.pi / self.period


def _fit_at(times: np.ndarray, values: np.ndarray):
    """The least-squares a*sin(omega t) + b*cos(omega t) + c as a function of
    omega, returning its rms residual and (a, b, c).  A trial writes sin, cos
    and the five products of the 3x3 normal equations into a 9 x N scratch
    whose last two rows hold the values, sums its first eight rows in numpy's
    fixed pairwise order (never a BLAS kernel's CPU-chosen one) and solves by
    cofactors.  The rms comes from the explicit residual, not from
    y.y - coef.rhs, which would lose the objective to cancellation."""
    n = len(times)
    rows = np.empty((9, n))  # sin, cos, sin^2, cos^2, sin cos, sin y, cos y, y, y
    rows[7:] = values
    s, c, resid, part, sc, _, _, y, _ = rows
    pair, squares, cross, ys, summed = rows[0:2], rows[2:4], rows[5:7], rows[7:9], rows[:8]
    mul, sub, total = np.multiply, np.subtract, np.add.reduce

    def at(omega: float) -> tuple[float, tuple[float, float, float]]:
        np.sin(mul(omega, times, out=resid), out=s)
        np.cos(resid, out=c)
        mul(pair, pair, out=squares)
        mul(s, c, out=sc)
        mul(pair, ys, out=cross)
        g02, g12, g00, g11, g01, r0, r1, r2 = total(summed, axis=1).tolist()
        c00 = g11 * n - g12 * g12
        c01 = g02 * g12 - g01 * n
        c02 = g01 * g12 - g02 * g11
        det = g00 * c00 + g01 * c01 + g02 * c02
        if not det > 0.0:
            raise ValueError(f"singular normal equations at omega={omega!r}")
        c11 = g00 * n - g02 * g02
        c12 = g01 * g02 - g00 * g12
        c22 = g00 * g11 - g01 * g01
        coef = a, b, k = ((c00 * r0 + c01 * r1 + c02 * r2) / det, (c01 * r0 + c11 * r1 + c12 * r2) / det,
                          (c02 * r0 + c12 * r1 + c22 * r2) / det)
        sub(y, k, out=resid)
        sub(resid, mul(s, a, out=part), out=resid)
        sub(resid, mul(c, b, out=part), out=resid)
        return math.sqrt(total(mul(resid, resid, out=part)) / n), coef
    return at


def _fft_bracket(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """The frequencies one FFT bin either side of the dominant bin of the
    detrended data, ``[max(peak - 1, peak / 2), peak + 1]`` bins, with the
    top capped at the Nyquist frequency ``pi / dt``: beyond it the samples
    alias, and on it their sin and cos are collinear."""
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft(values - values.mean()))
    spec[0] = 0.0
    peak = int(np.argmax(spec))
    if peak == 0:
        raise ValueError("no oscillatory content to fit")
    bin_omega = 2.0 * np.pi / (dt * len(times))
    return bin_omega * max(peak - 1, peak / 2), min(bin_omega * (peak + 1), np.pi / dt)


def _brent(residual, lo: float, hi: float):
    """Brent's minimisation of ``residual(omega)[0]`` over ``(lo, hi)``:
    parabolic steps through the three best trials, a golden-section step
    whenever the parabola is not trusted.  It starts at the midpoint, stops
    once the bracket is within ``_FIT_RTOL`` of the best trial or after
    ``_FIT_TRIALS`` trials, and returns the best trial's omega and
    ``residual`` result.  No trial lands on ``lo`` or ``hi``."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    x = w = v = 0.5 * (a + b)
    best = residual(x)
    fx = fw = fv = best[0]
    d = e = 0.0
    for _ in range(_FIT_TRIALS - 1):
        xm = 0.5 * (a + b)
        tol1 = _FIT_RTOL * x
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        step = None
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                step = p / q
                if x + step - a < tol2 or b - (x + step) < tol2:
                    step = tol1 if xm >= x else -tol1
                e = d
        if step is None:
            e = (a - x) if x >= xm else (b - x)
            step = golden * e
        d = step
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        trial = residual(u)
        fu = trial[0]
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw = w, fw, x, fx
            x, fx, best = u, fu, trial
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, best


def fit_sinusoid(times: np.ndarray, values: np.ndarray) -> SinusoidFit:
    """Least-squares fit of a*sin(w t) + b*cos(w t) + c with free frequency.

    The frequency is searched within one FFT bin of the dominant bin of the
    detrended data, capped at the Nyquist frequency (``_fft_bracket``), by
    Brent's method (``_brent``) with a fixed relative tolerance and a fixed
    cap on trials, so results are deterministic.  Each trial frequency is
    solved once, from the 3x3 normal equations of ``_fit_at``, and the fit
    is the best trial's.

    ``times`` must be finite, increasing and uniformly spaced (the FFT
    bracket assumes so) and ``values`` finite; anything else raises
    ``ValueError``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or values.shape != times.shape:
        raise ValueError("times and values must be 1-D arrays of one length")
    if len(times) < _FIT_SAMPLES:
        raise ValueError("too few samples for a sinusoid fit")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    steps = np.diff(times)
    if not np.all(steps > 0.0):
        raise ValueError("times must be increasing")
    if np.ptp(steps) > _UNIFORM_TOL * steps.mean():
        raise ValueError("times must be uniformly spaced")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    lo, hi = _fft_bracket(times, values)

    omega, (rms, coef) = _brent(_fit_at(times, values), lo, hi)
    amp = float(np.hypot(coef[0], coef[1]))
    phase = float(np.arctan2(coef[1], coef[0]))
    return SinusoidFit(amplitude=amp, period=float(2.0 * np.pi / omega), phase=phase,
                       offset=float(coef[2]), rms_residual=rms)


def best_lag(reference: np.ndarray, delayed: np.ndarray, max_lag: int) -> int:
    """Integer lag maximizing sum(reference[i] * delayed[i + lag]).

    Scores use a fixed window of len - max_lag samples so lags compete
    fairly; ties resolve to the smallest lag.  Scores are exact: in int64
    where max|reference| * max|delayed| * window is below 2**63, else in
    Python ints.
    """
    reference = np.asarray(reference, dtype=np.int64)
    delayed = np.asarray(delayed, dtype=np.int64)
    window = len(reference) - max_lag
    if window <= 0:
        raise ValueError("max_lag leaves no overlap window")
    if len(delayed) < len(reference):
        raise ValueError("delayed is shorter than reference")
    top = math.prod(max(-int(v.min()), int(v.max())) for v in (reference, delayed))
    if top * window >= 2 ** 63:  # an int64 score could wrap
        reference, delayed = reference.astype(object), delayed.astype(object)
    # row lag of the view is delayed[lag:lag + window]; numpy's own loop, not BLAS
    scores = sliding_window_view(delayed[:len(reference)], window) @ reference[:window]
    return int(np.argmax(scores))


@dataclass(frozen=True)
class ErrorReport:
    l_inf: float
    rms: float
    fitted: SinusoidFit | None = None


def compare(field: DensityField, ref: ReferenceDensity, channel: str, region: Region) -> ErrorReport:
    """Compare a channel's x-summed profile against a reference at cell centers.

    For the sinusoid kind the amplitude/period/phase are least-squares
    fitted first and residuals are reported against the fit.
    """
    ts, xs = region.slices(field)
    profile = field.channel(channel)[ts, xs].sum(axis=1).astype(float)
    centers = field.t_centers()[ts]
    if ref.kind == "sinusoid":
        fit = fit_sinusoid(centers, profile)
        model = (fit.amplitude * np.sin(fit.omega * centers + fit.phase) + fit.offset)
        diff = profile - model
        return ErrorReport(l_inf=float(np.max(np.abs(diff))),
                           rms=float(np.sqrt(np.mean(diff**2))), fitted=fit)
    expected = reference_eval(ref, centers)
    diff = profile - expected
    return ErrorReport(l_inf=float(np.max(np.abs(diff))), rms=float(np.sqrt(np.mean(diff**2))))


# ---------------------------------------------------------------------------
# export


def _tokens(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width text tokens of a 1-D signed integer vector, as rows of uint32 words.

    A token is the sign, the digits right-aligned and ``\\t``, in a row of
    whole 4-byte words; a missing sign, leading zeros and the padding in
    front are zero bytes.  Returns that table and a copy whose tokens end in
    ``\\n``, for a row's last column.  Magnitudes are taken in uint64, so
    each type's least value, -2**63 included, renders exactly.
    """
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modular: |v| for every value, -2**63 included
    top = int(mag.max())
    mag = mag.astype(np.min_scalar_type(top))  # narrow ints divide faster
    digits = len(str(top))
    width = -(-(digits + 2) // 4) * 4
    tab = np.zeros((values.size, width), dtype=np.uint8)
    tab[:, width - digits - 2] = neg * np.uint8(ord("-"))
    tab[:, -1] = ord("\t")
    rem = mag
    for d in range(digits):
        quot = rem // 10
        digit = (rem - quot * 10).astype(np.uint8) + np.uint8(ord("0"))
        if d:
            digit *= mag >= 10 ** d  # zero past the leading digit
        tab[:, width - 2 - d] = digit
        rem = quot
    newline = tab.copy()
    newline[:, -1] = ord("\n")
    return tab.view(np.uint32), newline.view(np.uint32)


def _format_matrix(matrix: np.ndarray):
    """Decimal text of a 2-D signed integer matrix in blocks of rows whose
    join is what ``np.savetxt(f, matrix, fmt="%d", delimiter="\\t")`` writes.

    Each distinct value is formatted once.  When the matrix spans fewer
    values than it has cells, the table is every value from its minimum to
    its maximum, and a cell indexes it by ``value - min``, taken in int64;
    otherwise each block formats its own cells.  A block holds whole rows,
    about ``_FORMAT_BLOCK`` cells (a row wider than that is a block of its
    own): it gathers its cells' tokens as uint32 words, takes its last
    column from the ``\\n`` table, and drops the zero bytes with
    ``bytes.translate``.  With the shared table, every block fills the same
    buffers, so a consumer that writes each block holds no more than one.
    """
    rows, cols = matrix.shape
    lo, hi = int(matrix.min()), int(matrix.max())  # Python ints: hi - lo cannot wrap
    shared = hi - lo < matrix.size
    step = max(1, _FORMAT_BLOCK // cols)
    if shared:
        tab, newline = _tokens(np.arange(hi - lo + 1, dtype=np.int64) + lo)
        index_buf = np.empty((min(step, rows), cols), dtype=np.int64)
        words_buf = np.empty(index_buf.shape + tab.shape[1:], dtype=tab.dtype)
    for r in range(0, rows, step):
        block = matrix[r:r + step]
        if shared:
            # filled in place, in int64 (in a narrow store's type value - lo
            # could wrap); mode="clip" keeps np.take from buffering (indices are in range)
            index = np.subtract(block, lo, out=index_buf[:len(block)], dtype=np.int64)
            words = np.take(tab, index, axis=0, out=words_buf[:len(block)], mode="clip")
        else:
            tab, newline = _tokens(block.ravel())
            index = np.arange(block.size).reshape(block.shape)
            words = np.take(tab, index, axis=0)
        words[:, -1] = np.take(newline, index[:, -1], axis=0)
        yield words.tobytes().translate(None, b"\0")


def export_field(field: DensityField, directory, basename: str, write) -> list:
    """Write one integer matrix per channel plus a JSON metadata record.

    Returns the written paths.  Matrices are tab-delimited rows (one row per
    time cell, each ending in ``\\n``) of decimal integers with a leading
    ``-`` for negatives and no header; integers render exactly, so files are
    bit-reproducible.  Each file is written by the caller's ``write(path,
    chunks)``, given an iterable of bytes whose join is the file (a matrix's
    row blocks are formatted as they are asked for, which cannot raise).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in CHANNELS:
        path = directory / f"{basename}.{name}.tsv"
        write(path, _format_matrix(field.channel(name)))
        written.append(path)
    meta = {
        "cell_size": field.cell,
        "origin_offset": {"x": field.origin_offset[0], "t": field.origin_offset[1]},
        "origin_cell": {"x": field.x0_cell, "t": field.t0_cell},
        "t_cells": field.t_cells,
        "x_cells": field.x_cells,
        "wrap_x": field.wrap_x,
        "channels": list(CHANNELS),
    }
    meta_path = directory / f"{basename}.meta.json"
    write(meta_path, ((json.dumps(meta, sort_keys=True, indent=2) + "\n").encode(),))
    written.append(meta_path)
    return written
