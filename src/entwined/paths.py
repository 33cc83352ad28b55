"""Entwined path construction: fibers, cords, cables.

A path is a single continuous space-time polyline whose segments may run
backward in time.  Vertices of lattice-aligned constructs sit on the
half-cell grid, so segment endpoints are stored as integer multiples of
``eps/2`` and continuity is checked with integer equality.  Each segment
belongs to a ``Frame`` that maps the integer geometry to output coordinates:
a time stretch (carrier retuning), a spatial scale, a shear ``x -> x + v*t``
(drift), and an offset.

The canonical drift-free fiber is the 8-segment closed loop

    (0,0) -> (1,1) -> (0,2) -> (-1,3) -> (0,4)      forward in t
          -> (1,3) -> (0,2) -> (-1,1) -> (0,0)      backward in t

whose right envelope (the four segments with x >= 0) carries the published
single-loop densities: right movers +1 on [0,1] and -1 on (2,3], left movers
the same pattern delayed by one quarter period.

Concatenation joins constructs with connector segments that are excluded
from density counting (envelope value 0), so joining never perturbs any
accumulated density while the whole construct remains one continuous path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .lattice import PERIOD, LatticeSpec, SpecError

RIGHT_MOVER = 1
LEFT_MOVER = -1


@dataclass(frozen=True)
class Frame:
    """Affine map from integer lattice geometry to output coordinates.

    t_out = t_scale * t_internal + t0
    x_out = x_scale * x_internal + drift * t_out + x0
    """

    t_scale: float = 1.0
    x_scale: float = 1.0
    drift: float = 0.0
    x0: float = 0.0
    t0: float = 0.0

    def apply(self, x_internal, t_internal):
        """Map internal-unit coordinates to output coords; coordinates and
        fields may be arrays (one value per coordinate) or scalars."""
        t = self.time(t_internal)
        x = self.x_scale * np.asarray(x_internal, dtype=float) + self.drift * t + self.x0
        return x, t

    def time(self, t_internal):
        """The output t of ``apply``, which needs no x."""
        return self.t_scale * np.asarray(t_internal, dtype=float) + self.t0


def _refuse_rows(name: str, values: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise naming the first stored row that ``bad`` marks."""
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"{name} must be {rule}; stored row {i} has {values[i]}")


_INT32 = np.iinfo(np.int32)
_INT64 = np.iinfo(np.int64)


def _coordinate_column(values) -> np.ndarray:
    """Half-cell coordinates as int32, refusing values that would wrap."""
    arr = np.asarray(values)
    if arr.dtype != np.int32:
        _refuse_rows("a vertex coordinate", arr, (arr < _INT32.min) | (arr > _INT32.max),
                     f"in the int32 range [{_INT32.min}, {_INT32.max}] of half-cell units")
    return arr.astype(np.int32, copy=False)


# a cross-frame bridge from a to b ends at (b - a) * (n * half) + a in float: its four
# roundings leave it under 7 ulps of S = max(|a|, |b|) from b, as |b - a| <= 2 S
_JOIN_ULPS = 8


class SegmentArray:
    """Ordered, array-backed segment collection with multiplicities.

    Endpoint coordinates are integers in half-cell units (``eps/2``), and
    every stored row is one lightlike step, ``|x2 - x1| == |t2 - t1| != 0``,
    so :attr:`time_dir` and :attr:`species` are derived from its end points,
    not stored.  The per-row ``frame_idx`` selects the mapping into a small
    frame table, and the bool ``envelope`` says whether density counting
    reads the row.

    Every stored row carries an int64 multiplicity ``weight`` of at least 1:
    a row of weight w stands for w identical segments of the logical path.
    ``runs`` records how repeated rows interleave: a run ``(start, body,
    link, copies)`` covers the stored rows ``[start, start + body + link)``
    and stands for the body rows, then ``copies - 1`` more times the link
    rows followed by the body rows again; body rows have weight ``copies``
    and link rows ``copies - 1``.  A row outside every run stands for
    ``weight`` consecutive copies of itself.

    ``len()`` counts logical segments (the sum of the weights) and ``rows``
    counts stored rows.  :meth:`physical_endpoints` follows the logical
    path; :meth:`expand` materialises it row for row.  The constructor
    refuses a row that is not one such step, an envelope value other than 0
    or 1, a weight below 1 and a ``frame_idx`` outside the frame table; a
    scalar ``envelope`` or ``frame_idx`` fills its column.
    """

    __slots__ = ("lattice", "x1", "t1", "x2", "t2", "envelope", "frame_idx", "frames", "weight",
                 "runs")

    def __init__(self, lattice, x1, t1, x2, t2, envelope, frame_idx, frames, weight=None,
                 runs=None):
        self.lattice = lattice
        self.x1 = _coordinate_column(x1)
        self.t1 = _coordinate_column(t1)
        self.x2 = _coordinate_column(x2)
        self.t2 = _coordinate_column(t2)
        # int64: int32 columns can differ by up to 2**32
        dx = np.abs(self.x2.astype(np.int64) - self.x1)
        dt = np.abs(self.t2.astype(np.int64) - self.t1)
        bad = (dx != dt) | (dt == 0)
        if bad.any():  # stacked only to name the first bad row: stacking costs more than the check
            ends = np.column_stack([self.x1, self.t1, self.x2, self.t2])
            _refuse_rows("a row (x1, t1, x2, t2)", ends, bad,
                         "one lightlike step, |x2 - x1| == |t2 - t1| != 0 half cells")
        self.frames: tuple[Frame, ...] = tuple(frames)
        env = np.broadcast_to(envelope, self.x1.shape)
        _refuse_rows("envelope", env, (env != 0) & (env != 1), "0 (excluded) or 1 (counted)")
        self.envelope = env.astype(bool, copy=False)
        fi = np.broadcast_to(frame_idx, self.x1.shape)
        _refuse_rows("frame_idx", fi, (fi < 0) | (fi >= len(self.frames)),
                     f"in [0, {len(self.frames)}), an index into the frame table")
        self.frame_idx = fi.astype(np.int32, copy=False)
        if weight is None:
            weight = np.ones(len(self.x1), dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.int64)
        _refuse_rows("weight", self.weight, self.weight < 1, "at least 1")
        self.runs = np.asarray(() if runs is None else runs, dtype=np.int64).reshape(-1, 4)

    @classmethod
    def from_columns(cls, lattice: LatticeSpec, cols: np.ndarray, envelope, frame_idx, frames,
                     weight=None, runs=None) -> "SegmentArray":
        """Build from an (N, 4) int column block [x1, t1, x2, t2]."""
        return cls(lattice, *np.asarray(cols).T, envelope, frame_idx, frames, weight=weight,
                   runs=runs)

    @classmethod
    def stack(cls, parts: Sequence["SegmentArray"], frames) -> "SegmentArray":
        """Join arrays end to end; every part's ``frame_idx`` must index ``frames``."""
        offsets = np.cumsum([0] + [p.rows for p in parts[:-1]])
        runs = np.concatenate([p.runs + (off, 0, 0, 0) for p, off in zip(parts, offsets)])
        return cls(parts[0].lattice,
                   *(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("x1", "t1", "x2", "t2", "envelope", "frame_idx")),
                   frames,
                   weight=np.concatenate([p.weight for p in parts]), runs=runs)

    @property
    def time_dir(self) -> np.ndarray:
        """Each stored row's direction in time, sign(t2 - t1): +1 forward, -1 backward."""
        return np.where(self.t2 > self.t1, np.int8(1), np.int8(-1))

    @property
    def species(self) -> np.ndarray:
        """Each stored row's species, sign(x2 - x1) * sign(t2 - t1): +1 right, -1 left mover."""
        return np.where((self.x2 > self.x1) == (self.t2 > self.t1), np.int8(RIGHT_MOVER),
                        np.int8(LEFT_MOVER))

    @property
    def rows(self) -> int:
        """Stored rows; each stands for ``weight`` logical segments."""
        return len(self.x1)

    def __len__(self) -> int:
        return int(self.weight.sum())

    def expand_index(self) -> np.ndarray:
        """Stored-row index of every logical segment, in path order."""
        parts, pos = [], 0
        for start, body, link, copies in self.runs.tolist():
            parts.append(np.repeat(np.arange(pos, start), self.weight[pos:start]))
            cycle = np.arange(start, start + body + link)
            parts.append(np.tile(cycle, copies)[:copies * (body + link) - link])
            pos = start + body + link
        parts.append(np.repeat(np.arange(pos, self.rows), self.weight[pos:]))
        return np.concatenate(parts)

    def _end_rows(self) -> tuple[int, int]:
        """Stored rows of the first and the last logical segment, read from
        the run layout: a path that ends in a run with a link ends on that
        run's last body row."""
        last = self.rows - 1
        if len(self.runs):
            start, body, link, _ = self.runs[-1].tolist()
            if link and start + body + link == self.rows:
                last = start + body - 1
        return 0, last

    def expand(self) -> "SegmentArray":
        """The logical path with one stored row per segment and unit weights."""
        idx = self.expand_index()
        return SegmentArray(self.lattice, self.x1[idx], self.t1[idx], self.x2[idx], self.t2[idx],
                            self.envelope[idx], self.frame_idx[idx], self.frames)

    def subset(self, mask: np.ndarray) -> "SegmentArray":
        """Stored rows selected by a boolean mask or an index array, weights
        kept and the run layout dropped: each row then stands for ``weight``
        copies of itself, so a subset is a set of rows, not a path."""
        return SegmentArray(
            self.lattice,
            self.x1[mask], self.t1[mask], self.x2[mask], self.t2[mask], self.envelope[mask],
            self.frame_idx[mask], self.frames, weight=self.weight[mask],
        )

    def reframed(self, frame_idx, frames) -> "SegmentArray":
        """The same rows, weights and run layout over another frame table."""
        return SegmentArray(self.lattice, self.x1, self.t1, self.x2, self.t2, self.envelope,
                            frame_idx, frames, weight=self.weight, runs=self.runs)

    def counted(self) -> "SegmentArray":
        """The rows density counting reads, weights kept, as a ``subset``:
        counting reads no order.  Returns ``self``, not a copy, when every
        row is counted."""
        return self if self.envelope.all() else self.subset(self.envelope)

    def physical_endpoints(self):
        """Frame-applied (x1, t1, x2, t2) float arrays, one entry per logical segment."""
        idx = self.expand_index()
        return tuple(e[idx] for e in self.row_endpoints())

    def _row_frame(self) -> Frame:
        """The frame of every stored row: several frames apply as one
        ``Frame`` of per-row fields gathered by ``frame_idx``."""
        if len(self.frames) == 1:
            return self.frames[0]
        return Frame(**{field.name: np.array([getattr(f, field.name) for f in self.frames])
                        [self.frame_idx] for field in fields(Frame)})

    def row_endpoints(self):
        """Frame-applied (x1, t1, x2, t2) float arrays, one entry per stored row."""
        half = self.lattice.half
        frame = self._row_frame()
        x1, t1 = frame.apply(self.x1 * half, self.t1 * half)
        x2, t2 = frame.apply(self.x2 * half, self.t2 * half)
        return x1, t1, x2, t2

    def row_times(self):
        """The frame-applied (t1, t2) of ``row_endpoints``, no x computed."""
        half = self.lattice.half
        frame = self._row_frame()
        return frame.time(self.t1 * half), frame.time(self.t2 * half)


class EntwinedPath:
    """A single continuous space-time path built from lightlike segments."""

    def __init__(self, segs: SegmentArray, kind: str, origin: tuple[float, float],
                 n_fibers: int = 0, steady_window: tuple[float, float] | None = None,
                 extras: dict | None = None):
        self.segs = segs
        self.kind = kind
        self.origin = origin
        self.n_fibers = n_fibers
        self.steady_window = steady_window  # internal units, lattice-aligned constructs only
        self.extras = extras or {}

    @property
    def lattice(self) -> LatticeSpec:
        return self.segs.lattice

    def __len__(self) -> int:
        return len(self.segs)

    def validate_continuity(self) -> None:
        """Check every join of the logical path once, on the stored rows.

        A row leads on to the next, except in a run ``(start, body, link,
        copies)``: its last row leads back to ``start`` when copies > 1, and
        the body's last row leads past the link.  A row outside every run
        with weight above 1 joins itself.  Same-frame joins are compared
        exactly on the integer grid, cross-frame joins to within
        ``_JOIN_ULPS`` ulps of the largest |coordinate| of the two rows.
        The message names the stored rows of the lowest broken join.
        """
        s = self.segs
        before = np.arange(max(s.rows - 1, 0))  # join j runs from row before[j] to after[j]
        after = before + 1
        start, body, link, copies = s.runs.T
        end = start + body + link
        linked = (link > 0) & (end < s.rows)  # such a run is left from its body's last row
        before[end[linked] - 1] = (start + body - 1)[linked]
        inside = np.zeros(s.rows + 1, dtype=np.int64)  # +1 at each run's start, -1 at its end
        np.add.at(inside, start, 1)
        np.add.at(inside, end, -1)
        alone = np.flatnonzero((np.cumsum(inside[:-1]) == 0) & (s.weight > 1))
        back = copies > 1
        before = np.concatenate([before, end[back] - 1, alone])
        after = np.concatenate([after, start[back], alone])
        cross = s.frame_idx[before] != s.frame_idx[after]
        bad = (s.x1[after] != s.x2[before]) | (s.t1[after] != s.t2[before])
        if cross.any():
            ends = np.array(s.row_endpoints())
            a, b = ends[:, before[cross]], ends[:, after[cross]]
            tol = _JOIN_ULPS * np.spacing(np.abs(np.concatenate([a, b])).max(axis=0))
            bad[cross] = (np.abs(b[0] - a[2]) > tol) | (np.abs(b[1] - a[3]) > tol)
        if bad.any():
            j = np.flatnonzero(bad)
            j = j[np.argmin(before[j])]
            where = " at a frame change" if cross[j] else ""
            raise AssertionError(f"discontinuity{where} between stored rows {before[j]} and "
                                 f"{after[j]}")


def _moved(cols: np.ndarray, origin: tuple[float, float], spec: LatticeSpec) -> np.ndarray:
    """Vertex columns built at origin 0, moved to ``origin`` on the half-cell grid."""
    shift = []
    for value, axis in zip(origin, "xt"):
        scaled = value * spec.n
        snapped = round(scaled)
        if abs(scaled - snapped) > 1e-9:
            raise ValueError(f"origin {axis}={value} is not on the eps/2 grid (n={spec.n})")
        shift.append(int(snapped))
    return cols + (*shift, *shift)


def _fiber_columns(n: int) -> np.ndarray:
    """The canonical loop vertices in half-cell units; one row per segment."""
    v = [(0, 0), (n, n), (0, 2 * n), (-n, 3 * n), (0, 4 * n),
         (n, 3 * n), (0, 2 * n), (-n, n), (0, 0)]
    rows = [(v[i][0], v[i][1], v[i + 1][0], v[i + 1][1]) for i in range(8)]
    return np.array(rows, dtype=np.int64)


_FIBER_ENVELOPE = np.array([1, 1, 0, 0, 1, 1, 0, 0], dtype=bool)
_FIBER_ENVELOPE.setflags(write=False)


def _connector_columns(a: tuple[int, int], b: tuple[int, int]) -> np.ndarray:
    """Lightlike legs joining two half-cell grid events of equal parity."""
    xa, ta = a
    xb, tb = b
    if (xa + ta - xb - tb) % 2 != 0:
        raise ValueError("endpoints differ in lattice parity; no lightlike connector exists")
    if xa == xb and ta == tb:
        return np.zeros((0, 4), dtype=np.int64)
    tc = (xb - xa + ta + tb) // 2
    xc = (xa + xb + tb - ta) // 2
    rows = []
    if (xc, tc) != (xa, ta):
        rows.append((xa, ta, xc, tc))
    if (xc, tc) != (xb, tb):
        rows.append((xc, tc, xb, tb))
    return np.array(rows, dtype=np.int64)


def build_fiber(origin: tuple[float, float] = (0.0, 0.0), spec: LatticeSpec | None = None,
                drift: float = 0.0) -> EntwinedPath:
    """Build one closed loop (fiber) at ``origin``, optionally sheared by ``drift``.

    The right envelope of the returned path reproduces the single-loop
    densities exactly: right movers +1 on [0,1] of the loop's own time and
    -1 on (2,3], left movers the same delayed by one quarter period.
    """
    if spec is None:
        raise ValueError("a LatticeSpec is required")
    if not abs(drift) < 1.0:
        raise ValueError(f"superluminal drift: |{drift}| >= 1")
    cols = _moved(_fiber_columns(spec.n), origin, spec)
    segs = SegmentArray.from_columns(spec, cols, _FIBER_ENVELOPE.copy(), 0, (Frame(drift=drift),))
    t0 = origin[1]
    return EntwinedPath(segs, "fiber", origin, n_fibers=1,
                        steady_window=(t0, t0 + PERIOD))


def _quartet_offsets(n: int) -> list[int]:
    # Fibers at 0, 1, 2+eps, 3+eps loop-time units (half-cell units: eps = 2).
    # The second pair sits one lattice spacing past the half-period shift so
    # the summed density telescopes to the alternating single-cell spikes
    # delta(t) = W(t) - W(t - eps).
    return [0, n, 2 * n + 2, 3 * n + 2]


def _cord_block(spec: LatticeSpec, repeats: int) -> tuple[np.ndarray, np.ndarray]:
    """(columns, envelope) for a cord train at origin 0: ``repeats`` quartets
    tiled one period apart, fibers chained with excluded connectors."""
    n = spec.n
    fiber = _fiber_columns(n)
    offsets = []
    for r in range(repeats):
        offsets.extend(off + 4 * n * r for off in _quartet_offsets(n))
    col_parts = []
    env_parts = []
    prev_end: tuple[int, int] | None = None
    for off in offsets:
        if prev_end is not None:
            conn = _connector_columns(prev_end, (0, off))
            if len(conn):
                col_parts.append(conn)
                env_parts.append(np.zeros(len(conn), dtype=bool))
        block = fiber.copy()
        block[:, 1] += off
        block[:, 3] += off
        col_parts.append(block)
        env_parts.append(_FIBER_ENVELOPE)
        prev_end = (0, off)  # a fiber closes at its own origin
    return np.concatenate(col_parts), np.concatenate(env_parts)


def build_cord(origin: tuple[float, float] = (0.0, 0.0), spec: LatticeSpec | None = None,
               repeats: int = 1) -> EntwinedPath:
    """Concatenate four fibers (offsets 0, 1, 2+eps, 3+eps) into a cord.

    ``repeats`` tiles the quartet every period so the alternating spike
    train reaches its steady state away from the construct ends.
    """
    if spec is None:
        raise ValueError("a LatticeSpec is required")
    cable_rules(spec.n, 1, repeats)  # a cord's repeats follow the cable rule
    cols, env = _cord_block(spec, repeats)
    segs = SegmentArray.from_columns(spec, _moved(cols, origin, spec), env, 0, (Frame(),))
    t0 = origin[1]
    return EntwinedPath(segs, "cord", origin, n_fibers=4 * repeats,
                        steady_window=(t0 + PERIOD, t0 + 4.0 * repeats - 1.0 + spec.eps),
                        extras={"repeats": repeats})


def cords_per_shift(n: int, amplitude: int) -> list[int]:
    """Cord multiplicities floor(|amplitude * sin(pi*k/n)|) for shifts k = 0..n-1."""
    return [int(math.floor(abs(amplitude * math.sin(math.pi * k / n)))) for k in range(n)]


def cable_steady_window(spec: LatticeSpec, counts: list[int], repeats: int) -> tuple[float, float]:
    """Steady window of the cable with ``counts`` cords per shift and
    ``repeats`` repeats, in internal time from its origin: the intersection
    of its trains' steady windows."""
    last_shift = max(k for k, c in enumerate(counts) if c) * spec.eps
    return last_shift + PERIOD, 4.0 * repeats - 1.0 + spec.eps


def cable_rules(n: int, M: int, repeats: int = 1) -> None:
    """``SpecError`` listing every rule that the parameters of the cable
    ``build_cable`` builds on a lattice of ``n`` break.  Its t reaches ``4n``
    half-cells a repeat, ``3n + 2`` for the last fiber and ``2(n - 1)`` for
    the last shift, which int32 vertex columns must hold.  No cord count
    passes ``floor(float(M))``, which an even ``n`` reaches at ``k = n/2``,
    so the rules build no cord list."""
    problems = []
    if M < 1:
        problems.append("M: must be >= 1")
    elif M > _INT64.max or float(M) > _INT64.max:
        problems.append(f"M: each shift's cord count must fit an int64 weight, <= {_INT64.max}")
    if repeats < 1:
        problems.append("repeats: must be >= 1")
    elif n * (4 * repeats + 5) > _INT32.max:
        problems.append(f"repeats: a cable of {repeats} repeats reaches t = "
                        f"{n * (4 * repeats + 5)} half-cells, past the int32 limit {_INT32.max}")
    SpecError.check(problems)


def build_cable(origin: tuple[float, float] = (0.0, 0.0), spec: LatticeSpec | None = None,
                M: int = 1, repeats: int = 1) -> EntwinedPath:
    """Concatenate cords into a cable whose density draws a sampled sinusoid.

    At the k'th one-cell shift, ``floor(|M sin(pi k / n)|)`` copies of the
    cord are concatenated; the resulting counted density approximates a
    period-4 sinusoid of amplitude 2M, with the left-mover channel lagging
    by one quarter period.

    The copies at one shift are identical cord trains chained by a
    connector back from a train's end to its start.  Each shift's train is
    stored once with weight ``count`` and the back connector once with
    weight ``count - 1``, as one run of the segment array, so storage and
    counting grow with the distinct trains, not with M.  Parameters that
    break a rule of :func:`cable_rules` are refused before anything is built.
    """
    if spec is None:
        raise ValueError("a LatticeSpec is required")
    cable_rules(spec.n, M, repeats)
    counts = cords_per_shift(spec.n, M)
    n = spec.n

    block_cols, block_env = _cord_block(spec, repeats)
    block_end = (0, 4 * n * (repeats - 1) + _quartet_offsets(n)[-1])
    # connector returning from a train's end to its own start; it chains
    # consecutive copies at one shift, so it exists only where count >= 2
    back = _connector_columns(block_end, (0, 0))

    col_parts: list[np.ndarray] = []
    env_parts: list[np.ndarray] = []
    weight_parts: list[np.ndarray] = []
    runs: list[tuple[int, int, int, int]] = []
    rows = 0
    prev_end: tuple[int, int] | None = None
    total_cords = 0
    for k, count in enumerate(counts):
        if count == 0:
            continue
        shift = 2 * k
        if prev_end is not None:
            conn = _connector_columns(prev_end, (0, shift))
            col_parts.append(conn)
            env_parts.append(np.zeros(len(conn), dtype=bool))
            weight_parts.append(np.ones(len(conn), dtype=np.int64))
            rows += len(conn)
        link = back if count > 1 else back[:0]
        tile_cols = np.concatenate([block_cols, link])
        tile_cols[:, 1] += shift
        tile_cols[:, 3] += shift
        col_parts.append(tile_cols)
        env_parts.append(np.concatenate([block_env, np.zeros(len(link), dtype=bool)]))
        weight_parts.append(np.repeat(np.array([count, count - 1], dtype=np.int64),
                                      [len(block_cols), len(link)]))
        runs.append((rows, len(block_cols), len(link), count))
        rows += len(tile_cols)
        prev_end = (0, block_end[1] + shift)
        total_cords += count * repeats

    cols = _moved(np.concatenate(col_parts), origin, spec)
    segs = SegmentArray.from_columns(spec, cols, np.concatenate(env_parts), 0, (Frame(),),
                                     weight=np.concatenate(weight_parts), runs=runs)

    lo, hi = cable_steady_window(spec, counts, repeats)
    return EntwinedPath(segs, "cable", origin, n_fibers=4 * total_cords,
                        steady_window=(origin[1] + lo, origin[1] + hi),
                        extras={"cords_per_shift": counts, "repeats": repeats,
                                "total_cords": total_cords})


def concatenate(paths: Sequence[EntwinedPath]) -> EntwinedPath:
    """Join paths, in order, into one continuous path.

    Where consecutive endpoints differ a connector is inserted; connectors
    are excluded from density counting, so the joined path's accumulated
    density is exactly the sum of the constituents' densities.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("concatenate needs at least one path")
    if len(paths) == 1:
        return paths[0]
    lattice = paths[0].lattice
    for p in paths[1:]:
        if p.lattice.n != lattice.n:
            raise ValueError("cannot concatenate paths built on different lattices")

    frame_of: dict[Frame, int] = {}  # each distinct frame's index, in order of first use

    def intern(frame: Frame) -> int:
        return frame_of.setdefault(frame, len(frame_of))

    half = lattice.half
    parts: list[SegmentArray] = []

    def endpoint(path: EntwinedPath, first: bool):
        s = path.segs
        i = s._end_rows()[0 if first else 1]
        frame = s.frames[s.frame_idx[i]]
        xi = s.x1[i] if first else s.x2[i]
        ti = s.t1[i] if first else s.t2[i]
        x, t = frame.apply(xi * half, ti * half)
        return (int(xi), int(ti)), (float(x), float(t)), frame

    def reindexed(segs: SegmentArray) -> SegmentArray:
        mapping = np.array([intern(f) for f in segs.frames], dtype=np.int32)
        return segs.reframed(mapping[segs.frame_idx], tuple(frame_of))

    for i, path in enumerate(paths):
        if i > 0:
            ai, (ax, at), fa = endpoint(paths[i - 1], first=False)
            bi, (bx, bt), fb = endpoint(path, first=True)
            if fa == fb:
                conn = _connector_columns(ai, bi)
                if len(conn):
                    parts.append(SegmentArray.from_columns(
                        lattice, conn, False, intern(fa), tuple(frame_of)))
            elif (ax, at) != (bx, bt):
                # cross-frame bridge: one straight uncounted lightlike step, run
                # the way the gap runs, whose own frame scales it onto the gap
                bridge = Frame(t_scale=abs(bt - at), x_scale=abs(bx - ax), drift=0.0, x0=ax, t0=at)
                sx, st = (1 if b >= a else -1 for a, b in ((ax, bx), (at, bt)))
                cols = np.array([(0, 0, sx * lattice.n, st * lattice.n)], dtype=np.int64)
                parts.append(SegmentArray.from_columns(
                    lattice, cols, False, intern(bridge), tuple(frame_of)))
        parts.append(reindexed(path.segs))

    # frame tables grew as parts were built; rebind every part to the final table
    merged = SegmentArray.stack(parts, tuple(frame_of))
    windows = [p.steady_window for p in paths]
    steady = None
    if all(w is not None for w in windows):
        lo = max(w[0] for w in windows)
        hi = min(w[1] for w in windows)
        steady = (lo, hi) if lo < hi else None
    return EntwinedPath(merged, "composite", paths[0].origin,
                        n_fibers=sum(p.n_fibers for p in paths), steady_window=steady)


def with_frame(path: EntwinedPath, frame: Frame) -> EntwinedPath:
    """Rebind a single-frame path to ``frame`` (retune/shear/offset it).

    The integer geometry is shared, not copied.  The steady window moves to
    the frame's output time axis; ``t_scale`` must be positive.
    """
    if len(path.segs.frames) != 1:
        raise ValueError("can only re-frame a single-frame path")
    if not (frame.t_scale > 0):
        raise ValueError("frame t_scale must be positive")
    segs = path.segs.reframed(path.segs.frame_idx, (frame,))
    window = None
    if path.steady_window is not None:
        _, window = frame.apply(0.0, path.steady_window)
        window = tuple(window.tolist())
    return EntwinedPath(segs, path.kind, path.origin, n_fibers=path.n_fibers,
                        steady_window=window, extras=dict(path.extras))


def right_envelope(path: EntwinedPath) -> SegmentArray:
    """Counted segments: the right half of every constituent fiber.

    Membership is recorded at construction; connectors are excluded.
    Multiplicities carry over, so a cable's envelope stores each distinct
    counted segment once; the run layout does not, as counting reads no
    order.  A path whose rows are all counted is its own envelope
    (``path.segs``, not a copy).
    """
    return path.segs.counted()
