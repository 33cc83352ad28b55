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
from density counting (``in_envelope`` false), so joining never perturbs any
accumulated density while the whole construct remains one continuous path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .lattice import PERIOD, LatticeSpec

RIGHT_MOVER = 1
LEFT_MOVER = -1

_SPECIES_NAMES = {RIGHT_MOVER: "right", LEFT_MOVER: "left"}

# envelope provenance flags
_ENV_COUNTED = 1
_ENV_EXCLUDED = 0
_ENV_UNKNOWN = -1


def species_name(species: int) -> str:
    return _SPECIES_NAMES[int(species)]


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
        """Map internal-unit coordinates (arrays or scalars) to output coords."""
        t = self.t_scale * np.asarray(t_internal, dtype=float) + self.t0
        x = self.x_scale * np.asarray(x_internal, dtype=float) + self.drift * t + self.x0
        return x, t


@dataclass(frozen=True)
class PathSegment:
    """One traversed straight segment of an entwined path.

    ``start``/``end`` are frame-applied coordinates in traversal order;
    ``time_dir`` is the sign of dt along traversal; ``species`` is the sign
    of the drift-free geometric slope dx/dt (shear by |v| < 1 preserves it).
    ``in_envelope`` records whether the segment is counted by density
    accumulation (None means unknown provenance).
    """

    start: tuple[float, float]
    end: tuple[float, float]
    time_dir: int
    species: int
    in_envelope: bool | None = None
    frame: Frame = Frame()


_INT32 = np.iinfo(np.int32)


def _coordinate_column(values) -> np.ndarray:
    """Half-cell coordinates as int32, refusing values that would wrap."""
    arr = np.asarray(values)
    if arr.dtype != np.int32 and arr.size:
        lo, hi = arr.min(), arr.max()
        if lo < _INT32.min or hi > _INT32.max:
            bad = lo if lo < _INT32.min else hi
            raise ValueError(f"vertex coordinate {bad} half-cell units is outside the int32 "
                             f"range [{_INT32.min}, {_INT32.max}]")
    return arr.astype(np.int32, copy=False)


_NO_RUNS = np.zeros((0, 4), dtype=np.int64)
_NO_RUNS.setflags(write=False)


class SegmentArray:
    """Ordered, array-backed segment collection with multiplicities.

    Endpoint coordinates are integers in half-cell units (``eps/2``); the
    per-row ``frame_idx`` selects the mapping into a small frame table.

    Every stored row carries an int64 multiplicity ``weight``: a row of
    weight w stands for w identical segments of the logical path.  ``runs``
    records how repeated rows interleave: a run ``(start, body, link,
    copies)`` covers the stored rows ``[start, start + body + link)`` and
    stands for the body rows, then ``copies - 1`` more times the link rows
    followed by the body rows again; body rows have weight ``copies`` and
    link rows ``copies - 1``.  A row outside every run stands for ``weight``
    consecutive copies of itself.

    ``len()`` counts logical segments (the sum of the weights) and ``rows``
    counts stored rows.  Iteration, indexing and :meth:`physical_endpoints`
    follow the logical path; :meth:`expand` materialises it row for row.
    """

    __slots__ = ("lattice", "x1", "t1", "x2", "t2", "time_dir", "species", "envelope", "frame_idx",
                 "frames", "weight", "runs")

    def __init__(self, lattice, x1, t1, x2, t2, time_dir, species, envelope, frame_idx, frames,
                 weight=None, runs=None):
        self.lattice = lattice
        self.x1 = _coordinate_column(x1)
        self.t1 = _coordinate_column(t1)
        self.x2 = _coordinate_column(x2)
        self.t2 = _coordinate_column(t2)
        self.time_dir = np.asarray(time_dir, dtype=np.int8)
        self.species = np.asarray(species, dtype=np.int8)
        self.envelope = np.asarray(envelope, dtype=np.int8)
        self.frame_idx = np.asarray(frame_idx, dtype=np.int32)
        self.frames: tuple[Frame, ...] = tuple(frames)
        if weight is None:
            weight = np.ones(len(self.x1), dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.int64)
        if (self.weight < 0).any():
            raise ValueError("segment weights must be non-negative")
        self.runs = _NO_RUNS if runs is None else np.asarray(runs, dtype=np.int64).reshape(-1, 4)

    @classmethod
    def empty(cls, lattice: LatticeSpec) -> "SegmentArray":
        z = np.zeros(0, dtype=np.int32)
        return cls(lattice, z, z, z, z, z, z, z, z, (Frame(),))

    @classmethod
    def from_columns(cls, lattice: LatticeSpec, cols: np.ndarray, envelope, frame_idx, frames,
                     time_dir=None, weight=None, runs=None) -> "SegmentArray":
        """Build from an (N, 4) int column block [x1, t1, x2, t2]."""
        cols = np.asarray(cols)
        x1, t1, x2, t2 = cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]
        dt = t2 - t1
        dx = x2 - x1
        if time_dir is None:
            time_dir = np.sign(dt)
        species = np.where(dt != 0, np.sign(dx) * np.sign(dt), np.sign(dx))
        species = np.where(species == 0, RIGHT_MOVER, species)
        if np.isscalar(envelope):
            envelope = np.full(len(cols), envelope, dtype=np.int8)
        if np.isscalar(frame_idx):
            frame_idx = np.full(len(cols), frame_idx, dtype=np.int32)
        return cls(lattice, x1, t1, x2, t2, time_dir, species, envelope, frame_idx, frames,
                   weight=weight, runs=runs)

    @classmethod
    def stack(cls, parts: Sequence["SegmentArray"], frames) -> "SegmentArray":
        """Join arrays end to end; every part's ``frame_idx`` must index ``frames``."""
        offsets = np.cumsum([0] + [p.rows for p in parts[:-1]])
        runs = np.concatenate([p.runs + (off, 0, 0, 0) for p, off in zip(parts, offsets)])
        return cls(parts[0].lattice,
                   *(np.concatenate([getattr(p, name) for p in parts])
                     for name in ("x1", "t1", "x2", "t2", "time_dir", "species", "envelope",
                                  "frame_idx")),
                   frames,
                   weight=np.concatenate([p.weight for p in parts]), runs=runs)

    @property
    def rows(self) -> int:
        """Stored rows; each stands for ``weight`` logical segments."""
        return len(self.x1)

    def __len__(self) -> int:
        return int(self.weight.sum())

    @property
    def is_expanded(self) -> bool:
        """True when stored rows and logical segments coincide one to one."""
        return not len(self.runs) and bool((self.weight == 1).all())

    def _blocks(self) -> Iterator[tuple]:
        """Stored rows in path order: runs, and the plain stretches between them
        (``copies`` None: each row repeats by its own weight)."""
        pos = 0
        for start, body, link, copies in self.runs.tolist():
            yield pos, start - pos, 0, None
            yield start, body, link, copies
            pos = start + body + link
        yield pos, self.rows - pos, 0, None

    def _block_index(self, start: int, body: int, link: int, copies: int | None) -> np.ndarray:
        if copies is None:
            return np.repeat(np.arange(start, start + body), self.weight[start:start + body])
        cycle = np.arange(start, start + body + link)
        return np.tile(cycle, copies)[:copies * (body + link) - link]

    def expand_index(self) -> np.ndarray:
        """Stored-row index of every logical segment, in path order."""
        if self.is_expanded:
            return np.arange(self.rows)
        return np.concatenate([self._block_index(*b) for b in self._blocks()])

    def _end_rows(self) -> tuple[int, int]:
        """Stored rows of the first and the last logical segment."""
        blocks = list(self._blocks())
        first = next(ix[0] for ix in (self._block_index(*b) for b in blocks) if len(ix))
        last = next(ix[-1] for ix in (self._block_index(*b) for b in reversed(blocks)) if len(ix))
        return int(first), int(last)

    def expand(self) -> "SegmentArray":
        """The logical path with one stored row per segment and unit weights."""
        if self.is_expanded:
            return self
        idx = self.expand_index()
        return SegmentArray(self.lattice, self.x1[idx], self.t1[idx], self.x2[idx], self.t2[idx],
                            self.time_dir[idx], self.species[idx], self.envelope[idx],
                            self.frame_idx[idx], self.frames)

    def __iter__(self) -> Iterator[PathSegment]:
        segs = self.expand()
        for i in range(segs.rows):
            yield segs._row_segment(i)

    def __getitem__(self, i: int) -> PathSegment:
        if self.is_expanded:
            return self._row_segment(range(self.rows)[i])
        return self._row_segment(int(self.expand_index()[i]))

    def _row_segment(self, i: int) -> PathSegment:
        half = self.lattice.half
        frame = self.frames[self.frame_idx[i]]
        xs, ts = frame.apply(self.x1[i] * half, self.t1[i] * half)
        xe, te = frame.apply(self.x2[i] * half, self.t2[i] * half)
        env = self.envelope[i]
        return PathSegment(
            start=(float(xs), float(ts)),
            end=(float(xe), float(te)),
            time_dir=int(self.time_dir[i]),
            species=int(self.species[i]),
            in_envelope=None if env == _ENV_UNKNOWN else bool(env),
            frame=frame,
        )

    def subset(self, mask: np.ndarray) -> "SegmentArray":
        """Stored rows selected by a boolean mask or an index array, weights kept.

        A boolean mask keeps the run layout, so the subset's logical path is
        the logical path filtered by the mask.  An index array reorders
        rows and drops the layout: each row then stands for ``weight``
        consecutive copies of itself.
        """
        mask = np.asarray(mask)
        runs = None
        if mask.dtype == bool and len(self.runs):
            kept = np.concatenate(([0], np.cumsum(mask)))
            start, body, link, copies = self.runs.T
            new_start = kept[start]
            new_body = kept[start + body] - new_start
            new_link = kept[start + body + link] - kept[start + body]
            runs = np.column_stack([new_start, new_body, new_link, copies])
            runs = runs[new_body + new_link > 0]
        return SegmentArray(
            self.lattice,
            self.x1[mask], self.t1[mask], self.x2[mask], self.t2[mask],
            self.time_dir[mask], self.species[mask], self.envelope[mask],
            self.frame_idx[mask], self.frames, weight=self.weight[mask], runs=runs,
        )

    def counted(self) -> "SegmentArray":
        """The rows density counting reads, weights and run layout kept.

        Returns ``self``, not a copy, when every row is counted.  Raises if
        any row lacks envelope provenance.
        """
        env = self.envelope
        if (env == _ENV_UNKNOWN).any():
            i = int(np.nonzero(env == _ENV_UNKNOWN)[0][0])
            raise ValueError(f"segment {i} lacks envelope provenance")
        counted = env == _ENV_COUNTED
        return self if counted.all() else self.subset(counted)

    def physical_endpoints(self):
        """Frame-applied (x1, t1, x2, t2) float arrays, one entry per logical segment."""
        ends = self.row_endpoints()
        if self.is_expanded:
            return ends
        idx = self.expand_index()
        return tuple(e[idx] for e in ends)

    def row_endpoints(self):
        """Frame-applied (x1, t1, x2, t2) float arrays, one entry per stored row."""
        half = self.lattice.half
        ts_tab = np.array([f.t_scale for f in self.frames])
        xs_tab = np.array([f.x_scale for f in self.frames])
        v_tab = np.array([f.drift for f in self.frames])
        x0_tab = np.array([f.x0 for f in self.frames])
        t0_tab = np.array([f.t0 for f in self.frames])
        fi = self.frame_idx
        t1 = ts_tab[fi] * (self.t1 * half) + t0_tab[fi]
        t2 = ts_tab[fi] * (self.t2 * half) + t0_tab[fi]
        x1 = xs_tab[fi] * (self.x1 * half) + v_tab[fi] * t1 + x0_tab[fi]
        x2 = xs_tab[fi] * (self.x2 * half) + v_tab[fi] * t2 + x0_tab[fi]
        return x1, t1, x2, t2


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

    def __iter__(self) -> Iterator[PathSegment]:
        return iter(self.segs)

    def segment(self, i: int) -> PathSegment:
        return self.segs[i]

    def t_extent_internal(self) -> tuple[float, float]:
        """(min, max) internal time over all vertices, in internal units."""
        half = self.lattice.half
        live = self.segs.weight > 0
        t1, t2 = self.segs.t1[live], self.segs.t2[live]
        return min(t1.min(), t2.min()) * half, max(t1.max(), t2.max()) * half

    def validate_continuity(self) -> None:
        """Check every segment starts where the previous one ended.

        Same-frame joins are compared exactly on the integer grid;
        cross-frame joins compare frame-applied coordinates.  Segment
        numbers refer to the expanded (logical) path.
        """
        s = self.segs.expand()
        if len(s) < 2:
            return
        same = s.frame_idx[1:] == s.frame_idx[:-1]
        ok_int = (s.x1[1:] == s.x2[:-1]) & (s.t1[1:] == s.t2[:-1])
        bad = same & ~ok_int
        if bad.any():
            i = int(np.nonzero(bad)[0][0]) + 1
            raise AssertionError(f"discontinuity between segments {i - 1} and {i}")
        if (~same).any():
            x1, t1, x2, t2 = s.physical_endpoints()
            cross = np.nonzero(~same)[0] + 1
            mis = (x1[cross] != x2[cross - 1]) | (t1[cross] != t2[cross - 1])
            if mis.any():
                i = int(cross[np.nonzero(mis)[0][0]])
                raise AssertionError(f"discontinuity at frame change before segment {i}")


def _origin_to_half_units(origin: tuple[float, float], spec: LatticeSpec) -> tuple[int, int]:
    out = []
    for value, axis in zip(origin, "xt"):
        scaled = value * spec.n
        snapped = round(scaled)
        if abs(scaled - snapped) > 1e-9:
            raise ValueError(f"origin {axis}={value} is not on the eps/2 grid (n={spec.n})")
        out.append(int(snapped))
    return out[0], out[1]


def _fiber_columns(n: int) -> np.ndarray:
    """The canonical loop vertices in half-cell units; one row per segment."""
    v = [(0, 0), (n, n), (0, 2 * n), (-n, 3 * n), (0, 4 * n),
         (n, 3 * n), (0, 2 * n), (-n, n), (0, 0)]
    rows = [(v[i][0], v[i][1], v[i + 1][0], v[i + 1][1]) for i in range(8)]
    return np.array(rows, dtype=np.int64)


_FIBER_ENVELOPE = np.array([1, 1, 0, 0, 1, 1, 0, 0], dtype=np.int8)
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
    ox, ot = _origin_to_half_units(origin, spec)
    cols = _fiber_columns(spec.n)
    cols[:, 0] += ox
    cols[:, 2] += ox
    cols[:, 1] += ot
    cols[:, 3] += ot
    frame = Frame(drift=drift)
    segs = SegmentArray.from_columns(spec, cols, _FIBER_ENVELOPE.copy(), 0, (frame,))
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
                env_parts.append(np.zeros(len(conn), dtype=np.int8))
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
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    ox, ot = _origin_to_half_units(origin, spec)
    cols, env = _cord_block(spec, repeats)
    cols = cols.copy()
    cols[:, 0] += ox
    cols[:, 2] += ox
    cols[:, 1] += ot
    cols[:, 3] += ot
    segs = SegmentArray.from_columns(spec, cols, env, 0, (Frame(),))
    t0 = origin[1]
    return EntwinedPath(segs, "cord", origin, n_fibers=4 * repeats,
                        steady_window=(t0 + PERIOD, t0 + 4.0 * repeats - 1.0 + spec.eps),
                        extras={"repeats": repeats})


def cords_per_shift(n: int, amplitude: int) -> list[int]:
    """Cord multiplicities floor(|amplitude * sin(pi*k/n)|) for shifts k = 0..n-1."""
    return [int(math.floor(abs(amplitude * math.sin(math.pi * k / n)))) for k in range(n)]


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
    counting grow with the distinct trains, not with M.
    """
    if spec is None:
        raise ValueError("a LatticeSpec is required")
    if M < 1:
        raise ValueError("M must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    n = spec.n
    ox, ot = _origin_to_half_units(origin, spec)
    counts = cords_per_shift(n, M)

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
            env_parts.append(np.zeros(len(conn), dtype=np.int8))
            weight_parts.append(np.ones(len(conn), dtype=np.int64))
            rows += len(conn)
        link = back if count > 1 else back[:0]
        tile_cols = np.concatenate([block_cols, link])
        tile_cols[:, 1] += shift
        tile_cols[:, 3] += shift
        col_parts.append(tile_cols)
        env_parts.append(np.concatenate([block_env, np.zeros(len(link), dtype=np.int8)]))
        weight_parts.append(np.repeat(np.array([count, count - 1], dtype=np.int64),
                                      [len(block_cols), len(link)]))
        runs.append((rows, len(block_cols), len(link), count))
        rows += len(tile_cols)
        prev_end = (0, block_end[1] + shift)
        total_cords += count * repeats
    if not col_parts:
        raise ValueError("cable is empty: every shift has zero cords (increase M)")

    cols = np.concatenate(col_parts)
    env = np.concatenate(env_parts)
    cols[:, 0] += ox
    cols[:, 2] += ox
    cols[:, 1] += ot
    cols[:, 3] += ot
    segs = SegmentArray.from_columns(spec, cols, env, 0, (Frame(),),
                                     weight=np.concatenate(weight_parts), runs=runs)

    # steady region: intersection of the constituent trains' steady windows
    t0 = origin[1]
    last_shift = max(k for k, c in enumerate(counts) if c) * spec.eps
    steady = (t0 + last_shift + PERIOD, t0 + 4.0 * repeats - 1.0 + spec.eps)
    return EntwinedPath(segs, "cable", origin, n_fibers=4 * total_cords,
                        steady_window=steady,
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

    frames: list[Frame] = []
    frame_of: dict[Frame, int] = {}

    def intern(frame: Frame) -> int:
        idx = frame_of.get(frame)
        if idx is None:
            idx = len(frames)
            frames.append(frame)
            frame_of[frame] = idx
        return idx

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
        return SegmentArray(lattice, segs.x1, segs.t1, segs.x2, segs.t2,
                            segs.time_dir, segs.species, segs.envelope,
                            mapping[segs.frame_idx], tuple(frames),
                            weight=segs.weight, runs=segs.runs)

    for i, path in enumerate(paths):
        if i > 0:
            ai, (ax, at), fa = endpoint(paths[i - 1], first=False)
            bi, (bx, bt), fb = endpoint(path, first=True)
            if fa == fb:
                conn = _connector_columns(ai, bi)
                if len(conn):
                    parts.append(SegmentArray.from_columns(
                        lattice, conn, _ENV_EXCLUDED, intern(fa), tuple(frames)))
            elif (ax, at) != (bx, bt):
                # cross-frame bridge: one straight uncounted segment whose own
                # frame maps the unit diagonal onto the physical gap
                bridge = Frame(t_scale=bt - at, x_scale=bx - ax, drift=0.0, x0=ax, t0=at)
                cols = np.array([(0, 0, lattice.n, lattice.n)], dtype=np.int64)
                tdir = np.array([int(np.sign(bt - at))], dtype=np.int8)
                parts.append(SegmentArray.from_columns(
                    lattice, cols, _ENV_EXCLUDED, intern(bridge), tuple(frames), time_dir=tdir))
        parts.append(reindexed(path.segs))

    # frame tables grew as parts were built; rebind every part to the final table
    merged = SegmentArray.stack(parts, tuple(frames))
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
    s = path.segs
    segs = SegmentArray(s.lattice, s.x1, s.t1, s.x2, s.t2, s.time_dir, s.species,
                        s.envelope, s.frame_idx, (frame,), weight=s.weight, runs=s.runs)
    window = None
    if path.steady_window is not None:
        lo, hi = path.steady_window
        window = (frame.t_scale * lo + frame.t0, frame.t_scale * hi + frame.t0)
    return EntwinedPath(segs, path.kind, path.origin, n_fibers=path.n_fibers,
                        steady_window=window, extras=dict(path.extras))


def right_envelope(path: EntwinedPath) -> SegmentArray:
    """Counted segments: the right half of every constituent fiber.

    Membership is recorded at construction; connectors are excluded.
    Multiplicities carry over, so a cable's envelope stores each distinct
    counted segment once.  A path whose rows are all counted is its own
    envelope (``path.segs``, not a copy).  Raises if any segment lacks
    envelope provenance.
    """
    return path.segs.counted()


DUMP_COLUMNS = ("start_x", "start_t", "end_x", "end_t", "time_dir", "species")


def dump_path(path: EntwinedPath, fh) -> None:
    """Write one record per segment as tab-separated text.

    Columns, in order: start_x, start_t, end_x, end_t (frame-applied
    coordinates, full-precision repr), time_dir (+1/-1), species
    (right/left).  Intended for debugging and plotting.
    """
    fh.write("\t".join(DUMP_COLUMNS) + "\n")
    segs = path.segs.expand()
    x1, t1, x2, t2 = segs.row_endpoints()
    td = segs.time_dir
    sp = segs.species
    for i in range(segs.rows):
        fh.write(
            f"{float(x1[i])!r}\t{float(t1[i])!r}\t{float(x2[i])!r}\t{float(t2[i])!r}\t"
            f"{int(td[i])}\t{species_name(sp[i])}\n"
        )
