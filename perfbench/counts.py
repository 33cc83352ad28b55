"""Operation counts computed from construct parameters.

The counts describe the logical constructs of the README (fiber: an 8-segment
loop whose right half, one segment per quarter period, is counted; cord: four
fibers at 0, 1, 2+eps, 3+eps loop periods, tiled ``repeats`` times; cable:
``cords_per_shift(n, M)[k]`` cord trains at each one-cell shift k), all
joined into one path by lightlike connectors.  They never read the segment
arrays, so a change in how the package stores a path leaves them comparable.

``Observer`` supplies the parameters: its hooks run after traced calls and
read only arguments and public attributes (``LatticeSpec.n``, the ``Frame``
passed to ``with_frame``, ``DensityField.t_cells``, ``CornerHistogram.total``).
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass

from entwined.paths import Frame, cords_per_shift

IDENTITY = Frame()


@dataclass(frozen=True)
class Part:
    """One single-frame construct; coordinates in half-cell units (eps/2)."""

    n: int
    fibers: tuple[tuple[int, int], ...]  # (time offset of the fiber, copies)
    segments: int
    start: tuple[int, int]
    end: tuple[int, int]
    frame: Frame = IDENTITY

    @property
    def counted(self) -> int:
        """Counted segments: one per quarter period of every fiber."""
        return 4 * sum(copies for _, copies in self.fibers)


Construct = tuple[Part, ...]


def _legs(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Lightlike connector segments joining two grid events (0, 1 or 2)."""
    if a == b:
        return 0
    (xa, ta), (xb, tb) = a, b
    corner = ((xa + xb + tb - ta) // 2, (xb - xa + ta + tb) // 2)
    return (corner != a) + (corner != b)


def _train(offsets: list[int], x: int = 0) -> int:
    """Segments of fibers at ``offsets`` chained in order at spatial origin x."""
    links = sum(_legs((x, a), (x, b)) for a, b in zip(offsets, offsets[1:]))
    return 8 * len(offsets) + links


def fiber(n: int, origin: tuple[int, int] = (0, 0)) -> Construct:
    return (Part(n, ((origin[1], 1),), 8, origin, origin),)


def _cord_offsets(n: int, repeats: int) -> list[int]:
    return [q + 4 * n * r for r in range(repeats) for q in (0, n, 2 * n + 2, 3 * n + 2)]


def cord(n: int, repeats: int, origin: tuple[int, int] = (0, 0)) -> Construct:
    ox, ot = origin
    offsets = [ot + o for o in _cord_offsets(n, repeats)]
    return (Part(n, tuple((o, 1) for o in offsets), _train(offsets, ox),
                 (ox, offsets[0]), (ox, offsets[-1])),)


def cable(n: int, M: int, repeats: int, origin: tuple[int, int] = (0, 0)) -> Construct:
    ox, ot = origin
    train = _cord_offsets(n, repeats)
    train_segments = _train(train)
    back = _legs((0, train[-1]), (0, 0))  # from a train's end back to its start
    fibers: Counter = Counter()
    segments = 0
    start = end = None
    for k, copies in enumerate(cords_per_shift(n, M)):
        if not copies:
            continue
        shift = ot + 2 * k
        if end is not None:
            segments += _legs(end, (ox, shift))
        else:
            start = (ox, shift)
        segments += copies * train_segments + (copies - 1) * back
        for o in train:
            fibers[shift + o] += copies
        end = (ox, shift + train[-1])
    return (Part(n, tuple(sorted(fibers.items())), segments, start, end),)


def reframed(construct: Construct, frame: Frame) -> Construct:
    return tuple(Part(p.n, p.fibers, p.segments, p.start, p.end, frame) for p in construct)


def joined(constructs: list[Construct]) -> Construct:
    """Concatenation: same-frame joins add lightlike legs, cross-frame joins
    one bridge segment unless the physical endpoints already meet."""
    parts: list[Part] = []
    for construct in constructs:
        if parts:
            a, b = parts[-1], construct[0]
            if a.frame == b.frame:
                link = _legs(a.end, b.start)
            else:
                pa = a.frame.apply(a.end[0] / a.n, a.end[1] / a.n)
                pb = b.frame.apply(b.start[0] / b.n, b.start[1] / b.n)
                link = int(pa != pb)
            parts[-1] = Part(a.n, a.fibers, a.segments + link, a.start, a.end, a.frame)
        parts.extend(construct)
    return tuple(parts)


def segments(construct: Construct) -> int:
    return sum(p.segments for p in construct)


def counted(construct: Construct) -> int:
    return sum(p.counted for p in construct)


def distinct_counted(construct: Construct) -> int:
    """Counted segments with distinct geometry and frame.

    Two fibers share a counted segment only when they share their time
    offset: the four counted segments differ in direction or spatial side.
    """
    offsets: dict[Frame, set] = {}
    for p in construct:
        offsets.setdefault(p.frame, set()).update(o for o, _ in p.fibers)
    return 4 * sum(len(s) for s in offsets.values())


def _snapped(value: float, rounding) -> int:
    r = round(value)
    return int(r) if abs(value - r) < 1e-9 else rounding(value)


def incidences(construct: Construct, cell: float) -> int:
    """(segment, time cell) pairs under the counting rule of ``entwined.density``.

    A counted segment contributes to every time cell its span overlaps,
    zero-measure touches excluded; the count is taken before any clipping
    to the field.  Edges within 1e-9 cells of a cell boundary are on it.
    """
    total = 0
    for p in construct:
        t_scale, t0 = p.frame.t_scale, p.frame.t0
        for offset, copies in p.fibers:
            edges = [(t_scale * ((offset + j * p.n) / p.n) + t0) / cell for j in range(5)]
            cells = sum(_snapped(hi, math.ceil) - _snapped(lo, math.floor)
                        for lo, hi in zip(edges, edges[1:]))
            total += copies * cells
    return total


class Observer:
    """Hooks for ``tracing.Tracer`` that record construct parameters."""

    def __init__(self):
        self._paths: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # segment arrays take no weak references; a stale entry is replaced
        # by the next right_envelope result that reuses its id
        self._envelopes: dict[int, Construct] = {}
        self.envelopes: list[Construct] = []
        self.accumulated: list[tuple[Construct, float, int]] = []
        self.problems: list[tuple[int, int]] = []

    @property
    def hooks(self) -> dict:
        return {
            "paths.build_cable": self._cable,
            "paths.with_frame": self._with_frame,
            "paths.concatenate": self._concatenate,
            "paths.right_envelope": self._right_envelope,
            "density.accumulate": self._accumulate,
            "chessboard.enumerate_corner_histogram": self._enumerate,
        }

    def _cable(self, a, path):
        n = a["spec"].n
        x, t = a["origin"]
        self._paths[path] = cable(n, a["M"], a["repeats"], (round(x * n), round(t * n)))

    def _with_frame(self, a, path):
        self._paths[path] = reframed(self._paths[a["path"]], a["frame"])

    def _concatenate(self, a, path):
        self._paths[path] = joined([self._paths[p] for p in a["paths"]])

    def _right_envelope(self, a, envelope):
        construct = self._paths[a["path"]]
        self._envelopes[id(envelope)] = construct
        self.envelopes.append(construct)

    def _accumulate(self, a, field):
        construct = self._envelopes[id(a["envelope"])]
        self.accumulated.append((construct, field.cell, field.t_cells * field.x_cells))

    def _enumerate(self, a, hist):
        problem = a["problem"]
        free_steps = problem.n_steps if problem.incoming_corner else problem.n_steps - 1
        self.problems.append((2 ** free_steps, hist.total()))

    def counts(self) -> dict[str, float]:
        rows = sum(counted(c) for c, _, _ in self.accumulated)
        distinct = sum(distinct_counted(c) for c, _, _ in self.accumulated)
        sequences = sum(s for s, _ in self.problems)
        matches = sum(m for _, m in self.problems)
        return {
            "paths.segments": sum(segments(c) for c in self.envelopes),
            "paths.envelope_segments": sum(counted(c) for c in self.envelopes),
            "paths.distinct_ratio": distinct / rows if rows else 0.0,
            "density.incidences": sum(incidences(c, cell) for c, cell, _ in self.accumulated),
            "density.field_cells": sum(cells for _, _, cells in self.accumulated),
            "chessboard.sequences": sequences,
            "chessboard.match_ratio": matches / sequences if sequences else 0.0,
        }
