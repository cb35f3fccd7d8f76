"""The benchmark's own arithmetic: percentiles, lag, failure share, residuals.

Everything here is a pure function over numbers the benchmark already
collected, so ``test_pb_measure.py`` can check it against hand-built inputs.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence, Tuple


def interpolated_quantile(
    counts: Sequence[int],
    q: float,
    *,
    growth: float,
    min_us: float,
    max_us: float,
) -> float:
    """The ``q``-quantile of a geometric histogram, interpolated in its bucket.

    Bucket ``i`` spans ``[min_us * growth**i, min_us * growth**(i + 1))``.
    The target rank's position among the bucket's samples places the value
    log-linearly between those edges, which is exact when samples spread
    evenly in log space.  ``LatencyHistogram.quantile`` returns the upper
    edge instead, which moves in whole ``growth`` steps between runs.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= target:
            fraction = min(max((target - seen) / count, 0.0), 1.0)
            value = min_us * growth ** (index + fraction)
            return min(value, max_us) if max_us > 0 else value
        seen += count
    return max_us


def histogram_quantile_ms(payload: Mapping[str, object], q: float) -> float:
    """Interpolated quantile, in ms, of a ``LatencyHistogram.to_dict()``."""
    sparse = dict(payload.get("counts", {}))  # type: ignore[arg-type]
    size = 1 + max((int(index) for index in sparse), default=0)
    counts = [0] * size
    for index, count in sparse.items():
        counts[int(index)] = int(count)
    return (
        interpolated_quantile(
            counts,
            q,
            growth=float(payload["growth"]),  # type: ignore[arg-type]
            min_us=float(payload["min_us"]),  # type: ignore[arg-type]
            max_us=float(payload.get("max_us", 0.0)),  # type: ignore[arg-type]
        )
        / 1000.0
    )


def tail_samples(total: int, q: float, batch_size: int) -> Tuple[float, int]:
    """Samples beyond the ``q``-quantile: tuples, and at least how many batches.

    Workers record one latency per batch for all its tuples, so the tail
    holds at least ``tuples / batch_size`` independent measurements.
    """
    tuples = total * (1.0 - q)
    return tuples, math.ceil(tuples / batch_size) if tuples > 0 else 0


def source_lag_s(wall_seconds: float, tuples: int, rate: Optional[float]) -> float:
    """How late the input side ran: wall time minus ``tuples / rate``.

    A closed loop (``rate=None``) offers the whole stream at once, so every
    tuple is due at time zero and the lag is the full wall time.
    """
    if rate is None:
        return wall_seconds
    if rate <= 0:
        raise ValueError("rate must be positive")
    return wall_seconds - tuples / rate


def failed_frac(
    offered: float, completed: float, shed: float, *, aborted: bool = False
) -> float:
    """(Offered - completed + shed) / offered; an aborted run counts as 1."""
    if aborted or offered <= 0:
        return 1.0
    return min(max((offered - completed + shed) / offered, 0.0), 1.0)


def overhead_residual(
    cpu_us_per_tuple: float, layer_us_per_tuple: Mapping[str, float]
) -> Tuple[float, float]:
    """Split live CPU per tuple into measured layers and the unattributed rest.

    Returns ``(layer_sum, overhead)`` with ``layer_sum + overhead`` equal to
    ``cpu_us_per_tuple``.
    """
    layer_sum = math.fsum(layer_us_per_tuple.values())
    return layer_sum, cpu_us_per_tuple - layer_sum
