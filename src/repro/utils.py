"""Small shared helpers: RNG normalization, sorted sets, percentiles,
readable formatting."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

#: Factors used by :func:`format_bytes` / :func:`parse_size`.
_UNITS = ["B", "KB", "MB", "GB", "TB", "PB"]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a NumPy ``Generator`` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so that callers can share RNG state).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def require_finite(
    name: str,
    value: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    exclusive_minimum: bool = False,
) -> float:
    """Validate a numeric config field; return it as ``float``.

    Rejects NaN and infinities explicitly — a plain ``value < minimum``
    comparison silently accepts NaN (every comparison with NaN is false),
    which is how non-finite timeouts used to slip through config
    validation.  Raises :class:`~repro.errors.ConfigError` on violation.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if minimum is not None:
        if exclusive_minimum:
            if value <= minimum:
                raise ConfigError(f"{name} must be > {minimum}, got {value}")
        elif value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{name} must be <= {maximum}, got {value}")
    return value


def percentile(values, p: float) -> float | None:
    """Nearest-rank ``p``-th percentile of ``values``, exact and
    deterministic; ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


def format_bytes(n: float) -> str:
    """Render a byte count with a binary-ish 1000-based unit, e.g. ``1.5 GB``."""
    if n < 0:
        raise ConfigError(f"byte count must be non-negative, got {n}")
    value = float(n)
    for unit in _UNITS:
        if value < 1000.0 or unit == _UNITS[-1]:
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1000.0
    raise AssertionError("unreachable")


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit (ns/us/ms/s)."""
    if seconds < 0:
        raise ConfigError(f"duration must be non-negative, got {seconds}")
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.3f} us"
    return f"{seconds * 1e9:.1f} ns"


def format_rate(per_second: float) -> str:
    """Render an operation rate, e.g. ``1.5M/s``."""
    if per_second < 0:
        raise ConfigError(f"rate must be non-negative, got {per_second}")
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if per_second >= factor:
            return f"{per_second / factor:.2f}{suffix}/s"
    return f"{per_second:.2f}/s"


def package_version() -> str:
    """The installed ``repro`` distribution version, with a source fallback.

    Prefers package metadata (the pip-installed truth) and falls back to
    the in-tree ``repro.__version__`` when running uninstalled from a
    source checkout (e.g. ``PYTHONPATH=src``).
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        pass
    import repro

    return getattr(repro, "__version__", "0.0.0")


def splitmix64(values: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of every value: a stateless, well-mixed
    64-bit hash (a new ``uint64`` array; arithmetic wraps mod 2**64)."""
    x = np.asarray(values, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def rendezvous_weights(
    keys: np.ndarray, num_buckets: int, seed: int
) -> np.ndarray:
    """Highest-random-weight matrix: ``weights[i, b]`` for key ``i``, bucket ``b``.

    Each entry is a pure hash of ``(seed, key, bucket)`` — independent of
    ``num_buckets`` — so adding a bucket adds a *column* without perturbing
    any existing entry.  That is the property consistent (rendezvous)
    hashing is built on; the fleet shards training ids with it and storage
    HA places page replicas with it.
    """
    ids = splitmix64(
        keys.astype(np.uint64) ^ np.uint64(seed * 0x9E3779B9 + 1)
    )
    buckets = splitmix64(
        np.arange(num_buckets, dtype=np.uint64)
        + np.uint64(seed) * np.uint64(7919)
    )
    return splitmix64(ids[:, None] ^ buckets[None, :])


def splitmix64_uniform(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic per-value uniforms in ``[0, 1)`` (vectorized).

    A stateless hash, not an RNG stream: the same ``(value, salt)`` pair
    always maps to the same uniform, so set-membership decisions derived
    from it (e.g. which pages a corruption storm poisons) are reproducible
    without consuming anyone's random stream.
    """
    x = splitmix64(
        np.asarray(values, dtype=np.uint64)
        + np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
    )
    return (x >> np.uint64(40)).astype(np.float64) / float(1 << 24)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D integer array, always a new array.

    Equal to ``np.unique(values)`` without its hash table: the sort is
    skipped when the input is already non-decreasing (a grown frontier, the
    page ids of sorted nodes), and duplicates go with one adjacent-compare
    mask.
    """
    values = np.asarray(values)
    if len(values) < 2:
        return values.copy()
    if not (values[1:] >= values[:-1]).all():
        values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def isin_set(values: np.ndarray, members: set[int]) -> np.ndarray:
    """Boolean mask over ``values``: which are in the Python set ``members``.

    One vectorised membership per call; a per-element ``v in members``
    steps the interpreter once per value.
    """
    return np.isin(values, np.fromiter(members, np.int64, len(members)))


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ConfigError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ConfigError(f"dividend must be non-negative, got {a}")
    return -(-a // b)
