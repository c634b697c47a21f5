"""The curve-algebra kernel: one dispatch layer for every curve operation.

Motivated by Nancy (Zippo & Stea) and the UPP toolbox: an exact NC
library gets its order-of-magnitude wins not from faster envelopes but
from *not computing them* — canonical representations make curve
identity cheap, identity makes memoization sound, and shape recognition
replaces the generic ``O(n·m)`` piece-envelope algorithm with closed
forms for the curves the paper actually uses (rate-latency, leaky
bucket, constant rate).

Every public operator in :mod:`repro.nc` now funnels through two entry
points here:

* :func:`binary_op` — ``(op, f, g) -> result`` for convolution,
  deconvolution, min/max, and the deviation bounds;
* :func:`unary_op` — ``(op, f) -> result`` for pseudo-inverses,
  sub-additive closure, and packetization.

Dispatch per call:

1. **Canonicalize + intern** each operand (:func:`interned`): merged
   collinear pieces under the shared tolerance policy
   (:mod:`repro.nc.tolerance`), a 128-bit BLAKE2 content digest over the
   canonical arrays, and a bounded digest→curve table so identical
   curves are one object.  The digest is stamped on the curve
   (``Curve._digest``), making ``==``/``hash`` O(1) afterwards.
2. **Memo lookup** of ``(op, digest_f, digest_g, *extras)`` in a bounded
   LRU shared by the whole process — one per sweep worker across points,
   one per serve worker across requests.
3. **Fast path**: if the operands match a known shape (see
   ``_FAST_BINARY``/``_FAST_UNARY``), return the closed form.  Fast
   paths are exact closed forms: on inputs whose breakpoint arithmetic
   is exactly representable (dyadic rationals — the property-test grid)
   they reproduce the generic algorithm byte-for-byte, and they decline
   (return ``None``) for any shape where that cannot hold.  On general
   floats the *generic* envelope can carry ulp-wide sliver pieces from
   line-intercept rounding; the closed form returns the mathematically
   canonical result instead.
4. **Generic fallback**: the envelope-based algorithm supplied by the
   calling module.

Fast-path dispatch is part of the algebra and always active, which is
what makes analysis outputs byte-identical with the kernel on or off.
``REPRO_NC_KERNEL=0`` (or :func:`set_kernel_enabled`) disables only the
*stateful* layers — canonicalizing interning and the memo — as the
benchmark baseline.  Hit/miss/eviction counters surface through
:func:`memo_stats`, :func:`publish_metrics` (``telemetry.metrics``),
``repro cache --stats``, and the serve ``/capacity`` endpoint.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from .curve import Curve
from .tolerance import EPS

__all__ = [
    "binary_op",
    "unary_op",
    "interned",
    "digest_of",
    "eval_batch",
    "kernel_enabled",
    "set_kernel_enabled",
    "kernel_disabled",
    "memo_stats",
    "reset_kernel",
    "publish_metrics",
    "worker_init",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_NC_KERNEL", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


_ENABLED: bool = _env_enabled()

#: memoized op results — bounded LRU, one per process
_MEMO_MAX = 4096
#: interned canonical curves — digest -> Curve, bounded LRU
_INTERN_MAX = 8192

_LOCK = threading.Lock()
_MEMO: "OrderedDict[tuple, Any]" = OrderedDict()
_INTERN: "OrderedDict[str, Curve]" = OrderedDict()

_COUNTERS = {
    "hits": 0,
    "misses": 0,
    "evictions": 0,
    "fast_path": 0,
    "interned": 0,
    "intern_evictions": 0,
    "eval_batch_calls": 0,
    "eval_batch_points": 0,
}


# --------------------------------------------------------------------- #
# canonicalization, digest, interning
# --------------------------------------------------------------------- #


def _digest_arrays(c: Curve) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (c.bx, c.by, c.sy, c.sl):
        h.update(arr.tobytes())
    return h.hexdigest()


def _arrays_equal(a: Curve, b: Curve) -> bool:
    return (
        len(a.bx) == len(b.bx)
        and np.array_equal(a.bx, b.bx)
        and np.array_equal(a.by, b.by)
        and np.array_equal(a.sy, b.sy)
        and np.array_equal(a.sl, b.sl)
    )


def interned(curve: Curve) -> Curve:
    """Canonical, digest-stamped, shared representative of ``curve``.

    Identical curves (after merging collinear pieces under the shared
    tolerance) return the *same object*, so downstream equality is a
    pointer comparison and memo keys are digest strings computed once.
    When the kernel is disabled this is the identity function.
    """
    if not _ENABLED:
        return curve
    d = getattr(curve, "_digest", None)
    with _LOCK:
        if d is not None:
            hit = _INTERN.get(d)
            if hit is not None:
                _INTERN.move_to_end(d)
                return hit
            _intern_store(d, curve)
            return curve
    # digest unknown: canonicalize outside the lock (may allocate)
    canon = curve.canonical()
    keep = curve if _arrays_equal(curve, canon) else canon
    d = _digest_arrays(keep)
    with _LOCK:
        hit = _INTERN.get(d)
        if hit is not None:
            _INTERN.move_to_end(d)
            return hit
        if getattr(keep, "_digest", None) is None:
            object.__setattr__(keep, "_digest", d)
        _intern_store(d, keep)
        return keep


def _intern_store(d: str, c: Curve) -> None:
    _INTERN[d] = c
    _COUNTERS["interned"] += 1
    while len(_INTERN) > _INTERN_MAX:
        _INTERN.popitem(last=False)
        _COUNTERS["intern_evictions"] += 1


def digest_of(curve: Curve) -> str:
    """Stable content digest of a curve (canonical-form BLAKE2-128)."""
    d = getattr(curve, "_digest", None)
    if d is not None:
        return d
    return digest_of(interned(curve)) if _ENABLED else _digest_arrays(curve.canonical())


# --------------------------------------------------------------------- #
# shape recognizers (all on canonical curves; exact comparisons only)
# --------------------------------------------------------------------- #


def _rl_params(c: Curve) -> tuple[float, float] | None:
    """``(rate, latency)`` when ``c`` is a canonical rate-latency curve.

    Covers the degenerate corners: constant-rate (latency 0) and the
    zero curve (rate 0).  Exact float comparisons are safe because the
    arrays are canonical.
    """
    n = len(c.bx)
    if n == 1:
        if c.by[0] == 0.0 and c.sy[0] == 0.0 and c.sl[0] >= 0.0:
            return float(c.sl[0]), 0.0
        return None
    if (
        n == 2
        and c.by[0] == 0.0
        and c.by[1] == 0.0
        and c.sy[0] == 0.0
        and c.sy[1] == 0.0
        and c.sl[0] == 0.0
        and c.sl[1] > 0.0
    ):
        return float(c.sl[1]), float(c.bx[1])
    return None


def _make_rate_latency(rate: float, latency: float) -> Curve:
    if latency == 0.0:
        return Curve([0.0], [0.0], [0.0], [rate])
    return Curve([0.0, latency], [0.0, 0.0], [0.0, 0.0], [0.0, rate])


def _jump_line_params(c: Curve) -> tuple[float, float] | None:
    """``(burst, rate)`` for single-piece curves through the origin.

    The leaky-bucket family: ``f(0) = 0``, right-limit ``burst >= 0`` at
    ``0+``, then one affine ray of slope ``rate >= 0``.  Constant-rate
    curves are the ``burst = 0`` member.
    """
    if len(c.bx) != 1:
        return None
    if c.by[0] == 0.0 and c.sy[0] >= 0.0 and c.sl[0] >= 0.0:
        return float(c.sy[0]), float(c.sl[0])
    return None


def _single_piece_nondecreasing(c: Curve) -> tuple[float, float, float] | None:
    """``(value0, right_limit0, rate)`` for nondecreasing one-piece curves."""
    if len(c.bx) != 1:
        return None
    if c.by[0] <= c.sy[0] and c.sl[0] >= 0.0:
        return float(c.by[0]), float(c.sy[0]), float(c.sl[0])
    return None


# --------------------------------------------------------------------- #
# closed-form fast paths
# --------------------------------------------------------------------- #
#
# Contract: each fast path returns the exact closed form of the
# operation or None to decline.  Because dispatch runs identically with
# the kernel enabled or disabled, fast paths never affect on-vs-off
# byte-identity; bit-for-bit agreement with the generic algorithm is
# property-tested on the dyadic-float curve families where the generic's
# own envelope arithmetic is exact.


def _fast_convolve(f: Curve, g: Curve) -> Curve | None:
    rf, rg = _rl_params(f), _rl_params(g)
    if rf is not None and rg is not None:
        # (R1,T1) (*) (R2,T2) = (min(R1,R2), T1+T2); breakpoint and rate
        # arise in the generic envelope as the same float expressions.
        return _make_rate_latency(min(rf[0], rg[0]), rf[1] + rg[1])
    jf, jg = _jump_line_params(f), _jump_line_params(g)
    if jf is not None and jg is not None:
        # concave one-piece curves through the origin: convolution is the
        # pointwise minimum, and for this shape the generic convolution
        # bag reduces to exactly the minimum's line set (the combined
        # piece has the smaller slope with a dominated intercept).
        from .curve import _minimum_generic

        return _minimum_generic(f, g)
    return None


def _fast_deconvolve(f: Curve, g: Curve) -> Curve | None:
    sp = _single_piece_nondecreasing(f)
    rl = _rl_params(g)
    if sp is None or rl is None:
        return None
    v0, s0, ra = sp
    rb, t = rl
    if ra > rb:
        return None  # generic raises UnboundedCurveError; keep its message
    # sup_u f(t+u) - beta(u) peaks at u = T: an affine result (no jump),
    # anchored exactly as the generic straddling piece computes it.
    v = s0 + ra * t
    return Curve([0.0], [v], [v], [ra])


def _fast_extremum(f: Curve, g: Curve) -> Curve | None:
    if getattr(f, "_digest", None) is not None and f._digest == getattr(
        g, "_digest", None
    ):
        return f
    return None


def _fast_vdev(f: Curve, g: Curve) -> float | None:
    jf = _jump_line_params(f)
    rl = _rl_params(g)
    if jf is None or rl is None:
        return None
    b, ra = jf
    rb, t = rl
    if ra > rb:
        return None  # sup is +inf; let the generic path report it
    # sup_t [alpha - beta] at t = T: the paper's x <= b + R_alpha * T
    return b + ra * t


def _fast_closure(f: Curve) -> Curve | None:
    if f.by[0] == 0.0 and f.is_nondecreasing() and f.is_concave():
        # concave + f(0) = 0 => subadditive => f (*) f = f: the fixpoint
        # iteration converges to its input immediately.
        return f
    return None


_FAST_BINARY: dict[str, Callable[[Curve, Curve], Any]] = {
    "convolve": _fast_convolve,
    "deconvolve": _fast_deconvolve,
    "minimum": _fast_extremum,
    "maximum": _fast_extremum,
    "vertical_deviation": _fast_vdev,
    # NOTE: no horizontal_deviation fast path.  The generic level sweep
    # recovers open-interval right-limits by midpoint extrapolation,
    # whose rounding differs from the closed form T + b/R_beta by an ulp
    # even on dyadic inputs, so the exactness contract cannot be met.
    # Memoization still amortizes the sweep.
}

_FAST_UNARY: dict[str, Callable[[Curve], Any]] = {
    "subadditive_closure": _fast_closure,
}


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #


def _memo_get(key: tuple) -> tuple[bool, Any]:
    with _LOCK:
        if key in _MEMO:
            _MEMO.move_to_end(key)
            _COUNTERS["hits"] += 1
            return True, _MEMO[key]
        _COUNTERS["misses"] += 1
        return False, None


def _memo_put(key: tuple, value: Any) -> None:
    with _LOCK:
        _MEMO[key] = value
        while len(_MEMO) > _MEMO_MAX:
            _MEMO.popitem(last=False)
            _COUNTERS["evictions"] += 1


def binary_op(
    op: str,
    f: Curve,
    g: Curve,
    generic: Callable[[Curve, Curve], Any],
    *,
    key_extra: tuple = (),
) -> Any:
    """Dispatch a two-operand curve operation through the kernel.

    ``generic`` is the exact envelope-based fallback; ``key_extra``
    carries any scalar parameters that shape the result (they become
    part of the memo key).  Results that are curves are interned before
    caching, so every caller shares one object.
    """
    if not _ENABLED:
        fast = _FAST_BINARY.get(op)
        result = fast(f, g) if fast is not None else None
        return generic(f, g) if result is None else result
    cf, cg = interned(f), interned(g)
    key = (op, cf._digest, cg._digest, *key_extra)
    hit, value = _memo_get(key)
    if hit:
        return value
    fast = _FAST_BINARY.get(op)
    result = fast(cf, cg) if fast is not None else None
    if result is None:
        result = generic(cf, cg)
    else:
        _COUNTERS["fast_path"] += 1
    if isinstance(result, Curve):
        result = interned(result)
    _memo_put(key, result)
    return result


def unary_op(
    op: str,
    f: Curve,
    generic: Callable[[Curve], Any],
    *,
    key_extra: tuple = (),
) -> Any:
    """Dispatch a one-operand curve operation through the kernel."""
    if not _ENABLED:
        fast = _FAST_UNARY.get(op)
        result = fast(f) if fast is not None else None
        return generic(f) if result is None else result
    cf = interned(f)
    key = (op, cf._digest, *key_extra)
    hit, value = _memo_get(key)
    if hit:
        return value
    fast = _FAST_UNARY.get(op)
    result = fast(cf) if fast is not None else None
    if result is None:
        result = generic(cf)
    else:
        _COUNTERS["fast_path"] += 1
    if isinstance(result, Curve):
        result = interned(result)
    _memo_put(key, result)
    return result


# --------------------------------------------------------------------- #
# switches, stats, telemetry
# --------------------------------------------------------------------- #


def eval_batch(curve: Curve, xs: Any) -> np.ndarray:
    """Evaluate ``curve`` at a whole vector of abscissae in one call.

    The batched entry point for layers that hold full point lists — the
    sweep runner's grid evaluation, the scenario judge's checks, the
    telemetry conformance replay, and the serve tier's capacity
    sampling.  Always returns a 1-D float array (scalar input becomes a
    length-1 array).  Counted in :func:`memo_stats` as
    ``eval_batch_calls`` / ``eval_batch_points``.
    """
    arr = np.atleast_1d(np.asarray(xs, dtype=float)).ravel()
    with _LOCK:
        _COUNTERS["eval_batch_calls"] += 1
        _COUNTERS["eval_batch_points"] += arr.size
    return np.asarray(curve(arr), dtype=float)


def kernel_enabled() -> bool:
    """Whether operands are interned and op results memoized."""
    return _ENABLED


def set_kernel_enabled(flag: bool) -> None:
    """Flip the kernel on or off for this process (bench/test hook)."""
    global _ENABLED
    _ENABLED = bool(flag)


@contextmanager
def kernel_disabled() -> Iterator[None]:
    """Temporarily run without interning or memoization (bench baseline).

    The algebra itself (fast paths + generic fallback) is unchanged, so
    results are byte-identical — only the caching layers are bypassed.
    """
    global _ENABLED
    prev = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = prev


def reset_kernel(*, clear_counters: bool = True) -> None:
    """Drop the memo and intern tables (cold-start, for bench/tests)."""
    with _LOCK:
        _MEMO.clear()
        _INTERN.clear()
        if clear_counters:
            for k in _COUNTERS:
                _COUNTERS[k] = 0


def memo_stats() -> dict[str, Any]:
    """Size, hit rate, and eviction counters of the process-wide memo."""
    with _LOCK:
        hits = _COUNTERS["hits"]
        misses = _COUNTERS["misses"]
        total = hits + misses
        return {
            "enabled": _ENABLED,
            "eval_batch_calls": _COUNTERS["eval_batch_calls"],
            "eval_batch_points": _COUNTERS["eval_batch_points"],
            "size": len(_MEMO),
            "max_size": _MEMO_MAX,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
            "evictions": _COUNTERS["evictions"],
            "fast_path_hits": _COUNTERS["fast_path"],
            "interned_curves": len(_INTERN),
            "intern_evictions": _COUNTERS["intern_evictions"],
            "tolerance_eps": EPS,
        }


def publish_metrics(registry: Any) -> None:
    """Mirror the kernel counters into a ``telemetry.metrics`` registry.

    Counters are monotonic, so re-publishing advances them by the delta
    since the last publish; gauges track the current table sizes.
    """
    stats = memo_stats()
    for name in (
        "hits",
        "misses",
        "evictions",
        "fast_path_hits",
        "eval_batch_calls",
        "eval_batch_points",
    ):
        counter = registry.counter(f"nc_kernel.memo_{name}")
        delta = stats[name] - counter.value
        if delta > 0:
            counter.inc(delta)
    registry.gauge("nc_kernel.memo_size").set(float(stats["size"]))
    registry.gauge("nc_kernel.interned_curves").set(float(stats["interned_curves"]))


def worker_init() -> None:
    """Process-pool initializer: start each worker with a clean kernel.

    The memo and intern tables are module-global, so after this runs
    once per worker process every point (sweep) or request (serve)
    evaluated by that worker shares the same tables — the cross-request
    reuse the kernel exists for.
    """
    reset_kernel()
