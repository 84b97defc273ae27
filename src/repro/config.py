"""Shared configuration parsing: the warn-once invalid-env discipline.

Several subsystems read ambient ``REPRO_*`` knobs and all want the same
behaviour for bad values: ignore them **loudly** -- one stderr warning
per (variable, value) per process plus a ``config.invalid_env`` trace
event on the active obs session -- instead of silently clamping.  That
pattern used to be re-implemented in ``repro.resilience``,
``repro.obs.events``, ``repro.sim.parallel`` and ``repro.faults``; this
module is now the single owner.  The public helpers:

* :func:`positive_env` -- a number ``>= minimum`` from an environment
  variable, or ``None`` (unset or invalid-and-warned);
* :func:`warn_once` -- the underlying dedup'd stderr + obs-event
  emitter, for warnings that are not about numeric env values (e.g.
  ``repro.faults``' unknown-site clauses).

Knobs parsed here on behalf of the observability layer:

``REPRO_TRACE``
    Span-ring capacity for :mod:`repro.obs.tracing`.  Unset -> tracing
    enabled at the default capacity; ``0`` -> tracing disabled;
    a positive integer -> enabled with that capacity.
``REPRO_SLO``
    Serve p95 latency target in seconds for
    :func:`repro.obs.slo.default_serve_slos` (defaults to the
    degradation ladder's 0.100 s target).
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Optional, Tuple

__all__ = [
    "forget_warnings",
    "positive_env",
    "warn_once",
]

#: Keys already warned about (warn once per process).  A key is any
#: hashable; numeric-env warnings use ``("env", name, raw)``.
_WARNED: set = set()


def warn_once(
    key,
    message: str,
    category: str = "config.invalid_env",
    severity: str = "warn",
    **fields,
) -> bool:
    """One stderr warning + obs trace event per ``key`` per process.

    Returns whether this call actually warned (``False`` when ``key``
    was already seen).  The obs emission is best-effort: an inactive or
    partially-imported obs session never turns a warning into a crash.
    """
    if key in _WARNED:
        return False
    _WARNED.add(key)
    print(f"warning: {message}", file=sys.stderr)
    try:  # best effort: obs may not be importable this early
        from repro.obs import get_session

        session = get_session()
        if session is not None:
            session.events.emit(category, severity, **fields)
    except Exception:
        pass
    return True


def forget_warnings(prefix: Optional[str] = None) -> None:
    """Clear warn-once state (test teardown).

    With ``prefix``, only keys that are tuples starting with that
    string are forgotten (e.g. ``repro.faults.reset`` forgets its
    unknown-site warnings without resetting everyone else's).
    """
    if prefix is None:
        _WARNED.clear()
        return
    for key in [k for k in _WARNED if isinstance(k, tuple) and k and k[0] == prefix]:
        _WARNED.discard(key)


def positive_env(
    name: str,
    parse: Callable = int,
    minimum: float = 1,
) -> Optional[float]:
    """A number ``>= minimum`` from ``$name``, or ``None`` (unset/invalid).

    Invalid, out-of-range or unparseable values are ignored loudly via
    :func:`warn_once` (stderr + ``config.invalid_env``), never silently
    clamped.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return None
    try:
        value = parse(raw)
    except ValueError:
        value = None
    if value is None or value < minimum:
        warn_once(
            ("env", name, raw),
            f"ignoring invalid {name}={raw!r} (want a number >= {minimum})",
            variable=name,
            value=raw,
        )
        return None
    return value


def trace_env(default_capacity: int) -> Tuple[bool, int]:
    """``REPRO_TRACE`` as ``(enabled, span ring capacity)``.

    Unset -> ``(True, default_capacity)``; ``0`` -> ``(False, ...)``;
    a positive int -> ``(True, that capacity)``; anything else warns
    once and falls back to the default.
    """
    value = positive_env("REPRO_TRACE", int, minimum=0)
    if value is None:
        return True, default_capacity
    if value == 0:
        return False, default_capacity
    return True, int(value)


def slo_target_env(default_s: float) -> float:
    """``REPRO_SLO`` as the serve p95 target in seconds, else ``default_s``."""
    value = positive_env("REPRO_SLO", float, minimum=1e-6)
    return float(value) if value is not None else default_s
