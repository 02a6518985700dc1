"""Deterministic, seed-driven fault injection (the ``repro.faults`` plane).

Every resilience mechanism in this codebase — crash-retry in the suite
engine, the serving layer's circuit breaker and graceful drain, the store's
corrupt-entry quarantine — needs a way to *provoke* the failure it absorbs,
on demand and reproducibly.  This module is that switch: a compact spec
string names fault **sites** and per-site firing **rates**, and every draw
is a pure function of ``(seed, site, rule parameters, key)``, so two runs
under the same spec inject exactly the same faults at exactly the same
cells.

Activation
----------
Faults are **off by default** and compile into near-no-ops when disabled
(one ``os.environ`` lookup behind a cached plan).  They activate through the
``REPRO_FAULTS`` environment variable or the ``--inject-faults SPEC`` flag
of ``repro suite`` / ``repro serve`` / ``repro chaos`` (which exports the
variable so worker processes inherit it).

Spec grammar
------------
Semicolon-separated directives; a directive is either ``seed=N``, ``log=PATH``
(append one JSONL event per fired fault), or a rule ``site@rate[,key=value...]``::

    seed=7;log=faults.jsonl;worker.crash@0.25,point=start;store.corrupt@0.5
    worker.hang@0.1,sleep_s=5;journal.flaky@0.3

Sites
-----
``worker.crash``
    SIGKILL the current process (``point=start`` before the cell computes,
    ``point=finish`` after it computed but before it reported — the torn-
    result case).  Skipped in a protected process (see below).
``worker.hang``
    Sleep ``sleep_s`` (default 3600) at cell start — the wedged-worker case
    the per-task timeout machinery must catch.  Skipped when protected.
``worker.slow``
    Sleep ``sleep_s`` (default 0.05) at cell start — survivable slowdown.
``store.corrupt``
    Flip one byte of a just-written artifact-store entry (bit rot).
``store.torn``
    Truncate a just-written store entry to half its bytes (torn write).
``journal.flaky``
    Raise :class:`FaultError` (an ``OSError``) from a journal line write.
``http.drop``
    The server closes a connection without writing the computed response.

Rates are probabilities in ``[0, 1]``; a rule's draw for a given ``key`` is
``sha256(seed | site | params | key)`` mapped to ``[0, 1)`` and compared to
the rate — deterministic, order-independent, and varied per retry attempt
because task keys embed the attempt ordinal.

Protected processes
-------------------
A coordinator (the ``repro suite`` main process, the asyncio server loop)
must *observe* worker faults, not die of them: CLI activation calls
:func:`protect_current_process`, which pins this PID in
``REPRO_FAULTS_PROTECT_PID``.  Child workers inherit the variable but have a
different PID, so process-fatal sites (crash, hang) fire only in them.

>>> plan = FaultPlan.parse("seed=7;worker.crash@0.5,point=start")
>>> [plan.fires("worker.crash", f"POW9/rcm#a{k}", point="start") is not None
...  for k in range(4)]    # deterministic per-attempt draws
[False, True, False, True]
>>> plan.fires("worker.crash", "POW9/rcm#a0", point="finish") is None
True
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time
from dataclasses import dataclass, field

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "fires",
    "flaky_io",
    "get_fault_plan",
    "protect_current_process",
    "reset_fault_plan",
    "set_fault_plan",
    "worker_faults",
]

#: Known fault sites and the parameters each accepts.
FAULT_SITES: dict[str, frozenset] = {
    "worker.crash": frozenset({"point"}),
    "worker.hang": frozenset({"sleep_s"}),
    "worker.slow": frozenset({"sleep_s"}),
    "store.corrupt": frozenset(),
    "store.torn": frozenset(),
    "journal.flaky": frozenset(),
    "http.drop": frozenset(),
}

_PROTECT_ENV = "REPRO_FAULTS_PROTECT_PID"
_SPEC_ENV = "REPRO_FAULTS"
_LOG_ENV = "REPRO_FAULTS_LOG"


class FaultError(OSError):
    """An injected I/O failure (``journal.flaky``).

    Subclasses :class:`OSError` so the code paths that already survive a
    full disk or a yanked volume absorb injected failures identically.
    """


@dataclass(frozen=True)
class FaultRule:
    """One ``site@rate[,param=value...]`` rule of a fault plan."""

    site: str
    rate: float
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        extra = "".join(f",{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.site}@{self.rate:g}{extra}"


class FaultPlan:
    """A parsed fault specification: seed, rules, optional event log."""

    def __init__(self, *, seed: int = 0, rules=(), log_path=None, spec: str = ""):
        self.seed = int(seed)
        self.rules = list(rules)
        self.log_path = log_path
        self.spec = spec

    # ------------------------------------------------------------------ #
    # parsing
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (see the module docstring for the grammar).

        Raises :class:`ValueError` with a pointed message on an unknown
        site, an out-of-range rate, or a parameter the site does not take —
        a typo in a chaos spec must fail fast, not silently inject nothing.
        """
        seed = 0
        log_path = os.environ.get(_LOG_ENV, "").strip() or None
        rules: list[FaultRule] = []
        for chunk in str(spec).split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                name, eq, value = chunk.partition("=")
                name = name.strip()
                if not eq:
                    raise ValueError(
                        f"invalid fault directive {chunk!r}: expected "
                        f"'seed=N', 'log=PATH' or 'site@rate[,key=value...]'"
                    )
                if name == "seed":
                    try:
                        seed = int(value)
                    except ValueError:
                        raise ValueError(
                            f"fault seed must be an integer, got {value!r}"
                        ) from None
                elif name == "log":
                    log_path = value.strip()
                else:
                    raise ValueError(
                        f"unknown fault directive {name!r} (only 'seed' and "
                        f"'log' are directives; fault rules use 'site@rate')"
                    )
                continue
            head, _, tail = chunk.partition("@")
            site = head.strip()
            if site not in FAULT_SITES:
                raise ValueError(
                    f"unknown fault site {site!r}; available: "
                    f"{', '.join(sorted(FAULT_SITES))}"
                )
            parts = tail.split(",")
            try:
                rate = float(parts[0])
            except ValueError:
                raise ValueError(
                    f"fault rate for {site} must be a number in [0, 1], "
                    f"got {parts[0]!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate for {site} must be in [0, 1], got {rate:g}"
                )
            params: dict = {}
            for part in parts[1:]:
                pname, peq, pvalue = part.partition("=")
                pname = pname.strip()
                if not peq:
                    raise ValueError(
                        f"invalid fault parameter {part!r} for {site} "
                        f"(expected key=value)"
                    )
                if pname not in FAULT_SITES[site]:
                    allowed = sorted(FAULT_SITES[site]) or ["<none>"]
                    raise ValueError(
                        f"site {site} does not take parameter {pname!r} "
                        f"(accepted: {', '.join(allowed)})"
                    )
                params[pname] = pvalue.strip()
            if site == "worker.crash":
                point = params.setdefault("point", "start")
                if point not in ("start", "finish"):
                    raise ValueError(
                        f"worker.crash point must be 'start' or 'finish', "
                        f"got {point!r}"
                    )
            for name in ("sleep_s",):
                if name in params:
                    try:
                        params[name] = float(params[name])
                    except ValueError:
                        raise ValueError(
                            f"{site} {name} must be a number, "
                            f"got {params[name]!r}"
                        ) from None
            rules.append(FaultRule(site=site, rate=rate, params=params))
        return cls(seed=seed, rules=rules, log_path=log_path, spec=str(spec))

    def describe(self) -> str:
        """One-line summary (the CLI prints it when faults activate)."""
        rules = ", ".join(rule.describe() for rule in self.rules) or "<no rules>"
        return f"seed={self.seed}; {rules}"

    # ------------------------------------------------------------------ #
    # drawing
    # ------------------------------------------------------------------ #
    def _draw(self, rule: FaultRule, key: str) -> float:
        text = "\x1f".join([
            str(self.seed), rule.site,
            json.dumps(rule.params, sort_keys=True, default=str), str(key),
        ])
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def fires(self, site: str, key: str, *, point: str | None = None):
        """The first matching rule that fires for ``key``, or ``None``.

        A fired rule is logged to the event log (when configured).  ``point``
        filters ``worker.crash`` rules to the given execution point, so a
        ``point=finish`` rule never draws at a cell's start.
        """
        for rule in self.rules:
            if rule.site != site:
                continue
            if point is not None and rule.params.get("point", "start") != point:
                continue
            if self._draw(rule, key) < rule.rate:
                self._log_event(rule, key)
                return rule
        return None

    def _log_event(self, rule: FaultRule, key: str) -> None:
        if not self.log_path:
            return
        event = {
            "t": time.time(),
            "pid": os.getpid(),
            "site": rule.site,
            "rate": rule.rate,
            "params": {k: str(v) for k, v in rule.params.items()},
            "key": str(key),
        }
        try:
            with open(self.log_path, "a") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError:
            pass  # the event log must never become its own fault


# ---------------------------------------------------------------------- #
# process-wide plan resolution
# ---------------------------------------------------------------------- #
_UNSET = object()
_plan_override = _UNSET
_cached_plan: tuple | None = None  # (spec text, parsed plan)


def get_fault_plan() -> FaultPlan | None:
    """The ambient fault plan, or ``None`` when injection is disabled.

    An explicit :func:`set_fault_plan` override wins; otherwise the
    ``REPRO_FAULTS`` environment variable is parsed (and cached against its
    text, so the disabled path costs one environment lookup).  Raises
    :class:`ValueError` for an unparseable spec — callers that activate
    faults validate up front (:meth:`FaultPlan.parse`) so workers never see
    a bad spec.
    """
    global _cached_plan
    if _plan_override is not _UNSET:
        return _plan_override
    spec = os.environ.get(_SPEC_ENV, "").strip()
    if not spec:
        return None
    if _cached_plan is not None and _cached_plan[0] == spec:
        return _cached_plan[1]
    plan = FaultPlan.parse(spec)
    _cached_plan = (spec, plan)
    return plan


def set_fault_plan(plan) -> None:
    """Install a process-wide override: a :class:`FaultPlan`, a spec string,
    or ``None`` to force injection off even when ``REPRO_FAULTS`` is set."""
    global _plan_override
    if plan is None or isinstance(plan, FaultPlan):
        _plan_override = plan
    else:
        _plan_override = FaultPlan.parse(str(plan))


def reset_fault_plan() -> None:
    """Drop any override and the cached environment plan (tests / re-exec)."""
    global _plan_override, _cached_plan
    _plan_override = _UNSET
    _cached_plan = None


def protect_current_process() -> None:
    """Exempt *this* process from process-fatal faults (crash, hang).

    Sets ``REPRO_FAULTS_PROTECT_PID`` to this PID; child workers inherit the
    variable but run under their own PID, so they stay fully injectable.
    """
    os.environ[_PROTECT_ENV] = str(os.getpid())


def _protected() -> bool:
    return os.environ.get(_PROTECT_ENV, "") == str(os.getpid())


# ---------------------------------------------------------------------- #
# injection points
# ---------------------------------------------------------------------- #
def fires(site: str, key: str):
    """Pure query for caller-handled sites (``store.*``, ``http.drop``):
    the fired :class:`FaultRule` or ``None``.  Logs the event when fired."""
    plan = get_fault_plan()
    return None if plan is None else plan.fires(site, key)


def worker_faults(key: str, point: str = "start") -> None:
    """The worker-side fault point, called by ``execute_task``.

    At ``point="start"`` (before the cell computes) the survivable sites
    fire first — ``worker.slow`` everywhere, ``worker.hang`` only in
    unprotected processes — then ``worker.crash`` rules matching the point
    SIGKILL the process.  At ``point="finish"`` only crash rules draw: the
    cell computed but the result dies with the worker.
    """
    plan = get_fault_plan()
    if plan is None:
        return
    if point == "start":
        rule = plan.fires("worker.slow", key)
        if rule is not None:
            time.sleep(float(rule.params.get("sleep_s", 0.05)))
        if not _protected():
            rule = plan.fires("worker.hang", key)
            if rule is not None:
                time.sleep(float(rule.params.get("sleep_s", 3600.0)))
    if not _protected():
        rule = plan.fires("worker.crash", key, point=point)
        if rule is not None:
            os.kill(os.getpid(), signal.SIGKILL)


def flaky_io(site: str, key: str) -> None:
    """Raise :class:`FaultError` when an I/O-failure rule fires for ``key``."""
    plan = get_fault_plan()
    if plan is not None and plan.fires(site, key) is not None:
        raise FaultError(f"injected {site} failure ({key})")
