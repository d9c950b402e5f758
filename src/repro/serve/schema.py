"""Serve request validation, fingerprints and result payloads.

Requests are plain JSON objects (the framed bodies of
:mod:`repro.dist.protocol`'s serve extension).  Validation here is
strict and structural — unknown ops, unknown keys and wrong types are
:class:`RequestError` (answered as a structured ``ERR`` frame), while
semantic failures (an unknown workload or engine name) surface later
from the exploration machinery itself.

:func:`explore_fingerprint` is every request parameter that
determines the exploration *outcome* (``jobs`` is excluded: results
are bit-identical at any worker count).  Identical fingerprints are
served from the scope lane's memo without re-exploring.

Result payloads are JSON-able dicts mirroring the frozen
:class:`repro.api.ExploreResult` / :class:`repro.api.SelectionResult`
fields; :func:`payload_digest` hashes their canonical JSON so clients
(and the adversarial journey suite) can assert bit-identity across
transports.
"""

import hashlib
import json

from ..errors import ReproError

#: Request-body ceiling (bytes of encoded JSON); far above any real
#: request, far below the 64 MiB frame cap — a body this large is a
#: malfunctioning client, not a big sweep.
MAX_BODY = 1 << 20

#: The ops a serve request may carry.
OPS = ("explore", "evaluate", "sweep", "submit", "poll", "fetch",
       "cancel", "status", "subscribe")

#: Explore parameter defaults — exactly :func:`repro.api.explore`'s.
EXPLORE_DEFAULTS = {
    "issue": 2,
    "ports": "4/2",
    "profile": "quick",
    "seed": 0,
    "opt": "O3",
    "iterations": None,
    "restarts": None,
    "engine": "aco",
    "jobs": None,
    "batch": None,
}

#: Evaluate adds the selection budget on top of the explore params.
EVALUATE_DEFAULTS = {
    "max_area": None,
    "max_ises": None,
    "enable_sharing": True,
}

#: Sweep grid defaults (None → the api-level paper defaults).
SWEEP_DEFAULTS = {
    "machines": None,
    "budgets": None,
    "opt": "O3",
    "profile": "quick",
    "seed": 0,
    "engine": "aco",
    "jobs": None,
    "batch": None,
    "iterations": None,
    "restarts": None,
}


class RequestError(ReproError):
    """A structurally invalid serve request (answered as ERR)."""

    def __init__(self, message, code="bad-request"):
        super().__init__(message)
        self.code = code


def _require(condition, message, code="bad-request"):
    if not condition:
        raise RequestError(message, code=code)


def _take_int(body, name, default, required=False, optional=True):
    value = body.pop(name, default)
    if value is None and optional and not required:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool),
             "{!r} must be an integer".format(name))
    return value


def _take_str(body, name, default=None, required=False):
    value = body.pop(name, default)
    if required:
        _require(isinstance(value, str) and value,
                 "{!r} must be a non-empty string".format(name))
        return value
    if value is None:
        return None
    _require(isinstance(value, str), "{!r} must be a string".format(name))
    return value


def _take_number(body, name, default=None):
    value = body.pop(name, default)
    if value is None:
        return None
    _require(isinstance(value, (int, float))
             and not isinstance(value, bool),
             "{!r} must be a number".format(name))
    return value


def _take_bool(body, name, default):
    value = body.pop(name, default)
    _require(isinstance(value, bool),
             "{!r} must be a boolean".format(name))
    return value


def _take_timeout(body):
    timeout = _take_number(body, "timeout")
    if timeout is not None:
        _require(timeout > 0, "'timeout' must be positive")
    return timeout


def _explore_params(body):
    params = {"workload": _take_str(body, "workload", required=True)}
    for name in ("issue", "seed", "iterations", "restarts", "jobs",
                 "batch"):
        params[name] = _take_int(body, name, EXPLORE_DEFAULTS[name])
    for name in ("ports", "opt", "engine"):
        params[name] = _take_str(body, name, EXPLORE_DEFAULTS[name])
    params["profile"] = _take_str(body, "profile",
                                  EXPLORE_DEFAULTS["profile"])
    _require(params["issue"] is not None and params["issue"] >= 1,
             "'issue' must be a positive integer")
    _require(params["seed"] is not None, "'seed' must be an integer")
    return params


def _reject_unknown(body, op):
    if body:
        raise RequestError(
            "unknown key(s) for op {!r}: {}".format(
                op, ", ".join(sorted(repr(k) for k in body))))


def validate_request(body):
    """Normalise one request body; raises :class:`RequestError`.

    Returns a fresh dict with ``op``, every op parameter defaulted, and
    (for the execution ops) an optional ``timeout``.  Unknown ops and
    unknown keys are rejected rather than ignored — a fuzzer's garbage
    must never silently select defaults.
    """
    _require(isinstance(body, dict), "request body must be a JSON object")
    body = dict(body)
    op = body.pop("op", None)
    _require(isinstance(op, str), "request needs a string 'op'")
    if op not in OPS:
        raise RequestError(
            "unknown op {!r}; choose from {}".format(op, ", ".join(OPS)),
            code="bad-op")
    req = {"op": op}
    if op in ("explore", "submit"):
        req.update(_explore_params(body))
        req["timeout"] = _take_timeout(body)
    elif op == "evaluate":
        req.update(_explore_params(body))
        req["max_area"] = _take_number(body, "max_area")
        req["max_ises"] = _take_int(body, "max_ises", None)
        req["enable_sharing"] = _take_bool(body, "enable_sharing", True)
        req["timeout"] = _take_timeout(body)
    elif op == "sweep":
        workloads = body.pop("workloads", None)
        _require(isinstance(workloads, list) and workloads
                 and all(isinstance(w, str) and w for w in workloads),
                 "'workloads' must be a non-empty list of names")
        req["workloads"] = list(workloads)
        machines = body.pop("machines", SWEEP_DEFAULTS["machines"])
        if machines is not None:
            _require(isinstance(machines, list) and all(
                isinstance(m, (list, tuple)) and len(m) == 2
                and isinstance(m[0], str) and isinstance(m[1], int)
                and not isinstance(m[1], bool) and m[1] >= 1
                for m in machines),
                "'machines' must be a list of [ports, issue] pairs "
                "with a positive integer issue")
            machines = [(ports, issue) for ports, issue in machines]
        req["machines"] = machines
        budgets = body.pop("budgets", SWEEP_DEFAULTS["budgets"])
        if budgets is not None:
            _require(isinstance(budgets, list) and budgets and all(
                isinstance(b, (int, float)) and not isinstance(b, bool)
                for b in budgets),
                "'budgets' must be a non-empty list of numbers")
        req["budgets"] = budgets
        for name in ("seed", "iterations", "restarts", "jobs", "batch"):
            req[name] = _take_int(body, name, SWEEP_DEFAULTS[name])
        for name in ("opt", "engine"):
            req[name] = _take_str(body, name, SWEEP_DEFAULTS[name])
        req["profile"] = _take_str(body, "profile",
                                   SWEEP_DEFAULTS["profile"])
        req["timeout"] = _take_timeout(body)
    elif op in ("poll", "fetch"):
        req["job"] = _take_str(body, "job", required=True)
    elif op == "cancel":
        req["request"] = _take_int(body, "request", None)
        req["job"] = _take_str(body, "job")
        _require((req["request"] is None) != (req["job"] is None),
                 "cancel needs exactly one of 'request' or 'job'")
    elif op == "subscribe":
        req["events"] = _take_bool(body, "events", True)
    # "status" carries no parameters.
    _reject_unknown(body, op)
    return req


# -- canonical keys ----------------------------------------------------------

#: Explore params that determine the exploration outcome.  ``jobs`` is
#: deliberately absent — fan-out width never changes results.
_FINGERPRINT_FIELDS = ("workload", "opt", "issue", "ports", "profile",
                      "seed", "iterations", "restarts", "engine", "batch")


def explore_fingerprint(req):
    """Canonical identity of one exploration request's *outcome*."""
    return json.dumps({name: req[name] for name in _FINGERPRINT_FIELDS},
                      sort_keys=True)


def request_scope(req):
    """The serve lane key: the machine's shared-evalcache scope string.

    Explore/evaluate requests land on the lane of their machine scope
    (the same string that qualifies shared evalcache keys, so
    "same lane" and "same cache scope" are one concept); sweeps span
    machines and run on a dedicated ``sweep`` lane.
    """
    if req["op"] == "sweep":
        return "sweep"
    from ..hwlib.technology import DEFAULT_TECHNOLOGY
    from ..sched.machine import MachineConfig
    from ..core.evalcache import eval_scope

    machine = MachineConfig(req["issue"], req["ports"])
    return eval_scope(machine, DEFAULT_TECHNOLOGY)


# -- result payloads ---------------------------------------------------------

def explore_payload(result):
    """JSON-able dict of one :class:`repro.api.ExploreResult`."""
    return {
        "kind": "explore",
        "workload": result.workload, "opt": result.opt,
        "issue": result.issue, "ports": result.ports,
        "profile": result.profile, "seed": result.seed,
        "engine": result.engine,
        "baseline_cycles": result.baseline_cycles,
        "candidates": list(result.candidates),
    }


def selection_payload(result):
    """JSON-able dict of one :class:`repro.api.SelectionResult`."""
    return {
        "kind": "selection",
        "workload": result.workload, "opt": result.opt,
        "issue": result.issue, "ports": result.ports,
        "max_area": result.max_area, "max_ises": result.max_ises,
        "baseline_cycles": result.baseline_cycles,
        "final_cycles": result.final_cycles,
        "reduction": result.reduction,
        "num_ises": result.num_ises, "area": result.area,
        "ises": list(result.ises),
    }


def payload_digest(payload):
    """Content digest of one result payload's canonical JSON.

    Floats serialise via ``repr`` round-tripping in :mod:`json`, so two
    payloads digest equal iff they are bit-identical — the property the
    adversarial journeys assert across concurrent clients.
    """
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def explore_digest(payload):
    """Digest of an explore payload or raw response body.

    Accepts either :func:`explore_payload` output or a served response
    dict carrying the same keys (extra bookkeeping keys — ``digest``
    itself, timings — are ignored so client and server agree).
    """
    keys = ("kind", "workload", "opt", "issue", "ports", "profile",
            "seed", "engine", "baseline_cycles", "candidates")
    return payload_digest({name: payload[name] for name in keys
                           if name in payload})


def selection_digest(payload):
    """Digest of a selection payload or raw response body."""
    keys = ("kind", "workload", "opt", "issue", "ports", "max_area",
            "max_ises", "baseline_cycles", "final_cycles", "reduction",
            "num_ises", "area", "ises")
    return payload_digest({name: payload[name] for name in keys
                           if name in payload})
