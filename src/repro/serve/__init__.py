"""Exploration-as-a-service: the long-lived ``repro serve`` daemon.

One asyncio process multiplexes many concurrent clients onto the
expensive exploration machinery:

* :mod:`repro.serve.schema` — request validation, canonical request
  fingerprints and result payloads/digests;
* :mod:`repro.serve.session` — per-machine-scope worker lanes that
  answer queued requests one at a time, from a memo or through
  :func:`repro.api.explore`;
* :mod:`repro.serve.server` — the TCP front end (framed JSON over the
  :mod:`repro.dist.protocol` length-prefix discipline) with per-client
  quotas, request timeouts, cancellation and event streaming;
* :mod:`repro.serve.client` — the small blocking :class:`ServiceClient`.

Every served result is bit-identical to the one-shot
:func:`repro.api.explore` / :func:`repro.api.evaluate` /
:func:`repro.api.sweep` call with the same request — memoing and
multiplexing are throughput optimisations, never semantic ones.
See docs/SERVICE.md for the wire format and operational notes.
"""

from .client import ServiceClient, ServiceError
from .schema import RequestError, explore_digest, payload_digest
from .server import ExploreServer

__all__ = [
    "ExploreServer",
    "RequestError",
    "ServiceClient",
    "ServiceError",
    "explore_digest",
    "payload_digest",
]
