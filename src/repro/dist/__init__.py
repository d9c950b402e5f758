"""Grid sweeps and the service wire format.

* :mod:`repro.dist.sweep` — the (workload × machine × budget) sweep
  behind :func:`repro.api.sweep` (``repro sweep``);
* :mod:`repro.dist.protocol` — the length-prefixed frames the
  exploration service (:mod:`repro.serve`) speaks.
"""
