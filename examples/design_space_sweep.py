#!/usr/bin/env python3
"""Design-space sweep: pick a machine + ISE budget for a codec core.

Scenario from the paper's introduction: a digital-entertainment SoC
team must decide between widening the issue path and spending silicon
on ISEs.  This example sweeps the six §5.1 machine configurations over
a set of area budgets on a media-ish workload mix (adpcm + jpeg) and
prints the reduction matrix, so the trade-off the paper argues about is
visible in one table.

Built on the stable public API: one :func:`repro.sweep` call runs the
whole (workload × machine × budget) grid — each cell explored once,
every budget evaluated against the frozen exploration — and returns a
frozen :class:`repro.SweepResult` with a content digest.  Pass
``jobs=N`` (or ``repro sweep --jobs N`` on the CLI) to fan each
exploration over the warm worker pool; the digest does not change.

Usage::

    python examples/design_space_sweep.py [--quick]
"""

import sys

from repro import sweep
from repro.dist.sweep import render_sweep
from repro.eval import default_profile

BUDGETS = (20_000, 80_000, 320_000)
WORKLOADS = ("adpcm", "jpeg")


def main():
    argv = sys.argv[1:]
    profile = "quick" if "--quick" in argv else default_profile()
    result = sweep(WORKLOADS, budgets=BUDGETS, profile=profile, seed=11)
    print(render_sweep(result))
    print("digest: {}".format(result.digest))


if __name__ == "__main__":
    main()
