"""Technology / clocking assumptions of the evaluation (§5.1).

The thesis assumes a CPU core synthesised in 0.13 µm CMOS running at
100 MHz, i.e. a 10 ns cycle, and that every base PISA instruction takes
one cycle.  :class:`Technology` packages these numbers so alternative
operating points can be explored (the ablation benches sweep the clock).
"""

import math

from ..errors import ConfigError


class Technology:
    """Clock and process assumptions.

    Parameters
    ----------
    clock_mhz:
        Core frequency; the paper uses 100 MHz.
    node_um:
        Process node in µm; informational only (area numbers in the
        database are already in µm² at this node).
    """

    __slots__ = ("clock_mhz", "node_um", "_cycles_cache")

    def __init__(self, clock_mhz=100.0, node_um=0.13):
        if clock_mhz <= 0:
            raise ConfigError("clock frequency must be positive")
        if node_um <= 0:
            raise ConfigError("process node must be positive")
        self.clock_mhz = float(clock_mhz)
        self.node_um = float(node_um)
        # Delay→cycles memo: the option database yields a small set of
        # distinct delays, but the schedulers quantise them millions of
        # times per exploration.
        self._cycles_cache = {}

    @property
    def cycle_ns(self):
        """Clock period in nanoseconds (10 ns at the paper's 100 MHz)."""
        return 1000.0 / self.clock_mhz

    def cycles_for_delay(self, delay_ns):
        """Number of whole cycles a combinational delay occupies.

        A zero (or negative) delay still costs one issue slot, hence the
        floor of one cycle.
        """
        cycles = self._cycles_cache.get(delay_ns)
        if cycles is None:
            if delay_ns <= 0:
                cycles = 1
            else:
                cycles = max(1, int(math.ceil(
                    delay_ns / self.cycle_ns - 1e-9)))
            self._cycles_cache[delay_ns] = cycles
        return cycles

    def __getstate__(self):
        # The delay memo holds whatever the process quantised before, so
        # it stays out: equal results must pickle to equal bytes.
        return self.clock_mhz, self.node_um

    def __setstate__(self, state):
        if state[0] is None:          # older pickles: (None, slot dict)
            state = state[1]["clock_mhz"], state[1]["node_um"]
        self.clock_mhz, self.node_um = state
        self._cycles_cache = {}

    def __repr__(self):
        return "Technology({} MHz, {} um)".format(self.clock_mhz, self.node_um)

    def __eq__(self, other):
        return (isinstance(other, Technology)
                and other.clock_mhz == self.clock_mhz
                and other.node_um == self.node_um)

    def __hash__(self):
        return hash((self.clock_mhz, self.node_um))


DEFAULT_TECHNOLOGY = Technology()
