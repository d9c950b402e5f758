"""Programs: a set of IR functions plus a static data image.

Workloads bundle their kernels and constant tables (CRC tables, FFT
twiddle factors, S-boxes...) into a :class:`Program`.  The interpreter
loads the data image into memory before execution; the pass pipelines
transform every function of the program.
"""

from ..errors import IRError

_WORD_MASK = 0xFFFFFFFF


class DataSegment:
    """Static data image: byte values at absolute addresses.

    A tiny linker: ``place_words``/``place_bytes`` allocate consecutive
    storage and remember symbolic labels so workloads can pass base
    addresses into their kernels.
    """

    def __init__(self, base=0x1000):
        self._bytes = {}
        self._symbols = {}
        self._cursor = int(base)

    def place_words(self, label, words):
        """Allocate little-endian 32-bit words; return the base address."""
        address = self._align(4)
        self._symbols[label] = address
        for word in words:
            value = int(word) & _WORD_MASK
            for i in range(4):
                self._bytes[self._cursor] = (value >> (8 * i)) & 0xFF
                self._cursor += 1
        return address

    def place_bytes(self, label, data):
        """Allocate raw bytes; return the base address."""
        address = self._cursor
        self._symbols[label] = address
        for byte in data:
            self._bytes[self._cursor] = int(byte) & 0xFF
            self._cursor += 1
        return address

    def reserve_words(self, label, count):
        """Allocate zero-initialised words; return the base address."""
        return self.place_words(label, [0] * count)

    def _align(self, n):
        while self._cursor % n:
            self._cursor += 1
        return self._cursor

    def address_of(self, label):
        """Address of a previously placed symbol."""
        try:
            return self._symbols[label]
        except KeyError:
            raise IRError("unknown data symbol {!r}".format(label)) from None

    @property
    def image(self):
        """Mapping byte-address → byte value."""
        return dict(self._bytes)

    @property
    def symbols(self):
        """Copy of the symbol table (label -> address)."""
        return dict(self._symbols)

    @property
    def end(self):
        """First unallocated address (useful as a scratch-heap base)."""
        return self._cursor


class Program:
    """A named set of IR functions plus a data segment."""

    def __init__(self, name, data=None):
        self.name = str(name)
        self._functions = {}
        self._order = []
        self.data = data if data is not None else DataSegment()

    def add_function(self, func):
        """Register a function; the first one becomes ``main``."""
        if func.name in self._functions:
            raise IRError("duplicate function {!r}".format(func.name))
        self._functions[func.name] = func
        self._order.append(func.name)
        return func

    def function(self, name):
        """Look up a function by name."""
        try:
            return self._functions[name]
        except KeyError:
            raise IRError("no function named {!r}".format(name)) from None

    def has_function(self, name):
        """True when a function of that name exists."""
        return name in self._functions

    @property
    def functions(self):
        """Functions in registration order."""
        return [self._functions[name] for name in self._order]

    @property
    def main(self):
        """The first registered function — the workload entry point."""
        if not self._order:
            raise IRError("program {} has no functions".format(self.name))
        return self._functions[self._order[0]]

    def verify(self):
        """Verify every function and call target; returns self."""
        for func in self.functions:
            func.verify()
            for instr in func.instructions():
                if instr.is_call and instr.callee not in self._functions:
                    raise IRError("{} calls unknown function {!r}".format(
                        func.name, instr.callee))
        return self

    def content_key(self):
        """Hashable snapshot of everything that defines the program.

        The name, the data image and every function's
        :meth:`~repro.ir.function.IRFunction.content_key`.  Programs with
        equal keys run, optimise and lower identically, so the key can
        stand in for the program in memo tables.
        """
        return (self.name, tuple(self.data._bytes.items()),
                tuple(func.content_key() for func in self.functions))

    def clone(self):
        """Deep-ish copy of the program (functions cloned)."""
        copy = Program(self.name, data=self.data)
        for func in self.functions:
            copy.add_function(func.clone())
        return copy

    def __repr__(self):
        return "Program({!r}, funcs={})".format(self.name, self._order)
