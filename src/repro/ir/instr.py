"""IR instructions.

The intermediate representation sits one small step above PISA assembly:
unbounded virtual registers (plain strings), explicit basic blocks, and
symbolic branch targets.  Arithmetic mnemonics are exactly the PISA ones
(:mod:`repro.isa.opcodes`), so lowering a basic block to a data-flow
graph of :class:`~repro.isa.instruction.Operation` objects is a direct
transcription.

Instruction kinds
-----------------
* computational — ``add``, ``subu``, ``xor`` ... (dest, sources, imm)
* constants — ``li dest, imm``
* memory — ``lw dest, [addr+imm]`` / ``sw value, [addr+imm]``
* control — ``beq/bne/blez/bgtz/bltz/bgez`` with block-label targets,
  ``j label``, ``ret [value]``
* ``call dest, callee, args`` — direct call, inlinable at -O3
"""

from ..errors import IRError
from ..isa.opcodes import is_known, opcode as _lookup

#: Mnemonics that exist only at the IR level.
_IR_ONLY = {"ret", "call"}

#: Conditional branch mnemonics and their source-operand counts.
CONDITIONAL_BRANCHES = {
    "beq": 2, "bne": 2, "blez": 1, "bgtz": 1, "bltz": 1, "bgez": 1,
}


class IRInstr:
    """One IR instruction.

    Attributes
    ----------
    op:
        Mnemonic string.
    dest:
        Destination virtual register, or ``None``.
    sources:
        Tuple of source virtual registers.
    imm:
        Optional immediate.
    targets:
        Tuple of block labels — ``(taken, )`` for ``j``, ``(taken,
        fallthrough)`` for conditional branches, empty otherwise.
    callee / args:
        For ``call``: function name and argument registers.
    """

    __slots__ = ("op", "dest", "sources", "imm", "targets", "callee", "args")

    def __init__(self, op, dest=None, sources=(), imm=None, targets=(),
                 callee=None, args=()):
        if not (is_known(op) or op in _IR_ONLY):
            raise IRError("unknown IR mnemonic {!r}".format(op))
        self.op = op
        self.dest = dest
        self.sources = tuple(sources)
        self.imm = imm
        self.targets = tuple(targets)
        self.callee = callee
        self.args = tuple(args)

    # -- classification -------------------------------------------------

    @property
    def is_branch(self):
        """True for conditional branches and ``j``."""
        return self.op in CONDITIONAL_BRANCHES or self.op == "j"

    @property
    def is_conditional(self):
        """True for the beq/bne/blez/bgtz/bltz/bgez family."""
        return self.op in CONDITIONAL_BRANCHES

    @property
    def is_return(self):
        """True for ``ret``."""
        return self.op == "ret"

    @property
    def is_call(self):
        """True for ``call``."""
        return self.op == "call"

    @property
    def is_terminator(self):
        """True when this instruction must end a block."""
        return self.is_branch or self.is_return

    @property
    def is_load(self):
        """True for the load family (lw/lh/lhu/lb/lbu)."""
        return is_known(self.op) and _lookup(self.op).category.value == "load"

    @property
    def is_store(self):
        """True for the store family (sw/sh/sb)."""
        return is_known(self.op) and _lookup(self.op).category.value == "store"

    @property
    def is_memory(self):
        """True for loads and stores."""
        return self.is_load or self.is_store

    @property
    def is_constant(self):
        """True for ``li``/``lui``."""
        return self.op in ("li", "lui")

    @property
    def is_computational(self):
        """True for instructions that become DFG nodes."""
        return not (self.is_terminator or self.is_call)

    # -- def/use ---------------------------------------------------------

    def defs(self):
        """Virtual registers written by this instruction."""
        return (self.dest,) if self.dest is not None else ()

    def uses(self):
        """Virtual registers read by this instruction."""
        if self.is_call:
            return self.args
        return self.sources

    # -- misc --------------------------------------------------------------

    def content_key(self):
        """Every field as one hashable tuple (equal keys, equal instrs)."""
        return (self.op, self.dest, self.sources, self.imm, self.targets,
                self.callee, self.args)

    def copy(self, **overrides):
        """Shallow copy with selected fields replaced."""
        fields = {
            "op": self.op, "dest": self.dest, "sources": self.sources,
            "imm": self.imm, "targets": self.targets,
            "callee": self.callee, "args": self.args,
        }
        fields.update(overrides)
        return IRInstr(**fields)

    def rename(self, mapping):
        """Copy with registers renamed through ``mapping`` (dict)."""
        return self.copy(
            dest=mapping.get(self.dest, self.dest) if self.dest else None,
            sources=tuple(mapping.get(s, s) for s in self.sources),
            args=tuple(mapping.get(a, a) for a in self.args),
        )

    def __repr__(self):
        return "IRInstr({})".format(self.pretty())

    def pretty(self):
        """Assembly-like rendering used by dumps and error messages."""
        if self.op == "ret":
            return "ret {}".format(self.sources[0]) if self.sources else "ret"
        if self.op == "call":
            return "{} = call {}({})".format(
                self.dest, self.callee, ", ".join(self.args))
        if self.op == "j":
            return "j {}".format(self.targets[0])
        if self.is_conditional:
            ops = ", ".join(self.sources)
            return "{} {}, {} (else {})".format(
                self.op, ops, self.targets[0], self.targets[1])
        parts = []
        if self.dest is not None:
            parts.append("{} =".format(self.dest))
        parts.append(self.op)
        operands = list(self.sources)
        if self.imm is not None:
            operands.append(str(self.imm))
        if self.is_memory:
            base = self.sources[-1]
            off = self.imm or 0
            if self.is_load:
                return "{} = {} [{}+{}]".format(self.dest, self.op, base, off)
            return "{} {}, [{}+{}]".format(self.op, self.sources[0], base, off)
        parts.append(", ".join(str(x) for x in operands))
        return " ".join(p for p in parts if p)
