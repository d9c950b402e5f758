"""IR functions and basic blocks.

An :class:`IRFunction` is an ordered collection of labelled
:class:`BasicBlock` objects plus an entry label and parameter list.
Each block holds straight-line :class:`~repro.ir.instr.IRInstr` bodies
and exactly one terminator.  ``verify`` enforces the structural rules
the rest of the library depends on (every target exists, terminators
are last, conditional branches carry a fallthrough, ...).
"""

from ..errors import IRError, VerificationError
from .instr import IRInstr


class BasicBlock:
    """A labelled basic block: body instructions + one terminator."""

    __slots__ = ("label", "body", "terminator", "annotations")

    def __init__(self, label):
        self.label = str(label)
        self.body = []
        self.terminator = None
        #: Free-form pass metadata (e.g. loop trip counts).
        self.annotations = {}

    def append(self, instr):
        """Append a body instruction (terminators go via ``terminate``)."""
        if instr.is_terminator:
            raise IRError("use terminate() for terminators")
        if self.terminator is not None:
            raise IRError("block {} already terminated".format(self.label))
        self.body.append(instr)
        return instr

    def terminate(self, instr):
        """Set the block terminator."""
        if not instr.is_terminator:
            raise IRError("{} is not a terminator".format(instr.op))
        if self.terminator is not None:
            raise IRError("block {} already terminated".format(self.label))
        self.terminator = instr
        return instr

    @property
    def instructions(self):
        """Body plus terminator, in program order."""
        if self.terminator is None:
            return list(self.body)
        return list(self.body) + [self.terminator]

    def successors(self):
        """Labels of successor blocks."""
        if self.terminator is None or self.terminator.is_return:
            return ()
        return self.terminator.targets

    def __repr__(self):
        return "BasicBlock({!r}, {} instrs)".format(
            self.label, len(self.instructions))

    def pretty(self):
        """Assembly-like multi-line rendering."""
        lines = ["{}:".format(self.label)]
        for instr in self.instructions:
            lines.append("  " + instr.pretty())
        return "\n".join(lines)


class IRFunction:
    """A function: parameters, ordered basic blocks, entry label."""

    def __init__(self, name, params=()):
        self.name = str(name)
        self.params = tuple(params)
        self._blocks = {}
        self._order = []
        self.entry = None

    # -- block management -------------------------------------------------

    def add_block(self, label):
        """Create and register an empty block with the given label."""
        if label in self._blocks:
            raise IRError("duplicate block label {!r}".format(label))
        block = BasicBlock(label)
        self._blocks[label] = block
        self._order.append(label)
        if self.entry is None:
            self.entry = label
        return block

    def block(self, label):
        """Look up a block by label."""
        try:
            return self._blocks[label]
        except KeyError:
            raise IRError("no block labelled {!r}".format(label)) from None

    def has_block(self, label):
        """True when a block with that label exists."""
        return label in self._blocks

    @property
    def blocks(self):
        """Blocks in insertion order."""
        return [self._blocks[label] for label in self._order]

    @property
    def labels(self):
        """Block labels in insertion order."""
        return list(self._order)

    def remove_block(self, label):
        """Delete a block (caller must have rewired all references)."""
        if label == self.entry:
            raise IRError("cannot remove the entry block")
        del self._blocks[label]
        self._order.remove(label)

    # -- derived structure -------------------------------------------------

    def cfg_edges(self):
        """Yield ``(src_label, dst_label)`` CFG edges."""
        for block in self.blocks:
            for succ in block.successors():
                yield (block.label, succ)

    def predecessors(self):
        """Map label → sorted list of predecessor labels."""
        preds = {label: [] for label in self._order}
        for src, dst in self.cfg_edges():
            preds[dst].append(src)
        return {label: sorted(ps) for label, ps in preds.items()}

    def instructions(self):
        """All instructions of all blocks, in block order."""
        for block in self.blocks:
            yield from block.instructions

    def virtual_registers(self):
        """Every register name defined or used anywhere."""
        regs = set(self.params)
        for instr in self.instructions():
            regs.update(instr.defs())
            regs.update(instr.uses())
        return regs

    # -- verification -------------------------------------------------------

    def verify(self):
        """Check structural invariants; raise VerificationError on failure."""
        if self.entry is None:
            raise VerificationError("{}: function has no blocks".format(self.name))
        for block in self.blocks:
            if block.terminator is None:
                raise VerificationError(
                    "{}: block {} lacks a terminator".format(self.name, block.label))
            for instr in block.body:
                if instr.is_terminator:
                    raise VerificationError(
                        "{}: terminator in body of {}".format(self.name, block.label))
            for target in block.successors():
                if target not in self._blocks:
                    raise VerificationError(
                        "{}: branch to unknown block {!r}".format(self.name, target))
            term = block.terminator
            if term.is_conditional and len(term.targets) != 2:
                raise VerificationError(
                    "{}: conditional branch in {} needs 2 targets".format(
                        self.name, block.label))
            if term.op == "j" and len(term.targets) != 1:
                raise VerificationError(
                    "{}: jump in {} needs exactly 1 target".format(
                        self.name, block.label))
        return self

    def content_key(self):
        """Hashable snapshot of the function: name, parameters, entry and
        every block's label, annotations, body and terminator."""
        return (self.name, self.params, self.entry, tuple(
            (block.label, tuple(sorted(block.annotations.items())),
             tuple(instr.content_key() for instr in block.body),
             None if block.terminator is None
             else block.terminator.content_key())
            for block in self.blocks))

    def clone(self):
        """Deep-ish copy (instructions are immutable value objects)."""
        copy = IRFunction(self.name, self.params)
        for block in self.blocks:
            new = copy.add_block(block.label)
            new.annotations = dict(block.annotations)
            for instr in block.body:
                new.append(instr)
            if block.terminator is not None:
                new.terminate(block.terminator)
        copy.entry = self.entry
        return copy

    def pretty(self):
        """Assembly-like multi-line rendering."""
        header = "func {}({})".format(self.name, ", ".join(self.params))
        return "\n".join([header] + [b.pretty() for b in self.blocks])

    def __repr__(self):
        return "IRFunction({!r}, {} blocks)".format(self.name, len(self._order))
