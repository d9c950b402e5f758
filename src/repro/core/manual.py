"""Custom-instruction manual generation.

After selection, a real tape-out needs documentation: each ISE gets an
opcode from the unused pool, an operand signature, its semantics as an
expression over the inputs, and the ASFU timing/area.  This module
reconstructs that datasheet from the candidates — the artefact a
compiler engineer and an RTL engineer would both sign off on.
"""

from ..graph.analysis import input_values, output_values

#: Infix/functional rendering per opcode.  ``{0}``/``{1}`` are the
#: operand expressions; ``{imm}`` the immediate.
_RENDER = {
    "add": "({0} + {1})", "addu": "({0} + {1})",
    "addi": "({0} + {imm})", "addiu": "({0} + {imm})",
    "sub": "({0} - {1})", "subu": "({0} - {1})",
    "mult": "({0} * {1})", "multu": "({0} *u {1})",
    "and": "({0} & {1})", "andi": "({0} & {imm})",
    "or": "({0} | {1})", "ori": "({0} | {imm})",
    "xor": "({0} ^ {1})", "xori": "({0} ^ {imm})",
    "nor": "~({0} | {1})",
    "slt": "({0} <s {1})", "slti": "({0} <s {imm})",
    "sltu": "({0} <u {1})", "sltiu": "({0} <u {imm})",
    "sll": "({0} << {imm})", "sllv": "({0} << {1})",
    "srl": "({0} >> {imm})", "srlv": "({0} >> {1})",
    "sra": "({0} >>a {imm})", "srav": "({0} >>a {1})",
}


def expression_of(candidate, uid, _depth=0):
    """Expression string computing member ``uid`` of ``candidate``.

    Operands produced inside the candidate recurse; operands from
    outside appear as their value names.
    """
    dfg = candidate.dfg
    operation = dfg.op(uid)
    template = _RENDER.get(operation.name)
    if template is None or _depth > 64:
        return "{}({})".format(operation.name,
                               ", ".join(operation.sources))
    producer_of = {}
    for pred in dfg.data_predecessors(uid):
        if pred in candidate.members:
            edge = dfg.graph.succ[pred][uid]
            for value in edge["values"]:
                producer_of[value] = pred
    operands = []
    for value in operation.sources:
        if value in producer_of:
            operands.append(expression_of(candidate, producer_of[value],
                                          _depth + 1))
        else:
            operands.append(value)
    return template.format(*operands, imm=operation.immediate)


class ISEEntry:
    """One manual entry: mnemonic + signature + semantics + costs."""

    def __init__(self, mnemonic, candidate):
        self.mnemonic = mnemonic
        self.candidate = candidate
        dfg = candidate.dfg
        self.inputs = sorted(input_values(dfg, candidate.members))
        self.outputs = sorted(output_values(dfg, candidate.members))
        producers = {}
        for uid in candidate.members:
            for value in dfg.op(uid).dests:
                producers[value] = uid
        self.semantics = {
            value: expression_of(candidate, producers[value])
            for value in self.outputs if value in producers
        }

    def render(self):
        """Datasheet text of this instruction."""
        candidate = self.candidate
        lines = [
            "{} {}, {}".format(
                self.mnemonic,
                ", ".join(self.outputs) or "-",
                ", ".join(self.inputs) or "-"),
            "  latency : {} cycle(s)  ({:.2f} ns combinational)".format(
                candidate.cycles, candidate.delay_ns),
            "  area    : {:.0f} um2 ({} operations)".format(
                candidate.area, candidate.size),
            "  ports   : {} read / {} write".format(
                len(self.inputs), len(self.outputs)),
        ]
        for value, expression in self.semantics.items():
            lines.append("  {:8s}= {}".format(value, expression))
        members = ", ".join(
            "#{} {} [{}]".format(uid, candidate.dfg.op(uid).name,
                                 candidate.option_of[uid].label)
            for uid in sorted(candidate.members))
        lines.append("  datapath: {}".format(members))
        return "\n".join(lines)


def build_manual(selection, prefix="ise"):
    """Manual entries for a
    :class:`~repro.core.selection.SelectionResult` (or any iterable of
    merged ISEs), numbering mnemonics from the unused-opcode pool."""
    entries = []
    merged = getattr(selection, "selected", selection)
    for index, entry in enumerate(merged):
        mnemonic = "{}{}".format(prefix, index)
        entries.append(ISEEntry(mnemonic, entry.representative))
    return entries


def render_manual(selection, title="Custom instruction set"):
    """Full datasheet text for a selection."""
    entries = build_manual(selection)
    lines = [title, "=" * len(title), ""]
    if not entries:
        lines.append("(no instructions selected)")
    for entry in entries:
        lines.append(entry.render())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
