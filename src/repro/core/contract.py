"""DFG contraction between exploration rounds.

Once a round produces an ISE candidate, the next round explores the
*rest* of the block with that ISE fixed: the candidate's members fold
into a single non-groupable ``ise`` supernode whose software option is
the ASFU latency.  Untouched nodes keep their uids, so candidates found
in later rounds still reference original operation ids.
"""

from ..errors import ExplorationError
from ..graph.analysis import input_values, output_values
from ..graph.dfg import DFG
from ..hwlib.options import IOTable, SoftwareOption
from ..isa.instruction import Operation


def contract_candidate(dfg, candidate, io_tables):
    """Fold ``candidate`` into ``dfg``; returns ``(new_dfg, new_tables)``.

    ``io_tables`` maps uid → :class:`~repro.hwlib.options.IOTable`; the
    supernode receives a single software option with the candidate's
    ASFU latency on the ``asfu`` function unit.
    """
    members = candidate.members
    missing = [uid for uid in members if uid not in dfg]
    if missing:
        raise ExplorationError(
            "candidate references unknown nodes {}".format(missing))
    super_uid = max(dfg.nodes) + 1
    in_values = sorted(input_values(dfg, members))
    out_values = sorted(output_values(dfg, members))
    super_op = Operation(super_uid, "ise",
                         sources=in_values, dests=out_values)

    new_dfg = DFG(label=dfg.label, function=dfg.function)
    new_tables = {}
    # External inputs of the supernode: the subset of its input values
    # that come from outside the block entirely.
    member_ext = set()
    for uid in members:
        member_ext.update(dfg.external_inputs(uid))
    internal_inputs = set(in_values) - member_ext

    for uid in dfg.nodes:
        if uid in members:
            continue
        new_dfg.add_operation(dfg.op(uid), ext_inputs=dfg.external_inputs(uid))
        new_tables[uid] = io_tables[uid]
    new_dfg.add_operation(
        super_op, ext_inputs=sorted(set(in_values) - internal_inputs))
    new_tables[super_uid] = IOTable(software=[
        SoftwareOption("ISE", cycles=candidate.cycles, fu_kind="asfu")])

    def mapped(uid):
        return super_uid if uid in members else uid

    for src, out in dfg.graph.succ.items():
        for dst, attrs in out.items():
            u, v = mapped(src), mapped(dst)
            if u == v:
                continue
            if attrs["kind"] == "data":
                for value in attrs["values"]:
                    new_dfg.add_data_edge(u, v, value)
            else:
                new_dfg.add_order_edge(u, v)

    # Output nodes and final producers.
    for uid in dfg.output_nodes:
        new_dfg.output_nodes.add(mapped(uid))
    for value, producer in dfg.producer_of.items():
        new_dfg.producer_of[value] = mapped(producer)
    return new_dfg, new_tables
