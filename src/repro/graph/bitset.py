"""Packed-bitset DFG legality kernel (§4.2 constraints as word ops).

Every engine except ACO spends its inner loop in the §4.2 legality
checks of :mod:`repro.graph.analysis` — convexity, IN/OUT port
counting, the memory and groupability rules.  This module is the one
implementation of those checks: it packs them into bit-parallel word
arithmetic, so one candidate check is a handful of AND/OR/popcount
operations on arbitrary-precision ints.

A :class:`BitsetDFG` is a derived, read-only view of one (frozen)
:class:`~repro.graph.dfg.DFG`:

* nodes are bit positions ``0..n-1`` in sorted-uid order; a node set is
  one packed bit row, a Python int,
* per-node **transitive-closure rows** (strict ancestors/descendants)
  make convexity the identity ``descendants(S) & ancestors(S) & ~S ==
  0``,
* per-node data-successor rows plus the **value-ownership tables** of
  the DFG's :class:`~repro.graph.tables.DFGTables` (which reader set
  pulls a value in, which producer bit pushes one out) turn
  ``IN``/``OUT`` counting into masked any-tests grouped by value id —
  the same counts as :func:`~repro.graph.analysis.input_values` /
  :func:`~repro.graph.analysis.output_values` even for non-SSA names
  with several producers,
* memory / ungroupable / output masks answer the remaining §4.2 rules
  with one AND each.

The row API (:meth:`BitsetDFG.legal_rows`) runs the same scalar checks
over a list of int rows from :meth:`~BitsetDFG.pack_rows`.

The closure rows are ``O(n²/64)`` words per block, built lazily on the
first legality query and cached on the DFG (dropped on any mutation
and never pickled — pool workers rebuild their own).  The view holds
no reference back to its DFG, so a DFG and its view die by reference
count.  The set-based implementations the kernel replaced are frozen
under ``tests/legality_oracle.py``, where the parity and fuzz tests
hold the kernel to them.
"""

from ..errors import ConstraintError


def bitset_view(dfg):
    """The cached :class:`BitsetDFG` of ``dfg``.

    Built lazily on first use and stashed on the DFG; graph mutations
    drop the cache (see :class:`~repro.graph.dfg.DFG`), and direct
    ``output_nodes`` edits are caught by a freshness check here.
    """
    view = getattr(dfg, "_bitset", None)
    if view is None or not view.fresh(dfg):
        view = BitsetDFG(dfg)
        dfg._bitset = view
    return view


def _indices(row):
    """Bit positions of an int row, highest first."""
    idxs = []
    append = idxs.append
    while row:
        i = row.bit_length() - 1
        append(i)
        row ^= 1 << i
    return idxs


def _ports_ok(row, data, constraints):
    """IN and OUT limits of the candidate with bit row ``row`` and fused
    node tuples ``data`` (see ``BitsetDFG._scalar_nodes``)."""
    nrow = ~row
    vids = 0
    for t in data:
        vids |= t[3]
        outside = t[4] & nrow
        if outside:
            if outside == t[4]:
                vids |= t[5]       # every producer is external
            else:
                for pbit, vbit in t[6]:
                    if pbit & outside:
                        vids |= vbit
    if vids.bit_count() > constraints.n_in:
        return False
    vids = 0
    for t in data:
        if t[7] or t[8] & nrow:
            vids |= t[9]
    return vids.bit_count() <= constraints.n_out


class BitsetDFG:
    """Packed-bitset legality view of one frozen DFG."""

    def __init__(self, dfg):
        tables = self.tables = dfg.tables()
        uids = self.uids = tables.uids
        self.index = tables.index
        self.n = len(uids)
        self._output_snapshot = frozenset(dfg.output_nodes)
        self._build_scalar_tables(dfg, uids)

    # -- construction -------------------------------------------------------

    def _build_scalar_tables(self, dfg, uids):
        """Per-node int bit rows: closures, adjacency, value ownership."""
        n = self.n
        index = self.index
        tables = self.tables
        rank = tables.rank
        if rank is None:
            raise ConstraintError("DFG contains a dependence cycle")
        topo = sorted(uids, key=rank.__getitem__)
        # Strict ancestor/descendant closure rows: one linear sweep each
        # (row of u = OR over direct successors s of row(s) | bit(s)).
        desc = [0] * n
        anc = [0] * n
        for uid in reversed(topo):
            i = index[uid]
            row = 0
            for succ in dfg.successors(uid):
                j = index[succ]
                row |= desc[j] | (1 << j)
            desc[i] = row
        for uid in topo:
            i = index[uid]
            row = 0
            for pred in dfg.predecessors(uid):
                j = index[pred]
                row |= anc[j] | (1 << j)
            anc[i] = row
        self.desc_bits = desc
        self.anc_bits = anc
        # Adjacency rows + §4.2 masks.  The value-ownership tables
        # (external-read and dest value-id masks, (producer bit, value
        # bit) pairs of incoming data edges, data-successor rows, output
        # flags) are the DFG's own walk tables, shared with the ant
        # construction: IN(S) = distinct ids over members' external
        # reads plus crossing-edge reads; OUT(S) = distinct ids over
        # escaping members' dests — matching input_values/output_values
        # exactly, including non-SSA names with several producers.
        adj = [0] * n
        memory = ungroup = output = 0
        for uid in uids:
            i = index[uid]
            for other in dfg.neighbours(uid):
                adj[i] |= 1 << index[other]
            op = dfg.op(uid)
            if op.is_memory:
                memory |= 1 << i
            if not op.groupable:
                ungroup |= 1 << i
            if tables.output_flags[i]:
                output |= 1 << i
        dsucc = self.dsucc_bits = tables.dsucc_bits
        self.adj_bits = adj
        self.memory_bits = memory
        self.ungroupable_bits = ungroup
        self.forbidden_bits = memory | ungroup
        self.output_bits = output
        # One fused per-node tuple for the hot scalar path, by uid and
        # by index: a single lookup per member replaces the index +
        # per-table list indexing.  Layout: (bit, desc, anc, ext vid
        # mask, producer bit mask, all-producer vid mask, (pbit, vbit)
        # pairs, is-output flag, data-successor row, dest vid mask).
        ext = tables.ext_vid_mask
        pairs = tables.pred_vid_bits
        dest = tables.dest_vid_mask
        flags = tables.output_flags
        self._scalar_nodes = {
            uid: (1 << i, desc[i], anc[i], ext[i],
                  sum(set(pbit for pbit, __ in pairs[i])),
                  sum(set(vbit for __, vbit in pairs[i])),
                  pairs[i], flags[i], dsucc[i], dest[i])
            for uid, i in index.items()}
        self._row_nodes = [self._scalar_nodes[uid] for uid in uids]
        self._bit = {uid: 1 << i for uid, i in index.items()}

    # -- plumbing ------------------------------------------------------------

    def fresh(self, dfg):
        """False when ``dfg``, the DFG this view was built from, drifted
        under it (output edits)."""
        return dfg.output_nodes == self._output_snapshot

    def row_of(self, members):
        """One membership set as a packed int bit row."""
        bit = self._bit
        row = 0
        for uid in members:
            row |= bit[uid]
        return row

    def pack_rows(self, member_sets):
        """A batch of membership sets as a list of int bit rows."""
        row_of = self.row_of
        return [row_of(members) for members in member_sets]

    def members_of(self, row):
        """Uids of one int bit row, sorted."""
        uids = self.uids
        return [uids[i] for i in reversed(_indices(row))]

    # -- scalar fast path ----------------------------------------------------

    def _row_and_idxs(self, members):
        index = self.index
        row = 0
        idxs = []
        append = idxs.append
        for uid in members:
            i = index[uid]
            append(i)
            row |= 1 << i
        return row, idxs

    def is_convex(self, members):
        """§4.2 convexity via closure rows: ``desc & anc & ~S == 0``."""
        row, idxs = self._row_and_idxs(members)
        return self._convex_row(row, idxs)

    def _convex_row(self, row, idxs):
        desc = self.desc_bits
        anc = self.anc_bits
        d = a = 0
        for i in idxs:
            d |= desc[i]
            a |= anc[i]
        return not (d & a & ~row)

    def io_counts(self, members):
        """``(|IN(S)|, |OUT(S)|)`` of one membership set."""
        row, idxs = self._row_and_idxs(members)
        return (self.tables.in_count(row, idxs), self.tables.out_count(row, idxs))

    def is_connected(self, members):
        """True when ``members`` induce one weakly-connected component."""
        row = self.row_of(members)
        if not row:
            return False
        adj = self.adj_bits
        reached = row & -row          # lowest member bit
        while True:
            grown = reached
            for i in _indices(reached):
                grown |= adj[i]
            grown &= row
            if grown == reached:
                return grown == row
            reached = grown

    def check_candidate(self, members, constraints):
        """Raise :class:`~repro.errors.ConstraintError` when the
        candidate breaks a §4.2 rule: empty, memory operations,
        ungroupable operations, ``IN``, ``OUT``, then convexity, in
        that order."""
        if not members:
            raise ConstraintError("empty candidate")
        row, idxs = self._row_and_idxs(members)
        if row & self.memory_bits:
            raise ConstraintError("candidate contains memory operations")
        if row & self.ungroupable_bits:
            raise ConstraintError(
                "candidate contains ungroupable operations")
        n_in = self.tables.in_count(row, idxs)
        if n_in > constraints.n_in:
            raise ConstraintError(
                "IN(S)={} exceeds Nin={}".format(n_in, constraints.n_in))
        n_out = self.tables.out_count(row, idxs)
        if n_out > constraints.n_out:
            raise ConstraintError(
                "OUT(S)={} exceeds Nout={}".format(n_out,
                                                   constraints.n_out))
        if not self._convex_row(row, idxs):
            raise ConstraintError("candidate is not convex")

    def is_legal(self, members, constraints):
        """Boolean form of :meth:`check_candidate`: same verdict, no
        exception.  Checks run cheapest-first (masks, convexity, then
        port counts) — a pure reordering of independent predicates, so
        the verdict is unchanged."""
        if not members:
            return False
        nodes = self._scalar_nodes
        row = d = a = 0
        data = []
        append = data.append
        for uid in members:
            t = nodes[uid]
            row |= t[0]
            d |= t[1]
            a |= t[2]
            append(t)
        if row & self.forbidden_bits or d & a & ~row:
            return False
        return _ports_ok(row, data, constraints)

    def classify_match(self, members, constraints):
        """Two-stage legality verdict for pattern matching.

        Returns ``"cheap"`` when the candidate dies on the masked
        bit-row pre-filter (memory/ungroupable masks, port counts),
        ``"illegal"`` when only the convexity stage kills it, and
        ``"legal"`` otherwise — letting
        :func:`~repro.graph.subgraph.find_matches` report how many
        mappings the cheap filter retired before full legality ran.
        """
        if not members:
            return "cheap"
        row, idxs = self._row_and_idxs(members)
        if row & self.memory_bits or row & self.ungroupable_bits:
            return "cheap"
        if self.tables.in_count(row, idxs) > constraints.n_in:
            return "cheap"
        if self.tables.out_count(row, idxs) > constraints.n_out:
            return "cheap"
        return "legal" if self._convex_row(row, idxs) else "illegal"

    # -- int rows ------------------------------------------------------------

    def legal_rows(self, rows, constraints):
        """§4.2 legality of every int bit row, as a list of bools —
        the verdicts :meth:`is_legal` gives the rows' member sets."""
        nodes = self._row_nodes
        forbidden = self.forbidden_bits
        verdicts = []
        append = verdicts.append
        for row in rows:
            if not row or row & forbidden:
                append(False)
                continue
            d = a = 0
            data = []
            keep = data.append
            rest = row
            while rest:
                i = rest.bit_length() - 1
                t = nodes[i]
                rest ^= 1 << i
                d |= t[1]
                a |= t[2]
                keep(t)
            append(not d & a & ~row and _ports_ok(row, data, constraints))
        return verdicts
