"""Packed-bitset DFG legality kernel (§4.2 constraints as word ops).

Every engine except ACO spends its inner loop in the §4.2 legality
checks of :mod:`repro.graph.analysis` — convexity, IN/OUT port
counting, the memory and groupability rules.  The set-based reference
implementations rebuild Python-set closures per probe; this module
packs the same questions into bit-parallel word arithmetic so one
candidate check is a handful of AND/OR/popcount operations and a
*batch* of candidates is a single matrix operation.

A :class:`BitsetDFG` is a derived, read-only view of one (frozen)
:class:`~repro.graph.dfg.DFG`:

* nodes are bit positions ``0..n-1`` in sorted-uid order; a node set is
  one packed bit row — an arbitrary-precision int on the scalar path
  (zero numpy dispatch overhead per probe), a ``(B, n_words)``
  little-endian ``uint64`` matrix on the batched path,
* per-node **transitive-closure rows** (strict ancestors/descendants)
  make convexity the identity ``descendants(S) & ancestors(S) & ~S ==
  0``,
* per-node data-successor rows plus the **value-ownership tables** of
  the DFG's :class:`~repro.graph.tables.DFGTables` (which reader set
  pulls a value in, which producer bit pushes one out) turn
  ``IN``/``OUT`` counting into masked any-tests grouped by value id —
  bit-identical to :func:`~repro.graph.analysis.input_values` /
  :func:`~repro.graph.analysis.output_values` even for non-SSA names
  with several producers,
* memory / ungroupable / output masks answer the remaining §4.2 rules
  with one AND each.

The closure rows are ``O(n²/64)`` words per block, built lazily on the
first legality query and cached on the DFG (dropped on any mutation
and never pickled — pool workers rebuild their own).  The set-based
implementations remain in :mod:`repro.graph.analysis` as the oracle;
``REPRO_BITSET=0`` forces every dispatching call back onto them.
"""

import os

import numpy as np

from ..errors import ConstraintError

#: Environment switch: set to ``0`` to force the set-based reference
#: implementations everywhere (A/B parity runs; results are identical).
BITSET_ENV = "REPRO_BITSET"

_WORD = 64


def bitset_enabled():
    """True unless ``REPRO_BITSET`` disables the packed kernel."""
    return os.environ.get(BITSET_ENV, "").strip().lower() not in (
        "0", "false", "no", "off")


def bitset_view(dfg):
    """The cached :class:`BitsetDFG` of ``dfg``, or ``None`` when the
    kernel is disabled.

    Built lazily on first use and stashed on the DFG; graph mutations
    drop the cache (see :class:`~repro.graph.dfg.DFG`), and direct
    ``output_nodes`` edits are caught by a freshness check here.
    """
    if not bitset_enabled():
        return None
    view = getattr(dfg, "_bitset", None)
    if view is None or not view.fresh():
        view = BitsetDFG(dfg)
        dfg._bitset = view
    return view


class BitsetDFG:
    """Packed-bitset legality view of one frozen DFG."""

    def __init__(self, dfg):
        self.dfg = dfg
        tables = self.tables = dfg.tables()
        uids = self.uids = tables.uids
        self.index = tables.index
        n = len(uids)
        self.n = n
        self.n_words = max(1, (n + _WORD - 1) // _WORD)
        self._n_padded = self.n_words * _WORD
        self._output_snapshot = frozenset(dfg.output_nodes)
        self._build_scalar_tables(dfg, uids)
        self._batch = None        # numpy batch tables, built on demand

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
        # One fused per-node tuple for the hot scalar path: a single
        # dict lookup per member replaces the index + per-table list
        # indexing.  Layout: (bit, desc, anc, ext vid mask, producer
        # bit mask, all-producer vid mask, (pbit, vbit) pairs,
        # is-output flag, data-successor row, dest vid mask).
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

    def _batch_tables(self):
        """Lazy numpy operands for the batched row APIs."""
        tables = self._batch
        if tables is None:
            n, n_padded = self.n, self._n_padded
            f32 = np.float32

            def unpack_ints(ints):
                rows = np.zeros((len(ints), n), dtype=f32)
                for i, value in enumerate(ints):
                    while value:
                        low = value & -value
                        rows[i, low.bit_length() - 1] = 1.0
                        value ^= low
                return rows

            def pack_int(value):
                bools = np.zeros(n_padded, dtype=bool)
                for i in range(n):
                    if (value >> i) & 1:
                        bools[i] = True
                return np.packbits(bools, bitorder="little").view(np.uint64)

            # IN terms: (reader bit row, producer index or -1, value id).
            value_tables = self.tables
            ext_readers = {}
            pv_readers = {}
            for i in range(n):
                for vid in self._iter_bits(value_tables.ext_vid_mask[i]):
                    ext_readers[vid] = ext_readers.get(vid, 0) | (1 << i)
                for pbit, vbit in value_tables.pred_vid_bits[i]:
                    key = (pbit.bit_length() - 1, vbit.bit_length() - 1)
                    pv_readers[key] = pv_readers.get(key, 0) | (1 << i)
            terms = [(vid, -1, row) for vid, row in
                     sorted(ext_readers.items())]
            terms += [(vid, p, row) for (p, vid), row in
                      sorted(pv_readers.items(), key=lambda kv: kv[0])]
            in_onehot = np.zeros((len(terms), value_tables.n_in_values),
                                 dtype=f32)
            for t, (vid, __, ___) in enumerate(terms):
                in_onehot[t, vid] = 1.0
            out_src = []
            out_vids = []
            for i in range(n):
                for vid in self._iter_bits(value_tables.dest_vid_mask[i]):
                    out_src.append(i)
                    out_vids.append(vid)
            out_onehot = np.zeros((len(out_vids), value_tables.n_out_values),
                                  dtype=f32)
            for t, vid in enumerate(out_vids):
                out_onehot[t, vid] = 1.0
            tables = self._batch = {
                "desc_f": unpack_ints(self.desc_bits),
                "anc_f": unpack_ints(self.anc_bits),
                "dsucc_f": unpack_ints(self.dsucc_bits),
                "output_bool": np.array(
                    [(self.output_bits >> i) & 1 for i in range(n)],
                    dtype=bool),
                "in_rows_f": unpack_ints([row for __, __, row in terms]),
                "in_src": np.array([src for __, src, __ in terms],
                                   dtype=np.intp),
                "in_onehot": in_onehot,
                "out_src": np.array(out_src, dtype=np.intp),
                "out_onehot": out_onehot,
                "dsucc_total": np.array(
                    [row.bit_count() for row in self.dsucc_bits],
                    dtype=f32),
                "memory_row": pack_int(self.memory_bits),
                "ungroupable_row": pack_int(self.ungroupable_bits),
            }
        return tables

    # -- plumbing ------------------------------------------------------------

    def fresh(self):
        """False when the DFG drifted under the view (output edits)."""
        return self.dfg.output_nodes == self._output_snapshot

    def row_of(self, members):
        """One membership set as a packed int bit row."""
        index = self.index
        row = 0
        for uid in members:
            row |= 1 << index[uid]
        return row

    def pack_rows(self, member_sets):
        """A batch of membership sets as a ``(B, n_words)`` uint64
        matrix (bit ``i`` of a row = node ``i`` in sorted-uid order,
        little-endian words)."""
        index = self.index
        B = len(member_sets)
        sizes = np.fromiter((len(m) for m in member_sets),
                            dtype=np.intp, count=B)
        cols = np.fromiter(
            (index[uid] for members in member_sets for uid in members),
            dtype=np.intp, count=int(sizes.sum()))
        bools = np.zeros((B, self._n_padded), dtype=bool)
        bools[np.repeat(np.arange(B), sizes), cols] = True
        packed = np.packbits(bools, axis=-1, bitorder="little")
        return np.ascontiguousarray(packed).view(np.uint64)

    def unpack_rows(self, rows):
        """Packed rows back to a ``(B, n)`` bool matrix."""
        rows = np.ascontiguousarray(rows)
        bits = np.unpackbits(rows.view(np.uint8), axis=-1,
                             bitorder="little")
        return bits[..., :self.n].astype(bool)

    def members_of(self, row):
        """Uids of one int bit row, sorted."""
        uids = self.uids
        members = []
        while row:
            low = row & -row
            members.append(uids[low.bit_length() - 1])
            row ^= low
        return members

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

    def _iter_bits(self, row):
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def is_connected(self, members):
        """True when ``members`` induce one weakly-connected component."""
        row = self.row_of(members)
        if not row:
            return False
        adj = self.adj_bits
        reached = row & -row          # lowest member bit
        while True:
            grown = reached
            for i in self._iter_bits(reached):
                grown |= adj[i]
            grown &= row
            if grown == reached:
                return grown == row
            reached = grown

    def check_candidate(self, members, constraints):
        """Packed :func:`~repro.graph.analysis.check_candidate` —
        identical check order and error messages."""
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
        if row & self.forbidden_bits:
            return False
        nrow = ~row
        if d & a & nrow:
            return False
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

    # -- batched rows --------------------------------------------------------

    def convex_rows(self, rows):
        """Convexity of every packed row, as one ``(B,)`` bool array."""
        tables = self._batch_tables()
        bools = self.unpack_rows(rows)
        f = bools.astype(np.float32)
        desc_cover = f @ tables["desc_f"]
        anc_cover = f @ tables["anc_f"]
        viol = (desc_cover > 0) & (anc_cover > 0) & ~bools
        return ~viol.any(axis=1)

    def io_counts_rows(self, rows):
        """``(in_counts, out_counts)`` int arrays for a packed batch."""
        tables = self._batch_tables()
        bools = self.unpack_rows(rows)
        return (self._in_count_rows(bools, tables),
                self._out_count_rows(bools, tables))

    def _in_count_rows(self, bools, tables):
        B = len(bools)
        src = tables["in_src"]
        if not len(src):
            return np.zeros(B, dtype=np.intp)
        f = bools.astype(np.float32)
        active = (f @ tables["in_rows_f"].T) > 0
        prod = src >= 0
        if prod.any():
            active[:, prod] &= ~bools[:, src[prod]]
        seen = (active.astype(np.float32) @ tables["in_onehot"]) > 0
        return seen.sum(axis=1).astype(np.intp)

    def _out_count_rows(self, bools, tables):
        B = len(bools)
        out_src = tables["out_src"]
        if not len(out_src):
            return np.zeros(B, dtype=np.intp)
        f = bools.astype(np.float32)
        # Node i has a data successor outside S iff S covers fewer of
        # its successors than it has in total.
        esc_data = (f @ tables["dsucc_f"].T) < tables["dsucc_total"]
        esc = bools & (tables["output_bool"] | esc_data)
        active = esc[:, out_src]
        seen = (active.astype(np.float32) @ tables["out_onehot"]) > 0
        return seen.sum(axis=1).astype(np.intp)

    def legal_rows(self, rows, constraints):
        """§4.2 legality of every packed row, as one ``(B,)`` bool
        array — bit-identical to mapping
        :func:`~repro.graph.analysis.is_legal` over the member sets.

        Staged like the scalar short-circuit: the masked-popcount
        kills (empty, memory, ungroupable) run on the packed words for
        the whole batch; the port-count and convexity matrix ops then
        run only over the surviving subset.
        """
        tables = self._batch_tables()
        rows = np.ascontiguousarray(rows)
        ok = rows.any(axis=1)
        ok &= ~np.bitwise_and(rows, tables["memory_row"]).any(axis=1)
        ok &= ~np.bitwise_and(rows, tables["ungroupable_row"]).any(axis=1)
        alive = np.flatnonzero(ok)
        if not len(alive):
            return ok
        sub = rows[alive]
        bools = self.unpack_rows(sub)
        n_in = self._in_count_rows(bools, tables)
        n_out = self._out_count_rows(bools, tables)
        ports = (n_in <= constraints.n_in) & (n_out <= constraints.n_out)
        ok[alive[~ports]] = False
        alive = alive[ports]
        if len(alive):
            ok[alive] = self.convex_rows(rows[alive])
        return ok
