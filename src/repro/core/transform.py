"""Applying placements: the code motion transformation itself.

Given a CFG and one :class:`~repro.core.placement.Placement` per
expression, :func:`apply_placements` produces the transformed program:

1. **Replace** the upwards-exposed occurrence ``x = e`` in every
   ``delete_blocks`` member with ``x = t``.
2. **Initialise** ``t``: insert ``t = e`` at every ``insert_entries``
   block entry, every ``insert_exits`` block exit and on every
   ``insert_edges`` edge (realised by edge splitting; simultaneous
   insertions of several expressions on one edge share the split
   block).
3. **Copy at generators**: a *remaining* occurrence ``x = e`` becomes
   ``t = e; x = t`` only when its value can reach a replaced occurrence
   downstream — it is the last occurrence of ``e`` in its block, the
   block has no exit insertion of ``t``, and ``t`` is live at the
   block's exit.  Every other occurrence stays ``x = e``: its temp would
   be *isolated*, feeding nothing.

Step 3, and which insertions are written at all, rest on one backward
**temp-liveness** solve on the *input* graph, the edge form of the
paper's ISOLATED analysis.  Column *j* is placement *j*'s temp::

    GEN(n)  = delete(n) ∧ ¬entry(n)
    KILL(n) = entry(n) ∨ exit(n) ∨ generator(n)
    LIVEOUT(m) = ∪_s LIVEIN(s), less the temps inserted on the edge (m, s)

The result is always semantically equivalent to the input for *any*
placement that is value-correct; the interpreter-based checkers in
:mod:`repro.core.optimality` verify this property for every algorithm in
the library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.placement import Placement, PlacementError
from repro.dataflow.dense import compile_plan
from repro.ir.cfg import CFG, Edge
from repro.ir.expr import Var
from repro.ir.instr import Assign
from repro.obs.fingerprint import expr_code
from repro.obs.manager import AnalysisManager, notify_cfg_derived
from repro.obs.store import JSONRecord
from repro.obs.trace import span


@dataclass
class TransformResult:
    """The outcome of applying a set of placements.

    ``copies_added`` holds one ``(label, temp)`` per generator, and
    ``copies_collapsed`` those left as ``x = e`` because their temp was
    isolated.  An entry insertion feeding only the replaced occurrence
    right after it, in a block that also generates the temp, is isolated
    too: the pair stays ``x = e`` and counts as a copy added and collapsed.
    """

    original: CFG
    cfg: CFG
    placements: List[Placement]
    temps: Set[str]
    copies_added: List[Tuple[str, str]] = field(default_factory=list)
    copies_collapsed: List[Tuple[str, str]] = field(default_factory=list)
    insertions_dropped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def copy_blocks(self) -> Set[str]:
        """Blocks where a generating occurrence kept its copy (COPY set)."""
        kept = Counter(self.copies_added)
        kept.subtract(self.copies_collapsed)
        return {label for (label, _), count in kept.items() if count > 0}

    def describe(self) -> str:
        lines = [p.describe() for p in self.placements if not p.is_identity]
        if not lines:
            return "no transformation applied"
        return "\n".join(lines)


def _isolation_key(placements: Sequence[Placement]) -> str:
    """The memo key of the isolation solve: a digest of the plans' content."""
    code = [
        (expr_code(p.expr), sorted(p.insert_edges), sorted(p.insert_entries),
         sorted(p.insert_exits), sorted(p.delete_blocks))
        for p in placements
    ]
    digest = blake2b(repr(code).encode("utf-8"), digest_size=16)
    return f"isolation:{digest.hexdigest()}"


def _solve_isolation(
    plan,
    gen: Dict[str, int],
    kill: Dict[str, int],
    edge_kill: Dict[Edge, int],
    width: int,
) -> JSONRecord:
    """Backward temp liveness as plain int sweeps.

    *gen*, *kill* and *edge_kill* hold per-label (per-edge) column
    masks; labels absent from them are transparent.  Returns the
    ``live_in`` and ``live_out`` masks in block order as a record the
    disk store can keep.  Runs under a ``dataflow.solve`` span with
    ``problem="isolation"``.
    """
    labels, index, succs = plan.labels, plan.index, plan.succs
    n = len(labels)
    full = (1 << width) - 1
    gen_row = [0] * n
    keep_row = [full] * n
    for label, bits in gen.items():
        gen_row[index[label]] = bits
    for label, bits in kill.items():
        keep_row[index[label]] = full & ~bits
    edge_kills: Dict[int, Dict[int, int]] = {}
    for (src, dst), bits in edge_kill.items():
        edge_kills.setdefault(index[src], {})[index[dst]] = bits

    with span(
        "dataflow.solve", problem="isolation", strategy="dense"
    ) as solve_span:
        live_in = [0] * n
        live_out = [0] * n
        sweeps = 0
        node_visits = 0
        changed = True
        while changed:
            changed = False
            sweeps += 1
            for i in plan.backward_order:
                node_visits += 1
                out = 0
                kills = edge_kills.get(i)
                if kills is None:
                    for s in succs[i]:
                        out |= live_in[s]
                else:
                    for s in succs[i]:
                        out |= live_in[s] & ~kills.get(s, 0)
                inn = gen_row[i] | (out & keep_row[i])
                if inn != live_in[i] or out != live_out[i]:
                    live_in[i] = inn
                    live_out[i] = out
                    changed = True
        solve_span.set(
            sweeps=sweeps, node_visits=node_visits, bitvec_ops=0, blocks=n,
            width=width, backend="dense",
        )
    return JSONRecord({"live_in": live_in, "live_out": live_out})


def apply_placements(
    cfg: CFG,
    placements: Sequence[Placement],
    collapse_isolated_copies: bool = True,
    drop_dead_insertions: bool = True,
    manager: Optional[AnalysisManager] = None,
) -> TransformResult:
    """Apply *placements* to a copy of *cfg* and return the result.

    Args:
        cfg: the program to transform (left untouched).
        placements: one plan per expression; temps and expressions
            must be pairwise distinct.
        collapse_isolated_copies: leave a generator as ``x = e`` when
            its temp is isolated (step 3).  Disabling writes
            ``t = e; x = t`` at every generator — the "copy everywhere"
            program.
        drop_dead_insertions: skip inserted ``t = e`` whose temp is
            dead — a defensive cleanup for baselines that may insert
            uselessly; LCM/BCM never trigger it.  Split blocks are
            created either way.
        manager: optional :class:`repro.obs.manager.AnalysisManager`
            sharing the input graph's dense plan and memoizing the
            isolation solve.
    """
    temps = [p.temp for p in placements]
    if len(set(temps)) != len(temps):
        raise PlacementError("placements must use pairwise distinct temps")
    if len({p.expr for p in placements}) != len(placements):
        raise PlacementError(
            "placements must use pairwise distinct expressions"
        )
    # Uniquify temp names against the program (re-optimising an already
    # transformed program would otherwise reuse last round's temps).
    existing = set(cfg.variables())
    taken = existing | set(temps)
    renamed: List[Placement] = []
    for placement in placements:
        placement.validate_against(cfg)
        temp = placement.temp
        if temp in existing:
            suffix = 2
            while f"{temp}~{suffix}" in taken:
                suffix += 1
            temp = f"{temp}~{suffix}"
            taken.add(temp)
            placement = Placement(
                placement.expr,
                temp,
                placement.insert_edges,
                placement.insert_entries,
                placement.delete_blocks,
                placement.insert_exits,
            )
        renamed.append(placement)
    placements = renamed

    work = cfg.copy()
    result = TransformResult(
        original=cfg,
        cfg=work,
        placements=list(placements),
        temps={p.temp for p in placements},
    )

    # One scan for the occurrences of every planned expression:
    # label -> column -> instruction positions.
    column = {p.expr: j for j, p in enumerate(placements)}
    occurrences: Dict[str, Dict[int, List[int]]] = {}
    for block in cfg:
        here: Optional[Dict[int, List[int]]] = None
        for pos, instr in enumerate(block.instrs):
            j = column.get(instr.expr)
            if j is not None:
                if here is None:
                    here = occurrences[block.label] = {}
                here.setdefault(j, []).append(pos)

    # Local predicates, one bit per column.  A deleted occurrence is
    # the block's first (validation proved it upwards-exposed); every
    # other occurrence is a generator.
    delete: Dict[str, int] = {}
    entries: Dict[str, List[int]] = {}
    exits: Dict[str, List[int]] = {}
    kill: Dict[str, int] = {}
    edge_kill: Dict[Edge, int] = {}
    for j, placement in enumerate(placements):
        for label in placement.delete_blocks:
            delete[label] = delete.get(label, 0) | 1 << j
        for label in placement.insert_entries | placement.insert_exits:
            kill[label] = kill.get(label, 0) | 1 << j
        for label in placement.insert_entries:
            entries.setdefault(label, []).append(j)
        for label in placement.insert_exits:
            exits.setdefault(label, []).append(j)
        for edge in placement.insert_edges:
            edge_kill[edge] = edge_kill.get(edge, 0) | 1 << j
    gen = {
        label: bits & ~sum(1 << j for j in entries.get(label, ()))
        for label, bits in delete.items()
    }
    generator: Dict[str, int] = {}
    for label, here in occurrences.items():
        generator[label] = sum(
            1 << j for j, positions in here.items()
            if len(positions) > (delete.get(label, 0) >> j & 1)
        )
        kill[label] = kill.get(label, 0) | generator[label]

    def solve() -> JSONRecord:
        if manager is None:
            plan = compile_plan(cfg)
        else:
            plan = manager.dense_plan(cfg)
        return _solve_isolation(plan, gen, kill, edge_kill, len(placements))

    if manager is None:
        facts = solve()
    else:
        facts = manager.cached(cfg, _isolation_key(placements), solve)
    live_in, live_out = facts.payload["live_in"], facts.payload["live_out"]
    index = {label: i for i, label in enumerate(cfg.labels)}

    # Write every touched block once, in the order the steps above lay
    # its instructions out: entry insertions (latest placement first),
    # the original instructions with replacements and kept copies, then
    # exit insertions.
    collapse = collapse_isolated_copies
    drop = drop_dead_insertions
    edited: Set[str] = set()
    touched = set(occurrences) | set(delete) | set(entries) | set(exits)
    for label in cfg.labels:
        if label not in touched:
            continue
        here = occurrences.get(label, {})
        deleted = delete.get(label, 0)
        generates = generator.get(label, 0)
        out = live_out[index[label]]
        exit_bits = sum(1 << j for j in exits.get(label, ()))
        live_out_kept = out & ~exit_bits
        at_entry = entries.get(label, ())
        # The entry insertion right before the first instruction, when
        # that instruction is its replaced occurrence and a generator
        # later in the block redefines the temp, feeds only that read:
        # it is isolated, and the pair stays the original ``x = e``.
        isolated_entry = None
        if collapse and at_entry:
            j = at_entry[0]
            if (deleted & generates) >> j & 1 and here[j][0] == 0:
                isolated_entry = j
        rewritten: List[Assign] = []

        def insert(j: int, live: int) -> None:
            placement = placements[j]
            if not drop or live >> j & 1:
                rewritten.append(Assign(placement.temp, placement.expr))
            else:
                result.insertions_dropped.append((label, placement.temp))

        for j in reversed(at_entry):
            if j != isolated_entry:
                insert(j, deleted | (live_out_kept & ~generates))
        replaced = {here[j][0] for j in here if deleted >> j & 1}
        last = {positions[-1] for positions in here.values()}
        for pos, instr in enumerate(work.block(label).instrs):
            j = column.get(instr.expr)
            if j is None:
                rewritten.append(instr)
                continue
            temp = placements[j].temp
            if pos in replaced and j != isolated_entry:
                rewritten.append(Assign(instr.target, Var(temp)))
                continue
            result.copies_added.append((label, temp))
            if not collapse or (pos in last and live_out_kept >> j & 1):
                rewritten.append(Assign(temp, instr.expr))
                rewritten.append(Assign(instr.target, Var(temp)))
            else:
                result.copies_collapsed.append((label, temp))
                rewritten.append(instr)
        for j in exits.get(label, ()):
            insert(j, out)
        if rewritten != work.block(label).instrs:
            work.block(label).instrs[:] = rewritten
            edited.add(label)

    # Edge insertions; one split block per edge, shared by all
    # expressions inserting there and created even when every insertion
    # on it is dead.  The split retargets the source's terminator, so
    # both the new block and the source are edits.
    by_edge: Dict[Edge, List[Placement]] = {}
    for placement in placements:
        for edge in placement.insert_edges:
            by_edge.setdefault(edge, []).append(placement)
    for edge in sorted(by_edge):
        src, dst = edge
        split = work.split_edge(src, dst, f"ins_{src}_{dst}")
        live = live_in[index[dst]]
        for placement in sorted(by_edge[edge], key=lambda p: p.temp):
            if not drop or live >> column[placement.expr] & 1:
                split.append(Assign(placement.temp, placement.expr))
            else:
                result.insertions_dropped.append((split.label, placement.temp))
        edited.add(split.label)
        edited.add(src)

    # Seed the copy's fingerprint state from the input's: only the
    # edited blocks hash differently, so the first fingerprint of the
    # result is an incremental patch, not a whole-CFG hash.
    notify_cfg_derived(work, cfg, sorted(edited))
    return result


def eliminate_dead_code(cfg: CFG, candidates: Iterable[str]) -> int:
    """Remove dead assignments to the *candidates* variables.

    Returns the number of instructions removed.  Nothing is live at the
    exit; otherwise this is
    :func:`repro.passes.dce.dead_code_elimination` restricted to
    assignments whose target is in *candidates*.
    """
    # Deferred: repro.passes imports repro.core.
    from repro.passes.dce import dead_code_elimination

    return dead_code_elimination(cfg, observable=(), candidates=candidates)
