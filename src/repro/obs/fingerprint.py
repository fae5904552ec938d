"""Content fingerprints for CFGs, maintained incrementally.

The cache key of the :class:`~repro.obs.manager.AnalysisManager`: a
BLAKE2b digest over the graph's content (block order, instructions,
terminators, entry/exit, edge weights).  Two graphs with the same
fingerprint have identical dataflow facts, so a memoized
:class:`~repro.dataflow.solver.Solution` can be reused bit-for-bit.

The digest is built in two layers:

* :func:`block_fingerprint` hashes one block's compact tuple encoding
  — ``repr((label, [(target, expr), ...], terminator))`` with each
  expression and terminator lowered to plain strs, ints and tuples —
  into 16 raw bytes;
* :func:`combine_fingerprints` feeds the per-block digests, in block
  order, behind a ``(COMBINE_VERSION, entry, exit, block count)``
  header and ahead of the non-default edge weights, into the 64-char
  hex graph digest.

The encoding is injective: ``ast.literal_eval`` inverts every ``repr``
it hashes, so two blocks share a digest only if their
:func:`repro.ir.serialize.block_to_dict` payloads are equal (up to a
BLAKE2b collision).  It depends on no ``hash()``, ``id()`` or dict
order, so digests are stable across processes and ``PYTHONHASHSEED``
values.  :data:`COMBINE_VERSION` salts every graph digest and is part
of the on-disk store's ``code_version``
(:func:`repro.obs.store.default_code_version`), so a change to the
encoding moves stored entries to a fresh namespace.

``cfg_fingerprint`` composes the two for a from-scratch digest.  The
point of the split is :class:`FingerprintState`: a per-CFG-object cache
of the block digests that the manager keeps current through the
``notify_cfg_edited`` / ``notify_cfg_mutated`` hooks, so an
instruction-level edit re-hashes one block and re-combines — instead of
re-encoding the whole graph.  The two paths are counter-pinned as
``fingerprint.full`` (whole-graph hash) vs ``fingerprint.incr``
(dirty-block refresh); both run under a ``fingerprint`` span.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any, Dict, Iterable, Optional

from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.expr import BinExpr, Const, UnaryExpr, Var
from repro.ir.instr import CondBranch, Halt, Jump
from repro.ir.serialize import SerializeError
from repro.obs import trace

#: Bumped whenever the digest construction changes shape, so digests
#: from different code versions never collide in a shared store.
COMBINE_VERSION = 3


def expr_code(expr) -> Any:
    """The compact, injective tuple encoding of *expr* used in digests."""
    kind = type(expr)
    if kind is Var:
        return expr.name
    if kind is Const:
        return expr.value
    if kind is BinExpr:
        return (expr.op, expr_code(expr.left), expr_code(expr.right))
    if kind is UnaryExpr:
        return (expr.op, expr_code(expr.operand))
    raise SerializeError(f"not an expression: {expr!r}")


def block_fingerprint(block: BasicBlock) -> bytes:
    """A stable 16-byte digest of one block's content (incl. its label).

    Hashes ``repr((label, [(target, expr), ...], terminator))`` where a
    ``Var`` is its name, a ``Const`` its int value, a ``BinExpr``
    ``(op, l, r)``, a ``UnaryExpr`` ``(op, x)``, a ``Jump``
    ``(target,)``, a ``CondBranch`` ``(cond, then, else)`` and ``Halt``
    ``()``.  Tuple arity tells the forms apart and ``repr`` tells a
    ``str`` from an ``int``.  Raises
    :class:`~repro.ir.serialize.SerializeError` on an unterminated
    block, like :func:`~repro.ir.serialize.block_to_dict`.
    """
    term = block.terminator
    kind = type(term)
    if kind is Jump:
        term_code: tuple = (term.target,)
    elif kind is CondBranch:
        term_code = (expr_code(term.cond), term.then_target, term.else_target)
    elif kind is Halt:
        term_code = ()
    elif term is None:
        raise SerializeError(
            f"block {block.label!r} is unterminated; validate first"
        )
    else:
        raise SerializeError(f"unknown terminator {term!r}")
    instrs = [(instr.target, expr_code(instr.expr)) for instr in block.instrs]
    code = (block.label, instrs, term_code)
    return blake2b(repr(code).encode("utf-8"), digest_size=16).digest()


def combine_fingerprints(cfg: CFG, digests: Dict[str, bytes]) -> str:
    """Fold per-block *digests* into the graph digest of *cfg*.

    *digests* must contain an entry for every block label of *cfg*; any
    extra entries (blocks since removed) are ignored.  The combination
    walks ``cfg.labels`` — block *order* is part of the content, the
    iteration order of *digests* is not.  Entry/exit labels and
    non-default edge weights (over the current edges, mirroring
    :func:`~repro.ir.serialize.cfg_to_dict`) are folded in as well; the
    block count in the header keeps the fixed-width digest run apart
    from the weight tail.
    """
    labels = cfg.labels
    header = (COMBINE_VERSION, cfg.entry, cfg.exit, len(labels))
    hasher = blake2b(repr(header).encode("utf-8"), digest_size=32)
    hasher.update(b"".join([digests[label] for label in labels]))
    weights = cfg.weighted_edges()
    if weights:
        hasher.update(repr(weights).encode("utf-8"))
    return hasher.hexdigest()


def cfg_fingerprint(cfg: CFG) -> str:
    """A stable hex digest of *cfg*'s full content (from scratch)."""
    return FingerprintState.of(cfg).value


class FingerprintState:
    """The incrementally maintained fingerprint of one CFG object.

    Holds the per-block digests of the graph as last hashed, the
    combined graph digest, and the set of labels edited since — marked
    through :meth:`mark_edited` by the manager's notification hooks.
    :meth:`current` refreshes lazily: dirty blocks (and blocks added
    since the last hash) are re-hashed, digests of removed blocks are
    pruned, and the combination is re-folded.  A refresh costs
    O(edited region + combine), not O(graph encoding), and bumps
    ``fingerprint.incr``; only the initial :meth:`of` pays the
    whole-graph ``fingerprint.full`` hash.

    :meth:`derive` seeds the state of a *copied* graph from its base's
    digests — the transformation engine copies the input, edits a known
    set of blocks, and derives, so the copy's first fingerprint lookup
    is already incremental.
    """

    __slots__ = ("value", "blocks", "dirty")

    def __init__(
        self,
        value: Optional[str],
        blocks: Dict[str, bytes],
        dirty: Iterable[str] = (),
    ) -> None:
        self.value = value
        self.blocks = blocks
        self.dirty = set(dirty)

    @classmethod
    def of(cls, cfg: CFG) -> "FingerprintState":
        """Hash *cfg* from scratch (the ``fingerprint.full`` path)."""
        with trace.span("fingerprint", mode="full", blocks=len(cfg)):
            digests = {block.label: block_fingerprint(block) for block in cfg}
            value = combine_fingerprints(cfg, digests)
        trace.count("fingerprint.full")
        return cls(value, digests)

    def mark_edited(self, labels: Iterable[str]) -> None:
        """Record that the blocks named *labels* changed content."""
        self.dirty.update(labels)

    def current(self, cfg: CFG) -> str:
        """The up-to-date graph digest, refreshing dirty blocks lazily."""
        if self.dirty or self.value is None:
            self.refresh(cfg)
        return self.value

    def refresh(self, cfg: CFG) -> str:
        """Re-hash dirty/added blocks, prune removed ones, re-combine."""
        current_labels = set(cfg.labels)
        stale = {label for label in self.dirty if label in current_labels}
        stale |= current_labels - self.blocks.keys()
        with trace.span("fingerprint", mode="incr", blocks=len(stale)):
            for label in stale:
                self.blocks[label] = block_fingerprint(cfg.block(label))
            for label in list(self.blocks.keys() - current_labels):
                del self.blocks[label]
            self.value = combine_fingerprints(cfg, self.blocks)
        self.dirty.clear()
        trace.count("fingerprint.incr")
        return self.value

    def derive(self, edited: Iterable[str]) -> "FingerprintState":
        """State for a copy of this state's graph with *edited* blocks.

        The copy shares the base's clean block digests; edited (or
        newly added) labels are pending, plus anything already dirty on
        the base.  The combined value is left unset — the first lookup
        on the derived graph runs the incremental refresh.
        """
        return FingerprintState(
            None, dict(self.blocks), self.dirty | set(edited)
        )
