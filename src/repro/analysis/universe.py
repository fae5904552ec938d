"""The expression universe: the index space of all bit-vector analyses.

PRE reasons about every *operator expression* occurring on a right-hand
side anywhere in the program.  The universe assigns each such expression
a stable bit index, translates between expressions and bit vectors, and
names the temporary introduced for each expression by the code motion
transformation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dataflow.bitvec import BitVector
from repro.ir.cfg import CFG
from repro.ir.expr import Expr, expr_key, expr_vars, is_computation


class ExprUniverse:
    """An indexed set of candidate expressions.

    Indices are assigned in first-occurrence order over the CFG's
    deterministic block/instruction order, so analyses and printouts are
    reproducible run to run.
    """

    def __init__(self, exprs: Iterable[Expr] = ()) -> None:
        self._index: Dict[Expr, int] = {}
        self._exprs: List[Expr] = []
        # Derived state: variable -> kill-mask bits, built on the first
        # invalidated_by query and dropped whenever the universe grows.
        self._kills: Optional[Dict[str, int]] = None
        for expr in exprs:
            self.add(expr)

    @classmethod
    def of_cfg(cls, cfg: CFG) -> "ExprUniverse":
        """Collect every PRE candidate expression of *cfg*."""
        universe = cls()
        for _, _, instr in cfg.instructions():
            if instr.is_computation:
                universe.add(instr.expr)
        return universe

    def add(self, expr: Expr) -> int:
        """Insert *expr* (a computation) and return its index."""
        if not is_computation(expr):
            raise ValueError(f"not a candidate computation: {expr!r}")
        if expr not in self._index:
            self._index[expr] = len(self._exprs)
            self._exprs.append(expr)
            self._kills = None
        return self._index[expr]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._exprs)

    def __iter__(self) -> Iterator[Expr]:
        return iter(self._exprs)

    def __contains__(self, expr: Expr) -> bool:
        return expr in self._index

    @property
    def width(self) -> int:
        """The bit-vector width for this universe."""
        return len(self._exprs)

    def index_of(self, expr: Expr) -> int:
        """The bit index of *expr* (KeyError if absent)."""
        return self._index[expr]

    def expr_at(self, index: int) -> Expr:
        """The expression assigned to bit *index*."""
        return self._exprs[index]

    def enumerate(self) -> Iterator[Tuple[int, Expr]]:
        return enumerate(self._exprs)

    # ------------------------------------------------------------------

    def vector(self, exprs: Iterable[Expr]) -> BitVector:
        """A vector with the bits of the given expressions set."""
        return BitVector.of(self.width, (self._index[e] for e in exprs))

    def empty(self) -> BitVector:
        return BitVector.empty(self.width)

    def full(self) -> BitVector:
        return BitVector.full(self.width)

    def exprs_of(self, vec: BitVector) -> List[Expr]:
        """The expressions whose bits are set in *vec*."""
        if vec.width != self.width:
            raise ValueError(f"vector width {vec.width} != universe {self.width}")
        return [self._exprs[i] for i in vec]

    def invalidated_by(self, var: str) -> BitVector:
        """Expressions whose value may change when *var* is assigned.

        A dict lookup: the first query builds every variable's kill
        mask in one pass over the universe, so computing the local
        predicates costs one probe per assignment instead of a walk of
        every expression's operand tree.
        """
        kills = self._kills
        if kills is None:
            kills = {}
            for i, expr in enumerate(self._exprs):
                for name in expr_vars(expr):
                    kills[name] = kills.get(name, 0) | (1 << i)
            self._kills = kills
        return BitVector(self.width, kills.get(var, 0))

    # ------------------------------------------------------------------

    def temp_name(self, expr: Expr) -> str:
        """The canonical temporary name carrying *expr*'s value.

        The scheme ``t<index>.<key>`` cannot collide with source
        variables (identifiers cannot contain dots) and is unique per
        expression even when two expressions share a readable key.
        """
        return f"t{self.index_of(expr)}.{expr_key(expr)}"

    def describe(self, vec: Optional[BitVector] = None) -> str:
        """Readable listing, optionally restricted to the bits of *vec*."""
        items = (
            self.enumerate()
            if vec is None
            else ((i, self._exprs[i]) for i in vec)
        )
        return "{" + ", ".join(f"{i}:{e}" for i, e in items) + "}"
