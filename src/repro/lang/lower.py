"""Lowering the mini-language AST to the CFG IR.

Control structure becomes explicit blocks; non-atomic branch conditions
are materialised into compiler temporaries (``c<N>.cond = a < b``
followed by a branch on the temporary), which keeps every PRE candidate
inside an assignment exactly as the paper's statement form requires.
Compiler-introduced names contain a dot, which source identifiers
cannot, so no collisions are possible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.expr import Atom, BinExpr, Const, Expr, Var
from repro.ir.instr import Assign, CondBranch, Halt, Jump
from repro.ir.validate import validate_cfg
from repro.lang import ast
from repro.lang.parser import parse_program


class _Lowerer:
    def __init__(self) -> None:
        self.cfg = CFG("entry", "exit")
        self.cfg.add_block(BasicBlock("entry"))
        self.cfg.add_block(BasicBlock("exit", [], Halt()))
        self._counter = 0
        self._current: Optional[BasicBlock] = None
        # (continue target, break target) per enclosing loop.
        self._loop_stack: List[tuple] = []
        # Labels some terminator jumps to.  Lowering never removes a
        # terminated block, so this answers "does anything reach this
        # join?" without the CFG's predecessor map, which is rebuilt
        # after every added block and would make lowering quadratic.
        self._targeted: Set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def _fresh_block(self, role: str) -> BasicBlock:
        self._counter += 1
        return self.cfg.add_block(BasicBlock(f"b{self._counter}_{role}"))

    def _fresh_var(self, stem: str) -> str:
        self._counter += 1
        return f"{stem}{self._counter}.L"

    def _emit(self, instr: Assign) -> None:
        assert self._current is not None
        self._current.append(instr)

    def _terminate(self, terminator) -> None:
        assert self._current is not None
        assert self._current.terminator is None
        self._current.terminator = terminator
        self._current = None
        self._targeted.update(terminator.successors())

    def _switch_to(self, block: BasicBlock) -> None:
        self._current = block

    def _atomize(self, expr: Expr) -> Atom:
        """Return an atom for *expr*, materialising a temp if needed."""
        if isinstance(expr, (Var, Const)):
            return expr
        temp = self._fresh_var("c")
        self._emit(Assign(temp, expr))
        return Var(temp)

    # -- lowering ---------------------------------------------------------

    def lower(self, program: ast.Program) -> CFG:
        first = self._fresh_block("start")
        self.cfg.block("entry").terminator = Jump(first.label)
        self._switch_to(first)
        self._lower_body(program.body)
        if self._current is not None:
            self._terminate(Jump("exit"))
        self.cfg.notify_terminator_changed()
        validate_cfg(self.cfg)
        return self.cfg

    def _lower_body(self, body: Sequence[ast.Stmt]) -> None:
        for stmt in body:
            if self._current is None:
                # Unreachable statements after break/continue: dropped.
                return
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._emit(Assign(stmt.target, stmt.expr))
        elif isinstance(stmt, ast.SkipStmt):
            pass
        elif isinstance(stmt, ast.BreakStmt):
            if not self._loop_stack:
                from repro.lang.errors import LangError

                raise LangError("'break' outside a loop", stmt.line)
            self._terminate(Jump(self._loop_stack[-1][1]))
        elif isinstance(stmt, ast.ContinueStmt):
            if not self._loop_stack:
                from repro.lang.errors import LangError

                raise LangError("'continue' outside a loop", stmt.line)
            self._terminate(Jump(self._loop_stack[-1][0]))
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.RepeatStmt):
            self._lower_repeat(stmt)
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    def _resume_at_join(self, join: BasicBlock) -> None:
        """Continue lowering at *join*, or drop it when nothing reaches it
        (e.g. both arms of an if break out of the loop)."""
        if join.label in self._targeted:
            self._switch_to(join)
        else:
            self.cfg.remove_block(join.label)
            self._current = None

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        cond = self._atomize(stmt.cond)
        then_block = self._fresh_block("then")
        join = self._fresh_block("join")
        if stmt.else_body:
            else_block = self._fresh_block("else")
            self._terminate(CondBranch(cond, then_block.label, else_block.label))
            self._switch_to(else_block)
            self._lower_body(stmt.else_body)
            if self._current is not None:
                self._terminate(Jump(join.label))
        else:
            self._terminate(CondBranch(cond, then_block.label, join.label))
        self._switch_to(then_block)
        self._lower_body(stmt.then_body)
        if self._current is not None:
            self._terminate(Jump(join.label))
        self._resume_at_join(join)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self._fresh_block("while")
        self._terminate(Jump(header.label))
        self._switch_to(header)
        cond = self._atomize(stmt.cond)
        body = self._fresh_block("loopbody")
        after = self._fresh_block("after")
        self._terminate(CondBranch(cond, body.label, after.label))
        self._switch_to(body)
        self._loop_stack.append((header.label, after.label))
        self._lower_body(stmt.body)
        self._loop_stack.pop()
        if self._current is not None:
            self._terminate(Jump(header.label))
        self._switch_to(after)

    def _lower_do_while(self, stmt: ast.DoWhileStmt) -> None:
        body = self._fresh_block("dobody")
        self._terminate(Jump(body.label))
        self._switch_to(body)
        # `continue` in a do-while proceeds to the trailing test, which
        # therefore needs its own block.
        latch = self._fresh_block("dolatch")
        after = self._fresh_block("after")
        self._loop_stack.append((latch.label, after.label))
        self._lower_body(stmt.body)
        self._loop_stack.pop()
        if self._current is not None:
            self._terminate(Jump(latch.label))
        if latch.label in self._targeted:
            self._switch_to(latch)
            cond = self._atomize(stmt.cond)
            self._terminate(CondBranch(cond, body.label, after.label))
        else:
            # The body always breaks: the loop never repeats.
            self.cfg.remove_block(latch.label)
        self._resume_at_join(after)

    def _lower_repeat(self, stmt: ast.RepeatStmt) -> None:
        counter = self._fresh_var("r")
        bound = self._fresh_var("rb")
        self._emit(Assign(bound, stmt.count))
        self._emit(Assign(counter, Const(0)))
        header = self._fresh_block("repeat")
        self._terminate(Jump(header.label))
        self._switch_to(header)
        cond = self._fresh_var("c")
        self._emit(Assign(cond, BinExpr("<", Var(counter), Var(bound))))
        body = self._fresh_block("repeatbody")
        after = self._fresh_block("after")
        self._terminate(CondBranch(Var(cond), body.label, after.label))
        self._switch_to(body)
        # `continue` must still advance the counter: route it through a
        # dedicated latch block holding the increment.
        latch = self._fresh_block("replatch")
        self._loop_stack.append((latch.label, after.label))
        self._lower_body(stmt.body)
        self._loop_stack.pop()
        if self._current is not None:
            self._terminate(Jump(latch.label))
        if latch.label in self._targeted:
            self._switch_to(latch)
            self._emit(Assign(counter, BinExpr("+", Var(counter), Const(1))))
            self._terminate(Jump(header.label))
        else:
            self.cfg.remove_block(latch.label)
        self._switch_to(after)


def lower_program(program: ast.Program) -> CFG:
    """Lower a parsed :class:`~repro.lang.ast.Program` to a CFG."""
    return _Lowerer().lower(program)


def compile_program(source: str) -> CFG:
    """Parse and lower *source* in one step."""
    return lower_program(parse_program(source))
