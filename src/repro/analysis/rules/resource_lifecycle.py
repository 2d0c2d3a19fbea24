"""Rule ``resource-lifecycle``: closeables are closed on every path.

The serving tier and the remote backend create real OS resources —
sockets (``socket.create_connection``), worker pools
(``ThreadPoolExecutor`` / ``ProcessPoolExecutor``), connections
(``WorkloadClient``), subprocesses (``multiprocessing`` ``Process``),
files (``open``).  Leaking one does not fail a
test; it exhausts descriptors or leaves worker processes behind after
hours of serving.  The discipline in ``repro.serving`` and
``repro.learning.backend`` is that every such creation has a visible
owner responsible for closing it:

* created as a ``with`` item — the block owns it;
* stored on ``self`` — the declaring class must define a close-like
  method (``close`` / ``stop`` / ``shutdown`` / ``__exit__`` / ...);
* bound to a local — the local must either *escape* the function
  (returned, yielded, stored onto an object, handed to another call —
  e.g. appended to a connection pool) or be closed in a ``finally:``
  block.  A local that is closed only on the straight-line path leaks
  on the exception path; a local that is never closed and never escapes
  is a plain leak;
* used inline and discarded (``WorkloadClient(...).run(...)``, a bare
  expression statement) — always a violation: nothing can ever close it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
    is_self_attr,
    register,
)

#: Packages/modules where the discipline is enforced.
SCOPED = ("repro.serving", "repro.learning.backend")

#: Dotted call targets that allocate a closeable resource.
CLOSEABLE_DOTTED = {"socket.create_connection", "socket.socket"}

#: Constructor names (bare or attribute tail) that allocate a closeable.
#: ``Process`` covers subprocesses (``multiprocessing`` contexts spell
#: the constructor ``ctx.Process``).
CLOSEABLE_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor",
                   "WorkloadClient", "Process", "open"}

#: Method names that count as releasing a resource.  ``kill``/``join``
#: are how subprocess handles are released.
CLOSE_CALLS = {"close", "aclose", "stop", "shutdown", "terminate",
               "release", "kill", "join"}

#: A class owning a closeable must expose one of these.
CLOSE_METHODS = {"close", "aclose", "stop", "shutdown",
                 "__exit__", "__aexit__", "__del__"}


def _in_scope(module: ModuleInfo) -> bool:
    return any(module.module == s or module.module.startswith(s + ".")
               for s in SCOPED)


def _is_creation(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = dotted_name(node.func)
    if dotted in CLOSEABLE_DOTTED:
        return True
    tail = dotted.rsplit(".", 1)[-1] if dotted else None
    if isinstance(node.func, ast.Name):
        tail = node.func.id
    elif isinstance(node.func, ast.Attribute):
        tail = node.func.attr
    return tail in CLOSEABLE_NAMES


def _what(node: ast.Call) -> str:
    return dotted_name(node.func) or "<closeable>"


@register
class ResourceLifecycleRule(Rule):
    rule_id = "resource-lifecycle"
    title = "every closeable has an owner that closes it on all paths"
    rationale = (
        "Sockets, executors, WorkloadClients and files created in "
        "repro.serving / repro.learning.backend must be owned: a with "
        "block, a self attribute on a class that defines close()-like "
        "cleanup, or a local that escapes or is closed in a finally. "
        "Inline-discarded closeables and straight-line-only close() "
        "calls leak descriptors and worker processes under error paths."
    )

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterable[Finding]:
        if module.tree is None or not _in_scope(module):
            return ()
        return list(self._scan(module))

    # ------------------------------------------------------------------
    def _scan(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in ast.walk(module.tree):
            if _is_creation(node):
                yield from self._check_creation(module, node, parents)

    def _enclosing(self, node: ast.AST, parents: dict[ast.AST, ast.AST],
                   kinds: tuple[type, ...]) -> ast.AST | None:
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, kinds):
                return cur
            cur = parents.get(cur)
        return None

    def _check_creation(self, module: ModuleInfo, call: ast.Call,
                        parents: dict[ast.AST, ast.AST],
                        ) -> Iterator[Finding]:
        parent = parents.get(call)
        if isinstance(parent, ast.withitem):
            return  # the with block owns and closes it
        if isinstance(parent, ast.Attribute):
            yield module.finding(
                call, self.rule_id,
                f"{_what(call)}(...) is used inline and discarded — "
                f"nothing can ever close it; bind it or use `with`")
            return
        if isinstance(parent, ast.Expr):
            yield module.finding(
                call, self.rule_id,
                f"{_what(call)}(...) result is discarded — the resource "
                f"leaks immediately")
            return
        if isinstance(parent, (ast.Assign, ast.AnnAssign)) \
                and call is parent.value:
            targets = parent.targets if isinstance(parent, ast.Assign) \
                else [parent.target]
            for target in targets:
                yield from self._check_binding(module, call, target, parents)
            return
        # Any other position (return value, call argument, comprehension
        # element, conditional expression arm) hands the object to code
        # that can see it — ownership escapes this expression.

    # ------------------------------------------------------------------
    def _check_binding(self, module: ModuleInfo, call: ast.Call,
                       target: ast.AST,
                       parents: dict[ast.AST, ast.AST]) -> Iterator[Finding]:
        if is_self_attr(target):
            cls = self._enclosing(call, parents, (ast.ClassDef,))
            if isinstance(cls, ast.ClassDef) and not self._class_closes(cls):
                yield module.finding(
                    call, self.rule_id,
                    f"{_what(call)}(...) is stored on self.{target.attr} "
                    f"but class {cls.name} defines no close-like method "
                    f"({', '.join(sorted(CLOSE_METHODS))})")
            return
        if not isinstance(target, ast.Name):
            return  # stored into a container/attribute chain: escapes
        func = self._enclosing(
            call, parents, (ast.FunctionDef, ast.AsyncFunctionDef))
        if func is None:
            return  # module-level singleton: lives for the process
        name = target.id
        if self._name_escapes(func, name, call):
            return
        closed_in_finally, closed_anywhere = self._close_sites(func, name)
        if closed_in_finally:
            return
        if closed_anywhere:
            yield module.finding(
                call, self.rule_id,
                f"{_what(call)}(...) bound to {name!r} is closed only on "
                f"the straight-line path — an exception before the close "
                f"leaks it; move the close into try/finally or use `with`")
        else:
            yield module.finding(
                call, self.rule_id,
                f"{_what(call)}(...) bound to {name!r} is never closed "
                f"and never escapes this function")

    @staticmethod
    def _class_closes(cls: ast.ClassDef) -> bool:
        if any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and item.name in CLOSE_METHODS for item in cls.body):
            return True
        # Subclasses of an in-repo base that defines close() (e.g. the
        # EvaluationBackend hierarchy) inherit their cleanup contract.
        return bool(cls.bases)

    def _name_escapes(self, func: ast.AST, name: str,
                      creation: ast.Call) -> bool:
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) \
                    and node.value is not None \
                    and self._mentions(node.value, name):
                return True
            if isinstance(node, ast.Call) and node is not creation:
                args = list(node.args) + [kw.value for kw in node.keywords]
                if any(self._mentions(a, name) for a in args):
                    return True
            if isinstance(node, ast.Assign) \
                    and self._mentions(node.value, name) \
                    and any(not isinstance(t, ast.Name)
                            for t in node.targets):
                return True
            if isinstance(node, ast.withitem) \
                    and self._mentions(node.context_expr, name):
                return True
        return False

    @staticmethod
    def _mentions(expr: ast.AST, name: str) -> bool:
        return any(isinstance(n, ast.Name) and n.id == name
                   and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(expr))

    def _close_sites(self, func: ast.AST, name: str) -> tuple[bool, bool]:
        """(closed inside a finally block, closed anywhere at all)."""
        in_finally = anywhere = False
        finally_nodes: set[ast.AST] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                for stmt in node.finalbody:
                    finally_nodes.update(ast.walk(stmt))
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in CLOSE_CALLS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == name:
                anywhere = True
                if node in finally_nodes:
                    in_finally = True
        return in_finally, anywhere
