"""Rule ``async-purity``: the event loop is never blocked, locks never
held across ``await``.

The serving tier's whole streaming story rests on two properties of
:mod:`repro.serving.async_evaluator` / :mod:`repro.serving.net`:

* an ``async def`` body never performs blocking work on the loop thread
  — evaluation is bridged through ``asyncio.wrap_future`` (the process
  executor) or ``loop.run_in_executor`` (in-process executors), and IO
  goes through asyncio streams.  One blocking call (``time.sleep``, a
  blocking socket primitive, a synchronous :class:`WorkloadClient`, a
  bare ``concurrent.futures`` wait) stalls *every* connection at once;
* no ``await`` happens while a synchronous (threading) lock is held —
  the coroutine may suspend for arbitrarily long with the lock taken,
  deadlocking any thread (or any other coroutine's executor callback)
  that needs it.

This rule scans every ``async def`` in the tree for a blocklist of
blocking calls by name — ``time.sleep``, blocking socket constructors
and methods, the blocking wire helpers (``send_frame_blocking`` /
``recv_frame_blocking`` / ``recv_frame_counted``), synchronous
``WorkloadClient(...)`` construction, ``concurrent.futures.wait`` and
``Future.result()`` — and for ``await`` expressions lexically inside a
synchronous ``with`` on a lock-like context manager (a name containing
``lock``; ``async with`` is fine).  Calls that are provably
non-blocking in context (e.g. ``.result()`` on a future that was just
awaited to completion) are suppressed per line with a written reason.
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
    register,
)

#: Dotted call targets that block the calling thread.
BLOCKING_DOTTED = {
    "time.sleep",
    "socket.create_connection",
    "socket.socket",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "concurrent.futures.wait",
    "futures.wait",
}

#: Bare-name calls that block (the blocking wire helpers, sync clients).
BLOCKING_NAMES = {
    "send_frame_blocking",
    "recv_frame_blocking",
    "recv_frame_counted",
    "WorkloadClient",
    "ServerThread",
}

#: Method names that block regardless of receiver (socket/file/future
#: primitives).  ``result`` covers ``concurrent.futures.Future.result()``
#: — an already-completed future's ``result()`` is fine and gets a
#: per-line suppression with the reason written down.
BLOCKING_METHODS = {"sendall", "recv", "accept", "connect", "makefile",
                    "result"}


def _lockish(expr: ast.AST) -> bool:
    """Does a with-item context expression look like a threading lock?"""
    name = dotted_name(expr)
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
    return bool(name) and "lock" in name.lower()


@register
class AsyncPurityRule(Rule):
    rule_id = "async-purity"
    title = "async def bodies never block the loop or await under a lock"
    rationale = (
        "Inside any `async def`: no blocking calls (time.sleep, blocking "
        "sockets, sync wire helpers, WorkloadClient, "
        "concurrent.futures.wait, Future.result), and no `await` while a "
        "synchronous lock is held. One blocking call on the loop thread "
        "stalls every connection of the serving tier at once."
    )

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterable[Finding]:
        if module.tree is None:
            return ()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for stmt in node.body:
                    findings.extend(self._walk(module, stmt,
                                               locks_held=False))
        return findings

    def _walk(self, module: ModuleInfo, node: ast.AST, *,
              locks_held: bool) -> Iterator[Finding]:
        if isinstance(node, ast.FunctionDef):
            # A nested sync def is not awaited here; its body runs on
            # whatever thread calls it — out of scope for this pass.
            return
        if isinstance(node, ast.AsyncFunctionDef):
            # Nested coroutine: fresh scope, no lock inherited lexically.
            for stmt in node.body:
                yield from self._walk(module, stmt, locks_held=False)
            return
        if isinstance(node, ast.With):
            holds = locks_held or any(_lockish(item.context_expr)
                                      for item in node.items)
            for item in node.items:
                yield from self._walk(module, item.context_expr,
                                      locks_held=locks_held)
            for child in node.body:
                yield from self._walk(module, child, locks_held=holds)
            return
        if isinstance(node, ast.Await):
            if locks_held:
                yield module.finding(
                    node, self.rule_id,
                    "await while a synchronous lock is held — the "
                    "coroutine can suspend indefinitely with the lock "
                    "taken; release it first or use an asyncio lock")
            yield from self._walk(module, node.value,
                                  locks_held=locks_held)
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(module, node)
        for child in ast.iter_child_nodes(node):
            yield from self._walk(module, child, locks_held=locks_held)

    def _check_call(self, module: ModuleInfo,
                    node: ast.Call) -> Iterator[Finding]:
        func = node.func
        dotted = dotted_name(func)
        if dotted in BLOCKING_DOTTED:
            yield module.finding(
                node, self.rule_id,
                f"blocking call {dotted}() inside an async def — "
                f"offload it via loop.run_in_executor")
        elif isinstance(func, ast.Name) and func.id in BLOCKING_NAMES:
            yield module.finding(
                node, self.rule_id,
                f"{func.id}() is synchronous/blocking; an async def "
                f"must use the asyncio-native path instead")
        elif isinstance(func, ast.Attribute) \
                and func.attr in BLOCKING_METHODS \
                and not isinstance(func.value, ast.Constant):
            yield module.finding(
                node, self.rule_id,
                f".{func.attr}() can block the event loop thread; "
                f"await the asyncio equivalent (or suppress with the "
                f"reason it cannot block here)")
