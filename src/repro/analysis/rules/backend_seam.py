"""Rule ``backend-seam``: learners evaluate only through the backend.

PR 4's load-bearing contract — for every learner and session, the
learned query, the question sequence, and the returned node objects are
identical on every :class:`~repro.learning.backend.EvaluationBackend`
implementation — holds only because the learning layer has exactly one
way to evaluate a hypothesis.  A learner that imports the engine (or the
engine-backed module-level ``evaluate``/``evaluate_rpq`` wrappers)
directly would silently pin itself to the local path: it would pass
every local test and diverge the moment it runs remote.

So: modules under ``repro.learning.*`` — except ``backend.py`` itself,
which *is* the seam — may not import ``repro.engine`` (any submodule,
any name), may not import the engine-backed evaluation wrappers from
``repro.twig.semantics`` / ``repro.graphdb.rpq``, and may not call
``get_engine()`` / ``Engine(...)`` or the engine's evaluation methods
(``evaluate_twig`` / ``evaluate_rpq``) directly.  Engine-adjacent
utilities the learning layer legitimately needs (e.g.
:class:`~repro.engine.cache.LRUCache`) are re-exported by
``repro.learning.backend`` for exactly this reason.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.core import Finding, ModuleInfo, Project, Rule, register

#: The one learning module allowed to touch the engine.
SEAM_MODULE = "repro.learning.backend"

#: Evaluation entry points that bypass the seam when imported by name.
FORBIDDEN_FROM = {
    "repro.twig.semantics": {"evaluate"},
    "repro.graphdb.rpq": {"evaluate_rpq"},
}

#: Calls that reach the engine directly.
FORBIDDEN_CALLS = {"get_engine", "reset_engine"}
FORBIDDEN_METHOD_CALLS = {"evaluate_twig", "evaluate_rpq", "evaluate_naive",
                          "evaluate_rpq_naive"}


@register
class BackendSeamRule(Rule):
    rule_id = "backend-seam"
    title = "learning modules route evaluation through the backend seam"
    rationale = (
        "repro.learning.* (except backend.py) may not import repro.engine "
        "or the engine-backed evaluate wrappers, nor call "
        "get_engine()/Engine.evaluate* directly — all hypothesis "
        "evaluation goes through EvaluationBackend, which is what keeps "
        "learners backend-invariant (same query, same questions, same "
        "node objects on local and remote)."
    )

    def check_module(self, module: ModuleInfo,
                     project: Project) -> Iterable[Finding]:
        if not module.module.startswith("repro.learning."):
            return ()
        if module.module == SEAM_MODULE:
            return ()
        return list(self._scan(module))

    def _scan(self, module: ModuleInfo) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.engine" \
                            or alias.name.startswith("repro.engine."):
                        yield module.finding(
                            node, self.rule_id,
                            f"import of {alias.name!r} bypasses the "
                            f"EvaluationBackend seam; use "
                            f"{SEAM_MODULE} instead")
            elif isinstance(node, ast.ImportFrom):
                origin = node.module or ""
                if origin == "repro.engine" \
                        or origin.startswith("repro.engine."):
                    yield module.finding(
                        node, self.rule_id,
                        f"import from {origin!r} bypasses the "
                        f"EvaluationBackend seam; re-export the name "
                        f"through {SEAM_MODULE}")
                elif origin in FORBIDDEN_FROM:
                    banned = FORBIDDEN_FROM[origin] & \
                        {alias.name for alias in node.names}
                    for name in sorted(banned):
                        yield module.finding(
                            node, self.rule_id,
                            f"importing {name!r} from {origin!r} is "
                            f"engine-backed evaluation outside the "
                            f"backend seam; call backend.{name_hint(name)} "
                            f"instead")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) \
                        and func.id in FORBIDDEN_CALLS:
                    yield module.finding(
                        node, self.rule_id,
                        f"direct {func.id}() call bypasses the "
                        f"EvaluationBackend seam")
                elif isinstance(func, ast.Attribute) \
                        and func.attr in FORBIDDEN_METHOD_CALLS:
                    yield module.finding(
                        node, self.rule_id,
                        f".{func.attr}() is a direct engine evaluation "
                        f"call; route it through the backend's "
                        f"selects*/accepts*/evaluate_batch surface")


def name_hint(name: str) -> str:
    """The backend-surface spelling of a bypassed evaluation call."""
    return {"evaluate": "evaluate_twig_batch",
            "evaluate_rpq": "evaluate_rpq_batch"}.get(name, name)
