"""Rule ``wire-codec``: the wire protocol stays complete and closed.

Two completeness contracts over :mod:`repro.serving.wire` and the
serving package, each of which has historically only been checked by
whichever round-trip test happened to exercise the path:

1. **Codec pairing.**  Every ``encode_<x>`` in ``repro.serving.wire``
   has a matching ``decode_<x>`` somewhere in the module (free function
   or method) and vice versa — a one-directional codec means some frame
   can be produced that no peer can consume, or parsed that no client
   can emit.

2. **Tag registries.**  ``repro.serving.wire`` declares the closed
   vocabularies of the protocol as module-level ``*_TYPES`` / ``*_KINDS``
   frozensets of string literals (``FRAME_TYPES``, ``RECORD_TYPES``,
   ``ITEM_KINDS``).  Every tag literal must live in **exactly one**
   registry, and every serving-package construction or comparison of a
   tag — a ``{"type": "..."}`` / ``{"kind": "..."}`` dict literal, or a
   comparison against an expression derived from ``.get("type")`` /
   ``.get("kind")`` (by convention bound to a variable named ``kind``)
   — must use a registered literal.  An unregistered tag is either a
   typo (the peer will reject it) or a new frame type added without
   updating the registry (so no exhaustiveness check sees it).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    const_strings,
    register,
)

WIRE_MODULE = "repro.serving.wire"
SERVING_PACKAGE = "repro.serving"

CODEC_RE = re.compile(r"^_?(encode|decode)_(\w+)$")

#: dict keys that carry protocol tags, mapped to the registry names that
#: may supply their values.
TAG_KEYS = {"type": ("FRAME_TYPES", "RECORD_TYPES"),
            "kind": ("ITEM_KINDS",)}

#: Registry declaration names the rule looks for in wire.py.
REGISTRY_NAME_RE = re.compile(r"^[A-Z][A-Z_]*(_TYPES|_KINDS)$")


@register
class WireCodecRule(Rule):
    rule_id = "wire-codec"
    title = "every codec paired, every tag registered"
    rationale = (
        "In repro.serving.wire every encode_<x> must have a decode_<x> "
        "and vice versa; every frame/record/item tag literal used in the "
        "serving package must appear in exactly one of the declared "
        "*_TYPES/*_KINDS registries. Catches one-directional codecs and "
        "unregistered frame tags statically."
    )

    # ------------------------------------------------------------------
    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: list[Finding] = []
        wire = project.module(WIRE_MODULE)
        registries: dict[str, dict[str, ast.AST]] = {}
        if wire is not None and wire.tree is not None:
            findings.extend(self._check_pairs(wire))
            registries = self._load_registries(wire)
            findings.extend(self._check_registry_disjoint(wire, registries))
        if registries:
            for module in project.in_package(SERVING_PACKAGE):
                if module.tree is not None:
                    findings.extend(
                        self._check_tag_usage(module, registries))
        return findings

    # ------------------------------------------------------------------
    # 1. encode/decode pairing
    # ------------------------------------------------------------------
    def _check_pairs(self, wire: ModuleInfo) -> Iterator[Finding]:
        assert wire.tree is not None
        directions: dict[str, dict[str, ast.AST]] = {"encode": {},
                                                     "decode": {}}
        for node in ast.walk(wire.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                match = CODEC_RE.match(node.name)
                if match:
                    directions[match.group(1)].setdefault(
                        match.group(2), node)
        for direction, other in (("encode", "decode"),
                                 ("decode", "encode")):
            for suffix, node in sorted(directions[direction].items()):
                if suffix not in directions[other]:
                    yield wire.finding(
                        node, self.rule_id,
                        f"{direction}_{suffix} has no matching "
                        f"{other}_{suffix} in {WIRE_MODULE} — the codec "
                        f"is one-directional")

    # ------------------------------------------------------------------
    # 2. tag registries
    # ------------------------------------------------------------------
    def _load_registries(
            self, wire: ModuleInfo) -> dict[str, dict[str, ast.AST]]:
        """``registry name -> {tag literal -> declaring node}``."""
        registries: dict[str, dict[str, ast.AST]] = {}
        assert wire.tree is not None
        for node in wire.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name)
                    and REGISTRY_NAME_RE.match(target.id)):
                continue
            value = node.value
            if isinstance(value, ast.Call) and isinstance(
                    value.func, ast.Name) \
                    and value.func.id == "frozenset" and value.args:
                value = value.args[0]
            tags = {s: n for n, s in const_strings(value)}
            if tags:
                registries[target.id] = tags
        return registries

    def _check_registry_disjoint(
            self, wire: ModuleInfo,
            registries: dict[str, dict[str, ast.AST]]) -> Iterator[Finding]:
        seen: dict[str, str] = {}
        for name, tags in sorted(registries.items()):
            for tag, node in sorted(tags.items()):
                if tag in seen:
                    yield wire.finding(
                        node, self.rule_id,
                        f"tag {tag!r} appears in both {seen[tag]} and "
                        f"{name} — every tag lives in exactly one "
                        f"registry")
                else:
                    seen[tag] = name

    def _check_tag_usage(
            self, module: ModuleInfo,
            registries: dict[str, dict[str, ast.AST]]) -> Iterator[Finding]:
        all_tags = {tag for tags in registries.values() for tag in tags}
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Dict):
                yield from self._check_dict_tags(module, node, registries)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare_tags(module, node, all_tags)

    def _check_dict_tags(
            self, module: ModuleInfo, node: ast.Dict,
            registries: dict[str, dict[str, ast.AST]]) -> Iterator[Finding]:
        for key, value in zip(node.keys, node.values):
            if not (isinstance(key, ast.Constant)
                    and key.value in TAG_KEYS):
                continue
            if not (isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                continue
            allowed_names = [name for name in TAG_KEYS[key.value]
                             if name in registries]
            allowed = {tag for name in allowed_names
                       for tag in registries[name]}
            if value.value not in allowed:
                yield module.finding(
                    value, self.rule_id,
                    f'{{"{key.value}": "{value.value}"}} uses an '
                    f"unregistered tag — add it to "
                    f"{' or '.join(TAG_KEYS[key.value])} in "
                    f"{WIRE_MODULE} (or fix the typo)")

    @staticmethod
    def _is_tag_expr(expr: ast.AST) -> bool:
        """``frame.get("type"/"kind")`` or the conventional ``kind`` var."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and node.args[0].value in TAG_KEYS:
                return True
            if isinstance(node, ast.Name) and node.id == "kind":
                return True
        return False

    def _check_compare_tags(self, module: ModuleInfo, node: ast.Compare,
                            all_tags: set[str]) -> Iterator[Finding]:
        sides = [node.left, *node.comparators]
        if not any(self._is_tag_expr(side) for side in sides):
            return
        for side in sides:
            for literal_node, literal in const_strings(side):
                if literal not in all_tags:
                    yield module.finding(
                        literal_node, self.rule_id,
                        f"comparison against unregistered tag "
                        f"{literal!r} — every frame/record/item tag "
                        f"lives in a {WIRE_MODULE} registry")
