"""Ordered DTDs with regular-expression content models.

The paper's §2 analyses multiplicity schemas *against* DTDs: "It is known
that DTD containment is in PTIME when only 1-unambiguous regular
expressions are allowed, PSPACE-complete for general regular expressions,
and coNP-hard in the case of disjunction-free DTDs" — and its own
formalisms deliberately drop sibling order.  This module supplies the DTD
side of that comparison:

* content models are regular expressions over child labels (reusing the
  graph package's regex/NFA engine — the children of a node form a word);
* validation is ordered (unlike DMS membership);
* :func:`dtd_to_ms` forgets order into the tightest disjunction-free
  multiplicity schema whose language contains the DTD's — the formal
  counterpart of the paper's "this order ... is not important for solving
  problems such as query satisfiability"; the PTIME dependency-graph
  analyses then apply to the DTD soundly.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SchemaError, SchemaViolation
from repro.graphdb.nfa import NFA, compile_regex
from repro.graphdb.regex import (
    Concat,
    Epsilon,
    Label,
    Regex,
    Star,
    Union,
    parse_regex,
)
from repro.schema.dme import DME, Atom
from repro.schema.dms import DMS
from repro.schema.multiplicity import Multiplicity
from repro.util.intervals import INF, Interval
from repro.xmltree.tree import XTree


class DTD:
    """A root label plus regex content models (ordered semantics)."""

    def __init__(self, root: str, rules: Mapping[str, Regex | str]) -> None:
        if not root:
            raise SchemaError("DTD root label must be non-empty")
        self.root = root
        self.rules: dict[str, Regex] = {}
        for label, model in rules.items():
            self.rules[label] = (parse_regex(model)
                                 if isinstance(model, str) else model)
        for label in sorted(self._mentioned()):
            self.rules.setdefault(label, Epsilon())
        self.rules.setdefault(root, Epsilon())
        self._nfas: dict[str, NFA] = {}

    def _mentioned(self) -> set[str]:
        out: set[str] = set()
        for model in self.rules.values():
            _collect_labels(model, out)
        return out

    def _nfa(self, label: str) -> NFA:
        if label not in self._nfas:
            self._nfas[label] = compile_regex(self.rules[label])
        return self._nfas[label]

    # ------------------------------------------------------------------
    def validate(self, tree: XTree) -> None:
        """Ordered validation: children words must match the models."""
        if tree.root.label != self.root:
            raise SchemaViolation(
                f"root is {tree.root.label!r}, DTD expects {self.root!r}"
            )
        for n in tree.nodes():
            if n.label not in self.rules:
                raise SchemaViolation(f"unknown label {n.label!r}")
            word = tuple(c.label for c in n.children)
            if not self._nfa(n.label).accepts(word):
                raise SchemaViolation(
                    f"children of {n.label!r} ({' '.join(word) or 'empty'}) "
                    f"do not match its content model"
                )

    def accepts(self, tree: XTree) -> bool:
        try:
            self.validate(tree)
        except SchemaViolation:
            return False
        return True

    @property
    def is_disjunction_free(self) -> bool:
        """No union anywhere in the content models (``?`` counts as a
        union with epsilon, hence also excluded — the classic definition
        permits only concatenation and star of labels)."""
        return all(_disjunction_free(model) for model in self.rules.values())


# Module-level recursions over a content model: a recursive inner function
# would close over itself and leave a reference cycle per call.
def _collect_labels(r: Regex, out: set[str]) -> None:
    """Add every label ``r`` mentions to ``out``."""
    if isinstance(r, Label):
        out.add(r.name)
    elif isinstance(r, (Concat, Union)):
        _collect_labels(r.left, out)
        _collect_labels(r.right, out)
    elif isinstance(r, Star):
        _collect_labels(r.inner, out)


def _disjunction_free(r: Regex) -> bool:
    if isinstance(r, (Label, Epsilon)):
        return True
    if isinstance(r, Concat):
        return _disjunction_free(r.left) and _disjunction_free(r.right)
    if isinstance(r, Star):
        return _disjunction_free(r.inner)
    return False  # Union


# ---------------------------------------------------------------------------
# Order forgetting: DTD -> disjunction-free MS over-approximation
# ---------------------------------------------------------------------------


def _count_interval(r: Regex, label: str) -> Interval:
    """Achievable occurrence counts of ``label`` in words of ``L(r)``."""
    if isinstance(r, Epsilon):
        return Interval(0, 0)
    if isinstance(r, Label):
        return Interval(1, 1) if r.name == label else Interval(0, 0)
    if isinstance(r, Concat):
        return _count_interval(r.left, label) + _count_interval(r.right,
                                                                label)
    if isinstance(r, Union):
        left = _count_interval(r.left, label)
        right = _count_interval(r.right, label)
        lo = min(left.lo, right.lo)
        hi = left.hi if right.hi <= left.hi else right.hi
        return Interval(lo, hi)
    if isinstance(r, Star):
        inner = _count_interval(r.inner, label)
        if inner == Interval(0, 0):
            return inner
        return Interval(0, INF)
    raise TypeError(type(r))


def dtd_to_ms(dtd: DTD) -> DMS:
    """The tightest disjunction-free MS containing the DTD's language.

    Per label pair (parent, child), the achievable count interval of the
    child in the parent's content model maps to the tightest multiplicity
    covering it.  The result accepts every DTD-valid document (order
    forgotten); query implication w.r.t. the MS is therefore a sound
    approximation of implication w.r.t. the DTD — PTIME, as the paper
    proves for disjunction-free DTDs.

    Union content models may admit count gaps (e.g. ``a.a|b`` has counts
    {0, 2} for ``a``); the interval hull covers them, which is exactly
    where the approximation loses precision — and why the DMS class keeps
    the analyses tractable.
    """
    rules: dict[str, DME] = {}
    for label, model in dtd.rules.items():
        atoms = []
        mentioned = sorted(
            {x for x in DTD(dtd.root, {label: model})._mentioned()}
        )
        for child in mentioned:
            interval = _count_interval(model, child)
            if isinstance(interval.hi, int) and interval.hi == 0:
                continue
            hi = 2 if not isinstance(interval.hi, int) else interval.hi
            atoms.append(Atom(frozenset({child}),
                              Multiplicity.from_counts(interval.lo, hi)))
        rules[label] = DME(atoms)
    return DMS(dtd.root, rules)
