"""Multiplicity path expressions — the learnable path-query fragment.

The paper wants "a query language for graphs which is expressive enough and
also learnable from positive and possibly negative examples" (full SPARQL
being hopeless: PSPACE-complete evaluation).  We take concatenations of
*atoms*, each a label disjunction with a multiplicity::

    highway+ . (national|local)? . train*

— deliberately the path analogue of the schema package's disjunctive
multiplicity expressions.  Two evaluators decide the same language: RPQ
evaluation and :meth:`PathQuery.accepts` (the reference) run the Thompson
NFA of :meth:`PathQuery.nfa`, and the engine decides a single word by
:class:`AtomScan`, one bit-parallel pass over the atoms that builds no
automaton.  The learner generalises two queries of the fragment
by their cheapest sequence alignment (``lgg_path`` in
:mod:`repro.learning.path_learner`); the result generalises both, but it
is neither least nor monotone in the hypothesis, and that module gives
the counterexample.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import ParseError
from repro.graphdb.nfa import NFA, compile_regex
from repro.graphdb.regex import (
    Epsilon,
    Label,
    Regex,
    Star,
    concat_all,
    optional,
    plus,
    union_all,
)
from repro.schema.multiplicity import Multiplicity

Word = tuple[str, ...]


@dataclass(frozen=True)
class PathAtom:
    """``(a|b)^M``: one step-set with a multiplicity."""

    labels: frozenset[str]
    multiplicity: Multiplicity = Multiplicity.ONE

    def __post_init__(self) -> None:
        if not self.labels:
            raise ParseError("path atom needs at least one label")
        if self.multiplicity is Multiplicity.ZERO:
            raise ParseError("multiplicity 0 is meaningless in a path atom")

    def to_regex(self) -> Regex:
        base = union_all([Label(x) for x in sorted(self.labels)])
        if self.multiplicity is Multiplicity.ONE:
            return base
        if self.multiplicity is Multiplicity.OPTIONAL:
            return optional(base)
        if self.multiplicity is Multiplicity.PLUS:
            return plus(base)
        return Star(base)

    def interval_unbounded(self) -> bool:
        return self.multiplicity in (Multiplicity.PLUS, Multiplicity.STAR)

    def __str__(self) -> str:
        body = "|".join(sorted(self.labels))
        if len(self.labels) > 1 or self.multiplicity is not Multiplicity.ONE:
            body = f"({body})" if len(self.labels) > 1 else body
        suffix = "" if self.multiplicity is Multiplicity.ONE \
            else str(self.multiplicity)
        return f"{body}{suffix}"


class AtomScan:
    """Word acceptance for a concatenation of atoms, as bit operations.

    Bit ``i`` of a state means "atom ``i`` may consume the next symbol",
    and bit ``n``, one past the last atom, means "the word may end here".
    A step keeps the state's atoms that admit the symbol; each of them
    may consume again if it repeats (``+``, ``*``) and hands on to the
    atom after it, and across skippable atoms (``?``, ``*``) to the ones
    after those.  The tables are built once per query.
    """

    __slots__ = ("_admits", "_step", "_start", "_end")

    def __init__(self, atoms: Sequence[PathAtom]) -> None:
        n = len(atoms)
        # reach[i]: the positions the scan can move on to from position
        # i without consuming a symbol (i, and past skippable atoms).
        reach = [1 << n] * (n + 1)
        self._admits: dict[str, int] = {}
        # _step[bit of atom i]: the state after atom i consumes a symbol.
        self._step: dict[int, int] = {}
        for i in range(n - 1, -1, -1):
            atom, bit = atoms[i], 1 << i
            reach[i] = bit | (reach[i + 1] if atom.multiplicity.min == 0
                              else 0)
            self._step[bit] = reach[i + 1] | (
                bit if atom.interval_unbounded() else 0)
            for label in atom.labels:
                self._admits[label] = self._admits.get(label, 0) | bit
        self._start = reach[0]
        self._end = 1 << n

    def accepts(self, word: Iterable[str]) -> bool:
        admits, step = self._admits, self._step
        state = self._start
        for symbol in word:
            matched = state & admits.get(symbol, 0)
            if not matched:
                return False
            # Mostly one atom matches: then the step is one lookup.
            state = step.get(matched)
            if state is None:
                state = 0
                while matched:
                    bit = matched & -matched
                    state |= step[bit]
                    matched ^= bit
        return bool(state & self._end)


class PathQuery:
    """A concatenation of path atoms.

    Immutable: its hash is computed once, in ``__init__``, and setting or
    deleting an attribute raises :class:`AttributeError`, so the hash
    cannot go stale.  Only the compiled NFA and the scan tables are
    filled in later, each once.  They are pure functions of the atoms, so
    two threads racing on a first use only build one of them twice.
    """

    __slots__ = ("atoms", "_nfa", "_scan", "_hash")

    def __init__(self, atoms: Iterable[PathAtom] = ()) -> None:
        atoms = tuple(atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "_nfa", None)
        object.__setattr__(self, "_scan", None)
        object.__setattr__(self, "_hash", hash(atoms))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PathQuery is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"PathQuery is immutable: cannot delete {name!r}")

    # ------------------------------------------------------------------
    @classmethod
    def of_word(cls, word: Sequence[str]) -> "PathQuery":
        """The most specific query accepting exactly ``word``."""
        return cls(PathAtom(frozenset({x})) for x in word)

    @classmethod
    def parse(cls, text: str) -> "PathQuery":
        """Parse ``highway+.(national|local)?.train*`` style syntax."""
        text = text.strip()
        if not text:
            return cls()
        atoms = []
        for part in text.split("."):
            part = part.strip()
            if not part:
                raise ParseError("empty atom in path query")
            mult = Multiplicity.ONE
            if part[-1] in "?+*":
                mult = Multiplicity(part[-1])
                part = part[:-1].strip()
            if part.startswith("(") and part.endswith(")"):
                part = part[1:-1]
            labels = frozenset(x.strip() for x in part.split("|"))
            if not all(labels):
                raise ParseError(f"malformed path atom: {part!r}")
            atoms.append(PathAtom(labels, mult))
        return cls(atoms)

    # ------------------------------------------------------------------
    def to_regex(self) -> Regex:
        if not self.atoms:
            return Epsilon()
        return concat_all([a.to_regex() for a in self.atoms])

    def nfa(self) -> NFA:
        if self._nfa is None:
            object.__setattr__(self, "_nfa", compile_regex(self.to_regex()))
        return self._nfa

    def scan(self) -> AtomScan:
        """The bit-parallel acceptance tables of the query (built once)."""
        if self._scan is None:
            object.__setattr__(self, "_scan", AtomScan(self.atoms))
        return self._scan

    def accepts(self, word: Sequence[str]) -> bool:
        """Word membership by the Thompson NFA: the reference that
        :meth:`scan` is checked against."""
        return self.nfa().accepts(tuple(word))

    def size(self) -> int:
        """Description size: atom count plus disjunction widths."""
        return sum(len(a.labels) for a in self.atoms)

    @property
    def min_length(self) -> int:
        return sum(a.multiplicity.min for a in self.atoms)

    # ------------------------------------------------------------------
    def generalizes(self, other: "PathQuery", *,
                    probe_length: int = 8) -> bool:
        """Sound language-inclusion check: ``other ⊆ self``.

        Exact for this fragment via atom-wise simulation would need care
        with adjacent shared labels; we use the robust route instead —
        probe with words of ``other`` up to ``probe_length`` (atom minima
        plus up to two extra repetitions per unbounded atom).
        """
        for word in other.sample_words(probe_length):
            if not self.accepts(word):
                return False
        return True

    def sample_words(self, max_extra: int = 8) -> list[Word]:
        """A finite probe set of accepted words (minimal + inflated)."""
        words: set[Word] = set()
        _sample_words(self.atoms, 0, (), max_extra, words)
        return sorted(words)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathQuery):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.atoms:
            return "()"
        return ".".join(str(a) for a in self.atoms)

    def __repr__(self) -> str:
        return f"PathQuery({str(self)!r})"


def _sample_words(atoms: Sequence[PathAtom], idx: int, prefix: Word,
                  budget: int, words: set[Word]) -> None:
    # Module-level with its state as arguments: a recursive inner
    # function would close over itself and keep the word set in a
    # reference cycle until the cyclic collector runs.
    if idx == len(atoms):
        words.add(prefix)
        return
    atom = atoms[idx]
    lo = atom.multiplicity.min
    hi_candidates = [lo]
    if atom.interval_unbounded() or lo == 0:
        hi_candidates.append(lo + 1)
    if atom.interval_unbounded():
        hi_candidates.append(lo + 2)
    for count in hi_candidates:
        if count - lo > budget:
            continue
        for label in sorted(atom.labels):
            _sample_words(atoms, idx + 1, prefix + (label,) * count,
                          budget - (count - lo), words)
