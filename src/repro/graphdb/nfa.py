"""Thompson-construction NFAs over the edge-label alphabet.

The evaluator needs three things of an automaton: epsilon-closed stepping
(for the product construction with a graph), word acceptance (regexes,
DTD content models, and ``PathQuery.accepts`` as the reference for the
engine's atom scan), and determinised reachability — all small and
explicit here.
Stepping is memoised per automaton, so repeated acceptance checks walk a
lazily built DFA.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graphdb.regex import Concat, Epsilon, Label, Regex, Star, Union

EPS = None  # transition label for epsilon moves


class NFA:
    """A nondeterministic finite automaton with epsilon moves.

    ``initial()`` and ``step()`` are memoised per automaton: the memo maps
    an epsilon-closed state set and a symbol to the next closed state set
    (the initial set sits under ``(None, None)``), so it grows into the
    part of the determinised automaton that callers actually reach, and
    it dies with the automaton.  ``add_transition`` clears it, so an
    automaton extended after use stays correct (a new state has no moves
    and changes no entry).  ``start`` is set before first use.

    The engine shares one compiled automaton across threads.  Every memo
    entry is a pure function of its key, and a dict read or write is
    atomic under the GIL, so two threads racing on one entry only compute
    it twice.  Extending an automaton while another thread steps it is
    not supported.
    """

    def __init__(self) -> None:
        self.n_states = 0
        self.start = 0
        self.accept = 0
        # transitions[state] = list of (label_or_None, target)
        self.transitions: dict[int, list[tuple[str | None, int]]] = {}
        # lock-free: each entry is a pure function of its key, and a dict get or set is atomic under the GIL, so a race only repeats work
        self._memo: dict[tuple[frozenset[int] | None, str | None],
                         frozenset[int]] = {}

    def new_state(self) -> int:
        s = self.n_states
        self.n_states += 1
        self.transitions[s] = []
        return s

    def add_transition(self, src: int, label: str | None, dst: int) -> None:
        self.transitions[src].append((label, dst))
        self._memo.clear()

    # ------------------------------------------------------------------
    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        out = set(states)
        stack = list(out)
        while stack:
            s = stack.pop()
            for label, t in self.transitions[s]:
                if label is EPS and t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def step(self, states: frozenset[int], symbol: str) -> frozenset[int]:
        key = (states, symbol)
        out = self._memo.get(key)
        if out is None:
            out = self.epsilon_closure(
                t
                for s in states
                for label, t in self.transitions[s]
                if label == symbol
            )
            self._memo[key] = out
        return out

    def initial(self) -> frozenset[int]:
        out = self._memo.get((None, None))
        if out is None:
            out = self._memo[(None, None)] = self.epsilon_closure(
                [self.start])
        return out

    def is_accepting(self, states: frozenset[int]) -> bool:
        return self.accept in states

    def accepts(self, word: Iterable[str]) -> bool:
        states = self.initial()
        for symbol in word:
            states = self.step(states, symbol)
            if not states:
                return False
        return self.is_accepting(states)

    def alphabet(self) -> frozenset[str]:
        return frozenset(
            label
            for moves in self.transitions.values()
            for label, _ in moves
            if label is not EPS
        )


def compile_regex(regex: Regex) -> NFA:
    """Thompson construction: one fragment per AST node, linear size."""
    nfa = NFA()
    nfa.start, nfa.accept = _build(nfa, regex)
    return nfa


def _build(nfa: NFA, r: Regex) -> tuple[int, int]:
    """Add the fragment of ``r`` to ``nfa``; its ``(start, accept)``.

    A module-level function rather than a closure: a recursive inner
    function's cell refers to itself, so every NFA it built would wait
    for the cyclic collector instead of dying with its last reference.
    """
    if isinstance(r, Epsilon):
        s, t = nfa.new_state(), nfa.new_state()
        nfa.add_transition(s, EPS, t)
        return s, t
    if isinstance(r, Label):
        s, t = nfa.new_state(), nfa.new_state()
        nfa.add_transition(s, r.name, t)
        return s, t
    if isinstance(r, Concat):
        ls, lt = _build(nfa, r.left)
        rs, rt = _build(nfa, r.right)
        nfa.add_transition(lt, EPS, rs)
        return ls, rt
    if isinstance(r, Union):
        s, t = nfa.new_state(), nfa.new_state()
        ls, lt = _build(nfa, r.left)
        rs, rt = _build(nfa, r.right)
        nfa.add_transition(s, EPS, ls)
        nfa.add_transition(s, EPS, rs)
        nfa.add_transition(lt, EPS, t)
        nfa.add_transition(rt, EPS, t)
        return s, t
    if isinstance(r, Star):
        s, t = nfa.new_state(), nfa.new_state()
        inner_s, inner_t = _build(nfa, r.inner)
        nfa.add_transition(s, EPS, inner_s)
        nfa.add_transition(s, EPS, t)
        nfa.add_transition(inner_t, EPS, inner_s)
        nfa.add_transition(inner_t, EPS, t)
        return s, t
    raise TypeError(f"unknown regex node {type(r).__name__}")
