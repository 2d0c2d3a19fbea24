"""The benchmark's workloads: seeded inputs, session specs, set-up.

A workload is a *cycle* of session specs that the runner repeats.  Each
spec builds one interactive session on a given backend; the runner
times construction plus ``run()``.

What the seed changes, and what it does not.  Twig and path learners see
only structure (labels, topology), and their session cost moves by 2x
across XMark corpora and geo graphs drawn from different generator
seeds -- more than any 10-60 s run can average out.  So the structure
of each corpus and graph is part of the workload definition (fixed
generator seeds, as in ``benchmarks/bench_remote_session.py``), and the
run seed draws everything else: every text value of the corpus, vertex
coordinates and road distances, the relation instances of the join
sessions, and the edit script of ``twig-edit-remote`` (which documents
and nodes each edit touches, and the inserted and rewritten texts).
Text and properties change digests and wire bytes, not questions.

Every session is judged twice:

* by the naive oracles -- its hypothesis must label every pool item the
  way the hidden goal does (``evaluate_naive``, ``PathQuery.accepts``,
  ``predicate_selects``), memoised per distinct (spec, hypothesis);
* against the ``LocalBackend`` reference session recorded in set-up for
  the same spec: same question sequence, same hypothesis.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.datasets.xmark import generate_xmark
from repro.engine import Engine
from repro.graphdb.geo import make_geo_graph
from repro.graphdb.graph import Graph
from repro.graphdb.pathquery import PathQuery
from repro.learning.backend import LocalBackend, RemoteBackend
from repro.learning.graph_session import InteractivePathSession
from repro.learning.interactive import InteractiveJoinSession, LatticeStrategy
from repro.learning.xml_session import InteractiveTwigSession
from repro.relational.generator import make_join_instance
from repro.relational.predicates import predicate_selects
from repro.twig.parse import parse_twig
from repro.twig.semantics import evaluate_naive
from repro.xmltree.tree import XNode, XTree

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# -- twig: the bench_remote_session configuration --------------------------
TWIG_GOALS = (
    ("//person[profile]/name", "name"),
    ("//person[phone]/name", "name"),
    ("//item[mailbox]/name", "name"),
    ("//open_auction[bidder]/seller", "seller"),
)
CORPUS_STRUCTURE_SEEDS = tuple(700 + i for i in range(6))
XMARK_SCALE = 0.03
TWIG_MAX_POOL = 60

# -- path: geo graphs with a highway goal ----------------------------------
PATH_GOAL = "highway+"
LOCAL_GRAPH = {"width": 8, "height": 6, "rng": 2, "max_candidates": 200,
               "endpoints": (("city_0_0", "city_6_0"),
                             ("city_0_0", "city_4_4"),
                             ("city_1_0", "city_6_4"),
                             ("city_0_2", "city_6_2"))}
REMOTE_GRAPH = {"width": 5, "height": 4, "rng": 1, "max_candidates": 80,
                "endpoints": (("city_0_0", "city_3_0"),
                              ("city_0_0", "city_2_2"))}
PATH_MAX_LENGTH = 8

# -- join: 24x24-row relations, lattice strategy ---------------------------
JOIN_ROWS = 24
JOIN_MAX_POOL = 600
JOIN_INSTANCES = 8

_WORDS = ("alpha bravo coral delta ember fjord gale heron iris jade kelp "
          "lumen maple north onyx pearl quartz reed sable tidal umber "
          "vale willow xenon yarrow zephyr").split()


def _text(r: random.Random) -> str:
    return " ".join(r.choice(_WORDS) for _ in range(r.randint(1, 3)))


def make_corpus(seed: int) -> list[XTree]:
    """Six XMark documents: fixed structure, every text drawn from ``seed``."""
    r = random.Random(f"corpus-{seed}")
    docs = [generate_xmark(scale=XMARK_SCALE, rng=s)
            for s in CORPUS_STRUCTURE_SEEDS]
    for doc in docs:
        for n in doc.nodes():
            if n.text is not None:
                n.text = _text(r)
    return docs


def make_graph(config: dict, seed: int) -> Graph:
    """A geo graph: fixed topology, coordinates and distances from ``seed``."""
    r = random.Random(f"graph-{seed}")
    base = make_geo_graph(rng=config["rng"], width=config["width"],
                          height=config["height"], train_probability=0.3)
    graph = Graph()
    coords = {}
    for v in base.vertices():
        props = dict(base.vertex_properties(v))
        props["x"] = round(props["x"] + r.uniform(-0.5, 0.5), 3)
        props["y"] = round(props["y"] + r.uniform(-0.5, 0.5), 3)
        coords[v] = (props["x"], props["y"])
        graph.add_vertex(v, **props)
    for e in base.edges():
        (xa, ya), (xb, yb) = coords[e.src], coords[e.dst]
        distance = round(((xa - xb) ** 2 + (ya - yb) ** 2) ** 0.5, 2)
        graph.add_edge(e.src, e.label, e.dst, distance=distance)
    return graph


# ---------------------------------------------------------------------------
# Session specs
# ---------------------------------------------------------------------------

class Spec:
    """One session of the cycle.  ``key`` identifies its reference."""

    kind = "abstract"

    def __init__(self, key: str) -> None:
        self.key = key

    def build(self, backend):
        raise NotImplementedError

    def hook_gaps(self, session, backend, gaps: list[float],
                  start: float):
        """Timestamp questions at the oracle; returns an undo callable."""
        return lambda: None

    def oracle_agrees(self, session, result) -> bool:
        raise NotImplementedError

    @staticmethod
    def outcome(result):
        """The hashable learned query of a session result."""
        return result.query


def _timestamped(fn, gaps: list[float], last: list[float]):
    """Wrap an oracle call: the gap ends as it is asked, restarts on answer."""

    def asked(*args):
        gaps.append(time.perf_counter() - last[0])
        try:
            return fn(*args)
        finally:
            last[0] = time.perf_counter()

    return asked


class TwigSpec(Spec):
    kind = "twig"

    def __init__(self, key: str, docs: list[XTree], goal: str,
                 label_filter: str) -> None:
        super().__init__(key)
        self.docs = docs
        self.goal = parse_twig(goal)
        self.label_filter = label_filter

    def build(self, backend):
        return InteractiveTwigSession(
            self.docs, self.goal, label_filter=self.label_filter,
            max_pool=TWIG_MAX_POOL, backend=backend)

    def hook_gaps(self, session, backend, gaps, start):
        session.oracle.label = _timestamped(session.oracle.label, gaps,
                                            [start])
        return lambda: None

    def oracle_agrees(self, session, result) -> bool:
        by_doc: dict[int, list[XNode]] = {}
        for doc, n in session.pool:
            by_doc.setdefault(id(doc), []).append(n)
        for doc in {id(d): d for d, _ in session.pool}.values():
            wanted = {id(n) for n in evaluate_naive(self.goal, doc)}
            got = set() if result.query is None else {
                id(n) for n in evaluate_naive(result.query, doc)}
            if any((id(n) in wanted) != (id(n) in got)
                   for n in by_doc[id(doc)]):
                return False
        return True


class PathSpec(Spec):
    kind = "path"

    def __init__(self, key: str, graph: Graph, source: str, target: str,
                 max_candidates: int) -> None:
        super().__init__(key)
        self.graph = graph
        self.source = source
        self.target = target
        self.max_candidates = max_candidates
        self.goal = PathQuery.parse(PATH_GOAL)

    def build(self, backend):
        return InteractivePathSession(
            self.graph, self.source, self.target, self.goal,
            max_length=PATH_MAX_LENGTH, max_candidates=self.max_candidates,
            backend=backend)

    def hook_gaps(self, session, backend, gaps, start):
        # The session's goal check is its only backend.accepts call on
        # the goal itself; every other acceptance probe passes through.
        goal_check = _timestamped(backend.accepts, gaps, [start])
        plain = backend.accepts

        def accepts(query, word):
            if query is self.goal:
                return goal_check(query, word)
            return plain(query, word)

        backend.accepts = accepts
        return lambda: delattr(backend, "accepts")

    def oracle_agrees(self, session, result) -> bool:
        return all(
            (result.query is not None and result.query.accepts(w))
            == self.goal.accepts(w)
            for w in session.candidates)


class JoinSpec(Spec):
    kind = "join"

    def __init__(self, key: str, instance) -> None:
        super().__init__(key)
        self.instance = instance

    def build(self, backend):
        inst = self.instance
        return InteractiveJoinSession(
            inst.left, inst.right, inst.goal, strategy=LatticeStrategy(),
            max_pool=JOIN_MAX_POOL, rng=0, backend=backend)

    def oracle_agrees(self, session, result) -> bool:
        inst = self.instance
        return all(
            predicate_selects(inst.left, inst.right, lrow, rrow,
                              result.predicate)
            == predicate_selects(inst.left, inst.right, lrow, rrow,
                                 inst.goal)
            for lrow, rrow in session.pool)

    @staticmethod
    def outcome(result):
        return result.predicate


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

class ServerProcess:
    """``perfbench/server.py`` as a child process, driven over its stdin."""

    #: Seconds to wait for any reply before declaring the server hung.
    REPLY_TIMEOUT = 60.0

    def __init__(self, *, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        #: The server's state as it stopped (set by :meth:`stop`).
        self.final: dict | None = None
        try:
            self.port = self._reply()["port"]
        except BaseException:
            self.kill()
            raise

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self.REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("benchmark server exited or hung")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        """Close stdin, read the final snapshot, wait for the exit."""
        if self.final is None:
            try:
                if self.proc.poll() is None:
                    self.proc.stdin.close()
                    self.final = self._reply()
                    self.proc.wait(timeout=30)
            finally:
                self.kill()
        return self.final or {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


# ---------------------------------------------------------------------------
# Workload environments
# ---------------------------------------------------------------------------

@dataclass
class Reference:
    asked: list
    outcome: object


@dataclass
class Env:
    """Everything one set-up produced; the runner drives it."""

    name: str
    cycle: list[Spec]
    kinds: tuple[str, ...]
    remote: RemoteBackend | None = None
    server: ServerProcess | None = None
    editor: "Editor | None" = None
    references: dict[str, Reference] = field(default_factory=dict)
    #: (spec key, outcome) -> naive-oracle verdict.
    verdicts: dict = field(default_factory=dict)
    #: Sessions started so far, set-up included: the cycle position.
    position: int = 0

    def backend(self):
        """The backend the next session runs on.

        Local sessions each get a fresh ``LocalBackend`` and engine, so
        no session is served from another session's memo; remote
        sessions share one ``RemoteBackend`` (two pooled connections,
        one digest registry), as one client process would.
        """
        if self.remote is not None:
            return self.remote
        return LocalBackend(engine=Engine())

    def spec_key(self, position: int, spec: Spec) -> str:
        if self.editor is None:
            return spec.key
        return f"{spec.key}@{self.editor.state(position)}"

    def before(self, position: int) -> None:
        if self.editor is not None:
            self.editor.apply(position)

    def close(self) -> None:
        try:
            if self.remote is not None:
                self.remote.close()
        finally:
            if self.server is not None:
                self.server.stop()


class Editor:
    """The seeded edit script of ``twig-edit-remote``.

    The script has a period of four rounds.  Round 0 inserts a person
    (name + phone) into one document and round 2 deletes it again, so
    the corpus has two structural states and the references cover each
    round's (goal, state) pair.  Round 1 rewrites one text through the
    tracked ``relabel_node`` (shipped as a delta, patched on the
    server), round 3 by assignment plus an untracked ``invalidate()``
    (a full record and a full rebuild).  Texts are fresh on every
    round, so no digest ever repeats.
    """

    PERIOD = 4

    def __init__(self, docs: list[XTree], seed: int) -> None:
        self.docs = docs
        self.rng = random.Random(f"edits-{seed}")
        self.target = self.rng.randrange(len(docs))
        self.inserted: XNode | None = None

    def state(self, position: int) -> str:
        return "inserted" if position % self.PERIOD < 2 else "base"

    def _text_node(self) -> tuple[XTree, XNode]:
        doc = self.docs[self.rng.randrange(len(self.docs))]
        candidates = [n for n in doc.nodes() if n.text is not None]
        return doc, candidates[self.rng.randrange(len(candidates))]

    def apply(self, position: int) -> None:
        step = position % self.PERIOD
        if step == 0:
            doc = self.docs[self.target]
            people = next(n for n in doc.root.children
                          if n.label == "people")
            self.inserted = doc.insert_subtree(people, XNode("person", [
                XNode("name", text=_text(self.rng)),
                XNode("phone", text=_text(self.rng))]))
        elif step == 1:
            doc, n = self._text_node()
            doc.relabel_node(n, text=_text(self.rng))
        elif step == 2:
            self.docs[self.target].delete_subtree(self.inserted)
            self.inserted = None
        else:
            doc, n = self._text_node()
            n.text = _text(self.rng)
            doc.invalidate()


def _twig_specs(docs: list[XTree]) -> list[Spec]:
    return [TwigSpec(f"twig:{goal}", docs, goal, label_filter)
            for goal, label_filter in TWIG_GOALS]


def _path_specs(graph: Graph, config: dict) -> list[Spec]:
    return [PathSpec(f"path:{s}->{t}", graph, s, t, config["max_candidates"])
            for s, t in config["endpoints"]]


def _alternate(first: list[Spec], second: list[Spec]) -> list[Spec]:
    return [spec for pair in zip(first, second) for spec in pair]


def build_env(name: str, seed: int, *, trace: bool = False) -> Env:
    """Generate inputs and start what the workload needs (no sessions)."""
    if name == "twig-local":
        return Env(name, _twig_specs(make_corpus(seed)), ("twig",))
    if name == "graph-join-local":
        graph = make_graph(LOCAL_GRAPH, seed)
        joins = [JoinSpec(f"join:{k}", make_join_instance(
            rng=random.Random(f"join-{seed}-{k}").randrange(10 ** 9),
            goal_pairs=2, left_rows=JOIN_ROWS, right_rows=JOIN_ROWS,
            domain=6)) for k in range(JOIN_INSTANCES)]
        paths = _path_specs(graph, LOCAL_GRAPH)
        cycle = [spec for i, path in enumerate(paths)
                 for spec in (path, joins[2 * i], joins[2 * i + 1])]
        return Env(name, cycle, ("path", "join"))
    if name in ("mixed-remote", "twig-edit-remote"):
        docs = make_corpus(seed)
        if name == "mixed-remote":
            graph = make_graph(REMOTE_GRAPH, seed)
            # Two twig goals and two endpoint pairs: remote sessions are
            # slow, and a short cycle repeats often enough in one run.
            env = Env(name, _alternate(_twig_specs(docs)[::2],
                                       _path_specs(graph, REMOTE_GRAPH)),
                      ("twig", "path"))
            instances = docs + [graph]
        else:
            env = Env(name, _twig_specs(docs), ("twig",),
                      editor=Editor(docs, seed))
            instances = docs
        env.server = ServerProcess(trace=trace)
        try:
            env.remote = RemoteBackend("127.0.0.1", env.server.port)
            env.remote.warm_instances(instances)
        except BaseException:
            env.close()
            raise
        return env
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("twig-local", "graph-join-local", "mixed-remote",
             "twig-edit-remote")
