"""repro — Learning queries for relational, semi-structured, and graph databases.

A from-scratch reproduction of Radu Ciucanu's SIGMOD/PODS 2013 PhD
Symposium paper.  Three query-learning pillars over three home-grown data
substrates, plus the cross-model data-exchange application that motivates
them (the paper's Figure 1):

* **XML** — :mod:`repro.xmltree` (documents), :mod:`repro.twig` (twig
  queries), :mod:`repro.schema` (multiplicity schemas), learners in
  :mod:`repro.learning` (positive-only, with negatives, schema-aware, PAC);
* **relational** — :mod:`repro.relational` (algebra engine), join/semijoin
  learners and the interactive tuple-labelling framework;
* **graph** — :mod:`repro.graphdb` (graphs, RPQs, path queries), path-query
  learner and the interactive path-labelling session with workload priors;
* **exchange** — :mod:`repro.exchange` (publish/shred pipelines and learned
  mappings); datasets in :mod:`repro.datasets` (XMark, XPathMark,
  relational and geographic workloads).

Evaluation is served by :mod:`repro.engine` (per-instance indexes and
memoisation behind the plain ``evaluate``/``evaluate_rpq`` signatures) and
batched/sharded by :mod:`repro.serving` (one hypothesis over many
instances per call, in-process, on a TCP server, or across a fleet of
server processes).

Quickstart::

    from repro import parse_twig, learn_twig, TwigOracle, XTree, parse_xml

    goal = parse_twig("/site/people/person[phone]/name")
    oracle = TwigOracle(goal)
    doc = XTree(parse_xml(xml_text))
    examples = [(doc, node) for node in oracle.annotate(doc)]
    print(learn_twig(examples).query.to_xpath())
"""

from repro.errors import (
    ReproError,
    ParseError,
    SchemaError,
    SchemaViolation,
    InconsistentExamplesError,
    LearningError,
    EvaluationError,
    RelationalError,
    GraphError,
)
from repro.engine import (
    Engine,
    IndexedDocument,
    IndexedGraph,
    get_engine,
    reset_engine,
)
from repro.xmltree import XNode, XTree, node, parse_xml, serialize_xml
from repro.twig import (
    Axis,
    TwigNode,
    TwigQuery,
    parse_twig,
    evaluate,
    contains,
    equivalent,
    minimize,
)
from repro.schema import DMS, Multiplicity, infer_schema, schema_contains
from repro.learning import (
    NodeExample,
    TwigOracle,
    learn_twig,
    check_consistency,
)
from repro.learning.schema_aware import (
    learn_twig_schema_aware,
    prune_schema_implied,
)
from repro.relational import (
    Relation,
    RelationSchema,
    Database,
    natural_join,
    equi_join,
    semijoin,
)
from repro.learning.join_learner import learn_join, check_join_consistency
from repro.learning.semijoin_learner import (
    learn_semijoin,
    greedy_semijoin,
    check_semijoin_consistency,
)
from repro.learning.interactive import InteractiveJoinSession
from repro.graphdb import Graph, PathQuery, parse_regex, evaluate_rpq
from repro.learning.path_learner import learn_path_query
from repro.learning.graph_session import InteractivePathSession
from repro.exchange import Mapping, run_all_scenarios
from repro.serving import (
    BatchEvaluator,
    Workload,
    WorkloadResult,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "ParseError", "SchemaError", "SchemaViolation",
    "InconsistentExamplesError", "LearningError", "EvaluationError",
    "RelationalError", "GraphError",
    # evaluation engine
    "Engine", "IndexedDocument", "IndexedGraph",
    "get_engine", "reset_engine",
    # xml substrate
    "XNode", "XTree", "node", "parse_xml", "serialize_xml",
    # twig queries
    "Axis", "TwigNode", "TwigQuery", "parse_twig", "evaluate",
    "contains", "equivalent", "minimize",
    # schemas
    "DMS", "Multiplicity", "infer_schema", "schema_contains",
    # XML learning
    "NodeExample", "TwigOracle", "learn_twig", "check_consistency",
    "learn_twig_schema_aware", "prune_schema_implied",
    # relational substrate
    "Relation", "RelationSchema", "Database",
    "natural_join", "equi_join", "semijoin",
    # relational learning
    "learn_join", "check_join_consistency",
    "learn_semijoin", "greedy_semijoin", "check_semijoin_consistency",
    "InteractiveJoinSession",
    # graph substrate + learning
    "Graph", "PathQuery", "parse_regex", "evaluate_rpq",
    "learn_path_query", "InteractivePathSession",
    # exchange
    "Mapping", "run_all_scenarios",
    # batched serving
    "BatchEvaluator", "Workload", "WorkloadResult",
    "__version__",
]
