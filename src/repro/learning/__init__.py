"""Query learning — the paper's primary contribution.

One learner per data model, all sharing the example/oracle vocabulary of
:mod:`repro.learning.protocol`:

* :mod:`repro.learning.twig_learner` — anchored twig queries from positive
  examples (annotated XML documents), Staworko & Wieczorek style.
* :mod:`repro.learning.twig_negative` — consistency checking and learning
  with negative examples (NP-complete in general, tractable when the number
  of examples is bounded).
* :mod:`repro.learning.schema_aware` — the paper's proposed optimisation:
  drop learned filters that are implied by the document schema.
* :mod:`repro.learning.pac` — the approximate (PAC) learning framework the
  paper proposes for the intractable cases.
* :mod:`repro.learning.join_learner` / :mod:`repro.learning.semijoin_learner`
  — relational queries from labelled tuples, with the PTIME/NP-complete
  consistency gap the paper proves.
* :mod:`repro.learning.path_learner` — graph path queries from labelled
  paths.
* :mod:`repro.learning.interactive` — the interactive protocol: propose an
  example, ask the user, propagate uninformative labels, minimise the
  number of interactions.
* :mod:`repro.learning.backend` — the evaluation seam all of the above
  run through: :class:`~repro.learning.backend.LocalBackend` (in-process
  sharded batches, the default) and
  :class:`~repro.learning.backend.RemoteBackend` (a TCP server or fleet),
  answer-identical by contract.
"""

from repro.learning.backend import (
    EvaluationBackend,
    LocalBackend,
    RemoteBackend,
)
from repro.learning.protocol import (
    NodeExample,
    TwigOracle,
    SessionStats,
)
from repro.learning.twig_learner import LearnedTwig, learn_twig
from repro.learning.twig_negative import ConsistencyResult, check_consistency
from repro.learning.union_learner import LearnedUnion, learn_union_twig
from repro.learning.chain_learner import ChainExample, learn_join_chain

__all__ = [
    "EvaluationBackend",
    "LocalBackend",
    "RemoteBackend",
    "NodeExample",
    "TwigOracle",
    "SessionStats",
    "LearnedTwig",
    "learn_twig",
    "ConsistencyResult",
    "check_consistency",
    "LearnedUnion",
    "learn_union_twig",
    "ChainExample",
    "learn_join_chain",
]
