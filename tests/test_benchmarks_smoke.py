"""Benchmark-suite invariants: every ``bench_*.py`` module must import
cleanly, expose at least one pytest runner, and have a designated cheap
runner that the slow-marked smoke actually executes for one tiny round —
so a broken benchmark is caught by the tier-1 suite, not first noticed
when someone asks for numbers.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

#: module stem -> the cheap runner the smoke executes (one round, no
#: pytest-benchmark timing).  Adding a bench module without registering
#: a smoke runner here fails test_smoke_map_covers_every_bench_module.
SMOKE_RUNNERS = {
    "bench_ablations": "test_ablation_minimization",
    "bench_analysis": "test_analysis_full_tree_speed",
    "bench_async_serving": "test_async_round_trip_speed",
    "bench_columnar": "test_columnar_twig_speedup",
    "bench_e1_examples_to_convergence": "test_e1_single_learning_step_speed",
    "bench_e2_xpathmark_coverage": "test_e2_learning_one_suite_query_speed",
    "bench_e3_schema_optimization": "test_e3_pruning_speed",
    "bench_e4_dms_containment": "test_e4_single_check_speed",
    "bench_e5_schema_query_analysis": "test_e5_satisfiability_speed",
    "bench_e6_consistency_gap": "test_e6_join_consistency_speed",
    "bench_e7_interactive_join": "test_e7_session_speed",
    "bench_e8_interactive_paths": "test_e8_session_speed",
    "bench_e9_figure1_scenarios": "test_e9_scenario1_speed",
    "bench_e10_twig_consistency": "test_e10_consistency_speed",
    "bench_engine_cache": "test_engine_rpq_cache_speedup",
    "bench_ext_extensions": "test_ext_union_consistency_trivial_speed",
    "bench_mutation_rounds": "test_prefetch_hit_rate",
    "bench_remote_session": "test_local_backend_session_speed",
    "bench_resilience": "test_retry_wrapper_overhead",
    "bench_serving_shards": "test_serving_rpq_batch_parity",
}


class _StubBenchmark:
    """A pytest-benchmark stand-in that runs the target exactly once."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, rounds=1,
                 iterations=1, **_ignored):
        return target(*args, **(kwargs or {}))


def _bench_modules() -> list[str]:
    return sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))


def test_every_bench_module_imports_and_exposes_a_runner():
    modules = _bench_modules()
    assert modules, f"no bench modules found under {BENCH_DIR}"
    for stem in modules:
        module = importlib.import_module(f"benchmarks.{stem}")
        runners = [name for name, value in vars(module).items()
                   if name.startswith("test_") and inspect.isfunction(value)]
        assert runners, f"benchmarks/{stem}.py exposes no test_* runner"


def test_smoke_map_covers_every_bench_module():
    assert set(SMOKE_RUNNERS) == set(_bench_modules()), (
        "SMOKE_RUNNERS out of sync with benchmarks/bench_*.py — register "
        "a cheap runner for every bench module")


@pytest.mark.slow
@pytest.mark.parametrize("stem", sorted(SMOKE_RUNNERS))
def test_bench_smoke_one_tiny_round(stem):
    module = importlib.import_module(f"benchmarks.{stem}")
    runner = getattr(module, SMOKE_RUNNERS[stem])
    signature = inspect.signature(runner)
    assert list(signature.parameters) == ["benchmark"], (
        f"{stem}.{SMOKE_RUNNERS[stem]} must take only the benchmark "
        "fixture so the smoke can drive it")
    runner(_StubBenchmark())
