"""Healer comparisons over one shared adversarial trace.

Parameter sweeps are declarative: a :class:`repro.scenarios.sweep.SweepSpec`
expanded and executed by :func:`repro.scenarios.runner.run_scenarios`.  This
module holds :func:`compare_healers`, the shared-trace/shared-ghost-metrics
comparison harness, and :func:`healer_factory`, its registry shorthand.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, Sequence

from repro.core.healer import SelfHealer
from repro.harness.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_healer_on_trace,
)
from repro.perf.engine import MetricsEngine


def healer_factory(name: str, **kwargs) -> Callable[[], SelfHealer]:
    """Return a factory building the registered healer ``name`` with ``kwargs``.

    The registry lookup happens eagerly (typos fail here, with suggestions)
    and the class is captured by value — no late-binding trap when building
    factory lists in a loop.
    """
    from repro.scenarios.registry import HEALERS

    healer_cls = HEALERS.get(name)
    return lambda: healer_cls(**kwargs)


def compare_healers(
    base_config: ExperimentConfig,
    healers: Mapping[str, Callable[[], SelfHealer]] | Sequence[Callable[[], SelfHealer]],
) -> list[ExperimentResult]:
    """Replay one adversarial trace against several healers, apples-to-apples.

    The first healer runs live against ``base_config``'s adversary; every
    other healer replays the exact trace it produced through the same
    :func:`~repro.harness.experiment.run_experiment` loop (the standard
    comparison pattern of the examples and benchmarks).

    All runs share one full-ghost metrics cache: the ghost graph ``G'_t`` is
    a pure function of the insertion sequence, so replaying the same trace
    produces the identical ghost for every healer — its Theorem-2 reference
    metrics are computed once (by the first run) and served from cache for
    the rest instead of being recomputed per healer.
    """
    factories = list(healers.values()) if isinstance(healers, Mapping) else list(healers)
    if not factories:
        return []
    ghost_engine = MetricsEngine(
        exact_limit=base_config.exact_expansion_limit,
        stretch_sample_pairs=base_config.stretch_sample_pairs,
        seed=base_config.seed,
    )
    reference = run_experiment(
        replace(base_config, healer_factory=factories[0]), ghost_engine=ghost_engine
    )
    results = [reference]
    for factory in factories[1:]:
        results.append(
            run_healer_on_trace(
                factory(),
                base_config.initial_graph,
                reference.trace,
                kappa=base_config.kappa,
                exact_expansion_limit=base_config.exact_expansion_limit,
                stretch_sample_pairs=base_config.stretch_sample_pairs,
                seed=base_config.seed,
                ghost_engine=ghost_engine,
            )
        )
    return results
