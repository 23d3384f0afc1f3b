"""Process-pool experiment executor.

:func:`run_experiments` renders the consolidated report from the
per-experiment sections of :mod:`repro.experiments.report`.  It
partitions the selected experiment ids into *standalone* drivers
(fig1/fig2/fig13, table2/5/6/7 — they build their own CDN vantage or
need no data at all) and *scenario* consumers (everything analyzing the
shared telescope run), obtains the scenario result once (from the
on-disk cache when one is configured), and renders the sections in
order — or, with ``jobs > 1``, fans them out over a
``ProcessPoolExecutor``.

Determinism contract
--------------------
The combined report is **byte-identical for every ``jobs`` value**:

* sections are assembled in the requested id order, never completion
  order;
* workers receive a frozen, picklable copy of the one shared scenario
  result — the same arrays the serial path analyzes;
* every random draw inside a driver is seeded from the experiment
  configuration (fixed per-driver seeds), never from worker identity or
  scheduling, so where a section runs cannot change its bytes.

Telemetry from worker processes is not lost: each worker installs its own
:class:`MetricsRegistry`/:class:`Tracer` when the parent has them enabled
and ships a snapshot back; the parent folds the snapshots in via
:meth:`MetricsRegistry.merge` and re-parents the worker spans under one
``executor`` root span (:meth:`Tracer.adopt`).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

from repro.exec.freeze import freeze_result
from repro.obs import MetricsRegistry, Tracer, get_registry, get_tracer
from repro.sim.runner import ScenarioResult, run_scenario

# repro.experiments is imported inside functions throughout this module:
# its jobs-aware drivers import repro.exec.parallel, so a module-scope
# import here would close an import cycle through the package __init__s.


class UnknownExperimentError(KeyError):
    """Raised for experiment ids that are not in the registry."""

    def __init__(self, unknown: list[str]):
        from repro.experiments import EXPERIMENTS

        self.unknown = list(unknown)
        super().__init__(
            f"unknown experiment id(s): {', '.join(self.unknown)} "
            f"(known: {', '.join(sorted(EXPERIMENTS))}, or 'all')"
        )

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0]


def resolve_ids(ids) -> list[str]:
    """Expand ``'all'``/None and validate against the registry."""
    from repro.experiments import EXPERIMENTS

    ids = list(EXPERIMENTS) if ids in (None, ["all"], "all") else list(ids)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise UnknownExperimentError(unknown)
    return ids


def partition_ids(ids) -> tuple[list[str], list[str]]:
    """Split ids into (standalone, scenario-consuming), id order kept."""
    from repro.experiments import EXPERIMENTS

    standalone = [i for i in ids if not EXPERIMENTS[i][1]]
    scenario = [i for i in ids if EXPERIMENTS[i][1]]
    return standalone, scenario


@dataclass
class _SectionOutcome:
    """What one worker ships back for one experiment section."""

    experiment_id: str
    text: str
    metrics: dict | None = None
    spans: list = field(default_factory=list)


def _render_in_worker(
    experiment_id: str,
    frozen_result: ScenarioResult | None,
    want_metrics: bool,
    want_trace: bool,
    jobs: int = 1,
) -> _SectionOutcome:
    """Worker entry point: render one section under fresh obs layers.

    Module-level (picklable) and self-contained: the worker installs its
    own registry/tracer scoped to this one section, so concurrent workers
    never share mutable telemetry state, and returns plain picklable data.
    """
    from repro.experiments.report import render_section
    from repro.obs import use_registry, use_tracer

    registry = MetricsRegistry() if want_metrics else None
    tracer = Tracer() if want_trace else None
    with use_registry(registry), use_tracer(tracer):
        text = render_section(experiment_id, frozen_result, jobs=jobs)
    return _SectionOutcome(
        experiment_id=experiment_id,
        text=text,
        metrics=registry.snapshot() if registry else None,
        spans=tracer.export_spans() if tracer else [],
    )


def run_experiments(
    ids=None,
    config=None,
    jobs: int = 1,
    cache_dir=None,
    output_path=None,
    result: ScenarioResult | None = None,
) -> str:
    """Run the selected experiments, ``jobs`` sections at a time.

    ``config`` parameterizes the shared scenario run when any selected
    experiment consumes one (ignored when ``result`` is passed in);
    ``cache_dir`` routes that run through the
    :class:`~repro.exec.cache.ScenarioCache`.  Returns the combined
    report; with ``output_path`` also writes it.
    """
    from repro.experiments import EXPERIMENTS
    from repro.experiments.report import render_header, render_section

    ids = resolve_ids(ids)
    standalone, scenario_ids = partition_ids(ids)
    registry = get_registry()
    tracer = get_tracer()

    if scenario_ids and result is None:
        result = run_scenario(config, cache_dir=cache_dir)

    sections: dict[str, str] = {}
    if jobs <= 1:
        for experiment_id in ids:
            sections[experiment_id] = render_section(
                experiment_id,
                result if EXPERIMENTS[experiment_id][1] else None,
            )
    else:
        # A single selected section cannot fan out across experiments:
        # hand the whole budget to the driver instead (table4/fig7/fig8/
        # fig10 parallelize their independent estimations internally).
        inner_jobs = jobs if len(ids) == 1 else 1
        frozen = freeze_result(result) if scenario_ids else None
        # Standalone drivers first: they need no scenario payload, so
        # their submissions are cheapest and fill workers while the
        # (larger) frozen-result pickles stream out.
        order = [*standalone, *scenario_ids]
        with tracer.span("executor", jobs=jobs, sections=len(ids)) as root, \
                ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = {
                pool.submit(
                    _render_in_worker,
                    experiment_id,
                    frozen if EXPERIMENTS[experiment_id][1] else None,
                    registry.enabled,
                    tracer.enabled,
                    inner_jobs,
                ): experiment_id
                for experiment_id in order
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    outcome = future.result()
                    sections[outcome.experiment_id] = outcome.text
                    if outcome.metrics is not None:
                        registry.merge(outcome.metrics)
                    if outcome.spans:
                        tracer.adopt(outcome.spans, parent=root)

    header = render_header(result)
    report = header + "".join(sections[experiment_id] for experiment_id in ids)
    if output_path is not None:
        with open(output_path, "w") as stream:
            stream.write(report)
    return report
