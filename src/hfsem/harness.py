"""Monte Carlo experiment driver: simulate, fit every model, tally selections.

A run is described by an :class:`ExperimentConfig` (JSON schema
``hfsem-exp-v1``).  For every grid size and replication the driver draws a
fresh path with a seed split deterministically from the master seed, fits
each candidate model, evaluates the criteria, and tallies the per-criterion
winners into a :class:`SelectionTable`.  Replications run in contiguous
chunks, the unit of work of a worker pool: each replication's path is
reduced to its realized covariation, then each model is fitted to every
replication of the chunk as the lanes of one lockstep loop
(``qmle.fit_lanes``).  A lane's fit does not depend on the others, so the
records and the table are identical for any worker count and chunking;
results merge in replication order.

Initialization follows the benchmark protocol by default: each model starts
from its limit-criterion optimum against the truth's covariance (the true
parameter point for correctly specified models).  ``init_mode="moment"``
switches to data-driven moment starts with Latin-hypercube restarts drawn
on the moment start's scale.

The config's ``true_model`` is read and checked by ``diffsim.load_truth``,
the one reader of truths; :func:`truth_sigma` is its covariance Sigma0.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional, Sequence, Union

import numpy as np

from . import _doc, diffsim, models
from .errors import AllStartsFailedError, SpecError
from .infocrit import CRITERIA, criteria_row, select
from .qlik import LikelihoodSurface, quad_var
from .qmle import fit, fit_lanes, fit_multistart, limit_optimum, start_set
from .semspec import SemSpec, rank_screen

__all__ = [
    "ExperimentConfig",
    "SelectionTable",
    "GapProbeResult",
    "run_experiment",
    "gap_growth_probe",
    "render_table",
    "write_outputs",
    "split_seed",
    "truth_sigma",
    # The fit entries, where a benchmark hook looks them up; the chunk
    # stage itself fits through fit_lanes.
    "fit",
    "fit_multistart",
]

logger = logging.getLogger(__name__)

CONFIG_SCHEMA = "hfsem-exp-v1"

REPLICATION_COLUMNS = ("rep", "n", "model", "h_at_hat", "qbic1", "qbic2",
                       "qaic", "j_flag", "converged", "boundary_hit",
                       "iterations", "evaluations", "grad_norm", "selected_by")


def split_seed(master_seed: int, n: int, rep: int, tag: int = 0) -> int:
    """Deterministic 64-bit child seed for one replication."""
    ss = np.random.SeedSequence((int(master_seed), int(n), int(rep), int(tag)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentConfig:
    n_values: list[int]
    T: float
    replications: int
    master_seed: int
    model_spec_paths: list[str]
    criteria: list[str] = field(default_factory=lambda: list(CRITERIA))
    starts: int = 8
    true_model: Union[str, dict] = diffsim.TRUE_MODEL_NAME
    init_mode: str = "true"          # "true" | "moment"
    workers: int = 1

    def validate(self) -> None:
        _doc.integer(self.replications, "replications", 1)
        _doc.integer(self.master_seed, "master_seed", 0)
        _doc.items(self.n_values, "n_values", _doc.integer, 2)
        if not (math.isfinite(_doc.number(self.T, "T")) and self.T > 0):
            raise ValueError(f"T must be a positive finite horizon, got {self.T!r}")
        unknown = set(_doc.items(self.criteria, "criteria", _doc.text)) - set(CRITERIA)
        if unknown:
            raise ValueError(f"unknown criteria {sorted(unknown)}")
        for key, values in (("n_values", self.n_values), ("criteria", self.criteria)):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat an entry, got {values!r}")
        if self.init_mode not in ("true", "moment"):
            raise ValueError("init_mode must be 'true' or 'moment'")
        _doc.integer(self.starts, "starts", 1)
        _doc.integer(self.workers, "workers", 1)
        _doc.items(self.model_spec_paths, "model_spec_paths", _doc.text)
        diffsim.load_truth(self.true_model)

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, **asdict(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _doc.fields(doc, "config", [f.name for f in fields(cls)
                                    if f.default is MISSING
                                    and f.default_factory is MISSING],
                    [f.name for f in fields(cls)], schema=CONFIG_SCHEMA)
        config = cls(**{k: v for k, v in doc.items() if k != "schema"})
        config.validate()
        return config

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(_doc.read_json(path))

    def to_json(self, path) -> None:
        _doc.write_json(self.to_dict(), path)


@dataclass
class SelectionTable:
    criteria: list[str]
    n_values: list[int]
    model_ids: list[str]
    counts: dict                      # (criterion, n) -> {model_id: count}
    failures: dict                    # n -> failed replications
    replications: int

    def share(self, criterion: str, n: int, model_id: str) -> float:
        good = self.replications - self.failures.get(n, 0)
        if good <= 0:
            return float("nan")
        return self.counts[(criterion, n)].get(model_id, 0) / good

    def validate(self) -> None:
        """Counts conservation: selections + failures = replications."""
        for criterion in self.criteria:
            for n in self.n_values:
                total = sum(self.counts[(criterion, n)].values())
                if total + self.failures.get(n, 0) != self.replications:
                    raise AssertionError(
                        f"count leak at criterion={criterion}, n={n}: "
                        f"{total} selections + {self.failures.get(n, 0)} failures "
                        f"!= {self.replications} replications")


def truth_sigma(true_model: Union[str, dict]) -> np.ndarray:
    """Diffusion covariance Sigma0 of the observed process under a truth."""
    return diffsim.implied_sigma(diffsim.load_truth(true_model))


# -- spec loading --------------------------------------------------------------

def load_specs(paths: Sequence[str]) -> list[SemSpec]:
    specs = [models.resolve_spec(p) for p in paths]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SpecError(f"duplicate model names in {names}")
    for spec in specs:
        if not rank_screen(spec):
            raise SpecError(
                f"model {spec.name!r} fails the identifiability rank screen")
    return specs


def _load_study(config: ExperimentConfig,
                paths: Sequence[str]) -> tuple[list[SemSpec], dict]:
    """The specs at ``paths`` and the config's truth, each spec checked
    against the series the truth observes (the factor dimensions may
    differ: candidates vary them) and against the grid: with n < p
    increments Q is singular and the fit runs off to the box."""
    specs = load_specs(paths)
    truth = diffsim.load_truth(config.true_model)
    p = truth["lambda_x1"].shape[0] + truth["lambda_x2"].shape[0]
    for spec in specs:
        if spec.p != p:
            raise ValueError(f"model {spec.name!r} observes p={spec.p} "
                             f"series, but true_model observes p={p}")
        for n in config.n_values:
            if n < spec.p:
                raise ValueError(
                    f"grid size n={n} is below p={spec.p}, the observed "
                    f"dimension of {spec.name!r}")
    return specs, truth


# -- replication chunks --------------------------------------------------------

# Replications per chunk: the unit of work handed to a worker, and the
# lanes of each spec's lockstep fit.  Chosen by measurement on the desk
# study: 16 was as fast per replication as 32 or 64 and faster than 4 or
# 8, while peak memory grows with the chunk.
_CHUNK = 16


def _realized(chunk: dict, rep: dict):
    """One replication's path, reduced to its realized covariation."""
    # Through the module attribute, where a benchmark hook can patch it.
    bundle = diffsim.simulate_custom(**chunk["truth"], n=rep["n"], T=chunk["T"],
                                     seed=rep["seed"], keep_latents=False,
                                     transitions=rep["transitions"])
    return quad_var(bundle.x_obs, chunk["T"])


def _fit_chunk(spec: SemSpec, init: Optional[np.ndarray], qvs: list,
               chunk: dict) -> list:
    """One spec fitted to every replication of a chunk in one lockstep
    loop: from ``init``, or from each replication's multistart set."""
    surfaces = [LikelihoodSurface(spec, qv) for qv in qvs]
    if init is not None:
        start_sets = [[init]] * len(surfaces)
    else:
        start_sets = [start_set(surface, chunk["starts"], rep["start_seed"])
                      for surface, rep in zip(surfaces, chunk["reps"])]
    return fit_lanes(surfaces, start_sets)


def _chunk_worker(chunk: dict) -> list[dict]:
    """A chunk of replications: each path reduced to Q, then each spec
    fitted to all of the chunk's Q at once, then each replication's
    criteria, selections and records."""
    qvs = [_realized(chunk, rep) for rep in chunk["reps"]]
    fits = [_fit_chunk(spec, init, qvs, chunk)
            for spec, init in zip(chunk["specs"], chunk["inits"])]
    return [_rep_result(chunk, rep, [reports[i] for reports in fits])
            for i, rep in enumerate(chunk["reps"])]


def _rep_result(chunk: dict, rep: dict, reports: list) -> dict:
    """One replication's selections and records from its fit reports
    (``None`` for a failed fit)."""
    n, index = rep["n"], rep["rep"]
    criteria = chunk["criteria"]
    failed = any(report is None for report in reports)
    rows = [None if report is None else criteria_row(report)
            for report in reports]
    selected: dict[str, str] = {}
    if not failed:
        for criterion in criteria:
            selected[criterion] = select(rows, criterion)

    records = []
    for spec, report, row in zip(chunk["specs"], reports, rows):
        name = spec.name
        if report is None:
            logger.warning("rep %d n=%d: every start of %s failed",
                           index, n, name)
            records.append({**dict.fromkeys(REPLICATION_COLUMNS, ""),
                            "rep": index, "n": n, "model": name,
                            "selected_by": "fit_failed"})
            continue
        winner_of = [c for c in criteria if selected.get(c) == name]
        records.append({"rep": index, "n": n, "model": name,
                        "h_at_hat": row.h_at_hat, "qbic1": row.qbic1,
                        "qbic2": row.qbic2, "qaic": row.qaic,
                        "j_flag": row.j_flag, "converged": report.converged,
                        "boundary_hit": report.boundary_hit,
                        "iterations": report.iterations,
                        "evaluations": report.evaluations,
                        "grad_norm": report.grad_norm,
                        "selected_by": "+".join(winner_of)})
    return {"n": n, "rep": index, "failed": failed, "selected": selected,
            "records": records}


def _limit_optima(specs: Sequence[SemSpec], sigma0: np.ndarray,
                  config: ExperimentConfig) -> list[tuple[np.ndarray, float]]:
    return [limit_optimum(spec, sigma0, starts=max(config.starts, 4),
                          seed=config.master_seed) for spec in specs]


def _replicate(config: ExperimentConfig, specs: Sequence[SemSpec],
               inits: Sequence[Optional[np.ndarray]], truth: dict) -> list[dict]:
    """Each (n, rep) replication's result, in task order at any worker count
    and any chunking: contiguous chunks of ``_CHUNK`` replications go to
    the workers, and a replication's fits do not depend on its chunk.  The
    truth's block transitions are built once per n, for all its
    replications."""
    reps = []
    for n in config.n_values:
        transitions = diffsim.grid_transitions(truth, int(n), config.T)
        reps += [{"n": int(n), "rep": rep, "transitions": transitions,
                  "seed": split_seed(config.master_seed, n, rep),
                  "start_seed": split_seed(config.master_seed, n, rep, tag=1)}
                 for rep in range(config.replications)]
    chunks = [{"reps": reps[i:i + _CHUNK], "T": config.T, "truth": truth,
               "specs": specs, "inits": inits, "starts": config.starts,
               "criteria": list(config.criteria)}
              for i in range(0, len(reps), _CHUNK)]
    if config.workers > 1:
        with multiprocessing.Pool(config.workers) as pool:
            results = pool.map(_chunk_worker, chunks)
    else:
        results = [_chunk_worker(chunk) for chunk in chunks]
    return [result for chunk in results for result in chunk]


def run_experiment(config: ExperimentConfig):
    """Run the full study; returns ``(SelectionTable, replication records)``.

    Deterministic given the master seed regardless of worker count: each
    replication's seed is split from (master_seed, n, rep) and results are
    merged in task order.
    """
    config.validate()
    specs, truth = _load_study(config, config.model_spec_paths)
    model_ids = [s.name for s in specs]

    inits: list[Optional[np.ndarray]] = [None] * len(specs)
    if config.init_mode == "true":
        optima = _limit_optima(specs, diffsim.implied_sigma(truth), config)
        inits = [theta_bar for theta_bar, _ in optima]
    results = _replicate(config, specs, inits, truth)

    counts = {(c, n): {m: 0 for m in model_ids}
              for c in config.criteria for n in config.n_values}
    failures = {n: 0 for n in config.n_values}
    records = []
    for res in results:
        records.extend(res["records"])
        if res["failed"]:
            failures[res["n"]] += 1
            continue
        for criterion, winner in res["selected"].items():
            counts[(criterion, res["n"])][winner] += 1

    table = SelectionTable(criteria=list(config.criteria),
                           n_values=[int(n) for n in config.n_values],
                           model_ids=model_ids, counts=counts,
                           failures=failures,
                           replications=config.replications)
    table.validate()
    return table, records


# -- misspecification gap probe -------------------------------------------------

@dataclass
class GapProbeResult:
    """Scaled criterion gap between a misspecified and a correct model."""
    criterion: str
    level: float                  # mean of (crit_b - crit_a)/n over all runs
    analytic_level: float         # twice the limit-criterion gap
    per_n: dict
    n_values: list[int]
    replications: int
    limit_value_a: float
    limit_value_b: float

    @property
    def relative_error(self) -> float:
        if self.analytic_level == 0.0:
            return abs(self.level)
        return abs(self.level - self.analytic_level) / abs(self.analytic_level)


def gap_growth_probe(config: ExperimentConfig, model_a: str, model_b: str,
                     criterion: str = "qbic1") -> GapProbeResult:
    """Estimate the per-observation criterion gap of ``model_b`` over
    ``model_a`` and compare it with the analytic limit.

    ``model_a`` must be correctly specified for the configured truth (its
    limit optimum must reproduce the truth's covariance); the analytic
    level is twice the difference of the limit-criterion values.  The specs
    come from :func:`load_specs`, so a model probed against itself raises
    :class:`SpecError`.  Both models are fitted from their limit optima on
    :func:`run_experiment`'s replications; a failed fit raises
    :class:`AllStartsFailedError`.
    """
    config.validate()
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    specs, truth = _load_study(config, [model_a, model_b])
    sigma0 = diffsim.implied_sigma(truth)

    (theta_a, lim_a), (theta_b, lim_b) = _limit_optima(specs, sigma0, config)
    fit_gap = np.linalg.norm(specs[0].sigma(theta_a) - sigma0) / np.linalg.norm(sigma0)
    if fit_gap > 1e-6:
        raise ValueError(
            f"{model_a!r} is not correctly specified for this truth "
            f"(relative covariance gap {fit_gap:.2e})")
    analytic = 2.0 * (lim_a - lim_b)

    diffs: dict[int, list[float]] = {int(n): [] for n in config.n_values}
    for res in _replicate(config, specs, [theta_a, theta_b], truth):
        if res["failed"]:
            raise AllStartsFailedError(
                f"a fit failed at n={res['n']}, rep {res['rep']}")
        rec_a, rec_b = res["records"]
        diffs[res["n"]].append((rec_b[criterion] - rec_a[criterion]) / res["n"])

    all_diffs = [d for vals in diffs.values() for d in vals]
    return GapProbeResult(
        criterion=criterion,
        level=float(np.mean(all_diffs)),
        analytic_level=float(analytic),
        per_n={n: float(np.mean(v)) for n, v in diffs.items()},
        n_values=[int(n) for n in config.n_values],
        replications=config.replications,
        limit_value_a=float(lim_a), limit_value_b=float(lim_b))


# -- rendering -----------------------------------------------------------------

def render_table(table: SelectionTable, fmt: str = "text") -> str:
    """Render the selection counts; 'text' mirrors the benchmark layout
    (criterion rows by model columns per grid size), 'csv' is long-form."""
    if fmt == "csv":
        lines = ["criterion,n,model_id,count,share"]
        for criterion in table.criteria:
            for n in table.n_values:
                for model_id in table.model_ids:
                    count = table.counts[(criterion, n)].get(model_id, 0)
                    share = table.share(criterion, n, model_id)
                    lines.append(f"{criterion},{n},{model_id},{count},{share:.6f}")
        return "\n".join(lines) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")

    width = max(8, *(len(m) for m in table.model_ids)) + 2
    out = [f"Selection counts ({table.replications} replications)"]
    for n in table.n_values:
        out.append("")
        header = f"n={n}".ljust(12)
        header += "".join(m.rjust(width) for m in table.model_ids)
        header += "failures".rjust(width)
        out.append(header)
        out.append("-" * len(header))
        for criterion in table.criteria:
            line = criterion.ljust(12)
            for model_id in table.model_ids:
                line += str(table.counts[(criterion, n)].get(model_id, 0)).rjust(width)
            line += str(table.failures.get(n, 0)).rjust(width)
            out.append(line)
    return "\n".join(out) + "\n"


def write_outputs(table: SelectionTable, records: list[dict], out_dir) -> dict:
    """Write table.txt, table.csv and replications.csv into ``out_dir``."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "table_txt": os.path.join(out_dir, "table.txt"),
        "table_csv": os.path.join(out_dir, "table.csv"),
        "replications_csv": os.path.join(out_dir, "replications.csv"),
    }
    with open(paths["table_txt"], "w") as fh:
        fh.write(render_table(table, "text"))
    with open(paths["table_csv"], "w") as fh:
        fh.write(render_table(table, "csv"))
    with open(paths["replications_csv"], "w") as fh:
        fh.write(",".join(REPLICATION_COLUMNS) + "\n")
        for record in records:
            fh.write(",".join(str(record[c]) for c in REPLICATION_COLUMNS) + "\n")
    return paths
