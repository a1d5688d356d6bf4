"""Monte Carlo experiment driver: simulate, fit every model, tally selections.

A run is described by an :class:`ExperimentConfig` (JSON schema
``hfsem-exp-v1``).  For every grid size and replication the driver draws a
fresh path with a seed split deterministically from the master seed, fits
each candidate model, evaluates the criteria, and tallies the per-criterion
winners into a :class:`SelectionTable`.  Replications are independent, so
they may run on a worker pool; results merge in replication order and the
table is identical for any worker count.

Initialization follows the benchmark protocol by default: each model starts
from its limit-criterion optimum against the truth's covariance (the true
parameter point for correctly specified models).  ``init_mode="moment"``
switches to data-driven moment starts with Latin-hypercube restarts drawn
on the moment start's scale.

The truth's covariance comes from :func:`truth_sigma`, which writes the
truth as an all-fixed :class:`SemSpec`, so Sigma0 and every candidate's
implied covariance share one formula.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import diffsim, models
from .errors import (AllStartsFailedError, NotPositiveDefiniteError,
                     SingularStructureError, SpecError)
from .infocrit import CRITERIA, criteria_row, select
from .qlik import LikelihoodSurface, quad_var
from .qmle import FitOptions, fit, fit_multistart, limit_optimum
from .semspec import PatternMatrix, SemSpec

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
]

logger = logging.getLogger(__name__)

CONFIG_SCHEMA = "hfsem-exp-v1"

REPLICATION_COLUMNS = ("rep", "n", "model", "h_at_hat", "qbic1", "qbic2",
                       "qaic", "j_flag", "converged", "boundary_hit",
                       "iterations", "grad_norm", "selected_by")


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
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError("every grid size must be at least 2")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if not self.criteria:
            raise ValueError("need at least one criterion")
        unknown = set(self.criteria) - set(CRITERIA)
        if unknown:
            raise ValueError(f"unknown criteria {sorted(unknown)}")
        if self.init_mode not in ("true", "moment"):
            raise ValueError("init_mode must be 'true' or 'moment'")
        if self.starts < 1 or self.workers < 1:
            raise ValueError("starts and workers must be at least 1")
        if not self.model_spec_paths:
            raise ValueError("need at least one model spec")

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "n_values": list(self.n_values),
            "T": self.T,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "model_spec_paths": list(self.model_spec_paths),
            "criteria": list(self.criteria),
            "starts": self.starts,
            "true_model": self.true_model,
            "init_mode": self.init_mode,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if doc.get("schema") != CONFIG_SCHEMA:
            raise ValueError(f"unsupported schema {doc.get('schema')!r}")
        required = ("n_values", "T", "replications", "master_seed",
                    "model_spec_paths")
        missing = [k for k in required if k not in doc]
        if missing:
            raise ValueError(f"config is missing required keys {missing}")
        kwargs = {k: doc[k] for k in required}
        for key in ("criteria", "starts", "true_model", "init_mode", "workers"):
            if key in doc:
                kwargs[key] = doc[key]
        config = cls(**kwargs)
        config.validate()
        return config

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


@dataclass
class SelectionTable:
    criteria: list[str]
    n_values: list[int]
    model_ids: list[str]
    counts: dict                      # (criterion, n) -> {model_id: count}
    failures: dict                    # n -> failed replications
    replications: int
    runtime_seconds: float = 0.0

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


# -- truth handling ------------------------------------------------------------

def _truth_blocks(true_model: Union[str, dict]) -> dict:
    if isinstance(true_model, str):
        if true_model != diffsim.TRUE_MODEL_NAME:
            raise ValueError(f"unknown true model {true_model!r}")
        return diffsim.true_blocks()
    tm = dict(true_model)
    blocks = {}
    for key in ("xi", "delta", "eps", "zeta"):
        spec = tm[key]
        level = np.atleast_1d(np.asarray(spec["level"], dtype=float))
        blocks[key] = diffsim.OuBlock(
            dim=level.size,
            mean_reversion=spec["mean_reversion"],
            level=level,
            dispersion=spec["dispersion"],
            init=spec.get("init", np.zeros(level.size)))
    blocks["lambda_x1"] = np.atleast_2d(np.asarray(tm["lambda_x1"], float))
    blocks["lambda_x2"] = np.atleast_2d(np.asarray(tm["lambda_x2"], float))
    blocks["gamma"] = np.atleast_2d(np.asarray(tm["gamma"], float))
    k2 = blocks["lambda_x2"].shape[1]
    blocks["b0"] = np.atleast_2d(np.asarray(tm.get("b0", np.zeros((k2, k2))), float))
    return blocks


def _simulate_truth(blocks: dict, n: int, T: float, seed: int):
    return diffsim.simulate_custom(
        blocks["xi"], blocks["delta"], blocks["eps"], blocks["zeta"],
        blocks["lambda_x1"], blocks["lambda_x2"], blocks["gamma"],
        blocks["b0"], n=n, T=T, seed=seed, keep_latents=False)


def _sigma_of_blocks(blocks: dict) -> np.ndarray:
    """Sigma0 of parsed truth blocks: the truth written as an all-fixed
    SemSpec (q = 0), so the one implied-covariance formula computes it."""
    l1, l2 = blocks["lambda_x1"], blocks["lambda_x2"]
    dims = {"p1": l1.shape[0], "p2": l2.shape[0],
            "k1": l1.shape[1], "k2": l2.shape[1]}
    values = {"lambda_x1": l1, "lambda_x2": l2, "b": blocks["b0"],
              "gamma": blocks["gamma"],
              "sigma_xixi": blocks["xi"].noise_cov,
              "sigma_dd": blocks["delta"].noise_cov,
              "sigma_ee": blocks["eps"].noise_cov,
              "sigma_zz": blocks["zeta"].noise_cov}
    patterns = {role: PatternMatrix.fixed(v) for role, v in values.items()}
    spec = SemSpec(dims, patterns, lower=[], upper=[], name="truth")
    return spec.sigma(np.empty(0))


def truth_sigma(true_model: Union[str, dict]) -> np.ndarray:
    """Diffusion covariance Sigma0 of the observed process under a truth."""
    return _sigma_of_blocks(_truth_blocks(true_model))


# -- spec loading --------------------------------------------------------------

def _reference_rank_ok(spec: SemSpec, seed: int = 0, draws: int = 3) -> bool:
    """Generic-point rank screen for a loaded spec.

    The Jacobian rank is constant off a null set, so full rank at any of a
    few random interior points certifies the spec; a structurally redundant
    parameterization fails at every point.
    """
    from . import matkit
    from .semspec import _probe_start

    rng = np.random.default_rng(seed)
    for _ in range(draws):
        theta = _probe_start(spec, rng)
        try:
            if matkit.numeric_rank(spec.jacobian(theta)) == spec.q:
                return True
        except (NotPositiveDefiniteError, SingularStructureError):
            continue
    return False


def load_specs(paths: Sequence[str]) -> list[SemSpec]:
    specs = [models.resolve_spec(p) for p in paths]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SpecError(f"duplicate model names in {names}")
    for spec in specs:
        if not _reference_rank_ok(spec):
            raise SpecError(
                f"model {spec.name!r} fails the identifiability rank screen")
    return specs


def _check_grid(n_values: Sequence[int], specs: Sequence[SemSpec]) -> None:
    """Reject grid sizes below a model's observed dimension: with n < p
    increments Q is singular and the fit runs off to the box."""
    for spec in specs:
        for n in n_values:
            if n < spec.p:
                raise ValueError(
                    f"grid size n={n} is below p={spec.p}, the observed "
                    f"dimension of {spec.name!r}")


# -- per-replication work ------------------------------------------------------

_FIT_ERRORS = (AllStartsFailedError, NotPositiveDefiniteError,
               SingularStructureError)


def _fit_one(spec: SemSpec, qv, init, starts: int, seed: int,
             options: FitOptions):
    surface = LikelihoodSurface(spec, qv)
    if init is not None:
        report = fit(surface, init=init, options=options)
    else:
        report = fit_multistart(surface, starts=starts, seed=seed, options=options)
    return report, criteria_row(report)


def _rep_worker(task: dict) -> dict:
    n, rep = task["n"], task["rep"]
    bundle = _simulate_truth(task["truth"], n, task["T"], task["seed"])
    qv = quad_var(bundle.x_obs, task["T"])
    options = FitOptions()

    fits: list[Optional[tuple]] = []
    failed = False
    for spec, init in zip(task["specs"], task["inits"]):
        try:
            fits.append(_fit_one(spec, qv, init, task["starts"],
                                 task["start_seed"], options))
        except _FIT_ERRORS as exc:
            logger.warning("rep %d n=%d: fit of %s failed: %s",
                           rep, n, spec.name, exc)
            fits.append(None)
            failed = True

    selected: dict[str, str] = {}
    if not failed:
        rows = [row for _, row in fits]
        for criterion in task["criteria"]:
            selected[criterion] = select(rows, criterion)

    records = []
    for spec, entry in zip(task["specs"], fits):
        name = spec.name
        if entry is None:
            records.append({**dict.fromkeys(REPLICATION_COLUMNS, ""),
                            "rep": rep, "n": n, "model": name,
                            "selected_by": "fit_failed"})
            continue
        report, row = entry
        winner_of = [c for c in task["criteria"] if selected.get(c) == name]
        records.append({"rep": rep, "n": n, "model": name,
                        "h_at_hat": row.h_at_hat, "qbic1": row.qbic1,
                        "qbic2": row.qbic2, "qaic": row.qaic,
                        "j_flag": row.j_flag, "converged": report.converged,
                        "boundary_hit": report.boundary_hit,
                        "iterations": report.iterations,
                        "grad_norm": report.grad_norm,
                        "selected_by": "+".join(winner_of)})
    return {"n": n, "rep": rep, "failed": failed, "selected": selected,
            "records": records}


def run_experiment(config: ExperimentConfig):
    """Run the full study; returns ``(SelectionTable, replication records)``.

    Deterministic given the master seed regardless of worker count: each
    replication's seed is split from (master_seed, n, rep) and results are
    merged in task order.
    """
    config.validate()
    t0 = time.time()
    specs = load_specs(config.model_spec_paths)
    _check_grid(config.n_values, specs)
    model_ids = [s.name for s in specs]
    truth = _truth_blocks(config.true_model)

    inits: list[Optional[np.ndarray]] = [None] * len(specs)
    if config.init_mode == "true":
        sigma0 = _sigma_of_blocks(truth)
        for k, spec in enumerate(specs):
            theta_bar, _ = limit_optimum(spec, sigma0,
                                         starts=max(config.starts, 4),
                                         seed=config.master_seed)
            inits[k] = theta_bar
            logger.info("limit optimum for %s ready", spec.name)

    tasks = []
    for n in config.n_values:
        for rep in range(config.replications):
            tasks.append({
                "n": int(n), "rep": rep, "T": config.T,
                "seed": split_seed(config.master_seed, n, rep),
                "start_seed": split_seed(config.master_seed, n, rep, tag=1),
                "specs": specs,
                "inits": inits,
                "starts": config.starts,
                "criteria": list(config.criteria),
                "truth": truth,
            })

    if config.workers > 1:
        with multiprocessing.Pool(config.workers) as pool:
            results = pool.map(_rep_worker, tasks)
    else:
        results = [_rep_worker(t) for t in tasks]

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
                           replications=config.replications,
                           runtime_seconds=time.time() - t0)
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
    level is twice the difference of the limit-criterion values.
    """
    config.validate()
    spec_a = models.resolve_spec(model_a)
    spec_b = models.resolve_spec(model_b)
    _check_grid(config.n_values, (spec_a, spec_b))
    truth = _truth_blocks(config.true_model)
    sigma0 = _sigma_of_blocks(truth)

    theta_a, lim_a = limit_optimum(spec_a, sigma0, starts=max(config.starts, 4),
                                   seed=config.master_seed)
    theta_b, lim_b = limit_optimum(spec_b, sigma0, starts=max(config.starts, 4),
                                   seed=config.master_seed)
    fit_gap = np.linalg.norm(spec_a.sigma(theta_a) - sigma0) / np.linalg.norm(sigma0)
    if fit_gap > 1e-6:
        raise ValueError(
            f"{model_a!r} is not correctly specified for this truth "
            f"(relative covariance gap {fit_gap:.2e})")
    analytic = 2.0 * (lim_a - lim_b)

    options = FitOptions()
    diffs: dict[int, list[float]] = {int(n): [] for n in config.n_values}
    for n in config.n_values:
        for rep in range(config.replications):
            seed = split_seed(config.master_seed, n, rep)
            bundle = _simulate_truth(truth, n, config.T, seed)
            qv = quad_var(bundle.x_obs, config.T)
            row_a = criteria_row(fit(LikelihoodSurface(spec_a, qv),
                                     init=theta_a, options=options))
            row_b = criteria_row(fit(LikelihoodSurface(spec_b, qv),
                                     init=theta_b, options=options))
            diffs[int(n)].append(
                (row_b.value(criterion) - row_a.value(criterion)) / n)

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
