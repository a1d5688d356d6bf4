"""Monte Carlo experiment driver: simulate, fit every model, tally selections.

A run is described by an :class:`ExperimentConfig` (JSON schema
``hfsem-exp-v1``), a frozen value checked when it is built.  For every
grid size and replication the driver draws a fresh path with a seed
split deterministically from the master seed, fits each candidate model
and evaluates the criteria.  A study's result is its records, one row
per replication and model, held as columns: one array per
``REPLICATION_COLUMNS`` entry (:class:`Records`).  The
:class:`SelectionTable` of per-criterion winners is counted from them.
Replications run in contiguous chunks, the unit of work of a worker pool:
the fewest chunks of at most ``_CHUNK`` replications whose count the
workers share evenly, so a study smaller than one chunk still keeps every
worker busy.  A chunk gets
the study's shared values and its (n, rep) tasks; it splits each task's
seeds where it uses them, reduces each path to its realized covariation,
one (R, p, p) Q stack, and fits each model to the stack as the lanes of
one lockstep loop (``qmle.fit_lanes``).  A lane's fit does not depend on
the others, so the records and the table are identical for any worker
count and chunking: each chunk returns its own columns, concatenated in
replication order.

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
import multiprocessing
import operator
import os
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from . import _doc, diffsim, models
from .errors import AllStartsFailedError, SpecError
from .infocrit import CRITERIA, criteria_row, select
from .qlik import quad_var
from .qmle import fit, fit_lanes, fit_multistart, limit_optimum, start_set
from .semspec import SemSpec, rank_screen

__all__ = [
    "ExperimentConfig",
    "SelectionTable",
    "Records",
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

# The columns of a study's records with the type of each row's cell;
# selected_by, one row per (n, rep), comes last.
_ROW_TYPES = {"rep": np.int64, "n": np.int64, "model": np.intp,
              "h_at_hat": float, "lr_sat": float,
              **dict.fromkeys(CRITERIA, float), "j_flag": bool,
              "converged": bool, "boundary_hit": bool,
              "iterations": np.int64, "evaluations": np.int64,
              "grad_norm": float}
REPLICATION_COLUMNS = (*_ROW_TYPES, "selected_by")


def split_seed(master_seed: int, n: int, rep: int, tag: int = 0) -> int:
    """Deterministic 64-bit child seed for one replication."""
    ss = np.random.SeedSequence((int(master_seed), int(n), int(rep), int(tag)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    n_values: list[int]
    T: float
    replications: int
    master_seed: int
    model_spec_paths: list[str]
    starts: int = 8
    true_model: Union[str, dict] = diffsim.TRUE_MODEL_NAME
    init_mode: str = "true"          # "true" | "moment"
    workers: int = 1

    def __post_init__(self):
        _doc.integer(self.replications, "replications", 1)
        _doc.integer(self.master_seed, "master_seed", 0)
        _doc.items(self.n_values, "n_values", _doc.integer, 2)
        _doc.horizon(self.T)
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError(
                f"n_values must not repeat an entry, got {self.n_values!r}")
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
                                    if f.default is MISSING],
                    [f.name for f in fields(cls)], schema=CONFIG_SCHEMA)
        return cls(**{k: v for k, v in doc.items() if k != "schema"})

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


@dataclass(frozen=True, eq=False)
class Records:
    """A study's records as columns: one array per ``REPLICATION_COLUMNS``
    entry, rows in (task, spec) order, a task being an (n, rep)
    replication.

    ``model`` is an index into ``model_ids``.  ``selected_by`` has one row
    per task, the index of each criterion's winner, -1 when a fit of the
    task failed.  ``failed`` flags a row whose fit failed; its fit columns
    hold NaN, 0 or False, which no reader takes for a value.

    It is also a sequence of row dicts, built one at a time by ``len``,
    iteration and integer indexing: the keys of ``REPLICATION_COLUMNS``
    and Python scalars, a failed fit's cells ``""`` and its
    ``selected_by`` ``"fit_failed"``, the others' ``selected_by`` the
    criteria it wins joined by ``+``.
    """
    model_ids: tuple
    columns: dict
    failed: np.ndarray

    @classmethod
    def allocate(cls, model_ids: Sequence[str], tasks: list) -> "Records":
        """Records of ``tasks`` for ``model_ids`` with every fit failed,
        for the caller to fill."""
        width = len(model_ids)
        rows = len(tasks) * width
        n, rep = np.array(tasks, dtype=np.int64).T
        columns = {c: np.full(rows, np.nan if t is float else 0, t)
                   for c, t in _ROW_TYPES.items()}
        columns.update(rep=np.repeat(rep, width), n=np.repeat(n, width),
                       model=np.tile(np.arange(width), len(tasks)),
                       selected_by=np.full((len(tasks), len(CRITERIA)), -1))
        return cls(tuple(model_ids), columns, np.ones(rows, dtype=bool))

    @classmethod
    def concat(cls, parts: Sequence["Records"]) -> "Records":
        """The records of ``parts`` in their order; they share model ids."""
        return cls(parts[0].model_ids,
                   {c: np.concatenate([part.columns[c] for part in parts])
                    for c in REPLICATION_COLUMNS},
                   np.concatenate([part.failed for part in parts]))

    def __len__(self) -> int:
        return len(self.failed)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> dict:
        i = range(len(self))[operator.index(i)]
        columns, model = self.columns, int(self.columns["model"][i])
        row = dict.fromkeys(REPLICATION_COLUMNS, "")
        row.update(rep=int(columns["rep"][i]), n=int(columns["n"][i]),
                   model=self.model_ids[model])
        if self.failed[i]:
            row["selected_by"] = "fit_failed"
            return row
        for c in REPLICATION_COLUMNS[3:-1]:          # the fit's columns
            row[c] = columns[c][i].item()
        winners = columns["selected_by"][i // len(self.model_ids)]
        row["selected_by"] = "+".join(
            c for c, winner in zip(CRITERIA, winners) if winner == model)
        return row


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


def _load_study(config: ExperimentConfig, paths: Sequence[str]
                ) -> tuple[list[SemSpec], diffsim.Truth, np.ndarray]:
    """The specs at ``paths``, the config's truth and its covariance
    Sigma0, each spec checked against the series the truth observes (the
    factor dimensions may differ: candidates vary them) and against each
    grid size (``SemSpec.check_grid``)."""
    specs = load_specs(paths)
    truth = diffsim.load_truth(config.true_model)
    sigma0 = diffsim.implied_sigma(truth)
    p = sigma0.shape[0]
    for spec in specs:
        if spec.p != p:
            raise ValueError(f"model {spec.name!r} observes p={spec.p} "
                             f"series, but true_model observes p={p}")
        for n in config.n_values:
            spec.check_grid(n)
    return specs, truth, sigma0


# -- replication chunks --------------------------------------------------------

# Most replications per chunk: the unit of work handed to a worker, and
# the lanes of each spec's lockstep fit.  A round of the loop costs a fixed
# part plus a part per lane, so more lanes spread the fixed part.  Chosen
# by measurement on the desk study (n 100 and 1000, 128 replications,
# model1-3, true init, one worker, 16 rotated runs in fresh processes):
# CPU time of run_experiment, set-up included, was 0.79, 0.72, 0.67, 0.62
# and 0.62 s in the median at 16, 32, 64, 128 and 256.  128 ties 256 with
# half the lanes' working arrays, which raise peak memory by about 4 MB.
_CHUNK = 128


def _chunk_cuts(tasks: int, workers: int) -> list[int]:
    """Where a study's ``tasks`` replications are cut into chunks: the
    fewest chunks of at most ``_CHUNK`` whose count the workers share
    evenly (fewer if there are fewer tasks), sizes differing by one at
    most."""
    count = -(-tasks // _CHUNK)
    count = -(-count // workers) * workers
    return sorted({tasks * i // count for i in range(count + 1)})


def _realized(config: ExperimentConfig, truth: diffsim.Truth, n, rep):
    """Replication ``rep`` at grid size ``n``: its path, drawn from the seed
    split from (master_seed, n, rep), reduced to its realized covariation."""
    # Through the module attribute, where a benchmark hook can patch it.
    bundle = diffsim.simulate_custom(
        truth, n=n, T=config.T, seed=split_seed(config.master_seed, n, rep),
        keep_latents=False)
    return quad_var(bundle.x_obs, config.T)


def _chunk_worker(chunk: tuple) -> Records:
    """The records of a chunk's (n, rep) replications, as its own
    :class:`Records`: each path reduced to Q, then each spec fitted to the
    chunk's Q stack at once, from its init or from each replication's
    multistart set, seeded by the split of (master_seed, n, rep, 1).

    A spec's rows are filled as soon as its fit returns, so its reports,
    each with its (q, q) Hessian, are dropped before the next spec is
    fitted; only their criteria rows are kept, and each (n, rep)'s
    winners are selected from them once every spec is done."""
    config, truth, specs, inits, tasks = chunk
    q_xx = np.array([_realized(config, truth, *task).q_xx for task in tasks])
    n = np.array([n for n, _ in tasks])
    records = Records.allocate([spec.name for spec in specs], tasks)
    rows = []
    for k, (spec, init) in enumerate(zip(specs, inits)):
        if init is None:
            start_sets = [start_set(spec, q, config.starts,
                                    split_seed(config.master_seed, *task, tag=1))
                          for q, task in zip(q_xx, tasks)]
        else:
            start_sets = [[init]] * len(tasks)
        rows.append(_fill(records, k, tasks, q_xx,
                          fit_lanes(spec, q_xx, n, start_sets)))
    for i, task_rows in enumerate(zip(*rows)):
        if all(row is not None for row in task_rows):
            records.columns["selected_by"][i] = [
                records.model_ids.index(select(task_rows, c)) for c in CRITERIA]
    return records


def _fill(records: Records, k: int, tasks: list, q_xx: np.ndarray,
          reports: list) -> list:
    """Fill spec ``k``'s rows of a chunk's records from its fit reports,
    one per task (``None`` for a failed fit: its row stays flagged), and
    return their criteria rows (``None`` where the fit failed); ``lr_sat``
    is the quasi-likelihood ratio against the saturated model,
    ``2 (n (-p - log det Q) / 2 - h_at_hat)``."""
    columns, width = records.columns, len(records.model_ids)
    rows = []
    for i, ((n, rep), report) in enumerate(zip(tasks, reports)):
        if report is None:
            logger.warning("rep %d n=%d: every start of %s failed", rep, n,
                           records.model_ids[k])
            rows.append(None)
            continue
        row = criteria_row(report)
        rows.append(row)
        saturated = n * (-len(q_xx[i]) - np.linalg.slogdet(q_xx[i])[1]) / 2
        at = i * width + k
        records.failed[at] = False
        for column, value in (
                ("h_at_hat", row.h_at_hat),
                ("lr_sat", 2.0 * (saturated - row.h_at_hat)),
                *((c, row.value(c)) for c in CRITERIA),
                ("j_flag", row.j_flag), ("converged", report.converged),
                ("boundary_hit", report.boundary_hit),
                ("iterations", report.iterations),
                ("evaluations", report.evaluations),
                ("grad_norm", report.grad_norm)):
            columns[column][at] = value
    return rows


def _limit_optima(specs: Sequence[SemSpec], sigma0: np.ndarray,
                  config: ExperimentConfig) -> list[tuple[np.ndarray, float]]:
    return [limit_optimum(spec, sigma0, starts=max(config.starts, 4),
                          seed=config.master_seed) for spec in specs]


def _replicate(config: ExperimentConfig, specs: Sequence[SemSpec],
               inits: Sequence[Optional[np.ndarray]],
               truth: diffsim.Truth) -> Records:
    """Each (n, rep) replication's records, in task order at any worker
    count and any chunking: contiguous chunks of at most ``_CHUNK``
    replications go to the workers, a replication's seeds and fits do
    not depend on its chunk, and the chunks' columns are concatenated in
    task order."""
    tasks = [(int(n), rep) for n in config.n_values
             for rep in range(config.replications)]
    cuts = _chunk_cuts(len(tasks), config.workers)
    chunks = [(config, truth, specs, inits, tasks[a:b])
              for a, b in zip(cuts, cuts[1:])]
    if config.workers > 1:
        with multiprocessing.Pool(config.workers) as pool:
            results = pool.map(_chunk_worker, chunks)
    else:
        results = map(_chunk_worker, chunks)
    return Records.concat(list(results))


def run_experiment(config: ExperimentConfig):
    """Run the full study; returns ``(SelectionTable, Records)``.

    The table is counted from the records' columns: a failed fit makes
    its (n, rep) a failure, and every other (n, rep) adds one to each
    criterion's winner in ``selected_by``.  Deterministic given the master
    seed regardless of worker count and chunking.
    """
    specs, truth, sigma0 = _load_study(config, config.model_spec_paths)
    model_ids = [s.name for s in specs]

    inits: list[Optional[np.ndarray]] = [None] * len(specs)
    if config.init_mode == "true":
        inits = [theta for theta, _ in _limit_optima(specs, sigma0, config)]
    records = _replicate(config, specs, inits, truth)

    grid = records.columns["n"][::len(specs)]
    winners = records.columns["selected_by"]
    failed = records.failed.reshape(-1, len(specs)).any(axis=1)
    counts = {(c, n): {m: int(np.count_nonzero(winners[grid == n, j] == k))
                       for k, m in enumerate(model_ids)}
              for j, c in enumerate(CRITERIA) for n in config.n_values}
    failures = {n: int(np.count_nonzero(failed[grid == n]))
                for n in config.n_values}

    table = SelectionTable(criteria=list(CRITERIA),
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
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    specs, truth, sigma0 = _load_study(config, [model_a, model_b])

    (theta_a, lim_a), (theta_b, lim_b) = _limit_optima(specs, sigma0, config)
    fit_gap = np.linalg.norm(specs[0].sigma(theta_a) - sigma0) / np.linalg.norm(sigma0)
    if fit_gap > 1e-6:
        raise ValueError(
            f"{model_a!r} is not correctly specified for this truth "
            f"(relative covariance gap {fit_gap:.2e})")
    analytic = 2.0 * (lim_a - lim_b)

    records = _replicate(config, specs, [theta_a, theta_b], truth)
    grid, reps = (records.columns[c][::2] for c in ("n", "rep"))
    failed = np.flatnonzero(records.failed.reshape(-1, 2).any(axis=1))
    if failed.size:
        raise AllStartsFailedError(
            f"a fit failed at n={grid[failed[0]]}, rep {reps[failed[0]]}")
    value_a, value_b = records.columns[criterion].reshape(-1, 2).T
    diffs = (value_b - value_a) / grid

    return GapProbeResult(
        criterion=criterion,
        level=float(np.mean(diffs)),
        analytic_level=float(analytic),
        per_n={int(n): float(np.mean(diffs[grid == n]))
               for n in config.n_values},
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


def write_outputs(table: SelectionTable, records: Records, out_dir) -> dict:
    """Write table.txt, table.csv and replications.csv into ``out_dir``;
    a cell of replications.csv is ``str()`` of its row's Python scalar,
    each row built from the records' arrays (see :class:`Records`)."""
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
