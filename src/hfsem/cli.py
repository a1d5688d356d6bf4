"""Command-line interface.

Subcommands: ``simulate`` (draw a path from a truth and write CSV),
``quadvar`` (realized quadratic covariation of a path CSV), ``fit``
(quasi-maximum-likelihood fit of one model spec), ``criteria`` (criteria
table and posterior probabilities over fitted models), and ``table1``
(the full Monte Carlo selection study).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import sys

import click
import numpy as np

from . import _doc, diffsim, harness, infocrit, models
from .errors import HfsemError
from .qlik import quad_var
from .qmle import FitReport, fit_multistart

logger = logging.getLogger(__name__)


class _Group(click.Group):
    """The one error boundary: ``ValueError``s, package errors and
    ``OSError``s become a one-line ``Error:`` message with exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, HfsemError) as exc:
            raise click.ClickException(str(exc)) from exc
        except OSError as exc:
            message = (f"{exc.filename}: {exc.strerror}" if exc.filename
                       else str(exc))
            raise click.ClickException(message) from exc


@click.group(cls=_Group)
@click.option("--verbose", is_flag=True, help="Enable progress logging.")
def main(verbose: bool) -> None:
    """Latent-diffusion SEM: simulation, estimation, model selection."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")


def _write_path_csv(path, bundle: diffsim.PathBundle) -> None:
    t = np.arange(bundle.n + 1) * bundle.h
    p = bundle.x_obs.shape[1]
    columns = ["t"] + [f"x{i + 1}" for i in range(p)]
    data = [t[:, None], bundle.x_obs]
    if bundle.has_latents:
        for name in diffsim.LATENT_PATHS:
            block = getattr(bundle, name)
            columns += [f"{name}{i + 1}" for i in range(block.shape[1])]
            data.append(block)
    full = np.hstack(data)
    np.savetxt(path, full, delimiter=",", header=",".join(columns), comments="")


def _read_path_csv(path) -> np.ndarray:
    """Observed columns of a path CSV written by ``simulate``.

    With a header, the x* columns are used; without one, every column after
    the leading time column is taken.
    """
    import re

    with open(path) as fh:
        first = fh.readline().strip()
    names = first.split(",")
    try:
        float(names[0])  # a numeric first field means there is no header
    except ValueError:
        cols = [i for i, name in enumerate(names) if re.fullmatch(r"x\d+", name)]
        if not cols:
            raise click.ClickException(f"no x* columns in {path}")
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols,
                          ndmin=2)
    return np.loadtxt(path, delimiter=",", ndmin=2)[:, 1:]


@main.command()
@click.option("--model", "model_name", default=diffsim.TRUE_MODEL_NAME,
              show_default=True, help="Name of the bundled truth to simulate.")
@click.option("--n", type=int, required=True, help="Number of grid steps.")
@click.option("--T", "horizon", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--with-latents", is_flag=True, help="Also dump latent paths.")
def simulate(model_name: str, n: int, horizon: float, seed: int, out: str,
             with_latents: bool) -> None:
    """Simulate a bundled truth and write the sampled path as CSV."""
    bundle = diffsim.simulate_custom(diffsim.load_truth(model_name), n=n,
                                     T=horizon, seed=seed,
                                     keep_latents=with_latents)
    _write_path_csv(out, bundle)
    click.echo(f"wrote {out} ({n} steps, horizon {horizon}, seed {seed})")


@main.command()
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--T", "horizon", type=float, required=True)
@click.option("--out", type=click.Path(), required=True)
def quadvar(in_path: str, horizon: float, out: str) -> None:
    """Realized quadratic covariation of a sampled path, written as p x p CSV."""
    x_obs = _read_path_csv(in_path)
    qv = quad_var(x_obs, horizon)
    np.savetxt(out, qv.q_xx, delimiter=",")
    click.echo(f"wrote {out} ({qv.q_xx.shape[0]}x{qv.q_xx.shape[1]}, n={qv.n})")


@main.command(name="fit")
@click.option("--spec", "spec_path", required=True,
              help="Model spec JSON path or builtin name (model1/model2/model3).")
@click.option("--data", "data_path", type=click.Path(exists=True), required=True)
@click.option("--T", "horizon", type=float, required=True)
@click.option("--init", "init_path", type=click.Path(exists=True), default=None,
              help="Optional CSV with the starting parameter vector.")
@click.option("--starts", type=int, default=None,
              help="Multistart count; defaults to 1 with --init, 8 without.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def fit_command(spec_path: str, data_path: str, horizon: float,
                init_path, starts, seed: int, out: str) -> None:
    """Fit one model to a path CSV and write the full fit report as JSON."""
    spec = models.resolve_spec(spec_path)
    quadvar = quad_var(_read_path_csv(data_path), horizon)
    spec.check_grid(quadvar.n)
    init = (None if init_path is None
            else np.loadtxt(init_path, delimiter=",").ravel())
    if starts is None:
        starts = 1 if init is not None else 8
    report = fit_multistart(spec, quadvar, starts, seed, init)
    _doc.write_json(report.to_dict(), out)
    click.echo(f"wrote {out} (loglik {report.h_at_hat:.4f}, "
               f"converged={report.converged})")


@main.command()
@click.option("--fits", "fit_paths", multiple=True, required=True,
              type=click.Path(exists=True), help="Fit JSONs (repeatable).")
@click.option("--criterion", default="qbic2", show_default=True,
              type=click.Choice(list(infocrit.CRITERIA)))
@click.option("--priors", default=None,
              help="Comma-separated model priors; equal by default.")
@click.option("--out", type=click.Path(), required=True)
def criteria(fit_paths, criterion: str, priors, out: str) -> None:
    """Criteria table over fitted models, with posterior probabilities."""
    reports = [FitReport.from_dict(_doc.read_json(path)) for path in fit_paths]
    if len({r.n for r in reports}) != 1:
        raise click.ClickException("fits were computed on different grids")
    ids = [r.model for r in reports]
    if len(set(ids)) != len(ids):
        repeated = max(ids, key=ids.count)
        raise click.ClickException(f"two fits of model {repeated!r}")
    rows = [infocrit.criteria_row(r) for r in reports]
    prior_vec = None
    if priors is not None:
        prior_vec = np.array([float(v) for v in priors.split(",")])
    probs = infocrit.posterior_probs(rows, prior_vec, criterion)
    winner = infocrit.select(rows, criterion)
    table = [["model_id", "q", "n", "h_at_hat", *infocrit.CRITERIA, "j_flag",
              "posterior_prob", "selected"]]
    table += [[row.model_id, row.q, row.n, row.h_at_hat,
               *map(row.value, infocrit.CRITERIA), row.j_flag, prob,
               row.model_id == winner] for row, prob in zip(rows, probs)]
    with open(out, "w") as fh:
        fh.writelines(",".join(map(str, line)) + "\n" for line in table)
    click.echo(f"wrote {out} (selected {winner} by {criterion})")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              required=True, help="Experiment config JSON (hfsem-exp-v1).")
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--workers", type=int, default=None,
              help="Override the config's worker count.")
def table1(config_path: str, out_dir: str, workers) -> None:
    """Run the selection study and write table.txt/table.csv/replications.csv."""
    config = harness.ExperimentConfig.from_json(config_path)
    if workers is not None:
        config = dataclasses.replace(config, workers=workers)
    # Made before the study runs, so an unusable path stops it at once.
    os.makedirs(out_dir, exist_ok=True)
    try:
        # run_experiment validates the counts invariant before returning.
        table, records = harness.run_experiment(config)
    except AssertionError as exc:
        click.echo(f"invariant violation: {exc}", err=True)
        sys.exit(1)
    paths = harness.write_outputs(table, records, out_dir)
    click.echo(harness.render_table(table, "text"))
    click.echo("wrote " + ", ".join(paths.values()))


if __name__ == "__main__":
    main()
