"""Command-line interface.

Subcommands: ``simulate`` (draw a path from a truth and write CSV),
``quadvar`` (realized quadratic covariation of a path CSV), ``fit``
(quasi-maximum-likelihood fit of one model spec), ``criteria`` (criteria
table and posterior probabilities over fitted models), and ``table1``
(the full Monte Carlo selection study).
"""

from __future__ import annotations

import json
import logging
import sys

import click
import numpy as np

from . import diffsim, harness, infocrit, models
from .qlik import LikelihoodSurface, quad_var
from .qmle import FitReport, fit, fit_multistart

logger = logging.getLogger(__name__)


@click.group()
@click.option("--verbose", is_flag=True, help="Enable progress logging.")
def main(verbose: bool) -> None:
    """Latent-diffusion SEM: simulation, estimation, model selection."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")


def _write_path_csv(path, bundle: diffsim.PathBundle, with_latents: bool) -> None:
    t = np.arange(bundle.n + 1) * bundle.h
    p = bundle.x_obs.shape[1]
    columns = ["t"] + [f"x{i + 1}" for i in range(p)]
    data = [t[:, None], bundle.x_obs]
    if with_latents:
        if not bundle.has_latents:
            raise click.ClickException("bundle was simulated without latents")
        for name, block in (("xi", bundle.xi), ("delta", bundle.delta),
                            ("eps", bundle.eps), ("zeta", bundle.zeta),
                            ("eta", bundle.eta)):
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
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols)
    else:
        data = np.loadtxt(path, delimiter=",")[:, 1:]
    if data.ndim == 1:
        data = data[:, None]
    return data


@main.command()
@click.option("--model", "model_name", default=diffsim.TRUE_MODEL_NAME,
              show_default=True, help="Truth to simulate.")
@click.option("--n", type=int, required=True, help="Number of grid steps.")
@click.option("--T", "horizon", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--with-latents", is_flag=True, help="Also dump latent paths.")
def simulate(model_name: str, n: int, horizon: float, seed: int, out: str,
             with_latents: bool) -> None:
    """Simulate the bundled truth and write the sampled path as CSV."""
    if model_name != diffsim.TRUE_MODEL_NAME:
        raise click.ClickException(
            f"unknown model {model_name!r}; available: {diffsim.TRUE_MODEL_NAME}")
    bundle = diffsim.simulate_true_model(n=n, T=horizon, seed=seed,
                                         keep_latents=with_latents)
    _write_path_csv(out, bundle, with_latents)
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
    x_obs = _read_path_csv(data_path)
    surface = LikelihoodSurface(spec, quad_var(x_obs, horizon))
    init = None
    if init_path is not None:
        init = np.loadtxt(init_path, delimiter=",").ravel()
    if starts is None:
        starts = 1 if init is not None else 8
    if starts == 1:
        report = fit(surface, init=init)
    else:
        report = fit_multistart(surface, starts=starts, seed=seed, init=init)
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
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
    reports = []
    for path in fit_paths:
        with open(path) as fh:
            reports.append(FitReport.from_dict(json.load(fh)))
    if len({r.n for r in reports}) != 1:
        raise click.ClickException("fits were computed on different grids")
    rows = [infocrit.criteria_row(r) for r in reports]
    prior_vec = None
    if priors is not None:
        prior_vec = np.array([float(v) for v in priors.split(",")])
    probs = infocrit.posterior_probs(rows, prior_vec, criterion)
    winner = infocrit.select(rows, criterion)
    with open(out, "w") as fh:
        fh.write("model_id,q,n,h_at_hat,qbic1,qbic2,qaic,j_flag,"
                 "posterior_prob,selected\n")
        for row, prob in zip(rows, probs):
            fh.write(f"{row.model_id},{row.q},{row.n},{row.h_at_hat},"
                     f"{row.qbic1},{row.qbic2},{row.qaic},{row.j_flag},"
                     f"{prob},{row.model_id == winner}\n")
    click.echo(f"wrote {out} (selected {winner} by {criterion})")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True),
              required=True, help="Experiment config JSON (hfsem-exp-v1).")
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--workers", type=int, default=None,
              help="Override the config's worker count.")
@click.option("--realistic", is_flag=True,
              help="Moment starts with multistart instead of true-value inits.")
def table1(config_path: str, out_dir: str, workers, realistic: bool) -> None:
    """Run the selection study and write table.txt/table.csv/replications.csv."""
    config = harness.ExperimentConfig.from_json(config_path)
    if workers is not None:
        config.workers = workers
    if realistic:
        config.init_mode = "moment"
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
