"""Command-line interface.

Exit codes: 0 success, 1 configuration/usage error, 2 data error,
3 numerical error or an unexpected internal error.
"""
from __future__ import annotations

import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

# qshield's matrix products are mostly too small for a second OpenBLAS thread, which
# busy-waits after numpy loads and after every product; this must precede numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# each command imports the layers it runs, so --help and usage errors load no numpy;
# loading them after click adds up to 0.25 MB of peak RSS (0.15 MB from cached bytecode)
import click

from .errors import ConfigError, QShieldError

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


def _load_config(path: str | None, seed: int | None) -> PipelineConfig:
    from .pipeline import PipelineConfig

    config = PipelineConfig.from_json_file(path) if path else PipelineConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    return config


def _load_and_transform(config: PipelineConfig, data_path: str, preprocess_path: str | None):
    from .pipeline import load_model
    from .preprocess import apply_preprocess, load_csv

    loaded = [load_csv(data_path, config.data.label_column, config.data.positive_label)]
    if not preprocess_path:
        return loaded.pop()
    pre = load_model(preprocess_path, expected_type="preprocess")
    # pop() hands over the only reference, so apply_preprocess can free the raw matrix
    return apply_preprocess(pre, loaded.pop())


def _write_out(out_path: str, write, *args) -> None:
    """Write an ``--out`` file whole or not at all; a failed write is a usage error (exit 1)."""
    from .pipeline import _publish

    try:
        _publish(Path(out_path), write, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc}") from exc


def _note_svm_exhaustion(config: PipelineConfig, extras: dict) -> None:
    """One stderr note when SMO stopped at its update cap; the artifacts say converged false."""
    if not extras.get("svm", {}).get("converged", True):
        m = config.model
        click.echo(
            f"note: the SVM used all {m.svm_max_passes} pair updates (model.svm_max_passes) "
            f"without reaching model.svm_tol {m.svm_tol}; saved with converged false",
            err=True,
        )


@click.group()
def cli() -> None:
    """Hybrid quantum-classical malware classification toolkit."""


@cli.command("run")
@click.option("--data", "data_path", required=True, type=click.Path(), help="Input CSV.")
@click.option("--config", "config_path", type=click.Path(), help="JSON config file.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out-dir", required=True, type=click.Path(), help="Artifact directory.")
def run_cmd(data_path: str, config_path: str | None, seed: int | None, out_dir: str) -> None:
    """Full experiment: preprocess, split, train, predict, evaluate."""
    from .pipeline import run_experiment

    config = _load_config(config_path, seed)
    report = run_experiment(config, data_path, out_dir)
    _note_svm_exhaustion(config, report)
    with open(Path(out_dir) / "report.txt", encoding="utf-8") as fh:
        click.echo(fh.read(), nl=False)
    click.echo(f"artifacts written to {out_dir}")
    acc = report["metrics"]["accuracy"]
    click.echo(f"test accuracy: {acc:.4f}")


@cli.command("preprocess")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--out-dir", required=True, type=click.Path())
def preprocess_cmd(data_path: str, config_path: str | None, out_dir: str) -> None:
    """Fit the preprocessing chain; write processed.csv and preprocess.json."""
    from .pipeline import preprocess_experiment

    config = _load_config(config_path, None)
    summary = preprocess_experiment(config, data_path, out_dir)
    click.echo(
        f"rows {summary['n_samples_in']} -> {summary['n_samples_out']}, "
        f"features {summary['n_features_in']} -> {summary['n_features_out']}"
    )


@cli.command("train")
@click.argument("model_type", required=False, type=click.Choice(["vqc", "qsvm", "ensemble"]))
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", required=True, type=click.Path())
def train_cmd(
    model_type: str | None,
    data_path: str,
    config_path: str | None,
    seed: int | None,
    out_dir: str,
) -> None:
    """Preprocess and train one model; write model.json and preprocess.json.

    MODEL_TYPE overrides the config's model.type.
    """
    from .pipeline import train_experiment

    config = _load_config(config_path, seed)
    if model_type:
        config = replace(config, model=replace(config.model, type=model_type))
    summary = train_experiment(config, data_path, out_dir)
    _note_svm_exhaustion(config, summary)
    click.echo(f"trained {config.model.type} model on {summary['n_samples']} rows")
    click.echo(f"artifacts written to {out_dir}")


@cli.command("predict")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--preprocess-model", "preprocess_path", type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def predict_cmd(
    model_path: str,
    preprocess_path: str | None,
    data_path: str,
    config_path: str | None,
    out_path: str,
) -> None:
    """Score a CSV; write sample_index, probability, label."""
    from .pipeline import load_model, predict_labels, write_predictions_csv

    config = _load_config(config_path, None)
    model = load_model(model_path)
    data = _load_and_transform(config, data_path, preprocess_path)
    probabilities, labels = predict_labels(model, data.features)
    _write_out(out_path, write_predictions_csv, probabilities, labels)
    click.echo(f"{len(labels)} predictions written to {out_path}")


@cli.command("explain")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--preprocess-model", "preprocess_path", type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--method", type=click.Choice(["grad", "score"]), default="grad")
@click.option("--row", type=int, default=0, help="Data row to explain.")
@click.option("--out", "out_path", type=click.Path(), help="Optional CSV output.")
def explain_cmd(
    model_path: str,
    preprocess_path: str | None,
    data_path: str,
    config_path: str | None,
    method: str,
    row: int,
    out_path: str | None,
) -> None:
    """Per-feature attribution for one sample."""
    from .explain import format_attribution, grad_attribution, score_attribution
    from .explain import write_attribution_csv
    from .pipeline import load_model

    config = _load_config(config_path, None)
    model = load_model(model_path)
    data = _load_and_transform(config, data_path, preprocess_path)
    if not 0 <= row < data.n_samples:
        raise click.UsageError(f"row {row} outside 0..{data.n_samples - 1}")
    x = data.features[row]
    if method == "grad":
        report = grad_attribution(model, x)
    else:
        report = score_attribution(model, x)
    text = format_attribution(report, data.feature_names)
    if out_path:
        # write_attribution_csv takes its path second
        write = partial(write_attribution_csv, report, feature_names=data.feature_names)
        _write_out(out_path, write)
        text += f"attribution written to {out_path}\n"
    click.echo(text, nl=False)


@cli.command("evaluate")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--preprocess-model", "preprocess_path", type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--seed", type=int, default=None)
def evaluate_cmd(
    model_path: str,
    preprocess_path: str | None,
    data_path: str,
    config_path: str | None,
    seed: int | None,
) -> None:
    """Metrics plus bootstrap interval for a trained model on labeled data."""
    from .evalstats import format_metrics_table
    from .pipeline import evaluate_predictions, load_model, predict_labels

    config = _load_config(config_path, seed)
    model = load_model(model_path)
    data = _load_and_transform(config, data_path, preprocess_path)
    _, labels = predict_labels(model, data.features)
    metric_report, stats = evaluate_predictions(labels, data.labels, config)
    click.echo(format_metrics_table(metric_report, stats), nl=False)


@cli.command("kernel")
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path())
@click.option("--preprocess-model", "preprocess_path", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def kernel_cmd(
    data_path: str, config_path: str | None, preprocess_path: str | None, out_path: str
) -> None:
    """Gram matrix of the dataset under the configured feature map."""
    from .pipeline import feature_map_spec
    from .qkernel import kernel_matrix, write_kernel_csv

    config = _load_config(config_path, None)
    data = _load_and_transform(config, data_path, preprocess_path)
    gram = kernel_matrix(data, feature_map_spec(config))
    gram.validate()
    _write_out(out_path, write_kernel_csv, gram)
    click.echo(f"{gram.size}x{gram.size} kernel written to {out_path}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with explicit exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except QShieldError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except Exception as exc:
        # last resort: a bug outside any pipeline stage still ends in one error line
        click.echo(f"error: internal error: {type(exc).__name__}: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
