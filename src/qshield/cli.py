"""Command-line interface.

Exit codes: 0 success, 1 configuration/usage error, 2 data error,
3 numerical error or an unexpected internal error.
"""
from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

# qshield's matrix products are mostly too small for a second OpenBLAS thread, which
# busy-waits after numpy loads and after every product; this must precede numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# each command imports the layers it runs, and main builds the parser, so importing
# this module loads no numpy and no argparse
from .errors import ConfigError, ModelFormatError, QShieldError

CLASSIFIERS = ("vqc", "qsvm", "ensemble")  # the model types train makes and the scorers take

if TYPE_CHECKING:
    import argparse

    from .pipeline import PipelineConfig


def _load_config(path: str | None, seed: int | None) -> PipelineConfig:
    from dataclasses import replace

    from .pipeline import PipelineConfig

    config = PipelineConfig.from_json_file(path) if path else PipelineConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    return config


def _load_and_transform(config: PipelineConfig, args: argparse.Namespace,
                        chain: str | None = None, require_labels: bool = False):
    """The ``--data`` rows through ``--preprocess-model``; only ``evaluate`` needs the label column.

    ``chain`` is the digest a ``--model`` file from run or train records of the preprocess.json
    beside it: that model is refused (exit 2) behind any other file, or none, once the chain is
    read and before the CSV is."""
    from .pipeline import _chain_digest, load_model
    from .preprocess import _apply_preprocess, load_csv

    path = args.preprocess_model
    pre = path and load_model(path, ("preprocess",))
    if chain is not None:
        if not path:
            raise ModelFormatError(f"model file {args.model} was trained behind a preprocess.json;"
                                   " give that file as --preprocess-model")
        with open(path, "rb") as fh:
            if _chain_digest(fh.read()) != chain:
                raise ModelFormatError(f"model file {args.model} was not trained behind "
                                       f"--preprocess-model {path}: its SHA-256 differs")
    data = load_csv(args.data, config.data.label_column, config.data.positive_label, require_labels)
    # the loaded rows are this call's own, so the replay may overwrite them
    return _apply_preprocess(pre, data) if path else data


def _print_notes(config: PipelineConfig, extras: dict) -> None:
    """A stderr note each for SMO stopped at its update cap and for a sign-blind VQC."""
    m = config.model
    if not extras.get("svm", {}).get("converged", True):
        print(
            f"note: the SVM used all {m.svm_max_passes} pair updates (model.svm_max_passes) "
            f"without reaching model.svm_tol {m.svm_tol}; saved with converged false",
            file=sys.stderr,
        )
    if m.encoding == "amplitude" and m.type in ("vqc", "ensemble"):
        print("note: an amplitude-encoded VQC (model.encoding) scores every row x and -x alike,"
              " so it cannot fit a class boundary that depends on the sign of a row",
              file=sys.stderr)


def run_cmd(args: argparse.Namespace) -> None:
    """Full experiment: preprocess, split, train, predict, evaluate."""
    from .pipeline import run_experiment

    config = _load_config(args.config, args.seed)
    report = run_experiment(config, args.data, args.out_dir)
    _print_notes(config, report)
    with open(os.path.join(args.out_dir, "report.txt"), encoding="utf-8") as fh:
        print(fh.read(), end="")
    print(f"artifacts written to {args.out_dir}")
    print(f"test accuracy: {report['metrics']['accuracy']:.4f}")


def preprocess_cmd(args: argparse.Namespace) -> None:
    """Fit the preprocessing chain; write processed.csv and preprocess.json."""
    from .pipeline import preprocess_experiment

    summary = preprocess_experiment(_load_config(args.config, None), args.data, args.out_dir)
    print(
        f"rows {summary['n_samples_in']} -> {summary['n_samples_out']}, "
        f"features {summary['n_features_in']} -> {summary['n_features_out']}"
    )


def train_cmd(args: argparse.Namespace) -> None:
    """Preprocess and train one model; write model.json and preprocess.json."""
    from dataclasses import replace

    from .pipeline import train_experiment

    config = _load_config(args.config, args.seed)
    if args.model_type:
        config = replace(config, model=replace(config.model, type=args.model_type))
    summary = train_experiment(config, args.data, args.out_dir)
    _print_notes(config, summary)
    print(f"trained {config.model.type} model on {summary['n_samples']} rows")
    print(f"artifacts written to {args.out_dir}")


def predict_cmd(args: argparse.Namespace) -> None:
    """Score a CSV; write sample_index, probability, label."""
    from .pipeline import _publish, _read_model, predict_labels, write_predictions_csv

    config = _load_config(args.config, None)
    model, chain = _read_model(args.model, CLASSIFIERS)
    data = _load_and_transform(config, args, chain)
    probabilities, labels = predict_labels(model, data.features)
    _publish((args.out, write_predictions_csv, probabilities, labels))
    print(f"{len(labels)} predictions written to {args.out}")


def explain_cmd(args: argparse.Namespace) -> None:
    """Per-feature attribution for one sample."""
    from .explain import format_attribution, grad_attribution, score_attribution
    from .explain import write_attribution_csv
    from .pipeline import _publish, _read_model

    config = _load_config(args.config, None)
    model, chain = _read_model(args.model, CLASSIFIERS)
    data = _load_and_transform(config, args, chain)
    if not 0 <= args.row < data.n_samples:
        raise ConfigError(f"row {args.row} outside 0..{data.n_samples - 1}")
    attribute = grad_attribution if args.method == "grad" else score_attribution
    report = attribute(model, data.features[args.row])
    text = format_attribution(report, data.feature_names)
    if args.out:
        _publish((args.out, write_attribution_csv, report, data.feature_names))
        text += f"attribution written to {args.out}\n"
    print(text, end="")


def evaluate_cmd(args: argparse.Namespace) -> None:
    """Metrics plus bootstrap interval for a trained model on labeled data."""
    from .evalstats import format_metrics_table
    from .pipeline import _read_model, evaluate_predictions, predict_labels

    config = _load_config(args.config, args.seed)
    model, chain = _read_model(args.model, CLASSIFIERS)
    data = _load_and_transform(config, args, chain, require_labels=True)
    _, labels = predict_labels(model, data.features)
    metric_report, stats = evaluate_predictions(labels, data.labels, config)
    print(format_metrics_table(metric_report, stats), end="")


def kernel_cmd(args: argparse.Namespace) -> None:
    """Gram matrix of the dataset under the configured feature map."""
    from .pipeline import _publish, feature_map_spec
    from .qkernel import kernel_matrix, write_kernel_csv

    config = _load_config(args.config, None)
    data = _load_and_transform(config, args)
    gram = kernel_matrix(data, feature_map_spec(config))
    _publish((args.out, write_kernel_csv, gram))
    print(f"{gram.size}x{gram.size} kernel written to {args.out}")


def _parser():
    """The ``qshield`` argument parser: one subcommand per ``*_cmd`` function."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Raises every usage error as one ConfigError (one line, exit 1)."""

        def error(self, message: str):
            raise ConfigError(f"{self.prog}: {message}")

    def path(text: str) -> str:
        if not text:
            raise argparse.ArgumentTypeError("empty path")
        return text

    # the options that more than one command takes, as add_argument takes them
    shared = {
        "--data": dict(type=path, required=True, help="input CSV"),
        "--config": dict(type=path, help="JSON config file"),
        "--seed": dict(type=int, help="override the config seed"),
        "--out-dir": dict(type=path, required=True, help="artifact directory"),
        "--model": dict(type=path, required=True, help="trained model.json"),
        "--preprocess-model": dict(type=path, help="preprocess.json to apply to the data"),
        "--out": dict(type=path, required=True, help="output CSV"),
    }
    # allow_abbrev=False: --out is not taken for --out-dir
    parser = Parser(prog="qshield", allow_abbrev=False,
                    description="Hybrid quantum-classical malware classification toolkit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(handler, *options: str) -> argparse.ArgumentParser:
        doc = handler.__doc__
        sub = commands.add_parser(handler.__name__.removesuffix("_cmd"), allow_abbrev=False,
                                  help=doc.splitlines()[0], description=doc)
        sub.set_defaults(handler=handler)
        for name in options:
            sub.add_argument(name, **shared[name])
        return sub

    command(run_cmd, "--data", "--config", "--seed", "--out-dir")
    command(preprocess_cmd, "--data", "--config", "--out-dir")
    train = command(train_cmd, "--data", "--config", "--seed", "--out-dir")
    train.add_argument("model_type", nargs="?", choices=CLASSIFIERS,
                       metavar="MODEL_TYPE", help="vqc, qsvm or ensemble: overrides model.type")
    command(predict_cmd, "--model", "--preprocess-model", "--data", "--config", "--out")
    explain = command(explain_cmd, "--model", "--preprocess-model", "--data", "--config")
    explain.add_argument("--method", choices=["grad", "score"], default="grad")
    explain.add_argument("--row", type=int, default=0, help="data row to explain")
    explain.add_argument("--out", type=path, help="optional CSV output")
    command(evaluate_cmd, "--model", "--preprocess-model", "--data", "--config", "--seed")
    command(kernel_cmd, "--data", "--config", "--preprocess-model", "--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point with explicit exit-code mapping."""
    # numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's libcrypto
    # (3.4 MB of peak RSS) for an entropy source qshield never reads: every generator is
    # seeded. Blocked, hashlib and hmac fall back to CPython's built-in hashes; a process
    # that has already loaded the module keeps it, and library imports are unaffected.
    sys.modules.setdefault("_hashlib", None)
    try:
        args = _parser().parse_args(argv)
        args.handler(args)
        return 0
    except SystemExit as exc:
        # argparse exits only once it has printed --help; its usage errors raise ConfigError
        return exc.code
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except QShieldError as exc:
        line, code = f"error: {exc}", exc.exit_code
    except Exception as exc:
        # last resort: a bug outside any pipeline stage still ends in one error line
        line, code = f"error: internal error: {type(exc).__name__}: {exc}", 3
    # a bad value or CSV header is quoted whole: keep the head, which names the key or column
    cut = f"{line[:960]} ... [{len(line) - 960} characters cut]"
    print(line if len(line) <= 1000 else cut, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
