"""Command-line frontend wiring the pipeline stages together.

Subcommands: stats, balance, train, augment, evaluate, sweep. Flags override
values from an optional flat `key = value` config file, which override the
defaults; every run echoes the fully resolved configuration (parseable back in
the same format). The defaults are read from a default
`evaluate.ExperimentConfig` and its `TrainConfig`; only the keys the library
has no field for (dataset, output, quiet, embeddings, log) have their own.
`sweep` always runs sigaug. Exit codes: 0 success (also when the reader of
standard output closes it early), 2 unreadable/invalid input files or a
configuration value out of range, 3 component failure, 64 usage errors.
A config file is read as UTF-8, with or without a leading byte-order mark, and
its lines end at line feeds only, as an edge list's do.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import balance, evaluate, graph, sgnn
from .augment import EPRConfig
from .augment import augment as run_augment

EXIT_OK = 0
EXIT_IO = 2
EXIT_COMPONENT = 3
EXIT_USAGE = 64


class InputError(ValueError):
    """Malformed input file content or a rejected configuration value;
    reported with the bad-input exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_SPACE = " \t\n\r\v\f"  # the whitespace a number may carry around it


def _int(text: str) -> int:
    """Integer flag in ASCII digits (`graph._INT`)."""
    if not graph._INT.fullmatch(text.strip(_SPACE)):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _float(text: str) -> float:
    """Float in ASCII (`graph._FLOAT`); inf and nan pass, for the range checks."""
    if not graph._FLOAT.fullmatch(text.strip(_SPACE)):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _ratio(text: str) -> float:
    """Float flag that also accepts a/b fractions (e.g. 1/9)."""
    if "/" in text:
        num, den = text.split("/", 1)
        try:
            return _float(num) / _float(den)
        except ZeroDivisionError:
            raise ValueError(f"{text!r} divides by zero") from None
    return _float(text)


def _float_list(text: str) -> tuple:
    return tuple(_ratio(f) for f in text.split(",") if f.strip(_SPACE))


def _key(default) -> tuple:
    """A key's (type, default); the type follows the default's, numbers are
    ASCII, and floats also take a/b fractions."""
    types = {bool: bool, int: _int, float: _ratio, str: str, tuple: _float_list}
    return types[type(default)], default


# the library's defaults, which the key tables below read
_DEFAULT = evaluate.ExperimentConfig(dataset="")

# CLI key -> field of the config object it sets
_EXPERIMENT_FIELDS = {"dataset": "dataset", "format": "input_format",
                      "augmentation": "augmentation", "runs": "runs", "mu": "mu",
                      "theta": "theta", "delta": "delta", "eta": "eta",
                      "test_fraction": "test_fraction", "seed": "base_seed"}
_TRAIN_FIELDS = {"epochs": "epochs", "learning_rate": "learning_rate", "lambda": "lam",
                 "weight_decay": "weight_decay", "dim": "embed_dim",
                 "feature_dim": "feature_dim", "layers": "layers"}

# key -> (type, default) per subcommand; this is the whole resolvable surface
_COMMON = {"output": _key(""), "quiet": _key(False)}
_TRAIN = {key: _key(getattr(_DEFAULT.train, f)) for key, f in _TRAIN_FIELDS.items()}
_SEED = {"seed": _key(_DEFAULT.base_seed)}  # only the subcommands that train read one
_DATA = {"dataset": _key(""), "format": _key(_DEFAULT.input_format)}
_TARGETS = {key: _key(getattr(_DEFAULT, key)) for key in ("mu", "theta", "delta")}
_ETA = {"eta": _key(_DEFAULT.eta)}
_RUNS = {"runs": _key(_DEFAULT.runs)}
_SPLIT = {"test_fraction": _key(_DEFAULT.test_fraction)}

_KEYS = {
    "stats": {**_DATA, **_COMMON},
    "balance": {**_DATA, **_ETA, "mu": _TARGETS["mu"], **_COMMON},
    "train": {**_DATA, **_TRAIN, **_SEED, **_COMMON},
    "augment": {**_DATA, "embeddings": _key(""), **_TARGETS, **_ETA, "log": _key(""),
                **_COMMON},
    "evaluate": {**_DATA, "augmentation": _key(_DEFAULT.augmentation), **_RUNS, **_TARGETS,
                 **_ETA, **_SPLIT, **_TRAIN, **_SEED, **_COMMON},
    "sweep": {**_DATA, **_RUNS,
              **{key + "_grid": _key((d,)) for key, (_t, d) in _TARGETS.items()},
              **_ETA, **_SPLIT, **_TRAIN, **_SEED, **_COMMON},
}


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _coerce(typ, text: str):
    if typ is not bool:
        return typ(text)
    if text.lower() not in _BOOLS:
        raise ValueError(f"must be one of {'/'.join(_BOOLS)}, got {text!r}")
    return _BOOLS[text.lower()]


def parse_config_text(text: str, subcommand: str) -> dict:
    """Parse flat `key = value` lines, coercing by the subcommand's key table.

    Lines end at line feeds only, as an edge list's do; a CRLF's CR is stripped."""
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected `key = value`, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS[subcommand]:
            raise ValueError(f"config line {lineno}: unknown key {key!r} for {subcommand}")
        try:
            values[key] = _coerce(_KEYS[subcommand][key][0], val.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return values


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(cfg: dict) -> str:
    return "\n".join(f"{k} = {_format_value(v)}" for k, v in cfg.items())


def resolve_config(subcommand: str, file_values: dict, flag_values: dict) -> dict:
    """Every key of the subcommand, sorted: defaults < config file < explicit flags."""
    resolved = {k: d for k, (_t, d) in _KEYS[subcommand].items()}
    resolved.update(file_values)
    resolved.update({k: v for k, v in flag_values.items() if v is not None})
    return dict(sorted(resolved.items()))


def _add_flags(sub, subcommand):
    for key, (typ, _default) in _KEYS[subcommand].items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            sub.add_argument(flag, dest=key, action="store_const", const=True, default=None)
        else:
            sub.add_argument(flag, dest=key, type=typ, default=None)
    sub.add_argument("--config", dest="config", type=str, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="sigaug", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in _KEYS:
        _add_flags(subs.add_parser(name, prog=f"sigaug {name}"), name)
    return parser


def _emit(lines: list, output: str):
    """Write each line and a newline to the file `output`, or to stdout if it is empty."""
    text = "".join(f"{line}\n" for line in lines)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _checked(build, *args, **kwargs):
    """Build a config object or run a value check; a rejected value is bad input.

    Subcommands check their configuration values this way before loading data."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _dataset(cfg: dict) -> str:
    if not cfg["dataset"]:
        raise FileNotFoundError("no --dataset given")
    return cfg["dataset"]


def _load_graph(cfg: dict):
    with open(_dataset(cfg), "rb") as fh:
        records = _checked(graph.load_edge_list, fh, cfg["format"])
    return records, graph.build_graph(records)


def _stats_lines(prefix: str, stats: dict) -> list:
    return [f"{prefix}{k}={stats[k]!r}" for k in ("n", "pos_edges", "neg_edges", "neg_ratio")]


def cmd_stats(cfg: dict) -> int:
    records, g = _load_graph(cfg)
    lines = _stats_lines("", graph.record_stats(records))
    lines += _stats_lines("built_", graph.graph_stats(g))
    _emit(lines, cfg["output"])
    return EXIT_OK


def cmd_balance(cfg: dict) -> int:
    _checked(balance.check_eta, cfg["eta"])
    _checked(balance.check_mu, cfg["mu"])
    _records, g = _load_graph(cfg)
    scores = balance.compute_utilities(g, eta=cfg["eta"])
    lines = []
    for (u, v), util in scores.items():
        util_text = "undef" if util is None else repr(util)
        lines.append(f"{u} {v} {graph.NEG} {util_text}")  # only negative edges are scored
    kept = sum(1 for util in scores.values()
               if balance.filter_edge(util, cfg["mu"]) == balance.KEEP)
    lines.append(f"mu={cfg['mu']!r}")
    lines.append(f"eta={cfg['eta']}")
    lines.append(f"kept={kept}")
    lines.append(f"discarded={len(scores) - kept}")
    lines.append(f"undefined={sum(1 for util in scores.values() if util is None)}")
    _emit(lines, cfg["output"])
    return EXIT_OK


def _fields(cfg: dict, field_of: dict) -> dict:
    """The subcommand's values of the keys in `field_of`, by config-object field."""
    return {f: cfg[key] for key, f in field_of.items() if key in cfg}


def _train_config(cfg: dict) -> sgnn.TrainConfig:
    return sgnn.TrainConfig(seed=cfg["seed"], **_fields(cfg, _TRAIN_FIELDS))


def cmd_train(cfg: dict) -> int:
    train_cfg = _checked(_train_config, cfg)
    _records, g = _load_graph(cfg)
    _checked(sgnn.check_supervision, g)  # a graph the trainer cannot use is bad input
    result = sgnn.train(g, train_cfg)
    output = cfg["output"] or "model"
    sgnn.save_embeddings(result.embeddings, output + ".emb")
    sgnn.save_params(result.params, output + ".params")
    if not cfg["quiet"]:
        print(f"final_loss={result.loss_trace[-1]!r}", file=sys.stderr)
        print(f"wrote {output}.emb and {output}.params", file=sys.stderr)
    return EXIT_OK


def cmd_augment(cfg: dict) -> int:
    epr = _checked(EPRConfig, theta_target=cfg["theta"], delta_target=cfg["delta"],
                   mu=cfg["mu"], eta=cfg["eta"])
    _records, g = _load_graph(cfg)
    emb_path = cfg["embeddings"]
    if not emb_path:
        raise FileNotFoundError("no --embeddings given")
    try:
        pair = sgnn.load_embeddings(emb_path)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if pair.zpos.shape[0] != g.n:
        raise InputError(f"{emb_path}: {pair.zpos.shape[0]} embedding rows, "
                         f"the graph has {g.n} nodes")
    # augment's own ValueError is a graph without edges: input it cannot use
    result = _checked(run_augment, g, pair, epr)
    _emit([f"{u} {v} {s}" for u, v, s in result.graph.edge_array().tolist()], cfg["output"])
    log_path = cfg["log"] or ((cfg["output"] or "augment") + ".log")
    _emit(result.log.to_lines(), log_path)
    if not cfg["quiet"]:
        print(f"thresholds_unmet={result.thresholds_unmet}", file=sys.stderr)
        print(f"perturbations={result.log.total_kept} log={log_path}", file=sys.stderr)
    return EXIT_OK


def _experiment_config(cfg: dict, **fixed) -> evaluate.ExperimentConfig:
    # sweep has no mu/theta/delta keys (it sets them per grid cell)
    exp = evaluate.ExperimentConfig(train=_train_config(cfg),
                                    **_fields(cfg, _EXPERIMENT_FIELDS), **fixed)
    _dataset(cfg)  # after the values, as the other subcommands check them
    return exp


def cmd_evaluate(cfg: dict) -> int:
    # run_experiment's own ValueError is a dataset without an edge of either sign or a
    # split refusal (failed runs raise RuntimeError)
    report = _checked(evaluate.run_experiment, _checked(_experiment_config, cfg))
    _emit(report.to_machine_lines(), cfg["output"])
    if not cfg["quiet"]:
        print(report.to_table(), file=sys.stderr)
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    exp = _checked(_experiment_config, cfg, augmentation="sigaug")
    grid = {key: list(cfg[key + "_grid"]) for key in ("mu", "theta", "delta")}
    # sweep checks every cell before the dataset loads; its ValueError is bad input
    rows = _checked(evaluate.sweep, exp, grid)
    lines = ["mu,theta,delta,mean_auc,std"]
    lines += [f"{mu!r},{th!r},{de!r},{mean!r},{std!r}" for mu, th, de, mean, std in rows]
    _emit(lines, cfg["output"])
    return EXIT_OK


_DISPATCH = {
    "stats": cmd_stats,
    "balance": cmd_balance,
    "train": cmd_train,
    "augment": cmd_augment,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = args.subcommand
    file_values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig", newline="") as fh:
                file_values = parse_config_text(fh.read(), sub)
        except (OSError, ValueError) as exc:
            print(f"sigaug: config error: {exc}", file=sys.stderr)
            return EXIT_IO
    flag_values = {k: getattr(args, k) for k in _KEYS[sub]}
    cfg = resolve_config(sub, file_values, flag_values)
    if not cfg["quiet"]:
        print(f"# sigaug {sub} resolved configuration", file=sys.stderr)
        print(format_config(cfg), file=sys.stderr)
    try:
        code = _DISPATCH[sub](cfg)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`sigaug balance ... | head`): not a failure;
        # send what is still buffered to devnull so shutdown does not fail on it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (FileNotFoundError, IsADirectoryError, PermissionError, graph.ParseError,
            InputError) as exc:
        print(f"sigaug: input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"sigaug: {sub} failed: {exc}", file=sys.stderr)
        return EXIT_COMPONENT


if __name__ == "__main__":
    sys.exit(main())
