"""Command-line front door: offline selection on prediction logs, cluster
inspection, simulation runs, and invariant verification.

Exit codes: 0 success, 1 verification failure, 2 usage/config error (an
output file or stdout that cannot be opened or written, an unreadable
config file, and a size too large to allocate, included), 3 data error
(an unreadable log included), 141 stdout closed by its reader (128 +
SIGPIPE, as shells report it).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

# Only what select and cluster run is imported here. sim, entropy-sweep and
# verify import the simulator and the suites when they run, so a select or
# cluster process neither compiles nor executes them.
from . import labels as lb
from .clustering import BLOCK_ELEMENTS, cluster_labels, partitions, select_rows
from .errors import ConfigError, InvalidK, SchemaError, SocLabelError
from .kselect import DEFAULT_CONFIG, DEFAULT_POLICY, KPolicy, parse_config, select_k
from .transitions import DEFAULT_WINDOW, TransitionLedger

LOG_SCHEMA = "soc-log-v1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PIPE = 141


# Rows are normalized, checked and reduced to their argmax this many at a
# time: one array pass per block instead of one per record, with the block
# small next to the final step's rows.
READ_BLOCK = 256


def _parse_record(line: str, lineno: int, n_classes, index: dict):
    """The (ledger id, step, probs) of one log line, after its UTF-8, JSON,
    schema, fields and K are checked; raises SchemaError naming the line.
    A new string id is added to index, which maps each id to its ledger
    id, the ids numbered in order of first appearance."""
    # The log is read with surrogateescape, which turns bytes that are not
    # UTF-8 into lone surrogates; those cannot be encoded back.
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(f"line {lineno}: not UTF-8") from exc
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
    # An integer past Python's digit limit, or arrays or objects nested past
    # its recursion limit.
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"line {lineno}: malformed JSON ({exc})") from exc
    if not isinstance(rec, dict) or rec.get("schema") != LOG_SCHEMA:
        raise SchemaError(f"line {lineno}: expected schema {LOG_SCHEMA!r}")
    try:
        sample_id, step = rec["id"], rec["step"]
        # str() would make one sample of 5 and "5", and int() would take
        # 1.7, "0" and true as steps.
        if type(sample_id) is not str:
            raise TypeError(f"id must be a string, got {sample_id!r}")
        if type(step) is not int:  # a bool is an int to Python
            raise TypeError(f"step must be an integer, got {step!r}")
        if not -2**63 <= step < 2**63:  # records keep steps as int64
            raise ValueError(f"step must be in [-2**63, 2**63), got {step}")
        values = rec["probs"]
        probs = np.asarray(values, dtype=float)
        # asarray takes a string such as "0.5", true and false as numbers,
        # and null as NaN. The loop names the first such element; the set
        # of types (4 us for 200 elements, against 26 us for the loop)
        # tells whether there may be one.
        if type(values) is list and not {*map(type, values)} <= {float, int}:
            for value in values:
                if type(value) in (str, bool, type(None)):
                    raise TypeError(f"probs must hold numbers, got {value!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"line {lineno}: bad record fields ({exc})") from exc
    if n_classes is not None and probs.size != n_classes:
        raise SchemaError(f"line {lineno}: K mismatch ({probs.size} != {n_classes})")
    return index.setdefault(sample_id, len(index)), step, probs


def _read_log(path: str):
    """Parse an NDJSON prediction log into
    (records, names, final_probs, n_classes).

    records is a (3, n) int64 array: row 0 holds each record's step, row 1
    its ledger id and row 2 its argmax, in file order. A record's ledger id
    is the index of its string id in names, which lists the ids in order
    of first appearance. final_probs holds the normalized probability rows
    of the records of the highest step, in file order; no other step's
    probabilities are kept.

    Each line's UTF-8, JSON, schema, fields, K and shape are checked as it
    is read. Its probabilities then wait in a block of up to READ_BLOCK
    rows, which is normalized, checked by labels.check_rows and reduced to
    argmaxes in one pass. Repeated (id, step) keys are found by one sort
    of every record's key, at the end of the read. Each check records the
    first error it finds, with its line and a rank: 0 for a repeated key,
    1 for any other error. A line's own error, or a block's, ends the
    read, and the error of the least (line, rank) is raised: always the
    first bad line's, with the message a record-by-record check gives.
    """
    parts = []  # (4, n) per checked block: step, ledger id, argmax, line number
    final_parts = []
    top_step = None
    n_classes = None
    index = {}
    block = []  # (lineno, ledger id, step, probs) of the rows awaiting their check
    errors = []  # (line, rank, SchemaError) of each check's first error

    def check_block():
        nonlocal top_step, final_parts
        if not block:
            return
        linenos, ids, steps, raw = zip(*block)
        block.clear()
        part = np.empty((4, len(raw)), dtype=np.int64)
        part[0], part[1], part[3] = steps, ids, linenos
        parts.append(part)
        raw = np.array(raw)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rows = raw / raw.sum(axis=1, keepdims=True)
        try:
            lb.check_rows(rows)
        except lb.InvalidRow as exc:
            line = linenos[exc.row]
            errors.append((line, 1, SchemaError(f"line {line}: bad probabilities ({exc})")))
            return
        part[2] = rows.argmax(axis=1)
        high = max(steps)
        if top_step is None or high > top_step:
            top_step, final_parts = high, []
        keep = part[0] == top_step
        if keep.any():
            final_parts.append(rows[keep])

    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    ledger_id, step, probs = _parse_record(line, lineno, n_classes, index)
                except SchemaError as exc:
                    errors.append((lineno, 1, exc))
                    break
                if probs.ndim != 1:
                    # The waiting rows first, so the keys stay in file
                    # order; this line's key may repeat an earlier one.
                    check_block()
                    parts.append(np.array([[step], [ledger_id], [0], [lineno]]))
                    errors.append((lineno, 1, SchemaError(
                        f"line {lineno}: bad probabilities ({lb.NOT_A_VECTOR})")))
                    break
                n_classes = probs.size
                block.append((lineno, ledger_id, step, probs))
                if len(block) == READ_BLOCK:
                    check_block()
                    if errors:
                        break
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    check_block()
    table = np.concatenate(parts, axis=1) if parts else np.empty((4, 0), dtype=np.int64)
    parts.clear()  # before the sort, which would otherwise add to its peak
    steps, ids = table[:2]
    order = np.lexsort((steps, ids))  # stable: a key's records stay in file order
    steps, ids = steps[order], ids[order]
    again = order[1:][(steps[1:] == steps[:-1]) & (ids[1:] == ids[:-1])]
    if again.size:
        first = table[3, again.min()]  # its line number
        errors.append((first, 0, SchemaError(f"line {first}: duplicate (id, step)")))
    del order, steps, ids, again  # before the copy, which would otherwise add to its peak
    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    if not table.size:
        raise SchemaError("log contains no records")
    records = table[:3].copy()  # without the line numbers
    del table  # before the final rows are stacked
    return records, list(index), np.concatenate(final_parts), n_classes


def _replay(records, n_classes: int, window: int) -> TransitionLedger:
    """Feed the log's records through the transition tracker, one batch
    per step in step order, each batch in file order."""
    steps, ids, preds = records
    order = np.argsort(steps, kind="stable")
    in_order = steps[order]
    # Batch b is order[edges[b]:edges[b + 1]].
    edges = np.flatnonzero(np.r_[True, in_order[1:] != in_order[:-1], True])
    # Ledger ids number the string ids from 0 without a gap.
    ledger = TransitionLedger(n_classes, window, int(ids.max()) + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        batch = order[lo:hi]
        ledger.observe_batch(ids[batch], preds[batch])
    if edges.size < 3:
        print("warning: single-step log, similarity is cold (all zero)", file=sys.stderr)
    return ledger


def _policy_flags(args) -> list[str]:
    """The parameter flags given: alpha, beta and k, as set."""
    return [key for key in ("alpha", "beta", "k") if getattr(args, key) is not None]


def _policy_config(args) -> dict:
    """The policy flags as a config's sim.k_policy object: --policy, the
    default policy when unset, its own parameter, defaulted when unset, and
    every other parameter flag given, which the policy's checks reject."""
    cfg = dict(DEFAULT_CONFIG[args.policy or DEFAULT_POLICY])
    cfg.update((flag, getattr(args, flag)) for flag in _policy_flags(args))
    return cfg


def _policy(cfg: dict, n_classes: int | None = None) -> KPolicy | None:
    """The KPolicy of a policy-flag config for K = n_classes. Without K,
    only the checks that need none are made (the flags the policy reads,
    and their types), and None is returned. A bad policy is a ConfigError."""
    try:
        if n_classes is None:
            parse_config(cfg)
            return None
        return KPolicy.from_config(cfg, n_classes)
    except (TypeError, ValueError, InvalidK) as exc:
        raise ConfigError(f"--policy {cfg['policy']}: {exc}") from exc


def _default_seed(args) -> int:
    """--seed, else SOC_SEED, else 0; a config error unless a non-negative integer."""
    env = os.environ.get("SOC_SEED", "0")
    name, text = ("SOC_SEED", env) if args.seed is None else ("--seed", str(args.seed))
    if not text.isdecimal():
        raise ConfigError(f"{name} must be a non-negative integer, got {text!r}")
    return int(text)


@contextlib.contextmanager
def _writing(path: str):
    """A failure to open or write path in this context is a ConfigError
    naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _open_out(path: str, mode: str = "w"):
    """path opened for writing, as a context in which a failure to open,
    write or close it is a ConfigError."""
    with _writing(path), open(path, mode) as fh:
        yield fh


def _check_outs(outs: dict, ins: dict) -> None:
    """ConfigError unless every output can be opened for writing and names
    neither an input nor another output (compared by realpath), which
    writing it would destroy. outs and ins map each flag to its path, or to
    None when unset. Checked before the work that writes the outputs and
    without leaving a file: append mode keeps an existing one, and a new
    one is removed again."""
    named = {os.path.realpath(path): flag for flag, path in ins.items() if path}
    for flag, path in outs.items():
        if not path:
            continue
        if (real := os.path.realpath(path)) in named:
            raise ConfigError(f"{named[real]} and {flag} both name {path}")
        named[real] = flag
        existed = os.path.lexists(path)
        with _open_out(path, "a"):
            pass
        if not existed:
            os.remove(path)


def cmd_select(args) -> int:
    if args.nb < 1:
        raise ConfigError(f"--nb must be positive, got {args.nb}")
    seed = _default_seed(args)
    policy_cfg = _policy_config(args)
    _policy(policy_cfg)  # all but the bounds, which need the log's K
    _check_outs({"--out": args.out}, {"the log": args.log})
    records, names, probs, n_classes = _read_log(args.log)
    ledger = _replay(records, n_classes, args.nb)
    ks = select_k(_policy(policy_cfg, n_classes), probs.max(axis=1))
    labels_by_k, which = partitions(ledger.similarity_matrix(), ks, seed)
    steps, ids, _ = records
    final_ids = [names[i] for i in ids[steps == steps.max()].tolist()]
    sink = _open_out(args.out) if args.out else contextlib.nullcontext(sys.stdout)
    # Each row's partition, target and entropies are its own, so the rows
    # are taken a block of at most BLOCK_ELEMENTS values at a time, with the
    # bytes of one pass over all.
    step = max(1, BLOCK_ELEMENTS // n_classes)
    with sink as out:
        for start in range(0, len(probs), step):
            rows = slice(start, start + step)
            pnorm = probs[rows]
            targets, mask = select_rows(pnorm, labels_by_k, which[rows])
            for sample_id, k, keep, target, before, after in zip(
                final_ids[rows], ks[rows].tolist(), mask, targets,
                lb.entropy(pnorm).tolist(), lb.entropy(targets).tolist(),
            ):
                out.write(json.dumps({
                    "id": sample_id,
                    "k": k,
                    "candidate_classes": np.flatnonzero(keep).tolist(),
                    "p_tilde": target.tolist(),
                    "entropy_before": before,
                    "entropy_after": after,
                }, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_cluster(args) -> int:
    if args.nb < 1:
        raise ConfigError(f"--nb must be positive, got {args.nb}")
    seed = _default_seed(args)
    # A lone --k is the cluster count; with --policy fixed it is the
    # policy's k, checked as every policy is.
    lone_k = args.policy is None and _policy_flags(args) == ["k"]
    if not lone_k:
        policy_cfg = _policy_config(args)
        _policy(policy_cfg)  # all but the bounds, which need the log's K
    records, _, probs, n_classes = _read_log(args.log)
    ledger = _replay(records, n_classes, args.nb)
    if lone_k:
        k = args.k
    else:
        k = int(select_k(_policy(policy_cfg, n_classes), probs.max(axis=1).mean()))
    labels, medoids, converged = cluster_labels(ledger.similarity_matrix(), [k], seed=seed)
    print(json.dumps({
        "k": k,
        "medoids": medoids[0].tolist(),
        "clusters": [np.flatnonzero(labels[0] == j).tolist() for j in range(k)],
        "ledger_version": ledger.version,
        "converged": bool(converged[0]),
    }))
    return EXIT_OK


def _load_config(path):
    """The parsed JSON config file, or {} without one; config_from_dict
    checks what it holds."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise ConfigError(f"config has a number too long to read ({exc})") from exc
    except RecursionError as exc:
        raise ConfigError(f"config nests too deeply ({exc})") from exc


def cmd_sim(args) -> int:
    from . import sim

    raw = _load_config(args.config)
    if not args.policy and (stray := _policy_flags(args)):
        raise ConfigError(f"--{stray[0]} needs --policy; without it "
                          "the config's sim.k_policy holds")
    flags = {
        "baseline": args.baseline,
        "tau": args.tau,
        "k_policy": _policy_config(args) if args.policy else None,
        "seed": args.seed,
        "window": args.nb,
        "iters": args.iters,
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    config, spec = sim.config_from_dict(raw, overrides)
    _check_outs({"--out": args.out, "--pairs-out": args.pairs_out},
                {"--config": args.config})
    dataset = sim.generate_dataset(spec)
    state = sim.run(config, dataset)
    with _writing(args.out):
        sim.write_metrics_csv(state.history, args.out)
    if args.pairs_out:
        _write_obj1_entropy_pairs(state, config, dataset, args.pairs_out)
    last = state.history[-1]
    print(
        f"final top1={sim.final_score(state.history):.4f} pl_acc={last.pl_acc:.4f} "
        f"mean_entropy_sel={last.mean_entropy_sel:.4f} k_mean={last.k_mean:.2f} "
        f"(metrics -> {args.out})"
    )
    return EXIT_OK


def _write_obj1_entropy_pairs(state, config, dataset, path) -> None:
    """Per-sample (ground-truth mass retained, selected entropy) rows from
    the final model; the raw data behind density-plot comparisons.

    Rows are taken EVAL_BLOCK at a time by blocked_targets, which clusters
    the ks of the whole set once. Each row's target is the same as in one
    pass over the whole set: a k's partition is the same whichever other
    ks share the call, and every other step works row by row.
    """
    from . import sim

    with _open_out(path) as fh:
        fh.write("zobj1,entropy\n")
        for rows, probs, targets, _ in sim.blocked_targets(
                state.model, dataset.x_unlabeled, config, state.ledger):
            zobj1 = lb.obj1_score(probs, targets, dataset.y_unlabeled[rows])
            for z, h in zip(zobj1, lb.entropy(targets).tolist()):
                fh.write(f"{z},{h}\n")


def cmd_verify(args) -> int:
    from .verify import run_suite

    if args.trials is not None and args.trials < 1:
        raise ConfigError(f"--trials must be positive, got {args.trials}")
    seed = _default_seed(args)
    results = run_suite(args.suite, trials=args.trials, seed=seed)
    failed = False
    for res in results:
        status = "pass" if res.ok else "FAIL"
        print(f"{res.name}: {res.passed}/{res.total} {status}")
        for detail in res.failures:
            print(f"  {detail}")
        failed |= not res.ok
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_entropy_sweep(args) -> int:
    from . import sim

    seed = _default_seed(args)
    config, spec = sim.config_from_dict(_load_config(args.config))
    # Only the soc arm tracks class transitions: any other run's ledger
    # stays empty, and every k would cluster a cold similarity matrix.
    if config.baseline != "soc":
        raise ConfigError(
            f"entropy-sweep needs baseline 'soc', got {config.baseline!r}")
    # Checked here, not by the sweep after the run: training takes seconds.
    for k in args.ks:
        if not 2 <= k <= spec.n_classes:
            raise InvalidK(f"k={k} outside [2, {spec.n_classes}]")
    dataset = sim.generate_dataset(spec)
    state = sim.run(config, dataset)
    means = sim.entropy_vs_k(state.model, dataset.x_unlabeled, state.ledger, args.ks,
                             seed=seed)
    for k, m in zip(args.ks, means):
        print(f"k={k} mean_entropy_sel={m}")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(k) for k in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soclabel",
        description="Soft pseudo-label selection via class-transition clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_policy_flags(p):
        # Unset flags stay None, so a flag the policy does not read shows.
        p.add_argument("--policy", choices=list(DEFAULT_CONFIG), default=None)
        p.add_argument("--alpha", type=float, default=None,
                       help=f"linear (default {DEFAULT_CONFIG['linear']['alpha']:g})")
        p.add_argument("--beta", type=float, default=None,
                       help=f"exp (default {DEFAULT_CONFIG['exp']['beta']:g})")
        p.add_argument("--k", type=int, default=None, help="fixed")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("select", help="replay a prediction log and select soft labels")
    p.add_argument("log")
    add_policy_flags(p)
    p.add_argument("--nb", type=int, default=DEFAULT_WINDOW, help="transition window size")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("cluster", help="cluster the class space of a prediction log")
    p.add_argument("log")
    add_policy_flags(p)
    p.add_argument("--nb", type=int, default=DEFAULT_WINDOW)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sim", help="run the training simulator")
    p.add_argument("--config", default=None, help="JSON config file")
    # The config's sim.k_policy holds unless --policy is given.
    add_policy_flags(p)
    # sim.config_from_dict checks the baseline, as it checks a config's.
    p.add_argument("--baseline", default=None, help="overrides the config's sim.baseline")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--nb", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--out", default="metrics.csv")
    p.add_argument("--pairs-out", default=None)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("entropy-sweep", help="mean selected entropy vs fixed k")
    p.add_argument("--config", default=None)
    p.add_argument("--ks", type=_int_list, default="2,4,8,16,32")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_entropy_sweep)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    # verify.run_suite checks the name, so the suites load only when run.
    p.add_argument("suite", help="a suite of soclabel.verify, or all")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _drop_stdout() -> None:
    """Point fd 1 at devnull, so the flush at exit of what stdout still
    buffers is silent."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # A reader that left early, or a full disk, shows here, not in the
        # flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_PIPE
    except OSError as exc:
        # Reads and file writes raise their own errors, naming their path,
        # so what is left is a write to stdout.
        _drop_stdout()
        print(f"config error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SocLabelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
