"""Command-line surface: classification, census, quotient reports, self-checks.

Four subcommands, all batch-oriented and deterministic:

    stability            classify one (d_beta, d_gamma) cell, showing the
                         evaluated inequalities
    census               full table of cells with labeled counts and totals
    git-classify         closed-form vs brute-force torus-quotient class for
                         a JSON file of configurations, with S-representatives
    local-model-verify   run the exact local-model property suite

git-classify reads its file as strict UTF-8 (a byte-order mark is a JSON
error), with "\\r\\n" and a lone "\\r" read as "\\n" as in text mode; of
duplicate keys in an object the last one wins.

Exit codes: 0 success, 1 usage or input error, 2 a check or oracle
disagreement failed.  Output is byte-identical for identical flags and
seed.  Every subcommand writes JSON, or CSV with "--format csv", and every
report leaves through one sink (_write), to stdout or to the file --output
names.  The sink opens that file only after every check has passed, so a
refused request neither creates nor truncates it.  One writer (_json_text)
gives every JSON report, the census's head and tail included, the layout of
json.dumps(indent=2, sort_keys=True), byte for byte: each value returns its
text, and a dict or list one f-string around its members'.  json.dumps
itself runs its pure-Python encoder with indent set, and takes 2.1 to 2.3
times as long on the reports the benchmark's ops write (CPython 3.11.7,
x86_64).

Each subcommand's flags are declared once, in its table in _COMMANDS.  An
argv that is a subcommand name and "--flag value" pairs is read from that
table, with no parser built, when each flag is an exact name in the table,
each value does not start with "-" or is "-" and ASCII digits, each int
converts, each choice is allowed and every required flag is given; a
repeated flag keeps its last value, as in argparse.  Every other argv, help
and errors included, goes unchanged to the one argparse parser, built from
the same table with every subcommand.  So the namespace, help and error text
are argparse's own for every argv.  Building that parser and parsing with it
takes about 0.9 ms (CPython 3.11.7, x86_64, "census --genus=2"), which only
help, errors and other spellings (such as "--genus=2" or "--gen") pay.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import local_model
from .configuration import Configuration, config_from_json, config_to_json
from .errors import InvalidGenusError, LengthMismatchError
from .exact import DEFAULT_ORDER
from .git_engine import (
    GitClass,
    Linearization,
    bruteforce_search,
    classify_closed_form,
    s_equivalence_representative,
)
from .stability import (
    CensusRun,
    ModuliParams,
    StabilityClass,
    census_runs,
    classify_counts,
    milnor_wood_admits_stable,
    polystable_split_degrees,
)

USAGE_ERROR = 1
CHECK_FAILURE = 2

# the largest requests accepted, refused before any work.  The genus bound
# covers stability, census and git-classify alike: at genus 100 a census
# writes about 24 MB of JSON or 13 MB of CSV in about 0.11 to 0.18 s, one run
# at a time, with a peak RSS of about 18 MB, interpreter start included, and
# about 2.5 MB over the import alone (CPython 3.11.7): its tracemalloc peak is
# 2.6 to 2.8 MiB, mostly texts rows keep for later rows (census_runs); and
# git-classify spends at most about 3 s on a stable configuration (its rank)
# and 0.7 to 0.9 s with --rmax 32 on a file of non-stable ones, which share
# one count of 1,620 digits per power, well under the 4,300 Python prints.
# The README gives the time of the largest local-model suite, at order 32
# with 500 cases
MAX_GENUS = 100
# Python converts ints of at most 4,300 digits to text by default, so argparse
# already refuses a longer --degree; a degree of at most 4,299 digits keeps
# the printed bounds 2(g - 1 +- d) within 4,300 digits for every admitted
# genus, and only 4,300-digit degrees are refused for it
MAX_DEGREE_DIGITS = 4299
MAX_TRUNCATION = 32
MAX_RMAX = 32
MAX_CASES = 500


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse reserves exit code 2 for usage errors; here 2 means a failed
    # check, so usage problems are rerouted through _UsageError -> exit 1
    def error(self, message: str) -> None:
        raise _UsageError(message)


class _Flag(NamedTuple):
    """One "--name value" option of a subcommand, as argparse.add_argument takes it."""

    name: str
    type: Optional[Callable[[str], object]] = None
    required: bool = False
    default: object = None
    choices: Optional[tuple[str, ...]] = None
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    flags: tuple[_Flag, ...]
    run: Callable[[argparse.Namespace], int]


_OUTPUT_FLAGS = (
    _Flag("--format", choices=("json", "csv"), default="json",
          help="output format (default json)"),
    _Flag("--output", help="write the report here instead of stdout"),
)
_MODULI_FLAGS = (
    _Flag("--genus", int, required=True, help="curve genus, >= 2"),
    _Flag("--degree", int, default=0, help="line bundle degree (default 0)"),
    *_OUTPUT_FLAGS,
)


def _add_flags(parser: argparse.ArgumentParser, flags: tuple[_Flag, ...]) -> None:
    for flag in flags:
        parser.add_argument(
            flag.name, type=flag.type, required=flag.required, default=flag.default,
            choices=flag.choices, help=flag.help,
        )


def _build_parser() -> _Parser:
    """The top-level parser with every subcommand.  main() reads through it
    every argv that the flag table does not read (see _read_exact)."""
    parser = _Parser(
        prog="su12fiber",
        description="Exact stability, census, and torus-quotient reports "
        "for rank-3 fiber data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help), command.flags)
    return parser


def _read_exact(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse returns for an argv the flag table reads (see
    the module docstring), or None for any other argv.  A value that does
    not start with "-", or is "-" and ASCII digits, is one that argparse
    reads as a value in every supported release, never as an option."""
    if not argv or argv[0] not in _FLAG_TABLES or len(argv) % 2 == 0:
        return None
    flags, defaults, required = _FLAG_TABLES[argv[0]]
    values = defaults.copy()
    given = set()
    for name, value in zip(argv[1::2], argv[2::2]):
        flag = flags.get(name)
        if flag is None:
            return None
        if value.startswith("-") and not (value[1:].isascii() and value[1:].isdigit()):
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except ValueError:
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
        given.add(name)
    if not required <= given:
        return None
    return argparse.Namespace(**values)


def _write(pieces: Iterable[str], output: Optional[str]) -> None:
    """Each piece, as it comes, to stdout or to the file --output names.
    Every handler calls this after its last check."""
    if output is None:
        sys.stdout.writelines(pieces)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte, for
    payloads of dicts with str keys, lists, str, int, True, False and None.
    Any other value, a float, a tuple or a subclass of int, str, dict or list
    included, raises TypeError, so nothing prints in another layout."""
    return _json_value(payload, "\n") + "\n"


def _json_value(value: object, newline: str) -> str:
    # newline is the line break and indent of the value's own line; True,
    # False and None are tested by identity, as 1.0 == True, 1 == True and
    # 0 == False would make a lookup print those numbers as true or false
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if cls is dict:
        if not value:
            return "{}"
        members = []
        for key in sorted(value):
            if key.__class__ is not str:
                raise TypeError(f"JSON report keys must be str, not {key.__class__.__name__}")
            members.append(f"{encode_basestring_ascii(key)}: {_json_value(value[key], inner)}")
        return f"{{{inner}{(',' + inner).join(members)}{newline}}}"
    if cls is list:
        if not value:
            return "[]"
        items = [_json_value(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    raise TypeError(f"a JSON report holds no {cls.__name__}")


def _csv_text(columns: Sequence[str], records: Iterable[dict], comments: Iterable[str]) -> str:
    """A header of columns, then those fields of each JSON record, one row each."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    for line in comments:
        buf.write(f"# {line}\n")
    return buf.getvalue()


def _check_range(flag: str, value: int, lo: int, hi: int) -> None:
    if value < lo:
        raise _UsageError(f"{flag} must be >= {lo}")
    if value > hi:
        raise _UsageError(f"{flag} must be <= {hi}, got {value}")


def _bounded_moduli(args: argparse.Namespace) -> ModuliParams:
    if args.genus > MAX_GENUS:
        raise _UsageError(f"--genus must be <= {MAX_GENUS}, got {args.genus}")
    digits = len(str(abs(args.degree)))  # no 10**4299 built on every call
    if digits > MAX_DEGREE_DIGITS:
        raise _UsageError(
            f"--degree must be <= 10^{MAX_DEGREE_DIGITS} - 1 in absolute value, "
            f"got {digits} digits"
        )
    return ModuliParams(args.genus, args.degree)


def _warn_degree(p: ModuliParams) -> None:
    if not milnor_wood_admits_stable(p.g, p.d):
        sys.stderr.write(
            f"warning: degree {p.d} is outside the strict Milnor-Wood range "
            f"for genus {p.g}; no stable objects exist there\n"
        )


# stability


def _inequality(label: str, lhs: int, op: str, bound_name: str, rhs: int) -> dict:
    holds = lhs < rhs if op == "<" else lhs <= rhs
    return {
        "comparison": f"{label} {op} {bound_name}",
        "values": f"{lhs} {op} {rhs}",
        "holds": holds,
    }


def _cmd_stability(args: argparse.Namespace) -> int:
    p = _bounded_moduli(args)
    d_beta, d_gamma = args.dbeta, args.dgamma
    if d_beta < 0 or d_gamma < 0 or d_beta + d_gamma > p.N:
        raise _UsageError(
            f"need d_beta, d_gamma >= 0 with d_beta + d_gamma <= {p.N}"
        )
    _warn_degree(p)
    cls = classify_counts(p, d_beta, d_gamma)
    d_rest = p.N - d_beta - d_gamma
    payload = {
        "command": "stability",
        "genus": p.g,
        "degree": p.d,
        "slots": p.N,
        "d_beta": d_beta,
        "d_gamma": d_gamma,
        "d_rest": d_rest,
        "gamma_bound": p.gamma_bound,
        "beta_bound": p.beta_bound,
        "inequalities": [
            _inequality("d_gamma", d_gamma, "<", "gamma_bound", p.gamma_bound),
            _inequality("d_beta", d_beta, "<", "beta_bound", p.beta_bound),
            _inequality("d_gamma", d_gamma, "<=", "gamma_bound", p.gamma_bound),
            _inequality("d_beta", d_beta, "<=", "beta_bound", p.beta_bound),
        ],
        "stability": cls.value,
        "stratum_dimension": p.stratum_dimension(d_rest) if cls is StabilityClass.STABLE else None,
        "split_degrees": (
            list(polystable_split_degrees(p))
            if cls is StabilityClass.STRICTLY_POLYSTABLE
            else None
        ),
    }
    text = _json_text(payload) if args.format == "json" else _csv_text(
        ["genus", "degree", "d_beta", "d_gamma", "d_rest", "stability", "stratum_dimension"],
        [payload],
        [f"{iq['values']} -> {iq['holds']}" for iq in payload["inequalities"]],
    )
    _write((text,), args.output)
    return 0


# census


def _numerals(numerals: list[str], r: range) -> list[str]:
    """numerals[k] for k in r, a range of step 1 or -1 that stops at -1 or later."""
    return numerals[r.start:r.stop if r.stop >= 0 else None:r.step]


def _census_cells(run: CensusRun, numerals: list[str], fmt: str) -> Iterator[str]:
    """The text of each cell of the run in fmt, "json" or "csv": one str.join
    per cell of the run's fixed pieces and the texts of its fields, zipped
    column by column.  A cell that is not stable has no stratum dimension,
    null in JSON and an empty field in CSV.  The JSON cell has the layout
    json.dumps(indent=2, sort_keys=True) gives an object in the payload's
    "rows"; the CSV fields are ints and class names, which csv.writer would
    not quote.

    Every field is text already.  numerals holds str(k) for every k up to
    g + N, which covers d_beta, d_gamma, d_r and the stratum dimension g + d_r.
    run.labeled_texts holds the counts' texts, made once per multiset of
    part sizes (see census_runs): converting each count in its cell took the
    genus-60 JSON cells from 5.0 to 11.6 ms.  Sharing the texts across rows
    trades memory for time: it raised the genus-100 census's tracemalloc
    peak from 0.2 to 2.8 MiB and cut the genus-60 and genus-100 CLI census
    by 17 to 29 % in process.  Over the same runs, the join per cell took
    the genus-60 JSON cells from 9.3 to 6.5 ms where an f-string per cell
    was used (BENCH_36.json).  Each cell is its own string, joined once per
    run by the caller: one % over the whole run raised the benchmark's peak
    RSS by 2 to 6 MB (BENCH_19.json)."""
    d_beta, cls = numerals[run.d_beta], run.stability.value
    if fmt == "json":
        start = f'    {{\n      "d_beta": {d_beta},\n      "d_gamma": '
        after_gamma, after_r = ',\n      "d_rest": ', ',\n      "labeled_count": '
        after_count = f',\n      "stability": "{cls}",\n      "stratum_dimension": '
        end, null = "\n    }", "null"
    else:
        start, after_gamma, after_r = f"{d_beta},", ",", f",{cls},"
        after_count, end, null = ",", "\n", ""
    fields = [repeat(start), _numerals(numerals, run.d_gamma), repeat(after_gamma),
              _numerals(numerals, run.d_r), repeat(after_r), run.labeled_texts]
    if run.stratum_dims is None:
        fields.append(repeat(after_count + null + end))
    else:
        fields += repeat(after_count), _numerals(numerals, run.stratum_dims), repeat(end)
    return map("".join, zip(*fields))


def _census_json(p: ModuliParams) -> Iterator[str]:
    # json.dumps(indent=2, sort_keys=True) of the whole payload, in pieces:
    # the keys that sort before "rows" without the closing brace, the cells
    # of each run, then the keys after "rows" without the opening brace
    head = _json_text({"command": "census", "degree": p.d, "genus": p.g})
    yield head[:-3] + ',\n  "rows": [\n'
    numerals = list(map(str, range(p.g + p.N + 1)))
    totals = dict.fromkeys(StabilityClass, 0)
    separator = ""
    for run in census_runs(p):
        totals[run.stability] += sum(run.labeled_counts)
        yield separator + ",\n".join(_census_cells(run, numerals, "json"))
        separator = ",\n"
    named = {cls.value: count for cls, count in totals.items()}
    tail = _json_text({"slots": p.N, "totals": {**named, "all": sum(totals.values())}})
    yield "\n  ]," + tail[1:]


def _census_csv(p: ModuliParams) -> Iterator[str]:
    yield "d_beta,d_gamma,d_rest,stability,labeled_count,stratum_dimension\n"
    numerals = list(map(str, range(p.g + p.N + 1)))
    totals = dict.fromkeys(StabilityClass, 0)
    for run in census_runs(p):
        totals[run.stability] += sum(run.labeled_counts)
        yield "".join(_census_cells(run, numerals, "csv"))
    yield "".join(f"# total {cls.value} {count}\n" for cls, count in totals.items())
    yield f"# total all {sum(totals.values())}\n"


def _cmd_census(args: argparse.Namespace) -> int:
    p = _bounded_moduli(args)
    _warn_degree(p)
    # each run of cells is written as soon as it is computed, so the text
    # is never held whole
    _write(_census_json(p) if args.format == "json" else _census_csv(p), args.output)
    return 0


# git-classify


def _load_configurations(path: str, expected_slots: int) -> list[Configuration]:
    # the file as text mode reads it: strict UTF-8, then "\r\n" and a lone
    # "\r" read as "\n", so a syntax error's (char N) counts the same
    # characters.  One unbuffered read and one decode cost about two thirds
    # of what a text-mode open and json.load do on a file of a few hundred
    # bytes (CPython 3.11.7, x86_64)
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.readall().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # also an integer past the 4300 digits Python converts, or bytes not UTF-8
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _UsageError(f"{path} nests JSON too deeply to read") from exc
    if not isinstance(data, list):
        raise _UsageError(f"{path} must hold a JSON array of configurations")
    configs = []
    for k, entry in enumerate(data):
        try:
            c = config_from_json(entry)
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"{path}[{k}]: {exc}") from exc
        if c.size != expected_slots:
            raise _UsageError(
                f"{path}[{k}]: configuration has {c.size} slots, expected {expected_slots}"
            )
        configs.append(c)
    return configs


def _witness_fault(c: Configuration, lin: Linearization, witness, stable: bool) -> Optional[str]:
    """What keeps a witness (r, m) from its definition at c, or None: m is
    balanced, sum(m) = N*r*n, with 0 <= m_j <= N*r, N*r at every [0:1] slot
    and 0 at every [1:0] slot (nonvanishing at c), and, for a stable witness,
    some interior exponent 0 < m_j < N*r."""
    power, exponents = witness
    cap = lin.N * power
    if len(exponents) != lin.N:
        return f"it has {len(exponents)} exponents for {lin.N} slots"
    if sum(exponents) != cap * lin.n:
        return f"its exponents do not sum to N*r*n = {cap * lin.n}"
    for j, (point, m) in enumerate(zip(c.points, exponents)):
        if not 0 <= m <= cap:
            return f"exponent {m} at slot {j} is outside [0, {cap}]"
        if point.is_zero() and m != cap:
            return f"exponent {m} at the [0:1] slot {j} is not N*r = {cap}"
        if point.is_infinity() and m != 0:
            return f"exponent {m} at the [1:0] slot {j} is not 0"
    if stable and all(m in (0, cap) for m in exponents):
        return "it has no interior exponent"
    return None


def _witness_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    power, exponents = witness
    return {"power": power, "exponents": list(exponents)}


def _cmd_git_classify(args: argparse.Namespace) -> int:
    p = _bounded_moduli(args)
    if not milnor_wood_admits_stable(p.g, p.d):
        raise _UsageError(
            f"degree {p.d} is outside the strict Milnor-Wood range for genus "
            f"{p.g}: the weight parameter and stable locus degenerate"
        )
    _check_range("--rmax", args.rmax, 1, MAX_RMAX)
    lin = Linearization.for_moduli(p)
    configs = _load_configurations(args.input, p.N)

    reports = []
    all_agree = True
    for k, c in enumerate(configs):
        closed = classify_closed_form(c, lin)
        outcome = bruteforce_search(c, lin, args.rmax)
        for kind, witness in (("semistable", outcome.semistable_witness),
                              ("stable", outcome.stable_witness)):
            if witness is None:
                continue
            fault = _witness_fault(c, lin, witness, kind == "stable")
            if fault is not None:
                sys.stderr.write(f"error: {args.input}[{k}]: the {kind} witness fails "
                                 f"its definition: {fault}\n")
                return CHECK_FAILURE
        agree = closed is outcome.git_class
        all_agree = all_agree and agree
        if closed is GitClass.UNSTABLE:
            representative = None
        else:
            representative = config_to_json(s_equivalence_representative(c, lin))
        reports.append(
            {
                "index": k,
                "input": config_to_json(c),
                "closed_form": closed.value,
                "brute_force": outcome.git_class.value,
                "agreement": agree,
                "fixed_point": outcome.fixed_point,
                "monomials_enumerated": outcome.monomials_enumerated,
                "semistable_witness": _witness_json(outcome.semistable_witness),
                "stable_witness": _witness_json(outcome.stable_witness),
                "representative": representative,
            }
        )

    payload = {
        "command": "git-classify",
        "genus": p.g,
        "degree": p.d,
        "slots": p.N,
        "weight_parameter": p.n,
        "r_max": args.rmax,
        "configurations": reports,
        "all_agree": all_agree,
    }
    text = _json_text(payload) if args.format == "json" else _csv_text(
        ["index", "closed_form", "brute_force", "agreement", "fixed_point",
         "monomials_enumerated"],
        reports,
        [f"all_agree {all_agree}"],
    )
    _write((text,), args.output)
    return 0 if all_agree else CHECK_FAILURE


# local-model-verify


def _cmd_local_verify(args: argparse.Namespace) -> int:
    _check_range("--truncation", args.truncation, 2, MAX_TRUNCATION)
    _check_range("--cases", args.cases, 1, MAX_CASES)
    report = local_model.verification_suite(args.truncation, args.seed, args.cases)
    payload = {"command": "local-model-verify", **report}
    text = _json_text(payload) if args.format == "json" else _csv_text(
        ["name", "passed", "detail"], report["checks"], [f"all_passed {report['all_passed']}"]
    )
    _write((text,), args.output)
    return 0 if report["all_passed"] else CHECK_FAILURE


# each subcommand's flags, in the order its help lists them
_COMMANDS = {
    "stability": _Command(
        "classify one vanishing-count cell",
        (
            *_MODULI_FLAGS,
            _Flag("--dbeta", int, required=True, help="slots where beta vanishes"),
            _Flag("--dgamma", int, required=True, help="slots where gamma vanishes"),
        ),
        _cmd_stability,
    ),
    "census": _Command(
        "classify every cell and count partitions", _MODULI_FLAGS, _cmd_census
    ),
    "git-classify": _Command(
        "torus-quotient classes for a config file",
        (
            *_MODULI_FLAGS,
            _Flag("--input", required=True, help="JSON array of serialized configurations"),
            _Flag("--rmax", int, default=1, help="highest linearization power to sweep"),
        ),
        _cmd_git_classify,
    ),
    "local-model-verify": _Command(
        "run the exact local-model suite",
        (
            *_OUTPUT_FLAGS,
            _Flag("--truncation", int, default=DEFAULT_ORDER,
                  help=f"series truncation order (default {DEFAULT_ORDER})"),
            _Flag("--seed", int, default=0, help="suite RNG seed (default 0)"),
            _Flag("--cases", int, default=200, help="randomized cases per check (default 200)"),
        ),
        _cmd_local_verify,
    ),
}

# what _read_exact reads of each table, derived from it once: its flags by
# name, the namespace before any flag is read (in argparse's attribute
# order) and the names of its required flags
_FLAG_TABLES = {
    name: (
        {flag.name: flag for flag in command.flags},
        {"command": name, **{flag.dest: flag.default for flag in command.flags}},
        {flag.name for flag in command.flags if flag.required},
    )
    for name, command in _COMMANDS.items()
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_exact(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        code = _COMMANDS[args.command].run(args)
        # what is still buffered is written here, so a failed write is
        # reported like any other, not by the interpreter at exit
        sys.stdout.flush()
        return code
    except (_UsageError, InvalidGenusError, LengthMismatchError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # main has reported it; the rest of the buffer has no reader, and
        # the flush at exit must not report it a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
