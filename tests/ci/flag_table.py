"""The flag table reads every argv it accepts as argparse does.

main reads a subcommand name and exact "--flag value" pairs from the
subcommand's flag table (cli._read_exact) and builds no parser; the
top-level parser built from the same table must return the same namespace
for every such argv.  argparse's reading of values that start with "-" has
changed between releases, so every release checks it.  Run from the
checkout:

    PYTHONPATH=src python tests/ci/flag_table.py
"""

import sys
from random import Random

from su12fiber import cli

# values by the kind of flag, on both sides of the rule for what the
# flag table reads: "-" and ASCII digits, or no "-" first
VALUES = {
    int: ["0", "2", "-1", "-0", "-12", "+3", " 3", "3_0", "٣", "1" * 4300,
          "-٣", "1.5", "-1.5", "-5 ", "1" * 4301],
    str: ["c.json", "census", "x y", "", "-12", "-", "-h", "--", "--degree=-1"],
}


def main() -> None:
    rng = Random(0)
    hits = 0
    for case in range(20000):
        name = rng.choice(list(cli._COMMANDS))
        flags = cli._COMMANDS[name].flags
        # now and then a required flag left out, some flags repeated, any order
        chosen = [f for f in flags if f.required and rng.random() < 0.95]
        chosen += rng.choices(flags, k=rng.randrange(5))
        rng.shuffle(chosen)
        argv = [name]
        for flag in chosen:
            values = [*flag.choices, "xml"] if flag.choices else VALUES[flag.type or str]
            argv += [flag.name, rng.choice(values)]
        args = cli._read_exact(argv)
        if args is None:
            continue
        hits += 1
        try:
            expected = cli._build_parser().parse_args(argv)
        except cli._UsageError as exc:
            expected = f"error: {exc}"
        if repr(args) != repr(expected):
            sys.exit(f"{argv!r}: flag table reads {args!r}, argparse {expected!r}")
    print(f"{case + 1} argv, {hits} read from the flag table, each as argparse reads it")


if __name__ == "__main__":
    main()
