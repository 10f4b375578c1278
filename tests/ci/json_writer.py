"""The reports' JSON writer against json.dumps(indent=2, sort_keys=True).

cli._json_text writes every JSON report, the census's head and tail
included, with its own recursive writer.  Its text must equal
json.dumps(payload, indent=2, sort_keys=True) + "\\n" for every payload the
reports hold, and an int past the int_max_str_digits limit must raise the
same ValueError.  The json module's pure-Python encoder and its string
escaping can change between releases, so every release checks it.  Run
from the checkout:

    PYTHONPATH=src python tests/ci/json_writer.py
"""

import json
import sys
from random import Random

from su12fiber import cli

PAYLOADS = 20000
# characters JSON escapes or that need \u escapes in ASCII output: quotes,
# backslash, controls, DEL, non-ASCII, a line separator, lone surrogates, a
# byte-order mark and a character outside the basic plane
SPECIAL = '"\\/\x00\x08\x1f\x7f\x80\xe9\u2028\ud800\udfff\ufeff\U0001d11e'


def label(rng):
    def char():
        roll = rng.random()
        if roll < 0.4:
            return rng.choice(SPECIAL)
        if roll < 0.7:
            return chr(rng.randrange(32, 127))
        return chr(rng.randrange(sys.maxunicode + 1))

    return "".join(char() for _ in range(rng.randrange(9)))


def integer(rng):
    roll = rng.random()
    if roll < 0.03:
        # 4,299 to 4,301 digits: past 4,300, int.__repr__ raises for both
        digits = rng.choice((4299, 4300, 4301))
        value = 10 ** (digits - 1) + rng.getrandbits(14300) % 10 ** (digits - 1)
    elif roll < 0.5:
        value = rng.randrange(100)
    else:
        value = rng.getrandbits(rng.randrange(1, 200))
    return value if rng.random() < 0.5 else -value


def maybe(rng, make):
    return None if rng.random() < 0.3 else make(rng)


def listed(rng, make, most):
    return [make(rng) for _ in range(rng.randrange(most + 1))]


def config(rng):
    def point(rng):
        return rng.choice(("zero", "inf", {"t": label(rng)}))

    return {"base": label(rng), "points": listed(rng, point, 5)}


def witness(rng):
    return {"power": integer(rng), "exponents": listed(rng, integer, 5)}


def stability(rng):
    keys = ("genus", "degree", "slots", "d_beta", "d_gamma", "d_rest", "gamma_bound",
            "beta_bound")

    def inequality(rng):
        return {"comparison": label(rng), "values": label(rng), "holds": rng.random() < 0.5}

    return {
        "command": "stability",
        **{key: integer(rng) for key in keys},
        "inequalities": listed(rng, inequality, 4),
        "stability": label(rng),
        "stratum_dimension": maybe(rng, integer),
        "split_degrees": maybe(rng, lambda rng: listed(rng, integer, 2)),
    }


def git_classify(rng):
    def report(rng):
        return {
            "index": integer(rng),
            "input": config(rng),
            "closed_form": label(rng),
            "brute_force": label(rng),
            "agreement": rng.random() < 0.5,
            "fixed_point": rng.random() < 0.5,
            "monomials_enumerated": integer(rng),
            "semistable_witness": maybe(rng, witness),
            "stable_witness": maybe(rng, witness),
            "representative": maybe(rng, config),
        }

    keys = ("genus", "degree", "slots", "weight_parameter", "r_max")
    return {
        "command": "git-classify",
        **{key: integer(rng) for key in keys},
        "configurations": listed(rng, report, 3),
        "all_agree": rng.random() < 0.5,
    }


def local_model_verify(rng):
    def check(rng):
        return {"name": label(rng), "passed": rng.random() < 0.5, "detail": label(rng)}

    return {
        "command": "local-model-verify",
        **{key: integer(rng) for key in ("cases", "order", "seed")},
        "all_passed": rng.random() < 0.5,
        "checks": listed(rng, check, 4),
    }


def census_head(rng):
    return {"command": "census", "degree": integer(rng), "genus": integer(rng)}


def census_tail(rng):
    totals = {label(rng): integer(rng) for _ in range(rng.randrange(6))}
    return {"slots": integer(rng), "totals": totals}


SCHEMAS = (stability, git_classify, local_model_verify, census_head, census_tail)


def text_or_error(write, payload):
    try:
        return write(payload)
    except ValueError as exc:
        return ValueError, str(exc)


def dumps_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main() -> None:
    rng = Random(0)
    refused = 0
    for case in range(PAYLOADS):
        payload = rng.choice(SCHEMAS)(rng)
        written = text_or_error(cli._json_text, payload)
        expected = text_or_error(dumps_text, payload)
        if written != expected:
            sys.exit(f"payload {case} ({payload!r:.300}): the writer gives {written!r:.300}, "
                     f"json.dumps {expected!r:.300}")
        refused += isinstance(written, tuple)
    # json.dumps prints these; the writer refuses them (a bool subclass
    # cannot be made, so an int subclass stands for it)
    for value in (1.0, (1, 2), type("IntSubclass", (int,), {})(1), {1: "a"}, {True: "a"}):
        try:
            cli._json_text({"value": [value]})
        except TypeError:
            continue
        sys.exit(f"the writer printed {value!r}, which no report holds")
    print(f"{PAYLOADS} payloads written as json.dumps writes them ({refused} raising its "
          f"ValueError for an int past the digit limit); floats, tuples, int subclasses and "
          f"non-str keys refused")


if __name__ == "__main__":
    main()
