"""Digests of ``verify`` output for the claims that ``tests/test_j_outputs.py``
does not pin: ``thm1``, ``thm2``, ``least``, ``rank``, ``odd-neg`` and
``regular``, in text and json, at n = 1..8, and ``least``, ``rank`` and
``odd-neg`` at n = 9 and 10.

Each digest is the sha256 of the exit code, stdout and stderr of one
in-process ``cli.main`` run, with ``timing_ms`` dropped from the JSON
document, which is the only part that changes from run to run.  A claim
asked of an n of the wrong parity is refused with exit code 1, and that
refusal is pinned too.

Run ``PYTHONPATH=src python tests/verify_digests.py`` to print the two
tables that ``tests/test_verify_outputs.py`` holds: ``VERIFY``, which
the test suite checks, and ``VERIFY_LARGE``, which a ``python -O`` CI
step checks with :func:`moved`.  Regenerate them only for an
output change that is meant, and name the digests it moves.
"""

import contextlib
import hashlib
import io
import json

from fencemonoid import cli

CLAIMS = ("thm1", "thm2", "least", "rank", "odd-neg", "regular")
SIZES = range(1, 9)
# the claims that scan the irreducibles, past the sizes the test suite runs
LARGE_CLAIMS = ("least", "rank", "odd-neg")
LARGE_SIZES = (9, 10)
FORMATS = ("text", "json")


def digest(claim, n, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--claim", claim, "--n", str(n), "--format", fmt])
    out = out.getvalue()
    if fmt == "json" and out:
        doc = json.loads(out)
        del doc["timing_ms"]
        out = json.dumps(doc, sort_keys=True) + "\n"
    text = f"{code}\0{out}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def digests(claim, sizes):
    """n -> (text, json) digests of one claim."""
    return {n: tuple(digest(claim, n, fmt) for fmt in FORMATS) for n in sizes}


def moved(table, sizes):
    """(claim, n) for each run whose digests differ from ``table``'s."""
    return [
        (claim, n)
        for claim, by_n in table.items()
        for n, got in digests(claim, sizes).items()
        if got != by_n[n]
    ]


def print_table(name, claims, sizes):
    print(f"{name} = {{")
    for claim in claims:
        print(f'    "{claim}": {{')
        for n, (text, js) in digests(claim, sizes).items():
            print(f'        {n}: ("{text}",')
            print(f'            "{js}"),')
        print("    },")
    print("}")


def main():
    print("# claim -> n -> (text, json)")
    print_table("VERIFY", CLAIMS, SIZES)
    print_table("VERIFY_LARGE", LARGE_CLAIMS, LARGE_SIZES)


if __name__ == "__main__":
    main()
