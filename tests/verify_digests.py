"""Digests of ``verify`` output for the claims that ``tests/test_j_outputs.py``
does not pin: ``thm1``, ``thm2``, ``least``, ``rank``, ``odd-neg`` and
``regular``, in text and json, at n = 1..8.

Each digest is the sha256 of the exit code, stdout and stderr of one
in-process ``cli.main`` run, with ``timing_ms`` dropped from the JSON
document, which is the only part that changes from run to run.  A claim
asked of an n of the wrong parity is refused with exit code 1, and that
refusal is pinned too.

Run ``PYTHONPATH=src python tests/verify_digests.py`` to print the table
that ``tests/test_verify_outputs.py`` holds.  Regenerate it only for an
output change that is meant, and name the digests it moves.
"""

import contextlib
import hashlib
import io
import json

from fencemonoid import cli

CLAIMS = ("thm1", "thm2", "least", "rank", "odd-neg", "regular")
SIZES = range(1, 9)
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


def digests(claim):
    """n -> (text, json) digests of one claim."""
    return {n: tuple(digest(claim, n, fmt) for fmt in FORMATS) for n in SIZES}


def main():
    print("# claim -> n -> (text, json)")
    print("VERIFY = {")
    for claim in CLAIMS:
        print(f'    "{claim}": {{')
        for n, (text, js) in digests(claim).items():
            print(f'        {n}: ("{text}",')
            print(f'            "{js}"),')
        print("    },")
    print("}")


if __name__ == "__main__":
    main()
