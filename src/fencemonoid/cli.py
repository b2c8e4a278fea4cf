"""Command-line surface: enumeration, Green's analysis, factorization,
claim verification, with JSON/CSV export.

Exit codes: 0 = ok, 2 = a verified claim was violated (with a
counterexample in the payload), 1 = usage or resource error, or a
runtime check that failed (a factorization step, a witness pair, a
J-class row).  Text output is deterministic given the flags; timing
appears only in JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

from . import enumeration as en
from . import factor, fence, genfam, greens, pinj

SCHEMA_VERSION = "v1"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for claim violations
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@dataclass
class CommandResult:
    status: str  # ok | violation | error
    payload: dict
    timing_ms: float = 0.0


def _parse_element(text: str, n: int) -> pinj.PartialInjection:
    elt = pinj.parse(text)
    if elt.n != n:
        raise pinj.SizeMismatchError(
            f"element literal has n={elt.n} but --n {n} was given"
        )
    return elt


# --- enumerate ---------------------------------------------------------------


def cmd_enumerate(args) -> CommandResult:
    # the size is counted, and a table is built only to list its elements
    payload: dict = {"which": args.which, "count": en.count(args.n, args.which)}
    if args.contains is not None:
        elt = _parse_element(args.contains, args.n)
        payload["contains"] = _member(args.which, elt)
    if args.elements:
        payload["elements"] = [e.encode() for e in en.build(args.n, args.which).elements]
    return CommandResult("ok", payload)


def _member(which: str, elt: pinj.PartialInjection) -> bool:
    """Membership in the kind's semigroup by its own test: every element
    parsed at size n is a partial injection, so it lies in I_n."""
    if which == "IF":
        return fence.in_if(elt)
    return which == "I" or fence.in_pfi(elt)


def _render_enumerate(result, out):
    payload = result.payload
    out.write(f"count {payload['count']}\n")
    if "contains" in payload:
        out.write(f"contains {str(payload['contains']).lower()}\n")
    for enc in payload.get("elements", ()):
        out.write(enc + "\n")


# --- greens ------------------------------------------------------------------


def cmd_greens(args) -> CommandResult:
    if args.classes:
        if args.elements or args.witness:
            raise ValueError("--classes takes no element literals and no --witness")
        # one row per domain fingerprint, counted: no table is built
        rows = []
        for idx, (img, size, key) in enumerate(en.j_class_rows(args.n)):
            least = pinj.PartialInjection(args.n, img)
            inv, rep = greens.j_invariant(least).encode(), least.encode()
            if not fence.in_if(least):
                raise RuntimeError(f"class {idx}: representative {rep} is not in IF_{args.n}")
            if greens._shape(greens._block_order(least)) != key:
                raise RuntimeError(f"class {idx}: representative {rep} has another fingerprint")
            rows.append({"class": idx, "invariant": inv, "size": size, "representative": rep})
        return CommandResult("ok", {"count": sum(row["size"] for row in rows), "classes": rows})

    if len(args.elements) == 1:
        elts = [args.elements[0], args.elements[0]]
    elif len(args.elements) == 2:
        elts = args.elements
    else:
        raise ValueError("give one or two element literals, or --classes")
    a = _parse_element(elts[0], args.n)
    b = _parse_element(elts[1], args.n)

    verdicts = greens.relations(a, b)
    rels = ["R", "L", "H", "J"] if args.relation == "all" else [args.relation]
    payload = {
        "first": a.encode(),
        "second": b.encode(),
        "relations": {rel: verdicts["J" if rel == "D" else rel] for rel in rels},
        "invariants": {
            "first": greens.j_invariant(a).encode(),
            "second": greens.j_invariant(b).encode(),
        },
    }
    if args.witness:
        try:
            g, d = greens.j_witness(a, b)
        except greens.NotJRelatedError:
            payload["witness"] = None
        else:
            payload["witness"] = {
                "gamma": g.encode(),
                "delta": d.encode(),
                "verified": g * a * d == b,
            }
    return CommandResult("ok", payload)


def _render_greens(result, out):
    payload = result.payload
    if "classes" in payload:
        out.write(f"count {payload['count']}\n")
        for row in payload["classes"]:
            out.write(
                f"class {row['class']}: invariant {row['invariant']} "
                f"size {row['size']} rep {row['representative']}\n"
            )
        return
    for rel, verdict in payload["relations"].items():
        out.write(f"{rel} {str(verdict).lower()}\n")
    out.write(f"invariant first {payload['invariants']['first'] or '(empty)'}\n")
    out.write(f"invariant second {payload['invariants']['second'] or '(empty)'}\n")
    if "witness" in payload:
        w = payload["witness"]
        if w is None:
            out.write("witness none (not J-related)\n")
        else:
            out.write(f"witness gamma {w['gamma']}\n")
            out.write(f"witness delta {w['delta']}\n")
            out.write(f"witness verified {str(w['verified']).lower()}\n")


def _greens_csv(payload, out):
    writer = csv.writer(out)
    writer.writerow(["class", "invariant", "size", "representative"])
    for row in payload["classes"]:
        writer.writerow([row["class"], row["invariant"], row["size"], row["representative"]])


# --- factorize ---------------------------------------------------------------


def cmd_factorize(args) -> CommandResult:
    a = _parse_element(args.element, args.n)
    if args.target == "G":
        word = factor.factorize_g(a)
    else:
        word = factor.factorize_j(a)
    payload = {
        "target": args.target,
        "element": a.encode(),
        "word": word.text(),
        "length": len(word),
        "fallback": word.fallback,
        "provenance": word.provenance,
    }
    if args.target == "G":
        payload["bfs_letters"] = word.bfs_letters
    if args.verify:
        payload["verified"] = factor.eval_word(word) == a
    return CommandResult("ok", payload)


def _render_factorize(result, out):
    payload = result.payload
    out.write(f"word {payload['word']}\n")
    out.write(f"length {payload['length']}\n")
    out.write(f"fallback {str(payload['fallback']).lower()}\n")
    out.write(f"provenance {payload['provenance']}\n")
    if "bfs_letters" in payload:
        out.write(f"bfs_letters {payload['bfs_letters']}\n")
    if "verified" in payload:
        out.write(f"verified {str(payload['verified']).lower()}\n")


# --- verify ------------------------------------------------------------------


def _verify_thm1(n):
    size = en.count(n, "IF")
    gens = genfam.set_j(n)
    generated = en.generated_size(n, gens)
    ok = generated == size
    return ok, {"size": size, "generators": len(gens), "generated": generated}


def _verify_thm2(n):
    size = en.count(n, "IF")
    gens = genfam.set_g(n)
    # IF_n is closed under products, so the set its members generate lies
    # in it, and has its size only when it is all of it
    members = all(map(fence.in_if, gens))
    generated = en.generated_size(n, gens)
    ok = members and generated == size
    return ok, {"size": size, "generated": generated}


def _verify_least(n):
    table = en.build(n, "IF")
    least = en.least_generating_set(table)
    G = set(genfam.set_g(n))
    ok = least is not None and set(least) == G
    return ok, {
        "least": sorted(e.encode() for e in least) if least else None,
        "expected_size": n + 1,
    }


def _verify_rank(n):
    table = en.build(n, "IF")
    result = en.semigroup_rank(table)
    ok = result == ("exact", n + 1)
    return ok, {"rank": list(result), "expected": n + 1}


def _verify_odd_neg(n):
    table = en.build(n, "IF")
    high = [pinj.PartialInjection(n, img) for img in table.imgs if img.count(0) <= 1]
    generates = en.is_generating(table, high)
    least = en.least_generating_set(table)
    ok = not generates and least is None
    return ok, {
        "high_rank_generates": generates,
        "least_generating_set": None if least is None else sorted(e.encode() for e in least),
    }


def _verify_jcrit(n):
    if n <= 5:
        # literal oracle: a J b iff S^1aS^1 = S^1bS^1, and b in S^1aS^1
        # puts S^1bS^1 inside S^1aS^1, so the J-classes are the fibres of
        # the two-sided principal ideals, from one bulk pass
        table = en.build(n, "IF")
        crit = greens.j_classes(table)
        _, _, jsets = en.principal_ideals(table)
        oracle = en.fibres(jsets, table.imgs)
        summary = {"classes": len(crit), "pairs": len(table) ** 2}
    else:
        # partitions of the domains: the oracle by the images their maps
        # take (D = J in the inverse semigroup IF_n; see domain_j_classes),
        # the criterion by fingerprint.  No table is listed unless they differ
        oracle = en.domain_j_classes(n)
        crit = list(en._fingerprint_groups(n).values())
        summary = {"classes": len(crit), "oracle_classes": len(oracle)}
    crit_of, oracle_of = ({k: s for s in map(frozenset, cs) for k in s} for cs in (crit, oracle))
    if crit_of == oracle_of:
        return True, summary
    if n > 5:
        table = en.build(n, "IF")
    # each element is keyed by itself at n <= 5, by its domain above
    keys = table.imgs if n <= 5 else [greens.blocks(n, a.domain()) for a in table.elements]
    # the pair an all-pairs scan meets first: the first element in table
    # order whose classes differ, and the least of their difference
    i = next(i for i, k in enumerate(keys) if crit_of[k] != oracle_of[k])
    apart = crit_of[keys[i]] ^ oracle_of[keys[i]]
    j = next(j for j, k in enumerate(keys) if k in apart)
    criterion = keys[j] in crit_of[keys[i]]
    pair = [pinj.PartialInjection(n, table.imgs[x]).encode() for x in (i, j)]
    return False, {"counterexample": pair, "criterion": criterion, "oracle": not criterion}


def _verify_regular(n):
    pfi = en.build(n, "PFI")
    regulars = en.regular_elements(pfi)
    stray = [a for a in regulars if not fence.in_if(a)]
    ok = not stray
    return ok, {
        "pfi_size": len(pfi),
        "regular": len(regulars),
        "outside_if": [a.encode() for a in stray[:5]],
    }


_CLAIMS = {
    "thm1": (_verify_thm1, None),
    "thm2": (_verify_thm2, "even"),
    "least": (_verify_least, "even"),
    "rank": (_verify_rank, "even"),
    "odd-neg": (_verify_odd_neg, "odd"),
    "jcrit": (_verify_jcrit, None),
    "regular": (_verify_regular, None),
}


def cmd_verify(args) -> CommandResult:
    func, parity = _CLAIMS[args.claim]
    if parity == "even" and args.n % 2:
        raise genfam.OddAmbientError(f"claim {args.claim} applies to even n only")
    if parity == "odd" and args.n % 2 == 0:
        raise genfam.OddAmbientError(f"claim {args.claim} applies to odd n only")
    ok, payload = func(args.n)
    payload["claim"] = args.claim
    return CommandResult("ok" if ok else "violation", payload)


def _render_verify(result, out):
    payload = result.payload
    out.write(f"claim {payload['claim']}: {result.status}\n")
    for key in sorted(payload):
        if key != "claim":
            out.write(f"{key} {json.dumps(payload[key])}\n")


# --- wiring ------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="fence-monoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True, help="ambient size")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("enumerate", help="build and count I / PFI / IF")
    common(p)
    p.add_argument("--which", choices=("I", "PFI", "IF"), default="IF")
    p.add_argument("--elements", action="store_true", help="print all elements")
    p.add_argument("--contains", metavar="ELT", help="membership query")
    p.set_defaults(func=cmd_enumerate, render=_render_enumerate)

    p = sub.add_parser("greens", help="Green's relations, invariants, witnesses")
    common(p)
    p.add_argument("elements", nargs="*", help="one or two element literals")
    p.add_argument("--relation", choices=("R", "L", "H", "J", "D", "all"), default="all")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--classes", action="store_true", help="full J-class table of IF_n")
    p.set_defaults(func=cmd_greens, render=_render_greens)

    p = sub.add_parser("factorize", help="factor an element into high-rank letters")
    common(p)
    p.add_argument("--element", required=True, metavar="ELT")
    p.add_argument("--target", choices=("J", "G"), default="J")
    p.add_argument("--verify", action="store_true", help="re-evaluate the word")
    p.set_defaults(func=cmd_factorize, render=_render_factorize)

    p = sub.add_parser("verify", help="check a structural claim, report ok/violation")
    common(p)
    p.add_argument("--claim", choices=sorted(_CLAIMS), required=True)
    p.set_defaults(func=cmd_verify, render=_render_verify)
    return parser


def _emit(args, result: CommandResult) -> None:
    if args.format == "json":
        params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "render", "command", "n", "format") and v is not None
        }
        doc = {
            "command": args.command,
            "n": args.n,
            "params": params,
            "status": result.status,
            "result": result.payload,
            "timing_ms": result.timing_ms,
            "version": SCHEMA_VERSION,
        }
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    elif args.format == "csv":
        _greens_csv(result.payload, sys.stdout)
    else:
        args.render(result, sys.stdout)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    if args.n < 1:
        sys.stderr.write("error: --n must be positive\n")
        return 1
    try:
        if args.format == "csv" and not (args.command == "greens" and args.classes):
            raise ValueError("csv format is only available for tabular output (greens --classes)")
        t0 = time.perf_counter()
        result = args.func(args)
        result.timing_ms = (time.perf_counter() - t0) * 1000.0
        _emit(args, result)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        # a RuntimeError is a failed runtime check, FactorizationError among them
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0 if result.status == "ok" else 2


if __name__ == "__main__":
    sys.exit(main())
