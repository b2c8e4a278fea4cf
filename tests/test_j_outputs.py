"""Pinned output of the J layer: ``verify --claim jcrit``, ``greens
--classes`` and ``greens`` pair queries.

Each digest is the sha256 of stdout, with ``timing_ms`` dropped from the
JSON document, which is the only part that changes from run to run.  A
pair-query digest also covers each run's stderr and exit code.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from fencemonoid import cli, greens
from fencemonoid import enumeration as en
from fencemonoid.pinj import PartialInjection
import tuple_kernel as slow

# n -> (text, json)
JCRIT = {
    1: ("a1eceeffa112e7e5cb39d954fb3a707655d604c5b5c4ca61ef14fa94e9fb7a23",
        "e6c624e98c9ea0abf2461dedb5dd2a3dca39ff6df7eaf8efdf3e04152f537c37"),
    2: ("a8202cc8725a99d4bbe78f21df49173d2a633f065ee775e9cf2ae333c9dc7544",
        "688ee526ed997d7e4cf10b122d8bd1ccf5523047918eec32ec31ec72a71dfab0"),
    3: ("009fa7f597e8e6116821ae2fc808c8905fe6db6714d25680f265754375d523a7",
        "0be4ee8fa5aaeec7ffde0f474d25cfc7967ce7b059db20da6c299e6c5ca33f42"),
    4: ("d91bcf951c97b3bd33c5a3be7d1ee02565061c3eafb200486adbecc0700a01c8",
        "c65a72fc721aa2bb915b0a738184d09ff413152bc19071ca8fd9af04f5127312"),
    5: ("a5243e78a060b6dc43c06ecba10df0b48d199976cceb1e56a751e61d4f15414b",
        "df0913ab944cf43da2dfab5b12844e8e1f9a7d4d50188117b1eadbce9fabe14b"),
    6: ("7a4388a15f0353bb9268e2a7a546a930c06d680fcf57452e67167a31567481e0",
        "88b7e55fc33150eb88c9c2965cf765cada0aeac855118e35700477c3257b5465"),
    7: ("fe910f9336cf2ed9644df8983c06e88bd12667654b20bad6630712d66da46593",
        "113e3f805b6b76b22173e6f30b75ceffc09016d6126256666f0a8809d0335c8d"),
    8: ("db211d1bfa3932c993666fe1629c4233fe04b0817e0c0a088cc0d013fe55b99d",
        "128cf1d5ea385585fedcb4429e1a70c3188f5ac8f8328a210d2e93c75dc14da2"),
}

# n -> (text, json, csv)
CLASSES = {
    4: ("1fc1eb8abe98db8ffbdcb6f0273659d02bac72315b56281a5814337890b959bd",
        "b24bb46d1aa77818599f457c1bbba9eb3d7a1ba9250bb93e7afddb65d4965662",
        "8c77b60b3e95facf39706754a161708ab1ad081aa9ffe33fefaccd87a90102d9"),
    5: ("8e9711605028387bd3f316d8d6e80c78ac7211ab40196966d3459253bf3b1ac8",
        "1addda78ab573caf771f27cd943d60db9f81b50157bd514709266d6848b5e11b",
        "3e7e106044c2175428a7d2979dbba23c3512c27269fcef5f8c9e6284094fe2d2"),
    6: ("6659fce0910bd6a87028daa1e6381c2effae318d484d067f03c5422acf8d7656",
        "441c8ee25163bdb4e882664fdf71901ce02397bd9bfec20add170e11a0d81a20",
        "b6b9ad2a1938d78d1c4a7512fbab441d82f11d2cee8cca66dc9ae4e4089789f0"),
    7: ("c6b5d6419023d16cfe65ca072f429a0f2c28f95c8c63ba144c21c546c1549cde",
        "9d1e4e08412179d83680f10eeee88386d1137cf7ffc5a639c21ecc5591c003b4",
        "dee6083aa4c62b7e97ab02ad4ff1bf2ef1fee69519936dd932c095ee136a2037"),
    8: ("cadf7b732714bb26d73530329ad65589a27bcaefa03d373427f94eba0d21a54e",
        "e3887276330384a310fa5a22357b01b0f2866fd4b2cdddaaf8f9ccfc4957da11",
        "046f2a76af893567ad9ec73de9d717dd4da48ebb032f70197c4ed9ab0a244962"),
}


# flags -> (text, json) over every pair of ``_pairs``
PAIR_QUERIES = {
    ("--relation", "all"): (
        "1cf83a516a5a89ce490728381492fcbbd7efeb067ba3e1f7fcfd7ee199992cff",
        "aea2de5aa3156ceef2761cd8b9855564803617b3d5ce47950378820a6051c8e0",
    ),
    ("--relation", "D"): (
        "13976985b05cc1464f7031a131112ed95e85b4f9ba5740d0a1b98df83f3a3d96",
        "ff7a6213ca5ee31829cb9518b429eafd0fdefd7e76eb11f6a45ee1e63707f828",
    ),
    ("--witness",): (
        "60076cd46d8342dedd7e7047ff949e1ab97de94a247d03664a91c09273537379",
        "94d1925f274966c6859cba8173c436217ce93b3c3350982e8c7a4a18ede848b2",
    ),
    ("--relation", "H", "--witness"): (
        "8c318359263e4e57855b3649aa3a2cbf609060d070f8f07a9898d7a2ef418c8a",
        "316e8db9db76eef0d99b130b4ae620732045d1c0866aee2b68ad1eed64ccd120",
    ),
}


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(*argv):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    if argv[-1] == "json":
        doc = json.loads(out)
        del doc["timing_ms"]
        out = json.dumps(doc, sort_keys=True) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(JCRIT))
def test_verify_jcrit_output_pinned(n):
    got = tuple(
        digest("verify", "--n", str(n), "--claim", "jcrit", "--format", fmt)
        for fmt in ("text", "json")
    )
    assert got == JCRIT[n]


@pytest.mark.parametrize("n", sorted(CLASSES))
def test_greens_classes_output_pinned(n):
    got = tuple(
        digest("greens", "--n", str(n), "--classes", "--format", fmt)
        for fmt in ("text", "json", "csv")
    )
    assert got == CLASSES[n]


def _pairs(table):
    """(--n, first, second) for every ordered pair of IF_3, 200 seeded
    pairs of IF_6 (half of them drawn from one J-class), a J-related
    pair at n = 32, a non-member and an ``--n`` mismatch."""
    if3 = [e.encode() for e in table(3)]
    pairs = [("3", a, b) for a in if3 for b in if3]
    rng = random.Random(23)
    elements, imgs = table(6).elements, table(6).imgs
    classes = greens.j_classes(table(6))
    for i in range(200):
        a = rng.choice(elements)
        pool = next(c for c in classes if bytes(a.img) in c) if i % 2 else imgs
        pairs.append(("6", a.encode(), PartialInjection(6, tuple(rng.choice(pool))).encode()))
    pairs += [
        ("32", "n=32:[1>1 2>2 3>3 7>7 8>8 20>20]", "n=32:[9>31 10>30 11>29 25>7 26>6 14>14]"),
        ("6", "n=6:[1>1]", "n=6:[1>3 2>2 4>6 5>5 6>4]"),
        ("5", "n=6:[1>1]", "n=6:[1>1]"),
    ]
    return pairs


@pytest.mark.parametrize("flags", sorted(PAIR_QUERIES))
def test_greens_pair_output_pinned(table, flags):
    pairs = _pairs(table)
    got = []
    for fmt in ("text", "json"):
        h = hashlib.sha256()
        for n, a, b in pairs:
            code, out, err = run("greens", "--n", n, a, b, *flags, "--format", fmt)
            if fmt == "json" and code == 0:
                doc = json.loads(out)
                del doc["timing_ms"]
                out = json.dumps(doc, sort_keys=True) + "\n"
            h.update(f"{code}\0{out}\0{err}\0".encode())
        got.append(h.hexdigest())
    assert tuple(got) == PAIR_QUERIES[flags]


def _pair_scan(n):
    """``verify --claim jcrit`` at n <= 5 as the all-pairs scan the fibre
    comparison replaced: the pairs in table order, each tested for
    same-class under the criterion and for mutual two-sided ideal
    membership, stopping at the first that disagree."""
    table = en.build(n, "IF")
    crit = greens.j_classes(table)
    _, _, jsets = en.principal_ideals(table)
    fiber = [0] * len(table)
    for c, cls in enumerate(crit):
        for a in cls:
            fiber[table.index[a]] = c
    for i, a in enumerate(table.elements):
        for j, b in enumerate(table.elements):
            criterion = fiber[i] == fiber[j]
            oracle = (jsets[i] >> j) & (jsets[j] >> i) & 1 == 1
            if criterion != oracle:
                return False, {
                    "counterexample": [a.encode(), b.encode()],
                    "criterion": criterion,
                    "oracle": oracle,
                }
    return True, {"classes": len(crit), "pairs": len(table) ** 2}


def _by_image(table):
    classes = {}
    for img, a in zip(table.imgs, table.elements):
        classes.setdefault(a.image(), []).append(img)
    return list(classes.values())


def _split_largest(j_classes):
    """``j_classes`` with its largest class split into halves."""

    def planted(table):
        classes = j_classes(table)
        k = max(range(len(classes)), key=lambda k: len(classes[k]))
        half = len(classes[k]) // 2
        if not half:
            return classes
        return classes[:k] + [classes[k][:half], classes[k][half:]] + classes[k + 1:]

    return planted


def _planting(attr, value):
    """Monkeypatch ``greens.<attr>`` with ``value``."""
    return lambda monkeypatch: monkeypatch.setattr(greens, attr, value)


@pytest.mark.parametrize(
    "plant, pair, criterion, oracle",
    [
        # rank alone merges the two rank-2 maps of different J-classes
        (_planting("_shape", lambda order: (sum(length for _, length in order),)),
         ["n=4:[3>1 4>2]", "n=4:[2>1 4>3]"], True, False),
        # the domain itself splits one J-class into its R-classes
        (_planting("_shape", lambda order: tuple(sorted(order))),
         ["n=4:[4>1]", "n=4:[3>1]"], False, True),
        # the image splits one J-class into its L-classes
        (_planting("j_classes", _by_image), ["n=4:[4>1]", "n=4:[4>2]"], False, True),
        # one class split in two
        (_planting("j_classes", _split_largest(greens.j_classes)),
         ["n=4:[2>1 4>3]", "n=4:[1>1 3>4]"], False, True),
        # unplanted: the criterion holds
        (None, None, None, None),
    ],
)
def test_jcrit_reports_first_counterexample_in_table_order(
    monkeypatch, plant, pair, criterion, oracle
):
    if plant is not None:
        plant(monkeypatch)
    # the fibre comparison returns exactly what the all-pairs scan does
    for n in range(1, 6):
        assert cli._verify_jcrit(n) == _pair_scan(n), n
    if pair is None:
        return
    code, out, err = run("verify", "--n", "4", "--claim", "jcrit")
    assert (code, err) == (2, "")
    assert out == (
        "claim jcrit: violation\n"
        f"counterexample {json.dumps(pair)}\n"
        f"criterion {json.dumps(criterion)}\n"
        f"oracle {json.dumps(oracle)}\n"
    )
    code, out, _ = run("verify", "--n", "4", "--claim", "jcrit", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 2
    assert (result["counterexample"], result["criterion"], result["oracle"]) == (
        pair, criterion, oracle,
    )


def test_verify_jcrit_lists_no_table_at_n_6_to_10(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was listed for verify --claim jcrit")

    monkeypatch.setattr(en, "build", refuse)
    monkeypatch.setattr(greens, "j_classes", refuse)
    for n, classes in ((6, 19), (7, 26), (8, 42), (9, 55), (10, 86)):
        code, out, err = run("verify", "--n", str(n), "--claim", "jcrit")
        assert (code, out, err) == (
            0, f"claim jcrit: ok\nclasses {classes}\noracle_classes {classes}\n", "",
        )
        code, out, err = run("verify", "--n", str(n), "--claim", "jcrit", "--format", "json")
        doc = json.loads(out)
        del doc["timing_ms"]
        assert (code, err) == (0, "")
        assert doc == {
            "command": "verify", "n": n, "params": {"claim": "jcrit"},
            "result": {"claim": "jcrit", "classes": classes, "oracle_classes": classes},
            "status": "ok", "version": "v1",
        }


def _domain_plants(table):
    """The wrong criteria of the n <= 5 test above, restated as domain
    groupings in the shape of ``en._fingerprint_groups``: name -> plant."""
    real = en._fingerprint_groups

    def keyed(key):
        def planted(n):
            groups = {}
            for dom in en._domains(n):
                groups.setdefault(key(n, dom), []).append(greens.blocks(n, dom))
            return groups

        return planted

    def least_image(n, dom):
        # the image set of the least map with this domain
        return next(
            tuple(sorted(set(img) - {0})) for img in table(n).imgs
            if tuple(x for x, v in enumerate(img, 1) if v) == dom
        )

    def split_largest(n):
        groups = list(real(n).values())
        k = max(range(len(groups)), key=lambda k: len(groups[k]))
        half = len(groups[k]) // 2
        return dict(enumerate(groups[:k] + [groups[k][:half], groups[k][half:]] + groups[k + 1:]))

    return {
        # rank alone merges J-classes
        "rank": keyed(lambda n, dom: len(dom)),
        # the domain itself splits each J-class into its R-classes
        "domain": keyed(lambda n, dom: dom),
        # the image of each domain's least map splits J-classes too
        "image": keyed(least_image),
        # one class split in two
        "split": split_largest,
    }


def _table_scan(n, crit_groups, table):
    """``verify --claim jcrit`` at n >= 6 restated on the table: each
    element in the criterion class of its domain, the oracle classes of
    ``tuple_kernel.inverse_j_classes``, and the first element in table
    order whose two classes differ, with the least member of their
    symmetric difference."""
    tbl = table(n)
    crit = slow.lift_domain_classes(tbl, crit_groups)
    oracle = slow.inverse_j_classes(tbl)
    crit_of, oracle_of = ({a: set(c) for c in cs for a in c} for cs in (crit, oracle))
    a = next(a for a in tbl.imgs if crit_of[a] != oracle_of[a])
    b = min(crit_of[a] ^ oracle_of[a])
    pair = [PartialInjection(n, img).encode() for img in (a, b)]
    return pair, b in crit_of[a]


@pytest.mark.parametrize("name", ["rank", "domain", "image", "split"])
def test_jcrit_at_n_6_and_7_reports_the_table_scan_pair(monkeypatch, table, name):
    plant = _domain_plants(table)[name]
    for n in (6, 7):
        pair, criterion = _table_scan(n, list(plant(n).values()), table)
        monkeypatch.setattr(en, "_fingerprint_groups", plant)
        code, out, err = run("verify", "--n", str(n), "--claim", "jcrit")
        assert (code, err) == (2, "")
        assert out == (
            "claim jcrit: violation\n"
            f"counterexample {json.dumps(pair)}\n"
            f"criterion {json.dumps(criterion)}\n"
            f"oracle {json.dumps(not criterion)}\n"
        )
        code, out, _ = run("verify", "--n", str(n), "--claim", "jcrit", "--format", "json")
        assert code == 2
        assert json.loads(out)["result"] == {
            "claim": "jcrit", "counterexample": pair, "criterion": criterion,
            "oracle": not criterion,
        }
        monkeypatch.undo()
