"""Pinned output of the factorization layer: whole words, not only their values.

Each digest is the sha256 of one tab-separated line per input element:
its encoding, the word's text, provenance, fallback flag and
``bfs_letters`` count (always 0).  A change to any
letter of any word, or to the path that produced it, changes the digest.
"""

import hashlib

import pytest

from fencemonoid import factor
from test_factor import _seeded_elements

# n -> digest of factorize_j over every element of IF_n
J_WORDS = {
    1: "d9285dc397e764767812ca671fdb0377bafe3336c332b73b7a655cbf27e2eb93",
    2: "873335219a33f9adc735a1350978c9b73ac8c413e402bac0c3936d3e53bacbd3",
    3: "8556975066beeafb066405efca7cb47c49f47bdb5b3b9cbc8f1d16d055f3d049",
    4: "bdfca3503ebada609a5d0d7708320b800ce885c870250ddd3adb675df2501586",
    5: "97be281c1b807d51453481976e6ea49b6b80ed3636c2b89885f48ddfeb43ed22",
    6: "f33c3643b7b3670b08443269a566ea205c7ec09be7260cfd9adfba78db4ff06f",
    7: "26cd676e14f0c1c6a48a5dfafe457ef89fedec4345fc4ed3829826da9a9d32b9",
}

# n -> digest of factorize_g over every element of IF_n
G_WORDS = {
    2: "ec98c730a7bc660bbb4c63a464689061d6963e13c55561b3d63b356beae7a886",
    4: "05ed9fef92442ed164145723cda8cba527f83e58aa853754fe1c9540c2d8f7fa",
    6: "a2df9da1266d4c8beac56b38fcc1fe032e98b9c3e520cbe5056c83abe2ac6300",
}

# n -> (factorize_j digest, factorize_g digest) over 100 seeded elements
SEEDED = {
    10: ("8acd8e50cd92c6d73de65e07a733f4325939c57cc8b0ef4da5405e3676d64bd6",
         "cd29f8db51a8a8360b615e5d3b90c281a3576d1ee7b1792e3108295d7a7b4ab2"),
    32: ("1a2531a847661d62f79b6ea85971e2a7a38aebbc08d1f8b40b7a93b952ad01f1",
         "56dd8120c258cc6dc7b7661b0431c4641308716f77aacad3dbada918a125c43e"),
}


def _line(a, word):
    fields = (a.encode(), word.text(), word.provenance, word.fallback, word.bfs_letters)
    return "\t".join(map(str, fields))


def digest(factorize, elements):
    text = "".join(_line(a, factorize(a)) + "\n" for a in elements)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(J_WORDS))
def test_factorize_j_words_pinned(table, n):
    assert digest(factor.factorize_j, table(n)) == J_WORDS[n]


@pytest.mark.parametrize("n", sorted(G_WORDS))
def test_factorize_g_words_pinned(table, n):
    assert digest(factor.factorize_g, table(n)) == G_WORDS[n]


@pytest.mark.parametrize("n", sorted(SEEDED))
def test_seeded_words_pinned(n):
    elements = _seeded_elements(n, n, 100)
    got = (digest(factor.factorize_j, elements), digest(factor.factorize_g, elements))
    assert got == SEEDED[n]
