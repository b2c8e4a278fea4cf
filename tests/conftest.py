import pytest

from fencemonoid import enumeration as en
from fencemonoid import genfam
from fencemonoid.fence import in_if, in_pfi
from fencemonoid.pinj import PartialInjection
from tuple_kernel import i_imgs

_cache = {}


@pytest.fixture(scope="session")
def table():
    """Session-cached access to built tables: table(n, which)."""

    def get(n, which="IF"):
        key = (n, which)
        if key not in _cache:
            _cache[key] = en.build(n, which)
        return _cache[key]

    return get


@pytest.fixture(scope="session")
def ideal_sets():
    """ideal_sets(table, a): a's (R, L, J) principal ideals as element sets.

    One bulk ``principal_ideals`` pass per table gives the masks, which
    are unpacked at ``table.index[a.raw]``: a non-member raises
    KeyError.
    """
    masks = {}

    def get(tbl, a):
        pos = tbl.index[a.raw]
        if tbl not in masks:
            masks[tbl] = en.principal_ideals(tbl)
        return tuple(
            frozenset(e for i, e in enumerate(tbl.elements) if m[pos] >> i & 1)
            for m in masks[tbl]
        )

    return get


@pytest.fixture(scope="session")
def filter_oracle():
    """filter_oracle(n, which): the sorted img of every map of I_n that
    passes the membership test of ``which`` (PFI or IF), the brute-force
    reference for ``enumeration.place_blocks``; every map of I_n for I."""

    def get(n, which):
        if which == "I":
            return sorted(i_imgs(n))
        test = {"PFI": in_pfi, "IF": in_if}[which]
        return sorted(img for img in i_imgs(n) if test(PartialInjection(n, img)))

    return get


@pytest.fixture
def last_rotations_missed(monkeypatch):
    """``genfam._table_word`` with the parity-repair rotations at a = n-2
    planted out of the table, and the memo of ``g_word_for`` cleared
    around the plant."""
    real = genfam._table_word

    def planted(n, target):
        if target in (genfam._eta_left(n, n - 2), genfam._eta_right(n, n - 2)):
            return None
        return real(n, target)

    monkeypatch.setattr(genfam, "_table_word", planted)
    genfam.g_word_for.cache_clear()
    yield
    genfam.g_word_for.cache_clear()
