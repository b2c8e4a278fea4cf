import pytest

from fencemonoid import enumeration as en

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
    are unpacked at ``table.position(a)``: a non-member raises
    NotMemberError.
    """
    masks = {}

    def get(tbl, a):
        pos = tbl.position(a)
        if tbl not in masks:
            masks[tbl] = en.principal_ideals(tbl)
        return tuple(
            frozenset(e for i, e in enumerate(tbl.elements) if m[pos] >> i & 1)
            for m in masks[tbl]
        )

    return get
