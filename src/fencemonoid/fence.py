"""The up-fence (zigzag) order on {1..n} and fence-preservation tests.

In the up-fence, ``x <_f y`` holds exactly when ``|x - y| == 1`` and x is
odd; odd points are minimal, even points maximal.  Only the up-fence is
implemented.  A map preserves the order iff every pair of adjacent domain
points has adjacent images with the odd one mapping below, so membership
testing is a single O(n) scan of consecutive pairs.
"""

from __future__ import annotations

from enum import Enum

from .pinj import OutOfRangeError, PartialInjection, inverse_img


class Membership(Enum):
    NOT_PFI = "NotPFI"
    PFI_ONLY = "PFIOnly"
    IF = "IF"


class NotInIFError(ValueError):
    """Raised when an operation requires both directions fence-preserving."""


def fence_less(n: int, x: int, y: int) -> bool:
    """True iff x <_f y in the up-fence on {1..n}."""
    if not (1 <= x <= n and 1 <= y <= n):
        raise OutOfRangeError(f"points must lie in 1..{n}, got ({x}, {y})")
    return abs(x - y) == 1 and x % 2 == 1


def _preserves(img) -> bool:
    """Forward fence-preservation of an image sequence (slot x-1 holds
    the image of x, 0 means undefined).

    The fence's comparability graph is the path 1-2-...-n, so only pairs
    (x, x+1) with both points defined need checking: their images must be
    adjacent, with the odd point of the pair mapping to the odd image.
    Given adjacent images, that holds iff x and its image agree mod 2.
    """
    u = 0  # the image of point x; v is the image of x + 1
    for x, v in enumerate(img):
        if u and v and (u - v not in (1, -1) or (u - x) & 1):
            return False
        u = v
    return True


def preserves_fence(a: PartialInjection) -> bool:
    """Forward fence-preservation: x <_f y implies xa <_f ya on the domain."""
    return _preserves(a.raw)


def membership(a: PartialInjection) -> Membership:
    """Classify a map as NotPFI, PFIOnly (one direction), or IF (both)."""
    if not preserves_fence(a):
        return Membership.NOT_PFI
    if not _preserves(inverse_img(a.raw)):
        return Membership.PFI_ONLY
    return Membership.IF


def in_pfi(a: PartialInjection) -> bool:
    return preserves_fence(a)


def in_if(a: PartialInjection) -> bool:
    """Both directions preserve the fence.  The inverse is tested as its
    bytes image from :func:`~fencemonoid.pinj.inverse_img`; no inverse
    element is built."""
    img = a.raw
    return _preserves(img) and _preserves(inverse_img(img))


def require_if(a: PartialInjection) -> None:
    if not in_if(a):
        raise NotInIFError(f"{a.encode()} is not fence-preserving in both directions")
