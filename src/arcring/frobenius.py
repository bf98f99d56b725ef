"""The rank-two Frobenius algebra, and the one integer-combination type.

The algebra is Z[X]/(X^2) with basis {1, X}.  Merging two circles
multiplies their labels; splitting a circle comultiplies:

    1 * 1 = 1     1 * X = X * 1 = X     X * X = 0
    split(1) = 1 (x) X + X (x) 1        split(X) = X (x) X

Labels are the one-character strings "1" and "X" so that label words of
a multi-circle diagram are plain strings.

Every module the package computes in (the ring H_n, the bimodules
F(U_i), the square-free quotient of Z[X_1..X_2n]) is a free Z-module,
and each of its elements is a Combination of basis keys.
"""

from __future__ import annotations

from .errors import SizeMismatchError

ONE = "1"
X = "X"
LABELS = (ONE, X)

# merge table: pair of labels -> tuple of (label, coefficient)
MERGE = {
    (ONE, ONE): ((ONE, 1),),
    (ONE, X): ((X, 1),),
    (X, ONE): ((X, 1),),
    (X, X): (),
}

# split table: label -> tuple of ((label, label), coefficient);
# both outputs are symmetric in the two tensor factors
SPLIT = {
    ONE: (((ONE, X), 1), ((X, ONE), 1)),
    X: (((X, X), 1),),
}


class Combination:
    """A finite integer combination of basis keys of one free Z-module.

    terms maps keys to nonzero integers.  space tags the module: n for
    H_n and for the polynomials in 2n variables, (n, i) for F(U_i).
    RingElement and SquareFreePoly subclass it; F(U_i) has no element
    type, and its combinations are of this class.
    +, - and == take an operand of the same class; another class or a
    non-combination gives NotImplemented, so mixing raises TypeError,
    and the same class over another space raises SizeMismatchError.

    >>> a = Combination(1, {"1": 1, "X": 2})
    >>> (a - Combination(1, {"X": 2})).terms
    {'1': 1}
    >>> (0 * a).is_zero()
    True
    >>> a + 0
    Traceback (most recent call last):
    ...
    TypeError: unsupported operand type(s) for +: 'Combination' and 'int'
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: dict | None = None):
        self.space = space
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def _sum(cls, space, images) -> "Combination":
        """The element of space summing c * image over (c, image) in images.

        Each image is an iterable of (key, coefficient) pairs, so a basis
        map f extends linearly as _sum(space, ((c, f(v)) for v, c in
        x.terms.items())), and bilinearly with a double loop.  This is
        the package's one accumulation loop.
        """
        acc: dict = {}
        get = acc.get
        for c, image in images:
            for key, k in image:
                acc[key] = get(key, 0) + c * k
        elt = cls.__new__(cls)
        elt.space = space
        elt.terms = {key: c for key, c in acc.items() if c}
        return elt

    def _compatible(self, other) -> bool:
        """Whether other is of this class; raises if its space differs."""
        if type(other) is not type(self):
            return False
        if other.space != self.space:
            raise SizeMismatchError(
                f"{type(self).__name__} over {self.space!r} and {other.space!r}"
            )
        return True

    def __add__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self._sum(self.space, ((1, self.terms.items()), (1, other.terms.items())))

    def __sub__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self._sum(self.space, ((1, self.terms.items()), (-1, other.terms.items())))

    def __neg__(self):
        return self._sum(self.space, ((-1, self.terms.items()),))

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return self._sum(self.space, ((k, self.terms.items()),))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms
