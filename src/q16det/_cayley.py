"""Multiplication structure of the dicyclic group of order 16.

Element indices: 0..7 encode X**j, 8..15 encode Y*X**(j-8).  The defining
relations are X**8 = 1, Y**2 = X**4 and X*Y = Y*X**(-1), which give the
four multiplication rules implemented in :func:`mul`.
"""


def mul(i: int, j: int) -> int:
    """Index of the product of group elements ``i`` and ``j``."""
    if i < 8:
        if j < 8:
            return (i + j) % 8
        return 8 + (j - 8 - i) % 8
    if j < 8:
        return 8 + (i - 8 + j) % 8
    return (4 + (j - 8) - (i - 8)) % 8


def inv(i: int) -> int:
    """Index of the inverse of group element ``i``."""
    if i < 8:
        return (-i) % 8
    return 8 + (i - 8 + 4) % 8


#: 16x16 multiplication table, MUL_TABLE[i][j] = index of element i * j.
MUL_TABLE = tuple(tuple(mul(i, j) for j in range(16)) for i in range(16))

#: INVERSE[i] = index of the inverse of element i.
INVERSE = tuple(inv(i) for i in range(16))

#: DET_INDEX[g][h] = index of g * h**-1; the group determinant of an element
#: with coefficient vector c is det(c[DET_INDEX[g][h]]).
DET_INDEX = tuple(
    tuple(MUL_TABLE[g][INVERSE[h]] for h in range(16)) for g in range(16)
)
