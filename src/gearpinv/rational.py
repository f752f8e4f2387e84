"""Exact dense linear algebra over rational matrices, and all its arithmetic modulo primes.

Public functions take and return numpy object arrays of
fractions.Fraction values.  Inside, an exact matrix is a pair
``(ints, den)``: Python ints over one positive common denominator.
``scaled`` splits a matrix into it once, private cores such as
``_dot_ints`` and ``_psd_ints`` work on it, ``unscaled`` shares one
Fraction per distinct entry at a public return, ``_floats`` gives the
floats with none.  Every reduction is one fraction-free Gauss-Jordan pass
(``_gauss_jordan``) whose entries stay minors of the input.

Residues are taken modulo 31-bit primes, each searched for once per
process (``_primes``).  ``_pinv_ints`` is the one exact pseudoinverse
route, and one Gauss-Jordan pass in int64 numpy modulo the first prime
(``_pivots``, the one place pivots are picked modulo a prime) starts it
and ``_ones_mass``, ``edm.is_edm``'s solve for ``1' D+ 1``.  That pass
gives the pivot rows and columns and, for a nonsingular matrix, the
inverse modulo the prime.  Each later prime gives a residue or is
skipped, one Chinese remainder step folds it in, and from the second
residue on a rational reconstruction is returned once a certificate with
no probability proves it.  The cost follows the size of the result
rather than of the minors on the way to it, so residues win where the
result is small, as for tree and gear distance matrices.  A symmetric
matrix's residues are carried on one triangle.  A symmetric
rank-deficient matrix gets a budget of primes tied to its rank; past
it, the result comes from the skeleton A = B' K^-1 B on the pivot
columns Q (``_skeleton_pinv``: B = A[Q, :], K = A[Q, Q]), from two
fraction-free passes of rank order (``_inverse_ints``, the core of
``invert``) and one exact check.  Every other rank-deficient or
non-square matrix, and a symmetric one that fails that check, gets
fraction-free elimination of the r pivot rows R that first pass
picked: ``rref`` of them, then ``invert`` of the r x r matrix C' A R',
C being A's pivot columns.  ``_residuals_vanish`` proves Penrose
residuals zero from exact residue products (``_dot_mod``), three per
prime for a symmetric pair and four otherwise, for
``pinv.penrose_check`` and as the symmetric route's default certificate;
``verify`` passes its own.  Given a proved pseudoinverse and the pivot
columns, ``_psd_certified`` proves a symmetric matrix PSD by a float
Cholesky of one block, where ``_psd_ints`` eliminates exactly.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import count, islice
from math import gcd, isqrt, lcm

import numpy as np

ZERO = Fraction(0)


def rational(value) -> Fraction:
    """Coerce ints, strings like '3/5', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    # A numpy integer would stay the Fraction's fixed-width numerator.
    return Fraction(int(value) if isinstance(value, np.integer) else value)


def rational_matrix(rows) -> np.ndarray:
    out = np.array([[rational(x) for x in row] for row in rows], dtype=object)
    if out.ndim != 2:
        raise ValueError("rows must form a rectangular matrix")
    return out


def rational_identity(order: int) -> np.ndarray:
    return unscaled(np.eye(order, dtype=int), 1)


def rational_zeros(rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), ZERO, dtype=object)


def is_exact(matrix: np.ndarray) -> bool:
    """True when the dtype carries exact entries (object or integer)."""
    return matrix.dtype == object or np.issubdtype(matrix.dtype, np.integer)


def scaled(matrix) -> tuple[np.ndarray, int]:
    """Split an exact matrix into integers over one positive common denominator."""
    mat = np.asarray(matrix)
    if np.issubdtype(mat.dtype, np.integer):
        # tolist turns every numpy integer into a Python int in one call.
        return np.array(mat.tolist(), dtype=object).reshape(mat.shape), 1
    mat = np.asarray(matrix, dtype=object)
    entries = mat.ravel().tolist()
    types = set(map(type, entries))
    if types <= {int}:
        return mat, 1
    if not types <= {int, Fraction}:  # numpy integers and bools go through rational too
        entries = [x if type(x) in (int, Fraction) else rational(x) for x in entries]
    dens = [e.denominator for e in entries]
    den = lcm(*set(dens))
    scale = {d: den // d for d in set(dens)}
    ints = [e.numerator * scale[d] for e, d in zip(entries, dens)]
    return np.array(ints, dtype=object).reshape(mat.shape), den


def _matrix(matrix) -> np.ndarray:
    """The input of a public function as an array; ValueError naming its shape unless it is 2-D."""
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got an array of shape {mat.shape}")
    return mat


def unscaled(ints, den: int) -> np.ndarray:
    """The Fraction matrix ``ints / den``: one Fraction per distinct entry, shared."""
    ints = np.asarray(ints, dtype=object)
    entries = ints.ravel().tolist()
    table = {x: Fraction(x, den) for x in set(entries)}
    return np.array([table[x] for x in entries], dtype=object).reshape(ints.shape)


def _floats(ints, den: int) -> np.ndarray:
    """``unscaled(ints, den).astype(float)`` bit for bit: int64 entries become Python ints first."""
    return (np.asarray(ints, dtype=object) / den).astype(float)


def dot(*factors) -> np.ndarray:
    """Exact product of rational matrices: one integer product, normalized once."""
    return unscaled(*_dot_ints(*factors))


def _dot_ints(*factors) -> tuple[np.ndarray, int]:
    """``dot`` as the pair (ints, den)."""
    product, den = scaled(factors[0])
    for factor in factors[1:]:
        ints, scale = scaled(factor)
        product, den = product.dot(ints), den * scale
    return product, den


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan pass in place.  Returns (pivot columns, sign, d).

    The two-step Bareiss update runs on every row but the pivot row,
    above it as well as below, so every entry stays an exact minor of
    the input and the divisions are exact.  At the end every pivot
    equals d, the last pivot (1 at rank zero), and the other entries of
    the pivot columns are zero: the reduced row echelon form is
    ``rows / d``, and for square input of full rank the determinant is
    ``sign * d``.  Pivot rows are picked by the widest numerator in the
    column, which in practice keeps the minors from ballooning on the
    structured matrices handled here.
    """
    pivot_cols: list[int] = []
    sign = 1
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivot_cols)
        if rank == len(rows):
            break
        best = max(range(rank, len(rows)), key=lambda r: abs(rows[r][col]).bit_length())
        if rows[best][col] == 0:
            continue
        if best != rank:
            rows[rank], rows[best] = rows[best], rows[rank]
            sign = -sign
        piv_row = rows[rank]
        piv = piv_row[col]
        for r, row in enumerate(rows):
            if r != rank:
                x = row[col]
                rows[r] = [(piv * a - x * b) // prev for a, b in zip(row, piv_row)]
        prev = piv
        pivot_cols.append(col)
    return pivot_cols, sign, prev


def rref(matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    ints, _ = scaled(_matrix(matrix))
    rows = ints.tolist()
    pivot_cols, _, d = _gauss_jordan(rows)
    return unscaled(np.array(rows, dtype=object).reshape(ints.shape), d), pivot_cols


def det(matrix) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    ints, scale = scaled(_matrix(matrix))
    m, n = ints.shape
    if m != n:
        raise ValueError("determinant needs a square matrix")
    pivot_cols, sign, d = _gauss_jordan(ints.tolist())
    return Fraction(sign * d, scale**n) if len(pivot_cols) == n else ZERO


def invert(matrix) -> np.ndarray:
    """Exact inverse; raises on singular input."""
    ints, scale = scaled(_matrix(matrix))
    m, n = ints.shape
    if m != n:
        raise ValueError("inverse needs a square matrix")
    # A = scale * matrix / g in integers, with g their gcd, keeps the minors small
    # (C' A R' from _pinv_ints has a content).
    g = gcd(*ints.flat) or 1
    found = _inverse_ints(ints // g)
    if found is None:
        raise ValueError("matrix is singular")
    inverse, d = found
    return unscaled(inverse * scale, d * g)


def _inverse_ints(ints) -> tuple[np.ndarray, int] | None:
    """(Y, d) with Y / d the inverse of a square integer matrix A, or None when A is singular.

    One fraction-free pass reduces [A | I] to [d I | Y].
    """
    n = len(ints)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(ints.tolist())]
    pivot_cols, _, d = _gauss_jordan(rows)
    if pivot_cols != list(range(n)):
        return None
    return np.array([row[n:] for row in rows], dtype=object).reshape(n, n), d


def _is_prime(candidate: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 7 and 61 decide every integer below 4759123141."""
    if candidate < 2:
        return False
    for base in (2, 7, 61):
        if candidate % base == 0:
            return candidate == base
    odd, twos = candidate - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 7, 61):
        x = pow(base, odd, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


_PRIMES: list[int] = []
_PRIMES_LOCK = threading.Lock()


def _primes():
    """The odd primes below 2**31, largest first: residues and their products fit in int64.

    Generators read the one list ``_PRIMES`` by index and extend it only
    past its last prime, so any two yield the same sequence and
    ``_is_prime`` sees each candidate at most once per process.
    """
    for index in count():
        with _PRIMES_LOCK:
            if index == len(_PRIMES):
                start = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
                _PRIMES.append(next(p for p in range(start, 2, -2) if _is_prime(p)))
        yield _PRIMES[index]


def _echelon_mod(work: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray | None]:
    """Gauss-Jordan pass in place on int64 residues modulo the prime p: (rows, cols, inverse).

    A is m x n.  rows are the pivot rows P, in the order they were
    picked, and cols the pivot columns Q, so len(Q) is the rank modulo
    p; the pass stops once the rows below the pivots are zero.  inverse
    is A^-1 modulo p for square A of full rank, else None.  Each step
    swaps the pivot row into place and stores, in the column it clears,
    the column of [A | I]'s right half that the step fills; the swaps
    are undone on the columns at the end.
    """
    m, n = work.shape
    order = np.arange(m)
    cols: list[int] = []
    for col in range(n):
        rank = len(cols)
        if rank == m:
            break
        # The largest residue in the column is nonzero unless all are.
        piv = rank + int(work[rank:, col].argmax())
        pivot_row = work[piv].copy()
        if not pivot_row[col]:
            # Cleared columns hold the right half: only those from col on are left to reduce.
            if not work[rank:, col:].any():
                break
            continue
        work[piv] = work[rank]
        order[rank], order[piv] = order[piv], order[rank]
        inverse = pow(int(pivot_row[col]), -1, p)
        pivot_row[col] = 1
        pivot_row = pivot_row * inverse % p
        factors = work[:, col, None].copy()
        work[:, col] = 0
        work -= factors * pivot_row
        # numpy divides int64 by a scalar fast but takes remainders slowly (2x at order 199).
        work -= work // p * p
        # Row rank held the row swapped out to piv: its update is discarded.
        work[rank] = pivot_row
        cols.append(col)
    rows = order[:len(cols)].tolist()
    # Column col now holds the inverse's column of the row moved to col.
    return rows, cols, work[:, np.argsort(order)] if len(cols) == m == n else None


def _pivots(ints, p: int) -> tuple[list[int], list[int], np.ndarray | None]:
    """Pivot rows P and columns Q of an integer matrix A from one pass modulo the prime p.

    The third item is A^-1 modulo p when A is square and p does not
    divide det A, else None.  A[P, Q] is nonsingular modulo p, so over
    the rationals as well: the rows P of A are independent, and the rank
    modulo p, len(P), is at most A's rank.  It is below it only when p
    divides every minor of that order.
    """
    return _echelon_mod((ints % p).astype(np.int64), p)


def _pinv_mod(block: np.ndarray, cols, p: int) -> np.ndarray | None:
    """A+ modulo the prime p from the integer rows B = A[Q, :], with Q A's pivot columns.

    B is reduced modulo p once.  A nonsingular A has every column in Q,
    is B and gets A^-1.  For a symmetric A, with K = A[Q, Q] nonsingular
    of the rank's order, A = B' K^-1 B, so A+ = Z K Z' with
    Z = B' (BB')^-1: one inverse of rank order.  None when p divides
    det A or det BB'.
    """
    residues = (block % p).astype(np.int64)
    if len(cols) == block.shape[1]:
        return _echelon_mod(residues, p)[2]
    inverse = _echelon_mod(_dot_mod(residues, residues.T, p), p)[2]
    if inverse is None:
        return None
    z = _dot_mod(residues.T, inverse, p)
    return _dot_mod(z, _dot_mod(residues[:, cols], z.T, p), p)


def _largest(ints):
    """The largest entry in absolute value, 0 for an empty array."""
    return np.abs(np.asarray(ints)).max(initial=0)


def _is_symmetric(ints) -> bool:
    """True for a square matrix equal to its transpose."""
    return ints.shape[0] == ints.shape[1] and not (ints != ints.T).any()


def _dot_mod(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """left @ right modulo the prime p < 2**31, for int64 residues in [0, p).

    Both factors are split into 16-bit halves, so each product of halves
    is below 2**32, and a float64 BLAS sum of k of them is an integer
    that float64 holds exactly while k < 2**21, which any input whose
    k x k products fit in memory meets.  The blocks of the product of
    halves are recombined in int64 in Horner form, base 2**16, each
    step below 2**47 + k 2**32, so nothing overflows.
    """
    m, n = left.shape[0], right.shape[1]
    left_halves = np.concatenate([left & 0xFFFF, left >> 16]).astype(float)
    right_halves = np.concatenate([right & 0xFFFF, right >> 16], axis=1).astype(float)
    parts = left_halves @ right_halves
    # left @ right = low + mid 2**16 + top 2**32 with low, mid and top the blocks below.
    top = parts[m:, n:].astype(np.int64) % p
    mid = ((top << 16) + (parts[:m, n:] + parts[m:, :n]).astype(np.int64)) % p
    return ((mid << 16) + parts[:m, :n].astype(np.int64)) % p


def _residuals_vanish(a_ints: np.ndarray, b_ints: np.ndarray, ab: int) -> bool:
    """True when ABA - abA, BAB - abB, AB - (AB)' and BA - (BA)' are all exactly 0.

    With k the larger dimension of A, |ABA - abA| is at most
    k^2 |A|^2 |B| + ab |A|, |BAB - abB| at most k^2 |B|^2 |A| + ab |B|, and
    both symmetry residuals at most 2k |A| |B|, which the larger of the
    first two bounds covers: so every entry is at most
    max(|A|, |B|) (k^2 |A| |B| + ab).  The residuals are evaluated modulo
    one prime at a time, drawn from ``_primes``, until the product P of
    the primes exceeds that bound.  A residual that is 0 modulo every
    prime is a multiple of P no larger than the bound, so it is 0: no
    probability is involved.  False, at the first prime with a residue
    that is not 0, means some residual is not 0 either.  When A and B are
    both symmetric, BA = (AB)', so AB is formed and tested for symmetry
    once: three residue products per prime, not four; and only B's upper
    triangle is reduced modulo each prime, then mirrored in int64.
    """
    k = max(a_ints.shape)
    big_a, big_b = _largest(a_ints), _largest(b_ints)
    bound = max(big_a, big_b) * (k * k * big_a * big_b + ab)
    symmetric = _is_symmetric(a_ints) and _is_symmetric(b_ints)
    upper = np.triu_indices(len(b_ints)) if symmetric else ...  # the entries of B reduced
    carried = b_ints[upper]
    primes, modulus = _primes(), 1
    while modulus <= bound:
        p = next(primes)
        a, b = (a_ints % p).astype(np.int64), np.empty(b_ints.shape, dtype=np.int64)
        b[upper] = carried % p
        if symmetric:
            b.T[upper] = b[upper]
        mx = _dot_mod(a, b, p)
        xm = mx.T if symmetric else _dot_mod(b, a, p)
        if not (
            (mx == mx.T).all()
            and (symmetric or (xm == xm.T).all())
            and (_dot_mod(mx, a, p) == ab % p * a % p).all()
            and (_dot_mod(xm, b, p) == ab % p * b % p).all()
        ):
            return False
        modulus *= p
    return True


def _common_denominator(value: int, modulus: int, den: int, bound: int) -> int | None:
    """den * e, with (den * e * value) mod modulus in [-bound, bound].

    e is the denominator that Wang's rational reconstruction (1981)
    finds for den * value: the extended Euclidean remainder sequence of
    (modulus, den * value), stopped at the first remainder within
    bound.  None when e exceeds bound // den or shares a factor with
    that remainder.
    """
    r0, r1 = modulus, den * value % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        quotient = r0 // r1
        r0, r1 = r1, r0 - quotient * r1
        t0, t1 = t1, t0 - quotient * t1
    if abs(t1) > bound // den or gcd(r1, t1) != 1:
        return None
    return den * abs(t1)


def _reconstruct(value: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """Integers Y and d > 0 with Y = d X modulo ``modulus``, |Y| < modulus/2.

    d is built up entry by entry (Monagan, 2004): an entry whose d X is
    already within sqrt(modulus/2) of 0 adds nothing, and the first
    entry that is not grows d by its own reconstructed denominator.
    None when d would pass sqrt(modulus/2): more primes are needed.
    """
    bound = isqrt(modulus // 2)
    den = 1
    pending = value.ravel()
    while len(pending):
        residue = pending * den % modulus
        pending = pending[(residue > bound) & (residue < modulus - bound)]
        if len(pending):
            den = _common_denominator(pending[0], modulus, den, bound)
            if den is None:
                return None
    ints = value * den % modulus
    return np.where(ints > modulus // 2, ints - modulus, ints), den


def _residual_bound(ints, inverse, den: int) -> int:
    """n max|A| max|Y| + d, a bound on the entries of R = A Y - d I.

    When Y = d A^-1 modulo a product P of primes, R is 0 modulo P, so a
    bound below P proves R = 0, that is A Y = d I exactly.
    """
    return len(ints) * _largest(ints) * _largest(inverse) + den


def _crt(value, modulus: int, residue: np.ndarray, p: int):
    """One Chinese remainder step: X + P t, which is X modulo P and residue modulo p, and P p."""
    step = (residue - np.asarray(value % p, dtype=np.int64)) % p * pow(modulus, -1, p) % p
    return value + modulus * step.astype(object), modulus * p


# Passes over the input per prime of the rank-deficient route, the budget's unit: see _pinv_ints.
_PASSES_PER_PRIME = 4


def _pinv_ints(ints, scale: int, certificate=None) -> tuple[np.ndarray, int]:
    """The pseudoinverse of M = ints / scale as the pair (Y, d), M+ being Y / d.

    M = A g / s with A primitive, g the content of the integers, and
    M+ = (s / g) A+.  One Gauss-Jordan pass modulo the first prime
    (``_pivots``) gives A's pivot rows P and columns Q and, for a square
    A of full rank modulo it, A^-1 modulo it.  Two routes then run one
    loop: each later prime gives a residue of A+ (``_pinv_mod``, from
    the rows Q of A alone) or is skipped when it gives none, each residue
    is folded in by one Chinese remainder step, and from the second
    residue on X modulo the product of the primes is reconstructed as
    Y over d and returned once a certificate proves it.  A symmetric A has
    a symmetric A+, so its residues are folded and reconstructed on the
    upper triangle alone and each candidate is mirrored before its
    certificate.  d is the lcm of the entries' denominators in any order
    of the entries, so the pair is the one the whole matrix would give.

    A of full rank modulo the first prime takes that pass's inverse as
    its first residue and every later prime not dividing det A, and
    ``_residual_bound`` proves A Y = d I, so it stops at the fewest
    primes that certificate needs.

    A symmetric A of rank r modulo the first prime skips a prime that
    divides det BB', B = A[Q, :].  ``_residuals_vanish`` proves the four
    Penrose conditions for Y / d, which hold for A+ alone (Penrose, 1955),
    so the rank needs no proof.  A caller with a proof of its own passes
    ``certificate`` instead: ``certificate(Y s, d g, Q)`` on the pair that
    would be returned, and True returns it.  The route is budgeted by one cost
    comparison: a prime costs about ``_PASSES_PER_PRIME`` = 4 passes
    over the matrix in Python integers (reducing A, the output product,
    the Chinese remainder step and the reconstruction), where
    fraction-free elimination makes one per pivot step, r in all.  So it
    draws at most r // 4 primes, the first included, and none past the
    first when that is below 2.  Past the budget, or with none, A+ comes
    from the skeleton A = B' K^-1 B (``_skeleton_pinv``) once an exact
    check proves it.

    Every other A (rank-deficient and not symmetric, or not square), and
    a symmetric A whose skeleton check fails, goes to fraction-free
    elimination of its pivot rows.  A = C K G with K nonsingular and C, G
    of full rank gives A+ = G' (C' A G')^-1 C' (Ben-Israel and Greville,
    2003).  ``rref`` of R = A[P, :] gives F over d and its pivot columns,
    and C is the columns of A at them.  ``C F = d A`` holds on the rows P
    by construction; once it is checked exactly on the others, A = C F / d
    (the skeleton decomposition A = C A[P, Q]^-1 R of Goreinov,
    Tyrtyshnikov and Zamarashkin, 1997), and G = R.  An unlucky first
    prime, whose rank is below A's, gives residues that are not A+'s, so
    no reconstruction passes a certificate, and rows P and columns Q that
    fail their checks: C and G then come from ``rref`` of the whole of A,
    as they do when ``rref`` finds rows P dependent.  At rank zero the
    factors are empty and the product is the zero matrix.
    """
    content = gcd(*ints.flat) or 1
    ints = ints // content
    primes = _primes()
    first = next(primes)
    rows, cols, residue = _pivots(ints, first)
    full_rank, block, symmetric = residue is not None, ints, _is_symmetric(ints)
    if not full_rank:
        budget = len(cols) // _PASSES_PER_PRIME if symmetric else 0
        if budget < 2:
            primes = ()
        else:
            block = ints[cols]
            primes = islice(primes, budget - 1)
            residue = _pinv_mod(block, cols, first)
    upper = np.triu_indices(len(ints)) if symmetric else ...  # the entries carried
    value, modulus = (0, 1) if residue is None else (residue[upper].astype(object), first)
    for p in primes:
        residue = _pinv_mod(block, cols, p)
        if residue is None:
            continue
        value, modulus = _crt(value, modulus, residue[upper], p)
        # P = p only when the first prime gave no residue: one prime is never reconstructed.
        if modulus == p or (found := _reconstruct(value, modulus)) is None:
            continue
        pinv, den = found
        if symmetric:
            pinv = np.empty(ints.shape, dtype=object)
            pinv[upper] = pinv.T[upper] = found[0]
        if full_rank:
            proved = _residual_bound(ints, pinv, den) < modulus
        elif certificate is None:
            proved = _residuals_vanish(ints, pinv, den)
        else:
            proved = certificate(pinv * scale, den * content, cols)
        if proved:
            return pinv * scale, den * content
    if symmetric and (found := _skeleton_pinv(ints, cols)) is not None:
        pinv, den = found
        return pinv * scale, den * content
    reduced, cols = rref(ints[rows])
    f_ints, d = scaled(reduced)
    others = np.delete(np.arange(len(ints)), rows)
    if len(cols) == len(rows) and (
            ints[np.ix_(others, cols)].dot(f_ints) == d * ints[others]).all():
        g_factor = ints[rows]
    else:
        reduced, cols = rref(ints)
        g_factor = scaled(reduced[:len(cols)])[0]
    c_factor = ints[:, cols]
    pinv, den = _dot_ints(g_factor.T, invert(c_factor.T.dot(ints).dot(g_factor.T)), c_factor.T)
    return pinv * scale, den * content


def _skeleton_pinv(ints, cols) -> tuple[np.ndarray, int] | None:
    """A+ as (Y, d) for a symmetric integer A from its columns Q, or None if A is not B' K^-1 B.

    B = A[Q, :] and K = A[Q, Q], nonsingular for pivot columns Q picked
    modulo a prime: A = X' K X over that field, with A[:, Q] X = A, so
    rank K = rank A there.  One fraction-free pass over [K | I]
    (``_inverse_ints``) gives K^-1 = Y_K / d.  B' K^-1 B = A holds on the
    rows and the columns Q by construction, so with E = B[:, others] the
    exact check E' Y_K E = d A[others, others] proves A = B' K^-1 B (the
    skeleton decomposition of Goreinov, Tyrtyshnikov and Zamarashkin,
    1997), with B of full row rank.  Then A+ = B' S^-1 K S^-1 B for
    S = BB', the formula ``_pinv_mod`` evaluates modulo each prime, here
    with one more pass, over [S | I].  The r x r core S^-1 K S^-1 is
    divided by its content before the two products of order m.  None when
    the check fails, as it does for columns Q that miss A's rank.
    """
    block = ints[cols]
    k_inverse, d = _inverse_ints(block[:, cols])
    others = np.delete(np.arange(len(ints)), cols)
    outside = block[:, others]
    if (outside.T.dot(k_inverse.dot(outside)) != d * ints[np.ix_(others, others)]).any():
        return None
    s_inverse, s_den = _inverse_ints(block.dot(block.T))
    core = s_inverse.dot(block[:, cols]).dot(s_inverse)
    content = gcd(*core.flat) or 1
    common = gcd(content, s_den * s_den)
    return block.T.dot(core // content).dot(block) * (content // common), s_den * s_den // common


def _ones_mass(ints, scale: int, symmetric: bool) -> Fraction:
    """``1' D+ 1`` for D = A/s, with no pseudoinverse when D x = 1 solves.

    For symmetric D and any solution x of ``D x = 1``, ``1' D+ 1 =
    x' D D+ D x = x' D x = 1' x``.  One pass modulo the first prime
    (``_pivots``) gives A's pivot columns Q; A is symmetric, so
    K = A[Q, Q] is nonsingular modulo it and hence over the rationals.
    The fraction-free pass over the r x (r + 1) block ``[K | s 1]``
    gives y over d with K y = s d 1, and x is y / d on Q and zero
    elsewhere once the exact mat-vec ``A[:, Q] y = s d 1`` proves it.
    A non-symmetric D, 1 outside range(D) or an unlucky prime sums the
    integers Y of D+ = Y/d from ``_pinv_ints`` over d.
    """
    if symmetric:
        cols = _pivots(ints, next(_primes()))[1]
        rows = [row + [scale] for row in ints[np.ix_(cols, cols)].tolist()]
        _, _, d = _gauss_jordan(rows)
        y = np.array([row[-1] for row in rows], dtype=object)
        if (ints[:, cols].dot(y) == scale * d).all():
            return Fraction(sum(y), d)
    pinv, den = _pinv_ints(ints, scale)
    return Fraction(pinv.sum(), den)


def is_psd(matrix) -> bool:
    """Exact test of positive semidefiniteness for a symmetric matrix.

    The whole matrix is split once into integers over one positive
    common denominator (row by row scaling would break symmetry), tested
    for symmetry and reduced by symmetric fraction-free elimination with
    diagonal pivots (``_psd_ints``, one triangle of each Schur complement
    computed and mirrored).  Each pivot is the largest remaining diagonal:
    a negative one means not PSD, a zero one PSD exactly when the remaining
    block is zero.  Every remaining entry is a minor of the input whose sign
    matches the Schur complement's, because all earlier pivots were positive.

    Raises
    ------
    ValueError
        If the matrix is not square and symmetric.
    """
    mat = np.asarray(matrix, dtype=object)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    ints = scaled(mat)[0]
    if (ints != ints.T).any():
        raise ValueError("matrix must be symmetric")
    return _psd_ints(ints)


def _psd_ints(ints) -> bool:
    """``is_psd`` of symmetric ints / den, any den > 0: each (i, j >= i) computed, then mirrored."""
    rows = (ints // (gcd(*ints.flat) or 1)).tolist()  # dividing out the content narrows every minor
    remaining = list(range(len(rows)))
    prev = 1
    while remaining:
        k = max(remaining, key=lambda i: rows[i][i])
        piv = rows[k][k]
        if piv <= 0:
            return piv == 0 and not any(rows[i][j] for i in remaining for j in remaining)
        remaining.remove(k)
        pivot_row = rows[k]
        for start, i in enumerate(remaining):
            row, x = rows[i], pivot_row[i]
            for j in remaining[start:]:
                row[j] = rows[j][i] = (piv * row[j] - x * pivot_row[j]) // prev
        prev = piv
    return True


def _psd_certified(ints, scale: int, pinv, den: int, cols) -> bool:
    """True when symmetric M = ints / scale is proved PSD from its proved M+ = pinv / den.

    False means not proved, and the caller decides exactly (``_psd_ints``).
    Three steps, none decided by a tolerance:

    - rank M = trace(M M+), M M+ being the projector onto M's range, is
      one integer sum, and must equal |Q| for the columns Q = ``cols``;
    - K = M[Q, Q] must have integers below 2**53, so each is a double;
    - K - cI must pass a floating-point Cholesky factorization, unblocked
      and right-looking: r rank-one updates, r = |Q|.

    Then K is positive definite (Rump, "Verification of positive
    definiteness", BIT 46, 2006).  A Cholesky factorization of a
    symmetric B that runs to completion gives R with R'R = B + E and
    |E| <= g |R'| |R|, g = (r + 1) u / (1 - (r + 1) u) and u = 2**-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Theorem 10.3, whose proof needs no definiteness);
    by Cauchy-Schwarz ||E||_2 <= g/(1 - g) tr B, so B + E >= 0 gives
    lambda_min(B) >= -g/(1 - g) tr B.  Here B is K with each diagonal
    entry rounded after subtracting c, off by at most u (K_ii - c), and
    B_ii > 0 on completion, so
    lambda_min(K) >= c - g (1 + u) tr K / (1 - g) - u tr K.
    c = 2 (r + 2) u tr K keeps that positive, its own rounding and
    gradual underflow included, for r < 2**40.  K positive definite of
    order rank M makes the columns Q a basis of M's range, so
    M = M[:, Q] K^-1 M[Q, :] and x'Mx >= 0 for every x.
    """
    rank = len(cols)
    # trace(M M+) sums M_ij M+_ji over i and j.
    if (ints * pinv.T).sum() != rank * scale * den:
        return False
    block = ints[np.ix_(cols, cols)]
    trace = sum(block.diagonal())
    if trace <= 0 or _largest(block) >= 2**53:
        return False
    work = block.astype(float)
    work[np.diag_indices(rank)] -= 2 * (rank + 2) * 2.0**-53 * float(trace)
    for k in range(rank):
        if not work[k, k] > 0:
            return False
        column = work[k, k + 1:] / np.sqrt(work[k, k])
        work[k + 1:, k + 1:] -= np.outer(column, column)
    return True
