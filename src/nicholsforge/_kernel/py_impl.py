"""Pure-Python arithmetic kernel.

Coefficient vectors represent residues modulo a fixed monic rational
polynomial (in practice a cyclotomic polynomial): a tuple of `phi` rationals,
lowest degree first.  The reduction table `red` maps the overflow powers
x^phi .. x^(2*phi-2) to their residues, so one multiplication never needs
more than a single reduction pass.

The hot entry point is rref_rows: full Gauss-Jordan elimination producing
the (unique) reduced row echelon form, which everything upstream relies on
for canonical bases.
"""

from .._rat import R_ONE, R_ZERO

IMPL = "python"


def poly_is_zero(a):
    for c in a:
        if c:
            return False
    return True


def poly_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def poly_neg(a):
    return tuple(-x for x in a)


def poly_scale(a, s):
    if not s:
        return tuple(R_ZERO for _ in a)
    return tuple(x * s for x in a)


def poly_mul(a, b, red):
    phi = len(a)
    if phi == 1:
        return (a[0] * b[0],)
    prod = [R_ZERO] * (2 * phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    out = prod[:phi]
    for e in range(phi, 2 * phi - 1):
        c = prod[e]
        if c:
            row = red[e - phi]
            for k in range(phi):
                rk = row[k]
                if rk:
                    out[k] += c * rk
    return tuple(out)


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def poly_divmod(num, den):
    """(quotient, remainder) of rational polynomials, lowest degree first.

    `den` must be nonzero and trimmed; the remainder comes back trimmed, so it
    is empty exactly when the division is exact.
    """
    num = list(num)
    dd = len(den) - 1
    lead_inv = R_ONE / den[dd]
    quot = [R_ZERO] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q = c * lead_inv
            quot[i - dd] = q
            for k in range(dd + 1):
                num[i - dd + k] -= q * den[k]
    return quot, _trim(num)


def poly_inv(a, modpoly):
    """Inverse of `a` modulo the monic irreducible `modpoly` (length phi+1)."""
    if poly_is_zero(a):
        raise ZeroDivisionError("inverse of zero")
    phi = len(a)
    if phi == 1:
        return (R_ONE / a[0],)
    # Extended Euclid with the invariant  t_i * a == r_i  (mod modpoly).
    r0, r1 = list(modpoly), _trim(list(a))
    t0, t1 = [], [R_ONE]
    while len(r1) > 1:
        q, r = poly_divmod(r0, r1)
        # t0 - q*t1
        t = list(t0) + [R_ZERO] * max(0, len(q) + len(t1) - 1 - len(t0))
        for i, qi in enumerate(q):
            if qi:
                for j, tj in enumerate(t1):
                    if tj:
                        t[i + j] -= qi * tj
        r0, r1 = r1, r
        t0, t1 = t1, _trim(t)
    if not r1:
        raise ZeroDivisionError("not invertible modulo the given polynomial")
    scale = R_ONE / r1[0]
    out = [R_ZERO] * phi
    for i, c in enumerate(t1):
        out[i] = c * scale
    return tuple(out)


def rref_rows(rows, red, modpoly):
    """Reduced row echelon form over the residue field.

    rows: list of rows, each a list of coefficient tuples.  Returns
    (pivot_columns, reduced_rows) with zero rows dropped.  The output is the
    canonical RREF of the row space; pivot entries are 1 and pivot columns
    are cleared everywhere else.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    if nrows == 0:
        return (), []
    ncols = len(work[0])
    pivots = []
    fixed = 0
    for col in range(ncols):
        best = -1
        best_weight = -1
        for i in range(fixed, nrows):
            if not poly_is_zero(work[i][col]):
                weight = sum(1 for e in work[i] if not poly_is_zero(e))
                if best < 0 or weight < best_weight:
                    best, best_weight = i, weight
        if best < 0:
            continue
        if best != fixed:
            work[fixed], work[best] = work[best], work[fixed]
        pivot_row = work[fixed]
        inv = poly_inv(pivot_row[col], modpoly)
        for j in range(col, ncols):
            e = pivot_row[j]
            if not poly_is_zero(e):
                pivot_row[j] = poly_mul(e, inv, red)
        for i in range(nrows):
            if i == fixed:
                continue
            factor = work[i][col]
            if poly_is_zero(factor):
                continue
            row = work[i]
            for j in range(col, ncols):
                e = pivot_row[j]
                if not poly_is_zero(e):
                    row[j] = poly_sub(row[j], poly_mul(factor, e, red))
        pivots.append(col)
        fixed += 1
        if fixed == nrows:
            break
    return tuple(pivots), work[:fixed]
