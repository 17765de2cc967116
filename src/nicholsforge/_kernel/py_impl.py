"""Pure-Python kernel: cyclotomic residues with integer coefficients, and RREF.

A residue modulo a fixed monic integer polynomial (in practice a cyclotomic
polynomial of degree phi) is a tuple of phi + 1 ints: the numerators of the
coefficients, lowest degree first, then one positive common denominator.
Residues are kept canonical, with the gcd of all phi + 1 entries equal to 1,
so equal values are equal tuples; zero is (0, ..., 0, 1).  The reduction
table `red` maps the overflow powers x^phi .. x^(2*phi-2) to their residues
as plain integer rows (the modulus is monic, so no denominators arise), and
one multiplication never needs more than a single reduction pass.

The hot entry point is rref_rows: full Gauss-Jordan elimination producing
the (unique) reduced row echelon form, which everything upstream relies on
for canonical bases.
"""

from math import gcd

IMPL = "python"


def poly_canonical(entries):
    """The canonical residue of a list [numerators..., denominator > 0]."""
    g = gcd(*entries)
    if g != 1:
        return tuple([x // g for x in entries])
    return tuple(entries)


def poly_is_zero(a):
    # The denominator is never 0, so a is zero iff every other entry is.
    return a.count(0) == len(a) - 1


def poly_add(a, b):
    da, db = a[-1], b[-1]
    if da == db:
        out = [x + y for x, y in zip(a, b)]
        out[-1] = da
        return tuple(out) if da == 1 else poly_canonical(out)
    g = gcd(da, db)
    ma, mb = db // g, da // g
    out = [x * ma + y * mb for x, y in zip(a, b)]
    out[-1] = da * ma
    return poly_canonical(out)


def poly_sub(a, b):
    da, db = a[-1], b[-1]
    if da == db:
        out = [x - y for x, y in zip(a, b)]
        out[-1] = da
        return tuple(out) if da == 1 else poly_canonical(out)
    g = gcd(da, db)
    ma, mb = db // g, da // g
    out = [x * ma - y * mb for x, y in zip(a, b)]
    out[-1] = da * ma
    return poly_canonical(out)


def poly_neg(a):
    out = [-x for x in a]
    out[-1] = a[-1]
    return tuple(out)


def poly_mul(a, b, red):
    phi = len(a) - 1
    if phi == 1:
        out = [a[0] * b[0], a[1] * b[1]]
    elif phi == 2:
        a0, a1, da = a
        b0, b1, db = b
        c = a1 * b1
        r0, r1 = red[0]
        out = [a0 * b0 + c * r0, a0 * b1 + a1 * b0 + c * r1, da * db]
    else:
        prod = [0] * (2 * phi - 1)
        for i in range(phi):
            ai = a[i]
            if ai:
                for j in range(phi):
                    bj = b[j]
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
        out.append(a[-1] * b[-1])
    return tuple(out) if out[-1] == 1 else poly_canonical(out)


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def poly_pseudo_divmod(num, den):
    """(lead, quotient, remainder) with lead * num == quotient * den + remainder.

    Integer polynomials, lowest degree first; `den` must be nonzero and
    trimmed.  `lead` divides a power of den's leading coefficient, so it is
    1 when `den` is monic.  The remainder comes back trimmed, so it is empty
    exactly when the division is exact.
    """
    num = list(num)
    dd = len(den) - 1
    lc = den[dd]
    lead = 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if not c:
            continue
        if c % lc:
            s = lc // gcd(c, lc)
            num = [x * s for x in num]
            quot = [x * s for x in quot]
            lead *= s
            c *= s
        q = c // lc
        quot[i - dd] = q
        for k in range(dd + 1):
            num[i - dd + k] -= q * den[k]
    return lead, quot, _trim(num)


def poly_inv(a, modpoly):
    """Inverse of `a` modulo the monic irreducible `modpoly` (length phi+1).

    Extended Euclid on the integer numerators with pseudo-division, keeping
    t_i * A == r_i (mod modpoly) and dividing each new (r_i, t_i) by its
    content; once r_i is a nonzero constant c, A^-1 = t_i / c.
    """
    if poly_is_zero(a):
        raise ZeroDivisionError("inverse of zero")
    phi = len(a) - 1
    den = a[-1]
    if phi == 1:
        n = a[0]
        return (den, n) if n > 0 else (-den, -n)
    r0, r1 = list(modpoly), _trim(list(a[:phi]))
    t0, t1 = [], [1]
    while len(r1) > 1:
        lead, q, r = poly_pseudo_divmod(r0, r1)
        t = [lead * x for x in t0]
        t += [0] * max(0, len(q) + len(t1) - 1 - len(t))
        for i, qi in enumerate(q):
            if qi:
                for j, tj in enumerate(t1):
                    if tj:
                        t[i + j] -= qi * tj
        t = _trim(t)
        g = gcd(*r, *t)
        if g > 1:
            r = [x // g for x in r]
            t = [x // g for x in t]
        r0, r1 = r1, r
        t0, t1 = t1, t
    if not r1:
        raise ZeroDivisionError("not invertible modulo the given polynomial")
    c = r1[0]
    if c < 0:
        den, c = -den, -c
    out = [den * x for x in t1] + [0] * (phi - len(t1))
    out.append(c)
    return poly_canonical(out)


def rref_rows(rows, red, modpoly):
    """Reduced row echelon form over the residue field.

    rows: list of rows, each a list of residues.  Returns
    (pivot_columns, reduced_rows) with zero rows dropped.  The output is the
    canonical RREF of the row space; pivot entries are 1 and pivot columns
    are cleared everywhere else.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    if nrows == 0:
        return (), []
    ncols = len(work[0])
    zero = (0,) * (len(modpoly) - 1) + (1,)
    pivots = []
    fixed = 0
    for col in range(ncols):
        best = -1
        best_weight = -1
        for i in range(fixed, nrows):
            if work[i][col] != zero:
                weight = ncols - work[i].count(zero)
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
            if e != zero:
                pivot_row[j] = poly_mul(e, inv, red)
        for i in range(nrows):
            if i == fixed:
                continue
            factor = work[i][col]
            if factor == zero:
                continue
            row = work[i]
            for j in range(col, ncols):
                e = pivot_row[j]
                if e != zero:
                    row[j] = poly_sub(row[j], poly_mul(factor, e, red))
        pivots.append(col)
        fixed += 1
        if fixed == nrows:
            break
    return tuple(pivots), work[:fixed]
