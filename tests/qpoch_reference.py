"""Reference (x;q)_inf on mpf objects, for tests only.

This is the mpf-object evaluation that qcore.q_pochhammer_numeric replaced
with fixed-point integers: the same head, stopping rules, budgets and
closed-form tail, with every step an mpf operation at the working
precision.  Tests compare the integer path with it.
"""

from qseries.qcore import _EM_TERMS, _HEAD, _MAX_HEAD, ConvergenceError, _eulerian


def q_pochhammer_reference(x, q, ctx):
    """(x;q)_inf at numeric x >= 0 and 0 < q < 1, on mpf objects."""
    qv = ctx.convert(q)
    if not 0 < qv < 1:
        raise ValueError("need 0 < q < 1")
    if ctx.convert(x) < 0:
        raise ValueError("need x >= 0")
    tol = ctx.mpf(10) ** -(ctx.dps + 5)
    guard = max(0, int(ctx.log10(-1 / ctx.ln(qv)))) + 5
    with ctx.extradps(guard):
        x, q = ctx.convert(x), ctx.convert(q)
        t = -ctx.ln(q)
        acc, z, k = ctx.one, x, 0
        floor, stop = q**_HEAD, tol * min(1, t)
        while (k < _HEAD or z > floor) and z >= stop:
            if k == _MAX_HEAD:
                raise ConvergenceError(f"(x;q)_inf head: x*q^k still above q^{_HEAD} after {k} factors")
            acc *= 1 - z
            z *= q
            k += 1
        if z >= stop:
            acc *= ctx.exp(_log_tail_reference(z, q, t, tol, ctx))
    return +acc


def _log_tail_reference(z, q, t, tol, ctx):
    """sum_{k>=0} log(1 - z*q^k) for 0 < z <= q^_HEAD, t = -ln q."""
    if z <= 0.75:
        tail, zm, qm, m = ctx.zero, z, q, 1
        while zm >= tol * (1 - qm):
            tail -= zm / (m * (1 - qm))
            zm *= z
            qm *= q
            m += 1
        return tail
    tail = -ctx.polylog(2, z) / t + ctx.ln(1 - z) / 2
    w = t / (1 - z)
    for j in range(1, _EM_TERMS + 1):
        # t^(2j-1) * Li_{2-2j}(z) = z * A_{2j-2}(z) * w^(2j-1)
        poly = ctx.zero
        for a in reversed(_eulerian(2 * j - 2)):
            poly = poly * z + a
        term = ctx.bernoulli(2 * j) / ctx.fac(2 * j) * z * poly * w ** (2 * j - 1)
        tail -= term
        if abs(term) < tol:
            return tail
    raise ConvergenceError(f"(x;q)_inf tail: Euler-Maclaurin sum not below tolerance after {_EM_TERMS} terms")
