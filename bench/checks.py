"""Independent correctness checks for the benchmark's outputs.

Each ``check_*`` function returns ``None`` when an output passes and a short
reason string when it does not.  The checks lean on the package only for
root-system data and the closed Weyl dimension formula; type-A answers are
also compared with Kostka numbers that this file counts itself, as
semistandard tableaux.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


# -- root coordinates, by the benchmark's own elimination ---------------------


def root_coords(cartan, diff):
    """Rational simple-root coordinates c with sum_k c_k alpha_k = diff.

    ``diff`` is in fundamental-weight coordinates and column k of the Cartan
    matrix holds alpha_k, so this solves ``cartan . c = diff``.
    """
    n = len(cartan)
    aug = [[Fraction(x) for x in cartan[i]] + [Fraction(diff[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def under(cartan, mu, lam) -> bool:
    """True when lam - mu is a nonnegative integer combination of simple roots."""
    c = root_coords(cartan, [a - m for a, m in zip(lam, mu)])
    return all(x.denominator == 1 and x >= 0 for x in c)


# -- Kostka numbers -----------------------------------------------------------


def _horizontal_strips(shape, size):
    """Shapes nu inside ``shape`` with shape/nu a horizontal strip of ``size`` boxes."""
    n = len(shape)
    out = []

    def walk(i, left, nu):
        if i == n:
            if left == 0:
                out.append(tuple(nu))
            return
        low = shape[i + 1] if i + 1 < n else 0
        for take in range(min(left, shape[i] - low) + 1):
            nu.append(shape[i] - take)
            walk(i + 1, left - take, nu)
            nu.pop()

    walk(0, size, [])
    return out


@lru_cache(maxsize=None)
def kostka(shape: tuple, content: tuple) -> int:
    """Number of semistandard tableaux of ``shape`` with ``content``.

    The largest entry fills a horizontal strip of ``content[-1]`` boxes at
    the rim; removing it leaves a tableau of the remaining content.
    """
    shape = tuple(x for x in shape if x)
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    if len(shape) > len(content):
        return 0
    return sum(
        kostka(nu, content[:-1]) for nu in _horizontal_strips(shape, content[-1])
    )


def type_a_kostka(lam, mu) -> int:
    """Multiplicity of mu in the A_l module lam, as a Kostka number.

    Fundamental coordinates a_1..a_l become the partition with parts
    a_i + ... + a_l; mu becomes a composition of the same size with l + 1
    parts, or the answer is 0 when mu is not in lam's root-lattice coset.
    """
    l = len(lam)
    shape = tuple(sum(lam[i:]) for i in range(l)) + (0,)
    raw = [sum(mu[i:]) for i in range(l)] + [0]
    shift, rem = divmod(sum(shape) - sum(raw), l + 1)
    if rem:
        return 0
    content = tuple(x + shift for x in raw)
    if any(x < 0 for x in content):
        return 0
    return kostka(shape, content)


# -- per-workload output checks -------------------------------------------------


def check_character(rs, lam, chart, weyl_dim, orbit_size) -> str | None:
    """``chart`` maps dominant weights to multiplicities for the module lam."""
    if chart.get(tuple(lam)) != 1:
        return f"m(lam) = {chart.get(tuple(lam))}, expected 1"
    for mu, m in chart.items():
        if any(x < 0 for x in mu):
            return f"{mu} is not dominant"
        if not under(rs.cartan, mu, lam):
            return f"{mu} is not under {tuple(lam)}"
        if m <= 0:
            return f"m{mu} = {m} is not positive"
    dim = sum(m * orbit_size(rs, mu) for mu, m in chart.items())
    if dim != weyl_dim:
        return f"character sum gives dimension {dim}, Weyl dimension {weyl_dim}"
    if is_type_a(rs):
        for mu, m in chart.items():
            k = type_a_kostka(lam, mu)
            if m != k:
                return f"m{mu} = {m}, Kostka number {k}"
    return None


def check_value(label, got, expected) -> str | None:
    if got != expected:
        return f"{got} but {label} gives {expected}"
    return None


def check_report(rs, lam, report, weyl_dim) -> str | None:
    if not report.passed:
        return f"report fails: {report.first_divergence}"
    if report.dimension_character != weyl_dim:
        return f"character dimension {report.dimension_character}, Weyl dimension {weyl_dim}"
    if is_type_a(rs):
        for mu, m_auto, _, _ in report.rows:
            k = type_a_kostka(lam, mu)
            if m_auto != k:
                return f"m{mu} = {m_auto}, Kostka number {k}"
    return None


def is_type_a(rs) -> bool:
    return len(rs.family_ranks) == 1 and rs.family_ranks[0][0] == "A"
