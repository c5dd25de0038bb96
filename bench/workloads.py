"""Seeded request generators for the benchmark workloads.

Every request starts from a partial-fraction table
    Q(n)/P(n) = sum_ij A_ij / (n + a_i)^j
chosen by the generator, so the decomposition the program reports can be
compared with the table it was built from (the decomposition is unique).
The summand is handed to the program as expanded integer polynomials
`(Q)/(P)`, which makes the program fold, factor and decompose it again.

Standard library only: nothing here may import mpmath or numpy, because
the runner measures the program's cold import after generating inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

PLAIN = "plain"
ALTERNATING = "alternating"

Table = Dict[Tuple[Fraction, int], Fraction]  # (shift a, order j) -> A_ij
Shape = Tuple[Tuple[Fraction, int], ...]      # (shift a, multiplicity m) pairs


@dataclass(frozen=True)
class Workload:
    name: str
    digits: int
    shift_counts: Tuple[int, ...]  # distinct shifts per request, cycled
    max_denominator: int           # shifts are p/q with q <= this, in [0, 6]
    max_multiplicity: int
    alternating_simple_only: bool  # alternating requests get simple poles only
    verify: bool
    round_size: int                # distinct requests per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("frontend-30d", 30, (3, 4, 5), 6, 3, False, False, 126),
        Workload("hiprec-1000d", 1000, (1, 2, 3), 4, 2, False, False, 36),
        Workload("verify-30d", 30, (1, 2, 3), 6, 2, True, True, 126),
    )
}

MAX_SHIFT = 6


@dataclass(frozen=True)
class Request:
    index: int
    sign: str
    table: Table
    expression: str
    degree: int  # degree of the expanded denominator


# -- exact polynomial helpers (coefficient lists, index = power of n) ---------


def _mul(p: List[Fraction], q: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _linear_power(a: Fraction, m: int) -> List[Fraction]:
    out = [Fraction(1)]
    for _ in range(m):
        out = _mul(out, [a, Fraction(1)])
    return out


def _add_into(acc: List[Fraction], p: List[Fraction], scale: Fraction) -> None:
    for i, c in enumerate(p):
        acc[i] += scale * c


def _trim(p: List[Fraction]) -> List[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def expand_table(table: Table) -> Tuple[List[Fraction], List[Fraction]]:
    """Numerator and denominator coefficient lists of sum_ij A_ij/(n+a_i)^j."""
    mult: Dict[Fraction, int] = {}
    for a, j in table:
        mult[a] = max(mult.get(a, 0), j)
    den = [Fraction(1)]
    for a in sorted(mult):
        den = _mul(den, _linear_power(a, mult[a]))
    num = [Fraction(0)] * len(den)
    for (a, j), c in table.items():
        if c == 0:
            continue
        rest = [Fraction(1)]
        for b in sorted(mult):
            rest = _mul(rest, _linear_power(b, mult[b] if b != a else mult[b] - j))
        _add_into(num, rest, c)
    return _trim(num), den


def _poly_text(coeffs: List[int]) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = "n" if k == 1 else f"n^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def table_expression(table: Table) -> Tuple[str, int]:
    """`(Q)/(P)` with primitive integer coefficients, and deg P."""
    num, den = expand_table(table)
    lcm = 1
    for c in num + den:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    inum = [int(c * lcm) for c in num]
    iden = [int(c * lcm) for c in den]
    content = 0
    for c in inum + iden:
        content = math.gcd(content, abs(c))
    inum = [c // content for c in inum]
    iden = [c // content for c in iden]
    return f"({_poly_text(inum)})/({_poly_text(iden)})", len(den) - 1


# -- table generation -----------------------------------------------------------


def _coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _shape(rng: random.Random, w: Workload, count: int, sign: str) -> Shape:
    """Distinct shifts p/q in [0, 6] with q <= max_denominator, and multiplicities."""
    chosen: set = set()
    while len(chosen) < count:
        q = rng.randint(1, w.max_denominator)
        chosen.add(Fraction(rng.randint(0, MAX_SHIFT * q), q))
    if sign == ALTERNATING and w.alternating_simple_only:
        mults = [1] * count
    else:
        mults = [rng.randint(1, w.max_multiplicity) for _ in range(count)]
    if sign == PLAIN and count == 1:
        mults = [max(2, mults[0])]  # a lone simple pole would diverge
    return tuple(zip(sorted(chosen), mults))


def corpus(workload: str) -> List[Tuple[str, Shape]]:
    """The workload's fixed denominators: (sign, shape) for every slot of a round.

    Shift counts cycle through the workload's list in steps of three slots
    and every third slot is alternating. The shapes are drawn once from a
    generator keyed by the workload name alone, so they are the same for
    every seed: factoring time varies a thousandfold between denominators,
    and when the seed drew them, the mean factoring time of 150 requests
    ranged from 107 ms to 187 ms across five seeds.
    """
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:corpus")
    out = []
    for i in range(w.round_size):
        count = w.shift_counts[(i // 3) % len(w.shift_counts)]
        sign = ALTERNATING if i % 3 == 2 else PLAIN
        out.append((sign, _shape(rng, w, count, sign)))
    return out


def make_table(rng: random.Random, shape: Shape, sign: str) -> Table:
    """Seeded coefficients A_ij of a convergent sum over this shape.

    Every shift keeps its full multiplicity (A_{i,m_i} != 0), so the
    expanded Q/P is already reduced and factors back to the same shifts.
    Plain sums need sum_i A_i1 = 0; the last simple-pole coefficient is
    solved for, and the coefficients are drawn again if that makes a
    simple pole vanish.
    """
    while True:
        table: Table = {(a, j): _coefficient(rng) for a, m in shape for j in range(1, m + 1)}
        if sign == PLAIN:
            last, m_last = shape[-1]
            table[(last, 1)] = -sum(
                (c for (a, j), c in table.items() if j == 1 and a != last), Fraction(0)
            )
            if m_last == 1 and table[(last, 1)] == 0:
                continue
        return table


def generate(workload: str, seed: int) -> List[Request]:
    """One round of requests; the same (workload, seed) gives the same round.

    The denominators come from `corpus`; the seed draws the partial-fraction
    coefficients, and with them the numerators, the closed forms and the
    values.
    """
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for i, (sign, shape) in enumerate(corpus(workload)):
        table = make_table(rng, shape, sign)
        expression, degree = table_expression(table)
        out.append(Request(i, sign, table, expression, degree))
    return out
