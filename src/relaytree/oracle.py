"""Brute-force single-level oracles.

Everything here deliberately avoids the closed-form binomial recursions
of the kernel: error probabilities are obtained by enumerating all 2^m
child-message vectors and summing their probabilities in linear domain
with compensated summation.  Slow, simple, and independent, which is
the point; the kernel is tested against these functions.

The oracle lists the vectors and counts their ones itself; it reads no
kernel table, run or binomial tail, and imports only the ErrorPair and
Priors value types.  A rule keeps its decisions: a count rule, the
majority twin on its own table included, gathers its table over the
counts of ones; only a rule that reads more of a vector than its count
is asked once per vector.  Each sum forms one term per vector with
numpy (elementwise float64 products, in the same left-to-right order as
a per-vector loop) and adds the terms with math.fsum.  Elementwise
products are the same IEEE operations as Python float products, and
fsum is correctly rounded whatever the order of its terms, so the
result is bit for bit what a per-vector loop gives.

The work is split into one-sided pieces.  alpha' reads only the rule's
decisions and alpha (`enumerate_alpha`), beta' only the decisions and
beta (`enumerate_beta`); `enumerate_step` is the two together.  Likewise
P(v | H0) reads only alpha (`h0_likelihoods`) and P(v | H1) only beta
(`h1_likelihoods`), and `map_step` scores the per-vector MAP rule on
them: the exact one-level optimum, and so an independent check of the
likelihood-ratio step.  `verify` computes each
one-sided piece once per distinct value within one check call and
keeps nothing after it.  Here only the counts of ones and zeros are
cached, per fan-in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .kernel import ErrorPair, Priors

__all__ = [
    "VectorRule",
    "majority_vector_rule",
    "count_vector_rule",
    "enumerate_alpha",
    "enumerate_beta",
    "enumerate_step",
    "h0_likelihoods",
    "h1_likelihoods",
    "map_step",
]

_MAX_FANIN = 20  # 2^20 vectors; beyond this enumeration is pointless


@dataclass(frozen=True)
class VectorRule:
    """A black-box fusion rule on raw message vectors.

    decide maps an m-tuple of bits to the probability of outputting 1,
    so deterministic rules return 0.0 or 1.0 and randomized tie-breaks
    return the tie weight.  It must be a pure function of the vector:
    it is called once per vector, and the answers are kept on the rule.
    """

    m: int
    decide: Callable[[tuple], float]

    @cached_property
    def decisions(self) -> np.ndarray:
        """decide(v) for every vector v, in enumeration order."""
        _check_fanin(self.m)
        # reversed, product's tuples run lowest bit first, the order of _counts
        vectors = (vec[::-1] for vec in itertools.product((0, 1), repeat=self.m))
        d = np.fromiter(map(self.decide, vectors), dtype=float, count=1 << self.m)
        bad = np.flatnonzero(~((d >= 0.0) & (d <= 1.0)))  # NaN is bad too
        if bad.size:
            i = int(bad[0])
            vec = tuple((i >> t) & 1 for t in range(self.m))
            raise ValueError(f"decide({vec}) = {d[i]} outside [0, 1]")
        d.flags.writeable = False
        return d


def majority_vector_rule(m: int, tie_weight: float = 0.5) -> VectorRule:
    """Count-the-ones majority.  For even m a tie outputs 1 with
    probability tie_weight; 1.0 and 0.0 give the deterministic phases."""
    table = [1.0 if 2 * s > m else tie_weight if 2 * s == m else 0.0 for s in range(m + 1)]
    return count_vector_rule(m, table)


def count_vector_rule(m: int, table) -> VectorRule:
    """Rule that looks up P(output 1) by the number of ones in the vector."""
    probs = tuple(float(x) for x in table)
    if len(probs) != m + 1:
        raise ValueError(f"need {m + 1} entries for fan-in {m}, got {len(probs)}")
    if not all(0.0 <= p <= 1.0 for p in probs):  # NaN is refused too
        raise ValueError(f"table entries must lie in [0, 1], got {probs}")
    return _CountRule(m, lambda vector: probs[sum(vector)], probs)


@dataclass(frozen=True)
class _CountRule(VectorRule):
    """A rule on the count of ones.  Its decisions gather its table over
    the cached counts: the floats decide gives, without calling it."""

    probs: tuple

    @cached_property
    def decisions(self) -> np.ndarray:
        _check_fanin(self.m)
        d = np.array(self.probs)[_counts(self.m)[0]]
        d.flags.writeable = False
        return d


@lru_cache(maxsize=None)  # one entry per fan-in, at most 19 under the cap
def _counts(m: int):
    """The number of ones and of zeros in each m-bit vector, lowest bit
    = first message, as read-only intp arrays."""
    codes = np.arange(1 << m, dtype=np.intp)
    ones = sum((codes >> t) & 1 for t in range(m))
    zeros = m - ones
    ones.flags.writeable = zeros.flags.writeable = False
    return ones, zeros


def _check_fanin(m: int) -> None:
    if not 2 <= m <= _MAX_FANIN:
        raise ValueError(f"enumeration supports 2 <= m <= {_MAX_FANIN}, got {m}")


def _pow_tables(p: float, m: int):
    """p^s and (1-p)^s for s = 0..m, as repeated products."""
    direct = [1.0]
    inverse = [1.0]
    for _ in range(m):
        direct.append(direct[-1] * p)
        inverse.append(inverse[-1] * (1.0 - p))
    return np.array(direct), np.array(inverse)


def _fsum(terms: np.ndarray) -> float:
    return min(math.fsum(terms.tolist()), 1.0)


def enumerate_alpha(rule: VectorRule, alpha: float) -> float:
    """Exact alpha' of a vector rule, in linear domain:

    alpha' = sum over vectors of P(v | H0) * decide(v)

    where P(v | H0) makes each bit Bernoulli(alpha).  It reads no beta.
    """
    d = rule.decisions
    ones, zeros = _counts(rule.m)
    a_pow, a_comp = _pow_tables(alpha, rule.m)
    to_one = d > 0.0
    return _fsum(d[to_one] * a_pow[ones[to_one]] * a_comp[zeros[to_one]])


def enumerate_beta(rule: VectorRule, beta: float) -> float:
    """Exact beta' of a vector rule, in linear domain:

    beta' = sum over vectors of P(v | H1) * (1 - decide(v))

    where P(v | H1) makes each bit Bernoulli(1 - beta).  It reads no alpha.
    """
    d = rule.decisions
    ones, zeros = _counts(rule.m)
    # under H1 a bit is 1 w.p. 1-beta, so "ones" carry 1-beta factors;
    # powering b itself (not 1-(1-b)) keeps exact ties exactly tied
    b_pow, b_comp = _pow_tables(beta, rule.m)
    to_zero = d < 1.0
    return _fsum((1.0 - d[to_zero]) * b_comp[ones[to_zero]] * b_pow[zeros[to_zero]])


def enumerate_step(pair: ErrorPair, m: int, rule: VectorRule) -> ErrorPair:
    """Exact one-level error pair of an arbitrary vector rule: the pair
    (enumerate_alpha, enumerate_beta)."""
    _check_fanin(m)
    if rule.m != m:
        raise ValueError(f"rule fan-in {rule.m} does not match m={m}")
    return ErrorPair.from_linear(
        enumerate_alpha(rule, pair.alpha.linear),
        enumerate_beta(rule, pair.beta.linear),
    )


def h0_likelihoods(alpha: float, m: int) -> np.ndarray:
    """P(v | H0) for every vector v, in enumeration order: each bit is
    Bernoulli(alpha)."""
    _check_fanin(m)
    ones, zeros = _counts(m)
    a_pow, a_comp = _pow_tables(alpha, m)
    return a_pow[ones] * a_comp[zeros]


def h1_likelihoods(beta: float, m: int) -> np.ndarray:
    """P(v | H1) for every vector v, in enumeration order: each bit is
    Bernoulli(1 - beta)."""
    _check_fanin(m)
    ones, zeros = _counts(m)
    b_pow, b_comp = _pow_tables(beta, m)
    return b_comp[ones] * b_pow[zeros]


def map_step(p0: np.ndarray, p1: np.ndarray, priors: Priors) -> ErrorPair:
    """Error pair of the per-vector MAP rule on the likelihood vectors
    p0 = P(v | H0) and p1 = P(v | H1).

    Per vector, decide the hypothesis with the larger posterior mass
    pi_i * P(v | Hi), ties to H1.  Masses within 1e-9 relative count as
    tied, the same indifference convention as the likelihood-ratio rule,
    so the two routes agree at exact-arithmetic ties however the float
    products round.
    """
    priors.require_positive()
    mass0 = priors.pi0 * p0
    mass1 = priors.pi1 * p1
    to_one = mass1 >= mass0 - 1e-9 * np.maximum(mass0, mass1)
    return ErrorPair.from_linear(_fsum(p0[to_one]), _fsum(p1[~to_one]))
