"""The factored corpus: N with known prime factors and their expected n_max.

Rows of tests/data/factored_corpus.csv hold N, its factorisation as
"p^e*q*..." and n_max, computed independently with sympy.  They cover
strong pseudoprimes (2047 through psi13), 2^61 - 1 and powers of two, the
primorials up to 41#, two highly composite numbers, T(n) and T(n) +- 1 for
n = 1000 and 1001, the exact tie p(2p + 1) for a Sophie Germain prime p and
p*q with q the next prime above 2p + 1, and 10^30.
"""

import csv

import pytest

from baskets.arith import divisors, is_prime
from baskets.census import classify
from baskets.solver import max_baskets, solve

from .conftest import DATA_DIR

# Strong-pseudoprime tests on these bases are exact below psi13.
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI13 = 3317044064679887385961981


def _read_corpus():
    out = []
    with open(DATA_DIR / "factored_corpus.csv", newline="") as f:
        for row in csv.DictReader(f):
            factors = []
            for power in row["factorisation"].split("*"):
                p, _, e = power.partition("^")
                factors.append((int(p), int(e or 1)))
            out.append((int(row["N"]), factors, int(row["n_max"])))
    return out


CORPUS = _read_corpus()


def _strong_probable_prime(n):
    """Miller-Rabin on BASES; exact for n < PSI13."""
    if n < 2:
        return False
    for a in BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_corpus_holds_the_hard_rows():
    # psi12, psi13, psi11 (the least strong pseudoprime to the bases 2..31),
    # 41#, 10^30 and 2^61 - 1, with their answers
    expected = {
        318665857834031151167461: 798330580441,
        PSI13: 2575672364521,
        3825123056546413051: 34233211,
        304250263527210: 24666235,
        10**30: 1310720000000000,
        2**61 - 1: 1,
    }
    got = {n_input: n_max for n_input, _, n_max in CORPUS}
    assert {n: got.get(n) for n in expected} == expected
    assert len(got) == len(CORPUS) == 33


@pytest.mark.parametrize("n_input,factors,n_max", CORPUS,
                         ids=[str(row[0]) for row in CORPUS])
def test_factored_row(n_input, factors, n_max):
    prime = factors == [(n_input, 1)]
    if n_input < PSI13:
        assert _strong_probable_prime(n_input) == prime
    product = 1
    for p, e in factors:
        assert p < PSI13 and _strong_probable_prime(p), p
        product *= p**e
    assert product == n_input

    expected = [1]
    for p, e in factors:
        expected = [d * p**k for d in expected for k in range(e + 1)]
    largest = max_baskets(n_input)
    assert max(d for d in expected if d <= largest) == n_max
    assert divisors(n_input) == tuple(sorted(expected))
    assert is_prime(n_input) is prime

    solution = solve(n_input)
    assert solution.n_max == n_max
    assert classify(solution)["prime"] == prime


def test_psi13_is_not_prime():
    # psi13 passes Miller-Rabin on all 13 bases, so below it they are exact
    # and from it up the library needs BPSW
    assert _strong_probable_prime(PSI13)
    assert is_prime(PSI13) is False
