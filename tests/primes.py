"""Prime search for tests: the oracle's moduli and the proof that
exactla.P is the largest prime below 2^25."""

from coset_radon.exactla import is_prime


def next_prime(n: int) -> int:
    k = max(2, n + 1)
    while not is_prime(k):
        k += 1
    return k


def check_primes(bound: int, count: int = 3) -> list[int]:
    """The first `count` primes strictly above `bound`."""
    out = []
    p = bound
    for _ in range(count):
        p = next_prime(p)
        out.append(p)
    return out
