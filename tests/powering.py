"""The powering reference for `power_sum_pow`: a test helper for the checks
of its multinomial route."""

from restrictedsums import SparsePoly


def power_sum_by_powering(n: int, k: int, N: int) -> SparsePoly:
    """(x1^k + ... + xn^k) ** N by repeated squaring of the expanded power
    sum (`SparsePoly.pow`)."""
    return SparsePoly(n, {tuple(k if i == j else 0 for i in range(n)): 1 for j in range(n)}).pow(N)
