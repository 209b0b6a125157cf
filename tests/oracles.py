"""Closed forms the tests check the library against.

Nothing here imports phasecomm, so an oracle cannot share a fault with
the code it checks.
"""

import math


def pure_state_error(q1: float, alpha1: float, alpha2: float) -> float:
    """Helstrom error of two pure coherent states |alpha1>, |alpha2> with priors q1, 1 - q1.

    1/2 (1 - sqrt(1 - 4 q1 q2 s)) with s = |<alpha1|alpha2>|^2 =
    exp(-(alpha1 - alpha2)^2), rewritten as 2 q1 q2 s / (1 + sqrt(1 - 4 q1 q2 s))
    so that it does not cancel when s is small.
    """
    q2 = 1.0 - q1
    s = math.exp(-((alpha1 - alpha2) ** 2))
    return 2.0 * q1 * q2 * s / (1.0 + math.sqrt(1.0 - 4.0 * q1 * q2 * s))
