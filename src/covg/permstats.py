"""Direct permutation-statistic enumerators.

These walk all of S_n and count a statistic; they are deliberately
independent of the evaluation-span machinery so the two can check each other.
"""

from __future__ import annotations

from itertools import permutations


def inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def descents(w):
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def lis_length(w):
    """Length of the longest increasing subsequence."""
    best = []
    for x in w:
        lo, hi = 0, len(best)
        while lo < hi:
            mid = (lo + hi) // 2
            if best[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(best):
            best.append(x)
        else:
            best[lo] = x
    return len(best)


def cycle_count(w):
    n = len(w)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = w[j] - 1
    return cycles


def distribution(n, stat):
    """Coefficient list of sum_w q^stat(w) over S_n."""
    counts = {}
    for w in permutations(range(1, n + 1)):
        v = stat(w)
        counts[v] = counts.get(v, 0) + 1
    top = max(counts)
    return [counts.get(d, 0) for d in range(top + 1)]


def mahonian(n):
    """Inversion-count generating coefficients: prod_{k<=n} (1+q+...+q^(k-1))."""
    return distribution(n, inversions)


def eulerian(n):
    """Descent-count generating coefficients."""
    return distribution(n, descents)


def lis_defect(n):
    """Coefficients of sum_w q^(n - lis(w))."""
    return distribution(n, lambda w: n - lis_length(w))


def cycle_defect(n):
    """Coefficients of sum_w q^(n - cyc(w)), i.e. prod_{i<n} (1 + i q)."""
    return distribution(n, lambda w: n - cycle_count(w))


def rising_factorial_coefficients(n):
    """Coefficients of q(q+1)(q+2)...(q+n-1), by direct expansion."""
    coeffs = [0, 1]  # q
    for a in range(1, n):
        # multiply by (q + a)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += a * c
            nxt[d + 1] += c
        coeffs = nxt
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
