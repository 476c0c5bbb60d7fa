"""Small-dimension embedding-dimension tables.

Two grids over (n, d): the minimal total embedding dimension n*D at which
full-spark direction matrices are guaranteed to separate orbits
(D = n(d-1)+1, so n*D = n^2 (d-1) + n), and the maximal n*D at which no
direction matrix can separate orbits (D = (d-1) * floor(log2 n + 1)).
The expected values for n, d in 2..6 are frozen below as regression
anchors; ``verify_tables`` recomputes both grids from the formulas and
reports any mismatching cells.

``injectivity_summary`` tabulates the best known dimension bounds for the
three embeddings (sorted, pooled, sketched), and ``gap_grid`` lists, for
one n, the per-d window between guaranteed failure and guaranteed
success.
"""

from __future__ import annotations

from .separation import min_injective_D_upper, non_injective_D_threshold

__all__ = [
    "minimal_nd_table",
    "maximal_nd_table",
    "EXPECTED_MINIMAL_ND",
    "EXPECTED_MAXIMAL_ND",
    "verify_tables",
    "injectivity_summary",
    "gap_grid",
    "format_table",
]

_GRID = tuple(range(2, 7))

# Frozen n*D values for n (rows) and d (columns) in 2..6.
EXPECTED_MINIMAL_ND: dict[tuple[int, int], int] = {
    (2, 2): 6, (2, 3): 10, (2, 4): 14, (2, 5): 18, (2, 6): 22,
    (3, 2): 12, (3, 3): 21, (3, 4): 30, (3, 5): 39, (3, 6): 48,
    (4, 2): 20, (4, 3): 36, (4, 4): 52, (4, 5): 68, (4, 6): 84,
    (5, 2): 30, (5, 3): 55, (5, 4): 80, (5, 5): 105, (5, 6): 130,
    (6, 2): 42, (6, 3): 78, (6, 4): 114, (6, 5): 150, (6, 6): 186,
}

EXPECTED_MAXIMAL_ND: dict[tuple[int, int], int] = {
    (2, 2): 4, (2, 3): 8, (2, 4): 12, (2, 5): 16, (2, 6): 20,
    (3, 2): 6, (3, 3): 12, (3, 4): 18, (3, 5): 24, (3, 6): 30,
    (4, 2): 12, (4, 3): 24, (4, 4): 36, (4, 5): 48, (4, 6): 60,
    (5, 2): 15, (5, 3): 30, (5, 4): 45, (5, 5): 60, (5, 6): 75,
    (6, 2): 18, (6, 3): 36, (6, 4): 54, (6, 5): 72, (6, 6): 90,
}


def minimal_nd_table(ns=_GRID, ds=_GRID) -> dict[tuple[int, int], int]:
    """n*D at the smallest D with guaranteed separation (full-spark A)."""
    return {(n, d): n * min_injective_D_upper(n, d) for n in ns for d in ds}


def maximal_nd_table(ns=_GRID, ds=_GRID) -> dict[tuple[int, int], int]:
    """n*D at the largest D where separation is impossible for every A."""
    return {(n, d): n * non_injective_D_threshold(n, d) for n in ns for d in ds}


def verify_tables() -> list[tuple[str, int, int, int, int]]:
    """Recompute both grids and diff them against the frozen values.

    Returns a list of (table, n, d, computed, expected) mismatches; empty
    means cell-exact agreement.
    """
    mismatches = []
    for (n, d), got in minimal_nd_table().items():
        want = EXPECTED_MINIMAL_ND[(n, d)]
        if got != want:
            mismatches.append(("minimal", n, d, got, want))
    for (n, d), got in maximal_nd_table().items():
        want = EXPECTED_MAXIMAL_ND[(n, d)]
        if got != want:
            mismatches.append(("maximal", n, d, got, want))
    return mismatches


def injectivity_summary(ns=_GRID, ds=_GRID) -> list[dict]:
    """Best known dimension bounds per embedding for each (n, d).

    ``sorted_upper`` is the total dimension n^2 (d-1) + n sufficient for
    the sorted embedding; ``sorted_lower`` the largest total dimension at
    which it provably fails.  The pooled and sketched variants share the
    sufficient output dimension 2 (n-1) d, and n*d is the floor any
    injective continuous invariant needs.
    """
    rows = []
    for n in ns:
        for d in ds:
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "sorted_upper": n * min_injective_D_upper(n, d),
                    "sorted_lower": n * non_injective_D_threshold(n, d),
                    "pooled_upper": 2 * (n - 1) * d,
                    "sketched_upper": 2 * (n - 1) * d,
                    "generic_lower": n * d,
                }
            )
    return rows


def gap_grid(n: int, ds=_GRID) -> list[dict]:
    """Per-d window between guaranteed-failing and guaranteed-working D."""
    rows = []
    for d in ds:
        rows.append(
            {
                "d": d,
                "D_no_separation_max": non_injective_D_threshold(n, d),
                "D_separation_min": min_injective_D_upper(n, d),
            }
        )
    return rows


def format_table(table: dict[tuple[int, int], int], ns=_GRID, ds=_GRID) -> str:
    """Render an (n, d) grid as aligned text with n rows and d columns."""
    header = "n\\d " + " ".join(f"{d:>5d}" for d in ds)
    lines = [header]
    for n in ns:
        lines.append(f"{n:>3d} " + " ".join(f"{table[(n, d)]:>5d}" for d in ds))
    return "\n".join(lines)
