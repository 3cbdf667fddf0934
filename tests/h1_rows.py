"""The abelianized rows that ``homology.h1`` reduces, for the tests that
check a presentation's rows without reducing them."""

from bridgecovers import homology


def reduced_rows(p) -> list:
    """The rows of the matrix that h1(p) hands to smith_normal_form, read
    outside a report and with the reduction itself skipped."""
    seen = []
    real = homology.smith_normal_form
    homology.smith_normal_form = lambda m: seen.append(m) or ()
    try:
        homology.h1(p)
    finally:
        homology.smith_normal_form = real
    return seen[0].entries
