import math

import numpy as np
import pytest

from edgesign.harness import paired_t_test

from oracles import student_t_two_sided_p


@pytest.mark.parametrize("size,shift,seed", [(2, 0.1, 0), (5, 0.0, 1), (12, 0.3, 2),
                                             (30, -0.05, 3)])
def test_paired_t_test_matches_quadrature(size, shift, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=size)
    b = a - shift + 0.2 * rng.normal(size=size)
    result = paired_t_test(a, b)
    d = a - b
    t = d.mean() / (d.std(ddof=1) / math.sqrt(size))
    assert not result.degenerate
    assert result.t_statistic == pytest.approx(t, rel=1e-12)
    assert result.p_value == pytest.approx(student_t_two_sided_p(t, size - 1),
                                           rel=1e-6, abs=1e-10)


def test_zero_variance_differences_are_degenerate():
    a = np.array([0.25, 0.5, 1.75])  # exact binary fractions: every difference is 0.25
    same = paired_t_test(a, a)
    assert same.degenerate and same.p_value == 1.0 and same.t_statistic == 0.0
    shifted = paired_t_test(a + 0.25, a)
    assert shifted.degenerate and shifted.p_value == 0.0
    assert math.isnan(shifted.t_statistic)


@pytest.mark.parametrize("a,b", [([1.0], [2.0]), ([1.0, 2.0], [1.0, 2.0, 3.0])])
def test_paired_t_test_rejects_short_or_unequal_vectors(a, b):
    with pytest.raises(ValueError):
        paired_t_test(a, b)
