"""A verification pass does each piece of work once, and keeps none of it."""
from collections import Counter

import pytest

from topext import fem, interval, verify


@pytest.mark.parametrize("grid, assemblies", [
    # 7 classify conditions at grid and grid // 2, Dirichlet and Periodic at
    # both, AntiPeriodic(0) shared with classify b = 0, and convergence at
    # 500 and 1000 for Dirichlet and AntiPeriodic(0): at grid 2000 the two
    # 1000 solves are shared too
    (200, 22),
    (2000, 20),
])
def test_pass_does_each_piece_of_work_once(monkeypatch, grid, assemblies):
    assembled, spectra = Counter(), []
    assemble, spectrum = fem.assemble, interval.spectrum

    def counted_assemble(n, bc):
        assembled[n, bc] += 1
        return assemble(n, bc)

    def counted_spectrum(*args, **kwargs):
        spectra.append(args)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble", counted_assemble)
    monkeypatch.setattr(interval, "spectrum", counted_spectrum)
    for _ in range(2):
        assembled.clear()
        spectra.clear()
        assert all(r.passed for r in verify.run(grid=grid))
        assert sum(assembled.values()) == assemblies
        assert set(assembled.values()) == {1}
        # 50 on the t grid, 7 classify conditions, 1 secular root
        assert len(spectra) == 58
