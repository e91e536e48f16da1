"""A verification pass does each piece of work once, and keeps none of it."""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from topext import coulomb, fem, interval, kvb, verify


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
        # 50 on the t grid and 1 secular root; classify reads its own bottom
        assert len(spectra) == 51


def test_family_cases_decide_in_stacked_calls(monkeypatch):
    # krein-bound: one family of 40 forms, one is_top_extension call per t;
    # coulomb-roots: F_nu on the probe grid once per nu for its two alphas,
    # as one array call; the scalar calls are the root searches' and the
    # checks around them, bounded since Brent's step count follows its path
    calls, levels = Counter(), []
    model = interval.deficiency_model()
    is_top_extension, count_sign_changes = kvb.is_top_extension, coulomb.count_sign_changes
    script_F = coulomb.script_F

    def weighted_gram(mu):
        levels.append(mu)
        return model.weighted_gram(mu)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    wrapped = dataclasses.replace(model, weighted_gram=weighted_gram)
    monkeypatch.setattr(interval, "deficiency_model", lambda terms=10_000: wrapped)
    monkeypatch.setattr(kvb, "is_top_extension", counted("top", is_top_extension))
    monkeypatch.setattr(coulomb, "count_sign_changes", counted("sign", count_sign_changes))

    def counted_F(nu, E):
        calls["F array" if isinstance(E, np.ndarray) else "F scalar"] += 1
        return script_F(nu, E)

    monkeypatch.setattr(coulomb, "script_F", counted_F)
    for _ in range(2):
        calls.clear()
        levels.clear()
        for only in ("krein-bound", "coulomb-roots"):
            assert [r.passed for r in verify.run(grid=200, only=only)] == [True]
        assert 0 < calls.pop("F scalar") < 200
        assert calls == {"top": 50, "sign": 5, "F array": 5}
        assert len(levels) == len(set(levels)) == 40
