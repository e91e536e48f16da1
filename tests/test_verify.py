"""A verification pass does each piece of work once, and keeps none of it;
and it fails where the pencil the FEM oracle solves is perturbed."""
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


def failed_cases():
    return [r.case for r in verify.run(grid=200) if not r.passed]


def test_oracle_stiffness_mutant_fails_its_records(monkeypatch):
    # b0 = b1 + (c - 1)^2 is (K u)_0 for the linear u of the fold: off by
    # 1e-6, the negative-b classify records and named-periodic fail
    init = fem._Spectrum.__init__

    def mutant(self, op):
        init(self, op)
        if not op.first:
            self.b0 += 1e-6

    monkeypatch.setattr(fem._Spectrum, "__init__", mutant)
    assert failed_cases() == ["interval-classify-b=-0.25", "interval-classify-b=-1",
                              "interval-classify-b=-4", "named-periodic"]


def test_oracle_mass_mutant_fails_its_records(monkeypatch):
    # the pencil (K, s M), s = 1 + 1e-7, in the solver's closed forms: the
    # poles k_j / (s m_j), k_j - sigma s m_j, and g of (K, M) at s lambda
    s = 1.0 + 1e-7
    init, g = fem._Spectrum.__init__, fem._Spectrum.g

    def mutant(self, op):
        init(self, op)
        self.poles, self.den = self.poles / s, self.den * s
        if not op.first:
            self.live, self.dead = self.live / s, self.dead / s

    monkeypatch.setattr(fem._Spectrum, "__init__", mutant)
    monkeypatch.setattr(fem._Spectrum, "g", lambda self, lam: g(self, s * lam))
    # the zero bottoms (b = -4, periodic) stay 0, and the convergence
    # orders stay inside their window
    assert failed_cases() == [
        "interval-classify-b=-0.25", "interval-classify-b=-1", "interval-classify-b=0",
        "interval-classify-b=0.5", "interval-classify-b=5", "interval-classify-b=50",
        "named-antiperiodic", "named-dirichlet", "variational-sup"]
