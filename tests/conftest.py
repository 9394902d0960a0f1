import numpy as np
import pytest

from implinear.linalg import CovMatrix, sym_eig


@pytest.fixture
def count_sym_eig(monkeypatch):
    """count_sym_eig(*modules) wraps `sym_eig` at each module's binding and
    returns the list it fills: one (module, m) entry per m x m matrix
    factorized, so a stacked call of T matrices adds T entries."""

    def install(*modules):
        matrices = []
        for module in modules:
            name = module.__name__.rsplit(".", 1)[-1]

            def counted(cov, name=name):
                sizes = [cov.p] if isinstance(cov, CovMatrix) else [np.shape(cov)[-1]] * len(cov)
                matrices.extend((name, m) for m in sizes)
                return sym_eig(cov)

            monkeypatch.setattr(module, "sym_eig", counted)
        return matrices

    return install
