import pytest

from coupledforms import forms


@pytest.fixture
def bisections(monkeypatch):
    """The ``(a, b)`` of every ``forms._lambda_min`` call while a test runs; ``_lambda_max`` goes through it."""
    calls = []
    real = forms._lambda_min

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(forms, "_lambda_min", counting)
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """The shift ``mu`` of every ``forms._Pencil.definite`` call, one banded Cholesky factorization each, while a test runs."""
    shifts = []
    real = forms._Pencil.definite

    def counting(self, mu, *weights):
        shifts.append(mu)
        return real(self, mu, *weights)

    monkeypatch.setattr(forms._Pencil, "definite", counting)
    return shifts


@pytest.fixture
def pencils(monkeypatch):
    """Every ``forms._Pencil`` built while a test runs, one banded scatter each."""
    built = []
    real = forms._Pencil.__init__

    def counting(self, a, b, *rest):
        built.append(self)
        real(self, a, b, *rest)

    monkeypatch.setattr(forms._Pencil, "__init__", counting)
    return built
