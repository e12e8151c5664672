import pytest

from coupledforms import forms


@pytest.fixture
def bisections(monkeypatch):
    """The ``(a, b)`` of every ``forms._lambda_min`` call while a test runs; ``_lambda_max`` goes through it."""
    calls = []
    real = forms._lambda_min

    def counting(a, b, rtol=forms.SPECTRAL_RTOL):
        calls.append((a, b))
        return real(a, b, rtol)

    monkeypatch.setattr(forms, "_lambda_min", counting)
    return calls
