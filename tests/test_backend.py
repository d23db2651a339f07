"""Unit tests for the multi-backend array shim (`repro.core.backend`)."""

import os

import numpy as np
import pytest

from repro.core import backend as backend_mod
from repro.core.backend import (
    BACKEND_ENV,
    BACKEND_NAMES,
    BackendUnavailableError,
    available_backends,
    backend_name,
    get_backend,
    reset_backend,
    set_backend,
    to_numpy,
    use_backend,
    xp,
)


@pytest.fixture(autouse=True)
def _restore_selection():
    """Reset selection, ``xp`` memo and env override around every test.

    Goes through :func:`reset_backend` rather than writing module state,
    so the proxy's memo can never outlive the selection it came from.
    """
    prev_env = os.environ.get(BACKEND_ENV)
    reset_backend()
    yield
    if prev_env is None:
        os.environ.pop(BACKEND_ENV, None)
    else:
        os.environ[BACKEND_ENV] = prev_env
    reset_backend()


class TestXpProxy:
    def test_dispatches_to_numpy_bit_for_bit(self):
        a = xp.linspace(0.0, 1.0, 17)
        b = np.linspace(0.0, 1.0, 17)
        assert isinstance(a, np.ndarray)
        assert np.array_equal(a, b)
        assert np.array_equal(xp.exp(a), np.exp(b))

    def test_constants_and_dtypes_forward(self):
        assert xp.pi == np.pi
        assert xp.dtype(xp.float32) == np.dtype(np.float32)
        assert xp.float64 is np.float64

    def test_repr_names_active_backend(self):
        assert "numpy" in repr(xp)


class TestSelection:
    def test_default_is_numpy(self):
        os.environ.pop(BACKEND_ENV, None)
        assert backend_name() == "numpy"
        assert get_backend().name == "numpy"

    def test_env_var_selects_backend(self):
        os.environ[BACKEND_ENV] = "numpy"
        assert backend_name() == "numpy"
        assert get_backend().name == "numpy"

    def test_explicit_wins_over_env(self):
        os.environ[BACKEND_ENV] = "torch"
        set_backend("numpy")
        assert backend_name() == "numpy"

    def test_unknown_backend_is_clean_error(self):
        with pytest.raises(BackendUnavailableError, match="unknown backend"):
            set_backend("jax")

    def test_use_backend_scopes_and_restores(self):
        os.environ[BACKEND_ENV] = "torch"
        with use_backend("numpy") as be:
            assert be.name == "numpy"
            assert backend_name() == "numpy"
        assert backend_name() == "torch"

    def test_use_backend_restores_on_error(self):
        os.environ[BACKEND_ENV] = "torch"
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert backend_name() == "torch"


class _MarkedNamespace:
    """numpy plus a ``marker`` attribute naming the namespace."""

    def __init__(self, marker):
        self.marker = marker

    def __getattr__(self, name):
        return getattr(np, name)


class _FakeBackend(backend_mod.NumpyBackend):
    name = "fake"

    def _resolve_namespace(self):
        super()._resolve_namespace()
        return _MarkedNamespace("fake")


@pytest.fixture()
def fake_backend(monkeypatch):
    """Register a numpy-backed ``fake`` backend for the test's duration."""
    monkeypatch.setitem(backend_mod._FACTORIES, "fake", _FakeBackend)
    yield "fake"
    backend_mod._instances.pop("fake", None)


class TestXpProxyCache:
    """``xp`` resolves once; every selection change reaches it."""

    def test_resolves_backend_once(self, monkeypatch):
        calls = []
        real = backend_mod.get_backend

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(backend_mod, "get_backend", counting)
        reset_backend()
        for _ in range(100):
            xp.exp, xp.zeros, xp.float64
        assert len(calls) == 1
        assert xp.exp is np.exp

    def test_set_backend_takes_effect(self, fake_backend):
        assert not hasattr(xp, "marker")
        set_backend(fake_backend)
        assert xp.marker == "fake"
        set_backend("numpy")
        assert not hasattr(xp, "marker")
        assert xp.exp is np.exp

    def test_use_backend_exit_takes_effect(self, fake_backend):
        xp.exp  # memoised under numpy before the scope opens
        with use_backend(fake_backend):
            assert xp.marker == "fake"
        assert not hasattr(xp, "marker")
        assert xp.exp is np.exp

    def test_changed_env_takes_effect(self, fake_backend, monkeypatch):
        xp.exp
        monkeypatch.setenv(BACKEND_ENV, fake_backend)
        # get_backend() reads the variable on every call ...
        assert get_backend().name == "fake"
        # ... xp once per resolution, so a running process resets it.
        reset_backend()
        assert xp.marker == "fake"
        monkeypatch.delenv(BACKEND_ENV)
        reset_backend()
        assert not hasattr(xp, "marker")


class TestAvailability:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    @pytest.mark.parametrize("name", ["cupy", "torch"])
    def test_missing_accelerator_raises_with_alternatives(self, name):
        """Accelerator backends absent in this container fail cleanly.

        If one IS importable here, selection must still succeed or raise
        the typed error - never a raw ImportError.
        """
        try:
            be = set_backend(name)
        except BackendUnavailableError as exc:
            assert exc.backend == name
            assert "available:" in str(exc)
            assert "numpy" in str(exc)
        else:
            assert be.name == name

    def test_selection_does_not_leak_on_failure(self):
        if "cupy" in available_backends():
            pytest.skip("cupy importable in this environment")
        with pytest.raises(BackendUnavailableError):
            set_backend("cupy")
        assert backend_name() == "numpy"


class TestNumpyBackendTransforms:
    def test_dctn_roundtrip(self):
        be = get_backend()
        a = np.random.default_rng(2).random((8, 8))
        coeff = be.dctn(a, type=2, norm="ortho")
        np.testing.assert_allclose(
            be.idctn(coeff, type=2, norm="ortho"), a, rtol=1e-12
        )

    def test_to_numpy_is_host_array(self):
        out = to_numpy(xp.arange(5))
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [0, 1, 2, 3, 4]


def test_backend_names_frozen():
    assert BACKEND_NAMES == ("numpy", "cupy", "torch")
