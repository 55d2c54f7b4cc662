from importlib import import_module

import pytest

import lrhive


@pytest.fixture
def unread(monkeypatch):
    """The package as if no export had been read: drop the names an earlier read cached."""
    for name in lrhive.__all__:
        monkeypatch.delattr(lrhive, name, raising=False)
    return lrhive


class TestLazyExports:
    """The package's export table, read through its module __getattr__ and __dir__."""

    def test_every_name_is_its_home_modules_object(self, unread):
        for name in unread.__all__:
            assert name not in vars(unread)
            home = import_module(f"lrhive.{unread._HOME[name]}")
            assert getattr(unread, name) is getattr(home, name), name
            assert name in vars(unread)  # cached after the first read

    def test_dir_lists_every_export(self, unread):
        assert set(unread.__all__) <= set(dir(unread))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'lrhive' has no attribute 'nope'"):
            lrhive.nope
