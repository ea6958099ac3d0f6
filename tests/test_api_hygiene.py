"""API hygiene: documentation and export discipline, enforced.

A library a downstream user adopts must be documented at every public
surface.  These tests walk the installed package and assert it:

- every module has a docstring;
- every public class, function and method has a docstring;
- every name in a package's ``__all__`` actually resolves;
- the exception hierarchy stays rooted at :class:`ReproError`.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import errors


def walk_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    return modules


MODULES = walk_modules()


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(member):
            continue
        defined_here = getattr(member, "__module__", None) == module.__name__
        if not defined_here:
            continue
        yield name, member


class TestDocstrings:
    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} lacks a module docstring"
        )

    @staticmethod
    def _documented(member) -> bool:
        return bool(member.__doc__ and member.__doc__.strip())

    @classmethod
    def _method_documented(cls, owner, method_name, method) -> bool:
        """A method counts as documented if it or any base's version is."""
        if cls._documented(method):
            return True
        for base in owner.__mro__[1:]:
            inherited = base.__dict__.get(method_name)
            if inherited is not None and cls._documented(inherited):
                return True
        return False

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_public_callables_documented(self, module):
        undocumented = []
        for name, member in public_members(module):
            if inspect.isclass(member) or inspect.isfunction(member):
                if not self._documented(member):
                    undocumented.append(name)
                if inspect.isclass(member):
                    for method_name, method in vars(member).items():
                        if method_name.startswith("_"):
                            continue
                        if inspect.isfunction(method) and not self._method_documented(
                            member, method_name, method
                        ):
                            undocumented.append(f"{name}.{method_name}")
        assert not undocumented, (
            f"{module.__name__}: undocumented public API: {undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize(
        "module",
        [m for m in MODULES if hasattr(m, "__all__")],
        ids=lambda m: m.__name__,
    )
    def test_all_names_resolve(self, module):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"

    def test_top_level_exports_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestErrorHierarchy:
    def test_every_error_roots_at_repro_error(self):
        for name, member in vars(errors).items():
            if inspect.isclass(member) and issubclass(member, Exception):
                if member is not errors.ReproError:
                    assert issubclass(member, errors.ReproError), name

    def test_no_module_raises_bare_exception(self):
        """Grep-level check: library code never raises bare Exception."""
        import pathlib

        offenders = []
        for path in pathlib.Path("src").rglob("*.py"):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                stripped = line.strip()
                if stripped.startswith("raise Exception") or stripped.startswith(
                    "raise BaseException"
                ):
                    offenders.append(f"{path}:{lineno}")
        assert not offenders, offenders


class TestNoCodecSwitches:
    """The codec has one implementation per job: nothing selects another."""

    SWITCHES = {"use_numpy", "use_fused", "use_codegen", "mode"}
    PACKAGES = ("repro.pbio", "repro.transport", "repro.events", "repro.aio")

    @staticmethod
    def _callables(module):
        for name, member in public_members(module):
            if inspect.isfunction(member):
                yield name, member
            elif inspect.isclass(member):
                for method_name, method in vars(member).items():
                    if isinstance(method, (staticmethod, classmethod)):
                        method = method.__func__
                    if inspect.isfunction(method) and (
                        not method_name.startswith("_") or method_name == "__init__"
                    ):
                        yield f"{name}.{method_name}", method

    def test_no_public_callable_takes_a_codec_switch(self):
        offenders = [
            f"{module.__name__}.{name}({parameter})"
            for module in MODULES
            if module.__name__.startswith(self.PACKAGES)
            for name, function in self._callables(module)
            for parameter in inspect.signature(function).parameters
            if parameter in self.SWITCHES
        ]
        assert not offenders, offenders

    def test_bulk_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.pbio.bulk")
