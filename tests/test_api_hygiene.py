"""API hygiene: documentation and export discipline, enforced.

A library a downstream user adopts must be documented at every public
surface.  These tests walk the installed package and assert it:

- every module has a docstring;
- every public class, function and method has a docstring;
- every name in a package's ``__all__`` actually resolves;
- the exception hierarchy stays rooted at :class:`ReproError`.
"""

import ast
import importlib
import inspect
import pathlib
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


class TestOneProtocolCore:
    """PROTOCOL §5–§7 are implemented once, and without I/O."""

    SRC = pathlib.Path(repro.__file__).parent
    CORES = ("pbio/stream.py", "events/protocol.py")
    FORBIDDEN = (
        "socket", "select", "selectors", "threading", "asyncio", "time", "os",
        "repro.transport", "repro.aio",
    )

    @classmethod
    def _sources(cls):
        for path in sorted(cls.SRC.rglob("*.py")):
            yield path.relative_to(cls.SRC).as_posix(), path.read_text()

    @pytest.mark.parametrize("core", CORES)
    def test_core_modules_import_no_io(self, core):
        imported = set()
        for node in ast.walk(ast.parse((self.SRC / core).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "core modules use absolute imports"
                imported.add(node.module)
        offenders = [
            name for name in imported
            if any(name == bad or name.startswith(bad + ".") for bad in self.FORBIDDEN)
        ]
        assert not offenders, offenders

    def test_announce_once_state_lives_in_one_class(self):
        owners = [
            f"{name}:{node.name}"
            for name, text in self._sources()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            for target in ast.walk(node)
            if isinstance(target, ast.Attribute)
            and target.attr == "_announced"
            and isinstance(target.ctx, ast.Store)
        ]
        assert owners == ["pbio/stream.py:RecordSender"]

    def test_metadata_kind_is_known_in_three_modules(self):
        users = {name for name, text in self._sources() if "KIND_FORMAT" in text}
        assert users == {"pbio/context.py", "pbio/stream.py", "events/backbone.py"}

    def test_envelopes_are_unpacked_only_by_the_protocol_module(self):
        callers = {name for name, text in self._sources() if "unpack_envelope(" in text}
        assert callers == {"events/protocol.py"}


class TestOneTransportCore:
    """Length prefixes are parsed, and frames sent, in one place per job."""

    SRC = TestOneProtocolCore.SRC
    CHANNELS = {
        "transport/tcp.py": "TCPChannel",
        "aio/channel.py": "AsyncTCPChannel",
    }

    @pytest.mark.parametrize("needle", ["MAX_FRAME_SIZE", "_LENGTH.unpack"])
    def test_only_the_framing_module_parses_a_length_prefix(self, needle):
        users = {name for name, text in TestOneProtocolCore._sources() if needle in text}
        assert users == {"wire/framing.py"}

    def test_async_channel_has_no_stream_reader(self):
        text = (self.SRC / "aio/channel.py").read_text()
        for gone in ("readexactly", "StreamReader", "StreamWriter"):
            assert gone not in text, gone

    def test_dead_knobs_stay_gone(self):
        import repro.aio
        import repro.transport

        for package in (repro.aio, repro.transport):
            for name in package.__all__:
                member = getattr(package, name)
                functions = [member, *vars(member).values()]
                for function in filter(inspect.isfunction, functions):
                    parameters = inspect.signature(function).parameters
                    assert not {"coalesce_bytes", "high_water"} & set(parameters), (
                        f"{package.__name__}.{name}: {function}"
                    )
        definers = [
            name for name, text in TestOneProtocolCore._sources() if "poisoned" in text
        ]
        assert not definers, definers

    def test_one_per_registry_handle_memo(self):
        assigners = {
            name
            for name, text in TestOneProtocolCore._sources()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Name)
            and node.id == "_obs_memo"
            and isinstance(node.ctx, ast.Store)
        }
        assert assigners == {"obs/instr.py"}

    @pytest.mark.parametrize("module", CHANNELS)
    def test_one_send_body_per_channel(self, module):
        """Besides ``flush``, exactly one method enters the send lock."""
        tree = ast.parse((self.SRC / module).read_text())
        (channel,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == self.CHANNELS[module]
        ]
        lockers = [
            method.name
            for method in channel.body
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(method)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
            if isinstance(item.context_expr, ast.Attribute)
            and item.context_expr.attr == "_send_lock"
        ]
        assert sorted(set(lockers) - {"flush"}) == ["_send_iov"]
        assert lockers.count("_send_iov") == 1
