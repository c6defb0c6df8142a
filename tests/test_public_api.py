"""Public-API surface tests: documented entry points import, carry
docstrings, the package's __all__ is honest, and every module under
``src/repro`` has a caller."""

import ast
import importlib
import inspect
import pathlib

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.autograd",
    "repro.autograd.tensor",
    "repro.autograd.conv",
    "repro.autograd.functional",
    "repro.nn",
    "repro.nn.module",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.nn.serialize",
    "repro.nn.init",
    "repro.models",
    "repro.models.student",
    "repro.models.teacher",
    "repro.models.pretrain",
    "repro.segmentation",
    "repro.segmentation.metrics",
    "repro.segmentation.losses",
    "repro.segmentation.boundary",
    "repro.video",
    "repro.video.scene",
    "repro.video.render",
    "repro.video.generator",
    "repro.video.dataset",
    "repro.video.preview",
    "repro.distill",
    "repro.distill.config",
    "repro.distill.trainer",
    "repro.striding",
    "repro.striding.adaptive",
    "repro.striding.baselines",
    "repro.network",
    "repro.network.messages",
    "repro.network.model",
    "repro.network.dynamic",
    "repro.transport",
    "repro.transport.wire",
    "repro.transport.shm",
    "repro.transport.socket",
    "repro.transport.link",
    "repro.transport.registry",
    "repro.runtime",
    "repro.runtime.clock",
    "repro.runtime.stats",
    "repro.runtime.server",
    "repro.runtime.client",
    "repro.runtime.naive",
    "repro.runtime.session",
    "repro.runtime.trace",
    "repro.serving",
    "repro.serving.pool",
    "repro.serving.scheduler",
    "repro.serving.batched",
    "repro.serving.shared",
    "repro.serving.runtime",
    "repro.serving.fleet",
    "repro.serving.overload",
    "repro.serving.storms",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.analytic",
    "repro.analytic.bounds",
    "repro.analytic.planner",
    "repro.analysis",
    "repro.analysis.traces",
    "repro.analysis.ascii_plot",
    "repro.experiments",
    "repro.experiments.configs",
    "repro.experiments.runner",
    "repro.experiments.tables",
    "repro.experiments.figures",
    "repro.experiments.validate",
    "repro.experiments.report",
    "repro.cli",
]


class TestModules:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_imports(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, (
            f"{name} lacks a meaningful module docstring"
        )


class TestTopLevelAll:
    def test_all_entries_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestServingSignatures:
    """The serving entry points take exactly these parameters: a knob
    that comes back has to come back here first."""

    PINNED = {
        "repro.serving.runtime:ServerRuntime": (
            "idle_timeout_s", "max_sessions", "overload", "fleet", "teachers",
        ),
        "repro.serving.runtime:start_server": (
            "blueprints", "transport", "n_clients", "idle_timeout_s",
            "max_sessions", "overload", "obs_config", "options",
        ),
        "repro.serving.fleet:start_fleet": (
            "n_shards", "shared_teacher", "idle_timeout_s", "max_sessions",
            "overload", "obs_config", "timeout_s",
        ),
        "repro.serving.pool:SessionPool": ("specs",),
        "repro.serving.batched:BatchedPredictor": (),
        "repro.runtime.server:Server.handle_key_frame": (
            "self", "frame", "label", "max_updates",
        ),
        "repro.runtime.session:build_session": (
            "config", "frame_hw", "teacher", "stride_policy",
        ),
        "repro.serving.runtime:MuxRemoteServer.handle_key_frame": (
            "self", "frame", "label",
        ),
    }

    @pytest.mark.parametrize("target", sorted(PINNED))
    def test_exact_parameter_list(self, target):
        module, _, path = target.partition(":")
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part)
        assert tuple(inspect.signature(obj).parameters) == self.PINNED[target]

    def test_session_config_fields(self):
        """How a session reaches its server is ``attach`` or nothing:
        no transport selector lives on the config."""
        import dataclasses

        from repro.runtime.session import SessionConfig

        assert tuple(f.name for f in dataclasses.fields(SessionConfig)) == (
            "distill", "latency", "network", "sizes", "student_width",
            "student_seed", "pretrain_steps", "forced_delay_frames",
            "teacher_boundary_noise", "teacher_arch", "teacher_width",
            "teacher_seed", "attach",
        )

    def test_endpoint_abstract_methods(self):
        """A link is blocking send / recv; there is no request half."""
        from repro.transport import Endpoint

        assert Endpoint.__abstractmethods__ == {"send", "recv"}


class TestEveryModuleHasACaller:
    """A module nothing runs is a module nobody measures: every
    non-``__init__`` module under ``src/repro`` must be imported by a
    file in ``src/``, ``scripts/``, ``examples/``, ``benchmarks/`` or
    ``bench/`` other than itself and its package ``__init__`` — a test
    file and a re-export do not count as callers."""

    REPO = pathlib.Path(__file__).resolve().parents[1]
    CALLER_DIRS = ("src", "scripts", "examples", "benchmarks", "bench")
    #: Modules that are where execution starts, not where it is called.
    ROOTS = {
        # The entry point: ``python -m repro.cli`` / setup.py's console script.
        "repro.cli",
    }

    @staticmethod
    def _imported(path):
        """Every dotted name ``path`` imports: ``import a.b`` gives
        ``a.b``; ``from a import b`` gives ``a`` and ``a.b`` (``b`` may
        be a submodule)."""
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path}: relative import"
                names.add(node.module)
                names.update(f"{node.module}.{a.name}" for a in node.names)
        return names

    def test_no_module_without_a_caller(self):
        package = self.REPO / "src" / "repro"
        imports = {
            path: self._imported(path)
            for top in self.CALLER_DIRS
            for path in sorted((self.REPO / top).rglob("*.py"))
        }
        orphans = []
        for path in sorted(package.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            name = ".".join(
                path.relative_to(package.parent).with_suffix("").parts
            )
            own = {path, path.with_name("__init__.py")}
            if name not in self.ROOTS and not any(
                name in names for caller, names in imports.items()
                if caller not in own
            ):
                orphans.append(name)
        assert not orphans, (
            f"imported by nothing but their own package __init__: {orphans}"
        )


class TestOneInterpretedTrainingLoop:
    """Outside ``repro.autograd`` a loss is back-propagated through the
    define-by-run graph in exactly one place, the step runner Algorithm
    1 and pre-training get where no train plan exists; everything else
    steps through the compiled plan (whose kernels' ``backward(grad)``
    take an argument and are not this)."""

    def test_backward_is_called_in_one_function(self):
        callers = set()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "backward"
                    and not child.args and not child.keywords
                ):
                    callers.add(scope)
                named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
                visit(child, f"{scope}.{child.name}" if named else scope)

        package = TestEveryModuleHasACaller.REPO / "src" / "repro"
        for path in sorted(package.rglob("*.py")):
            if "autograd" not in path.relative_to(package).parts:
                visit(ast.parse(path.read_text()), path.stem)
        assert callers == {"trainer._AutogradStepRunner.step"}

    def test_the_loop_is_reached_only_through_the_no_plan_branch(self):
        """``_AutogradStepRunner`` is constructed once in ``src/``: the
        last statement of ``make_step_runner``, behind ``if train_plan
        is not None: return <compiled>`` — no flag, no ``isinstance``,
        no freeze-state test stands between a model and its plan."""
        package = TestEveryModuleHasACaller.REPO / "src" / "repro"
        uses = [
            path.stem
            for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and node.id == "_AutogradStepRunner"
        ]
        assert uses == ["trainer"]
        trainer = ast.parse((package / "distill" / "trainer.py").read_text())
        (factory,) = [
            node for node in trainer.body
            if isinstance(node, ast.FunctionDef) and node.name == "make_step_runner"
        ]
        *_, guard, fallback = factory.body
        assert isinstance(guard, ast.If) and not guard.orelse
        assert ast.unparse(guard.test) == "train_plan is not None"
        (compiled,) = guard.body
        assert ast.unparse(compiled.value.func) == "_CompiledStepRunner"
        assert ast.unparse(fallback.value.func) == "_AutogradStepRunner"
        returns = [n for n in ast.walk(factory) if isinstance(n, ast.Return)]
        assert returns == [compiled, fallback] or returns == [fallback, compiled]
