"""Public-API surface tests: documented entry points import, carry
docstrings, and the package's __all__ is honest."""

import importlib
import inspect

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
    "repro.nn.extras",
    "repro.nn.optim",
    "repro.nn.serialize",
    "repro.nn.checkpoint",
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
    "repro.video.codec",
    "repro.video.preview",
    "repro.distill",
    "repro.distill.config",
    "repro.distill.trainer",
    "repro.distill.ensembles",
    "repro.striding",
    "repro.striding.adaptive",
    "repro.striding.baselines",
    "repro.network",
    "repro.network.messages",
    "repro.network.model",
    "repro.network.dynamic",
    "repro.comm",
    "repro.comm.interface",
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
    "repro.analysis.per_class",
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
            "max_sessions", "overload", "obs_config", "report_timeout_s",
            "options",
        ),
        "repro.serving.fleet:start_fleet": (
            "n_shards", "transport", "n_clients", "shared_teacher",
            "idle_timeout_s", "max_sessions", "overload", "obs_config",
            "timeout_s", "ledger_capacity", "report_timeout_s", "shm_options",
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
        from repro.comm.interface import Endpoint

        assert Endpoint.__abstractmethods__ == {"send", "recv"}
