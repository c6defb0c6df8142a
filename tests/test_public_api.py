"""Public-API surface tests: documented entry points import, carry
docstrings, the package's __all__ is honest, and every module and
public name under ``src/repro`` has a caller."""

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
    "repro.transport",
    "repro.transport.wire",
    "repro.transport.shm",
    "repro.transport.socket",
    "repro.transport.registry",
    "repro.runtime",
    "repro.runtime.clock",
    "repro.runtime.stats",
    "repro.runtime.server",
    "repro.runtime.client",
    "repro.runtime.naive",
    "repro.runtime.session",
    "repro.serving",
    "repro.serving.pool",
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
            "max_sessions", "overload",
        ),
        "repro.serving.fleet:start_fleet": (
            "n_shards", "shared_teacher", "idle_timeout_s", "max_sessions",
            "overload",
        ),
        "repro.serving.pool:SessionPool": ("specs",),
        "repro.serving.batched:BatchedPredictor": (),
        "repro.runtime.server:Server.handle_key_frame": (
            "self", "frame", "label",
        ),
        "repro.runtime.session:build_session": (
            "config", "frame_hw", "teacher", "stride_policy",
        ),
        "repro.serving.runtime:MuxRemoteServer.handle_key_frame": (
            "self", "frame", "label",
        ),
        "repro.serving.runtime:ServerHandle.ticket": ("self", "session"),
        "repro.serving.runtime:ServerHandle.address": (
            "self", "slot", "admit_retries",
        ),
        "repro.serving.fleet:FleetHandle.address": (
            "self", "slot", "admit_retries",
        ),
        "repro.serving.runtime:ServerHandle.close": ("self",),
        "repro.serving.fleet:FleetHandle.close": ("self",),
        "repro.runtime.client:Client": (
            "student", "server", "config", "network", "sizes",
            "stride_policy", "forced_delay_frames",
        ),
        "repro.runtime.naive:NaiveOffloadClient": (
            "teacher", "network", "sizes",
        ),
        "repro.runtime.clock:SimClock": (),
        "repro.analytic.planner:paper_params": (
            "max_updates", "partial", "network", "min_stride", "max_stride",
        ),
        "repro.models.teacher:OracleTeacher": (),
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
            "distill", "network", "sizes", "student_width",
            "student_seed", "pretrain_steps", "forced_delay_frames",
            "teacher_arch", "teacher_width", "teacher_seed", "attach",
        )

    def test_distill_config_fields(self):
        """Algorithms 1 and 2's parameters and nothing else: Adam's
        moments reset on every trained key frame, with no switch."""
        import dataclasses

        from repro.distill.config import DistillConfig

        assert tuple(f.name for f in dataclasses.fields(DistillConfig)) == (
            "threshold", "max_updates", "min_stride", "max_stride", "mode",
            "lr",
        )

    def test_overload_config_fields(self):
        """The overload layer sheds at the door — admission bucket,
        capacity hint, receive budget, idle reaper — and has no knob
        that changes what an admitted session computes."""
        import dataclasses

        from repro.serving.overload import OverloadConfig

        assert tuple(f.name for f in dataclasses.fields(OverloadConfig)) == (
            "admission_rate", "admission_burst", "recv_budget_s",
            "reap_idle_s", "capacity_retry_after",
        )

    def test_session_spec_fields(self):
        """The pool has one clock: a spec says what a session plays,
        never when or how fast."""
        import dataclasses

        from repro.serving.pool import SessionSpec

        assert tuple(f.name for f in dataclasses.fields(SessionSpec)) == (
            "video", "frames", "num_frames", "config", "teacher",
            "stride_policy", "label",
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


class TestEveryPublicNameHasACaller:
    """A public name nothing runs is a name nobody measures: every
    public top-level function or class of a non-``__init__`` module
    under ``src/repro`` must be referenced — an ``ast.Name``, an
    ``ast.Attribute`` or a ``from ... import`` — by a file in the
    module rule's caller directories, anywhere but inside its own
    definition.  Package ``__init__`` code counts as a caller; its
    re-exports (``from ... import`` there) do not.

    The rule matches by name, so it only catches direct orphans: a
    cluster whose members only call each other (a link model and the
    trace pair that builds it, say) or a method nothing calls passes
    it, and is found by reading, not by this test."""

    #: Names only tests call that stay anyway, each with its reason.
    ALLOWED = {
        # The reference implementation FleetLedger is property-tested against.
        "PlacementPolicy",
        # Test support: the runner's memo cache is reset and sized by
        # the tests that need a cold cache.
        "clear_cache",
        "cache_size",
        # Test support: the autograd tests assert the no_grad state.
        "is_grad_enabled",
        # Test support: an in-process endpoint pair for transport tests.
        "make_pair",
        # Test support: reads back what write_ppm wrote.
        "read_ppm",
        # The public storm harness: README's overload snippet runs it
        # (tests/test_doc_snippets.py), and every seeded storm of
        # tests/test_serving_storms.py goes through it.
        "run_storm",
        # The reference loss: the define-by-run step every compiled
        # train step is judged against (tests/helpers.py) computes it.
        "weighted_cross_entropy",
    }

    @staticmethod
    def _definitions(package):
        """``name -> set of defining paths`` of public top-level
        functions and classes in non-``__init__`` modules."""
        defined = {}
        for path in sorted(package.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.parse(path.read_text()).body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                ):
                    defined.setdefault(node.name, set()).add(path)
        return defined

    @staticmethod
    def _references(path):
        """``(name, enclosing top-level definition or None)`` for every
        name ``path`` references."""
        found = set()
        for top in ast.parse(path.read_text()).body:
            owner = (
                top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                else None
            )
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    found.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    found.add((node.attr, owner))
                elif (
                    isinstance(node, ast.ImportFrom)
                    and path.name != "__init__.py"
                ):
                    found.update((alias.name, owner) for alias in node.names)
        return found

    def test_no_public_name_without_a_caller(self):
        repo = TestEveryModuleHasACaller.REPO
        defined = self._definitions(repo / "src" / "repro")
        callers = {}
        for top in TestEveryModuleHasACaller.CALLER_DIRS:
            for path in sorted((repo / top).rglob("*.py")):
                for name, owner in self._references(path):
                    callers.setdefault(name, set()).add((path, owner))
        orphans = sorted(
            name for name, paths in defined.items()
            if not any(
                path not in paths or owner != name
                for path, owner in callers.get(name, ())
            )
        )
        unlisted = sorted(set(orphans) - self.ALLOWED)
        assert not unlisted, f"referenced by nothing but tests: {unlisted}"
        stale = sorted(self.ALLOWED - set(orphans))
        assert not stale, f"allowlisted but called, drop them: {stale}"


class TestRetiredNamesStayRetired:
    """A replaced path is removed, not hidden behind a flag or an env
    var, and its names may not come back anywhere in the tree outside
    the Markdown notes at the root of the tree other than README.md
    (the change log, the roadmap and the planning texts record what was
    removed), this file, and ``bench/``, which is frozen (its README
    and probes describe the tree it was written against).  One
    ``(label, pattern)`` per deletion; the patterns are regular
    expressions over every text file.  What each deletion left:

    - full-mode training rides the generated adjoint plan;
    - plans are compiled once per architecture per process;
    - key frames are served inline and deduplicated by digest;
    - ADMIT is the only way in, VERSION the only wire dialect;
    - every out-of-process session is an ADMIT on a ServerRuntime;
    - a perf scenario is legs + data on the one ``compare`` core;
    - one fleet front door, two transports in a table;
    - one way to wait: the publisher always rings, the waiter parks in
      one select until its own deadline;
    - no switch selects the interpreted path (BENCH_PERF.json keeps the
      old records' names);
    - every runtime owns an overload controller, and whatever one
      connection does wrong ends that connection alone;
    - benchmarks/results.txt is the one record of the evaluation, at
      the one scale default_scale() reads;
    - nothing in src/repro that only its own tests call;
    - the overload layer sheds at the door and nowhere else, and the
      pool has one clock;
    - the interpreted conv gathers by slicing, with no per-geometry
      index arrays kept for the life of the process;
    - one step runner, the compiled one: the define-by-run step is the
      tests' reference (``tests/helpers.py``);
    - one gate, ``pytest -x -q``: every smoke assertion is a test, and
      ``pytest.ini``'s exiting ``faulthandler_timeout`` fails a wedged
      test;
    - a module's state is its parameters: batch norm keeps no running
      statistics, and modules have no buffers and no train/eval mode;
    - the engine's im2col is one copy of a strided view of every tap;
    - each op with an autograd closure and an engine step has one
      forward and one vjp, which both call (``autograd.conv``,
      ``nn.layers``, ``autograd.functional``);
    - one training rule and one label source: Adam's moments reset on
      every trained key frame, the oracle teacher is exact, a run's
      record is its ``RunStats``, and a client's admission retry jitter
      is seeded by its slot.  The two retired ADMIT fields may still be
      named as quoted wire strings, which is how the refusal tests and
      ``docs/PROTOCOL.md``'s version history name them;
    - one simulated link, ``network.model.NetworkModel``, whose steady,
      stepped and traced forms are schedules, and the paper's latencies
      are ``runtime.clock`` constants.
    """

    RETIRED = (
        ("REPRO_ENGINE_FULL escape hatch", r"REPRO_ENGINE_FULL"),
        ("plan-cache escape hatch or weight_static",
         r"REPRO_[A-Z_]*PLAN|weight_static"),
        ("co-arrival serving path (gather window / cohort / stacked serve)",
         r"gather_window_s|BatchedTeacher|infer_batch|predict_batch"
         r"|\bper_sample(_stats)?\b|wide_gemm_column_stable|iter_pow2_chunks"
         r"|_serve_cohort|batch_predicts"),
        ("HELLO / blueprint-table / legacy wire-version path",
         r"_REJECT_HEAD_V[0-9]|_V2_KINDS|\bKIND_HELLO\b|wire\.Hello"
         r"|\bopen_session\b|_open_session|admit_ticket|admit_address"
         r"|_pending_blueprints|REJECT_(DISABLED|UNKNOWN_SESSION|SESSION_IN_USE)"
         r"|share_work"),
        ("dedicated-server / pipe-transport / isend-irecv path",
         r"serve_endpoint|\bRemoteServer\b|RemoteTrainResult|_SessionChannel"
         r"|PipeTransport|spawn_pipe_pair|comm\.mp|SimulatedChannel|\bisend\b"
         r"|\birecv\b|_build_remote_session"),
        ("retired perf-measurement name or REPRO_ENGINE env switch",
         r"measure_serve_many_churn|serve-many-churn|migrate_records"
         r"|_headline_speedup"
         r"|format_(train|plan_cache|storm|fleet|serve_many|obs|pool)_record"
         r"|--migrate|\bREPRO_ENGINE\b"),
        ("trainer cached-front middle tier", r"_CachedFrontStepRunner"),
        ("shm fleet director / link shaper / plug-in registry / repro.comm",
         r"_director_main|_HandoffListener|_ReplayTransport|_start_shm_fleet"
         r"|ShapedEndpoint|shape_endpoint_pair|last_recv_nbytes"
         r"|register_transport|TransportDef|repro\.comm|ledger_capacity"
         r"|shm_options"),
        ("yield-spin / waiting-flag / back-off-nap / arm-disarm wait",
         r"_YIELD_SPINS|_YIELD_SWEEPS|_DOORBELL_NAP_MAX_S|_DOORBELL_WAIT_MAX_S"
         r"|arm_doorbell|disarm_doorbell|_CONSUMER_WAITING|_PRODUCER_WAITING"
         r"|_HAVE_EVENTFD"),
        ("process-wide engine switch",
         r"\bset_enabled\b|engine\.disabled|engine\.is_enabled"),
        ("runtime without a controller / runtime-killing session check",
         r"_DEFAULT_CAPACITY_HINT|_require_session"),
        ("second evaluation writer / per-script scale knobs",
         r"generate_experiments_md|render_experiments_md|REPRO_BENCH_FRAMES"
         r"|REPRO_(POOL|SERVE_MANY|CHURN|OBS)_FRAMES"),
        ("IR ops no model emits / asymmetric link / test-only helpers",
         r"soft_infer|SoftmaxStep|distillation_loss|avg_pool2d|AvgPool2dStep"
         r"|AsymmetricNetworkModel|LinkTracePair|lte_updown_pair"
         r"|BUNDLED_TRACE_PAIRS|directed_transfer_time|TrafficAccountant"
         r"|RunningMeanIoU|boundary_f_score|pixel_accuracy|iou_per_class"
         r"|traffic_timeline|accuracy_timeline|xavier_uniform|bucket_bounds"),
        ("load-adaptive degradation / per-session pool clock",
         r"LoadTracker|serve_budget|metric_floor|degraded_budget"
         r"|degraded_metric|observe_sweep|TickScheduler|start_tick"
         r"|tick_interval|trace_capacity"),
        ("interpreted-conv gather-index cache", r"_im2col_indices"),
        ("interpreted fallback step runner", r"_AutogradStepRunner"),
        ("second gate: tier-1 shell script and smoke scripts",
         r"test_tier1\.sh|smoke_(transport|serve_many|storm|fleet|obs)\b"),
        ("batch-norm running statistics / module buffer registry",
         r"use_batch_stats_in_eval|commit_running_stats|_pending_stats"
         r"|running_|register_buffer|\bset_buffer\b|named_buffers"
         r"|include_buffers|_bn_steps"),
        ("per-tap im2col copy loop in the engine gather", r"self\._taps\b"),
        ("second definition of an op: autograd's im2col / col2im, the "
         "engine's tap geometry and cross-entropy head",
         r"\b(im2col|col2im)\(|import (im2col|col2im)\b|CrossEntropyHead"
         r"|\b_tap_views\b|_wrapped_cells\b"),
        ("Adam-reset flag / oracle noise / simulated event log / retry seed",
         r"(?<![\"`])\b(reset_optimizer_state|teacher_boundary_noise)\b(?![\"`])"
         r"|\bboundary_noise\b|erode_cross|repro\.runtime\.trace|NullTrace"
         r"|EventType|retry_seed"),
        ("second arming path / test-only server-process knobs",
         r"ObsConfig|arm_from_config|obs_config|run_client_processes"
         r"|server_options|report_timeout_s|join_timeout_s"),
        ("second and third link model / settable paper latencies",
         r"DynamicNetworkModel|LinkTrace|to_network_model|LatencyModel"
         r"|\bt_prep\b"),
    )
    #: Directories skipped wherever they sit.
    SKIP_DIRS = {".git", ".hypothesis", ".pytest_cache", "raw", "bench"}

    @classmethod
    def _text_files(cls, root):
        """Every file under ``root`` the lint reads: not in a skipped
        directory, not a root note, not this file, not binary."""
        for path in sorted(root.rglob("*")):
            rel = path.relative_to(root)
            if (
                not path.is_file()
                or cls.SKIP_DIRS.intersection(rel.parts[:-1])
                or (len(rel.parts) == 1 and path.suffix == ".md"
                    and path.name != "README.md")
                or path.resolve() == pathlib.Path(__file__).resolve()
            ):
                continue
            data = path.read_bytes()
            if b"\0" not in data:
                yield rel, data.decode("utf-8", errors="replace")

    def test_no_retired_name_is_reintroduced(self):
        import re

        files = list(self._text_files(TestEveryModuleHasACaller.REPO))
        found = [
            f"{label}: {rel}:{text.count(chr(10), 0, hit.start()) + 1}: {hit.group()}"
            for label, pattern in self.RETIRED
            for rel, text in files
            for hit in [re.search(pattern, text)] if hit
        ]
        assert not found, "retired names reintroduced:\n" + "\n".join(found)


class TestNoWaitYieldSpins:
    """No wait under the transports or in the server loop may
    yield-spin: a blocked side parks in one ``select`` until its own
    deadline, so an idle server or client reads ~0 % CPU."""

    SPIN = r"time\.sleep\(\s*0(\.0*)?\s*\)"

    def test_no_sleep_zero_in_the_transports_or_the_server_loop(self):
        import re

        package = TestEveryModuleHasACaller.REPO / "src" / "repro"
        paths = [*sorted((package / "transport").rglob("*.py")),
                 package / "serving" / "runtime.py"]
        found = [
            f"{path.relative_to(package)}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(self.SPIN, line)
        ]
        assert not found, "yield-spin wait reintroduced:\n" + "\n".join(found)


class TestOneExecutor:
    """``src/`` has one executor, the compiled engine: outside
    ``repro.autograd`` nothing back-propagates a loss through the
    define-by-run graph (a compiled kernel's ``backward(grad)`` takes an
    argument and is not this), and the one step runner is the compiled
    one.  The define-by-run reference lives in ``tests/helpers.py``."""

    def test_no_backward_call_outside_autograd(self):
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
        assert callers == set()

    def test_make_step_runner_returns_the_compiled_runner(self):
        """No flag, no ``isinstance``, no freeze-state test and no
        missing plan stands between a model and its compiled step."""
        package = TestEveryModuleHasACaller.REPO / "src" / "repro"
        trainer = ast.parse((package / "distill" / "trainer.py").read_text())
        (factory,) = [
            node for node in trainer.body
            if isinstance(node, ast.FunctionDef) and node.name == "make_step_runner"
        ]
        (only,) = [n for n in ast.walk(factory) if isinstance(n, ast.Return)]
        assert only is factory.body[-1]
        assert ast.unparse(only.value.func) == "_CompiledStepRunner"


class TestPlanMemoryComesFromTheLayout:
    """A compiled plan's buffers are placed once, from the plan's own
    step order, by :class:`repro.engine.kernels.Layout`: in
    ``engine/kernels.py`` only the layout code calls a NumPy allocator,
    and no constructor anywhere in ``engine/`` does — so a kernel cannot
    bring private scratch back unnoticed."""

    ENGINE = TestEveryModuleHasACaller.REPO / "src" / "repro" / "engine"
    ALLOCATORS = {
        "empty", "zeros", "ones", "full",
        "empty_like", "zeros_like", "ones_like", "full_like",
    }

    @classmethod
    def _allocations(cls, node):
        return [
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "np"
            and call.func.attr in cls.ALLOCATORS
        ]

    def test_kernels_allocate_only_in_the_layout(self):
        tree = ast.parse((self.ENGINE / "kernels.py").read_text())
        layout = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Layout"
        ]
        assert len(layout) == 1 and self._allocations(layout[0])
        outside = [
            line for node in tree.body if node not in layout
            for line in self._allocations(node)
        ]
        assert not outside, f"kernels.py allocates outside Layout at lines {outside}"

    def test_no_engine_constructor_allocates(self):
        found = []
        for path in sorted(self.ENGINE.glob("*.py")):
            for cls in ast.walk(ast.parse(path.read_text())):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        found += [
                            f"{path.name}:{line}" for line in self._allocations(fn)
                        ]
        assert not found, f"constructors allocate: {found}"
