"""The one range check, and the two walks that find a missed bound.

``repro.bounds.within`` is the only place that decides whether a number
lies in range.  The walks below make a missing bound a test failure:

* every ``type=float`` / ``type=int`` option of ``build_parser()`` is
  given out-of-range values and must exit 2 naming itself before any
  subcommand body runs, unless the value is allow-listed with the
  meaning it has;
* every config dataclass in ``src/`` is built with NaN and then ``inf``
  in each float field and must raise a ``ValueError`` naming the field,
  unless the ``inf`` is allow-listed with the meaning its docstring
  states.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import math
import pathlib
import types
import typing

import pytest

import repro
from repro import cli
from repro.bounds import within


class TestWithin:
    @pytest.mark.parametrize("value, interval", [
        (0.5, "(0, 1)"), (0, "[0, 1)"), (1, "(0, 1]"), (3, "[1, inf)"),
        (math.inf, "[0, inf]"), (-math.inf, "[-inf, 0]"),
    ])
    def test_value_inside_is_returned(self, value, interval):
        assert within("x", value, interval) == value

    @pytest.mark.parametrize("value, interval", [
        (0, "(0, 1)"), (1, "[0, 1)"), (math.nan, "[-inf, inf]"),
        (math.inf, "[0, inf)"), (-math.inf, "(-inf, 0]"), (0, "[1, inf)"),
    ])
    def test_value_outside_names_the_value_and_interval(self, value,
                                                        interval):
        with pytest.raises(ValueError) as info:
            within("my_field", value, interval)
        assert str(info.value) == (f"my_field must lie in {interval}, "
                                   f"got {value}")

    def test_malformed_interval_is_rejected(self):
        with pytest.raises(ValueError, match="bad interval"):
            within("x", 1, "<0, 1>")


# -- the CLI walk -------------------------------------------------------

_SEEDED = ("metrics", "autoscale", "trace", "cache", "network", "profile",
           "faas", "sweep")

#: In-range sentinels: the option's help states ``"<value> = <meaning>"``.
SENTINELS = {
    ("metrics", "--queue-limit", "0"): "unbounded",
    ("autoscale", "--max-replicas", "0"):
        "derive from the capacity planner at the step rate",
    ("autoscale", "--admit-rate", "0"): "off",
    ("trace", "--admit-rate", "0"): "off",
    ("autoscale", "--shed-queue", "0"): "off",
    ("trace", "--shed-queue", "0"): "off",
    ("autoscale", "--cooldown", "0"): "no pause",
    ("cache", "--threshold", "0"): "exact",
    ("network", "--outage-start", "0"): "no outage",
    ("network", "--broker-messages", "0"): "publish none",
    ("faas", "--night-rate", "0"): "an idle night",
    ("sweep", "--night-rate", "0"): "an idle night",
    ("faas", "--keep-alive", "0"): "reap after every response",
    ("faas", "--keep-alive", "inf"): "never reap",
    ("faas", "--max-provisioned", "0"): "never provision",
    ("faas", "--max-events", "0"): "none",
}

#: In-range ordinary values, with what each means.
ORDINARY = {
    **{(cmd, "--seed", "0"): "a seed like any other" for cmd in _SEEDED},
    ("autoscale", "--step-start", "0"): "the step opens the trace",
    ("trace", "--step-start", "0"): "the step opens the trace",
    ("trace", "--edge-preprocess-ms", "0"): "no edge preprocessing time",
    ("network", "--loss", "0"): "a lossless link",
    ("network", "--jitter-ms", "0"): "a link without jitter",
    ("network", "--scene-change-rate", "0"): "a static scene",
}


def _numeric_options():
    """``(subcommand, action)`` for every float or int option."""
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type in (float, int):
                yield command, action


def _cases():
    for command, action in _numeric_options():
        values = (("nan", "inf", "-1", "0") if action.type is float
                  else ("-1", "0"))
        for value in values:
            yield command, action.option_strings[0], value


CASES = list(_cases())


class TestCliWalk:
    def test_every_numeric_option_declares_its_bound(self):
        options = list(_numeric_options())
        assert len(options) >= 82
        for command, action in options:
            assert isinstance(action, cli._Within), (command, action.dest)
            if action.default is not None:
                within(action.option_strings[0], action.default,
                       action.interval)

    def test_allow_list_names_only_walked_values(self):
        assert set(SENTINELS) | set(ORDINARY) <= set(CASES)

    @pytest.mark.parametrize("command, option, value", CASES)
    def test_out_of_range_value_exits_2_before_the_run(
            self, monkeypatch, capsys, command, option, value):
        if (command, option, value) in SENTINELS | ORDINARY:
            args = cli.build_parser().parse_args([command, option, value])
            assert args.func.__name__ == f"_cmd_{command}"
            return

        def never(args):
            raise AssertionError(f"{command} ran with {option} {value}")

        for name in dir(cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(cli, name, never)
        assert cli.main([command, option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0].startswith(f"error: {option} ")

    @pytest.mark.parametrize("command, option, value", sorted(SENTINELS))
    def test_sentinel_meaning_is_in_the_help(self, command, option, value):
        helps = {(cmd, action.option_strings[0]): action.help
                 for cmd, action in _numeric_options()}
        assert f"{value} = {SENTINELS[command, option, value]}" in \
            helps[command, option]


# -- the dataclass walk -------------------------------------------------

_SUFFIXES = ("Config", "Spec", "Model", "Params")

#: Classes never built from outside input, each with why.
EXCLUDED = {
    "repro.serving.request.Request": "built once per arrival on the hot "
                                     "path, by the replayers and clients",
    "repro.cache.keys.FrameFingerprint": "built once per frame on the hot "
                                         "path, by fingerprint()",
    "repro.models.trt.BuiltEngineSpec": "computed by the engine builder",
}

#: ``inf`` values that mean something, as the class docstring says.
INF_ALLOWED = {
    ("repro.faas.backend.FaaSFunctionConfig", "keep_alive_seconds"):
        "never reaps",
}


def _bases() -> list:
    """A valid instance of every walked class that has a float field."""
    from repro.continuum.deployment import ModelEntryConfig
    from repro.continuum.network import get_link
    from repro.continuum.stitching import StitchCostModel
    from repro.data.distributions import VariableSize
    from repro.faas.backend import FaaSFunctionConfig
    from repro.faas.cost import CostModel
    from repro.faas.platform import get_faas_platform
    from repro.hardware.platform import get_platform
    from repro.hardware.power import power_profile_for
    from repro.models.vit import VIT_CONFIGS
    from repro.predict.capacity import WorkloadSpec
    from repro.preprocessing.cost import cost_params_for
    from repro.scale.admission import AdmissionConfig
    from repro.scale.autoscaler import AutoscalerConfig, FaaSPolicyConfig
    from repro.serving.batcher import BatcherConfig
    from repro.serving.faults import FaultModel, LinkOutageModel
    from repro.serving.fluid import FluidConfig
    from repro.serving.slo import SLOConfig
    from repro.serving.traces import ArrivalTrace

    faas_platform = get_faas_platform("container_faas")
    return [
        ModelEntryConfig("resnet50", "crsa", 8, 0.005, 1, True),
        get_link("farm_wifi"),
        StitchCostModel(),
        VariableSize(mode_width=200, mode_height=150),
        FaaSFunctionConfig("f", lambda n: 0.01 * n, faas_platform),
        CostModel(),
        faas_platform,
        get_platform("jetson"),
        power_profile_for("jetson"),
        VIT_CONFIGS["vit_tiny"],
        WorkloadSpec(images_per_second=60.0, latency_slo_seconds=0.1),
        cost_params_for("a100"),
        AdmissionConfig(rate_per_second=100.0, burst=10),
        AutoscalerConfig(slo_p95_seconds=0.1),
        FaaSPolicyConfig(),
        BatcherConfig(),
        FaultModel(failure_probability=0.1),
        LinkOutageModel(),
        FluidConfig(),
        SLOConfig(latency_threshold_seconds=0.1),
        ArrivalTrace("t", (0.5,), 1.0),
    ]


def _qualname(cls) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _walked_classes() -> list:
    """Every dataclass in ``src/`` with a ``__post_init__`` or a config
    name, found by reading the source rather than a hand-kept list."""
    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(
            ("repro",) + path.relative_to(root).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            post_init = any(isinstance(item, ast.FunctionDef)
                            and item.name == "__post_init__"
                            for item in node.body)
            if post_init or node.name.endswith(_SUFFIXES):
                cls = getattr(importlib.import_module(module), node.name)
                if dataclasses.is_dataclass(cls):
                    found.append(cls)
    return found


def _float_fields(cls) -> list[str]:
    """The init fields typed ``float`` or ``float | None``."""
    hints = typing.get_type_hints(cls)
    names = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        if field.init and (hint is float
                           or union and float in typing.get_args(hint)):
            names.append(field.name)
    return names


WALKED = _walked_classes()
BASES = {_qualname(type(base)): base for base in _bases()}


class TestDataclassWalk:
    def test_walk_finds_every_config_class(self):
        assert len(WALKED) >= 43
        walked = {_qualname(cls) for cls in WALKED}
        assert set(EXCLUDED) <= walked
        assert set(BASES) <= walked

    def test_every_class_with_a_float_field_has_a_base(self):
        missing = [_qualname(cls) for cls in WALKED
                   if _float_fields(cls)
                   and _qualname(cls) not in BASES | EXCLUDED]
        assert missing == []

    def test_inf_allow_list_meaning_is_documented(self):
        for (name, field), meaning in INF_ALLOWED.items():
            base = BASES[name]
            assert field in _float_fields(type(base))
            assert meaning in " ".join(inspect.getdoc(type(base)).split())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(BASES))
    def test_bad_float_names_its_field(self, name, value):
        base = BASES[name]
        for field in _float_fields(type(base)):
            if value == math.inf and (name, field) in INF_ALLOWED:
                dataclasses.replace(base, **{field: value})
                continue
            with pytest.raises(ValueError, match=field):
                dataclasses.replace(base, **{field: value})
