"""The package exports exactly its modules' public names."""

import importlib

import relaytree

MODULES = ("alphabet", "bounds", "kernel", "logdomain", "oracle", "simulate")


def test_exports_are_the_union_of_the_module_exports():
    want = {}
    for name in MODULES:
        module = importlib.import_module(f"relaytree.{name}")
        want.update({attr: getattr(module, attr) for attr in module.__all__})
    assert len(want) == 60
    assert relaytree.__all__ == sorted(want)
    for attr, obj in want.items():
        assert getattr(relaytree, attr) is obj


def test_simulate_is_the_module():
    assert relaytree.simulate is importlib.import_module("relaytree.simulate")


def test_logdomain_exports():
    logdomain = importlib.import_module("relaytree.logdomain")
    assert logdomain.__all__ == ["LogProb", "log1mexp", "log_sum_exp"]
