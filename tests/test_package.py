"""The package's public API: every submodule's ``__all__``, republished."""

import types

import spin_stirling
from spin_stirling import constants, core, cycle, errors, magnetometry, phasemap

MODULES = (constants, core, cycle, phasemap, magnetometry, errors)


def test_the_package_lists_each_module_interface_in_order():
    names = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert spin_stirling.__all__ == names
    assert len(set(names)) == len(names)


def test_every_top_level_name_is_the_object_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spin_stirling, name) is getattr(module, name), name


def test_the_package_holds_no_public_name_outside_its_list():
    public = {
        name
        for name, value in vars(spin_stirling).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(spin_stirling.__all__) - {"__version__"}


def test_constants_declare_exactly_the_four_constants():
    assert constants.__all__ == [
        "KB_EV_PER_K",
        "CURIE_CONSTANT_EMU_K_PER_MOL",
        "ORACLE_EXPONENT_CAP",
        "DEFAULT_COUPLING_CAP_K",
    ]


def test_names_the_modules_declare_are_importable_from_the_package():
    from spin_stirling import (
        DEFAULT_G_FACTOR,
        GFactorPolicy,
        ModeMap,
        default_classification_tolerance,
    )

    assert ModeMap is phasemap.ModeMap
    assert GFactorPolicy is magnetometry.GFactorPolicy
    assert DEFAULT_G_FACTOR == magnetometry.DEFAULT_G_FACTOR
    assert default_classification_tolerance is cycle.default_classification_tolerance
