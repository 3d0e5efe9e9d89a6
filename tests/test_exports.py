"""The package's export table: every public name resolves from its layer on
first read, and an entry point loads only the layers it uses."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import temperedk
from temperedk import ktheory

EXPORTS = {
    "__version__",
    "ComplexCharacter",
    "ComplexComponent",
    "ComplexTemperedPoint",
    "Component",
    "ConeChart",
    "IndexFamily",
    "InducedKMap",
    "KClass",
    "KGroupPresentation",
    "LParameterC",
    "LParameterR",
    "LeviShape",
    "OneDim",
    "ParameterMap",
    "RealCharacter",
    "RealTemperedPoint",
    "SigmaOrbit",
    "TemperedPoint",
    "TwoDimInduced",
    "bc_component",
    "bc_point_real",
    "canonicalize_point",
    "closed_form_complex",
    "closed_form_real",
    "complex_components",
    "cone_chart",
    "enumerate_levi_shapes",
    "enumerate_orbits",
    "induced_k_map",
    "k_complex",
    "k_real",
    "kclass",
    "kclass_add",
    "kclass_scale",
    "langlands_complex",
    "langlands_real",
    "langlands_real_inverse",
    "pullback",
    "real_components",
    "restrict",
    "run_multiplicities",
    "weyl_group",
}


def _run(probe):
    env = dict(os.environ, PYTHONPATH=str(Path(temperedk.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.split()


class TestExportTable:
    def test_all_lists_the_public_names_once(self):
        assert set(temperedk.__all__) == EXPORTS
        assert len(temperedk.__all__) == len(EXPORTS)

    def test_every_name_is_its_layers_object(self):
        for name in EXPORTS - {"__version__"}:
            value = getattr(temperedk, name)
            layer = importlib.import_module(value.__module__)
            assert layer.__name__.startswith("temperedk.")
            assert getattr(layer, name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from temperedk import *", namespace)
        assert set(namespace) - {"__builtins__"} == EXPORTS
        assert namespace["k_real"] is ktheory.k_real

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            temperedk.no_such_name
        assert not hasattr(temperedk, "no_such_name")
        with pytest.raises(ImportError):
            exec("from temperedk import no_such_name", {})

    def test_dir_lists_the_exports(self):
        assert EXPORTS <= set(dir(temperedk))

    def test_package_holds_no_second_binding(self, monkeypatch):
        original = ktheory.k_real

        def fake(n, cutoff):
            return ()

        monkeypatch.setattr(ktheory, "k_real", fake)
        assert temperedk.k_real is fake
        monkeypatch.undo()
        assert temperedk.k_real is original
        assert "k_real" not in vars(temperedk)


class TestLayersLoadedOnUse:
    def test_cli_leaves_weil_unloaded_until_a_weil_name_is_read(self):
        probe = (
            "import sys, temperedk.cli; print('temperedk.weil' in sys.modules); "
            "import temperedk; temperedk.restrict; print('temperedk.weil' in sys.modules)"
        )
        assert _run(probe) == ["False", "True"]

    def test_cli_import_skips_dataclasses_and_inspect(self):
        # Compared with what the interpreter loaded before the import, so a
        # module that start-up itself loads is not counted against the CLI.
        probe = (
            "import sys; before = set(sys.modules); import temperedk.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        assert _run(probe) == ["[]"]

    def test_package_import_loads_no_layer(self):
        probe = (
            "import sys, temperedk; "
            "print(sorted(m for m in sys.modules if m.startswith('temperedk.')))"
        )
        assert _run(probe) == ["[]"]
