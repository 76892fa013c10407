"""The demo scripts run, and the package exports what it declares."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relbox

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_every_exported_name_resolves():
    for name in relbox.__all__:
        assert getattr(relbox, name) is not None, name


# ``relbox.__all__`` as it stood when it was derived from the modules' own lists.
PUBLIC_NAMES = {
    "BoxSpec", "QuantumNumbers", "FVSpinor", "ModeAmplitudes", "mode_amplitudes",
    "charge_conjugate", "dispersion", "ConvergenceError", "CapacityError",
    "kg_wavenumber_1d", "dirac_wavenumber_1d", "kg_wavenumbers_3d", "dirac_wavenumbers_3d",
    "MODELS", "Level", "SpectrumRequest", "level_1d", "level_3d", "enumerate_levels",
    "count_states", "spectrum_table", "BoxState", "FieldGrid", "FieldSample", "GridSpec",
    "conjugated_state", "normalization_check", "stationarity_residual", "__version__",
}


def test_package_surface_is_each_module_surface_once():
    import relbox.fields

    assert len(relbox.__all__) == len(set(relbox.__all__))
    assert set(relbox.__all__) == PUBLIC_NAMES
    for module in (relbox.core, relbox.errors, relbox.rootfind, relbox.spectra, relbox.fields):
        for name in module.__all__:
            assert getattr(relbox, name) is getattr(module, name), (module.__name__, name)
