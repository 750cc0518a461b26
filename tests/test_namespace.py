import re
import types
from pathlib import Path

import opfdiag

EXPORTS = {
    "load_case", "CaseError", "builtin", "BUILTIN_NAMES",
    "system_for_case", "ConstraintError", "InfeasiblePointError",
    "solve_power_flow", "state_from_list", "PowerFlowError",
    "licq_check", "CostSpec",
    "make_model", "run_genericity_experiment", "tangency_escape_probe",
    "PerturbationError",
}


def test_all_is_the_loaders_check_sweep_probe_and_cli_errors():
    assert len(opfdiag.__all__) == len(EXPORTS)
    assert set(opfdiag.__all__) == EXPORTS


def test_package_exports_no_other_public_name():
    public = {name for name, value in vars(opfdiag).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(opfdiag.__all__)


def test_readme_python_api_lists_all():
    readme = Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = [name for line in section.splitlines() if line.startswith("- ")
              for name in re.findall(r"`(\w+)`", line)]
    assert sorted(listed) == sorted(opfdiag.__all__)
