"""Start-up contract: no command loads numpy or scipy, and importing the CLI loads
only the submodules every command needs.

Each case runs in a fresh interpreter, because this test process has long since
imported numpy and scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data"

# prints which heavy packages the preceding statements left in sys.modules
LOADED = ("import json, sys; print(json.dumps(sorted({name.split('.')[0] for name in sys.modules}"
          " & {'numpy', 'scipy'})))")


def run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_after(code):
    return json.loads(run_python("-c", f"{code}\n{LOADED}").stdout.splitlines()[-1])


def cli_call(*argv, exit_code=0):
    return ("import contextlib, io\nfrom dcecon.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == {exit_code}\n")


def test_import_loads_neither_numpy_nor_scipy():
    assert loaded_after("import dcecon.cli") == []


def test_import_cli_leaves_trace_writer_modules_unloaded():
    # the trace writer imports tempfile and shutil when it runs, and
    # optimizers.reaping imports signal only to kill a child; -S skips site,
    # which on some installs imports tempfile itself
    out = run_python("-S", "-c", "import sys\nimport dcecon.cli\n"
                     "print(sorted({'tempfile', 'shutil', 'signal'} & set(sys.modules)))").stdout
    assert out.strip() == "[]"


def test_import_cli_leaves_unused_submodules_unloaded():
    out = run_python(
        "-c",
        "import json, sys\n"
        "import dcecon.cli\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('dcecon'))))\n"
    ).stdout
    loaded = set(json.loads(out))
    assert "dcecon.cli" in loaded
    assert not loaded & {"dcecon.closed_form", "dcecon.frontier", "dcecon.concentration",
                         "dcecon.reference", "dcecon.fitting"}


def test_python_m_dcecon_hhi_imports_neither_numpy_nor_scipy():
    proc = run_python("-X", "importtime", "-m", "dcecon", "hhi",
                      "--input", str(DATA_DIR / "iaas_shares.csv"))
    # -X importtime logs "import time: self | cumulative | <indent>module" per import
    imported = {line.rsplit("|", 1)[1].strip().split(".")[0]
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "dcecon" in imported
    assert not imported & {"numpy", "scipy"}


def test_no_command_loads_numpy_or_scipy(tmp_path):
    data = tmp_path / "fit.csv"
    data.write_text("new_server_cost,power_cooling_cost,output\n"
                    "2,3,5.1\n4,3,7.9\n3,5,8.2\n6,2,9.0\n5,6,13.1\n")
    assert loaded_after(cli_call("fit", "--input", str(data))) == []
    assert loaded_after(cli_call("fit", "--input", str(data), "--constrained",
                                 str(DATA_DIR / "constraints_rts.csv"))) == []
    # alpha <= -1 and alpha >= 1: the QP is infeasible, a numerical error (exit 3)
    infeasible = tmp_path / "infeasible.csv"
    infeasible.write_text("c1,c2,c3,b\n0,1,0,-1\n0,-1,0,-1\n")
    assert loaded_after(cli_call("fit", "--input", str(data), "--constrained",
                                 str(infeasible), exit_code=3)) == []


def test_constrained_fit_runs_where_numpy_cannot_be_imported(tmp_path):
    data = tmp_path / "fit.csv"
    data.write_text("new_server_cost,power_cooling_cost,output\n"
                    "2,3,5.1\n4,3,7.9\n3,5,8.2\n6,2,9.0\n5,6,13.1\n")
    argv = ["dcecon", "fit", "--input", str(data), "--constrained",
            str(DATA_DIR / "constraints_rts.csv")]
    # None in sys.modules makes every `import numpy` raise ImportError; run() exits 0
    out = run_python("-c", "import sys\nsys.modules['numpy'] = None\n"
                     f"sys.argv = {argv!r}\n"
                     "from dcecon.__main__ import run\nrun()\n").stdout
    assert json.loads(out)["config"]["method"] == "constrained_qp"


def test_fit_reads_its_files_before_importing_fitting(tmp_path):
    def fitting_loaded(call):
        out = run_python("-c", f"{call}import sys\nprint('dcecon.fitting' in sys.modules)\n")
        return out.stdout.splitlines()[-1]

    assert fitting_loaded(cli_call("fit", "--input", str(tmp_path / "missing.csv"),
                                   exit_code=2)) == "False"
    data = tmp_path / "fit.csv"
    data.write_text("new_server_cost,power_cooling_cost,output\n2,3,5.1\n4,3,7.9\n3,5,8.2\n")
    assert fitting_loaded(cli_call("fit", "--input", str(data), "--constrained",
                                   str(tmp_path / "missing.csv"), exit_code=2)) == "False"


def test_every_name_and_submodule_resolves_from_the_package():
    out = run_python(
        "-c",
        "import json, dcecon\n"
        "namespace = {}\n"
        "exec('from dcecon import *', namespace)\n"
        "modules = ('cli', 'closed_form', 'concentration', 'errors', 'fitting', 'frontier',\n"
        "           'optimizers', 'production', 'reference', 'reports')\n"
        "owners = {name: namespace[name].__module__ for name in dcecon.__all__}\n"
        "assert all(getattr(dcecon, module).__name__ == 'dcecon.' + module for module in modules)\n"
        "assert all(getattr(dcecon, name) is getattr(getattr(dcecon, owner.split('.')[1]), name)\n"
        "           for name, owner in owners.items())\n"
        "print(json.dumps(sorted(set(owners.values()))))\n").stdout
    assert json.loads(out) == [f"dcecon.{module}" for module in (
        "closed_form", "concentration", "errors", "fitting", "frontier", "optimizers",
        "production", "reports")]


def test_fitting_names_still_resolve_from_the_package():
    out = run_python(
        "-c",
        "import dcecon\n"
        "from dcecon import qp_solve\n"
        "namespace = {}\n"
        "exec('from dcecon import *', namespace)\n"
        "assert all(name in namespace for name in dcecon.__all__)\n"
        "assert namespace['qp_solve'] is qp_solve is dcecon.fitting.qp_solve\n"
        "assert dcecon.DesignMatrix is dcecon.fitting.DesignMatrix\n"
        "print(qp_solve.__module__)\n").stdout
    assert out.strip() == "dcecon.fitting"


def test_unknown_attribute_raises_attribute_error():
    out = run_python(
        "-c",
        "import dcecon\n"
        "try:\n"
        "    dcecon.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n").stdout
    assert out.strip() == "module 'dcecon' has no attribute 'no_such_name'"
