import subprocess
import sys

# The library and its command line need only numpy; scipy serves the test
# oracles alone. A fresh interpreter shows what `import proxmse` pulls in.
PROBE = (
    "import sys\n"
    "import proxmse, proxmse.cli\n"
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def test_import_loads_no_scipy():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
