import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _outputs(*entries):
    return subprocess.run([sys.executable, "tools/outputs.py", *entries], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def test_listing_of_one_entry_repeats_exactly():
    first = _outputs("ei-balance")
    assert first == _outputs("ei-balance")
    *files, total = first.splitlines()
    assert "ei-balance/report.json" in {line.split("  ")[1] for line in files}
    assert all(re.fullmatch(r"[0-9a-f]{64}  ei-balance/\S+", line) for line in files)
    assert re.fullmatch(r"[0-9a-f]{64}  total", total)


def test_unknown_entry_exits_2():
    result = subprocess.run([sys.executable, "tools/outputs.py", "bogus"], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 2 and "bogus" in result.stderr
