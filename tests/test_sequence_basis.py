import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stock_seed_schedules_agree():
    out = subprocess.run([sys.executable, "tools/sequence_basis.py", "0", "0"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert re.fullmatch(r"seed +0  a-2_h\+3 basis +- ulp-start +-  a\+1_h\+0 basis +- ulp-start +-\n",
                        out)


def test_usage_exits_2():
    result = subprocess.run([sys.executable, "tools/sequence_basis.py", "0"], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 2 and "SEED_FROM SEED_TO" in result.stderr
