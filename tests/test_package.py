import subprocess
import sys

import pytest

import circlecorr


def test_all_exports_resolve():
    missing = [name for name in circlecorr.__all__ if not hasattr(circlecorr, name)]
    assert missing == []
    assert len(set(circlecorr.__all__)) == len(circlecorr.__all__)


def test_names_import_their_module_on_first_access():
    code = ("import sys, circlecorr\n"
            "print(*sorted(m for m in sys.modules if m.startswith('circlecorr.')))\n"
            "from circlecorr import f_stat\n"
            "print(f_stat.__module__, 'circlecorr.verify' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "circlecorr.paircorr False"]
    with pytest.raises(AttributeError):
        circlecorr.no_such_name
