import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


def fingerprint(*names) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *names], capture_output=True, text=True, timeout=120, check=True
    )
    return done.stdout.splitlines()


def test_fingerprint_repeats_exactly():
    names = ("ssrgd/online/first", "svrg/saddle", "diag", "plan")
    first = fingerprint(*names)
    assert first == fingerprint(*names)
    labels = [line.split()[0] for line in first]
    assert labels == [
        "ssrgd/online/first/full", "ssrgd/online/first/epoch", "svrg/saddle/epoch",
        "diag/coupled", "diag/epoch_decrease", "diag/localization", "diag/variance",
        "plan/*.json", "plan/*.csv", "plan/*.svg", "combined",
    ]
    assert all(len(line.split()[1]) == 64 for line in first)


def test_ab_smoke_same_tree_on_both_sides():
    root = SCRIPT.parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "ab.py"), "--parent", str(root), "--rounds", "1", "--scale", "0.01"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["workload", "unit"]
    assert [row.split()[:2] for row in rows] == [["fs", "us/iter"], ["online", "us/iter"], ["plan", "s"]]
    for row in rows:
        *_, ratio, wins, identical = row.split()
        assert float(ratio) > 0 and wins in ("0/1", "1/1") and identical == "yes"
